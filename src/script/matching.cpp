#include "script/matching.hpp"

#include <algorithm>

#include "support/panic.hpp"

namespace script::core::detail {

// ---- MatchState ----

void MatchState::reset(const ScriptSpec& spec) {
  spec_ = &spec;
  const std::size_t decls = spec.roles().size();
  slots_.assign(spec.slot_count(), RoleSlot{});
  open_.clear();
  allowed_pool_.clear();
  bound_by_decl_.assign(decls, 0);
  open_size_.assign(decls, 0);
  index_floor_.assign(decls, 0);
  bound_total_ = 0;
  cs_met_.clear();
  cs_satisfied_ = 0;
  cs_ready_ = false;
}

std::size_t MatchState::find_slot(std::size_t decl, int index) const {
  const RoleDecl& d = spec_->roles()[decl];
  if (!d.open_ended) {
    if (!d.indexed)
      return index == kSingleton ? spec_->first_slot(decl) : kNoSlot;
    if (index < 0 || static_cast<std::size_t>(index) >= d.count)
      return kNoSlot;
    return spec_->first_slot(decl) + static_cast<std::size_t>(index);
  }
  for (std::size_t k = 0; k < open_.size(); ++k)
    if (open_[k].decl == decl && open_[k].index == index)
      return spec_->slot_count() + k;
  return kNoSlot;
}

std::size_t MatchState::find_slot(const RoleId& r) const {
  const std::size_t d = spec_->decl_index(r.name);
  return d == kNoSlot ? kNoSlot : find_slot(d, r.index);
}

std::size_t MatchState::slot_for(std::size_t decl, int index) {
  const std::size_t s = find_slot(decl, index);
  if (s != kNoSlot || !spec_->roles()[decl].open_ended || index < 0) return s;
  open_.push_back(OpenMember{decl, index});
  slots_.emplace_back();
  return slots_.size() - 1;
}

std::size_t MatchState::slot_decl(std::size_t s) const {
  const std::size_t fixed = spec_->slot_count();
  return s < fixed ? spec_->slot_decl(s) : open_[s - fixed].decl;
}

int MatchState::slot_index(std::size_t s) const {
  const std::size_t fixed = spec_->slot_count();
  return s < fixed ? spec_->fixed_roles()[s].index : open_[s - fixed].index;
}

RoleId MatchState::role_at(std::size_t s) const {
  const std::size_t fixed = spec_->slot_count();
  if (s < fixed) return spec_->fixed_roles()[s];
  return RoleId(spec_->roles()[open_[s - fixed].decl].name,
                open_[s - fixed].index);
}

ProcessId MatchState::bound_to(const RoleId& r) const {
  if (spec_ == nullptr) return kNoProcess;
  const std::size_t s = find_slot(r);
  return s == kNoSlot ? kNoProcess : slots_[s].pid;
}

std::vector<std::pair<RoleId, ProcessId>> MatchState::bindings() const {
  std::vector<std::pair<RoleId, ProcessId>> out;
  if (spec_ == nullptr) return out;
  for_each_slot([&](std::size_t s) {
    if (slots_[s].pid != kNoProcess)
      out.emplace_back(role_at(s), slots_[s].pid);
  });
  return out;
}

std::size_t MatchState::open_size(const std::string& role_name) const {
  const std::size_t d =
      spec_ == nullptr ? kNoSlot : spec_->decl_index(role_name);
  return d == kNoSlot ? 0 : open_size_[d];
}

bool MatchState::permits(std::size_t s, ProcessId pid) const {
  const RoleSlot& slot = slots_[s];
  if (!slot.constrained) return true;
  const auto first = allowed_pool_.begin() + slot.allowed_at;
  return std::find(first, first + slot.allowed_len, pid) !=
         first + slot.allowed_len;
}

bool MatchState::permits(const RoleId& r, ProcessId pid) const {
  if (spec_ == nullptr) return true;
  const std::size_t s = find_slot(r);
  return s == kNoSlot || permits(s, pid);
}

void MatchState::bind(std::size_t s, ProcessId pid) {
  slots_[s].pid = pid;
  ++bound_total_;
  const std::size_t d = slot_decl(s);
  const std::size_t now_bound = ++bound_by_decl_[d];
  if (spec_->roles()[d].open_ended)
    open_size_[d] = std::max(open_size_[d],
                             static_cast<std::size_t>(slot_index(s)) + 1);
  if (!cs_ready_) return;
  // Keep the per-set fill counters current: this binding may push a
  // requirement over its threshold (crossing exactly `needed`); a set
  // is met once all its requirements are.
  const auto& reqs = spec_->critical_reqs();
  for (const CriticalNeed& need : spec_->critical_needs()[d])
    if (now_bound == need.needed &&
        ++cs_met_[need.set_index] == reqs[need.set_index].size())
      ++cs_satisfied_;
}

void MatchState::restrict_allowed(std::size_t s, const PidList& pids) {
  RoleSlot& slot = slots_[s];
  if (!slot.constrained) {
    // First constraint on the role: its allowed set is exactly `pids`.
    slot.constrained = true;
    slot.allowed_at = static_cast<std::uint32_t>(allowed_pool_.size());
    for (const ProcessId p : pids)
      if (std::find(allowed_pool_.begin() + slot.allowed_at,
                    allowed_pool_.end(), p) == allowed_pool_.end())
        allowed_pool_.push_back(p);
    slot.allowed_len =
        static_cast<std::uint32_t>(allowed_pool_.size() - slot.allowed_at);
    return;
  }
  // Intersect in place: the set only ever shrinks. Recording an empty
  // intersection is legal: it means nobody can fill the role.
  const auto first = allowed_pool_.begin() + slot.allowed_at;
  const auto last = std::remove_if(first, first + slot.allowed_len,
                                   [&](ProcessId p) {
                                     return std::find(pids.begin(), pids.end(),
                                                      p) == pids.end();
                                   });
  slot.allowed_len = static_cast<std::uint32_t>(last - first);
}

bool MatchState::critical_satisfied() const {
  if (!cs_ready_) {
    // First-time fill from the current bindings; afterwards bind()
    // keeps the counters current incrementally.
    const auto& reqs = spec_->critical_reqs();
    cs_met_.assign(reqs.size(), 0);
    cs_satisfied_ = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      for (const CriticalReq& r : reqs[i])
        if (bound_by_decl_[r.decl] >= r.needed) ++cs_met_[i];
      if (cs_met_[i] == reqs[i].size()) ++cs_satisfied_;
    }
    cs_ready_ = true;
  }
  return cs_satisfied_ > 0;
}

namespace {

/// Resolve a request to the slot of a concrete role, or kNoSlot. A
/// specific request names its role; an any-index request takes the
/// lowest unbound, non-out index whose accumulated constraints permit
/// `pid` (fixed family), or the next fresh index (open family — its
/// slot is created here).
std::size_t resolve(const ScriptSpec& spec, MatchState& st,
                    std::size_t decl, const RequestView& req) {
  const RoleDecl& d = spec.roles()[decl];
  if (!req.requested.is_any_index())
    return st.slot_for(decl, req.requested.index);
  SCRIPT_ASSERT(d.indexed, "any-index enrollment into singleton role " +
                               req.requested.name);
  if (d.open_ended)
    return st.slot_for(decl, static_cast<int>(st.open_size(decl)));
  // Lowest free index whose accumulated naming constraints accept this
  // process (an index pinned to someone else by an earlier member's
  // PartnerSpec must be left for them). Start at the family's scan
  // floor — bindings are monotone, so indices below it stay bound
  // forever and never need re-checking.
  const std::size_t first = spec.first_slot(decl);
  std::size_t& floor = st.index_floor(decl);
  while (floor < d.count && st.slot(first + floor).pid != kNoProcess)
    ++floor;
  for (std::size_t i = floor; i < d.count; ++i) {
    const RoleSlot& slot = st.slot(first + i);
    if (slot.pid == kNoProcess && (slot.flags & kOut) == 0 &&
        st.permits(first + i, req.pid))
      return first + i;
  }
  return kNoSlot;
}

}  // namespace

std::size_t try_admit(const ScriptSpec& spec, MatchState& st,
                      const RequestView& req) {
  SCRIPT_ASSERT(spec.valid(req.requested),
                "enrollment names unknown role " + req.requested.str());
  st.attach(spec);
  const std::size_t s =
      resolve(spec, st, spec.decl_index(req.requested.name), req);
  if (s == kNoSlot) return kNoSlot;
  if (st.slot(s).pid != kNoProcess || (st.slot(s).flags & kOut) != 0)
    return kNoSlot;
  // Every current member must accept this process for this role...
  if (!st.permits(s, req.pid)) return kNoSlot;
  // ...and this request's own naming must not contradict agreed
  // bindings — including the binding this admission would create (a
  // request may constrain the very role it enrolls into, e.g. "I play
  // fam[1] and fam[1] must be me-or-A").
  if (req.partners != nullptr) {
    for (const auto& [partner_role, pids] : req.partners->constraints()) {
      const std::size_t ps = st.find_slot(partner_role);
      if (ps == kNoSlot) continue;  // nobody can bind it yet: vacuous
      const ProcessId bound_to = ps == s ? req.pid : st.slot(ps).pid;
      if (bound_to != kNoProcess &&
          std::find(pids.begin(), pids.end(), bound_to) == pids.end())
        return kNoSlot;
    }
  }

  // Commit.
  st.bind(s, req.pid);
  if (req.partners != nullptr) {
    for (const auto& [partner_role, pids] : req.partners->constraints()) {
      const std::size_t d = spec.decl_index(partner_role.name);
      if (d == kNoSlot) continue;  // undeclared: can never be filled
      const std::size_t ps = st.slot_for(d, partner_role.index);
      if (ps != kNoSlot) st.restrict_allowed(ps, pids);
    }
  }
  return s;
}

bool critical_satisfied(const ScriptSpec& spec, const MatchState& st) {
  if (st.attached_to(spec)) return st.critical_satisfied();
  MatchState empty;  // never admitted into: no bindings yet
  empty.reset(spec);
  return empty.critical_satisfied();
}

namespace {

struct Former {
  const ScriptSpec& spec;
  const std::vector<RequestView>& queue;
  // avail(i, decl): how many requests at positions >= i ask for that
  // role — an optimistic bound used to prune hopeless branches
  // (otherwise a failed formation costs 2^queue explorations on EVERY
  // enrollment while a cast assembles). One flat table, row i at
  // i * decls.
  std::vector<std::size_t> suffix_avail;
  std::size_t decls = 0;
  std::uint64_t nodes = 0;
  static constexpr std::uint64_t kNodeCap = 1u << 20;
  using Admitted = std::vector<std::pair<std::size_t, std::size_t>>;

  std::size_t avail(std::size_t i, std::size_t decl) const {
    return suffix_avail[i * decls + decl];
  }

  void build_suffix_bounds() {
    decls = spec.roles().size();
    suffix_avail.assign((queue.size() + 1) * decls, 0);
    for (std::size_t i = queue.size(); i-- > 0;) {
      std::copy_n(suffix_avail.begin() + (i + 1) * decls, decls,
                  suffix_avail.begin() + i * decls);
      ++suffix_avail[i * decls + spec.decl_index(queue[i].requested.name)];
    }
  }

  bool reachable(std::size_t i, const MatchState& st) const {
    for (const auto& reqs : spec.critical_reqs()) {
      bool ok = true;
      for (const CriticalReq& r : reqs) {
        if (st.bound_count(r.decl) + avail(i, r.decl) < r.needed) {
          ok = false;
          break;
        }
      }
      if (ok) return true;
    }
    return false;
  }

  /// Candidate concrete roles for a request at this state. A specific
  /// request has one candidate; an any-index request into a FIXED
  /// family may need a non-lowest index to satisfy later members'
  /// constraints (en-bloc naming), so every feasible index is a branch.
  std::vector<RoleId> candidates(const MatchState& st,
                                 const RequestView& req) const {
    if (!req.requested.is_any_index()) return {req.requested};
    const std::size_t decl = spec.decl_index(req.requested.name);
    const RoleDecl& d = spec.roles()[decl];
    if (d.open_ended)
      return {RoleId(req.requested.name,
                     static_cast<int>(st.open_size(decl)))};
    std::vector<RoleId> out;
    const std::size_t first = spec.first_slot(decl);
    for (std::size_t i = 0; i < d.count; ++i)
      if (st.slot(first + i).pid == kNoProcess &&
          st.permits(first + i, req.pid))
        out.emplace_back(req.requested.name, static_cast<int>(i));
    return out;
  }

  bool dfs(std::size_t i, MatchState st, Admitted admitted, FormResult& out) {
    if (++nodes >= kNodeCap) return false;  // search budget spent
    if (st.critical_satisfied()) {
      // Maximal extension: greedily admit the rest in arrival order.
      for (std::size_t j = i; j < queue.size(); ++j) {
        const std::size_t s = try_admit(spec, st, queue[j]);
        if (s != kNoSlot) admitted.emplace_back(j, s);
      }
      out.state = std::move(st);
      out.admitted = std::move(admitted);
      return true;
    }
    if (i == queue.size()) return false;
    if (!reachable(i, st)) return false;

    // Include queue[i] first (prefer earlier arrivals), trying every
    // feasible concrete role for it...
    for (const RoleId& option : candidates(st, queue[i])) {
      RequestView forced = queue[i];
      forced.requested = option;
      MatchState included = st;
      const std::size_t s = try_admit(spec, included, forced);
      if (s != kNoSlot) {
        auto adm = admitted;
        adm.emplace_back(i, s);
        if (dfs(i + 1, std::move(included), std::move(adm), out))
          return true;
      }
    }
    // ...then try leaving it for a later performance.
    return dfs(i + 1, std::move(st), std::move(admitted), out);
  }
};

}  // namespace

bool form_delayed(const ScriptSpec& spec,
                  const std::vector<RequestView>& queue, FormResult& out) {
  // Fast path: plain greedy admission in arrival order. This settles
  // the overwhelmingly common case (lightly-constrained casts, however
  // large) iteratively, in the caller's reused state — the DFS recurses
  // once per queued request and must stay reserved for small,
  // constraint-heavy formations.
  out.state.reset(spec);
  out.admitted.clear();
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const std::size_t s = try_admit(spec, out.state, queue[i]);
    if (s != kNoSlot) out.admitted.emplace_back(i, s);
  }
  if (out.state.critical_satisfied()) return true;

  // Slow path: backtracking over inclusion and index choices. Guard
  // against fiber-stack exhaustion on absurdly long queues (greedy
  // above already failed, so a consistent cast is unlikely anyway).
  // The per-position suffix bounds that prune the search are only built
  // here — the fast path above never pays for them.
  if (queue.size() > 200) return false;
  Former f{spec, queue, {}, 0, 0};
  f.build_suffix_bounds();
  MatchState empty;
  empty.reset(spec);
  return f.dfs(0, std::move(empty), {}, out);
}

}  // namespace script::core::detail
