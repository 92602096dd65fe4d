#include "script/spec.hpp"

#include <algorithm>

#include "support/panic.hpp"

namespace script::core {

ScriptSpec& ScriptSpec::role(const std::string& role_name) {
  SCRIPT_ASSERT(!has_role(role_name), "duplicate role " + role_name);
  roles_.push_back(RoleDecl{role_name, 1, false, false, 0});
  cache_built_ = false;
  return *this;
}

ScriptSpec& ScriptSpec::role_family(const std::string& role_name,
                                    std::size_t count) {
  SCRIPT_ASSERT(!has_role(role_name), "duplicate role " + role_name);
  SCRIPT_ASSERT(count > 0, "empty role family " + role_name);
  roles_.push_back(RoleDecl{role_name, count, true, false, 0});
  cache_built_ = false;
  return *this;
}

ScriptSpec& ScriptSpec::open_role_family(const std::string& role_name,
                                         std::size_t min_count) {
  SCRIPT_ASSERT(!has_role(role_name), "duplicate role " + role_name);
  roles_.push_back(RoleDecl{role_name, 0, true, true, min_count});
  cache_built_ = false;
  return *this;
}

ScriptSpec& ScriptSpec::initiation(Initiation i) {
  initiation_ = i;
  return *this;
}

ScriptSpec& ScriptSpec::termination(Termination t) {
  termination_ = t;
  return *this;
}

ScriptSpec& ScriptSpec::nondeterministic_contention(bool on) {
  nondet_contention_ = on;
  return *this;
}

ScriptSpec& ScriptSpec::on_failure(FailurePolicy p) {
  failure_policy_ = p;
  return *this;
}

ScriptSpec& ScriptSpec::takeover_deadline(std::uint64_t ticks) {
  SCRIPT_ASSERT(ticks > 0, "takeover deadline must be positive");
  takeover_deadline_ = ticks;
  return *this;
}

ScriptSpec& ScriptSpec::takeover_fallback(FailurePolicy p) {
  SCRIPT_ASSERT(p != FailurePolicy::Replace,
                "takeover fallback cannot itself be Replace");
  takeover_fallback_ = p;
  return *this;
}

ScriptSpec& ScriptSpec::takeover_roles(std::vector<std::string> names) {
  for (const auto& n : names)
    SCRIPT_ASSERT(has_role(n), "takeover_roles names unknown role " + n);
  takeover_roles_ = std::move(names);
  return *this;
}

ScriptSpec& ScriptSpec::slo(obs::SloConfig cfg) {
  slo_ = cfg;
  return *this;
}

ScriptSpec& ScriptSpec::budget(ExecutionBudget b) {
  budget_ = b;
  return *this;
}

ScriptSpec& ScriptSpec::overload(OverloadConfig cfg) {
  SCRIPT_ASSERT(!cfg.breaker_enabled() || cfg.breaker_cooldown > 0,
                "breaker cooldown must be positive");
  SCRIPT_ASSERT(!cfg.breaker_enabled() || cfg.half_open_probes > 0,
                "half-open probe count must be positive");
  overload_ = std::move(cfg);
  return *this;
}

bool ScriptSpec::takeover_allowed(const RoleId& r) const {
  if (takeover_roles_.empty()) return true;
  for (const auto& n : takeover_roles_)
    if (n == r.name) return true;
  return false;
}

ScriptSpec& ScriptSpec::critical(CriticalSet set) {
  for (const auto& [role_name, count] : set) {
    SCRIPT_ASSERT(has_role(role_name),
                  "critical set names unknown role " + role_name);
    const RoleDecl& d = decl(role_name);
    SCRIPT_ASSERT(d.open_ended || count <= d.count,
                  "critical count exceeds family size for " + role_name);
  }
  criticals_.push_back(std::move(set));
  cache_built_ = false;
  return *this;
}

bool ScriptSpec::has_role(const std::string& role_name) const {
  return decl_index(role_name) != kNoSlot;
}

std::size_t ScriptSpec::decl_index(std::string_view role_name) const {
  for (std::size_t i = 0; i < roles_.size(); ++i)
    if (roles_[i].name == role_name) return i;
  return kNoSlot;
}

const RoleDecl& ScriptSpec::decl(const std::string& role_name) const {
  const std::size_t i = decl_index(role_name);
  if (i == kNoSlot)
    SCRIPT_PANIC("unknown role " + role_name + " in script " + name_);
  return roles_[i];
}

bool ScriptSpec::valid(const RoleId& id) const {
  const std::size_t i = decl_index(id.name);
  if (i == kNoSlot) return false;
  const RoleDecl& d = roles_[i];
  if (!d.indexed) return id.index == kSingleton;
  if (id.index == kAnyIndex) return true;
  if (id.index < 0) return false;
  return d.open_ended || static_cast<std::size_t>(id.index) < d.count;
}

const std::vector<std::size_t>& ScriptSpec::decls_by_name() const {
  ensure_cache();
  return decls_by_name_;
}

const std::vector<RoleId>& ScriptSpec::fixed_roles() const {
  ensure_cache();
  return fixed_roles_;
}

std::size_t ScriptSpec::first_slot(std::size_t decl) const {
  ensure_cache();
  return first_slot_[decl];
}

std::size_t ScriptSpec::slot_decl(std::size_t slot) const {
  ensure_cache();
  return slot_decl_[slot];
}

void ScriptSpec::build_cache() const {
  // Numbering: declarations in name order, fixed members consecutive,
  // so walking slots 0..n visits roles in RoleId order.
  decls_by_name_.resize(roles_.size());
  for (std::size_t i = 0; i < roles_.size(); ++i) decls_by_name_[i] = i;
  std::sort(decls_by_name_.begin(), decls_by_name_.end(),
            [this](std::size_t a, std::size_t b) {
              return roles_[a].name < roles_[b].name;
            });
  fixed_roles_.clear();
  slot_decl_.clear();
  first_slot_.assign(roles_.size(), kNoSlot);
  for (const std::size_t i : decls_by_name_) {
    const RoleDecl& d = roles_[i];
    if (d.open_ended) continue;
    first_slot_[i] = fixed_roles_.size();
    if (!d.indexed) {
      fixed_roles_.emplace_back(d.name);
      slot_decl_.push_back(i);
    } else {
      for (std::size_t k = 0; k < d.count; ++k) {
        fixed_roles_.emplace_back(d.name, static_cast<int>(k));
        slot_decl_.push_back(i);
      }
    }
  }

  critical_cache_.clear();
  critical_reqs_.clear();
  critical_needs_.assign(roles_.size(), {});
  if (!criticals_.empty()) {
    critical_cache_ = criticals_;
  } else {
    // "It is taken to mean that the entire collection of roles is
    // critical" (§II).
    CriticalSet everything;
    for (const auto& d : roles_)
      everything[d.name] = d.open_ended ? d.min_count : d.count;
    critical_cache_.push_back(std::move(everything));
  }
  for (std::size_t i = 0; i < critical_cache_.size(); ++i) {
    std::vector<CriticalReq> reqs;
    for (const auto& [role_name, needed] : critical_cache_[i]) {
      const std::size_t d = decl_index(role_name);
      reqs.push_back(CriticalReq{d, needed});
      critical_needs_[d].push_back(CriticalNeed{i, needed});
    }
    critical_reqs_.push_back(std::move(reqs));
  }
  cache_built_ = true;
}

const std::vector<CriticalSet>& ScriptSpec::critical_sets() const {
  ensure_cache();
  return critical_cache_;
}

const std::vector<std::vector<CriticalReq>>& ScriptSpec::critical_reqs()
    const {
  ensure_cache();
  return critical_reqs_;
}

const std::vector<std::vector<CriticalNeed>>& ScriptSpec::critical_needs()
    const {
  ensure_cache();
  return critical_needs_;
}

}  // namespace script::core
