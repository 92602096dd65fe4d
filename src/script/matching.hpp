// The joint-enrollment matcher.
//
// Partner-named enrollment (paper §II): "the processes will jointly
// enroll in the script only when their enrollment specifications match,
// that is they all agree on the binding of processes to roles."
//
// MatchState tracks, for one performance, the agreed bindings plus the
// *accumulated* naming constraints: every admitted member's PartnerSpec
// intersects into the role's allowed set, so a role can only ever be
// bound to a process every current member accepts. Constraints over
// roles that end up unfilled are vacuous (they constrain who COULD fill
// the role, not whether it must be filled).
//
// State is role-indexed: every concrete role has a slot, numbered by
// the spec for the fixed roles (ScriptSpec::fixed_roles) and on first
// use for members of open families. Slots live in flat vectors that keep
// their capacity across reset(), so a state reused for performance
// after performance allocates nothing.
//
// Two entry points:
//   * try_admit       — incremental admission (immediate initiation, and
//                       extension of a formed performance);
//   * form_delayed    — backtracking search over the queued requests for
//                       a mutually-consistent subset satisfying a
//                       critical set (delayed initiation). Greedy
//                       admission is not enough: with requests
//                       C(q), B(q, wants p=A), A(p, wants q=B), only the
//                       assignment {A->p, B->q} starts the performance.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "script/partner_spec.hpp"
#include "script/spec.hpp"

namespace script::core::detail {

/// A queued enrollment, as the matcher sees it.
struct RequestView {
  ProcessId pid = kNoProcess;
  RoleId requested;  // may be any_member(...) for families
  const PartnerSpec* partners = nullptr;
};

/// Per-role flags a performance keeps beside the binding.
enum RoleFlag : std::uint8_t {
  kOut = 1,        // declared never-filled this performance
  kCompleted = 2,  // the role body returned
  kFailed = 4,     // the role's process crashed / unwound
};

/// One concrete role of one performance.
struct RoleSlot {
  ProcessId pid = kNoProcess;  // bound process, or kNoProcess
  std::uint8_t flags = 0;      // RoleFlag bits
  /// Accumulated naming constraints: when `constrained`, only the
  /// processes in MatchState::allowed_pool[allowed_at, +allowed_len)
  /// may fill the role (an empty range: nobody can, this performance).
  bool constrained = false;
  std::uint32_t allowed_at = 0;
  std::uint32_t allowed_len = 0;
};

class MatchState {
 public:
  /// Empty the state for a fresh performance of `spec`, keeping every
  /// vector's capacity.
  void reset(const ScriptSpec& spec);
  /// reset() unless already sized for `spec`.
  void attach(const ScriptSpec& spec) {
    if (spec_ != &spec) reset(spec);
  }
  bool attached_to(const ScriptSpec& spec) const { return spec_ == &spec; }

  // ---- Slots ----
  std::size_t slot_count() const { return slots_.size(); }
  const RoleSlot& slot(std::size_t s) const { return slots_[s]; }
  RoleSlot& slot(std::size_t s) { return slots_[s]; }
  /// Slot of a concrete role, or kNoSlot when it has none yet (an open
  /// family member nobody has bound or constrained) or is undeclared.
  std::size_t find_slot(const RoleId& r) const;
  /// Slot of (declaration, index), or kNoSlot.
  std::size_t find_slot(std::size_t decl, int index) const;
  /// find_slot, creating the slot of an open-family member on demand.
  std::size_t slot_for(std::size_t decl, int index);
  std::size_t slot_decl(std::size_t s) const;
  int slot_index(std::size_t s) const;
  RoleId role_at(std::size_t s) const;

  /// Visit every slot in RoleId order (name, then index).
  template <typename Fn>
  void for_each_slot(Fn&& fn) const {
    for (const std::size_t d : spec_->decls_by_name()) {
      const RoleDecl& decl = spec_->roles()[d];
      if (!decl.open_ended) {  // singletons have count 1
        const std::size_t first = spec_->first_slot(d);
        for (std::size_t s = first; s < first + decl.count; ++s) fn(s);
        continue;
      }
      // Open members were numbered in first-use order; visit them by
      // index (open families are small and rare).
      int last = -1;
      for (;;) {
        std::size_t next = kNoSlot;
        for (std::size_t k = 0; k < open_.size(); ++k) {
          const OpenMember& m = open_[k];
          if (m.decl == d && m.index > last &&
              (next == kNoSlot || m.index < open_[next].index))
            next = k;
        }
        if (next == kNoSlot) break;
        last = open_[next].index;
        fn(spec_->slot_count() + next);
      }
    }
  }

  // ---- Bindings ----
  bool is_bound(const RoleId& r) const { return bound_to(r) != kNoProcess; }
  ProcessId bound_to(const RoleId& r) const;
  /// Number of bound roles.
  std::size_t binding_count() const { return bound_total_; }
  /// Bound (role, process) pairs in RoleId order (diagnostics, tests).
  std::vector<std::pair<RoleId, ProcessId>> bindings() const;
  std::size_t bound_count(std::size_t decl) const {
    return bound_by_decl_[decl];
  }
  /// Current size of an open family (highest bound index + 1).
  std::size_t open_size(std::size_t decl) const { return open_size_[decl]; }
  std::size_t open_size(const std::string& role_name) const;

  bool permits(std::size_t s, ProcessId pid) const;
  bool permits(const RoleId& r, ProcessId pid) const;

  /// Record `pid` in slot `s` (no checks) and keep the counters current.
  void bind(std::size_t s, ProcessId pid);
  /// Rebind an already-bound slot in place (role takeover): the
  /// counters describe the role, not the process, and stay valid.
  void rebind(std::size_t s, ProcessId pid) { slots_[s].pid = pid; }
  /// Intersect slot `s`'s allowed set with `pids`.
  void restrict_allowed(std::size_t s, const PidList& pids);

  // ---- Critical-set fill counters ----
  // Per-critical-set fill counters (indexed like
  // ScriptSpec::critical_sets()): how many of each set's requirements
  // are met, and how many sets are fully met. Initialized lazily on the
  // first critical_satisfied() call, then kept current by bind(),
  // making the satisfaction test O(1) on the hot path.
  bool critical_satisfied() const;

  /// Per-family scan floor for any-index resolution: every index below
  /// it is bound (bindings are only ever added), so filling a family
  /// costs O(count) in total rather than per admission.
  std::size_t& index_floor(std::size_t decl) const {
    return index_floor_[decl];
  }

 private:
  struct OpenMember {
    std::size_t decl;
    int index;
  };

  const ScriptSpec* spec_ = nullptr;
  std::vector<RoleSlot> slots_;     // fixed slots, then open members
  std::vector<OpenMember> open_;    // identity of slots past the fixed
  std::vector<ProcessId> allowed_pool_;
  std::vector<std::size_t> bound_by_decl_;
  std::vector<std::size_t> open_size_;
  mutable std::vector<std::size_t> index_floor_;
  std::size_t bound_total_ = 0;
  mutable std::vector<std::size_t> cs_met_;
  mutable std::size_t cs_satisfied_ = 0;
  mutable bool cs_ready_ = false;
};

/// Try to admit one request into `st` (sized for `spec` on first use).
/// On success, commits the binding and the request's constraints, and
/// returns the slot of the concrete role. Fails with kNoSlot — leaving
/// the bindings untouched — when the request's role is taken or out,
/// when an existing member's constraint rejects this process, or when
/// this request's constraint contradicts a binding.
std::size_t try_admit(const ScriptSpec& spec, MatchState& st,
                      const RequestView& req);

/// Does `st` satisfy one of the spec's critical sets?
bool critical_satisfied(const ScriptSpec& spec, const MatchState& st);

/// Result of forming a performance: which queued requests are admitted
/// (indices into the input vector) and the slot of each one's role.
struct FormResult {
  MatchState state;
  std::vector<std::pair<std::size_t, std::size_t>> admitted;
};

/// Formation for delayed initiation: find a subset of the queued
/// requests, mutually consistent, that satisfies a critical set; then
/// extend it greedily (arrival order) with every other consistent
/// request. Prefers earlier arrivals. Fills `out` (which the caller
/// owns and may reuse) and returns true, or returns false if no subset
/// works. Callers gate on per-role counts first (a queue that cannot
/// cover any critical set is answered by the backtracking bound
/// instead, at higher cost).
bool form_delayed(const ScriptSpec& spec,
                  const std::vector<RequestView>& queue, FormResult& out);

}  // namespace script::core::detail
