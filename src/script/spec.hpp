// ScriptSpec: the static declaration of a script (paper §II).
//
// Declares the roles (singletons, fixed indexed families, open-ended
// families from the paper's §V future-work list), the initiation and
// termination policies, and the critical role sets.
//
// A critical role set (paper §II "Critical Role Set") is a requirement
// of the form {role -> needed count}; a performance may begin once, for
// *some* declared set, every listed role has at least the needed number
// of members enrolled. When no set is declared "it is taken to mean
// that the entire collection of roles is critical".
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/health.hpp"
#include "runtime/overload.hpp"
#include "script/ids.hpp"

namespace script::core {

using runtime::OverflowPolicy;

/// Execution bounds for one script's performances (0 = unlimited).
/// Enforced by the Scheduler per admitted role — the volo panic
/// taxonomy (ExecutionLimitExceeded / QueryLimitExceeded) recast onto
/// the virtual clock and dispatch counter, so a blown budget raises the
/// typed, catchable runtime::BudgetExceeded.
struct ExecutionBudget {
  /// Dispatches a single role body may consume before
  /// BudgetExceeded{DispatchSteps}.
  std::uint64_t max_dispatch_steps = 0;
  /// Virtual ticks a role may spend (measured from its admission)
  /// before BudgetExceeded{VirtualTicks}.
  std::uint64_t max_virtual_ticks = 0;
  /// Bound on the enroll queue; arrivals beyond it are handled per
  /// OverloadConfig::overflow (sheds publish overload.shed and return
  /// EnrollResult::shed — QueueDepth is never thrown).
  std::size_t max_queue_depth = 0;

  bool any() const {
    return max_dispatch_steps != 0 || max_virtual_ticks != 0 ||
           max_queue_depth != 0;
  }
};

/// Backpressure / admission-control tuning for one script instance.
struct OverloadConfig {
  /// What a full enroll queue (ExecutionBudget::max_queue_depth) does
  /// with an arrival. Block keeps the classic unbounded behavior.
  OverflowPolicy overflow = OverflowPolicy::Block;
  /// retry_after hint stamped on shed EnrollResults (virtual ticks).
  std::uint64_t shed_retry_after = 16;
  /// Queue depth at which the admission circuit breaker trips Open
  /// (0 disables the breaker). The breaker also trips when the
  /// HealthMonitor's queue-depth or restart-pressure watchdogs latch.
  std::size_t breaker_queue_depth = 0;
  /// Virtual ticks the breaker stays Open before probing (HalfOpen).
  std::uint64_t breaker_cooldown = 64;
  /// Enrollments admitted per HalfOpen episode; a performance completing
  /// closes the breaker, the probes running out re-opens it.
  std::size_t half_open_probes = 1;

  bool breaker_enabled() const { return breaker_queue_depth != 0; }
};

enum class Initiation : std::uint8_t {
  Delayed,   // all critical roles enroll, then everyone starts together
  Immediate  // the script is activated by its first enroller
};

enum class Termination : std::uint8_t {
  Delayed,   // enrollees are freed together when every role is finished
  Immediate  // each enrollee is freed as soon as its own role finishes
};

/// What a performance does when an enrolled role's process crashes
/// mid-performance. Generalizes the paper's §II unfilled-role rule
/// (distinguished value) from "never filled" to "filled but failed".
enum class FailurePolicy : std::uint8_t {
  /// Unwind every surviving role (they observe PerformanceAborted), end
  /// the performance, and let the next generation start. Default: a
  /// script is a joint activity; losing a member voids the performance.
  Abort,
  /// Keep going: the failed role becomes `terminated(r)` and
  /// communication with it yields the distinguished value, exactly as
  /// if the role had never been filled (§II).
  Degrade,
  /// Role takeover: survivors park while the crashed role awaits a
  /// replacement enrollment. A request for the role arriving within
  /// `takeover_deadline()` ticks is admitted into the LIVE performance
  /// (rebinding the role, inheriting its data parameters, its context
  /// reporting resumed() == true — the §II unfilled-role semantics
  /// generalized to refilled roles). Past the deadline the performance
  /// falls back to `takeover_fallback()` (Abort or Degrade).
  Replace,
};

struct RoleDecl {
  std::string name;
  std::size_t count = 1;    // family size (1 + indexed=false → singleton)
  bool indexed = false;     // true: members are name[0..count-1]
  bool open_ended = false;  // §V: family may grow at run time
  std::size_t min_count = 0;  // open-ended: members needed for criticality
};

/// One critical role set: role name → required enrolled count.
using CriticalSet = std::map<std::string, std::size_t>;

/// One critical-set requirement as seen from a single role: "critical
/// set #set_index needs `needed` members of this role". The matcher's
/// per-set fill counters key off the inverted index built from these.
struct CriticalNeed {
  std::size_t set_index = 0;
  std::size_t needed = 0;
};

/// One requirement of a critical set by declaration: "`needed` members
/// of roles()[decl]".
struct CriticalReq {
  std::size_t decl = 0;
  std::size_t needed = 0;
};

/// "No such role / slot" for the index-returning queries below.
inline constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

class ScriptSpec {
 public:
  explicit ScriptSpec(std::string name) : name_(std::move(name)) {}

  // ---- Builder interface ----

  ScriptSpec& role(const std::string& role_name);
  ScriptSpec& role_family(const std::string& role_name, std::size_t count);
  /// Open-ended family (§V): at least `min_count` members make it
  /// critical; more may enroll while the performance runs (immediate
  /// initiation only).
  ScriptSpec& open_role_family(const std::string& role_name,
                               std::size_t min_count);
  ScriptSpec& initiation(Initiation i);
  ScriptSpec& termination(Termination t);
  /// Paper §II: "If more than one process tries to enroll in the same
  /// role ... the choice of which process is actually enrolled is
  /// non-deterministic." Default is arrival order (deterministic, like
  /// Ada's queues); enable this for the CSP-style seeded-random choice
  /// among contenders.
  ScriptSpec& nondeterministic_contention(bool on = true);
  /// Add one alternative critical role set. May be called repeatedly;
  /// a performance may begin when ANY declared set is satisfied.
  ScriptSpec& critical(CriticalSet set);
  /// Reaction to a role crashing mid-performance (default Abort).
  ScriptSpec& on_failure(FailurePolicy p);
  /// Replace policy: how long (virtual ticks) a crashed role may await
  /// a replacement before the performance falls back. Default 64.
  ScriptSpec& takeover_deadline(std::uint64_t ticks);
  /// Replace policy: what happens when the deadline expires with no
  /// replacement (Abort or Degrade — never Replace). Default Abort.
  ScriptSpec& takeover_fallback(FailurePolicy p);
  /// Replace policy: restrict takeover to the named roles. A role is
  /// replaceable only if its body can be re-run against partners that
  /// may already hold messages from its previous incarnation (stateless,
  /// or replayable from a log — see docs/SEMANTICS.md §10). Crashes of
  /// roles NOT listed here fall back immediately (no takeover window).
  /// Default: empty, meaning every role is replaceable.
  ScriptSpec& takeover_roles(std::vector<std::string> names);
  /// SLO thresholds for health monitoring (virtual ticks; 0 disables a
  /// check). Takes effect when the instance calls enable_health().
  ScriptSpec& slo(obs::SloConfig cfg);
  /// Execution budgets enforced per admitted role (default: unlimited).
  ScriptSpec& budget(ExecutionBudget b);
  /// Backpressure / circuit-breaker tuning (default: Block, no breaker).
  ScriptSpec& overload(OverloadConfig cfg);

  // ---- Queries ----

  const std::string& name() const { return name_; }
  Initiation initiation() const { return initiation_; }
  Termination termination() const { return termination_; }
  bool contention_is_nondeterministic() const {
    return nondet_contention_;
  }
  FailurePolicy failure_policy() const { return failure_policy_; }
  std::uint64_t takeover_deadline() const { return takeover_deadline_; }
  FailurePolicy takeover_fallback() const { return takeover_fallback_; }
  /// Whether a crash of `r` opens a takeover window (Replace policy).
  bool takeover_allowed(const RoleId& r) const;
  const obs::SloConfig& slo() const { return slo_; }
  const ExecutionBudget& budget() const { return budget_; }
  const OverloadConfig& overload() const { return overload_; }
  const std::vector<RoleDecl>& roles() const { return roles_; }

  bool has_role(const std::string& role_name) const;
  const RoleDecl& decl(const std::string& role_name) const;
  /// Validity of a concrete RoleId against the declarations (open
  /// families accept any index >= 0).
  bool valid(const RoleId& id) const;

  // ---- Role numbering ----
  // Resolved once (cached, rebuilt after a builder call), so the
  // instance and the matcher keep per-role state in flat vectors
  // instead of maps keyed by role names.

  /// Position of the declaration named `role_name` in roles(), or
  /// kNoSlot.
  std::size_t decl_index(std::string_view role_name) const;
  /// Declaration indices sorted by role name: RoleId order.
  const std::vector<std::size_t>& decls_by_name() const;

  /// All concrete roles of the fixed part (families expanded; open
  /// families contribute no fixed members), in RoleId order. A role's
  /// position here is its slot number.
  const std::vector<RoleId>& fixed_roles() const;
  std::size_t slot_count() const { return fixed_roles().size(); }
  /// First slot of fixed declaration `decl` (members are consecutive).
  std::size_t first_slot(std::size_t decl) const;
  /// Declaration of each slot.
  std::size_t slot_decl(std::size_t slot) const;

  /// The critical sets in force: the declared ones, or the implicit
  /// "everything" set when none were declared. Cached; the reference
  /// stays valid until the next builder call.
  const std::vector<CriticalSet>& critical_sets() const;
  /// critical_sets() by declaration index, in the same order.
  const std::vector<std::vector<CriticalReq>>& critical_reqs() const;

  /// Inverted critical index: per declaration, the critical sets that
  /// mention it and how many members each needs. Set indices refer
  /// into critical_sets().
  const std::vector<std::vector<CriticalNeed>>& critical_needs() const;

 private:
  void build_cache() const;
  void ensure_cache() const {
    if (!cache_built_) build_cache();
  }

  std::string name_;
  std::vector<RoleDecl> roles_;
  std::vector<CriticalSet> criticals_;
  Initiation initiation_ = Initiation::Delayed;
  Termination termination_ = Termination::Delayed;
  bool nondet_contention_ = false;
  FailurePolicy failure_policy_ = FailurePolicy::Abort;
  std::uint64_t takeover_deadline_ = 64;
  FailurePolicy takeover_fallback_ = FailurePolicy::Abort;
  std::vector<std::string> takeover_roles_;  // empty: all replaceable
  obs::SloConfig slo_;
  ExecutionBudget budget_;
  OverloadConfig overload_;

  // Lazily built, invalidated by the builder methods above.
  mutable bool cache_built_ = false;
  mutable std::vector<std::size_t> decls_by_name_;
  mutable std::vector<RoleId> fixed_roles_;
  mutable std::vector<std::size_t> first_slot_;  // per decl; kNoSlot if open
  mutable std::vector<std::size_t> slot_decl_;
  mutable std::vector<CriticalSet> critical_cache_;
  mutable std::vector<std::vector<CriticalReq>> critical_reqs_;
  mutable std::vector<std::vector<CriticalNeed>> critical_needs_;
};

}  // namespace script::core
