// ScriptInstance — one instance of a script, managing enrollments,
// performances, and inter-role communication (paper §II).
//
// Key semantic commitments (see DESIGN.md §5):
//
// * A role body executes ON THE ENROLLING PROCESS'S FIBER — "the
//   execution of the role is a logical continuation of the enrolling
//   process". enroll() returns when the role (and, under delayed
//   termination, the whole performance) is finished.
// * Successive activations: "all of the roles of a given performance
//   must terminate before a subsequent performance of the same script
//   can begin" (Figure 1). Enrollments that cannot join the current
//   performance queue for the next one.
// * Critical role sets: once a critical set is filled, every unfilled
//   role is marked out; `terminated(r)` turns true for it and
//   communication with it yields a distinguished value (§II).
// * Inter-role communication rides the CSP substrate with tags scoped
//   by (instance, performance, destination role), so distinct
//   performances can never exchange messages (Figure 2's u=x, y=v).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "csp/net.hpp"
#include "obs/event_bus.hpp"
#include "script/events.hpp"
#include "script/matching.hpp"
#include "script/params.hpp"
#include "script/partner_spec.hpp"
#include "script/spec.hpp"
#include "support/expected.hpp"

namespace script::obs {
class Inspector;
}  // namespace script::obs

namespace script::core {

class RoleContext;
class ScriptInstance;

/// Distinguished value for communication with a role that is out,
/// completed, or whose process is gone (paper §II: "attempting to
/// communicate with an unfilled role could return a distinguished
/// value").
enum class RoleCommError : std::uint8_t { Unavailable };

template <typename T>
using RoleResult = support::Expected<T, RoleCommError>;

/// Thrown through a surviving role body when a partner's crash voids the
/// performance (FailurePolicy::Abort). Deliberately NOT derived from
/// std::exception: an abort is not a role-level failure, and role bodies
/// that catch std::exception must not swallow the unwinding. enroll()
/// absorbs it and reports `aborted` in the EnrollResult.
struct PerformanceAborted {
  std::uint64_t performance = 0;
};

using RoleBody = std::function<void(RoleContext&)>;

struct EnrollResult {
  std::uint64_t performance = 0;
  RoleId played;  // concrete role (index resolved for families)
  bool aborted = false;  // a partner crashed and the performance was voided
  /// This enrollment refilled a crashed role mid-performance
  /// (FailurePolicy::Replace); the body saw ctx.resumed() == true.
  bool resumed = false;
  /// The admission controller refused this enrollment (bounded queue
  /// overflow or an open circuit breaker — see ScriptSpec::overload).
  /// The role body never ran; retry_after says when to come back.
  bool shed = false;
  /// Hint for retry loops: how many virtual ticks to wait before
  /// re-enrolling makes sense (0 when there is nothing to wait out).
  std::uint64_t retry_after = 0;

  /// The enrollment neither played nor can ever play as-is: aborted or
  /// shed with no retry hint means only a caller-level change (fewer
  /// partners, later epoch) could help — "infeasible", as opposed to
  /// "gave up, retry later" (retry_after > 0).
  bool retryable() const { return (aborted || shed) && retry_after > 0; }
};

/// Backoff schedule for ScriptInstance::enroll_with_retry.
struct RetryOptions {
  std::size_t max_attempts = 4;
  std::uint64_t backoff = 8;  // ticks before the second attempt
  double factor = 2.0;
  std::uint64_t max_backoff = 256;
};

class ScriptInstance {
 public:
  /// `instance_name` distinguishes multiple instances of one generic
  /// script (paper §II "Successive Activations": separate instances may
  /// perform concurrently and independently).
  ScriptInstance(csp::Net& net, ScriptSpec spec, std::string instance_name);
  ScriptInstance(csp::Net& net, ScriptSpec spec);
  ~ScriptInstance();

  ScriptInstance(const ScriptInstance&) = delete;
  ScriptInstance& operator=(const ScriptInstance&) = delete;

  /// Attach the body for a role (family members share one body and
  /// learn their index from the context). Must be set before enrolling.
  ScriptInstance& on_role(const std::string& role_name, RoleBody body);

  /// ENROLL IN <this> AS role(params) WITH partners.
  /// Blocks per the initiation policy, runs the role body on the
  /// calling fiber, returns per the termination policy.
  EnrollResult enroll(const RoleId& role, const PartnerSpec& partners = {},
                      Params params = {});

  /// Enrollment as a guard (paper §II: "this distinction is crucial if
  /// script enrollment is to be allowed to act as a guard"): attempt
  /// enrollment WITHOUT waiting — succeeds only if the role can be
  /// joined right now (an active performance admits it, or a new one
  /// can form from the already-queued requests). On success the role
  /// runs exactly as with enroll(); on failure nothing is queued and
  /// std::nullopt returns immediately. An admission-control refusal
  /// (see ScriptSpec::overload) also yields nullopt — it still counts
  /// as a shed and publishes overload.shed.
  std::optional<EnrollResult> try_enroll(const RoleId& role,
                                         const PartnerSpec& partners = {},
                                         Params params = {});

  /// Enrollment with a deadline: like enroll(), but if no performance
  /// has admitted this request within `ticks` of virtual time, the
  /// request is withdrawn and nullopt returns. Once admitted, the role
  /// runs to completion regardless of the deadline (an accepted
  /// enrollment, like a started Ada rendezvous, cannot time out). An
  /// admission-control refusal returns an ENGAGED result with
  /// shed = true, distinguishing "shed, retry later" from "timed out".
  std::optional<EnrollResult> enroll_for(const RoleId& role,
                                         std::uint64_t ticks,
                                         const PartnerSpec& partners = {},
                                         Params params = {});

  /// enroll() with bounded-backoff retry on `aborted` and `shed`
  /// results, so a client racing an aborting performance (or a tripped
  /// admission breaker) doesn't hand-roll the loop. Each attempt
  /// enrolls with a fresh copy of `params`; between attempts the fiber
  /// sleeps max(retry_after hint, current backoff). Returns the last
  /// attempt's result — on give-up it carries that final attempt's
  /// retry_after hint (floored to the backoff it would have slept), so
  /// callers can tell "gave up, retry later" (retry_after > 0) from
  /// "infeasible" (see EnrollResult::retryable).
  EnrollResult enroll_with_retry(const RoleId& role,
                                 const PartnerSpec& partners = {},
                                 Params params = {},
                                 RetryOptions retry = {});

  /// Register an observer for structured lifecycle events (metrics,
  /// runtime verification). Observers run synchronously at the event
  /// site and must not block.
  ScriptInstance& observe(std::function<void(const ScriptEvent&)> fn) {
    observers_.push_back(std::move(fn));
    return *this;
  }

  // ---- Introspection ----
  const ScriptSpec& spec() const { return spec_; }
  const std::string& instance_name() const { return name_; }
  std::uint64_t performances_completed() const { return completed_perfs_; }
  std::uint64_t performances_aborted() const { return aborted_perfs_; }
  /// Performance records this instance owns, active or pooled. A
  /// finished performance is recycled once its last holder lets go, so
  /// this stays constant however many performances run.
  std::size_t performance_objects() const { return pool_.size(); }
  /// Requests waiting for a future performance.
  std::size_t queue_length() const { return queue_size_; }
  /// How often the per-role waiter index let the instance skip the
  /// matcher outright (formation impossible / no admission capacity).
  std::uint64_t matcher_index_hits() const { return matcher_index_hits_; }
  /// How often the matcher actually ran (formation or admission pass).
  std::uint64_t matcher_runs() const { return matcher_runs_; }
  /// Role takeovers (FailurePolicy::Replace) completed / fallen back.
  std::uint64_t takeovers_completed() const { return takeovers_completed_; }
  std::uint64_t takeovers_failed() const { return takeovers_failed_; }

  // ---- Overload / admission control (ScriptSpec::overload) ----
  /// Admission circuit breaker: Closed admits, Open sheds until the
  /// cooldown elapses, HalfOpen admits a few probes — a completed
  /// performance closes it, exhausted probes re-open it. Runs entirely
  /// on virtual time, so trips and recoveries replay byte-identically.
  enum class BreakerState : std::uint8_t { Closed, Open, HalfOpen };
  BreakerState breaker_state() const { return breaker_; }
  /// Virtual time at which an Open breaker starts probing again.
  std::uint64_t breaker_open_until() const { return breaker_open_until_; }
  std::uint64_t breaker_trips() const { return breaker_trips_; }
  /// Enrollments refused by the admission controller (queue overflow +
  /// breaker sheds).
  std::uint64_t sheds() const { return shed_count_; }
  /// Diagnostic line(s) for deadlock reports: aborted state and roles
  /// awaiting takeover of the active performance; "" when unremarkable.
  /// Registered with the scheduler's report sections automatically.
  std::string report() const;
  /// Structured snapshot: queue, waiting roles, and the performance in
  /// flight with its cast, completions, and open takeover windows.
  std::string snapshot_json() const;
  /// Register the snapshot as a "script" Inspector section.
  std::size_t attach_inspector(obs::Inspector& inspector);
  /// Start SLO/watchdog tracking of this instance under the spec's
  /// slo() config (plus the queue-depth probe). Unregistered in the
  /// destructor, so the monitor must outlive this instance.
  void enable_health(obs::HealthMonitor& monitor);
  /// Cached at construction rather than read through net_: the
  /// scheduler is the root object here (the Net holds a reference to
  /// it), so the destructor can deregister its crash hook even when the
  /// instance's last owner happens to outlive the Net's (e.g. a fiber
  /// body's captures being torn down in an unlucky order).
  runtime::Scheduler& scheduler() { return *sched_; }
  csp::Net& net() { return *net_; }

  /// This instance's lane on the scheduler's EventBus (registered on
  /// first use). Every script event the instance publishes carries it,
  /// so subscribers (ScriptStats, exporters) can tell instances apart.
  std::int32_t obs_lane();

 private:
  friend class RoleContext;

  /// A crashed role waiting for a replacement (FailurePolicy::Replace).
  struct TakeoverState {
    ProcessId old_pid = kNoProcess;
    std::uint64_t deadline = 0;       // virtual time of fallback
    ProcessId watcher = kNoProcess;   // deadline-watcher fiber, once parked
  };

  /// One performance. Pooled: who holds one is counted in `holders` —
  /// the instance while it is active, each enrollee it admitted until
  /// that enrollee leaves enroll(), and each takeover deadline watcher.
  /// When the count drops to zero the record returns to the pool.
  struct Performance {
    std::uint64_t number = 0;
    std::uint64_t started_at = 0;  // virtual time of formation
    bool done = false;
    /// Bindings, naming constraints and the per-role out / completed /
    /// failed flags (detail::RoleFlag), one slot per concrete role.
    detail::MatchState state;
    bool critical_hit = false;   // outs have been marked
    bool aborted = false;        // a crash voided this performance
    /// Replace policy: crashed roles whose takeover window is open.
    /// Such a role is neither failed nor usable — bindings still hold
    /// the dead pid until a replacement rebinds it.
    std::map<RoleId, TakeoverState> awaiting_takeover;
    /// Replace policy: each role's data parameters, moved off the
    /// enroller's stack so they survive its crash. A replacement
    /// adopts the previous incarnation's values (writers dropped).
    std::map<RoleId, Params> params_store;
    /// Replace policy: how many takeovers each role has been through
    /// (absent = 0, the original cast). Partners compare this across
    /// an exchange to learn they now face a different incarnation.
    std::map<RoleId, std::uint64_t> incarnations;
    std::size_t holders = 0;

    /// Does role `r` carry any of the RoleFlag bits in `flags`?
    bool has(const RoleId& r, std::uint8_t flags) const;
    void set(const RoleId& r, detail::RoleFlag flag);
    /// Slot of the first role (RoleId order) `pid` plays, or kNoSlot.
    std::size_t find_role(ProcessId pid) const;
  };

  /// One enrollment in progress. Lives on the enroller's stack and is
  /// linked into the waiter queue while it waits.
  struct Request {
    explicit Request(ScriptInstance& i) : inst(&i) {}
    Request(const Request&) = delete;
    Request& operator=(const Request&) = delete;
    /// Leaving enroll() — returning or unwinding — lets go of the
    /// performance the request was admitted into.
    ~Request() {
      if (perf != nullptr) inst->release(*perf);
    }

    ScriptInstance* inst;
    ProcessId pid = kNoProcess;
    RoleId requested;
    std::size_t decl = kNoSlot;  // declaration of the requested role
    const PartnerSpec* partners = nullptr;
    bool admitted = false;
    RoleId assigned;
    std::size_t slot = kNoSlot;   // slot of `assigned`, set at admission
    Performance* perf = nullptr;  // set at admission; holds it
    bool queued = false;
    bool resumed = false;  // admitted as a takeover replacement
    bool shed = false;     // evicted by ShedOldest; wait loops must exit
    Request* prev = nullptr;  // waiter-queue links, valid while queued
    Request* next = nullptr;
  };

  /// Assert the enrollment is well-formed, fill `req`, queue it, and run
  /// the admission gate; returns the refusal when it is shed (already
  /// dequeued). `event` names the attempt on the bus.
  std::optional<EnrollResult> open_request(Request& req, const RoleId& role,
                                           const PartnerSpec& partners,
                                           const char* event);
  /// Append to the waiter queue (FIFO) and the per-role index.
  void enqueue(Request& req);
  /// O(1) unlink. Safe to call on an already-dequeued request (withdraw
  /// paths can race admission).
  void dequeue(Request& req);
  /// Admit `r` into `perf` as slot `slot`: the request now holds it.
  void admit(Request& r, Performance& perf, std::size_t slot);
  /// Take a performance record from the pool (or make one), number it
  /// and make it the active one.
  Performance& begin_performance();
  /// Drop one hold on `perf`; the last one returns it to the pool.
  void release(Performance& perf);
  /// Necessary condition for delayed formation: SOME critical set has,
  /// per role name, enough queued requests. O(critical sets) from the
  /// waiter index — no queue scan, no matcher call.
  bool queued_covers_critical() const;
  /// Necessary condition for an admission pass to admit anything: some
  /// queued role name still has free capacity in the active performance.
  bool admission_possible() const;

  // ---- Admission control (ScriptSpec::overload) ----
  /// Admission gate, run right after the request is enqueued (so the
  /// queue sizes it reads include the arrival): consult the circuit
  /// breaker and the queue bound. Returns an engaged shed result when
  /// the arrival must be refused — the caller dequeues it. ShedOldest
  /// instead evicts the longest-queued request and keeps this one.
  std::optional<EnrollResult> shed_check(const RoleId& role, ProcessId pid);
  /// Build the shed result + overload.shed event for one refusal.
  EnrollResult shed_result(const RoleId& role, ProcessId pid,
                           std::uint64_t retry_after);
  /// Evict the oldest queued request (ShedOldest): mark it shed, wake it.
  void shed_oldest();
  /// Breaker transition helpers; publish overload.breaker.* events.
  void trip_breaker(const char* why);
  void breaker_note_progress();

  /// Run the matching machinery: form a performance if none is active,
  /// admit queued requests into an active one (immediate initiation),
  /// then mark outs / detect performance end.
  EnrollResult run_admitted(Request& req, Params& params);
  void try_advance();
  void admission_pass();
  void after_state_change();
  bool performance_can_end() const;
  void finish_performance();
  void role_done(std::size_t slot);
  /// Every fixed role not yet bound is out (critical set filled, cast
  /// frozen, or the performance aborted).
  void mark_unbound_out(Performance& perf);

  // ---- Failure semantics (docs/ROBUSTNESS.md) ----
  /// Scheduler crash hook: a process died; if it plays a live role of
  /// the active performance, the role has failed.
  void on_process_crashed(ProcessId pid);
  /// Record a role failure and apply the spec's FailurePolicy.
  void handle_role_crash(Performance& perf, const RoleId& r, ProcessId pid);
  /// FailurePolicy::Abort: void the performance — fail every parked
  /// rendezvous in its scoped-tag namespace so survivors unwind.
  void abort_performance(Performance& perf);
  /// A surviving role unwound via PerformanceAborted: count its role as
  /// failed (not completed) so the performance can still end.
  void mark_role_unwound(Performance& perf, const RoleId& r);

  // ---- Role takeover (FailurePolicy::Replace, docs/SEMANTICS.md §10) ----
  /// Open a takeover window for a crashed role: park survivors, start a
  /// deadline watcher, and try the queue for an immediate replacement.
  void begin_takeover(Performance& perf, const RoleId& r, ProcessId pid);
  /// Match queued requests against roles awaiting takeover (FIFO).
  void takeover_pass();
  /// May `req` refill awaiting role `r` without violating the existing
  /// members' partner constraints or the request's own?
  bool takeover_compatible(const Performance& perf, const RoleId& r,
                           const Request& req) const;
  /// Rebind `r` to req.pid in place (monotone match-state preserved),
  /// repoint parked rendezvous at the replacement, record causality.
  void complete_takeover(Performance& perf, const RoleId& r, Request& req);
  /// Deadline expired with no replacement: the role is failed after all;
  /// apply the spec's takeover fallback (Abort or Degrade).
  void takeover_timeout(Performance& perf, const RoleId& r);
  /// Abort while windows are open: awaiting roles become failed, their
  /// watchers are released.
  void cancel_takeovers(Performance& perf);
  /// Publish on the Recovery subsystem (takeover milestones).
  void publish_recovery(const char* name, ProcessId pid, std::string detail,
                        double value = 0);
  /// Publish on the Overload subsystem (sheds, breaker transitions).
  void publish_overload(const char* name, ProcessId pid, std::string detail,
                        double value = 0);

  /// Block the calling fiber until the instance's state changes
  /// (binding, out, completion, performance end).
  void wait_state_change(runtime::BlockReason why);
  void notify_state_change();

  /// Publish a Script-subsystem event on the scheduler's bus; its
  /// detail is `role` (if any) followed by `suffix`, built only when
  /// something listens. The prose TraceLog wording is reconstructed by
  /// obs::install_script_log_bridge once Scheduler::enable_trace_log()
  /// installs it.
  void publish(obs::EventKind kind, ProcessId pid, const char* name,
               const RoleId* role, const char* suffix = "", double value = 0);
  void emit(ScriptEvent::Kind kind, ProcessId pid, const RoleId& role,
            std::uint64_t performance);

  csp::Net* net_;
  runtime::Scheduler* sched_;  // == net_->scheduler(); see scheduler()
  ScriptSpec spec_;
  std::string name_;
  std::vector<RoleBody> bodies_;  // by declaration index
  // Requests live on enrollers' stacks, linked in FIFO order through
  // their own prev/next fields: O(1) withdrawal, no allocation.
  Request* queue_head_ = nullptr;
  Request* queue_tail_ = nullptr;
  std::size_t queue_size_ = 0;
  /// Waiter index: queued requests per declaration (families counted
  /// under their family). The formation/admission gates read this.
  std::vector<std::size_t> queued_by_role_;
  std::uint64_t matcher_index_hits_ = 0;
  std::uint64_t matcher_runs_ = 0;
  Performance* active_ = nullptr;
  std::vector<std::unique_ptr<Performance>> pool_;  // every record made
  std::vector<Performance*> free_;                  // released records
  // Formation and admission scratch; keeps its capacity.
  std::vector<Request*> order_;
  std::vector<Request*> admitted_;
  std::vector<detail::RequestView> views_;
  detail::FormResult form_;
  std::uint64_t next_perf_number_ = 1;
  std::uint64_t completed_perfs_ = 0;
  std::uint64_t aborted_perfs_ = 0;
  std::uint64_t crash_hook_id_ = 0;
  std::uint64_t report_section_id_ = 0;
  std::uint64_t takeovers_completed_ = 0;
  std::uint64_t takeovers_failed_ = 0;
  BreakerState breaker_ = BreakerState::Closed;
  std::uint64_t breaker_open_until_ = 0;
  std::size_t breaker_probes_left_ = 0;
  std::uint64_t breaker_trips_ = 0;
  std::uint64_t shed_count_ = 0;
  std::vector<ProcessId> end_waiters_;    // delayed-termination holdees
  std::vector<ProcessId> state_waiters_;  // fibers awaiting state changes
  std::vector<ProcessId> wake_scratch_;   // waiters being woken
  std::vector<std::function<void(const ScriptEvent&)>> observers_;
  std::int32_t obs_lane_ = obs::kNoLane;
  obs::HealthMonitor* health_ = nullptr;
};

/// Handle given to a running role body: identity, data parameters,
/// partner probes, and role-addressed communication.
class RoleContext {
 public:
  const RoleId& self() const { return self_; }
  /// Family index of this role (kSingleton for singleton roles).
  int index() const { return self_.index; }
  std::uint64_t performance() const;

  // ---- Data parameters ----
  template <typename T>
  T param(const std::string& name) const {
    return params_->get<T>(name);
  }
  template <typename T>
  void set_param(const std::string& name, T value) {
    params_->set(name, std::move(value));
  }
  bool has_param(const std::string& name) const {
    return params_->has(name);
  }

  // ---- Partner probes ----
  /// The paper's `r.terminated`: true once the role has finished its
  /// part, or once it is known the role will not be filled this
  /// performance. Before the critical role set fills, unfilled roles
  /// report false.
  bool terminated(const RoleId& r) const;
  bool filled(const RoleId& r) const;
  /// True once the role's process is known to have crashed this
  /// performance (always also `terminated`).
  bool failed(const RoleId& r) const;
  /// True once a partner's crash voided the performance (Abort policy).
  /// Communication calls made after this point throw PerformanceAborted.
  bool aborted() const { return perf_->aborted; }
  /// True when this body refilled a crashed role (Replace policy): the
  /// previous incarnation may have already exchanged messages and
  /// updated parameters — resync the protocol instead of starting over.
  bool resumed() const { return resumed_; }
  /// True while role `r` has crashed and awaits a replacement.
  bool takeover_pending(const RoleId& r) const {
    return perf_->awaiting_takeover.count(r) > 0;
  }
  /// How many takeovers role `r` has been through in this performance
  /// (0 = original cast). Reading it before and after an exchange
  /// tells a partner whether it now faces a different incarnation.
  std::uint64_t incarnation(const RoleId& r) const {
    const auto it = perf_->incarnations.find(r);
    return it == perf_->incarnations.end() ? 0 : it->second;
  }
  /// Park until role `r`'s takeover window resolves. Returns true when
  /// the role is (again) played by a live process — retry the failed
  /// exchange; false when it is gone for good (failed/out/completed).
  /// Returns true immediately if no window is open. Throws
  /// PerformanceAborted if the fallback voided the performance.
  bool await_takeover(const RoleId& r);
  /// Current member count of a role family this performance.
  std::size_t family_size(const std::string& role_name) const;

  // ---- Deadlines (runtime/overload.hpp) ----
  /// Install a deadline `ticks` from now for the remainder of this role.
  /// It propagates across every blocking edge the body crosses — CSP
  /// rendezvous, Ada entries, monitor waits, nested enrolls, lock
  /// round-trips — because all of them park through the scheduler's
  /// blocking primitives, each a cancellation point. Expiry raises the
  /// catchable runtime::DeadlineExceeded; uncaught, it unwinds the role
  /// like a crash and feeds the spec's FailurePolicy. Replaces any
  /// earlier deadline; cleared automatically when the role ends.
  void deadline(std::uint64_t ticks);
  /// The absolute deadline in force (the role's, or one the enrolling
  /// process installed before enrolling), or runtime::kNoDeadline.
  std::uint64_t deadline_at() const;
  /// Ticks left before the deadline (kNoDeadline when none, 0 when due).
  std::uint64_t remaining_deadline() const;
  void clear_deadline();

  // ---- Role-addressed communication ----
  template <typename T>
  RoleResult<void> send(const RoleId& to, T value, std::string_view tag = {}) {
    check_abort();
    auto pid = await_role(to);
    if (!pid) return support::make_unexpected(pid.error());
    auto r = inst_->net_->send(*pid, scoped_tag(to, tag).view(),
                               std::move(value));
    if (!r) {
      check_abort();  // woken by abort_performance's fail_tagged
      return support::make_unexpected(RoleCommError::Unavailable);
    }
    return {};
  }

  template <typename T>
  RoleResult<T> recv(const RoleId& from, std::string_view tag = {}) {
    check_abort();
    auto pid = await_role(from);
    if (!pid) return support::make_unexpected(pid.error());
    auto r = inst_->net_->recv<T>(*pid, scoped_tag(self_, tag).view());
    if (!r) {
      check_abort();
      return support::make_unexpected(RoleCommError::Unavailable);
    }
    return std::move(*r);
  }

  /// Receive from whichever partner role sends first (host-language
  /// anonymous communication, as in the paper's Ada embedding).
  template <typename T>
  RoleResult<std::pair<RoleId, T>> recv_any(std::string_view tag = {}) {
    check_abort();
    auto r = inst_->net_->recv_any<T>(scoped_tag(self_, tag).view());
    if (!r) {
      check_abort();
      return support::make_unexpected(RoleCommError::Unavailable);
    }
    return std::pair<RoleId, T>{role_of(r->first), std::move(r->second)};
  }

  /// Selective receive over a set of partner roles: takes the first
  /// message any of them sends; returns the distinguished value once
  /// EVERY listed role is terminated (out or completed). Roles still
  /// unbound when the wait starts are re-examined as they bind.
  /// Limitation (documented in docs/SEMANTICS.md §7): once this call
  /// parks on the currently-bound candidates, a message from a role
  /// that binds later is only noticed on the next call.
  template <typename T>
  RoleResult<std::pair<RoleId, T>> recv_from_roles(
      const std::vector<RoleId>& froms, std::string_view tag = {}) {
    for (;;) {
      check_abort();
      std::vector<ProcessId> candidates;
      bool might_bind = false;
      for (const RoleId& r : froms) {
        if (perf_->has(r, detail::kCompleted | detail::kOut |
                              detail::kFailed))
          continue;
        if (perf_->awaiting_takeover.count(r)) {
          // Bound to a dead pid until a replacement rebinds it — treat
          // like an unbound role that may still fill.
          might_bind = true;
          continue;
        }
        const ProcessId bound = perf_->state.bound_to(r);
        if (bound != kNoProcess)
          candidates.push_back(bound);
        else if (!perf_->done)
          might_bind = true;
      }
      if (candidates.empty()) {
        if (!might_bind)
          return support::make_unexpected(RoleCommError::Unavailable);
        inst_->wait_state_change(
            {"role ", self_.str(), " awaiting any partner binding"});
        continue;
      }
      auto r = inst_->net_->recv_from<T>(std::move(candidates),
                                         scoped_tag(self_, tag).view());
      if (!r) {
        check_abort();
        return support::make_unexpected(RoleCommError::Unavailable);
      }
      return std::pair<RoleId, T>{role_of(r->first), std::move(r->second)};
    }
  }

  /// Non-blocking poll for a message from any partner role.
  template <typename T>
  std::optional<std::pair<RoleId, T>> try_recv_any(std::string_view tag = {}) {
    check_abort();
    auto r = inst_->net_->try_recv_any<T>(scoped_tag(self_, tag).view());
    if (!r) return std::nullopt;
    return std::pair<RoleId, T>{role_of(r->first), std::move(r->second)};
  }

  runtime::Scheduler& scheduler() { return inst_->scheduler(); }
  ScriptInstance& instance() { return *inst_; }

 private:
  friend class ScriptInstance;
  RoleContext(ScriptInstance* inst, ScriptInstance::Performance* perf,
              RoleId self, Params* params, bool resumed = false)
      : inst_(inst),
        perf_(perf),
        self_(std::move(self)),
        params_(params),
        resumed_(resumed) {}

  /// Resolve a partner role to its process, blocking while the role is
  /// unbound but might still be filled. Distinguished error once the
  /// role is out/completed/failed.
  RoleResult<ProcessId> await_role(const RoleId& r);
  /// Unwind this role body if the performance has been aborted.
  void check_abort() const;

  /// "<instance>#<performance>/<role>/<tag>": the namespace that keeps
  /// distinct performances from ever exchanging messages. Built in
  /// place; only unusually long names spill to the heap.
  class ScopedTag {
   public:
    ScopedTag(std::string_view instance, std::uint64_t performance,
              const RoleId& role, std::string_view tag);
    std::string_view view() const {
      return spilled_.empty() ? std::string_view(buf_, len_) : spilled_;
    }

   private:
    void append(std::string_view piece);
    char buf_[64];
    std::size_t len_ = 0;
    std::string spilled_;
  };
  ScopedTag scoped_tag(const RoleId& to, std::string_view tag) const {
    return ScopedTag(inst_->name_, perf_->number, to, tag);
  }
  RoleId role_of(ProcessId pid) const;

  ScriptInstance* inst_;
  ScriptInstance::Performance* perf_;
  RoleId self_;
  Params* params_;
  bool resumed_ = false;
  // The role installed its own deadline; run_admitted clears it when
  // the body ends so it cannot leak onto the process's next activity.
  bool deadline_installed_ = false;
};

}  // namespace script::core
