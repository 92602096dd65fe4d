// Cooperative fiber scheduler with a virtual clock.
//
// All processes of a libscript program run as fibers on one OS thread.
// Two scheduling policies:
//   * Fifo   — deterministic round-robin; every run is identical.
//   * Random — seeded-random pick among ready fibers; used by property
//              tests to explore interleavings reproducibly.
//
// Time is virtual: it advances only when every runnable fiber has parked
// on the timer heap (classic discrete-event simulation). Communication
// latency models (csp::Net, SimLink) park fibers on timers, so benches
// measure latency *shape* independent of host speed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "obs/event_bus.hpp"
#include "runtime/fault.hpp"
#include "runtime/fiber.hpp"
#include "runtime/overload.hpp"
#include "runtime/ready_queue.hpp"
#include "runtime/stack_pool.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace script::obs {
class CausalTracker;
class FlightRecorder;
struct FlightRecorderOptions;
class HealthMonitor;
class Inspector;
class Timeline;
struct TimelineOptions;
class TraceExporter;
}

namespace script::runtime {

class DebugEndpoint;

enum class SchedulePolicy : std::uint8_t {
  Fifo,     // deterministic round-robin
  Random,   // seeded-random pick among ready fibers
  Scripted  // every pick delegated to `chooser` (model checking)
};

struct SchedulerOptions {
  SchedulePolicy policy = SchedulePolicy::Fifo;
  std::uint64_t seed = 1;
  std::size_t stack_bytes = 256 * 1024;
  /// Scripted policy: called with the number of ready fibers, returns
  /// the index to run. The exhaustive-interleaving explorer
  /// (runtime/explore.hpp) drives this.
  std::function<std::size_t(std::size_t)> chooser;
  /// If nonzero, run() stops after this many dispatches with outcome
  /// StepLimit (fibers left unfinished). Lets the explorer bound
  /// non-terminating schedules (e.g. starving a busy-wait loop).
  std::uint64_t max_steps_per_run = 0;
  /// If nonzero, keep the last N bus events per fiber and include them
  /// in deadlock reports (describe()). Forces full event production, so
  /// leave at 0 for benchmarks.
  std::size_t event_history = 0;
  /// How many retired fiber stacks the scheduler's StackPool keeps for
  /// reuse (decommitted — address space, not RSS). 0 disables pooling.
  std::size_t stack_pool_max_idle = StackPool::kDefaultMaxIdle;
};

struct RunResult {
  enum class Outcome { AllDone, Deadlock, StepLimit };
  Outcome outcome = Outcome::AllDone;
  /// Fibers still blocked at deadlock, with their block reasons.
  std::vector<std::pair<ProcessId, std::string>> blocked;
  std::uint64_t final_time = 0;
  std::uint64_t steps = 0;  // number of fiber dispatches

  bool ok() const { return outcome == Outcome::AllDone; }
};

class Scheduler;

/// Human-readable run report: outcome, steps, final virtual time, and —
/// on deadlock — every blocked fiber with its reason. The same report
/// the examples and benches print; exposed for applications.
std::string describe(const RunResult& result, const Scheduler& sched);

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions opts = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Create a new process fiber. Callable from outside run() or from a
  /// running fiber (dynamic spawn). Returns its ProcessId.
  ProcessId spawn(std::string name, std::function<void()> body);

  /// Drive all fibers to completion or deadlock. Exceptions escaping a
  /// fiber body are rethrown here. May be called repeatedly (spawn more,
  /// run again); the virtual clock keeps advancing.
  RunResult run();

  // ---- Primitives callable only from inside a fiber ----

  /// Let another ready fiber run; current stays runnable.
  void yield();

  /// Park the current fiber until someone calls unblock(). `reason` is
  /// shown in deadlock reports ("waiting for role sender to enroll");
  /// pass it as pieces ({"enrolling in ", name}) and they are
  /// concatenated into the fiber's reason buffer, with no heap string
  /// per park. `waiting_on`, when the call site knows it (the CSP peer,
  /// the entry owner, the monitor holder), feeds the wait-for chains
  /// deadlock reports print.
  void block(BlockReason reason, ProcessId waiting_on = kNoProcess);
  void block(std::string_view reason, ProcessId waiting_on = kNoProcess) {
    block({reason}, waiting_on);
  }

  /// Park the current fiber for `ticks` of virtual time.
  void sleep_for(std::uint64_t ticks);

  /// Park like block(), but resume after `ticks` if nobody unblocks us
  /// first. Returns true on timeout (Ada's `or delay` alternative).
  /// `on_timeout`, if given, runs at the instant the timeout fires —
  /// before any other fiber can observe the stale registration — so the
  /// caller's wait-list entry self-cleans. It does NOT run when the
  /// fiber is woken normally (the waker consumed the entry).
  bool block_with_timeout(BlockReason reason, std::uint64_t ticks,
                          std::function<void()> on_timeout = nullptr,
                          ProcessId waiting_on = kNoProcess);
  bool block_with_timeout(std::string_view reason, std::uint64_t ticks,
                          std::function<void()> on_timeout = nullptr,
                          ProcessId waiting_on = kNoProcess) {
    return block_with_timeout({reason}, ticks, std::move(on_timeout),
                              waiting_on);
  }

  /// Block until fiber `pid` has finished. No-op if already done.
  void join(ProcessId pid);

  // ---- Callable from anywhere ----

  /// Make a Blocked fiber runnable again.
  void unblock(ProcessId pid);

  /// Move a Blocked fiber onto the timer heap so it resumes `ticks` of
  /// virtual time from now. Used to charge communication latency to the
  /// *parked* party of a rendezvous (the running party sleeps directly).
  void wake_at(ProcessId pid, std::uint64_t ticks_from_now);

  std::uint64_t now() const { return now_; }
  ProcessId current() const;
  bool in_fiber() const { return current_ != kNoProcess; }
  const std::string& name_of(ProcessId pid) const;
  FiberState state_of(ProcessId pid) const;
  std::size_t spawned_count() const { return fibers_.size(); }
  std::size_t live_count() const;

  /// Total virtual time `pid` has spent blocked (closed spans). The
  /// causal analyzer's recovered wait attribution must match this —
  /// it is the always-on ground truth.
  std::uint64_t blocked_ticks(ProcessId pid) const {
    return fiber(pid).blocked_ticks();
  }
  /// Total virtual time `pid` has spent sleeping (closed spans),
  /// including the elapsed part of a sleep cut short by a kill.
  std::uint64_t slept_ticks(ProcessId pid) const {
    return fiber(pid).slept_ticks();
  }
  /// Wait-for hint: who `pid` is blocked on, or kNoProcess.
  ProcessId waiting_on(ProcessId pid) const {
    return fiber(pid).waiting_on();
  }

  // ---- Deterministic fault injection (runtime/fault.hpp) ----

  /// Install a copy of `plan`; its triggers fire during subsequent
  /// run() calls. Replaces any previous plan.
  void install_fault_plan(FaultPlan plan);
  void clear_fault_plan() { fault_plan_.reset(); }
  /// The installed plan, or nullptr. csp::Net consults this for
  /// message faults; the null check is the entire uninstalled cost.
  FaultPlan* fault_plan() { return fault_plan_.get(); }

  /// True once a FaultPlan crashed `pid`.
  bool has_crashed(ProcessId pid) const { return fiber(pid).crashed(); }
  /// Virtual time at which `pid` was last dispatched — deadlock reports
  /// show it so an injected-fault hang is diagnosable at a glance.
  std::uint64_t last_progress(ProcessId pid) const {
    return fiber(pid).last_progress();
  }

  // ---- Overload protection (runtime/overload.hpp): deadlines,
  //      execution budgets, typed cancellation ----

  /// Install an absolute virtual-time deadline on `pid`. When the clock
  /// reaches it, the fiber is unwound with a catchable DeadlineExceeded:
  /// synchronously if it is parked (Blocked/Sleeping — its RAII guards
  /// deregister before any other fiber runs), or at its next blocking-
  /// primitive entry if it is Ready/Running at that instant. Same-instant
  /// ordering: timers fire before deadlines, deadlines before faults.
  /// Passing kNoDeadline clears. Replaces any earlier deadline.
  void set_deadline(ProcessId pid, std::uint64_t when);
  void clear_deadline(ProcessId pid) { set_deadline(pid, kNoDeadline); }
  /// The installed deadline, or kNoDeadline.
  std::uint64_t deadline_of(ProcessId pid) const {
    return fiber(pid).deadline();
  }

  /// Allow `pid` at most `steps` further dispatches; the dispatch after
  /// the last one unwinds it with BudgetExceeded{DispatchSteps}.
  /// ScriptInstance arms this per role from ScriptSpec::budget.
  void set_step_budget(ProcessId pid, std::uint64_t steps);
  void clear_step_budget(ProcessId pid);

  /// Like a deadline, but expiry throws BudgetExceeded{VirtualTicks}
  /// carrying `limit` (the configured tick budget). `when` is absolute.
  void set_tick_budget(ProcessId pid, std::uint64_t when,
                       std::uint64_t limit);
  void clear_tick_budget(ProcessId pid);

  /// True once a deadline/budget cancellation unwound `pid`'s body.
  bool was_cancelled(ProcessId pid) const {
    return fiber(pid).cancelled();
  }
  /// Lifetime counts of fibers unwound by each cancellation flavor.
  std::uint64_t deadline_cancels() const { return deadline_cancels_; }
  std::uint64_t budget_cancels() const { return budget_cancels_; }
  /// Deadline-heap depth (deadlines + tick budgets, stale included).
  std::size_t deadline_heap_size() const { return deadlines_.size(); }

  /// Register a hook that runs after a crashed fiber has fully unwound
  /// (csp::Net fails the dead process's peers through one). Returns an
  /// id for remove_crash_hook().
  std::uint64_t add_crash_hook(std::function<void(ProcessId)> fn);
  void remove_crash_hook(std::uint64_t id);

  /// Register a diagnostic section for describe()'s Deadlock/StepLimit
  /// reports: the callback returns prose (possibly multi-line) or ""
  /// when it has nothing to say. Supervisors and script instances
  /// report restart counts / roles awaiting takeover through these, so
  /// a stuck recovery is diagnosable from the report alone.
  std::uint64_t add_report_section(std::function<std::string()> fn);
  void remove_report_section(std::uint64_t id);
  /// Concatenation of all non-empty sections ("" when silent).
  std::string report_sections() const;

  /// Current timer-heap size, stale entries included. Tests assert it
  /// stays bounded under arm/early-wake churn (lazy purging).
  std::size_t timer_heap_size() const { return timers_.size(); }
  /// Heap entries known stale (their fiber woke another way). Purged in
  /// bulk once they dominate the heap.
  std::size_t stale_timer_count() const { return stale_timers_; }

  /// The fiber-stack recycler and its reuse statistics.
  StackPool& stack_pool() { return stack_pool_; }
  const StackPool::Stats& stack_pool_stats() const {
    return stack_pool_.stats();
  }

  support::Rng& rng() { return rng_; }
  /// Opt in to the Figure-1 prose log: installs the bus subscriber
  /// (obs::install_script_log_bridge) that words script milestones as
  /// "D attempts to enroll as p", "performance 1 begins". Off by
  /// default, so an unobserved scheduler's script layer publishes
  /// nothing. Idempotent; returns the log.
  support::TraceLog& enable_trace_log();
  bool trace_log_enabled() const { return trace_log_ != nullptr; }
  /// The prose log. Fails loudly unless enable_trace_log() ran first —
  /// an empty log must never pass for a quiet run.
  support::TraceLog& trace();
  /// Record a trace event stamped with virtual time and the fiber's
  /// name. No-op while the prose log is off.
  void trace_event(ProcessId subject, std::string what);

  /// Typed observability bus. Every layer publishes here; the prose
  /// TraceLog, once enabled, is itself a bus subscriber.
  obs::EventBus& bus() { return bus_; }
  const obs::EventBus& bus() const { return bus_; }

  /// Start capturing a Chrome-trace/Perfetto timeline of every
  /// subsystem. Idempotent; returns the exporter (json()/write()).
  /// Setting $SCRIPT_TRACE=<path> enables this at construction and
  /// writes the file when the scheduler is destroyed.
  obs::TraceExporter& enable_tracing();
  bool tracing_enabled() const { return exporter_ != nullptr; }
  /// Write the captured timeline; false if tracing is off or IO failed.
  /// Stamps trace metadata (truncated_events) just before writing.
  bool write_trace(const std::string& path) const;

  /// Stamp every event with the publishing fiber's vector clock and
  /// publish flow.s/flow.f edges on cross-fiber wakes. Implied by
  /// enable_tracing(); callable alone for causal tests that subscribe
  /// directly. Idempotent.
  void enable_causal_tracking();
  bool causal_tracking_enabled() const { return causal_ != nullptr; }
  obs::CausalTracker* causal_tracker() { return causal_.get(); }

  /// Record an explicit happens-before edge (data handed from `from` to
  /// `to` outside the unblock path, e.g. a CSP payload completing into a
  /// parked receiver, or an Ada acceptor taking a queued call). No-op
  /// when causal tracking is off.
  void causal_edge(ProcessId from, ProcessId to, const char* what);

  // ---- Always-on observability (obs::FlightRecorder / Inspector /
  //      HealthMonitor) ----

  /// Arm the black-box flight recorder: a fixed-size binary ring of
  /// recent events that auto-dumps a Perfetto-compatible post-mortem
  /// artifact on failure escalations (performance aborts, supervisor
  /// give-ups, deadlock). Idempotent; the no-arg overload uses default
  /// options. Setting $SCRIPT_FLIGHT=<base path> arms at construction
  /// (dump files are suffixed with the process id and a sequence number
  /// so parallel test shards never collide); an explicit-options call
  /// replaces such an env-armed default, the no-arg call keeps it.
  obs::FlightRecorder& arm_flight_recorder();
  obs::FlightRecorder& arm_flight_recorder(obs::FlightRecorderOptions opts);
  bool flight_recorder_armed() const { return flight_ != nullptr; }
  obs::FlightRecorder* flight_recorder() { return flight_.get(); }

  /// Enable SLO/watchdog monitoring. The monitor is polled on every
  /// virtual-clock advance; script instances and supervisors register
  /// their SLOs via their own enable_health() glue. Its findings join
  /// describe()'s deadlock/abort reports. Idempotent.
  obs::HealthMonitor& enable_health();
  bool health_enabled() const { return health_ != nullptr; }
  obs::HealthMonitor* health_monitor() { return health_.get(); }

  /// Arm the continuous time-series recorder: per-epoch event rates,
  /// gauge trajectories, and derived latency quantiles, keyed by script
  /// lane, over a bounded retention window (obs/timeline.hpp). Like the
  /// flight recorder it auto-dumps on failure escalations; unlike it,
  /// its dumps are history, not an event log. Idempotent. Setting
  /// $SCRIPT_TIMELINE=<base path> arms at construction the way
  /// $SCRIPT_FLIGHT does (explicit options replace that default, as
  /// with the recorder). Also backs the HealthMonitor's burn-rate
  /// windows (wired automatically in either arming order).
  obs::Timeline& arm_timeline();
  obs::Timeline& arm_timeline(obs::TimelineOptions opts);
  bool timeline_armed() const { return timeline_ != nullptr; }
  obs::Timeline* timeline() { return timeline_.get(); }
  /// Dump the timeline to `path`; false if unarmed or IO failed.
  bool write_timeline(const std::string& path) const;

  /// The scheduler-owned Inspector, created (with this scheduler
  /// attached) on first use. Script instances, lock tables, and
  /// supervisors can attach here too; the debug endpoint's `inspect`
  /// command serves its snapshots.
  obs::Inspector& inspector();

  /// Arm the live debug endpoint on a Unix-domain socket at `path`
  /// (runtime/debug_endpoint.hpp): `scriptctl top`/`watch`/`inspect`
  /// attach to the running scheduler through it. Serviced only at
  /// safepoints (run() entry/exit, clock advances, every few dozen
  /// dispatches), never blocking, read-only — golden traces and
  /// explore() are unaffected. Arms the timeline too (`timeline` and
  /// `events` need it). Returns false if the socket cannot be bound.
  /// Setting $SCRIPT_DEBUG_SOCK=<path> arms at construction; when
  /// several schedulers share one process the n-th gets "<path>.n".
  bool arm_debug_endpoint(const std::string& path);
  bool debug_endpoint_armed() const { return debug_ != nullptr; }
  DebugEndpoint* debug_endpoint() { return debug_.get(); }

  /// Live structured snapshot of the scheduler: clock, queue depths,
  /// and per-fiber state (Done fibers are elided unless crashed).
  std::string snapshot_json() const;
  /// Register this scheduler's snapshot section (and clock) with an
  /// Inspector. Returns the section id (Inspector::detach).
  std::size_t attach_inspector(obs::Inspector& inspector);

  /// Fibers currently runnable (ready-queue depth).
  std::size_t ready_count() const { return ready_.size(); }

 private:
  friend class Fiber;

  Fiber& fiber(ProcessId pid);
  const Fiber& fiber(ProcessId pid) const;
  /// From the current fiber back to the scheduler loop (loop_).
  void switch_out(Fiber& f);
  /// The one loop→fiber switch (dispatch and kill paths), bracketed
  /// with the sanitizer fiber annotations.
  void switch_to(Fiber& f);
  /// First thing a fiber runs after gaining control (from trampoline):
  /// completes the sanitizer-side switch and records the loop's stack
  /// bounds for the switch back.
  void fiber_entered(Fiber& f);
  void on_fiber_done(Fiber& f);
  ProcessId pick_next();
  bool advance_clock();  // wake due sleepers; returns false if none pending
  /// Enqueue a fiber and set its intrusive ready flag.
  void ready_push(Fiber& f);
  /// Push a timer for the fiber's CURRENT wake generation; purges the
  /// heap first when stale entries dominate it.
  void arm_timer(Fiber& f, std::uint64_t due);
  /// The fiber is waking by some other path: any timer it armed is now
  /// stale. Count it so the heap can be purged lazily. Call BEFORE
  /// bumping wake_gen_.
  void note_stale_timer(Fiber& f);
  /// Rebuild the heap without stale entries once they dominate it.
  void maybe_purge_timers();
  /// Return a Done fiber's stack to the pool (scheduler stack only).
  void reclaim_stack(Fiber& f);

  /// Debug-endpoint safepoint: service pending requests. One null check
  /// when unarmed; never blocks, never schedules.
  void service_debug();
  /// Wire up the endpoint's command handlers (arm_debug_endpoint).
  void register_debug_handlers();

  /// Fire every due fault of the installed plan. Crashes unwind the
  /// victim synchronously (see kill_now); returns true if anything
  /// fired that could create runnable work.
  bool fire_due_faults();
  /// Switch into `f` with a kill pending so it unwinds NOW, before any
  /// other fiber can observe its stale registrations.
  void kill_now(Fiber& f);
  /// Run the registered crash hooks for a fully-unwound crashed fiber.
  void finish_crash(Fiber& f);

  /// Switch into a parked `f` with a cancel pending so it unwinds NOW
  /// with DeadlineExceeded/BudgetExceeded — the kill_now discipline,
  /// but catchable.
  void cancel_now(Fiber& f, Fiber::PendingCancel kind,
                  std::uint64_t payload);
  /// Earliest live deadline/tick-budget due, or kNoTrigger. Purges
  /// stale heap tops so the clock never advances to a cleared deadline.
  std::uint64_t next_deadline_due();
  /// Fire every deadline/tick-budget due at now_. Parked victims unwind
  /// synchronously; Ready victims get a pending cancel delivered at
  /// their next park. True if anything fired.
  bool fire_due_deadlines();
  /// Entry check at every blocking primitive: a pending cancel (or a
  /// deadline the clock already passed) throws here, on the fiber's own
  /// stack, before it parks.
  void check_cancel(Fiber& f);
  /// Throw the typed exception for a pending cancel kind (never returns).
  [[noreturn]] void throw_cancel(Fiber& f);
  /// Count a delivered cancellation and publish its overload.* event.
  void note_cancel_fired(const Fiber& f, Fiber::PendingCancel kind,
                         std::uint64_t payload);

  struct Timer {
    std::uint64_t due;
    std::uint64_t seq;  // tie-break for determinism
    ProcessId pid;
    std::uint64_t gen;  // fiber wake generation this timer was armed for
    bool operator>(const Timer& o) const {
      return due != o.due ? due > o.due : seq > o.seq;
    }
  };

  /// priority_queue with access to the backing vector, so the stale
  /// purge can filter in place and re-heapify instead of copying.
  struct TimerHeap
      : std::priority_queue<Timer, std::vector<Timer>, std::greater<>> {
    std::vector<Timer>& raw() { return c; }
  };

  /// One armed deadline or tick budget. An entry is live only while the
  /// fiber's matching slot still holds `due` — clearing or replacing a
  /// deadline leaves the old entry stale on the heap, discarded when it
  /// surfaces (the lazy-purge discipline the timer heap uses).
  struct DeadlineEntry {
    std::uint64_t due;
    std::uint64_t seq;  // tie-break for determinism
    ProcessId pid;
    bool tick_budget;  // else a plain deadline
    bool operator>(const DeadlineEntry& o) const {
      return due != o.due ? due > o.due : seq > o.seq;
    }
  };
  struct DeadlineHeap
      : std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                            std::greater<>> {
    std::vector<DeadlineEntry>& raw() { return c; }
  };
  bool deadline_entry_live(const DeadlineEntry& e) const;

  SchedulerOptions opts_;
  support::Rng rng_;
  // Declared before bus_ so the log outlives the bridge subscription.
  std::unique_ptr<support::TraceLog> trace_log_;
  obs::EventBus bus_;
  std::unique_ptr<obs::TraceExporter> exporter_;
  std::unique_ptr<obs::CausalTracker> causal_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::HealthMonitor> health_;
  std::unique_ptr<obs::Timeline> timeline_;
  // Armed by $SCRIPT_FLIGHT / $SCRIPT_TIMELINE with default options; an
  // explicit arm_*(opts) call replaces such a recorder.
  bool flight_env_default_ = false;
  bool timeline_env_default_ = false;
  std::unique_ptr<obs::Inspector> inspector_;
  std::unique_ptr<DebugEndpoint> debug_;
  std::string trace_path_;  // from $SCRIPT_TRACE; written in the dtor
  /// Indexed by ProcessId (pids are dense spawn indices). Fibers stay
  /// put in their unique_ptrs while the vector grows.
  std::vector<std::unique_ptr<Fiber>> fibers_;
  ReadyQueueT<ProcessId, kNoProcess> ready_;
  TimerHeap timers_;
  std::size_t stale_timers_ = 0;  // heap entries made stale by early wakes
  DeadlineHeap deadlines_;
  std::uint64_t deadline_seq_ = 0;
  std::uint64_t deadline_cancels_ = 0;
  std::uint64_t budget_cancels_ = 0;
  StackPool stack_pool_;
  std::uint64_t live_ = 0;  // fibers not yet Done (cached for live_count)
  std::uint64_t now_ = 0;
  std::uint64_t timer_seq_ = 0;
  std::uint64_t steps_ = 0;
  ProcessId current_ = kNoProcess;
  /// The scheduler loop's execution context (saved stack pointer +
  /// sanitizer bookkeeping); every fiber switches back into it.
  ExecContext loop_;
  bool running_ = false;
  std::unique_ptr<FaultPlan> fault_plan_;
  std::vector<std::pair<std::uint64_t, std::function<void(ProcessId)>>>
      crash_hooks_;
  std::uint64_t next_crash_hook_id_ = 1;
  std::vector<std::pair<std::uint64_t, std::function<std::string()>>>
      report_sections_;
  std::uint64_t next_report_section_id_ = 1;
};

}  // namespace script::runtime
