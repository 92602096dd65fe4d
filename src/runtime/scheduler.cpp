#include "runtime/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include <unistd.h>

#include "obs/causal.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/health.hpp"
#include "obs/inspector.hpp"
#include "obs/json.hpp"
#include "obs/log_bridge.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_export.hpp"
#include "runtime/debug_endpoint.hpp"
#include "runtime/sanitizer_fiber.hpp"
#include "support/panic.hpp"

namespace script::runtime {

std::string describe(const RunResult& result, const Scheduler& sched) {
  std::string out;
  switch (result.outcome) {
    case RunResult::Outcome::AllDone:
      out = "all fibers completed";
      break;
    case RunResult::Outcome::Deadlock:
      out = "DEADLOCK";
      break;
    case RunResult::Outcome::StepLimit:
      out = "stopped at step limit";
      break;
  }
  out += " (steps=" + std::to_string(result.steps) +
         ", virtual time=" + std::to_string(result.final_time) + ")";
  for (const auto& [pid, reason] : result.blocked) {
    out += "\n  blocked: " + sched.name_of(pid) + " — " + reason +
           " (last progress t=" + std::to_string(sched.last_progress(pid)) +
           ")";
    // The wait-for chain: who this fiber waits on, who THAT fiber waits
    // on, and so forth — the causal explanation of the deadlock, not a
    // flat event dump. A repeated fiber closes the chain as a cycle.
    std::vector<ProcessId> seen{pid};
    ProcessId at = sched.waiting_on(pid);
    while (at != kNoProcess) {
      const bool cycle =
          std::find(seen.begin(), seen.end(), at) != seen.end();
      out += "\n    waits for " + sched.name_of(at);
      if (cycle) {
        out += "  [cycle]";
        break;
      }
      if (sched.state_of(at) == FiberState::Blocked) {
        const ProcessId next = sched.waiting_on(at);
        if (next == kNoProcess) break;
        seen.push_back(at);
        at = next;
      } else {
        break;
      }
    }
  }
  if (result.outcome != RunResult::Outcome::AllDone) {
    const std::string sections = sched.report_sections();
    if (!sections.empty()) {
      // Indent each section line under the report body.
      out += "\n  ";
      for (const char c : sections) {
        out += c;
        if (c == '\n') out += "  ";
      }
    }
  }
  return out;
}

Scheduler::Scheduler(SchedulerOptions opts)
    : opts_(opts), rng_(opts.seed), stack_pool_(opts.stack_pool_max_idle) {
  bus_.set_clock([this] { return now_; });
  if (opts_.event_history != 0) bus_.set_history(opts_.event_history);
  if (const char* path = std::getenv("SCRIPT_TRACE");
      path != nullptr && *path != '\0') {
    enable_tracing();
    trace_path_ = path;
  }
  if (const char* base = std::getenv("SCRIPT_FLIGHT");
      base != nullptr && *base != '\0') {
    // Parallel test shards share the env var: suffix the dump base with
    // pid and a per-process sequence so artifacts never collide.
    static int flight_seq = 0;
    obs::FlightRecorderOptions fopts;
    fopts.dump_path = std::string(base) + "-" + std::to_string(getpid()) +
                      "-" + std::to_string(flight_seq++);
    arm_flight_recorder(std::move(fopts));
    flight_env_default_ = true;
  }
  if (const char* base = std::getenv("SCRIPT_TIMELINE");
      base != nullptr && *base != '\0') {
    // Same collision discipline as SCRIPT_FLIGHT. Dumps fire only on
    // failure escalations, so a green test run leaves no files behind.
    static int timeline_seq = 0;
    obs::TimelineOptions topts;
    topts.dump_path = std::string(base) + "-" + std::to_string(getpid()) +
                      "-" + std::to_string(timeline_seq++);
    arm_timeline(std::move(topts));
    timeline_env_default_ = true;
  }
  if (const char* path = std::getenv("SCRIPT_DEBUG_SOCK");
      path != nullptr && *path != '\0') {
    // First scheduler in the process gets the exact path (the common
    // case a human attaches to); later ones get numbered siblings.
    static int sock_seq = 0;
    const int n = sock_seq++;
    const std::string p =
        n == 0 ? std::string(path)
               : std::string(path) + "." + std::to_string(n);
    if (!arm_debug_endpoint(p))
      std::fprintf(stderr, "SCRIPT_DEBUG_SOCK: could not bind %s\n",
                   p.c_str());
  }
}

Scheduler::~Scheduler() {
  if (exporter_ != nullptr && !trace_path_.empty()) {
    // Several schedulers in one process (tests) get numbered files.
    static int seq = 0;
    const int n = seq++;
    const std::string path =
        n == 0 ? trace_path_ : trace_path_ + "." + std::to_string(n);
    if (!write_trace(path))
      std::fprintf(stderr, "SCRIPT_TRACE: could not write %s\n",
                   path.c_str());
  }
  // Destroy fibers, in spawn order, before implicit member teardown: a
  // fiber body may own the last reference to an object whose destructor
  // calls back into the scheduler (csp::Net deregisters its crash hook),
  // and crash_hooks_ — declared after fibers_ — would otherwise already
  // be gone.
  for (std::unique_ptr<Fiber>& f : fibers_) f.reset();
  fibers_.clear();
}

support::TraceLog& Scheduler::enable_trace_log() {
  if (trace_log_ == nullptr) {
    // The prose log is a bus subscriber: script-layer milestones are
    // published once and worded by the bridge, keeping log and
    // exporters in sync.
    trace_log_ = std::make_unique<support::TraceLog>();
    obs::install_script_log_bridge(
        bus_, *trace_log_, [this](obs::Pid p) { return name_of(p); });
  }
  return *trace_log_;
}

support::TraceLog& Scheduler::trace() {
  SCRIPT_ASSERT(trace_log_ != nullptr,
                "Scheduler::trace(): the prose log is off; call "
                "enable_trace_log() before running");
  return *trace_log_;
}

obs::TraceExporter& Scheduler::enable_tracing() {
  if (exporter_ == nullptr) {
    // A timeline without happens-before arrows is half a timeline:
    // tracing implies causal tracking.
    enable_causal_tracking();
    exporter_ = std::make_unique<obs::TraceExporter>(bus_);
    exporter_->set_fiber_namer(
        [this](obs::Pid p) { return name_of(p); });
  }
  return *exporter_;
}

void Scheduler::enable_causal_tracking() {
  if (causal_ != nullptr) return;
  causal_ = std::make_unique<obs::CausalTracker>(bus_);
  bus_.set_stamper([this](obs::Event& e) { causal_->stamp(e); });
}

void Scheduler::causal_edge(ProcessId from, ProcessId to,
                            const char* what) {
  if (causal_ != nullptr) causal_->on_edge(from, to, what);
}

obs::FlightRecorder& Scheduler::arm_flight_recorder() {
  if (flight_ != nullptr) return *flight_;
  return arm_flight_recorder(obs::FlightRecorderOptions{});
}

obs::FlightRecorder& Scheduler::arm_flight_recorder(
    obs::FlightRecorderOptions opts) {
  // Explicit options outrank a recorder $SCRIPT_FLIGHT armed with
  // defaults at construction; otherwise the first arming wins.
  if (flight_ == nullptr || flight_env_default_) {
    flight_.reset();  // unsubscribe before the replacement subscribes
    flight_ = std::make_unique<obs::FlightRecorder>(bus_, std::move(opts));
    flight_->set_fiber_namer([this](obs::Pid p) { return name_of(p); });
    flight_env_default_ = false;
  }
  return *flight_;
}

obs::HealthMonitor& Scheduler::enable_health() {
  if (health_ == nullptr) {
    health_ = std::make_unique<obs::HealthMonitor>(bus_);
    add_report_section([this] { return health_->report(); });
    // Burn-rate windows live on the timeline; wire it in whichever
    // order the two were enabled.
    if (timeline_ != nullptr) health_->set_timeline(timeline_.get());
  }
  return *health_;
}

obs::Timeline& Scheduler::arm_timeline() {
  if (timeline_ != nullptr) return *timeline_;
  return arm_timeline(obs::TimelineOptions{});
}

obs::Timeline& Scheduler::arm_timeline(obs::TimelineOptions opts) {
  // Same rule as arm_flight_recorder: explicit options replace a
  // $SCRIPT_TIMELINE default.
  if (timeline_ == nullptr || timeline_env_default_) {
    timeline_.reset();
    timeline_env_default_ = false;
    timeline_ = std::make_unique<obs::Timeline>(bus_, std::move(opts));
    timeline_->set_clock([this] { return now_; });
    timeline_->set_lane_namer(
        [this](std::int32_t lane) { return bus_.lane_name(lane); });
    if (health_ != nullptr) health_->set_timeline(timeline_.get());
  }
  return *timeline_;
}

bool Scheduler::write_timeline(const std::string& path) const {
  return timeline_ != nullptr && timeline_->write(path);
}

obs::Inspector& Scheduler::inspector() {
  if (inspector_ == nullptr) {
    inspector_ = std::make_unique<obs::Inspector>();
    attach_inspector(*inspector_);
  }
  return *inspector_;
}

void Scheduler::service_debug() {
  if (debug_ != nullptr) debug_->service();
}

bool Scheduler::arm_debug_endpoint(const std::string& path) {
  if (debug_ != nullptr) return debug_->listening();
  arm_timeline();  // `timeline`/`events` requests need it recording
  debug_ = std::make_unique<DebugEndpoint>();
  if (!debug_->listen(path)) {
    debug_.reset();
    return false;
  }
  register_debug_handlers();
  return true;
}

void Scheduler::register_debug_handlers() {
  debug_->register_handler(
      "ping", [](const std::string&, std::string*) -> std::string {
        return "pong\n";
      });
  debug_->register_handler(
      "inspect", [this](const std::string&, std::string*) {
        return inspector().snapshot_json();
      });
  debug_->register_handler(
      "timeline", [this](const std::string&, std::string*) {
        return timeline_->dump_json();
      });
  debug_->register_handler(
      "events", [this](const std::string& args, std::string* err) {
        std::size_t n = 64;
        if (!args.empty()) {
          char* end = nullptr;
          const unsigned long v = std::strtoul(args.c_str(), &end, 10);
          if (end == nullptr || *end != '\0') {
            *err = "usage: events [count]";
            return std::string();
          }
          n = static_cast<std::size_t>(v);
        }
        return timeline_->recent_json(n);
      });
  debug_->register_handler(
      "metrics", [this](const std::string&, std::string*) {
        // Assembled on demand — an armed-but-unscraped endpoint keeps
        // zero metrics machinery running between requests.
        obs::MetricsRegistry reg;
        reg.gauge("scheduler.virtual_time", static_cast<double>(now_));
        reg.gauge("scheduler.steps", static_cast<double>(steps_));
        reg.gauge("scheduler.live_fibers", static_cast<double>(live_));
        reg.gauge("scheduler.ready", static_cast<double>(ready_.size()));
        reg.gauge("scheduler.timers", static_cast<double>(timers_.size()));
        auto& served = reg.counter("debug.requests_served");
        if (debug_->requests_served() > served.value())
          served.inc(debug_->requests_served() - served.value());
        if (debug_->connections_shed() != 0) {
          auto& shed = reg.counter("debug.connections_shed");
          shed.inc(debug_->connections_shed() - shed.value());
        }
        if (timeline_ != nullptr) timeline_->export_metrics(reg);
        if (flight_ != nullptr) flight_->export_metrics(reg);
        if (health_ != nullptr) {
          auto& c = reg.counter("health.violations");
          const std::uint64_t v = health_->violations();
          if (v > c.value()) c.inc(v - c.value());
        }
        if (trace_log_ != nullptr)
          reg.import_tracelog_truncation(*trace_log_);
        else
          reg.counter("tracelog.truncated_events");
        return reg.expose_prometheus();
      });
  debug_->register_handler(
      "health", [this](const std::string&, std::string*) {
        if (health_ == nullptr) return std::string("health monitor off\n");
        const std::string report = health_->report();
        return report.empty() ? std::string("healthy\n") : report + "\n";
      });
}

std::string Scheduler::snapshot_json() const {
  obs::json::Writer w;
  w.object();
  w.key("now").value(now_);
  w.key("steps").value(steps_);
  w.key("spawned").value(static_cast<std::uint64_t>(fibers_.size()));
  w.key("live").value(live_);
  w.key("ready").value(static_cast<std::uint64_t>(ready_.size()));
  w.key("timers").value(static_cast<std::uint64_t>(timers_.size()));
  w.key("stale_timers").value(static_cast<std::uint64_t>(stale_timers_));
  // Overload counters appear only once the machinery has fired, so
  // snapshots of runs that never arm it are unchanged.
  if (deadline_cancels_ != 0)
    w.key("deadline_cancels").value(deadline_cancels_);
  if (budget_cancels_ != 0) w.key("budget_cancels").value(budget_cancels_);
  w.key("fibers").array();
  for (const std::unique_ptr<Fiber>& fp : fibers_) {
    const Fiber& f = *fp;
    // Finished fibers say nothing about what the system is doing now —
    // except crashed ones, which are exactly what an inspector wants.
    if (f.state() == FiberState::Done && !f.crashed()) continue;
    w.object();
    w.key("pid").value(static_cast<std::uint64_t>(f.id()));
    w.key("name").value(f.name());
    w.key("state").value(fiber_state_name(f.state()));
    if (!f.block_reason().empty()) w.key("reason").value(f.block_reason());
    if (f.waiting_on() != kNoProcess)
      w.key("waiting_on").value(static_cast<std::uint64_t>(f.waiting_on()));
    w.key("last_progress").value(f.last_progress());
    w.key("blocked_ticks").value(f.blocked_ticks());
    w.key("slept_ticks").value(f.slept_ticks());
    if (f.crashed()) w.key("crashed").value(true);
    if (f.cancelled()) w.key("cancelled").value(true);
    if (f.deadline() != kNoDeadline) w.key("deadline").value(f.deadline());
    // Remaining budgets, present only while armed (run_admitted clears
    // them when the role body ends).
    if (f.steps_left_ != kNoDeadline)
      w.key("steps_left").value(f.steps_left_);
    if (f.tick_budget_due_ != kNoDeadline)
      w.key("tick_budget_due").value(f.tick_budget_due_);
    w.end();
  }
  w.end().end();
  return w.str();
}

std::size_t Scheduler::attach_inspector(obs::Inspector& inspector) {
  inspector.set_clock([this] { return now_; });
  return inspector.attach("scheduler",
                          [this] { return snapshot_json(); });
}

bool Scheduler::write_trace(const std::string& path) const {
  if (exporter_ == nullptr) return false;
  // Stamp provenance metadata at write time (set_metadata upserts, so
  // repeated writes stay consistent). truncated_events > 0 flags that
  // the prose TraceLog's ring dropped entries — the exported timeline
  // itself is complete, but the companion log is not.
  exporter_->set_metadata(
      "truncated_events",
      static_cast<double>(trace_log_ != nullptr ? trace_log_->evicted() : 0));
  exporter_->set_metadata("virtual_time", static_cast<double>(now_));
  return exporter_->write(path);
}

ProcessId Scheduler::spawn(std::string name, std::function<void()> body) {
  const auto pid = static_cast<ProcessId>(fibers_.size());
  fibers_.push_back(
      std::make_unique<Fiber>(pid, std::move(name), std::move(body),
                              stack_pool_.acquire(opts_.stack_bytes)));
  Fiber& f = *fibers_.back();
  f.scheduler_ = this;
  ++live_;
  ready_push(f);
  if (bus_.wants(obs::Subsystem::Scheduler))
    bus_.publish({obs::EventKind::Instant, obs::Subsystem::Scheduler,
                  obs::kAutoTime, pid, obs::kNoLane, "spawn", f.name()});
  return pid;
}

RunResult Scheduler::run() {
  SCRIPT_ASSERT(!running_, "Scheduler::run is not reentrant");
  running_ = true;
  RunResult result;
  std::uint64_t dispatched = 0;
  service_debug();  // safepoint: catch up with clients before dispatching

  for (;;) {
    // Safepoint: a busy loop that never parks (so the clock never
    // advances) still answers `scriptctl top` every few dozen steps.
    if ((dispatched & 63) == 0) service_debug();
    // Same-instant ordering: deadlines before faults ("cancel beats
    // crash"); timers already beat both because advance_clock pops them
    // before firing either.
    if (!deadlines_.empty()) fire_due_deadlines();
    if (fault_plan_ != nullptr) fire_due_faults();
    if (opts_.max_steps_per_run != 0 &&
        dispatched >= opts_.max_steps_per_run) {
      result.outcome = RunResult::Outcome::StepLimit;
      break;
    }
    if (ready_.empty() && !advance_clock()) break;
    if (ready_.empty()) continue;  // clock advance may wake sleepers only

    const ProcessId pid = pick_next();
    Fiber& f = fiber(pid);
    SCRIPT_ASSERT(f.state() == FiberState::Ready,
                  "scheduled fiber not ready: " + f.name());
    if (f.pending_stall_ticks_ > 0) {
      // An injected stall: the fiber loses its turn and freezes for the
      // stall duration (virtual time), then becomes runnable again.
      const std::uint64_t ticks = f.pending_stall_ticks_;
      f.pending_stall_ticks_ = 0;
      f.set_state(FiberState::Sleeping);
      f.sleep_start_ = now_;
      arm_timer(f, now_ + ticks);
      // Open the sleeping span (its SpanEnd was already published on
      // wake, leaving stall spans unbalanced before this).
      if (bus_.wants(obs::Subsystem::Scheduler))
        bus_.publish({obs::EventKind::SpanBegin, obs::Subsystem::Scheduler,
                      obs::kAutoTime, pid, obs::kNoLane, "sleeping",
                      "(stalled)", static_cast<double>(ticks)});
      continue;
    }
    if (f.steps_left_ != kNoDeadline) {
      if (f.steps_left_ == 0) {
        // Step budget spent: this dispatch delivers BudgetExceeded
        // (thrown from switch_out on the fiber's own stack) instead of
        // running the body.
        f.steps_left_ = kNoDeadline;
        f.cancel_pending_ = Fiber::PendingCancel::StepBudget;
        f.cancel_payload_ = f.step_limit_;
        note_cancel_fired(f, Fiber::PendingCancel::StepBudget,
                          f.step_limit_);
      } else {
        --f.steps_left_;
      }
    }
    f.set_state(FiberState::Running);
    f.last_progress_ = now_;
    current_ = pid;
    ++steps_;
    ++dispatched;
    if (causal_ != nullptr) causal_->on_dispatch(pid);
    if (bus_.wants(obs::Subsystem::Scheduler))
      bus_.publish({obs::EventKind::Instant, obs::Subsystem::Scheduler,
                    obs::kAutoTime, pid, obs::kNoLane, "dispatch", "",
                    static_cast<double>(steps_)});
    switch_to(f);
    current_ = kNoProcess;
    if (causal_ != nullptr) causal_->on_scheduler_loop();

    if (f.state() == FiberState::Done) {
      if (f.crashed()) finish_crash(f);
      // Back on the scheduler stack: the fiber's stack is no longer in
      // use and can be recycled for the next spawn.
      reclaim_stack(f);
      if (f.failure()) {
        running_ = false;
        std::rethrow_exception(f.failure());
      }
    }
  }

  running_ = false;
  result.final_time = now_;
  result.steps = steps_;
  if (result.outcome == RunResult::Outcome::StepLimit) return result;
  for (const std::unique_ptr<Fiber>& fp : fibers_) {
    const Fiber& f = *fp;
    if (f.state() == FiberState::Blocked)
      result.blocked.emplace_back(f.id(), f.block_reason());
    SCRIPT_ASSERT(f.state() != FiberState::Sleeping,
                  "sleeper left behind after clock drained");
  }
  result.outcome = result.blocked.empty() ? RunResult::Outcome::AllDone
                                          : RunResult::Outcome::Deadlock;
  if (result.outcome == RunResult::Outcome::Deadlock) {
    // Announce before dumping so the marker lands in the black box.
    if (bus_.wants(obs::Subsystem::Scheduler))
      bus_.publish({obs::EventKind::Instant, obs::Subsystem::Scheduler,
                    obs::kAutoTime, obs::kNoPid, obs::kNoLane, "deadlock",
                    "", static_cast<double>(result.blocked.size())});
    if (flight_ != nullptr) flight_->trigger_dump("deadlock");
    if (timeline_ != nullptr) timeline_->trigger_dump("deadlock");
  }
  service_debug();  // safepoint: drain any last requests before returning
  return result;
}

void Scheduler::yield() {
  Fiber& f = fiber(current());
  f.set_state(FiberState::Ready);
  ready_push(f);
  switch_out(f);
}

void Scheduler::block(BlockReason reason, ProcessId waiting_on) {
  Fiber& f = fiber(current());
  check_cancel(f);  // blocking primitives are cancellation points
  f.set_state(FiberState::Blocked);
  f.set_block_reason(reason);
  f.block_start_ = now_;
  f.waiting_on_ = waiting_on;
  if (bus_.wants(obs::Subsystem::Scheduler))
    bus_.publish({obs::EventKind::SpanBegin, obs::Subsystem::Scheduler,
                  obs::kAutoTime, f.id(), obs::kNoLane, "blocked",
                  f.block_reason()});
  switch_out(f);
}

void Scheduler::sleep_for(std::uint64_t ticks) {
  Fiber& f = fiber(current());
  check_cancel(f);
  if (ticks == 0) {
    yield();
    return;
  }
  f.set_state(FiberState::Sleeping);
  f.sleep_start_ = now_;
  arm_timer(f, now_ + ticks);
  if (bus_.wants(obs::Subsystem::Scheduler))
    bus_.publish({obs::EventKind::SpanBegin, obs::Subsystem::Scheduler,
                  obs::kAutoTime, f.id(), obs::kNoLane, "sleeping", "",
                  static_cast<double>(ticks)});
  switch_out(f);
}

bool Scheduler::block_with_timeout(BlockReason reason, std::uint64_t ticks,
                                   std::function<void()> on_timeout,
                                   ProcessId waiting_on) {
  Fiber& f = fiber(current());
  if (f.cancel_pending_ != Fiber::PendingCancel::None ||
      now_ >= f.deadline_ || now_ >= f.tick_budget_due_) {
    // Cancelling at entry: run the caller's self-clean hook first, just
    // as a timeout or kill firing an instant after the park would, so
    // the wait-list registration never outlives the wait.
    if (on_timeout) on_timeout();
    check_cancel(f);  // throws
  }
  f.set_state(FiberState::Blocked);
  f.set_block_reason(reason);
  f.block_start_ = now_;
  f.waiting_on_ = waiting_on;
  f.timed_out_ = false;
  f.timeout_cleanup_ = std::move(on_timeout);
  arm_timer(f, now_ + ticks);
  if (bus_.wants(obs::Subsystem::Scheduler))
    bus_.publish({obs::EventKind::SpanBegin, obs::Subsystem::Scheduler,
                  obs::kAutoTime, f.id(), obs::kNoLane, "blocked",
                  f.block_reason(), static_cast<double>(ticks)});
  switch_out(f);
  return f.timed_out_;
}

void Scheduler::join(ProcessId pid) {
  SCRIPT_ASSERT(pid < fibers_.size(), "join: unknown process");
  if (fiber(pid).state() == FiberState::Done) return;
  // Cancel before registering: a joiner that unwound at block() entry
  // would leave a joiners_ entry behind, and a caught cancellation
  // could re-block the fiber elsewhere before the target finishes.
  check_cancel(fiber(current()));
  fiber(pid).joiners_.push_back(current());
  block({"joining ", fiber(pid).name()}, pid);
}

void Scheduler::unblock(ProcessId pid) {
  Fiber& f = fiber(pid);
  SCRIPT_ASSERT(f.state() == FiberState::Blocked,
                "unblock on non-blocked fiber " + f.name());
  f.set_state(FiberState::Ready);
  f.clear_block_reason();
  f.blocked_ticks_ += now_ - f.block_start_;
  f.waiting_on_ = kNoProcess;
  f.timed_out_ = false;
  f.timeout_cleanup_ = nullptr;  // woken normally: waker consumed the entry
  note_stale_timer(f);
  ++f.wake_gen_;  // any timeout timer armed for this block is now stale
  ready_push(f);
  // Every wake that flows through here — CSP rendezvous, Ada hand-off,
  // monitor admission, wait-queue notify, enrollment release — is a
  // happens-before edge from the running fiber to the woken one.
  if (causal_ != nullptr && current_ != kNoProcess && current_ != pid)
    causal_->on_edge(current_, pid);
  if (bus_.wants(obs::Subsystem::Scheduler))
    bus_.publish({obs::EventKind::SpanEnd, obs::Subsystem::Scheduler,
                  obs::kAutoTime, pid, obs::kNoLane, "blocked", ""});
}

void Scheduler::wake_at(ProcessId pid, std::uint64_t ticks_from_now) {
  if (ticks_from_now == 0) {
    unblock(pid);
    return;
  }
  Fiber& f = fiber(pid);
  SCRIPT_ASSERT(f.state() == FiberState::Blocked,
                "wake_at on non-blocked fiber " + f.name());
  f.set_state(FiberState::Sleeping);
  f.clear_block_reason();
  f.blocked_ticks_ += now_ - f.block_start_;
  f.sleep_start_ = now_;
  f.waiting_on_ = kNoProcess;
  f.timeout_cleanup_ = nullptr;  // woken normally: waker consumed the entry
  note_stale_timer(f);
  ++f.wake_gen_;  // invalidate any timeout armed for the old block
  arm_timer(f, now_ + ticks_from_now);
  // The edge is recorded at SEND time: the latency sleep that follows is
  // the message in flight, already caused by the sender.
  if (causal_ != nullptr && current_ != kNoProcess && current_ != pid)
    causal_->on_edge(current_, pid);
  if (bus_.wants(obs::Subsystem::Scheduler)) {
    bus_.publish({obs::EventKind::SpanEnd, obs::Subsystem::Scheduler,
                  obs::kAutoTime, pid, obs::kNoLane, "blocked", ""});
    bus_.publish({obs::EventKind::SpanBegin, obs::Subsystem::Scheduler,
                  obs::kAutoTime, pid, obs::kNoLane, "sleeping", "",
                  static_cast<double>(ticks_from_now)});
  }
}

ProcessId Scheduler::current() const {
  SCRIPT_ASSERT(current_ != kNoProcess, "operation requires a running fiber");
  return current_;
}

const std::string& Scheduler::name_of(ProcessId pid) const {
  return fiber(pid).name();
}

FiberState Scheduler::state_of(ProcessId pid) const {
  return fiber(pid).state();
}

std::size_t Scheduler::live_count() const { return live_; }

void Scheduler::trace_event(ProcessId subject, std::string what) {
  if (trace_log_ != nullptr)
    trace_log_->record(now_, name_of(subject), std::move(what));
}

Fiber& Scheduler::fiber(ProcessId pid) {
  SCRIPT_ASSERT(pid < fibers_.size(), "unknown process id");
  return *fibers_[pid];
}

const Fiber& Scheduler::fiber(ProcessId pid) const {
  SCRIPT_ASSERT(pid < fibers_.size(), "unknown process id");
  return *fibers_[pid];
}

void Scheduler::switch_to(Fiber& f) {
  sanitizer::start_switch(&loop_.asan_fake_stack, f.stack_.base(),
                          f.stack_.size());
  context::swap(loop_.ctx, f.ctx_);
  sanitizer::finish_switch(loop_.asan_fake_stack, nullptr, nullptr);
}

void Scheduler::fiber_entered(Fiber& f) {
  // First entry has no saved fake stack (null); resumptions restore the
  // one saved at the matching start_switch in switch_out. Either way the
  // "from" bounds are the loop's own stack — record them for the switch
  // back (they never change).
  sanitizer::finish_switch(f.asan_fake_stack_, &loop_.stack_bottom,
                           &loop_.stack_size);
}

void Scheduler::switch_out(Fiber& f) {
  // A Done fiber will never run again: hand ASan a null save slot so it
  // retires the fiber's fake stack instead of keeping it for a resume.
  sanitizer::start_switch(
      f.state() == FiberState::Done ? nullptr : &f.asan_fake_stack_,
      loop_.stack_bottom, loop_.stack_size);
  context::swap(f.ctx_, loop_.ctx);
  sanitizer::finish_switch(f.asan_fake_stack_, nullptr, nullptr);
  if (f.kill_pending_) {
    // A FaultPlan crash fired while we were parked: unwind this fiber's
    // stack so every RAII registration guard deregisters.
    f.kill_pending_ = false;
    throw FiberKilled{f.id()};
  }
  if (f.cancel_pending_ != Fiber::PendingCancel::None) {
    // A deadline/budget cancellation fired while we were parked (or a
    // step budget expired at this dispatch): unwind like a kill, but
    // with the catchable typed exception.
    throw_cancel(f);
  }
}

void Scheduler::on_fiber_done(Fiber& f) {
  --live_;
  for (const ProcessId waiter : f.joiners_)
    if (fiber(waiter).state() == FiberState::Blocked) unblock(waiter);
  f.joiners_.clear();
}

void Scheduler::ready_push(Fiber& f) {
  SCRIPT_ASSERT(!f.in_ready_, "fiber already on the ready queue");
  f.in_ready_ = true;
  ready_.push(f.id());
}

void Scheduler::arm_timer(Fiber& f, std::uint64_t due) {
  maybe_purge_timers();
  timers_.push(Timer{due, timer_seq_++, f.id(), f.wake_gen_});
  f.timer_armed_ = true;
}

void Scheduler::note_stale_timer(Fiber& f) {
  if (!f.timer_armed_) return;
  f.timer_armed_ = false;
  ++stale_timers_;
}

void Scheduler::maybe_purge_timers() {
  // Purge only once stale entries both exceed a floor (small heaps are
  // cheap to carry) and dominate the heap, so the rebuild amortizes to
  // O(1) per armed timer. Runs only from arm sites — never inside the
  // advance_clock pop loop.
  if (stale_timers_ <= 64 || stale_timers_ * 2 <= timers_.size()) return;
  std::vector<Timer>& raw = timers_.raw();
  raw.erase(std::remove_if(raw.begin(), raw.end(),
                           [this](const Timer& t) {
                             return t.gen != fiber(t.pid).wake_gen_;
                           }),
            raw.end());
  std::make_heap(raw.begin(), raw.end(), std::greater<>{});
  stale_timers_ = 0;
}

void Scheduler::reclaim_stack(Fiber& f) {
  SCRIPT_ASSERT(current_ == kNoProcess,
                "stack reclaim must run from the scheduler loop");
  if (f.stack_.valid()) stack_pool_.release(f.release_stack());
}

void Scheduler::install_fault_plan(FaultPlan plan) {
  fault_plan_ = std::make_unique<FaultPlan>(std::move(plan));
}

std::uint64_t Scheduler::add_crash_hook(std::function<void(ProcessId)> fn) {
  const std::uint64_t id = next_crash_hook_id_++;
  crash_hooks_.emplace_back(id, std::move(fn));
  return id;
}

void Scheduler::remove_crash_hook(std::uint64_t id) {
  for (auto it = crash_hooks_.begin(); it != crash_hooks_.end(); ++it) {
    if (it->first == id) {
      crash_hooks_.erase(it);
      return;
    }
  }
}

std::uint64_t Scheduler::add_report_section(
    std::function<std::string()> fn) {
  const std::uint64_t id = next_report_section_id_++;
  report_sections_.emplace_back(id, std::move(fn));
  return id;
}

void Scheduler::remove_report_section(std::uint64_t id) {
  for (auto it = report_sections_.begin(); it != report_sections_.end();
       ++it) {
    if (it->first == id) {
      report_sections_.erase(it);
      return;
    }
  }
}

std::string Scheduler::report_sections() const {
  std::string out;
  for (const auto& [id, fn] : report_sections_) {
    std::string text = fn();
    if (text.empty()) continue;
    if (!out.empty()) out += "\n";
    out += text;
  }
  return out;
}

bool Scheduler::fire_due_faults() {
  if (fault_plan_ == nullptr) return false;
  bool fired_any = false;
  for (FaultPlan::ProcessFault& pf : fault_plan_->process_faults()) {
    if (pf.fired) continue;
    if (pf.by_time ? now_ < pf.at : steps_ < pf.at) continue;
    pf.fired = true;
    fired_any = true;
    Fiber& f = fiber(pf.pid);
    if (f.state() == FiberState::Done) continue;  // beat the fault to exit
    if (pf.kind == FaultPlan::ProcessFault::Kind::Crash) {
      if (bus_.wants(obs::Subsystem::Fault))
        bus_.publish({obs::EventKind::Instant, obs::Subsystem::Fault,
                      obs::kAutoTime, pf.pid, obs::kNoLane, "fault.crash",
                      f.name()});
      kill_now(f);
    } else {
      if (bus_.wants(obs::Subsystem::Fault))
        bus_.publish({obs::EventKind::Instant, obs::Subsystem::Fault,
                      obs::kAutoTime, pf.pid, obs::kNoLane, "fault.stall",
                      f.name(), static_cast<double>(pf.ticks)});
      f.pending_stall_ticks_ += pf.ticks;
    }
  }
  return fired_any;
}

void Scheduler::kill_now(Fiber& f) {
  SCRIPT_ASSERT(current_ == kNoProcess,
                "kill_now must run from the scheduler loop");
  if (f.in_ready_) {
    ready_.remove(f.id());
    f.in_ready_ = false;
  }
  // Self-clean any timed-wait registration exactly as a timeout would.
  if (f.timeout_cleanup_) {
    auto cleanup = std::move(f.timeout_cleanup_);
    f.timeout_cleanup_ = nullptr;
    cleanup();
  }
  // Close the victim's open park span before unwinding it, so causal
  // graphs never see a dangling blocked/sleeping span for a killed
  // fiber (the unwind below emits the layer-level close events; this is
  // the scheduler-level one). The elapsed part of the cut-short park
  // accrues to the matching ledger, so scheduler and causal attribution
  // agree on kill paths too.
  if (f.state() == FiberState::Blocked) {
    f.blocked_ticks_ += now_ - f.block_start_;
    if (bus_.wants(obs::Subsystem::Scheduler))
      bus_.publish({obs::EventKind::SpanEnd, obs::Subsystem::Scheduler,
                    obs::kAutoTime, f.id(), obs::kNoLane, "blocked",
                    "(killed)"});
  } else if (f.state() == FiberState::Sleeping) {
    f.slept_ticks_ += now_ - f.sleep_start_;
    if (bus_.wants(obs::Subsystem::Scheduler))
      bus_.publish({obs::EventKind::SpanEnd, obs::Subsystem::Scheduler,
                    obs::kAutoTime, f.id(), obs::kNoLane, "sleeping",
                    "(killed)"});
  }
  f.waiting_on_ = kNoProcess;
  note_stale_timer(f);
  ++f.wake_gen_;  // any armed timer is now stale
  f.clear_block_reason();
  f.kill_pending_ = true;
  f.set_state(FiberState::Running);
  current_ = f.id();
  // The unwind counts as a dispatch of the victim: events its RAII
  // guards publish while unwinding are stamped with the victim's clock.
  if (causal_ != nullptr) causal_->on_dispatch(f.id());
  // Switch in so the victim unwinds NOW — before any other fiber can
  // observe (and trip over) its stale rendezvous registrations.
  switch_to(f);
  current_ = kNoProcess;
  if (causal_ != nullptr) causal_->on_scheduler_loop();
  if (f.state() == FiberState::Done) {
    if (f.crashed()) finish_crash(f);
    reclaim_stack(f);
  }
  // else: death deferred — the victim re-parked mid-rendezvous (an Ada
  // caller whose call was already taken must wait out the acceptor);
  // the run loop finishes the crash when the fiber reaches Done.
}

void Scheduler::finish_crash(Fiber& f) {
  if (f.crash_notified_) return;
  f.crash_notified_ = true;
  if (bus_.wants(obs::Subsystem::Fault))
    bus_.publish({obs::EventKind::Instant, obs::Subsystem::Fault,
                  obs::kAutoTime, f.id(), obs::kNoLane, "fault.crashed",
                  f.name()});
  // Hooks may add/remove hooks (their own or each other's) while
  // running — e.g. an instance torn down inside one hook deregisters
  // another. Walk a snapshot by stable id and skip any hook that is no
  // longer registered when its turn comes: nothing is skipped by index
  // shifts and nothing runs twice. Hooks registered DURING the walk
  // deliberately don't see this crash (they did not exist when it
  // happened).
  const auto snapshot = crash_hooks_;
  for (const auto& [id, fn] : snapshot) {
    const bool still_registered =
        std::any_of(crash_hooks_.begin(), crash_hooks_.end(),
                    [id = id](const auto& h) { return h.first == id; });
    if (still_registered) fn(f.id());
  }
}

void Scheduler::set_deadline(ProcessId pid, std::uint64_t when) {
  Fiber& f = fiber(pid);
  f.deadline_ = when;
  // Clearing (or replacing) leaves any older heap entry stale; it is
  // discarded when it surfaces, like a stale timer.
  if (when != kNoDeadline)
    deadlines_.push(DeadlineEntry{when, deadline_seq_++, pid, false});
}

void Scheduler::set_step_budget(ProcessId pid, std::uint64_t steps) {
  SCRIPT_ASSERT(steps != kNoDeadline, "set_step_budget: reserved sentinel");
  Fiber& f = fiber(pid);
  f.steps_left_ = steps;
  f.step_limit_ = steps;
}

void Scheduler::clear_step_budget(ProcessId pid) {
  Fiber& f = fiber(pid);
  f.steps_left_ = kNoDeadline;
  f.step_limit_ = 0;
}

void Scheduler::set_tick_budget(ProcessId pid, std::uint64_t when,
                                std::uint64_t limit) {
  Fiber& f = fiber(pid);
  f.tick_budget_due_ = when;
  f.tick_budget_limit_ = limit;
  if (when != kNoDeadline)
    deadlines_.push(DeadlineEntry{when, deadline_seq_++, pid, true});
}

void Scheduler::clear_tick_budget(ProcessId pid) {
  Fiber& f = fiber(pid);
  f.tick_budget_due_ = kNoDeadline;
  f.tick_budget_limit_ = 0;
}

bool Scheduler::deadline_entry_live(const DeadlineEntry& e) const {
  const Fiber& f = fiber(e.pid);
  if (f.state() == FiberState::Done) return false;
  return (e.tick_budget ? f.tick_budget_due_ : f.deadline_) == e.due;
}

std::uint64_t Scheduler::next_deadline_due() {
  // Purge stale tops BEFORE reporting a due time: advancing the clock
  // to a cleared deadline would perturb health polls and virtual_time
  // events, breaking replay identity.
  while (!deadlines_.empty() && !deadline_entry_live(deadlines_.top()))
    deadlines_.pop();
  return deadlines_.empty() ? kNoTrigger : deadlines_.top().due;
}

bool Scheduler::fire_due_deadlines() {
  bool fired_any = false;
  while (!deadlines_.empty()) {
    const DeadlineEntry e = deadlines_.top();
    if (!deadline_entry_live(e)) {
      deadlines_.pop();
      continue;
    }
    if (e.due > now_) break;
    deadlines_.pop();
    Fiber& f = fiber(e.pid);
    if (f.state() == FiberState::Blocked ||
        f.state() == FiberState::Sleeping) {
      const auto kind = e.tick_budget ? Fiber::PendingCancel::TickBudget
                                      : Fiber::PendingCancel::Deadline;
      const std::uint64_t payload =
          e.tick_budget ? f.tick_budget_limit_ : e.due;
      if (e.tick_budget)
        f.tick_budget_due_ = kNoDeadline;
      else
        f.deadline_ = kNoDeadline;  // consumed
      note_cancel_fired(f, kind, payload);
      cancel_now(f, kind, payload);
      fired_any = true;
    }
    // else Ready: a same-instant wake (e.g. a rendezvous commit) beat
    // the deadline — the committed work wins. The fiber's slot stays
    // armed, so its next blocking-primitive entry delivers the
    // cancellation instead (exactly-one-winner, deterministically).
  }
  return fired_any;
}

void Scheduler::cancel_now(Fiber& f, Fiber::PendingCancel kind,
                           std::uint64_t payload) {
  SCRIPT_ASSERT(current_ == kNoProcess,
                "cancel_now must run from the scheduler loop");
  SCRIPT_ASSERT(f.state() == FiberState::Blocked ||
                    f.state() == FiberState::Sleeping,
                "cancel_now on a non-parked fiber");
  // Self-clean any timed-wait registration exactly as a timeout would.
  if (f.timeout_cleanup_) {
    auto cleanup = std::move(f.timeout_cleanup_);
    f.timeout_cleanup_ = nullptr;
    cleanup();
  }
  // Close the open park span and accrue its elapsed part to the wait
  // ledger, so causal attribution agrees on cancel paths (the kill_now
  // discipline with a "(cancelled)" marker).
  if (f.state() == FiberState::Blocked) {
    f.blocked_ticks_ += now_ - f.block_start_;
    if (bus_.wants(obs::Subsystem::Scheduler))
      bus_.publish({obs::EventKind::SpanEnd, obs::Subsystem::Scheduler,
                    obs::kAutoTime, f.id(), obs::kNoLane, "blocked",
                    "(cancelled)"});
  } else {
    f.slept_ticks_ += now_ - f.sleep_start_;
    if (bus_.wants(obs::Subsystem::Scheduler))
      bus_.publish({obs::EventKind::SpanEnd, obs::Subsystem::Scheduler,
                    obs::kAutoTime, f.id(), obs::kNoLane, "sleeping",
                    "(cancelled)"});
  }
  f.waiting_on_ = kNoProcess;
  note_stale_timer(f);
  ++f.wake_gen_;  // any armed timer is now stale
  f.clear_block_reason();
  f.cancel_pending_ = kind;
  f.cancel_payload_ = payload;
  f.set_state(FiberState::Running);
  current_ = f.id();
  if (causal_ != nullptr) causal_->on_dispatch(f.id());
  // Switch in so the victim unwinds (or catches) NOW — before any other
  // fiber can observe its stale rendezvous registrations.
  switch_to(f);
  current_ = kNoProcess;
  if (causal_ != nullptr) causal_->on_scheduler_loop();
  if (f.state() == FiberState::Done) {
    if (f.crashed()) finish_crash(f);
    reclaim_stack(f);
  }
  // else: the fiber caught the cancellation and re-parked (or went
  // Ready); it simply continues.
}

void Scheduler::check_cancel(Fiber& f) {
  if (f.cancel_pending_ != Fiber::PendingCancel::None) throw_cancel(f);
  if (now_ >= f.deadline_) {
    const std::uint64_t due = f.deadline_;
    f.deadline_ = kNoDeadline;  // consumed; heap entry goes stale
    f.cancel_pending_ = Fiber::PendingCancel::Deadline;
    f.cancel_payload_ = due;
    note_cancel_fired(f, Fiber::PendingCancel::Deadline, due);
    throw_cancel(f);
  }
  if (now_ >= f.tick_budget_due_) {
    const std::uint64_t limit = f.tick_budget_limit_;
    f.tick_budget_due_ = kNoDeadline;
    f.cancel_pending_ = Fiber::PendingCancel::TickBudget;
    f.cancel_payload_ = limit;
    note_cancel_fired(f, Fiber::PendingCancel::TickBudget, limit);
    throw_cancel(f);
  }
}

void Scheduler::throw_cancel(Fiber& f) {
  const auto kind = f.cancel_pending_;
  const std::uint64_t payload = f.cancel_payload_;
  f.cancel_pending_ = Fiber::PendingCancel::None;
  f.cancel_payload_ = 0;
  switch (kind) {
    case Fiber::PendingCancel::Deadline:
      throw DeadlineExceeded{f.id(), payload};
    case Fiber::PendingCancel::StepBudget:
      throw BudgetExceeded{BudgetKind::DispatchSteps, f.id(), payload};
    case Fiber::PendingCancel::TickBudget:
      throw BudgetExceeded{BudgetKind::VirtualTicks, f.id(), payload};
    case Fiber::PendingCancel::None:
      break;
  }
  SCRIPT_PANIC("throw_cancel without a pending cancel");
}

void Scheduler::note_cancel_fired(const Fiber& f, Fiber::PendingCancel kind,
                                  std::uint64_t payload) {
  const bool is_deadline = kind == Fiber::PendingCancel::Deadline;
  if (is_deadline)
    ++deadline_cancels_;
  else
    ++budget_cancels_;
  if (!bus_.wants(obs::Subsystem::Overload)) return;
  bus_.publish(
      {obs::EventKind::Instant, obs::Subsystem::Overload, obs::kAutoTime,
       f.id(), obs::kNoLane,
       is_deadline ? "overload.deadline" : "overload.budget",
       is_deadline ? f.name()
                   : std::string(budget_kind_name(
                         kind == Fiber::PendingCancel::StepBudget
                             ? BudgetKind::DispatchSteps
                             : BudgetKind::VirtualTicks)),
       static_cast<double>(payload)});
}

ProcessId Scheduler::pick_next() {
  SCRIPT_ASSERT(!ready_.empty(), "pick_next on empty ready queue");
  ProcessId pid = kNoProcess;
  switch (opts_.policy) {
    case SchedulePolicy::Fifo:
      // Exact arrival order — golden traces pin this.
      pid = ready_.pop_front();
      break;
    case SchedulePolicy::Random:
      pid = ready_.pop_at(rng_.pick_index(ready_.size()));
      break;
    case SchedulePolicy::Scripted: {
      SCRIPT_ASSERT(opts_.chooser != nullptr,
                    "Scripted policy requires a chooser");
      const std::size_t i = opts_.chooser(ready_.size());
      SCRIPT_ASSERT(i < ready_.size(), "chooser index out of range");
      pid = ready_.pop_at(i);
      break;
    }
  }
  fiber(pid).in_ready_ = false;
  return pid;
}

bool Scheduler::advance_clock() {
  bool woke_any = false;
  while (!woke_any) {
    // Lazily drop stale entries at the heap top so an already-woken
    // (or cancelled) fiber's abandoned timer can't drag the clock —
    // and the trace's virtual_time — past the end of real work.
    while (!timers_.empty() &&
           timers_.top().gen != fiber(timers_.top().pid).wake_gen_) {
      SCRIPT_ASSERT(stale_timers_ > 0, "stale-timer count out of sync");
      --stale_timers_;
      timers_.pop();
    }
    const std::uint64_t timer_due =
        timers_.empty() ? kNoTrigger : timers_.top().due;
    const std::uint64_t deadline_due =
        deadlines_.empty() ? kNoTrigger : next_deadline_due();
    const std::uint64_t fault_due =
        fault_plan_ != nullptr ? fault_plan_->next_time_trigger() : kNoTrigger;
    const std::uint64_t due =
        std::min(std::min(timer_due, deadline_due), fault_due);
    if (due == kNoTrigger) break;
    const std::uint64_t before = now_;
    if (due > before) now_ = due;
    if (now_ != before && bus_.wants(obs::Subsystem::Scheduler))
      bus_.publish({obs::EventKind::Counter, obs::Subsystem::Scheduler,
                    now_, obs::kNoPid, obs::kNoLane, "virtual_time", "",
                    static_cast<double>(now_)});
    if (now_ != before && health_ != nullptr) health_->poll(now_);
    // Safepoint: virtual-time progress is when a paced (throttled)
    // workload has something new to show a live dashboard.
    if (now_ != before) service_debug();
    while (!timers_.empty() && timers_.top().due <= now_) {
      const Timer t = timers_.top();
      timers_.pop();
      Fiber& f = fiber(t.pid);
      if (t.gen != f.wake_gen_) {  // stale: fiber woke another way
        SCRIPT_ASSERT(stale_timers_ > 0, "stale-timer count out of sync");
        --stale_timers_;
        continue;
      }
      f.timer_armed_ = false;  // consuming the live timer, not stale
      ++f.wake_gen_;
      const bool was_sleeping = f.state() == FiberState::Sleeping;
      if (was_sleeping) {
        f.set_state(FiberState::Ready);
        f.slept_ticks_ += now_ - f.sleep_start_;
      } else {
        SCRIPT_ASSERT(f.state() == FiberState::Blocked,
                      "live timer fired for non-parked fiber");
        f.set_state(FiberState::Ready);
        f.clear_block_reason();
        f.blocked_ticks_ += now_ - f.block_start_;
        f.waiting_on_ = kNoProcess;
        f.timed_out_ = true;
        // Self-clean the fiber's wait-list registration NOW, before any
        // other fiber can run and hand work to a waiter that is no
        // longer waiting (the old footgun every call site worked
        // around by hand).
        if (f.timeout_cleanup_) {
          auto cleanup = std::move(f.timeout_cleanup_);
          f.timeout_cleanup_ = nullptr;
          cleanup();
        }
      }
      ready_push(f);
      woke_any = true;
      if (bus_.wants(obs::Subsystem::Scheduler))
        bus_.publish({obs::EventKind::SpanEnd, obs::Subsystem::Scheduler,
                      obs::kAutoTime, t.pid, obs::kNoLane,
                      was_sleeping ? "sleeping" : "blocked",
                      was_sleeping ? "" : "timeout"});
    }
    // Same-instant ordering: timers fired above, deadlines next, faults
    // last — "timeout beats cancel beats crash" (satellite regressions
    // pin both halves).
    if (!deadlines_.empty() && fire_due_deadlines()) woke_any = true;
    if (fault_plan_ != nullptr && fire_due_faults()) woke_any = true;
  }
  if (woke_any || !timers_.empty()) return true;
  // Unfired deadlines and time-triggered faults keep the clock alive on
  // their own.
  if (next_deadline_due() != kNoTrigger) return true;
  return fault_plan_ != nullptr &&
         fault_plan_->next_time_trigger() != kNoTrigger;
}

}  // namespace script::runtime
