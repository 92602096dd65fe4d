#include "script/instance.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "obs/health.hpp"
#include "obs/inspector.hpp"
#include "obs/json.hpp"
#include "obs/timeline.hpp"
#include "support/panic.hpp"

namespace script::core {

using detail::kCompleted;
using detail::kFailed;
using detail::kOut;
using detail::MatchState;
using detail::RequestView;

namespace {
constexpr std::uint8_t kFinished = kCompleted | kFailed;
constexpr std::uint8_t kTerminated = kCompleted | kFailed | kOut;
}  // namespace

ScriptInstance::ScriptInstance(csp::Net& net, ScriptSpec spec,
                               std::string instance_name)
    : net_(&net),
      sched_(&net.scheduler()),
      spec_(std::move(spec)),
      name_(std::move(instance_name)) {
  // A crashed enrollee's role fails. The hook runs after the fiber has
  // fully unwound (and after the Net's own hook has failed its parked
  // rendezvous), so the instance sees consistent state.
  crash_hook_id_ = scheduler().add_crash_hook(
      [this](ProcessId pid) { on_process_crashed(pid); });
  report_section_id_ =
      scheduler().add_report_section([this] { return report(); });
}

ScriptInstance::ScriptInstance(csp::Net& net, ScriptSpec spec)
    : ScriptInstance(net, std::move(spec), "") {
  name_ = spec_.name();
}

ScriptInstance::~ScriptInstance() {
  if (health_ != nullptr && obs_lane_ != obs::kNoLane)
    health_->unwatch_script(obs_lane_);
  scheduler().remove_report_section(report_section_id_);
  scheduler().remove_crash_hook(crash_hook_id_);
}

std::string ScriptInstance::report() const {
  std::string breaker_line;
  if (breaker_ != BreakerState::Closed) {
    // Why admission is closed — the deadlock/health report's answer to
    // "my enrollments keep coming back shed".
    breaker_line = "script " + name_ + " admission breaker " +
                   (breaker_ == BreakerState::Open
                        ? "OPEN (probes at t=" +
                              std::to_string(breaker_open_until_) + ")"
                        : "HALF-OPEN (" +
                              std::to_string(breaker_probes_left_) +
                              " probe(s) left)") +
                   ", " + std::to_string(shed_count_) + " shed so far";
  }
  if (active_ == nullptr || active_->done) return breaker_line;
  const Performance& p = *active_;
  if (p.awaiting_takeover.empty() && !p.aborted) return breaker_line;
  std::string out = breaker_line.empty() ? "" : breaker_line + "\n";
  out += "script " + name_ + " perf#" + std::to_string(p.number);
  if (p.aborted) out += " (aborted, winding down)";
  for (const auto& [r, st] : p.awaiting_takeover)
    out += "\n  awaiting takeover of " + r.str() + " (was " +
           sched_->name_of(st.old_pid) + ", deadline t=" +
           std::to_string(st.deadline) + ")";
  out += "\n  queued requests: " + std::to_string(queue_size_);
  return out;
}

std::string ScriptInstance::snapshot_json() const {
  obs::json::Writer w;
  w.object();
  w.key("script").value(name_);
  w.key("completed").value(completed_perfs_);
  w.key("aborted").value(aborted_perfs_);
  w.key("queue_length").value(static_cast<std::uint64_t>(queue_size_));
  // Overload state appears only once the admission controller has acted
  // (keeps pinned snapshots of unconfigured scripts byte-stable).
  if (shed_count_ > 0) w.key("sheds").value(shed_count_);
  if (breaker_trips_ > 0 || breaker_ != BreakerState::Closed) {
    w.key("breaker").object();
    w.key("state").value(breaker_ == BreakerState::Open       ? "open"
                         : breaker_ == BreakerState::HalfOpen ? "half_open"
                                                              : "closed");
    if (breaker_ == BreakerState::Open)
      w.key("open_until").value(breaker_open_until_);
    if (breaker_ == BreakerState::HalfOpen)
      w.key("probes_left")
          .value(static_cast<std::uint64_t>(breaker_probes_left_));
    w.key("trips").value(breaker_trips_);
    w.end();
  }
  w.key("waiting").array();
  if (!queued_by_role_.empty()) {
    for (const std::size_t d : spec_.decls_by_name()) {
      if (queued_by_role_[d] == 0) continue;
      w.object();
      w.key("role").value(spec_.roles()[d].name);
      w.key("queued").value(static_cast<std::uint64_t>(queued_by_role_[d]));
      w.end();
    }
  }
  w.end();
  w.key("performance");
  if (active_ == nullptr || active_->done) {
    w.null();
  } else {
    const Performance& p = *active_;
    w.object();
    w.key("number").value(p.number);
    if (spec_.budget().any()) w.key("started_at").value(p.started_at);
    // Slots are visited in RoleId order, the order the snapshot has
    // always listed roles in.
    w.key("roles").array();
    p.state.for_each_slot([&](std::size_t s) {
      const detail::RoleSlot& slot = p.state.slot(s);
      if (slot.pid == kNoProcess) return;
      const RoleId r = p.state.role_at(s);
      w.object();
      w.key("role").value(r.str());
      w.key("pid").value(static_cast<std::uint64_t>(slot.pid));
      w.key("process").value(sched_->name_of(slot.pid));
      w.key("done").value((slot.flags & kCompleted) != 0);
      const auto inc = p.incarnations.find(r);
      if (inc != p.incarnations.end())
        w.key("incarnation").value(inc->second);
      w.end();
    });
    w.end();
    const auto flagged = [&](const char* key, std::uint8_t flag) {
      w.key(key).array();
      p.state.for_each_slot([&](std::size_t s) {
        if (p.state.slot(s).flags & flag) w.value(p.state.role_at(s).str());
      });
      w.end();
    };
    flagged("out", kOut);
    flagged("failed", kFailed);
    if (p.aborted) w.key("aborted").value(true);
    w.key("awaiting_takeover").array();
    for (const auto& [r, st] : p.awaiting_takeover) {
      w.object();
      w.key("role").value(r.str());
      w.key("old_pid").value(static_cast<std::uint64_t>(st.old_pid));
      w.key("deadline").value(st.deadline);
      w.end();
    }
    w.end();
    w.end();
  }
  w.end();
  return w.str();
}

std::size_t ScriptInstance::attach_inspector(obs::Inspector& inspector) {
  return inspector.attach("script", [this] { return snapshot_json(); });
}

void ScriptInstance::enable_health(obs::HealthMonitor& monitor) {
  if (health_ != nullptr) return;
  health_ = &monitor;
  monitor.watch_script(obs_lane(), name_, spec_.slo(),
                       [this] { return queue_size_; });
}

void ScriptInstance::enqueue(Request& req) {
  req.prev = queue_tail_;
  req.next = nullptr;
  (queue_tail_ != nullptr ? queue_tail_->next : queue_head_) = &req;
  queue_tail_ = &req;
  ++queue_size_;
  req.queued = true;
  if (queued_by_role_.empty()) queued_by_role_.assign(spec_.roles().size(), 0);
  ++queued_by_role_[req.decl];
}

void ScriptInstance::dequeue(Request& req) {
  if (!req.queued) return;
  (req.prev != nullptr ? req.prev->next : queue_head_) = req.next;
  (req.next != nullptr ? req.next->prev : queue_tail_) = req.prev;
  req.prev = req.next = nullptr;
  --queue_size_;
  req.queued = false;
  SCRIPT_ASSERT(queued_by_role_[req.decl] > 0,
                "waiter index out of sync for role " + req.requested.name);
  --queued_by_role_[req.decl];
}

bool ScriptInstance::queued_covers_critical() const {
  for (const auto& reqs : spec_.critical_reqs()) {
    bool ok = true;
    for (const CriticalReq& r : reqs) {
      if (queued_by_role_[r.decl] < r.needed) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

bool ScriptInstance::admission_possible() const {
  if (queue_size_ == 0) return false;
  for (std::size_t d = 0; d < queued_by_role_.size(); ++d) {
    if (queued_by_role_[d] == 0) continue;
    const RoleDecl& decl = spec_.roles()[d];
    if (decl.open_ended) return true;  // open families always have room
    // Out roles consume capacity just like bound ones: an admission
    // into them is excluded.
    const std::size_t first = spec_.first_slot(d);
    for (std::size_t s = first; s < first + decl.count; ++s) {
      const detail::RoleSlot& slot = active_->state.slot(s);
      if (slot.pid == kNoProcess && (slot.flags & kOut) == 0) return true;
    }
  }
  return false;
}

ScriptInstance& ScriptInstance::on_role(const std::string& role_name,
                                        RoleBody body) {
  const std::size_t d = spec_.decl_index(role_name);
  SCRIPT_ASSERT(d != kNoSlot, "on_role for unknown role " + role_name);
  if (bodies_.empty()) bodies_.resize(spec_.roles().size());
  bodies_[d] = std::move(body);
  return *this;
}

std::optional<EnrollResult> ScriptInstance::open_request(
    Request& req, const RoleId& role, const PartnerSpec& partners,
    const char* event) {
  req.decl = spec_.decl_index(role.name);
  SCRIPT_ASSERT(req.decl != kNoSlot && spec_.valid(role),
                "enrollment names invalid role " + role.str() + " in " +
                    name_);
  SCRIPT_ASSERT(req.decl < bodies_.size() && bodies_[req.decl],
                "role " + role.name + " has no body attached");
  req.pid = scheduler().current();
  req.requested = role;
  req.partners = &partners;
  enqueue(req);
  publish(obs::EventKind::Instant, req.pid, event, &role);
  emit(ScriptEvent::Kind::EnrollAttempt, req.pid, role, 0);
  auto refused = shed_check(role, req.pid);
  if (refused) dequeue(req);
  return refused;
}

EnrollResult ScriptInstance::enroll(const RoleId& role,
                                    const PartnerSpec& partners,
                                    Params params) {
  runtime::Scheduler& sched = scheduler();
  Request req(*this);
  if (auto refused = open_request(req, role, partners, "enroll.attempt"))
    return *refused;

  try_advance();
  try {
    while (!req.admitted && !req.shed)
      sched.block({"enrolling in ", name_, " as ", role.str()});
  } catch (...) {
    // Crashed while queued: withdraw so the matcher never binds a dead
    // process. (A crash after admission is the crash hook's business.)
    dequeue(req);
    throw;
  }
  if (req.shed)  // evicted by a later arrival under ShedOldest
    return shed_result(role, req.pid, spec_.overload().shed_retry_after);

  return run_admitted(req, params);
}

std::optional<EnrollResult> ScriptInstance::try_enroll(
    const RoleId& role, const PartnerSpec& partners, Params params) {
  Request req(*this);
  // A shed is counted and published; the guard just fails.
  if (open_request(req, role, partners, "enroll.attempt.guarded"))
    return std::nullopt;

  try_advance();
  if (!req.admitted) {
    dequeue(req);
    publish(obs::EventKind::Instant, req.pid, "enroll.fail.guarded", &role);
    return std::nullopt;
  }
  return run_admitted(req, params);
}

std::optional<EnrollResult> ScriptInstance::enroll_for(
    const RoleId& role, std::uint64_t ticks, const PartnerSpec& partners,
    Params params) {
  runtime::Scheduler& sched = scheduler();
  Request req(*this);
  if (auto refused = open_request(req, role, partners, "enroll.attempt.timed"))
    return *refused;

  try_advance();
  const std::uint64_t deadline = sched.now() + ticks;
  // The request self-cleans when the timeout fires: the scheduler runs
  // the hook at the firing instant, before any other fiber can admit a
  // request that is no longer waiting.
  const auto withdraw = [this, &req] { dequeue(req); };
  while (!req.admitted && !req.shed) {
    const std::uint64_t now = sched.now();
    const bool timed_out =
        now >= deadline ||
        sched.block_with_timeout(
            {"timed enrollment in ", name_, " as ", role.str()},
            deadline - now, withdraw);
    if (timed_out && !req.admitted && !req.shed) {
      withdraw();  // covers the already-past-deadline fast path
      publish(obs::EventKind::Instant, req.pid, "enroll.fail.timed", &role);
      return std::nullopt;
    }
  }
  if (req.shed)  // evicted by a later arrival under ShedOldest
    return shed_result(role, req.pid, spec_.overload().shed_retry_after);
  return run_admitted(req, params);
}

EnrollResult ScriptInstance::enroll_with_retry(const RoleId& role,
                                               const PartnerSpec& partners,
                                               Params params,
                                               RetryOptions retry) {
  SCRIPT_ASSERT(retry.max_attempts > 0, "enroll_with_retry needs attempts");
  std::uint64_t backoff = retry.backoff;
  for (std::size_t attempt = 1;; ++attempt) {
    Params copy = params;  // each attempt gets pristine parameters
    EnrollResult r = enroll(role, partners, std::move(copy));
    if (!r.aborted && !r.shed) return r;
    const std::uint64_t wait = std::max<std::uint64_t>(r.retry_after, backoff);
    if (attempt >= retry.max_attempts) {
      // Gave up on a transient failure: keep the final attempt's hint
      // (floored to the backoff this loop would have slept) so callers
      // can tell "gave up, retry later" from "infeasible" via
      // EnrollResult::retryable().
      r.retry_after = wait;
      return r;
    }
    scheduler().sleep_for(wait);
    backoff = std::min<std::uint64_t>(
        retry.max_backoff,
        static_cast<std::uint64_t>(static_cast<double>(backoff) *
                                   retry.factor));
  }
}

std::optional<EnrollResult> ScriptInstance::shed_check(const RoleId& role,
                                                       ProcessId pid) {
  const OverloadConfig& cfg = spec_.overload();
  if (cfg.breaker_enabled()) {
    const std::uint64_t now = sched_->now();
    if (breaker_ == BreakerState::Open && now >= breaker_open_until_) {
      // Cooldown over: probe. Deterministic — the transition happens at
      // the first arrival past breaker_open_until_, a pure function of
      // the virtual clock and arrival order.
      breaker_ = BreakerState::HalfOpen;
      breaker_probes_left_ = cfg.half_open_probes;
      publish_overload("overload.breaker.half_open", pid, name_,
                       static_cast<double>(breaker_probes_left_));
    }
    switch (breaker_) {
      case BreakerState::Open:
        return shed_result(role, pid, breaker_open_until_ - now);
      case BreakerState::HalfOpen:
        if (breaker_probes_left_ == 0) {
          // Every probe is in flight and none has completed a
          // performance yet: still no proven progress. Re-open.
          trip_breaker("half-open probes exhausted");
          return shed_result(role, pid, cfg.breaker_cooldown);
        }
        --breaker_probes_left_;
        break;
      case BreakerState::Closed:
        // The arrival is already queued, so "depth reached" reads as
        // strictly-greater. The health watchdogs latching (queue depth
        // over SLO, a supervised child near its restart budget) trips
        // the breaker too — admission follows the script's health.
        if (queue_size_ > cfg.breaker_queue_depth ||
            (health_ != nullptr && (health_->queue_latched(obs_lane_) ||
                                    health_->restart_pressure()))) {
          trip_breaker(queue_size_ > cfg.breaker_queue_depth
                           ? "queue depth"
                           : "health watchdog latched");
          return shed_result(role, pid, cfg.breaker_cooldown);
        }
        break;
    }
  }
  const std::size_t cap = spec_.budget().max_queue_depth;
  if (cap != 0 && queue_size_ > cap) {
    switch (cfg.overflow) {
      case OverflowPolicy::Block:
        break;  // classic unbounded behavior: queue and wait
      case OverflowPolicy::ShedNewest:
        return shed_result(role, pid, cfg.shed_retry_after);
      case OverflowPolicy::ShedOldest:
        shed_oldest();  // evict the head; this arrival keeps its spot
        break;
    }
  }
  return std::nullopt;
}

EnrollResult ScriptInstance::shed_result(const RoleId& role, ProcessId pid,
                                         std::uint64_t retry_after) {
  ++shed_count_;
  publish_overload("overload.shed", pid, role.str(),
                   static_cast<double>(retry_after));
  emit(ScriptEvent::Kind::EnrollShed, pid, role, 0);
  EnrollResult r;
  r.played = role;
  r.shed = true;
  r.retry_after = retry_after;
  return r;
}

void ScriptInstance::shed_oldest() {
  SCRIPT_ASSERT(queue_head_ != nullptr, "shed_oldest on an empty queue");
  Request* victim = queue_head_;
  dequeue(*victim);
  victim->shed = true;
  // The victim's own wait loop exits on `shed` and reports the refusal
  // (so the shed event carries its pid at the eviction instant).
  if (sched_->state_of(victim->pid) == runtime::FiberState::Blocked)
    sched_->unblock(victim->pid);
}

void ScriptInstance::trip_breaker(const char* why) {
  breaker_ = BreakerState::Open;
  breaker_open_until_ = sched_->now() + spec_.overload().breaker_cooldown;
  breaker_probes_left_ = 0;
  ++breaker_trips_;
  publish_overload("overload.breaker.open", kNoProcess, why,
                   static_cast<double>(breaker_open_until_));
}

void ScriptInstance::breaker_note_progress() {
  if (breaker_ == BreakerState::Closed) return;
  breaker_ = BreakerState::Closed;
  breaker_probes_left_ = 0;
  publish_overload("overload.breaker.close", kNoProcess, name_);
}

EnrollResult ScriptInstance::run_admitted(Request& req, Params& params) {
  runtime::Scheduler& sched = scheduler();
  // Admitted: this fiber now IS the role (logical continuation).
  SCRIPT_ASSERT(req.perf != nullptr, "admitted without a performance");
  Performance& perf = *req.perf;
  publish(obs::EventKind::SpanBegin, req.pid, "role", &req.assigned, "",
          static_cast<double>(perf.number));
  emit(ScriptEvent::Kind::RoleBegan, req.pid, req.assigned, perf.number);
  Params* effective = &params;
  if (spec_.failure_policy() == FailurePolicy::Replace) {
    // Keep the role's parameters off the enroller's stack so a crash
    // (which unwinds that stack) cannot dangle them; a replacement then
    // inherits the previous incarnation's values (writers dropped by
    // begin_takeover, so nothing writes into the dead frame).
    if (req.resumed) params.adopt_missing(perf.params_store[req.assigned]);
    perf.params_store[req.assigned] = std::move(params);
    effective = &perf.params_store[req.assigned];
  }
  RoleContext ctx(this, &perf, req.assigned, effective, req.resumed);
  bool unwound = false;
  {
    // Arm the spec's execution budgets for the span of the role body
    // (the delayed-termination hold is not billed). The guard runs on
    // every exit — return, crash, abort, cancellation — and also clears
    // a role-installed deadline so it cannot leak onto the process's
    // next activity.
    struct BudgetGuard {
      runtime::Scheduler& sched;
      ProcessId pid;
      RoleContext& ctx;
      ~BudgetGuard() {
        sched.clear_step_budget(pid);
        sched.clear_tick_budget(pid);
        if (ctx.deadline_installed_) sched.clear_deadline(pid);
      }
    } guard{sched, req.pid, ctx};
    const ExecutionBudget& budget = spec_.budget();
    if (budget.max_dispatch_steps != 0)
      sched.set_step_budget(req.pid, budget.max_dispatch_steps);
    if (budget.max_virtual_ticks != 0)
      sched.set_tick_budget(req.pid, sched.now() + budget.max_virtual_ticks,
                            budget.max_virtual_ticks);
    try {
      bodies_[req.decl](ctx);
    } catch (const PerformanceAborted&) {
      unwound = true;  // a partner crashed; this role survives, undone
    } catch (...) {
      // This process is dying (FiberKilled, an uncaught cancellation)
      // or the body itself threw: the role will never finish. The
      // scheduler's crash hook does the failure bookkeeping after the
      // fiber has fully unwound.
      publish(obs::EventKind::SpanEnd, req.pid, "role", &req.assigned,
              " (crashed)", static_cast<double>(perf.number));
      throw;
    }
  }
  if (unwound) {
    publish(obs::EventKind::SpanEnd, req.pid, "role", &req.assigned,
            " (aborted)", static_cast<double>(perf.number));
    mark_role_unwound(perf, req.assigned);
  } else {
    publish(obs::EventKind::SpanEnd, req.pid, "role", &req.assigned, "",
            static_cast<double>(perf.number));
    emit(ScriptEvent::Kind::RoleFinished, req.pid, req.assigned,
         perf.number);
    role_done(req.slot);
  }

  if (spec_.termination() == Termination::Delayed) {
    while (!perf.done) {
      end_waiters_.push_back(req.pid);
      sched.block({"delayed termination of ", name_});
    }
  }
  publish(obs::EventKind::Instant, req.pid, "release", nullptr, "",
          static_cast<double>(perf.number));
  emit(ScriptEvent::Kind::Released, req.pid, req.assigned, perf.number);
  EnrollResult result{perf.number, req.assigned, unwound || perf.aborted};
  result.resumed = req.resumed;
  if (result.aborted) result.retry_after = 1;  // next generation can form
  return result;
}

ScriptInstance::Performance& ScriptInstance::begin_performance() {
  Performance* p = nullptr;
  if (free_.empty()) {
    pool_.push_back(std::make_unique<Performance>());
    p = pool_.back().get();
  } else {
    p = free_.back();
    free_.pop_back();
  }
  p->number = next_perf_number_++;
  p->started_at = sched_->now();
  p->done = false;
  p->critical_hit = false;
  p->aborted = false;
  p->state.reset(spec_);
  p->awaiting_takeover.clear();
  p->params_store.clear();
  p->incarnations.clear();
  p->holders = 1;  // the instance's own, until finish_performance
  active_ = p;
  return *p;
}

void ScriptInstance::release(Performance& perf) {
  SCRIPT_ASSERT(perf.holders > 0, "performance released too often");
  if (--perf.holders > 0) return;
  SCRIPT_ASSERT(perf.done, "live performance lost its last holder");
  free_.push_back(&perf);
}

void ScriptInstance::admit(Request& r, Performance& perf, std::size_t slot) {
  r.admitted = true;
  r.slot = slot;
  r.assigned = perf.state.role_at(slot);
  r.perf = &perf;
  ++perf.holders;
}

void ScriptInstance::mark_unbound_out(Performance& perf) {
  for (std::size_t s = 0; s < spec_.slot_count(); ++s)
    if (perf.state.slot(s).pid == kNoProcess) perf.state.slot(s).flags |= kOut;
}

void ScriptInstance::try_advance() {
  if (active_ != nullptr && !active_->done) {
    // No admissions into a performance that is winding down after an
    // abort; new requests queue for the next generation.
    if (!active_->aborted) {
      takeover_pass();  // no-op unless roles await replacement
      if (spec_.initiation() == Initiation::Immediate) {
        admission_pass();
        after_state_change();
      }
    }
    return;
  }

  if (queue_size_ == 0) return;

  if (spec_.initiation() == Initiation::Immediate) {
    const Performance& p = begin_performance();
    publish(obs::EventKind::SpanBegin, kNoProcess, "performance", nullptr, "",
            static_cast<double>(p.number));
    emit(ScriptEvent::Kind::PerformanceBegan, kNoProcess, RoleId(), p.number);
    admission_pass();
    after_state_change();
    return;
  }

  // Delayed initiation: joint formation via the backtracking matcher.
  // The waiter index gates the attempt first — while a cast is still
  // assembling, no critical set's per-role counts are covered and the
  // matcher (and the view materialization) is skipped outright.
  // (The matcher prefers earlier positions, so shuffling the view order
  // realizes the paper's nondeterministic choice among contenders.)
  const bool nondet = spec_.contention_is_nondeterministic();
  if (!nondet && !queued_covers_critical()) {
    ++matcher_index_hits_;
    return;
  }
  order_.clear();
  for (Request* r = queue_head_; r != nullptr; r = r->next)
    order_.push_back(r);
  if (nondet) {
    // Shuffle BEFORE gating so the seeded rng stream is identical
    // whether or not the gate fires (replay stability).
    scheduler().rng().shuffle(order_);
    if (!queued_covers_critical()) {
      ++matcher_index_hits_;
      return;
    }
  }
  ++matcher_runs_;
  views_.resize(order_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    views_[i].pid = order_[i]->pid;
    views_[i].requested = order_[i]->requested;
    views_[i].partners = order_[i]->partners;
  }
  if (!detail::form_delayed(spec_, views_, form_)) return;

  Performance& p = begin_performance();
  std::swap(p.state, form_.state);  // both keep their capacity
  // Delayed initiation freezes the cast: unfilled roles are out.
  mark_unbound_out(p);
  p.critical_hit = true;
  publish(obs::EventKind::SpanBegin, kNoProcess, "performance", nullptr, "",
          static_cast<double>(p.number));
  emit(ScriptEvent::Kind::PerformanceBegan, kNoProcess, RoleId(), p.number);

  // Mark the admitted requests (form_.admitted indexes `views_`, which
  // parallels `order_`) and release their fibers.
  admitted_.clear();
  for (const auto& [qi, slot] : form_.admitted) {
    Request* r = order_[qi];
    admit(*r, p, slot);
    admitted_.push_back(r);
    publish(obs::EventKind::Instant, r->pid, "enroll.ok", &r->assigned, "",
            static_cast<double>(p.number));
    emit(ScriptEvent::Kind::Enrolled, r->pid, r->assigned, p.number);
  }
  for (Request* r : admitted_) {
    dequeue(*r);
    if (scheduler().state_of(r->pid) == runtime::FiberState::Blocked)
      scheduler().unblock(r->pid);
  }
  after_state_change();
}

void ScriptInstance::admission_pass() {
  SCRIPT_ASSERT(active_ != nullptr, "admission pass without performance");
  // Capacity gate from the waiter index: when every queued role name is
  // already full (bound + out) in the active performance, the pass
  // cannot admit anyone — skip the per-request matcher work.
  const bool nondet = spec_.contention_is_nondeterministic();
  if (!nondet && !admission_possible()) {
    ++matcher_index_hits_;
    return;
  }
  // Arrival order by default; a single pass suffices because admission
  // is monotone (bindings only accumulate, constraints only tighten).
  // Under nondeterministic contention the pass order is shuffled
  // (seeded), so competing requests for one role win randomly — the
  // paper's §II choice rule.
  order_.clear();
  for (Request* r = queue_head_; r != nullptr; r = r->next)
    order_.push_back(r);
  if (nondet) {
    // Shuffle before gating: keeps the rng stream identical either way.
    scheduler().rng().shuffle(order_);
    if (!admission_possible()) {
      ++matcher_index_hits_;
      return;
    }
  }
  ++matcher_runs_;
  Performance& p = *active_;
  admitted_.clear();
  views_.resize(1);  // one reused view: its RoleId keeps its capacity
  RequestView& view = views_[0];
  for (Request* r : order_) {
    view.pid = r->pid;
    view.requested = r->requested;
    view.partners = r->partners;
    const std::size_t slot = detail::try_admit(spec_, p.state, view);
    if (slot == kNoSlot) continue;
    admit(*r, p, slot);
    admitted_.push_back(r);
    publish(obs::EventKind::Instant, r->pid, "enroll.ok", &r->assigned, "",
            static_cast<double>(p.number));
    emit(ScriptEvent::Kind::Enrolled, r->pid, r->assigned, p.number);
  }
  for (Request* r : admitted_) {
    dequeue(*r);
    if (scheduler().state_of(r->pid) == runtime::FiberState::Blocked)
      scheduler().unblock(r->pid);
  }
  if (!admitted_.empty()) notify_state_change();
}

void ScriptInstance::after_state_change() {
  if (active_ == nullptr || active_->done) return;

  if (!active_->critical_hit &&
      detail::critical_satisfied(spec_, active_->state)) {
    active_->critical_hit = true;
    // "Once the critical set is filled, all unfilled roles have
    // r.terminated set to true."
    mark_unbound_out(*active_);
    notify_state_change();
  }

  if (performance_can_end()) finish_performance();
}

bool ScriptInstance::performance_can_end() const {
  const Performance& p = *active_;
  if (p.state.binding_count() == 0) return false;
  if (!p.critical_hit) return false;  // more roles must still arrive
  for (std::size_t s = 0; s < p.state.slot_count(); ++s) {
    const detail::RoleSlot& slot = p.state.slot(s);
    if (slot.pid != kNoProcess && (slot.flags & kFinished) == 0) return false;
  }
  // All bound roles completed (or failed — a crashed role can never
  // finish) and all fixed unbound roles are out (implied by
  // critical_hit); open families may have stragglers, who will go to
  // the next performance.
  return true;
}

void ScriptInstance::finish_performance() {
  Performance& p = *active_;
  p.done = true;
  // Stored parameters outlive their enrollers' frames; make sure no
  // writer can fire into a popped stack after the performance ends.
  for (auto& [r, stored] : p.params_store) stored.drop_writers();
  if (!p.aborted) {
    ++completed_perfs_;
    breaker_note_progress();  // a completed performance is real progress
  }
  publish(obs::EventKind::SpanEnd, kNoProcess, "performance", nullptr,
          p.aborted ? "(aborted)" : "", static_cast<double>(p.number));
  emit(ScriptEvent::Kind::PerformanceEnded, kNoProcess, RoleId(), p.number);
  // Free delayed-termination holdees. A holdee that crashed while
  // parked here is Done, not Blocked — skip it.
  wake_scratch_.swap(end_waiters_);
  for (const ProcessId pid : wake_scratch_)
    if (scheduler().state_of(pid) == runtime::FiberState::Blocked)
      scheduler().unblock(pid);
  wake_scratch_.clear();
  notify_state_change();
  // Returning enrollees still hold the record (their Requests); it goes
  // back to the pool when the last of them lets go.
  active_ = nullptr;
  release(p);
  try_advance();
}

void ScriptInstance::role_done(std::size_t slot) {
  SCRIPT_ASSERT(active_ != nullptr &&
                    active_->state.slot(slot).pid != kNoProcess,
                "role_done for an unbound role");
  const ProcessId pid = active_->state.slot(slot).pid;
  active_->state.slot(slot).flags |= kCompleted;
  if (spec_.failure_policy() == FailurePolicy::Replace) {
    // A replacement incarnation may have re-posted an exchange this role
    // already concluded with its predecessor; the done role will never
    // answer, so retire its pid from the performance's namespace.
    net_->retire_peer(pid,
                      name_ + "#" + std::to_string(active_->number) + "/");
  }
  notify_state_change();
  after_state_change();
}

void ScriptInstance::on_process_crashed(ProcessId pid) {
  if (active_ == nullptr || active_->done) return;
  const std::size_t s = active_->find_role(pid);
  if (s == kNoSlot || (active_->state.slot(s).flags & kFinished) != 0) return;
  handle_role_crash(*active_, active_->state.role_at(s), pid);
}

void ScriptInstance::handle_role_crash(Performance& perf, const RoleId& r,
                                       ProcessId pid) {
  const bool takeover = spec_.failure_policy() == FailurePolicy::Replace &&
                        spec_.takeover_allowed(r) && !perf.aborted &&
                        &perf == active_;
  if (!takeover) perf.set(r, kFailed);
  publish(obs::EventKind::Instant, pid, "role.crashed", &r, "",
          static_cast<double>(perf.number));
  emit(ScriptEvent::Kind::RoleCrashed, pid, r, perf.number);
  if (takeover) {
    begin_takeover(perf, r, pid);
    return;
  }
  // A Replace script whose crashed role is not replaceable skips the
  // window and applies the fallback policy directly.
  const FailurePolicy effective =
      spec_.failure_policy() == FailurePolicy::Replace
          ? spec_.takeover_fallback()
          : spec_.failure_policy();
  if (!perf.aborted && effective == FailurePolicy::Abort)
    abort_performance(perf);
  notify_state_change();
  if (&perf == active_) after_state_change();
}

void ScriptInstance::abort_performance(Performance& perf) {
  perf.aborted = true;
  ++aborted_perfs_;
  cancel_takeovers(perf);
  if (!perf.critical_hit) {
    // The cast will never complete: stop waiting for more enrollees.
    perf.critical_hit = true;
    mark_unbound_out(perf);
  }
  publish(obs::EventKind::Instant, kNoProcess, "performance.abort", nullptr,
          "", static_cast<double>(perf.number));
  emit(ScriptEvent::Kind::PerformanceAborted, kNoProcess, RoleId(),
       perf.number);
  // Survivors parked in a rendezvous of THIS performance wake with a
  // failed op and unwind via check_abort(); survivors parked on state
  // changes are woken by the caller's notify_state_change().
  net_->fail_tagged(name_ + "#" + std::to_string(perf.number) + "/");
}

void ScriptInstance::mark_role_unwound(Performance& perf, const RoleId& r) {
  if (perf.done || perf.has(r, kFinished)) return;
  perf.set(r, kFailed);
  notify_state_change();
  if (&perf == active_) after_state_change();
}

// ---- Role takeover (FailurePolicy::Replace) ----

void ScriptInstance::begin_takeover(Performance& perf, const RoleId& r,
                                    ProcessId pid) {
  const std::uint64_t deadline = sched_->now() + spec_.takeover_deadline();
  perf.awaiting_takeover[r] = TakeoverState{pid, deadline, kNoProcess};
  // The crashed incarnation's out-writers point into its unwound stack;
  // the stored values survive for the replacement, the writers must not.
  const auto stored = perf.params_store.find(r);
  if (stored != perf.params_store.end()) stored->second.drop_writers();
  publish(obs::EventKind::Instant, pid, "takeover.begin", &r, "",
          static_cast<double>(perf.number));
  publish_recovery("takeover.begin", pid,
                   name_ + " " + r.str() + " deadline=" +
                       std::to_string(deadline));
  emit(ScriptEvent::Kind::TakeoverBegan, pid, r, perf.number);
  // A deadline watcher keeps virtual time moving even when every
  // survivor is parked on the awaiting role, and bounds the window. It
  // holds the performance until it returns.
  Performance* p = &perf;  // stable: records live in unique_ptrs
  ++perf.holders;
  sched_->spawn(name_ + ".takeover." + r.str(), [this, p, r] {
    struct Hold {
      ScriptInstance* inst;
      Performance* perf;
      ~Hold() { inst->release(*perf); }
    } hold{this, p};
    for (;;) {
      if (p->done) return;
      const auto it = p->awaiting_takeover.find(r);
      if (it == p->awaiting_takeover.end()) return;  // resolved
      const std::uint64_t now = sched_->now();
      if (it->second.deadline <= now) {
        takeover_timeout(*p, r);
        return;
      }
      it->second.watcher = sched_->current();
      (void)sched_->block_with_timeout(
          {"takeover window for ", r.str(), " in ", name_},
          it->second.deadline - now);
    }
  });
  notify_state_change();
  takeover_pass();  // a queued request may already fit the role
}

void ScriptInstance::takeover_pass() {
  if (active_ == nullptr || active_->done || active_->aborted) return;
  Performance& perf = *active_;
  if (perf.awaiting_takeover.empty() || queue_size_ == 0) return;
  std::vector<RoleId> waiting;
  waiting.reserve(perf.awaiting_takeover.size());
  for (const auto& [r, st] : perf.awaiting_takeover) waiting.push_back(r);
  std::vector<Request*> admitted;
  for (const RoleId& r : waiting) {
    if (queued_by_role_[spec_.decl_index(r.name)] == 0) continue;
    // First compatible queued request takes over (FIFO — deterministic).
    for (Request* q = queue_head_; q != nullptr; q = q->next) {
      if (q->admitted) continue;  // claimed by an earlier role this pass
      if (!takeover_compatible(perf, r, *q)) continue;
      complete_takeover(perf, r, *q);
      admitted.push_back(q);
      break;
    }
  }
  for (Request* q : admitted) {
    dequeue(*q);
    if (sched_->state_of(q->pid) == runtime::FiberState::Blocked)
      sched_->unblock(q->pid);
  }
  if (!admitted.empty()) notify_state_change();
}

bool ScriptInstance::takeover_compatible(const Performance& perf,
                                         const RoleId& r,
                                         const Request& req) const {
  if (req.requested.is_any_index()) {
    if (req.requested.name != r.name) return false;
  } else if (req.requested != r) {
    return false;
  }
  // Existing members' accumulated partner constraints on this role.
  if (!perf.state.permits(r, req.pid)) return false;
  // The newcomer's own constraints against what is already bound. (They
  // are checked, not persisted: roles bound after the takeover are not
  // re-restricted by a replacement's WITH clause.)
  if (req.partners != nullptr) {
    for (const auto& [role_id, pids] : req.partners->constraints()) {
      if (role_id == r) continue;
      const ProcessId b = perf.state.bound_to(role_id);
      if (b == kNoProcess) continue;  // unbound: vacuous
      if (std::find(pids.begin(), pids.end(), b) == pids.end()) return false;
    }
  }
  return true;
}

void ScriptInstance::complete_takeover(Performance& perf, const RoleId& r,
                                       Request& req) {
  const auto it = perf.awaiting_takeover.find(r);
  SCRIPT_ASSERT(it != perf.awaiting_takeover.end(),
                "takeover completion for a role not awaiting one");
  const ProcessId old_pid = it->second.old_pid;
  const ProcessId watcher = it->second.watcher;
  perf.awaiting_takeover.erase(it);
  // Rebind IN PLACE: the monotone match-state counters (bound per
  // role, critical fills) describe the role, not the process, and stay
  // valid.
  const std::size_t slot = perf.state.find_slot(r);
  perf.state.rebind(slot, req.pid);
  admit(req, perf, slot);
  req.resumed = true;
  ++takeovers_completed_;
  ++perf.incarnations[r];
  // Survivors parked in a rendezvous addressed at the dead process are
  // repointed at the replacement — their posted ops complete normally.
  net_->rebind_peer(old_pid, req.pid,
                    name_ + "#" + std::to_string(perf.number) + "/");
  sched_->causal_edge(old_pid, req.pid, "takeover");
  publish(obs::EventKind::Instant, req.pid, "takeover.complete", &r, "",
          static_cast<double>(perf.number));
  publish_recovery("takeover.complete", req.pid,
                   name_ + " " + r.str() + " from " +
                       sched_->name_of(old_pid));
  emit(ScriptEvent::Kind::RoleTakenOver, req.pid, r, perf.number);
  if (watcher != kNoProcess &&
      sched_->state_of(watcher) == runtime::FiberState::Blocked)
    sched_->unblock(watcher);
}

void ScriptInstance::takeover_timeout(Performance& perf, const RoleId& r) {
  const auto it = perf.awaiting_takeover.find(r);
  if (it == perf.awaiting_takeover.end() || perf.done) return;
  const ProcessId old_pid = it->second.old_pid;
  perf.awaiting_takeover.erase(it);
  perf.set(r, kFailed);
  ++takeovers_failed_;
  publish(obs::EventKind::Instant, old_pid, "takeover.timeout", &r, "",
          static_cast<double>(perf.number));
  publish_recovery("takeover.timeout", old_pid, name_ + " " + r.str());
  emit(ScriptEvent::Kind::TakeoverFailed, old_pid, r, perf.number);
  if (!perf.aborted && spec_.takeover_fallback() == FailurePolicy::Abort)
    abort_performance(perf);
  notify_state_change();
  if (&perf == active_) after_state_change();
}

void ScriptInstance::cancel_takeovers(Performance& perf) {
  while (!perf.awaiting_takeover.empty()) {
    const auto it = perf.awaiting_takeover.begin();
    const RoleId r = it->first;
    const ProcessId old_pid = it->second.old_pid;
    const ProcessId watcher = it->second.watcher;
    perf.awaiting_takeover.erase(it);
    perf.set(r, kFailed);
    ++takeovers_failed_;
    emit(ScriptEvent::Kind::TakeoverFailed, old_pid, r, perf.number);
    if (watcher != kNoProcess &&
        sched_->state_of(watcher) == runtime::FiberState::Blocked)
      sched_->unblock(watcher);
  }
}

void ScriptInstance::publish_recovery(const char* name, ProcessId pid,
                                      std::string detail, double value) {
  obs::EventBus& bus = scheduler().bus();
  if (!bus.wants(obs::Subsystem::Recovery)) return;
  bus.publish({obs::EventKind::Instant, obs::Subsystem::Recovery,
               obs::kAutoTime, static_cast<obs::Pid>(pid), obs_lane(), name,
               std::move(detail), value});
}

void ScriptInstance::publish_overload(const char* name, ProcessId pid,
                                      std::string detail, double value) {
  obs::EventBus& bus = scheduler().bus();
  if (!bus.wants(obs::Subsystem::Overload)) return;
  bus.publish({obs::EventKind::Instant, obs::Subsystem::Overload,
               obs::kAutoTime, static_cast<obs::Pid>(pid), obs_lane(), name,
               std::move(detail), value});
}

void ScriptInstance::wait_state_change(runtime::BlockReason why) {
  const ProcessId me = scheduler().current();
  state_waiters_.push_back(me);
  try {
    scheduler().block(why);
  } catch (...) {
    // Crashed while parked: deregister so notify never sees a stale pid.
    const auto it =
        std::find(state_waiters_.begin(), state_waiters_.end(), me);
    if (it != state_waiters_.end()) state_waiters_.erase(it);
    throw;
  }
}

void ScriptInstance::notify_state_change() {
  if (state_waiters_.empty()) return;
  wake_scratch_.swap(state_waiters_);  // both keep their capacity
  for (const ProcessId pid : wake_scratch_)
    if (scheduler().state_of(pid) == runtime::FiberState::Blocked)
      scheduler().unblock(pid);
  wake_scratch_.clear();
}

std::int32_t ScriptInstance::obs_lane() {
  if (obs_lane_ == obs::kNoLane) {
    obs_lane_ = scheduler().bus().add_lane(name_);
    // Announce the lane as a timeline series identity, so an armed
    // timeline shows this script (idle or not) from the moment it
    // exists rather than from its first event.
    if (obs::Timeline* tl = scheduler().timeline())
      tl->declare_lane(obs_lane_);
  }
  return obs_lane_;
}

void ScriptInstance::publish(obs::EventKind kind, ProcessId pid,
                             const char* name, const RoleId* role,
                             const char* suffix, double value) {
  obs::EventBus& bus = scheduler().bus();
  if (!bus.wants(obs::Subsystem::Script)) return;
  std::string detail = role != nullptr ? role->str() : std::string();
  detail += suffix;
  bus.publish({kind, obs::Subsystem::Script, obs::kAutoTime,
               static_cast<obs::Pid>(pid), obs_lane(), name,
               std::move(detail), value});
}

void ScriptInstance::emit(ScriptEvent::Kind kind, ProcessId pid,
                          const RoleId& role, std::uint64_t performance) {
  if (observers_.empty()) return;
  const ScriptEvent event{kind, scheduler().now(), pid, role, performance};
  for (const auto& fn : observers_) fn(event);
}

bool ScriptInstance::Performance::has(const RoleId& r,
                                      std::uint8_t flags) const {
  const std::size_t s = state.find_slot(r);
  return s != kNoSlot && (state.slot(s).flags & flags) != 0;
}

void ScriptInstance::Performance::set(const RoleId& r, detail::RoleFlag flag) {
  const std::size_t s = state.find_slot(r);
  SCRIPT_ASSERT(s != kNoSlot, "role " + r.str() + " has no slot");
  state.slot(s).flags |= flag;
}

std::size_t ScriptInstance::Performance::find_role(ProcessId pid) const {
  std::size_t found = kNoSlot;
  state.for_each_slot([&](std::size_t s) {
    if (found == kNoSlot && state.slot(s).pid == pid) found = s;
  });
  return found;
}

// ---- RoleContext ----

std::uint64_t RoleContext::performance() const { return perf_->number; }

bool RoleContext::terminated(const RoleId& r) const {
  return perf_->has(r, kTerminated);
}

bool RoleContext::failed(const RoleId& r) const {
  return perf_->has(r, kFailed);
}

void RoleContext::check_abort() const {
  if (perf_->aborted) throw PerformanceAborted{perf_->number};
}

bool RoleContext::filled(const RoleId& r) const {
  return perf_->state.is_bound(r);
}

std::size_t RoleContext::family_size(const std::string& role_name) const {
  const RoleDecl& d = inst_->spec_.decl(role_name);
  if (!d.open_ended) return d.count;
  return perf_->state.open_size(role_name);
}

void RoleContext::deadline(std::uint64_t ticks) {
  runtime::Scheduler& sched = inst_->scheduler();
  sched.set_deadline(sched.current(), sched.now() + ticks);
  deadline_installed_ = true;
}

std::uint64_t RoleContext::deadline_at() const {
  runtime::Scheduler& sched = inst_->scheduler();
  return sched.deadline_of(sched.current());
}

std::uint64_t RoleContext::remaining_deadline() const {
  runtime::Scheduler& sched = inst_->scheduler();
  const std::uint64_t at = sched.deadline_of(sched.current());
  if (at == runtime::kNoDeadline) return runtime::kNoDeadline;
  const std::uint64_t now = sched.now();
  return at <= now ? 0 : at - now;
}

void RoleContext::clear_deadline() {
  runtime::Scheduler& sched = inst_->scheduler();
  sched.clear_deadline(sched.current());
  deadline_installed_ = false;
}

RoleResult<ProcessId> RoleContext::await_role(const RoleId& r) {
  SCRIPT_ASSERT(inst_->spec_.valid(r) && !r.is_any_index(),
                "communication names invalid role " + r.str());
  for (;;) {
    check_abort();
    // Re-resolved every round: open-family slots may be added meanwhile.
    const std::size_t s = perf_->state.find_slot(r);
    const detail::RoleSlot* slot =
        s == kNoSlot ? nullptr : &perf_->state.slot(s);
    if (slot != nullptr && (slot->flags & kTerminated) != 0)
      return support::make_unexpected(RoleCommError::Unavailable);
    if (!perf_->awaiting_takeover.empty() &&
        perf_->awaiting_takeover.count(r)) {
      // Bound to a dead process until a replacement rebinds it; park
      // rather than hand out the stale pid.
      inst_->wait_state_change({"role ", self_.str(), " awaiting takeover of ",
                                r.str(), " in ", inst_->name_});
      continue;
    }
    if (slot != nullptr && slot->pid != kNoProcess) return slot->pid;
    if (perf_->done)
      return support::make_unexpected(RoleCommError::Unavailable);
    inst_->wait_state_change({"role ", self_.str(), " awaiting partner ",
                              r.str(), " in ", inst_->name_});
  }
}

bool RoleContext::await_takeover(const RoleId& r) {
  for (;;) {
    // "Gone for good" outranks the abort: when the fallback policy voids
    // the performance, the caller still learns the takeover failed and
    // can clean up; the abort surfaces at its next communication.
    if (perf_->has(r, kTerminated)) return false;
    check_abort();
    if (!perf_->awaiting_takeover.count(r)) return true;
    inst_->wait_state_change({"role ", self_.str(), " awaiting takeover of ",
                              r.str(), " in ", inst_->name_});
  }
}

RoleContext::ScopedTag::ScopedTag(std::string_view instance,
                                  std::uint64_t performance,
                                  const RoleId& role, std::string_view tag) {
  char num[24];
  append(instance);
  append("#");
  append({num, static_cast<std::size_t>(
                   std::to_chars(num, num + sizeof num, performance).ptr -
                   num)});
  append("/");
  append(role.name);
  if (role.index == kAnyIndex) {
    append("[*]");
  } else if (role.index != kSingleton) {
    append("[");
    append({num, static_cast<std::size_t>(
                     std::to_chars(num, num + sizeof num, role.index).ptr -
                     num)});
    append("]");
  }
  append("/");
  append(tag);
}

void RoleContext::ScopedTag::append(std::string_view piece) {
  if (piece.empty()) return;  // a default tag has no data() to copy
  if (spilled_.empty() && len_ + piece.size() <= sizeof buf_) {
    std::memcpy(buf_ + len_, piece.data(), piece.size());
    len_ += piece.size();
    return;
  }
  if (spilled_.empty()) spilled_.assign(buf_, len_);
  spilled_ += piece;
}

RoleId RoleContext::role_of(ProcessId pid) const {
  const std::size_t s = perf_->find_role(pid);
  SCRIPT_ASSERT(s != kNoSlot, "message from a process playing no role");
  return perf_->state.role_at(s);
}

}  // namespace script::core
