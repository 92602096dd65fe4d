#include "runtime/parallel.hpp"

#include <algorithm>
#include <utility>

#include "obs/event_bus.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/timeline.hpp"
#include "runtime/sanitizer_fiber.hpp"
#include "support/panic.hpp"

namespace script::runtime {

namespace {
// Worker identity for current()/spawn-inheritance. Tagged with the
// owning runtime so several parallel schedulers can coexist in one
// process (each owns its threads; a worker of scheduler A reads as
// "not a fiber" to scheduler B).
thread_local parallel_detail::Worker* t_worker = nullptr;
}  // namespace

ParallelRuntime::ParallelRuntime(Scheduler& sched, std::size_t workers,
                                 std::size_t group_quantum)
    : sched_(sched),
      nworkers_(std::min<std::size_t>(workers, 256)),
      quantum_(group_quantum == 0 ? 1 : group_quantum) {
  SCRIPT_ASSERT(nworkers_ > 0, "parallel mode needs at least one worker");
  shards_.reserve(nworkers_);
  for (std::size_t i = 0; i < nworkers_; ++i)
    shards_.push_back(std::make_unique<Shard>());
  // Group 0 exists from the start: plain spawn() from outside a fiber
  // lands here, so a program that never opts into groups runs exactly
  // like the deterministic mode, just on a worker thread.
  new_group();
}

ParallelRuntime::~ParallelRuntime() {
  {
    std::lock_guard<std::mutex> lk(idle_mu_);
    shutdown_ = true;
  }
  idle_cv_.notify_all();
  for (auto& t : threads_) t.join();
  for (auto& w : workers_store_) {
    for (Stack& s : w->stack_cache) sched_.stack_pool_.release(std::move(s));
    w->stack_cache.clear();
  }
}

GroupId ParallelRuntime::new_group() {
  std::lock_guard<std::mutex> lk(spawn_mu_);
  const auto gid = static_cast<GroupId>(groups_.size());
  const auto home =
      static_cast<std::uint32_t>(next_home_++ % nworkers_);
  groups_.push(std::make_unique<Group>(gid, home));
  return gid;
}

GroupId ParallelRuntime::group_of(ProcessId pid) const {
  return sched_.fiber(pid).pgroup_->id;
}

ProcessId ParallelRuntime::current_on_this_thread() const {
  return (t_worker != nullptr && t_worker->rt == this) ? t_worker->current
                                                       : kNoProcess;
}

Stack ParallelRuntime::acquire_stack(Worker* w, std::size_t bytes) {
  if (w != nullptr) {
    while (!w->stack_cache.empty()) {
      Stack s = std::move(w->stack_cache.back());
      w->stack_cache.pop_back();
      // Cached stacks are NOT decommitted — their pages stay hot, which
      // is the per-worker free list's whole advantage under churn.
      if (s.size() >= bytes) return s;
      sched_.stack_pool_.release(std::move(s));
    }
  }
  return sched_.stack_pool_.acquire(bytes);
}

void ParallelRuntime::reclaim_stack(Worker& w, Fiber& f) {
  if (!f.stack_.valid()) return;
  if (w.stack_cache.size() < 64) {
    w.stack_cache.push_back(f.release_stack());
    return;
  }
  sched_.stack_pool_.release(f.release_stack());
}

ProcessId ParallelRuntime::spawn(GroupId gid, std::string name,
                                 std::function<void()> body) {
  Worker* w =
      (t_worker != nullptr && t_worker->rt == this) ? t_worker : nullptr;
  if (gid == kInheritGroup) {
    // Dynamic spawn from a fiber stays in the spawner's group (its
    // performance); spawns from outside land in group 0.
    gid = (w != nullptr && w->current != kNoProcess)
              ? sched_.fiber(w->current).pgroup_->id
              : 0;
  }
  Group& g = group(gid);
  Stack stack = acquire_stack(w, sched_.opts_.stack_bytes);
  ProcessId pid;
  {
    std::lock_guard<std::mutex> lk(spawn_mu_);
    pid = static_cast<ProcessId>(sched_.fibers_.size());
    auto f = std::make_unique<Fiber>(pid, std::move(name), std::move(body),
                                     std::move(stack));
    f->scheduler_ = &sched_;
    f->pgroup_ = &g;
    sched_.fibers_.push(std::move(f));
  }
  ++sched_.live_;
  Fiber& f = sched_.fiber(pid);
  bool enq = false;
  {
    std::lock_guard<std::mutex> gl(g.mu);
    f.in_ready_ = true;
    g.ready.push(pid);
    enq = mark_queued(g);
  }
  if (enq) push_shard(&g);
  if (sched_.bus_.wants(obs::Subsystem::Scheduler))
    sched_.bus_.publish({obs::EventKind::Instant, obs::Subsystem::Scheduler,
                         obs::kAutoTime, pid, obs::kNoLane, "spawn",
                         f.name()});
  return pid;
}

bool ParallelRuntime::mark_queued(Group& g) {
  if (g.active || g.queued || g.ready.empty()) return false;
  g.queued = true;
  return true;
}

void ParallelRuntime::push_shard(Group* g) {
  const std::uint32_t home = g->home.load(std::memory_order_relaxed);
  {
    Shard& s = *shards_[home];
    std::lock_guard<std::mutex> lk(s.mu);
    s.runnable.push(g);
  }
  // Publish the work BEFORE checking for sleepers: an idle worker that
  // misses this increment in its unlocked scan re-checks it after
  // incrementing idlers_ under idle_mu_, and our notify below waits on
  // that same mutex — one side always sees the other.
  queued_groups_.fetch_add(1, std::memory_order_release);
  std::lock_guard<std::mutex> lk(idle_mu_);
  if (idlers_ > 0) idle_cv_.notify_one();
}

void ParallelRuntime::push_shard_locked_idle(Group* g) {
  const std::uint32_t home = g->home.load(std::memory_order_relaxed);
  {
    Shard& s = *shards_[home];
    std::lock_guard<std::mutex> lk(s.mu);
    s.runnable.push(g);
  }
  queued_groups_.fetch_add(1, std::memory_order_release);
  // idle_mu_ already held by the quiescing worker; it broadcasts once
  // the clock advance is complete.
}

ParallelRuntime::Group* ParallelRuntime::acquire_group(Worker& w) {
  const std::size_t n = shards_.size();
  {
    Shard& own = *shards_[w.index];
    std::lock_guard<std::mutex> lk(own.mu);
    if (!own.runnable.empty()) {
      Group* g = own.runnable.pop_front();
      queued_groups_.fetch_sub(1, std::memory_order_relaxed);
      return g;
    }
  }
  if (n == 1) return nullptr;
  // Steal sweep from a random victim offset: randomized steal timing
  // (the TSan stress leans on this) and no convoy on shard 0.
  const auto r = static_cast<std::size_t>(w.rng.below(n));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t si = (r + i) % n;
    if (si == w.index) continue;
    Shard& s = *shards_[si];
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.runnable.empty()) continue;
    Group* g = s.runnable.steal_back();
    queued_groups_.fetch_sub(1, std::memory_order_relaxed);
    steals_.fetch_add(1, std::memory_order_relaxed);
    return g;
  }
  return nullptr;
}

void ParallelRuntime::run_group(Worker& w, Group* g) {
  {
    std::lock_guard<std::mutex> lk(g->mu);
    g->queued = false;
    g->active = true;
    // The group now lives on this worker's shard: wakes it generates
    // requeue it here, keeping its working set on this core.
    g->home.store(w.index, std::memory_order_relaxed);
  }
  std::size_t quantum = quantum_;
  while (!stop_.load(std::memory_order_relaxed)) {
    Fiber* f = nullptr;
    {
      std::lock_guard<std::mutex> lk(g->mu);
      if (quantum > 0 && !g->ready.empty()) {
        const ProcessId pid = g->ready.pop_front();
        f = &sched_.fiber(pid);
        f->in_ready_ = false;
        f->set_state(FiberState::Running);
      }
    }
    if (f == nullptr) break;
    --quantum;
    dispatch(w, *f);
  }
  bool requeue = false;
  {
    std::lock_guard<std::mutex> lk(g->mu);
    g->active = false;
    // Quantum expired with runnable fibers left (or a wake landed while
    // active): back on the shard for any worker to continue.
    requeue = mark_queued(*g);
  }
  if (requeue) push_shard(g);
}

void ParallelRuntime::dispatch(Worker& w, Fiber& f) {
  f.last_progress_ = sched_.now_;
  w.current = f.id();
  ++w.steps;
  if (sched_.bus_.wants(obs::Subsystem::Scheduler))
    sched_.bus_.publish({obs::EventKind::Instant, obs::Subsystem::Scheduler,
                         obs::kAutoTime, f.id(), obs::kNoLane, "dispatch",
                         "", static_cast<double>(w.steps)});
  sched_.switch_to(w.exec, f);
  w.current = kNoProcess;
  post_step(w, f);
}

void ParallelRuntime::post_step(Worker& w, Fiber& f) {
  // Reading f's state without the group mutex is same-thread-safe here:
  // the fiber wrote it on this very thread before switching out, and
  // remote wakers never mutate state while p_commit_pending_ is up.
  switch (f.state()) {
    case FiberState::Done:
      finish_done(w, f);
      break;
    case FiberState::Ready: {
      // A yield: requeue on the (active) group. A wake token left by an
      // early cross-group unblock rides through untouched — it pays for
      // the fiber's NEXT park, not for a mere yield.
      Group& g = *f.pgroup_;
      std::lock_guard<std::mutex> lk(g.mu);
      SCRIPT_ASSERT(!f.in_ready_, "yielding fiber already queued");
      f.in_ready_ = true;
      g.ready.push(f.id());
      break;
    }
    case FiberState::Blocked:
    case FiberState::Sleeping:
      commit_park(w, f);
      break;
    case FiberState::Running:
      SCRIPT_PANIC("fiber switched out while still Running");
  }
}

void ParallelRuntime::commit_park(Worker& w, Fiber& f) {
  (void)w;
  Group& g = *f.pgroup_;
  bool arm = false;
  std::uint64_t due = 0;
  std::uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lk(g.mu);
    SCRIPT_ASSERT(f.p_commit_pending_, "park without a pending commit");
    f.p_commit_pending_ = false;
    if (f.p_wake_pending_) {
      // Woken before the context was even saved (cross-group unblock,
      // or join's wake-before-park): the park dissolves into a wake.
      f.p_wake_pending_ = false;
      f.p_timer_req_ = false;
      if (f.state() == FiberState::Sleeping) {
        // sleep_for raced a wake: account the (zero-length) sleep span.
        f.set_state(FiberState::Blocked);
        f.block_start_ = f.sleep_start_;
      }
      wake_locked(f, g);  // group is quiescent-for-us: queue push only
    } else if (f.p_timer_req_) {
      f.p_timer_req_ = false;
      f.timer_armed_ = true;
      arm = true;
      due = f.p_timer_due_;
      gen = f.wake_gen_;
    }
  }
  if (arm) {
    std::lock_guard<std::mutex> lk(timer_mu_);
    timers_.push(Scheduler::Timer{due, timer_seq_++, f.id(), gen});
  }
}

void ParallelRuntime::wake_locked(Fiber& f, Group& g) {
  f.set_state(FiberState::Ready);
  f.clear_block_reason();
  f.blocked_ticks_ += sched_.now_ - f.block_start_;
  f.waiting_on_ = kNoProcess;
  f.timed_out_ = false;
  f.timeout_cleanup_ = nullptr;  // woken normally: waker consumed the entry
  if (f.timer_armed_) {
    f.timer_armed_ = false;
    stale_timers_.fetch_add(1, std::memory_order_relaxed);
  }
  ++f.wake_gen_;
  SCRIPT_ASSERT(!f.in_ready_, "woken fiber already queued");
  f.in_ready_ = true;
  g.ready.push(f.id());
}

void ParallelRuntime::finish_done(Worker& w, Fiber& f) {
  Group& g = *f.pgroup_;
  std::vector<ProcessId> joiners;
  {
    std::lock_guard<std::mutex> lk(g.mu);
    f.retired_ = true;
    joiners.swap(f.joiners_);
  }
  // Wake joiners AFTER releasing our group mutex — they may live in
  // other groups, and two group locks are never held at once.
  for (const ProcessId j : joiners) unblock(j);
  reclaim_stack(w, f);
  sanitizer::tsan_destroy_context(f.tsan_ctx_);
  f.tsan_ctx_ = nullptr;
  if (f.failure() != nullptr) {
    bool expected = false;
    if (stop_.compare_exchange_strong(expected, true)) {
      std::lock_guard<std::mutex> lk(idle_mu_);
      first_failure_ = f.failure();
    }
    idle_cv_.notify_all();  // idle workers re-evaluate stop_
  }
}

void ParallelRuntime::yield(Fiber& f) {
  f.set_state(FiberState::Ready);
  sched_.switch_out(f);
}

void ParallelRuntime::block(Fiber& f, BlockReason reason,
                            ProcessId waiting_on) {
  Group& g = *f.pgroup_;
  {
    std::lock_guard<std::mutex> lk(g.mu);
    f.set_state(FiberState::Blocked);
    f.set_block_reason(reason);
    f.block_start_ = sched_.now_;
    f.waiting_on_ = waiting_on;
    f.p_commit_pending_ = true;
  }
  if (sched_.bus_.wants(obs::Subsystem::Scheduler))
    sched_.bus_.publish({obs::EventKind::SpanBegin, obs::Subsystem::Scheduler,
                         obs::kAutoTime, f.id(), obs::kNoLane, "blocked",
                         f.block_reason()});
  sched_.switch_out(f);
}

void ParallelRuntime::sleep_for(Fiber& f, std::uint64_t ticks) {
  if (ticks == 0) {
    yield(f);
    return;
  }
  Group& g = *f.pgroup_;
  {
    std::lock_guard<std::mutex> lk(g.mu);
    f.set_state(FiberState::Sleeping);
    f.sleep_start_ = sched_.now_;
    f.p_timer_req_ = true;
    f.p_timer_due_ = sched_.now_ + ticks;
    f.p_commit_pending_ = true;
  }
  if (sched_.bus_.wants(obs::Subsystem::Scheduler))
    sched_.bus_.publish({obs::EventKind::SpanBegin, obs::Subsystem::Scheduler,
                         obs::kAutoTime, f.id(), obs::kNoLane, "sleeping",
                         "", static_cast<double>(ticks)});
  sched_.switch_out(f);
}

bool ParallelRuntime::block_with_timeout(Fiber& f, BlockReason reason,
                                         std::uint64_t ticks,
                                         std::function<void()> on_timeout,
                                         ProcessId waiting_on) {
  Group& g = *f.pgroup_;
  {
    std::lock_guard<std::mutex> lk(g.mu);
    f.set_state(FiberState::Blocked);
    f.set_block_reason(reason);
    f.block_start_ = sched_.now_;
    f.waiting_on_ = waiting_on;
    f.timed_out_ = false;
    f.timeout_cleanup_ = std::move(on_timeout);
    f.p_timer_req_ = true;
    f.p_timer_due_ = sched_.now_ + ticks;
    f.p_commit_pending_ = true;
  }
  if (sched_.bus_.wants(obs::Subsystem::Scheduler))
    sched_.bus_.publish({obs::EventKind::SpanBegin, obs::Subsystem::Scheduler,
                         obs::kAutoTime, f.id(), obs::kNoLane, "blocked",
                         f.block_reason(), static_cast<double>(ticks)});
  sched_.switch_out(f);
  return f.timed_out_;  // own fiber resumed: safe to read plainly
}

void ParallelRuntime::join(Fiber& f, ProcessId target) {
  Fiber& t = sched_.fiber(target);
  Group& gt = *t.pgroup_;
  {
    std::lock_guard<std::mutex> lk(gt.mu);
    // retired_, not state_: only the mutex hand-off gives the joiner a
    // happens-before edge with the target's body. A Done-but-unretired
    // target is still being processed by its worker — register and let
    // its retire drain us (possibly via the wake-before-park flag).
    if (t.retired_) return;
    t.joiners_.push_back(f.id());
  }
  block(f, {"joining ", t.name()}, target);
}

void ParallelRuntime::unblock(ProcessId pid) {
  Fiber& f = sched_.fiber(pid);
  Group& g = *f.pgroup_;
  bool enq = false;
  {
    std::lock_guard<std::mutex> lk(g.mu);
    const FiberState st = f.state();
    if (st == FiberState::Blocked && !f.p_commit_pending_) {
      wake_locked(f, g);
      enq = mark_queued(g);
    } else {
      // Not yet parked from this thread's point of view: the target is
      // Running (join's wake-before-park), mid-commit (context not yet
      // saved), or still Ready because its group has not been
      // dispatched since the protocol decided it is about to block —
      // orderings the deterministic FIFO makes impossible but parallel
      // groups allow. Leave a wake token; the park commit (the park
      // this unblock pairs with, by the caller's protocol) consumes it.
      SCRIPT_ASSERT(st != FiberState::Done,
                    "unblock on finished fiber " + f.name());
      f.p_wake_pending_ = true;
    }
  }
  if (enq) push_shard(&g);
  if (sched_.bus_.wants(obs::Subsystem::Scheduler))
    sched_.bus_.publish({obs::EventKind::SpanEnd, obs::Subsystem::Scheduler,
                         obs::kAutoTime, pid, obs::kNoLane, "blocked", ""});
}

void ParallelRuntime::wake_at(ProcessId pid, std::uint64_t ticks_from_now) {
  if (ticks_from_now == 0) {
    unblock(pid);
    return;
  }
  Fiber& f = sched_.fiber(pid);
  Group& g = *f.pgroup_;
  std::uint64_t due = 0;
  std::uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lk(g.mu);
    // wake_at charges latency to a parked rendezvous peer — same net,
    // hence same group, hence the park is committed (this worker
    // committed it before dispatching us).
    SCRIPT_ASSERT(f.state() == FiberState::Blocked && !f.p_commit_pending_,
                  "wake_at on non-blocked fiber " + f.name());
    f.set_state(FiberState::Sleeping);
    f.clear_block_reason();
    f.blocked_ticks_ += sched_.now_ - f.block_start_;
    f.sleep_start_ = sched_.now_;
    f.waiting_on_ = kNoProcess;
    f.timeout_cleanup_ = nullptr;
    if (f.timer_armed_) {
      f.timer_armed_ = false;
      stale_timers_.fetch_add(1, std::memory_order_relaxed);
    }
    ++f.wake_gen_;
    f.timer_armed_ = true;
    due = sched_.now_ + ticks_from_now;
    gen = f.wake_gen_;
  }
  {
    std::lock_guard<std::mutex> lk(timer_mu_);
    timers_.push(Scheduler::Timer{due, timer_seq_++, pid, gen});
  }
  if (sched_.bus_.wants(obs::Subsystem::Scheduler)) {
    sched_.bus_.publish({obs::EventKind::SpanEnd, obs::Subsystem::Scheduler,
                         obs::kAutoTime, pid, obs::kNoLane, "blocked", ""});
    sched_.bus_.publish({obs::EventKind::SpanBegin, obs::Subsystem::Scheduler,
                         obs::kAutoTime, pid, obs::kNoLane, "sleeping", "",
                         static_cast<double>(ticks_from_now)});
  }
}

void ParallelRuntime::fire_timer_locked(Fiber& f, bool* was_sleeping) {
  SCRIPT_ASSERT(!f.p_commit_pending_,
                "timer fired for an uncommitted park");
  f.timer_armed_ = false;
  ++f.wake_gen_;
  *was_sleeping = f.state() == FiberState::Sleeping;
  if (*was_sleeping) {
    f.set_state(FiberState::Ready);
    f.slept_ticks_ += sched_.now_ - f.sleep_start_;
  } else {
    SCRIPT_ASSERT(f.state() == FiberState::Blocked,
                  "live timer fired for non-parked fiber");
    f.set_state(FiberState::Ready);
    f.clear_block_reason();
    f.blocked_ticks_ += sched_.now_ - f.block_start_;
    f.waiting_on_ = kNoProcess;
    f.timed_out_ = true;
    if (f.timeout_cleanup_) {
      auto cleanup = std::move(f.timeout_cleanup_);
      f.timeout_cleanup_ = nullptr;
      cleanup();  // group-confined by contract: touches no other locks
    }
  }
  SCRIPT_ASSERT(!f.in_ready_, "timer-woken fiber already queued");
  f.in_ready_ = true;
  f.pgroup_->ready.push(f.id());
}

void ParallelRuntime::purge_timers_locked() {
  std::vector<Scheduler::Timer>& raw = timers_.raw();
  raw.erase(std::remove_if(raw.begin(), raw.end(),
                           [this](const Scheduler::Timer& t) {
                             Fiber& f = sched_.fiber(t.pid);
                             std::lock_guard<std::mutex> gl(f.pgroup_->mu);
                             return t.gen != f.wake_gen_;
                           }),
            raw.end());
  std::make_heap(raw.begin(), raw.end(), std::greater<>{});
  stale_timers_.store(0, std::memory_order_relaxed);
}

bool ParallelRuntime::quiesce() {
  // idle_mu_ is held and every worker is idle: group states are stable,
  // so the lock order idle_mu_ → timer_mu_ → group.mu → shard.mu taken
  // here nests safely (no running path holds a group or shard mutex
  // while taking timer_mu_ or idle_mu_).
  std::lock_guard<std::mutex> tl(timer_mu_);
  const std::size_t stale = stale_timers_.load(std::memory_order_relaxed);
  if (stale > 64 && stale * 2 > timers_.size()) purge_timers_locked();
  for (;;) {
    while (!timers_.empty()) {
      const Scheduler::Timer t = timers_.top();
      Fiber& f = sched_.fiber(t.pid);
      bool is_stale;
      {
        std::lock_guard<std::mutex> gl(f.pgroup_->mu);
        is_stale = t.gen != f.wake_gen_;
      }
      if (!is_stale) break;
      timers_.pop();
      if (stale_timers_.load(std::memory_order_relaxed) > 0)
        stale_timers_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (timers_.empty()) return false;  // nothing can ever run again
    const std::uint64_t due = timers_.top().due;
    const std::uint64_t before = sched_.now_;
    if (due > before) sched_.now_ = due;
    bool woke = false;
    while (!timers_.empty() && timers_.top().due <= sched_.now_) {
      const Scheduler::Timer t = timers_.top();
      timers_.pop();
      Fiber& f = sched_.fiber(t.pid);
      Group& g = *f.pgroup_;
      bool enq = false;
      bool fired = false;
      bool was_sleeping = false;
      {
        std::lock_guard<std::mutex> gl(g.mu);
        if (t.gen == f.wake_gen_) {
          fire_timer_locked(f, &was_sleeping);
          enq = mark_queued(g);
          fired = true;
        } else if (stale_timers_.load(std::memory_order_relaxed) > 0) {
          stale_timers_.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      if (enq) push_shard_locked_idle(&g);
      if (fired) {
        woke = true;
        if (sched_.bus_.wants(obs::Subsystem::Scheduler))
          sched_.bus_.publish(
              {obs::EventKind::SpanEnd, obs::Subsystem::Scheduler,
               obs::kAutoTime, t.pid, obs::kNoLane,
               was_sleeping ? "sleeping" : "blocked",
               was_sleeping ? "" : "timeout"});
      }
    }
    if (woke) {
      if (sched_.now_ != before &&
          sched_.bus_.wants(obs::Subsystem::Scheduler))
        sched_.bus_.publish({obs::EventKind::Counter,
                             obs::Subsystem::Scheduler, sched_.now_,
                             obs::kNoPid, obs::kNoLane, "virtual_time", "",
                             static_cast<double>(sched_.now_)});
      return true;
    }
    // Every entry at this instant was stale: advance to the next one.
  }
}

void ParallelRuntime::worker_main(Worker* w) {
  t_worker = w;
  ParallelRuntime& rt = *w->rt;
  w->exec.tsan_ctx = sanitizer::tsan_current_context();
  std::unique_lock<std::mutex> lk(rt.idle_mu_);
  for (;;) {
    if (rt.shutdown_) break;
    if (!rt.run_active_) {
      rt.idle_cv_.wait(lk);
      continue;
    }
    if (!rt.stop_.load(std::memory_order_relaxed) &&
        rt.queued_groups_.load(std::memory_order_acquire) > 0) {
      lk.unlock();
      while (!rt.stop_.load(std::memory_order_relaxed)) {
        Group* g = rt.acquire_group(*w);
        if (g == nullptr) break;
        rt.run_group(*w, g);
      }
      lk.lock();
      continue;
    }
    ++rt.idlers_;
    // A failing fiber set stop_: queued groups will never be drained,
    // so they must not keep the run (or this loop) alive.
    const bool stopping = rt.stop_.load(std::memory_order_relaxed);
    if (rt.idlers_ == rt.nworkers_ &&
        (stopping ||
         rt.queued_groups_.load(std::memory_order_acquire) == 0)) {
      // Everyone idle, nothing queued — with idle_mu_ held this is a
      // true global quiescence point (any producer's notify serializes
      // behind us). Advance the clock or declare the run over.
      if (!stopping && rt.quiesce()) {
        rt.idle_cv_.notify_all();  // timer wakes queued fresh groups
      } else {
        rt.run_active_ = false;
        rt.run_done_ = true;
        rt.main_cv_.notify_all();
        rt.idle_cv_.notify_all();
      }
      --rt.idlers_;
      continue;
    }
    if (!stopping &&
        rt.queued_groups_.load(std::memory_order_acquire) > 0) {
      // Work raced in between our scan and the idle count: retry.
      --rt.idlers_;
      continue;
    }
    rt.idle_cv_.wait(lk);
    --rt.idlers_;
  }
  t_worker = nullptr;
}

void ParallelRuntime::start_threads() {
  if (!threads_.empty()) return;
  workers_store_.reserve(nworkers_);
  for (std::size_t i = 0; i < nworkers_; ++i) {
    auto w = std::make_unique<Worker>();
    w->rt = this;
    w->index = static_cast<std::uint32_t>(i);
    w->rng = support::Rng(sched_.opts_.seed * 0x9e3779b97f4a7c15ull + i + 1);
    workers_store_.push_back(std::move(w));
  }
  threads_.reserve(nworkers_);
  for (auto& w : workers_store_)
    threads_.emplace_back(&ParallelRuntime::worker_main, w.get());
}

RunResult ParallelRuntime::run() {
  SCRIPT_ASSERT(!sched_.running_, "Scheduler::run is not reentrant");
  SCRIPT_ASSERT(sched_.opts_.policy == SchedulePolicy::Fifo,
                "parallel mode supports the Fifo policy only "
                "(Random/Scripted/explore() need the deterministic backend)");
  SCRIPT_ASSERT(sched_.opts_.max_steps_per_run == 0,
                "max_steps_per_run needs the deterministic backend");
  SCRIPT_ASSERT(sched_.fault_plan_ == nullptr,
                "FaultPlan injection needs the deterministic backend");
  SCRIPT_ASSERT(sched_.exporter_ == nullptr && sched_.causal_ == nullptr,
                "tracing/causal tracking needs the deterministic backend");
  SCRIPT_ASSERT(sched_.deadlines_.empty(),
                "deadlines/budgets need the deterministic backend");
  SCRIPT_ASSERT(sched_.health_ == nullptr,
                "health monitoring needs the deterministic backend");
  sched_.running_ = true;
  sched_.service_debug();  // safepoint: run boundary
  start_threads();
  {
    std::lock_guard<std::mutex> lk(idle_mu_);
    stop_.store(false, std::memory_order_relaxed);
    run_done_ = false;
    run_active_ = true;
  }
  idle_cv_.notify_all();
  std::exception_ptr failure;
  {
    std::unique_lock<std::mutex> lk(idle_mu_);
    main_cv_.wait(lk, [this] { return run_done_; });
    failure = first_failure_;
    first_failure_ = nullptr;
  }
  // run_done_ was set by the last idler while holding idle_mu_: every
  // worker is parked (or heading to the wait with no work in hand), and
  // the mutex hand-off makes all their writes visible here.
  sched_.running_ = false;
  for (auto& w : workers_store_) {
    sched_.steps_ += w->steps;
    w->steps = 0;
  }
  // Drain the per-worker stack caches so spawns from the main thread
  // (the churn pattern: spawn a wave, run, repeat) reuse hot stacks.
  for (auto& w : workers_store_) {
    for (Stack& s : w->stack_cache) sched_.stack_pool_.release(std::move(s));
    w->stack_cache.clear();
  }
  if (failure != nullptr) std::rethrow_exception(failure);
  RunResult result;
  result.final_time = sched_.now_;
  result.steps = sched_.steps_;
  const std::size_t n = sched_.fibers_.size();
  for (std::size_t i = 0; i < n; ++i) {
    Fiber& f = sched_.fibers_[i];
    if (f.state() == FiberState::Blocked)
      result.blocked.emplace_back(f.id(), f.block_reason());
    SCRIPT_ASSERT(f.state() != FiberState::Sleeping,
                  "sleeper left behind after clock drained");
  }
  result.outcome = result.blocked.empty() ? RunResult::Outcome::AllDone
                                          : RunResult::Outcome::Deadlock;
  if (result.outcome == RunResult::Outcome::Deadlock) {
    if (sched_.bus_.wants(obs::Subsystem::Scheduler))
      sched_.bus_.publish({obs::EventKind::Instant,
                           obs::Subsystem::Scheduler, obs::kAutoTime,
                           obs::kNoPid, obs::kNoLane, "deadlock", "",
                           static_cast<double>(result.blocked.size())});
    if (sched_.flight_ != nullptr) sched_.flight_->trigger_dump("deadlock");
    if (sched_.timeline_ != nullptr)
      sched_.timeline_->trigger_dump("deadlock");
  }
  sched_.service_debug();  // safepoint: run boundary
  return result;
}

}  // namespace script::runtime
