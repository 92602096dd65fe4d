// ParallelRuntime — the M:N work-stealing execution mode behind the
// Scheduler API (SchedulerOptions::workers > 0).
//
// Design, in one breath: fibers are pinned to *groups* (a group ≈ one
// performance / script instance / csp::Net — the paper's unit of
// isolation), each group has its own mutex and local ready queue, and
// groups — never individual fibers — migrate between per-worker shard
// queues when a worker runs dry and steals. Intra-group rendezvous
// therefore never crosses a core mid-conversation: both parties of a
// CSP exchange are dispatched back-to-back by whichever worker holds
// the group, which is precisely the cache-locality win the ISSUE's C7
// numbers ask for (round-robin over 4000 fibers thrashes; depth-first
// per-group execution does not).
//
// What stays on the deterministic backend (asserted at run()): golden
// traces / explore() (Scripted policy), FaultPlan injection, deadlines
// and execution budgets, causal tracking, per-fiber event history,
// health polling. The flight recorder, timeline, and debug endpoint
// remain available — the EventBus runs in its locked mode and the
// endpoint is serviced at run() boundaries only.
//
// Synchronization protocol (the part worth reading twice):
//   * Group mutex guards the group's ready queue and every member
//     fiber's scheduling fields (state transitions, wake_gen_, block
//     ledger, joiners).
//   * Park-commit: a parking fiber sets its state and p_commit_pending_
//     under the group mutex, then switches out. The worker clears the
//     pending flag — again under the mutex — only after the context
//     switch has fully saved the fiber's context. A cross-group waker
//     that catches the window (or catches the fiber still Running,
//     join's wake-before-park race) sets p_wake_pending_ instead of
//     touching the half-saved context; the commit converts it into a
//     real wake.
//   * Timers live in one global heap (virtual time is global); a timed
//     park carries its request through the commit so a timer can never
//     fire for an uncommitted context. The clock advances only at
//     quiescence — every worker idle, no queued groups — which is also
//     where termination and deadlock are decided.
//   * Stacks: per-worker free lists, refilled from / drained to the
//     scheduler's (locked) StackPool at run boundaries.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/fiber.hpp"
#include "runtime/fiber_table.hpp"
#include "runtime/ready_queue.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stack.hpp"
#include "support/rng.hpp"

namespace script::runtime {

namespace parallel_detail {

/// The unit of placement and stealing. All scheduling state of member
/// fibers is guarded by `mu`.
struct Group {
  explicit Group(GroupId id_, std::uint32_t home_) : id(id_), home(home_) {}

  const GroupId id;
  std::mutex mu;
  /// Runnable member fibers, FIFO (same container as the deterministic
  /// ready queue, so per-group ordering matches the Fifo policy).
  ReadyQueueT<ProcessId, kNoProcess> ready;
  /// A worker is currently draining this group's queue. Wakes that land
  /// while active do not enqueue the group; the draining worker either
  /// picks them up or requeues on exit.
  bool active = false;
  /// Sitting on some shard's runnable queue (at most one entry ever).
  bool queued = false;
  /// Shard whose queue the group was last pushed to / run from; updated
  /// on steal so subsequent wakes chase the group's new home. Atomic
  /// (relaxed) because push_shard reads it without the group mutex — a
  /// stale read just pushes to the previous shard, where steals find it.
  std::atomic<std::uint32_t> home;
};

/// One OS thread of the M:N runtime. Lives here (not nested) so the
/// implementation file can hold a `thread_local Worker*` at namespace
/// scope — the key that maps "which fiber is current" per thread.
/// (`ParallelRuntime` is forward-declared by scheduler.hpp.)
struct Worker {
  ParallelRuntime* rt = nullptr;
  std::uint32_t index = 0;
  ExecContext exec;
  ProcessId current = kNoProcess;
  std::uint64_t steps = 0;
  /// Per-worker stack free list (ISSUE: per-worker free lists). Hot
  /// spawn/retire cycles stay off the pool mutex; drained into the
  /// shared StackPool between runs so cross-run spawns reuse too.
  std::vector<Stack> stack_cache;
  support::Rng rng{1};
};

}  // namespace parallel_detail

class ParallelRuntime {
 public:
  ParallelRuntime(Scheduler& sched, std::size_t workers,
                  std::size_t group_quantum);
  ~ParallelRuntime();

  ParallelRuntime(const ParallelRuntime&) = delete;
  ParallelRuntime& operator=(const ParallelRuntime&) = delete;

  std::size_t workers() const { return nworkers_; }

  /// Create a new scheduling group (initial home = round-robin shard).
  GroupId new_group();
  GroupId group_of(ProcessId pid) const;
  std::size_t group_count() const { return groups_.size(); }

  ProcessId spawn(GroupId gid, std::string name,
                  std::function<void()> body);
  RunResult run();

  // ---- Fiber-side primitives (worker threads, fiber stacks) ----
  void yield(Fiber& f);
  void block(Fiber& f, BlockReason reason, ProcessId waiting_on);
  void sleep_for(Fiber& f, std::uint64_t ticks);
  bool block_with_timeout(Fiber& f, BlockReason reason,
                          std::uint64_t ticks,
                          std::function<void()> on_timeout,
                          ProcessId waiting_on);
  void join(Fiber& f, ProcessId target);

  // ---- Callable from any fiber ----
  void unblock(ProcessId pid);
  void wake_at(ProcessId pid, std::uint64_t ticks_from_now);

  /// Fiber running on the calling worker thread, or kNoProcess when the
  /// caller is not one of this runtime's workers (the main thread).
  ProcessId current_on_this_thread() const;

  /// Lifetime count of groups taken from a foreign shard (a steal).
  std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  using Group = parallel_detail::Group;
  using Worker = parallel_detail::Worker;

  friend struct parallel_detail::Worker;

  struct Shard {
    std::mutex mu;
    StealQueueT<Group*> runnable;
  };

  static void worker_main(Worker* w);

  Group& group(GroupId gid) const { return groups_[gid]; }
  /// Group transitions to "needs a worker" — call under g.mu. Returns
  /// true when the caller must push_shard(g) after unlocking.
  bool mark_queued(Group& g);
  /// Put g on its home shard's runnable queue and poke an idle worker.
  /// Never called with any group/shard mutex held.
  void push_shard(Group* g);
  /// Same, but for the quiescence path (idle_mu_ already held — skip
  /// the idle-notify; the quiescing worker broadcasts afterwards).
  void push_shard_locked_idle(Group* g);
  /// Own shard first (pop_front), then sweep the others (steal_back).
  Group* acquire_group(Worker& w);
  void run_group(Worker& w, Group* g);
  void dispatch(Worker& w, Fiber& f);
  /// After a dispatch returned: retire / requeue / commit the park.
  void post_step(Worker& w, Fiber& f);
  void commit_park(Worker& w, Fiber& f);
  void finish_done(Worker& w, Fiber& f);
  /// Blocked→Ready bookkeeping under g.mu (ledger, stale timer note,
  /// wake_gen bump, push on the group queue).
  void wake_locked(Fiber& f, Group& g);
  /// A timer fired for f (under g.mu): Sleeping→Ready or Blocked→Ready
  /// with timed_out_ + self-clean, mirroring the deterministic path.
  void fire_timer_locked(Fiber& f, bool* was_sleeping);
  /// All workers idle, nothing queued: advance the virtual clock to the
  /// next live timer and wake its fibers. idle_mu_ held. Returns true
  /// when new work was created, false when the run is over.
  bool quiesce();
  void purge_timers_locked();

  Stack acquire_stack(Worker* w, std::size_t bytes);
  void reclaim_stack(Worker& w, Fiber& f);
  void start_threads();

  Scheduler& sched_;
  const std::size_t nworkers_;
  const std::size_t quantum_;

  // Group / spawn state. spawn_mu_ serializes table growth (fiber and
  // group tables are lock-free for readers).
  mutable std::mutex spawn_mu_;
  FiberTableT<Group> groups_;
  std::uint32_t next_home_ = 0;  // round-robin initial shard for groups

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Groups currently sitting on some shard queue. The release
  /// increment (before any idle check) pairs with idle workers'
  /// acquire re-check, closing the lost-wakeup window.
  std::atomic<std::size_t> queued_groups_{0};
  std::atomic<std::uint64_t> steals_{0};

  // Global virtual-time heap (Scheduler's Timer/TimerHeap, by
  // friendship): pushes from workers under timer_mu_, pops only at
  // quiescence.
  std::mutex timer_mu_;
  Scheduler::TimerHeap timers_;
  std::uint64_t timer_seq_ = 0;  // guarded by timer_mu_
  /// Stale heap entries. Atomic because wakers note staleness under the
  /// *group* mutex (taking timer_mu_ there would invert the quiescence
  /// order timer_mu_ → group.mu); consumed/reset under timer_mu_.
  std::atomic<std::size_t> stale_timers_{0};

  // Run/idle coordination.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;  // workers: work available / run start
  std::condition_variable main_cv_;  // main: run finished
  std::size_t idlers_ = 0;           // workers waiting inside an active run
  bool run_active_ = false;
  bool run_done_ = false;
  bool shutdown_ = false;
  std::atomic<bool> stop_{false};  // failure: wind the run down
  std::exception_ptr first_failure_;

  std::vector<std::unique_ptr<Worker>> workers_store_;
  std::vector<std::thread> threads_;
};

}  // namespace script::runtime
