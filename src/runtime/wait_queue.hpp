// FIFO queue of parked fibers. The building block for monitors, Ada entry
// queues, and the script enrollment gates.
#pragma once

#include <deque>
#include <string>

#include "runtime/scheduler.hpp"

namespace script::runtime {

class WaitQueue {
 public:
  explicit WaitQueue(Scheduler& sched) : sched_(&sched) {}

  /// Park the calling fiber at the tail. Returns when notified.
  /// `waiting_on` is the wait-for hint for deadlock chains (e.g. the
  /// monitor holder the queue is gated on), when the owner knows it.
  void park(BlockReason reason, ProcessId waiting_on = kNoProcess);
  void park(std::string_view reason, ProcessId waiting_on = kNoProcess) {
    park({reason}, waiting_on);
  }

  /// Park at the tail for at most `ticks` of virtual time. Returns true
  /// on timeout. The queue entry self-cleans when the timeout fires, so
  /// a later notify_one() can never wake a fiber that already gave up.
  bool park_for(BlockReason reason, std::uint64_t ticks,
                ProcessId waiting_on = kNoProcess);
  bool park_for(std::string_view reason, std::uint64_t ticks,
                ProcessId waiting_on = kNoProcess) {
    return park_for({reason}, ticks, waiting_on);
  }

  /// Wake the fiber at the head, if any. Returns true if one was woken.
  bool notify_one();

  /// Wake every parked fiber (in FIFO order).
  void notify_all();

  bool empty() const { return waiters_.empty(); }
  std::size_t size() const { return waiters_.size(); }

  /// Peek at the head waiter without waking it.
  ProcessId front() const;

 private:
  Scheduler* sched_;
  std::deque<ProcessId> waiters_;
};

}  // namespace script::runtime
