#include "runtime/wait_queue.hpp"

#include <algorithm>

#include "support/panic.hpp"

namespace script::runtime {

void WaitQueue::park(BlockReason reason, ProcessId waiting_on) {
  const ProcessId pid = sched_->current();
  waiters_.push_back(pid);
  try {
    sched_->block(reason, waiting_on);
  } catch (...) {
    // FaultPlan crash while parked: leave no dangling waiter entry.
    // (park_for needs no guard — kill runs its timeout hook.)
    const auto it = std::find(waiters_.begin(), waiters_.end(), pid);
    if (it != waiters_.end()) waiters_.erase(it);
    throw;
  }
}

bool WaitQueue::park_for(BlockReason reason, std::uint64_t ticks,
                         ProcessId waiting_on) {
  const ProcessId pid = sched_->current();
  waiters_.push_back(pid);
  return sched_->block_with_timeout(
      reason, ticks,
      [this, pid] {
        const auto it = std::find(waiters_.begin(), waiters_.end(), pid);
        if (it != waiters_.end()) waiters_.erase(it);
      },
      waiting_on);
}

bool WaitQueue::notify_one() {
  if (waiters_.empty()) return false;
  const ProcessId pid = waiters_.front();
  waiters_.pop_front();
  sched_->unblock(pid);
  return true;
}

void WaitQueue::notify_all() {
  while (notify_one()) {
  }
}

ProcessId WaitQueue::front() const {
  SCRIPT_ASSERT(!waiters_.empty(), "WaitQueue::front on empty queue");
  return waiters_.front();
}

}  // namespace script::runtime
