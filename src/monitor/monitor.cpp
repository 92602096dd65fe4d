#include "monitor/monitor.hpp"

#include "support/panic.hpp"

namespace script::monitor {

Monitor::Monitor(runtime::Scheduler& sched, std::string name)
    : sched_(&sched), name_(std::move(name)), entry_queue_(sched) {}

void Monitor::enter() {
  ++entries_;
  if (!busy_) {
    busy_ = true;
    holder_ = sched_->current();
    publish_hold(obs::EventKind::SpanBegin);
    return;
  }
  ++contended_;
  if (sched_->bus().wants(obs::Subsystem::Monitor))
    sched_->bus().publish({obs::EventKind::Instant, obs::Subsystem::Monitor,
                           obs::kAutoTime, sched_->current(), obs::kNoLane,
                           "monitor.contended", name_});
  try {
    entry_queue_.park({"entering monitor ", name_}, holder_);
  } catch (...) {
    // Crashed while queued (the park self-cleans) — or just after the
    // hand-off made us owner, in which case the monitor moves on.
    if (busy_ && holder_ == sched_->current()) release_and_admit();
    throw;
  }
  // Woken by release_and_admit with ownership handed to us.
  SCRIPT_ASSERT(busy_, "monitor hand-off lost ownership");
  publish_hold(obs::EventKind::SpanBegin);
}

void Monitor::leave() {
  SCRIPT_ASSERT(busy_, "leave() without holding monitor " + name_);
  publish_hold(obs::EventKind::SpanEnd);
  release_and_admit();
}

void Monitor::wait_until(std::function<bool()> pred) {
  SCRIPT_ASSERT(busy_, "wait_until() without holding monitor " + name_);
  if (pred()) return;
  const ProcessId me = sched_->current();
  cond_waiters_.push_back({me, pred});
  publish_hold(obs::EventKind::SpanEnd);
  release_and_admit();
  try {
    // No single wait-for target: whoever next leaves the monitor with
    // the predicate true wakes us; hint the current holder when known.
    sched_->block({"WAIT UNTIL in monitor ", name_}, holder_);
  } catch (...) {
    // Crashed while waiting: either our waiter entry is still queued
    // (never admitted — drop it) or the hand-off already made us owner
    // (pass the monitor on so no one deadlocks on a dead holder).
    for (auto it = cond_waiters_.begin(); it != cond_waiters_.end(); ++it) {
      if (it->pid == me) {
        cond_waiters_.erase(it);
        throw;
      }
    }
    if (busy_ && holder_ == me) release_and_admit();
    throw;
  }

  // Admitted with ownership; hand-off guarantees the predicate held at
  // admission time and no one has run inside the monitor since.
  SCRIPT_ASSERT(busy_ && pred(), "WAIT UNTIL admitted with false predicate");
  publish_hold(obs::EventKind::SpanBegin);
}

void Monitor::publish_hold(obs::EventKind kind) {
  if (!sched_->bus().wants(obs::Subsystem::Monitor)) return;
  sched_->bus().publish({kind, obs::Subsystem::Monitor, obs::kAutoTime,
                         sched_->current(), obs::kNoLane, "monitor.hold",
                         name_});
}

void Monitor::with(const std::function<void()>& body) {
  enter();
  try {
    body();
  } catch (...) {
    // A crash (or exception) inside the critical section releases the
    // monitor instead of wedging every later entrant.
    if (busy_ && holder_ == sched_->current()) {
      publish_hold(obs::EventKind::SpanEnd);
      release_and_admit();
    }
    throw;
  }
  leave();
}

void Monitor::occupy(std::uint64_t ticks) {
  SCRIPT_ASSERT(busy_, "occupy() without holding monitor " + name_);
  sched_->sleep_for(ticks);
}

void Monitor::release_and_admit() {
  // Prefer a condition waiter whose predicate now holds (FIFO).
  for (std::size_t i = 0; i < cond_waiters_.size(); ++i) {
    if (cond_waiters_[i].pred()) {
      const ProcessId pid = cond_waiters_[i].pid;
      cond_waiters_.erase(cond_waiters_.begin() +
                          static_cast<std::ptrdiff_t>(i));
      // busy_ stays true: ownership passes directly to the waiter.
      holder_ = pid;
      sched_->unblock(pid);
      return;
    }
  }
  if (!entry_queue_.empty()) {
    holder_ = entry_queue_.front();  // hand off to a new entrant
    entry_queue_.notify_one();
    return;
  }
  busy_ = false;
  holder_ = runtime::kNoProcess;
}

}  // namespace script::monitor
