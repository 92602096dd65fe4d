#include "ada/entry.hpp"

#include <algorithm>

namespace script::ada {

EntryBase::EntryBase(runtime::Scheduler& sched, std::string name)
    : sched_(&sched), name_(std::move(name)) {
  // When the owning task crashes, every queued caller — and every later
  // one — raises TaskingError instead of waiting forever.
  crash_hook_id_ = sched_->add_crash_hook([this](ProcessId pid) {
    if (owner_ == kNoProcess || pid != owner_) return;
    owner_crashed_ = true;
    const std::deque<PendingCall*> doomed = std::move(calls_);
    calls_.clear();
    for (PendingCall* pc : doomed) {
      pc->failed = true;
      if (sched_->state_of(pc->caller) == runtime::FiberState::Blocked)
        sched_->unblock(pc->caller);
    }
  });
}

EntryBase::~EntryBase() { sched_->remove_crash_hook(crash_hook_id_); }

void EntryBase::on_call_arrived() {
  if (sched_->bus().wants(obs::Subsystem::Ada))
    sched_->bus().publish({obs::EventKind::Instant, obs::Subsystem::Ada,
                           obs::kAutoTime, sched_->current(), obs::kNoLane,
                           "entry.call", name_,
                           static_cast<double>(calls_.size())});
  if (waiting_acceptor_ != kNoProcess) {
    const ProcessId acceptor = waiting_acceptor_;
    waiting_acceptor_ = kNoProcess;
    sched_->unblock(acceptor);
    return;
  }
  // Wake the first select still parked on this entry. A waiter that was
  // already woken (by another entry or a timeout) is skipped — it will
  // rescan and deregister itself.
  for (const ProcessId w : select_waiters_) {
    if (sched_->state_of(w) == runtime::FiberState::Blocked) {
      sched_->unblock(w);
      return;
    }
  }
}

void EntryBase::wait_for_caller() {
  SCRIPT_ASSERT(waiting_acceptor_ == kNoProcess,
                "two tasks accepting the same entry " + name_);
  waiting_acceptor_ = sched_->current();
  try {
    sched_->block({"accept ", name_});
  } catch (...) {
    // Crashed while committed to this accept: withdraw the commitment
    // so a later caller does not try to wake a dead acceptor.
    if (waiting_acceptor_ == sched_->current())
      waiting_acceptor_ = kNoProcess;
    throw;
  }
}

EntryBase::PendingCall* EntryBase::take_head() {
  SCRIPT_ASSERT(!calls_.empty(), "accept_ready on empty entry " + name_);
  PendingCall* pc = calls_.front();
  calls_.pop_front();
  pc->taken = true;
  // The caller's in-parameters flow into the acceptor here — a
  // happens-before edge the eventual finish() wake does not cover.
  sched_->causal_edge(pc->caller, sched_->current(), "entry");
  if (sched_->bus().wants(obs::Subsystem::Ada))
    sched_->bus().publish({obs::EventKind::SpanBegin, obs::Subsystem::Ada,
                           obs::kAutoTime, sched_->current(), obs::kNoLane,
                           "rendezvous", name_});
  return pc;
}

void EntryBase::finish(PendingCall* pc) {
  pc->done = true;
  ++completed_;
  if (sched_->bus().wants(obs::Subsystem::Ada))
    sched_->bus().publish({obs::EventKind::SpanEnd, obs::Subsystem::Ada,
                           obs::kAutoTime, sched_->current(), obs::kNoLane,
                           "rendezvous", name_});
  // A timed caller whose deadline fired during the rendezvous is
  // already awake; it will observe `done` and take the result.
  if (sched_->state_of(pc->caller) == runtime::FiberState::Blocked)
    sched_->unblock(pc->caller);
}

bool EntryBase::acceptor_committed() const {
  if (waiting_acceptor_ != kNoProcess) return true;
  for (const ProcessId w : select_waiters_)
    if (sched_->state_of(w) == runtime::FiberState::Blocked) return true;
  return false;
}

void EntryBase::withdraw(PendingCall* pc) {
  const auto it = std::find(calls_.begin(), calls_.end(), pc);
  SCRIPT_ASSERT(it != calls_.end(),
                "withdraw: call not queued on entry " + name_);
  calls_.erase(it);
}

void EntryBase::fail_call(PendingCall* pc) {
  pc->failed = true;
  if (sched_->bus().wants(obs::Subsystem::Ada))
    sched_->bus().publish({obs::EventKind::SpanEnd, obs::Subsystem::Ada,
                           obs::kAutoTime, sched_->current(), obs::kNoLane,
                           "rendezvous", name_ + " (failed)"});
  if (sched_->state_of(pc->caller) == runtime::FiberState::Blocked)
    sched_->unblock(pc->caller);
}

void EntryBase::unwind_call(PendingCall* pc) {
  const auto it = std::find(calls_.begin(), calls_.end(), pc);
  if (it != calls_.end()) {
    calls_.erase(it);  // still queued: withdraw and die
    return;
  }
  // Taken (or being failed): the acceptor is using our stack slots. A
  // started rendezvous runs to completion — park until it has finished,
  // then resume dying. The scheduler tolerates this deferred death.
  while (pc->taken && !pc->done && !pc->failed)
    sched_->block({"entry call ", name_, " (finishing rendezvous)"},
                  owner_);
}

}  // namespace script::ada
