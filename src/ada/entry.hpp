// Ada entries and the accept statement.
//
// An Entry<In, Out> is one entry of a server task: callers block in a
// FIFO queue (Ada servicing order); the owning task executes `accept`,
// which runs the accept body during the rendezvous and releases the
// caller with the out-parameters. Entry families (Figure 9's
// `start(1..m)`) are EntryFamily — an indexed vector of entries.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <optional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"
#include "support/panic.hpp"

namespace script::ada {

using runtime::kNoProcess;
using runtime::ProcessId;

/// Placeholder for "no in-parameters" / "no out-parameters".
struct Unit {};

/// Ada's TASKING_ERROR: raised in a caller whose entry call can never
/// complete — the owning task crashed (before or during the rendezvous).
class TaskingError : public std::runtime_error {
 public:
  explicit TaskingError(const std::string& entry)
      : std::runtime_error("tasking error: entry " + entry +
                           " of a dead task") {}
};

class Select;

/// Type-independent part of an entry: the caller queue and its
/// integration with accept/select.
class EntryBase {
 public:
  EntryBase(runtime::Scheduler& sched, std::string name);
  ~EntryBase();

  EntryBase(const EntryBase&) = delete;
  EntryBase& operator=(const EntryBase&) = delete;

  /// Declare which task owns (accepts) this entry. When that task
  /// crashes, queued and future callers raise TaskingError — Ada's
  /// "entry call on an abnormal task" rule.
  void owned_by(ProcessId owner) { owner_ = owner; }
  bool owner_crashed() const { return owner_crashed_; }

  /// Ada's E'COUNT: callers currently queued.
  std::size_t count() const { return calls_.size(); }
  bool ready() const { return !calls_.empty(); }
  const std::string& name() const { return name_; }
  std::uint64_t completed() const { return completed_; }

 protected:
  friend class Select;

  struct PendingCall {
    ProcessId caller;
    void* in;    // caller-stack storage
    void* out;   // caller-stack storage
    bool taken = false;  // an acceptor is executing the rendezvous
    bool done = false;
    bool failed = false;  // acceptor task died; caller raises TaskingError
  };

  /// A caller queued a call: wake whoever is waiting to accept.
  void on_call_arrived();
  /// Park the owning task until a caller arrives (plain accept).
  void wait_for_caller();
  PendingCall* take_head();
  void finish(PendingCall* pc);
  /// Is some task committed to accepting this entry right now?
  bool acceptor_committed() const;
  /// Remove a not-yet-taken call from the queue (timed-call withdrawal).
  void withdraw(PendingCall* pc);
  /// Wake `pc`'s caller with TaskingError (acceptor died mid-rendezvous).
  void fail_call(PendingCall* pc);
  /// Crash unwinding through a parked entry call: withdraw a queued
  /// call, or ride out a started rendezvous (Ada: a taken rendezvous
  /// cannot be abandoned — the caller's stack holds the parameters).
  void unwind_call(PendingCall* pc);

  runtime::Scheduler* sched_;
  std::string name_;
  std::deque<PendingCall*> calls_;
  ProcessId waiting_acceptor_ = kNoProcess;
  std::vector<ProcessId> select_waiters_;  // tasks blocked in Select
  std::uint64_t completed_ = 0;
  ProcessId owner_ = kNoProcess;
  bool owner_crashed_ = false;
  std::uint64_t crash_hook_id_ = 0;
};

template <typename In = Unit, typename Out = Unit>
class Entry : public EntryBase {
 public:
  using EntryBase::EntryBase;

  /// Entry call: `server.e(arg)`. Blocks until the rendezvous completes.
  /// Raises TaskingError if the owning task has crashed (or crashes
  /// before completing the rendezvous).
  Out call(In arg) {
    if (owner_crashed_) throw TaskingError(name_);
    Out out{};
    PendingCall pc{sched_->current(), &arg, &out, false};
    calls_.push_back(&pc);
    on_call_arrived();
    try {
      sched_->block({"entry call ", name_}, owner_);
    } catch (...) {
      unwind_call(&pc);
      throw;
    }
    if (pc.failed) throw TaskingError(name_);
    SCRIPT_ASSERT(pc.done, "entry caller woken before rendezvous end");
    return out;
  }

  Out call() requires std::is_same_v<In, Unit> { return call(Unit{}); }

  /// Ada conditional entry call (`select server.e(..); else ...`):
  /// performed only if an acceptor is ALREADY committed to this entry
  /// (a plain accept or a parked selective wait); otherwise returns
  /// nullopt immediately without queuing.
  std::optional<Out> try_call(In arg) {
    if (!acceptor_committed()) return std::nullopt;
    return call(std::move(arg));
  }
  std::optional<Out> try_call() requires std::is_same_v<In, Unit> {
    return try_call(Unit{});
  }

  /// Ada timed entry call (`select server.e(..); or delay T; ...`):
  /// gives up after `ticks` if the rendezvous has not STARTED by then.
  /// Once an acceptor takes the call, it always runs to completion
  /// (Ada: a started rendezvous cannot be timed out).
  std::optional<Out> call_with_timeout(In arg, std::uint64_t ticks) {
    if (owner_crashed_) throw TaskingError(name_);
    Out out{};
    PendingCall pc{sched_->current(), &arg, &out, false, false};
    calls_.push_back(&pc);
    on_call_arrived();
    // The queued call self-cleans if the deadline fires before an
    // acceptor takes it; a call taken at the firing instant stays.
    bool timed_out = false;
    try {
      timed_out = sched_->block_with_timeout(
          {"timed entry call ", name_}, ticks,
          [this, &pc] {
            if (!pc.taken) withdraw(&pc);
          },
          owner_);
      while (timed_out && pc.taken && !pc.done && !pc.failed) {
        // Accepted just as the timer fired: the rendezvous must finish.
        timed_out = false;
        sched_->block({"entry call ", name_, " (rendezvous in progress)"},
                      owner_);
      }
    } catch (...) {
      unwind_call(&pc);
      throw;
    }
    if (pc.failed) throw TaskingError(name_);
    if (pc.done) return out;
    SCRIPT_ASSERT(timed_out, "timed entry call woke in impossible state");
    return std::nullopt;
  }

  /// Accept statement: blocks for a caller, runs `body` as the
  /// rendezvous (in the acceptor's context), releases the caller.
  void accept(const std::function<Out(In&)>& body) {
    if (calls_.empty()) wait_for_caller();
    accept_ready(body);
  }

  /// Accept with a caller known to be queued (used by Select).
  void accept_ready(const std::function<Out(In&)>& body) {
    PendingCall* pc = take_head();
    try {
      *static_cast<Out*>(pc->out) = body(*static_cast<In*>(pc->in));
    } catch (...) {
      // Acceptor died mid-rendezvous: the caller raises TaskingError
      // (Ada 9.5: abnormal completion of the called task).
      fail_call(pc);
      throw;
    }
    finish(pc);
  }
};

/// An indexed family of entries sharing one name: `start(i)`.
template <typename In = Unit, typename Out = Unit>
class EntryFamily {
 public:
  EntryFamily(runtime::Scheduler& sched, const std::string& name,
              std::size_t n) {
    entries_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      entries_.push_back(std::make_unique<Entry<In, Out>>(
          sched, name + "(" + std::to_string(i) + ")"));
  }

  Entry<In, Out>& operator[](std::size_t i) {
    SCRIPT_ASSERT(i < entries_.size(), "entry family index out of range");
    return *entries_[i];
  }
  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<std::unique_ptr<Entry<In, Out>>> entries_;
};

}  // namespace script::ada
