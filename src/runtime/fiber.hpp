// A Fiber is one lightweight process context: its own guarded stack,
// entered and left through the hand-written context switch of
// runtime/context.hpp (x86-64 assembly; ucontext elsewhere).
//
// The paper assumes CSP/Ada-style language-level processes; C++ offers
// none, so fibers are our substitute. A role body executes *on the
// enrolling process's fiber* — the paper's "logical continuation of the
// enrolling process" — which is why fibers, not helper threads, are the
// right substrate.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/context.hpp"
#include "runtime/stack.hpp"

namespace script::runtime {

/// Stable identity of a process in the simulated system.
using ProcessId = std::uint32_t;
inline constexpr ProcessId kNoProcess = static_cast<ProcessId>(-1);

/// A block reason as pieces to concatenate ("enrolling in ", name, ...).
/// The blocking primitives take this so that a park copies the text
/// into the fiber's own buffer instead of building a heap string.
using BlockReason = std::initializer_list<std::string_view>;

/// The scheduler loop's execution context: every fiber is dispatched
/// from it and switches back into it.
struct ExecContext {
  context::Context ctx;
  // ASan fake-stack handle saved while this context is switched out.
  void* asan_fake_stack = nullptr;
  // Bounds of this context's native stack, learned at first fiber entry
  // (they never change; the loop that owns the context stays put).
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
};

enum class FiberState : std::uint8_t {
  Ready,     // runnable, waiting for the scheduler to pick it
  Running,   // currently executing
  Blocked,   // parked on a wait queue / rendezvous
  Sleeping,  // parked on the virtual-time timer heap
  Done,      // body returned (or threw)
};

inline const char* fiber_state_name(FiberState s) {
  switch (s) {
    case FiberState::Ready: return "Ready";
    case FiberState::Running: return "Running";
    case FiberState::Blocked: return "Blocked";
    case FiberState::Sleeping: return "Sleeping";
    case FiberState::Done: return "Done";
  }
  return "?";
}

class Scheduler;

class Fiber {
 public:
  /// Takes ownership of `stack` (typically from the scheduler's
  /// StackPool; the scheduler reclaims it after the fiber finishes).
  Fiber(ProcessId id, std::string name, std::function<void()> body,
        Stack stack);

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  ProcessId id() const { return id_; }
  const std::string& name() const { return name_; }
  FiberState state() const { return state_; }
  void set_state(FiberState s) { state_ = s; }

  /// Why this fiber is blocked — surfaced in deadlock reports.
  const std::string& block_reason() const { return block_reason_; }
  /// The reason is the concatenation of `pieces`, written into a buffer
  /// that keeps its capacity, so a park builds no heap string.
  void set_block_reason(BlockReason pieces) {
    block_reason_.clear();
    for (const std::string_view p : pieces) block_reason_.append(p);
  }
  void clear_block_reason() { block_reason_.clear(); }

  /// Exception that escaped the body, if any (rethrown by Scheduler::run).
  std::exception_ptr failure() const { return failure_; }

  /// True when the last block_with_timeout() expired rather than being
  /// unblocked.
  bool timed_out() const { return timed_out_; }

  /// True once a FaultPlan killed this fiber (its body was unwound by
  /// FiberKilled; never reported through failure()).
  bool crashed() const { return crashed_; }

  /// True once a deadline or budget cancellation unwound this fiber's
  /// body (DeadlineExceeded / BudgetExceeded escaped uncaught). Such a
  /// fiber also reads as crashed() — cancellation feeds the same crash
  /// hooks and FailurePolicy — but cancelled() says *why*.
  bool cancelled() const { return cancelled_; }

  /// Absolute virtual-time deadline installed on this fiber, or
  /// kNoDeadline (runtime/overload.hpp) when none.
  std::uint64_t deadline() const { return deadline_; }

  /// Virtual time at which this fiber last ran (dispatch instant).
  std::uint64_t last_progress() const { return last_progress_; }

  /// Total virtual time this fiber has spent Blocked (closed spans only;
  /// a currently-blocked fiber's open span is not yet counted). Always
  /// maintained — the cost is two assignments per park — so wait-time
  /// attribution has a ground truth to check against.
  std::uint64_t blocked_ticks() const { return blocked_ticks_; }

  /// Total virtual time spent Sleeping (timer parks), closed spans
  /// only — the other half of the wait ledger. A fiber killed mid-sleep
  /// accrues the elapsed part, so causal attribution and this ledger
  /// agree on kill paths too.
  std::uint64_t slept_ticks() const { return slept_ticks_; }

  /// Who this fiber is blocked on, when the call site knows (the CSP
  /// peer, the Ada entry owner, the monitor holder, a join target).
  /// kNoProcess when unknown or not blocked. Drives the wait-for chains
  /// in deadlock reports.
  ProcessId waiting_on() const { return waiting_on_; }

 private:
  friend class Scheduler;

  /// First code on the fiber's stack (context::make's entry).
  [[noreturn]] static void entry(void* self);
  void run_body();
  /// Hand the stack back for pooling. Only valid once the fiber is Done
  /// AND control is back on the scheduler's own stack.
  Stack release_stack() { return std::move(stack_); }

  ProcessId id_;
  std::string name_;
  std::function<void()> body_;
  Stack stack_;
  context::Context ctx_;
  // ASan fake-stack handle saved while this fiber is switched out
  // (runtime/sanitizer_fiber.hpp); stays null outside sanitized builds.
  void* asan_fake_stack_ = nullptr;
  // Fibers joined on this one; woken when it finishes.
  std::vector<ProcessId> joiners_;
  FiberState state_ = FiberState::Ready;
  std::string block_reason_;
  std::exception_ptr failure_;
  Scheduler* scheduler_ = nullptr;  // set when first scheduled
  // Wake generation: bumped on every wake so a timer armed for an
  // earlier block/sleep can be recognized as stale and ignored.
  std::uint64_t wake_gen_ = 0;
  // An armed heap timer references the current wake_gen_. The scheduler
  // uses this to count how many heap entries went stale (lazy purge).
  bool timer_armed_ = false;
  // Intrusive ready-queue membership flag: lets kill paths skip the
  // queue scan entirely when the fiber is not queued (the common case).
  bool in_ready_ = false;
  bool timed_out_ = false;
  // ---- Fault-injection state (runtime/fault.hpp) ----
  bool kill_pending_ = false;   // next switch-in throws FiberKilled
  bool crashed_ = false;        // body unwound by FiberKilled
  bool crash_notified_ = false;  // crash hooks already ran
  // ---- Overload-protection state (runtime/overload.hpp) ----
  // A due deadline/budget sets a pending cancel; the next switch-in (or
  // the next blocking-primitive entry, for a fiber that was Ready when
  // it fired) throws the matching typed exception.
  enum class PendingCancel : std::uint8_t {
    None,
    Deadline,    // throws DeadlineExceeded
    StepBudget,  // throws BudgetExceeded{DispatchSteps}
    TickBudget,  // throws BudgetExceeded{VirtualTicks}
  };
  PendingCancel cancel_pending_ = PendingCancel::None;
  std::uint64_t cancel_payload_ = 0;  // expired deadline / blown limit
  bool cancelled_ = false;  // body unwound by DeadlineExceeded/BudgetExceeded
  std::uint64_t deadline_ = static_cast<std::uint64_t>(-1);      // kNoDeadline
  std::uint64_t tick_budget_due_ = static_cast<std::uint64_t>(-1);
  std::uint64_t tick_budget_limit_ = 0;  // configured ticks (for the payload)
  std::uint64_t steps_left_ = static_cast<std::uint64_t>(-1);  // step budget
  std::uint64_t step_limit_ = 0;         // configured steps (for the payload)
  std::uint64_t pending_stall_ticks_ = 0;  // consumed at next dispatch
  std::uint64_t last_progress_ = 0;        // virtual time last dispatched
  // ---- Causal accounting (always on; plain arithmetic per park) ----
  std::uint64_t blocked_ticks_ = 0;  // closed Blocked spans, summed
  std::uint64_t block_start_ = 0;    // entry time of the open Blocked span
  std::uint64_t slept_ticks_ = 0;    // closed Sleeping spans, summed
  std::uint64_t sleep_start_ = 0;    // entry time of the open Sleeping span
  ProcessId waiting_on_ = kNoProcess;  // wait-for hint for deadlock chains
  // Deregistration hook for block_with_timeout: runs at the moment the
  // timeout fires (before any other fiber can observe the stale wait
  // entry), so wakers self-clean instead of every call site doing it.
  std::function<void()> timeout_cleanup_;
};

}  // namespace script::runtime
