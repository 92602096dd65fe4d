#include "runtime/fiber.hpp"

#include "runtime/fault.hpp"
#include "runtime/overload.hpp"
#include "runtime/scheduler.hpp"
#include "support/panic.hpp"

namespace script::runtime {

Fiber::Fiber(ProcessId id, std::string name, std::function<void()> body,
             Stack stack)
    : id_(id),
      name_(std::move(name)),
      body_(std::move(body)),
      stack_(std::move(stack)) {
  context::make(ctx_, stack_.base(), stack_.size(), &Fiber::entry, this);
}

void Fiber::entry(void* self) {
  static_cast<Fiber*>(self)->run_body();
  SCRIPT_PANIC("fiber resumed after completion");
}

void Fiber::run_body() {
  SCRIPT_ASSERT(scheduler_ != nullptr, "fiber dispatched without a scheduler");
  scheduler_->fiber_entered(*this);
  try {
    if (kill_pending_) {
      // Killed before ever being dispatched: the body never starts.
      kill_pending_ = false;
      crashed_ = true;
    } else if (cancel_pending_ != PendingCancel::None) {
      // Cancelled before ever being dispatched (a step budget of zero,
      // or a deadline already past at spawn): the body never starts.
      cancel_pending_ = PendingCancel::None;
      crashed_ = true;
      cancelled_ = true;
    } else {
      body_();
    }
  } catch (const FiberKilled&) {
    crashed_ = true;  // a crash is not a failure; nothing to rethrow
  } catch (const DeadlineExceeded&) {
    // An uncaught cancellation terminates the fiber as a crash (the
    // hooks and FailurePolicy machinery react identically); cancelled_
    // records the distinction for reports and snapshots.
    crashed_ = true;
    cancelled_ = true;
  } catch (const BudgetExceeded&) {
    crashed_ = true;
    cancelled_ = true;
  } catch (...) {
    failure_ = std::current_exception();
  }
  set_state(FiberState::Done);
  SCRIPT_ASSERT(scheduler_ != nullptr, "fiber ran without a scheduler");
  scheduler_->on_fiber_done(*this);
  // Final switch back to the dispatching context; never returns.
  scheduler_->switch_out(*this);
}

}  // namespace script::runtime
