#include "ada/select.hpp"

#include <algorithm>

#include "support/panic.hpp"

namespace script::ada {

int Select::or_else(std::function<void()> body) {
  SCRIPT_ASSERT(!has_else_, "select: two else parts");
  SCRIPT_ASSERT(!has_delay_, "select: else and delay are exclusive in Ada");
  has_else_ = true;
  else_body_ = std::move(body);
  else_index_ = static_cast<int>(cases_.size());
  return else_index_;
}

int Select::or_delay(std::uint64_t ticks, std::function<void()> body) {
  SCRIPT_ASSERT(!has_delay_, "select: two delay alternatives");
  SCRIPT_ASSERT(!has_else_, "select: else and delay are exclusive in Ada");
  has_delay_ = true;
  delay_ticks_ = ticks;
  delay_body_ = std::move(body);
  delay_index_ = static_cast<int>(cases_.size());
  return delay_index_;
}

int Select::pick_ready(const std::vector<int>& open) {
  std::vector<int> ready;
  for (const int i : open)
    if (cases_[static_cast<std::size_t>(i)].entry->ready()) ready.push_back(i);
  if (ready.empty()) return kNone;
  return ready.size() == 1
             ? ready[0]
             : ready[sched_->rng().pick_index(ready.size())];
}

int Select::run() {
  std::vector<int> open;
  for (std::size_t i = 0; i < cases_.size(); ++i)
    if (cases_[i].guard) open.push_back(static_cast<int>(i));

  if (open.empty()) {
    if (has_else_) {
      if (else_body_) else_body_();
      return else_index_;
    }
    if (has_delay_) {
      sched_->sleep_for(delay_ticks_);
      if (delay_body_) delay_body_();
      return delay_index_;
    }
    SCRIPT_PANIC("select with no open alternative and no else/delay "
                 "(Ada Program_Error)");
  }

  const int immediate = pick_ready(open);
  if (immediate != kNone) {
    cases_[static_cast<std::size_t>(immediate)].fire();
    return immediate;
  }
  if (has_else_) {
    if (else_body_) else_body_();
    return else_index_;
  }

  // Park on every open entry until a caller shows up (or the delay
  // expires). A caller's on_call_arrived() wakes us; we then rescan.
  const ProcessId me = sched_->current();
  for (const int i : open)
    cases_[static_cast<std::size_t>(i)].entry->select_waiters_.push_back(me);
  // Idempotent; also installed as the timeout hook so the registrations
  // self-clean the instant the delay expires.
  const auto deregister = [this, me, &open] {
    for (const int i : open) {
      auto& ws = cases_[static_cast<std::size_t>(i)].entry->select_waiters_;
      ws.erase(std::remove(ws.begin(), ws.end(), me), ws.end());
    }
  };

  int chosen = kNone;
  bool timed_out = false;
  const std::uint64_t deadline = sched_->now() + delay_ticks_;
  try {
    for (;;) {
      if (has_delay_) {
        const std::uint64_t now = sched_->now();
        if (now >= deadline) {
          timed_out = true;
        } else {
          timed_out = sched_->block_with_timeout(
              "select (delay)", deadline - now, deregister);
        }
      } else {
        sched_->block({"select on ", std::to_string(open.size()), " entries"});
      }
      chosen = pick_ready(open);
      if (chosen != kNone || timed_out) break;
      // Spurious wake (a caller was consumed by someone else): park again.
    }
  } catch (...) {
    deregister();  // crashed while parked: no dangling select waiters
    throw;
  }

  deregister();

  if (chosen != kNone) {
    cases_[static_cast<std::size_t>(chosen)].fire();
    return chosen;
  }
  SCRIPT_ASSERT(timed_out, "select woke with nothing ready and no timeout");
  if (delay_body_) delay_body_();
  return delay_index_;
}

}  // namespace script::ada
