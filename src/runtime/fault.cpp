#include "runtime/fault.hpp"

#include <algorithm>

namespace script::runtime {

FaultPlan& FaultPlan::crash_at_step(ProcessId pid, std::uint64_t step) {
  process_.push_back({ProcessFault::Kind::Crash, pid, false, step, 0, false});
  return *this;
}

FaultPlan& FaultPlan::crash_at_time(ProcessId pid, std::uint64_t when) {
  process_.push_back({ProcessFault::Kind::Crash, pid, true, when, 0, false});
  return *this;
}

FaultPlan& FaultPlan::stall_at_step(ProcessId pid, std::uint64_t step,
                                    std::uint64_t ticks) {
  process_.push_back(
      {ProcessFault::Kind::Stall, pid, false, step, ticks, false});
  return *this;
}

FaultPlan& FaultPlan::stall_at_time(ProcessId pid, std::uint64_t when,
                                    std::uint64_t ticks) {
  process_.push_back(
      {ProcessFault::Kind::Stall, pid, true, when, ticks, false});
  return *this;
}

FaultPlan& FaultPlan::drop_message(std::string tag_substr, std::uint64_t nth) {
  msgs_.push_back({MsgKind::Drop, std::move(tag_substr), nth, 0, 0, false});
  return *this;
}

FaultPlan& FaultPlan::duplicate_message(std::string tag_substr,
                                        std::uint64_t nth) {
  msgs_.push_back(
      {MsgKind::Duplicate, std::move(tag_substr), nth, 0, 0, false});
  return *this;
}

FaultPlan& FaultPlan::delay_message(std::string tag_substr, std::uint64_t nth,
                                    std::uint64_t extra_ticks) {
  msgs_.push_back(
      {MsgKind::Delay, std::move(tag_substr), nth, extra_ticks, 0, false});
  return *this;
}

std::uint64_t FaultPlan::next_time_trigger() const {
  std::uint64_t next = kNoTrigger;
  for (const ProcessFault& f : process_)
    if (!f.fired && f.by_time) next = std::min(next, f.at);
  return next;
}

bool FaultPlan::fire_rule(MsgKind kind, std::string_view tag,
                          std::uint64_t* extra) {
  for (MsgRule& r : msgs_) {
    if (r.fired || r.kind != kind) continue;
    if (tag.find(r.substr) == std::string_view::npos) continue;
    if (++r.seen < r.nth) continue;
    r.fired = true;
    if (extra != nullptr) *extra = r.extra;
    return true;
  }
  return false;
}

bool FaultPlan::should_drop(std::string_view tag) {
  return fire_rule(MsgKind::Drop, tag, nullptr);
}

bool FaultPlan::should_duplicate(std::string_view tag) {
  return fire_rule(MsgKind::Duplicate, tag, nullptr);
}

std::uint64_t FaultPlan::extra_delay(std::string_view tag) {
  std::uint64_t extra = 0;
  return fire_rule(MsgKind::Delay, tag, &extra) ? extra : 0;
}

}  // namespace script::runtime
