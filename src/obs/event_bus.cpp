#include "obs/event_bus.hpp"

#include <algorithm>

#include "support/panic.hpp"

namespace script::obs {

const char* subsystem_name(Subsystem s) {
  switch (s) {
    case Subsystem::Scheduler: return "scheduler";
    case Subsystem::Script: return "script";
    case Subsystem::Csp: return "csp";
    case Subsystem::Ada: return "ada";
    case Subsystem::Monitor: return "monitor";
    case Subsystem::Lock: return "lock";
    case Subsystem::Link: return "link";
    case Subsystem::User: return "user";
    case Subsystem::Fault: return "fault";
    case Subsystem::Causal: return "causal";
    case Subsystem::Recovery: return "recovery";
    case Subsystem::Health: return "health";
    case Subsystem::Overload: return "overload";
    case Subsystem::kCount: break;
  }
  return "unknown";
}

bool vclock_less(const std::vector<std::uint64_t>& a,
                 const std::vector<std::uint64_t>& b) {
  bool strictly = false;
  for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    const std::uint64_t av = i < a.size() ? a[i] : 0;
    const std::uint64_t bv = i < b.size() ? b[i] : 0;
    if (av > bv) return false;
    if (av < bv) strictly = true;
  }
  return strictly;
}

EventBus::SubId EventBus::subscribe(Mask mask, Subscriber fn) {
  SCRIPT_ASSERT(fn != nullptr, "EventBus::subscribe with null subscriber");
  const SubId id = next_id_++;
  subs_.push_back(std::make_unique<Sub>(Sub{id, mask, std::move(fn), false}));
  recompute_wants();
  return id;
}

void EventBus::unsubscribe(SubId id) {
  const auto it = std::find_if(
      subs_.begin(), subs_.end(),
      [id](const std::unique_ptr<Sub>& s) { return s->id == id && !s->dead; });
  SCRIPT_ASSERT(it != subs_.end(), "EventBus::unsubscribe: unknown id");
  if (publish_depth_ > 0) {
    // Called from inside a subscriber: tombstone now, compact later.
    (*it)->dead = true;
    has_dead_ = true;
  } else {
    subs_.erase(it);
  }
  recompute_wants();
}

void EventBus::compact_subs() {
  subs_.erase(std::remove_if(subs_.begin(), subs_.end(),
                             [](const std::unique_ptr<Sub>& s) {
                               return s->dead;
                             }),
              subs_.end());
  has_dead_ = false;
}

void EventBus::publish(Event e) {
  if (e.time == kAutoTime) e.time = clock_ ? clock_() : 0;
  if (stamper_) stamper_(e);
  ++published_;
  const Mask bit = mask_of(e.subsystem);
  // Index loop with a size snapshot: subscribers added during this
  // publish (indexes >= n) first see the next event, and the stable
  // unique_ptr storage keeps `s` valid across a reallocating subscribe.
  ++publish_depth_;
  const std::size_t n = subs_.size();
  for (std::size_t i = 0; i < n; ++i) {
    Sub* s = subs_[i].get();
    if (!s->dead && (s->mask & bit)) s->fn(e);
  }
  if (--publish_depth_ == 0 && has_dead_) compact_subs();
  if (history_cap_ != 0 && e.pid != kNoPid) {
    auto& ring = history_[e.pid];
    ring.push_back(std::move(e));
    if (ring.size() > history_cap_) ring.pop_front();
  }
}

std::int32_t EventBus::add_lane(std::string name) {
  lanes_.push_back(std::move(name));
  return static_cast<std::int32_t>(lanes_.size()) - 1;
}

const std::string& EventBus::lane_name(std::int32_t lane) const {
  SCRIPT_ASSERT(lane >= 0 &&
                    static_cast<std::size_t>(lane) < lanes_.size(),
                "EventBus::lane_name: unknown lane");
  return lanes_[static_cast<std::size_t>(lane)];
}

void EventBus::set_history(std::size_t per_fiber) {
  history_cap_ = per_fiber;
  if (per_fiber == 0) history_.clear();
  recompute_wants();
}

const std::deque<Event>* EventBus::history_for(Pid pid) const {
  const auto it = history_.find(pid);
  return it == history_.end() ? nullptr : &it->second;
}

void EventBus::recompute_wants() {
  Mask m = history_cap_ != 0 ? kAllSubsystems : 0;
  for (const auto& s : subs_)
    if (!s->dead) m |= s->mask;
  wants_ = m;
}

}  // namespace script::obs
