// EventBus — synchronous fan-out of typed observability events.
//
// Design constraints:
//   * Zero overhead when nobody listens: producers guard event
//     construction with `wants(subsystem)`, a single bitmask test.
//   * Deterministic: subscribers run synchronously at the publish site,
//     in subscription order, so traces and logs are reproducible under
//     the FIFO scheduling policy.
//   * Self-describing lanes: script instances (and other non-fiber
//     timelines) register named lanes; exporters map them to trace
//     "threads".
//   * Forensics: an optional ring of the last N events per fiber feeds
//     deadlock reports ("how did this fiber get stuck?").
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/event.hpp"

namespace script::obs {

class EventBus {
 public:
  using Subscriber = std::function<void(const Event&)>;
  using Mask = std::uint32_t;
  using SubId = std::uint64_t;

  static constexpr Mask mask_of(Subsystem s) {
    return Mask{1} << static_cast<unsigned>(s);
  }
  static constexpr Mask kAllSubsystems =
      (Mask{1} << static_cast<unsigned>(Subsystem::kCount)) - 1;

  /// Virtual-time source used to stamp events published with kAutoTime.
  /// The owning Scheduler points this at its clock.
  void set_clock(std::function<std::uint64_t()> clock) {
    clock_ = std::move(clock);
  }

  /// Extra stamp applied to every published event after the time stamp.
  /// The CausalTracker installs one that fills Event::seq/vclock from
  /// the publishing fiber's clock. Unset (the default) costs one branch.
  void set_stamper(std::function<void(Event&)> stamper) {
    stamper_ = std::move(stamper);
  }

  /// Register `fn` for every event whose subsystem is in `mask`.
  /// Subscribers run synchronously, in subscription order, and must not
  /// block. Returns an id for unsubscribe().
  ///
  /// Both calls are reentrancy-safe: a subscriber may subscribe or
  /// unsubscribe (itself or others) from inside publish(). A subscriber
  /// added during a publish first sees the *next* event; one removed
  /// during a publish receives no further events, including the one in
  /// flight if its turn had not yet come.
  SubId subscribe(Mask mask, Subscriber fn);
  void unsubscribe(SubId id);

  /// Cheap producer-side gate: is anything listening to `s`?
  bool wants(Subsystem s) const { return (wants_ & mask_of(s)) != 0; }
  bool enabled() const { return wants_ != 0; }

  /// Deliver an event to every matching subscriber (and the history
  /// ring). Stamps `time` via the clock when it is kAutoTime.
  void publish(Event e);

  std::uint64_t published_count() const { return published_; }

  // ---- Lanes (named non-fiber timelines, e.g. script instances) ----

  /// Register a lane; returns its id. Names need not be unique.
  std::int32_t add_lane(std::string name);
  const std::string& lane_name(std::int32_t lane) const;
  std::size_t lane_count() const { return lanes_.size(); }

  // ---- Per-fiber history ring (deadlock forensics) ----

  /// Keep the last `per_fiber` events of each fiber. While enabled the
  /// bus listens to every subsystem (wants() turns true), so enable it
  /// only when the forensics are worth the tracing cost. 0 disables.
  void set_history(std::size_t per_fiber);
  std::size_t history_capacity() const { return history_cap_; }
  /// Most-recent-last events recorded for `pid` (empty if none).
  const std::deque<Event>* history_for(Pid pid) const;

 private:
  // Subs live behind unique_ptr so publish() can hold a stable pointer
  // across a reentrant subscribe() (vector reallocation). Unsubscribing
  // mid-publish tombstones the entry (`dead`); the vector is compacted
  // once the outermost publish returns, so iteration indexes stay valid
  // and the executing std::function is never destroyed under itself.
  struct Sub {
    SubId id;
    Mask mask;
    Subscriber fn;
    bool dead = false;
  };

  void recompute_wants();
  void compact_subs();

  std::vector<std::unique_ptr<Sub>> subs_;
  Mask wants_ = 0;
  SubId next_id_ = 1;
  int publish_depth_ = 0;
  bool has_dead_ = false;
  std::uint64_t published_ = 0;
  std::function<std::uint64_t()> clock_;
  std::function<void(Event&)> stamper_;
  std::vector<std::string> lanes_;
  std::size_t history_cap_ = 0;
  std::map<Pid, std::deque<Event>> history_;
};

}  // namespace script::obs
