// Deterministic fault injection.
//
// A FaultPlan is a seeded-run's failure script: crash fiber 3 after the
// 17th dispatch, stall fiber 1 for 40 ticks at t=100, drop the 2nd
// message whose tag contains "vote". The Scheduler fires process faults
// at exact dispatch-step or virtual-time triggers; csp::Net consults the
// plan at each rendezvous for message faults. Because every trigger is
// keyed to the deterministic virtual clock / dispatch counter (never
// wall time), a fixed seed plus a fixed plan reproduces the identical
// failing run — the property the fault-schedule explorer and the
// fault-matrix regression suite are built on.
//
// Crash semantics: the victim fiber is unwound *synchronously* at the
// firing instant with a FiberKilled exception, so every RAII guard on
// its stack (parked CSP offers, wait-queue entries, monitor holds, Ada
// call registrations) deregisters before any other fiber can observe
// stale state. After the unwind, registered crash hooks run (csp::Net
// uses one to fail the peers of the dead process like PeerTerminated).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/fiber.hpp"

namespace script::runtime {

inline constexpr std::uint64_t kNoTrigger =
    std::numeric_limits<std::uint64_t>::max();

/// Thrown inside a fiber the FaultPlan kills. Deliberately NOT derived
/// from std::exception: a crash is not a program failure (the scheduler
/// records the fiber as crashed, not failed), and user-level catch(...)
/// blocks in role bodies are expected to rethrow it untouched.
struct FiberKilled {
  ProcessId pid = kNoProcess;
};

class FaultPlan {
 public:
  // ---- Process faults (fired by the Scheduler) ----

  /// Kill `pid` once the scheduler has performed `step` dispatches
  /// (step 0 = before the first dispatch).
  FaultPlan& crash_at_step(ProcessId pid, std::uint64_t step);
  /// Kill `pid` at virtual time `when` (the clock advances to `when`
  /// even if no timer is due then).
  FaultPlan& crash_at_time(ProcessId pid, std::uint64_t when);
  /// Freeze `pid` for `ticks` of virtual time starting at its first
  /// dispatch after the trigger.
  FaultPlan& stall_at_step(ProcessId pid, std::uint64_t step,
                           std::uint64_t ticks);
  FaultPlan& stall_at_time(ProcessId pid, std::uint64_t when,
                           std::uint64_t ticks);

  // ---- Message faults (consulted by csp::Net at transfer instants) ----
  // Rules are one-shot and count *completed transfer opportunities*: the
  // nth rendezvous whose tag contains `tag_substr` is affected.

  /// Lose the message: the sender believes it delivered (and pays
  /// latency); the receiver keeps waiting.
  FaultPlan& drop_message(std::string tag_substr, std::uint64_t nth = 1);
  /// Deliver the message, then deliver a spare copy to the receiver's
  /// next matching receive (an in-flight duplicate).
  FaultPlan& duplicate_message(std::string tag_substr, std::uint64_t nth = 1);
  /// Charge `extra_ticks` on top of the LatencyModel for one transfer.
  FaultPlan& delay_message(std::string tag_substr, std::uint64_t nth,
                           std::uint64_t extra_ticks);

  bool empty() const { return process_.empty() && msgs_.empty(); }
  bool has_message_faults() const { return !msgs_.empty(); }

  // ---- Scheduler-side queries ----

  struct ProcessFault {
    enum class Kind : std::uint8_t { Crash, Stall };
    Kind kind = Kind::Crash;
    ProcessId pid = kNoProcess;
    bool by_time = false;    // trigger on virtual time, else dispatch step
    std::uint64_t at = 0;    // step count or virtual time
    std::uint64_t ticks = 0;  // stall duration
    bool fired = false;
  };
  std::vector<ProcessFault>& process_faults() { return process_; }
  /// Earliest unfired virtual-time trigger, or kNoTrigger. The clock
  /// advances to it like a timer deadline.
  std::uint64_t next_time_trigger() const;

  // ---- Net-side queries (each call advances the rule counters; call
  //      exactly once per transfer decision) ----

  bool should_drop(std::string_view tag);
  bool should_duplicate(std::string_view tag);
  /// Extra ticks to charge this transfer (0 when no delay rule fires).
  std::uint64_t extra_delay(std::string_view tag);

 private:
  enum class MsgKind : std::uint8_t { Drop, Duplicate, Delay };
  struct MsgRule {
    MsgKind kind;
    std::string substr;
    std::uint64_t nth;    // fire on the nth matching transfer
    std::uint64_t extra;  // Delay only
    std::uint64_t seen = 0;
    bool fired = false;
  };

  /// Advance counters of every unfired `kind` rule matching `tag`;
  /// true (with the rule's `extra`) if one fires.
  bool fire_rule(MsgKind kind, std::string_view tag, std::uint64_t* extra);

  std::vector<ProcessFault> process_;
  std::vector<MsgRule> msgs_;
};

}  // namespace script::runtime
