// Failure-semantics integration suite (docs/ROBUSTNESS.md).
//
// Two kinds of test live here:
//
//  * the FAULT MATRIX — each pattern script's cast is crashed at every
//    dispatch step in a sweep, and the whole run (trace + outcome) must
//    be byte-identical when repeated with the same seed and plan: fault
//    injection keeps the determinism story intact;
//  * curated scenarios pinning one semantic rule each — performance
//    abort and the next generation, the Degrade policy's distinguished
//    value, Ada's TaskingError, monitor hand-off from a dead holder,
//    lossy-link message faults, DistributedCast suspicion, and the
//    timer-vs-crash same-instant regressions.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ada/entry.hpp"
#include "ada/task.hpp"
#include "monitor/monitor.hpp"
#include "runtime/fault.hpp"
#include "runtime/sim_log.hpp"
#include "script/distributed.hpp"
#include "script/instance.hpp"
#include "scripts/auction.hpp"
#include "scripts/barrier.hpp"
#include "scripts/broadcast.hpp"
#include "scripts/two_phase_commit.hpp"

namespace {

using script::core::CastFaultOptions;
using script::core::DistributedCast;
using script::core::FailurePolicy;
using script::core::Initiation;
using script::core::RoleContext;
using script::core::RoleId;
using script::core::ScriptInstance;
using script::core::ScriptSpec;
using script::core::Termination;
using script::csp::CommError;
using script::csp::Net;
using script::runtime::FaultPlan;
using script::runtime::ProcessId;
using script::runtime::RunResult;
using script::runtime::SchedulePolicy;
using script::runtime::Scheduler;
using script::runtime::SchedulerOptions;

SchedulerOptions seeded(std::uint64_t seed) {
  SchedulerOptions opts;
  opts.policy = SchedulePolicy::Random;
  opts.seed = seed;
  return opts;
}

/// The whole observable run as one string: every trace event plus the
/// outcome. Byte-equality of two of these is the determinism oracle.
std::string fingerprint(Scheduler& sched, const RunResult& result) {
  std::string out;
  for (const auto& e : sched.trace().events())
    out += std::to_string(e.time) + "|" + e.subject + "|" + e.what + "\n";
  out += "outcome=" + std::to_string(static_cast<int>(result.outcome));
  out += " t=" + std::to_string(result.final_time);
  return out;
}

// ---- The fault matrix ----
//
// For each pattern: run the scenario with member `victim` crashed at
// dispatch step `step`, twice, and require identical fingerprints.
// Every (victim × step) cell is exercised; steps past the program's end
// simply never fire (the fault-free tail of the sweep).

constexpr std::uint64_t kSweepSteps = 10;

void sweep(const std::function<std::string(std::size_t victim,
                                           std::uint64_t step)>& run,
           std::size_t cast_size) {
  for (std::size_t victim = 0; victim < cast_size; ++victim) {
    for (std::uint64_t step = 1; step <= kSweepSteps; ++step) {
      const std::string first = run(victim, step);
      const std::string second = run(victim, step);
      ASSERT_EQ(first, second)
          << "non-deterministic run: victim=" << victim
          << " step=" << step;
    }
  }
}

TEST(FaultMatrix, BarrierCrashSweepIsDeterministic) {
  sweep(
      [](std::size_t victim, std::uint64_t step) {
        Scheduler sched(seeded(11));
        sched.enable_trace_log();
        Net net(sched);
        script::patterns::Barrier barrier(net, 3);
        std::vector<ProcessId> pids;
        for (int i = 0; i < 3; ++i)
          pids.push_back(net.spawn_process(
              "m" + std::to_string(i), [&] { barrier.arrive_and_wait(); }));
        FaultPlan plan;
        plan.crash_at_step(pids[victim], step);
        sched.install_fault_plan(plan);
        const RunResult result = sched.run();
        return fingerprint(sched, result);
      },
      3);
}

TEST(FaultMatrix, BroadcastCrashSweepIsDeterministic) {
  sweep(
      [](std::size_t victim, std::uint64_t step) {
        Scheduler sched(seeded(12));
        sched.enable_trace_log();
        Net net(sched);
        script::patterns::StarBroadcast<int> bc(net, 2);
        std::vector<ProcessId> pids;
        pids.push_back(
            net.spawn_process("sender", [&] { bc.send(99); }));
        for (int i = 0; i < 2; ++i)
          pids.push_back(net.spawn_process("recv" + std::to_string(i),
                                           [&, i] { (void)bc.receive(i); }));
        FaultPlan plan;
        plan.crash_at_step(pids[victim], step);
        sched.install_fault_plan(plan);
        const RunResult result = sched.run();
        return fingerprint(sched, result);
      },
      3);
}

TEST(FaultMatrix, AuctionCrashSweepIsDeterministic) {
  sweep(
      [](std::size_t victim, std::uint64_t step) {
        Scheduler sched(seeded(13));
        sched.enable_trace_log();
        Net net(sched);
        script::patterns::Auction auction(net, 2);
        std::vector<ProcessId> pids;
        pids.push_back(
            net.spawn_process("seller", [&] { auction.sell(10); }));
        pids.push_back(
            net.spawn_process("bid0", [&] { auction.bid(0, 15); }));
        pids.push_back(
            net.spawn_process("bid1", [&] { auction.bid(1, 20); }));
        FaultPlan plan;
        plan.crash_at_step(pids[victim], step);
        sched.install_fault_plan(plan);
        const RunResult result = sched.run();
        return fingerprint(sched, result);
      },
      3);
}

TEST(FaultMatrix, TwoPhaseCommitCrashSweepIsDeterministic) {
  sweep(
      [](std::size_t victim, std::uint64_t step) {
        Scheduler sched(seeded(14));
        sched.enable_trace_log();
        Net net(sched);
        script::patterns::TwoPhaseCommit tpc(net, 2);
        std::vector<ProcessId> pids;
        pids.push_back(
            net.spawn_process("coord", [&] { tpc.coordinate(); }));
        for (int i = 0; i < 2; ++i)
          pids.push_back(net.spawn_process(
              "part" + std::to_string(i),
              [&, i] { tpc.participate(i, [] { return true; }); }));
        FaultPlan plan;
        plan.crash_at_step(pids[victim], step);
        sched.install_fault_plan(plan);
        const RunResult result = sched.run();
        return fingerprint(sched, result);
      },
      3);
}

TEST(FaultMatrix, TwoPhaseCommitSurvivesEveryMidProtocolCrash) {
  // Beyond determinism: once the performance has formed, a crash of any
  // member at any later step must leave the survivors live (the Degrade
  // recovery path) — never a wedged run.
  for (std::size_t victim = 0; victim < 3; ++victim) {
    // Step 4 is past formation for this cast under the fixed seed; the
    // sweep then covers the whole protocol tail.
    for (std::uint64_t step = 4; step <= 30; ++step) {
      Scheduler sched(seeded(14));
      Net net(sched);
      script::patterns::TwoPhaseCommit tpc(net, 2);
      std::vector<ProcessId> pids;
      bool coord_done = false;
      pids.push_back(net.spawn_process("coord", [&] {
        tpc.coordinate();
        coord_done = true;
      }));
      for (int i = 0; i < 2; ++i)
        pids.push_back(net.spawn_process(
            "part" + std::to_string(i),
            [&, i] { tpc.participate(i, [] { return true; }); }));
      FaultPlan plan;
      plan.crash_at_step(pids[victim], step);
      sched.install_fault_plan(plan);
      const RunResult result = sched.run();
      ASSERT_TRUE(result.ok())
          << "victim=" << victim << " step=" << step << "\n"
          << script::runtime::describe(result, sched);
      if (victim != 0) {
        EXPECT_TRUE(coord_done || sched.has_crashed(pids[0]));
      }
    }
  }
}

// ---- Replace-policy fault matrix (docs/ROBUSTNESS.md "Recovery") ----
//
// The same determinism oracle, but the scripts hold crashed roles open
// for takeover and a SPARE process stands by: when the instance
// announces TakeoverBegan, the spare enrolls for the vacated role and
// is readmitted into the live performance. Whatever a (victim, step)
// cell produces — takeover, deadline fallback, or a pre-formation
// wedge — the replay must be byte-identical.

void spawn_spare(Net& net, ScriptInstance& inst,
                 std::function<void(const RoleId&)> enroll) {
  auto vacated = std::make_shared<std::optional<RoleId>>();
  inst.observe([vacated](const script::core::ScriptEvent& e) {
    if (e.kind == script::core::ScriptEvent::Kind::TakeoverBegan)
      *vacated = e.role;
  });
  Scheduler* sched = &net.scheduler();
  net.spawn_process("spare",
                    [sched, vacated, enroll = std::move(enroll)] {
                      // Bounded watch, well inside the 64-tick takeover
                      // deadline; exits (instead of wedging the run)
                      // when no takeover ever opens.
                      for (int i = 0; i < 12; ++i) {
                        if (vacated->has_value()) {
                          enroll(**vacated);
                          return;
                        }
                        sched->sleep_for(4);
                      }
                    });
}

TEST(ReplaceMatrix, BarrierTakeoverSweepIsDeterministic) {
  sweep(
      [](std::size_t victim, std::uint64_t step) {
        Scheduler sched(seeded(21));
        sched.enable_trace_log();
        Net net(sched);
        script::patterns::Barrier barrier(net, 3, "barrier",
                                          FailurePolicy::Replace, 64);
        std::vector<ProcessId> pids;
        for (int i = 0; i < 3; ++i)
          pids.push_back(net.spawn_process(
              "m" + std::to_string(i), [&] { barrier.arrive_and_wait(); }));
        spawn_spare(net, barrier.instance(),
                    [&](const RoleId&) { barrier.arrive_and_wait(); });
        FaultPlan plan;
        plan.crash_at_step(pids[victim], step);
        sched.install_fault_plan(plan);
        const RunResult result = sched.run();
        return fingerprint(sched, result);
      },
      3);
}

TEST(ReplaceMatrix, BroadcastTakeoverSweepIsDeterministic) {
  sweep(
      [](std::size_t victim, std::uint64_t step) {
        Scheduler sched(seeded(22));
        sched.enable_trace_log();
        Net net(sched);
        script::patterns::StarBroadcast<int> bc(
            net, 2, "star", FailurePolicy::Replace, 64);
        std::vector<ProcessId> pids;
        pids.push_back(net.spawn_process("sender", [&] { bc.send(99); }));
        for (int i = 0; i < 2; ++i)
          pids.push_back(net.spawn_process("recv" + std::to_string(i),
                                           [&, i] { (void)bc.receive(i); }));
        spawn_spare(net, bc.instance(), [&](const RoleId& r) {
          if (r.name == "sender")
            bc.send(99);
          else
            (void)bc.receive(r.index);
        });
        FaultPlan plan;
        plan.crash_at_step(pids[victim], step);
        sched.install_fault_plan(plan);
        const RunResult result = sched.run();
        return fingerprint(sched, result);
      },
      3);
}

TEST(ReplaceMatrix, AuctionTakeoverSweepIsDeterministic) {
  sweep(
      [](std::size_t victim, std::uint64_t step) {
        Scheduler sched(seeded(23));
        sched.enable_trace_log();
        Net net(sched);
        script::patterns::Auction auction(net, 2, "auction",
                                          FailurePolicy::Replace, 64);
        std::vector<ProcessId> pids;
        pids.push_back(
            net.spawn_process("seller", [&] { auction.sell(10); }));
        pids.push_back(
            net.spawn_process("bid0", [&] { auction.bid(0, 15); }));
        pids.push_back(
            net.spawn_process("bid1", [&] { auction.bid(1, 20); }));
        // Only the auctioneer is replaceable; a replacement voids the
        // round (presumed no-sale) and releases the bidders.
        spawn_spare(net, auction.instance(),
                    [&](const RoleId&) { auction.sell(10); });
        FaultPlan plan;
        plan.crash_at_step(pids[victim], step);
        sched.install_fault_plan(plan);
        const RunResult result = sched.run();
        return fingerprint(sched, result);
      },
      3);
}

TEST(ReplaceMatrix, TwoPhaseCommitTakeoverSweepIsDeterministic) {
  sweep(
      [](std::size_t victim, std::uint64_t step) {
        Scheduler sched(seeded(24));
        sched.enable_trace_log();
        Net net(sched);
        script::patterns::TwoPhaseCommitOptions opts;
        opts.replace_coordinator = true;
        opts.takeover_deadline = 64;
        script::patterns::TwoPhaseCommit tpc(net, 2, "tpc", opts);
        std::vector<ProcessId> pids;
        pids.push_back(
            net.spawn_process("coord", [&] { tpc.coordinate(); }));
        for (int i = 0; i < 2; ++i)
          pids.push_back(net.spawn_process(
              "part" + std::to_string(i),
              [&, i] { tpc.participate(i, [] { return true; }); }));
        spawn_spare(net, tpc.instance(),
                    [&](const RoleId&) { tpc.coordinate(); });
        FaultPlan plan;
        plan.crash_at_step(pids[victim], step);
        sched.install_fault_plan(plan);
        const RunResult result = sched.run();
        return fingerprint(sched, result);
      },
      3);
}

TEST(ReplaceMatrix, TwoPhaseCommitReplaceSurvivesMidProtocolCrashes) {
  // Liveness on top of determinism: past formation, every crash cell
  // must resolve — a crashed coordinator is replaced by the spare
  // (replaying its WAL: in-doubt presumes abort, a logged decision is
  // re-driven) or the deadline degrades the survivors; a crashed
  // participant degrades immediately.
  for (std::size_t victim = 0; victim < 3; ++victim) {
    // Step 4 is past formation for this cast under the fixed seed.
    for (std::uint64_t step = 4; step <= 30; ++step) {
      Scheduler sched(seeded(24));
      Net net(sched);
      script::runtime::SimLogStore store;
      script::patterns::TwoPhaseCommitOptions opts;
      opts.wal = &store;
      opts.replace_coordinator = true;
      opts.takeover_deadline = 64;
      script::patterns::TwoPhaseCommit tpc(net, 2, "tpc", opts);
      std::vector<ProcessId> pids;
      pids.push_back(
          net.spawn_process("coord", [&] { tpc.coordinate(); }));
      bool p0 = false, p1 = false;
      pids.push_back(net.spawn_process(
          "part0", [&] { p0 = tpc.participate(0, [] { return true; }); }));
      pids.push_back(net.spawn_process(
          "part1", [&] { p1 = tpc.participate(1, [] { return true; }); }));
      spawn_spare(net, tpc.instance(),
                  [&](const RoleId&) { tpc.coordinate(); });
      FaultPlan plan;
      plan.crash_at_step(pids[victim], step);
      sched.install_fault_plan(plan);
      const RunResult result = sched.run();
      ASSERT_TRUE(result.ok())
          << "victim=" << victim << " step=" << step << "\n"
          << script::runtime::describe(result, sched);
      // Atomicity holds in every cell: surviving participants agree.
      if (victim != 1 && victim != 2) {
        EXPECT_EQ(p0, p1);
      }
    }
  }
}

// ---- Performance abort (FailurePolicy::Abort, the default) ----

TEST(FailureSemantics, CrashAbortsPerformanceAndNextGenerationStarts) {
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("pair");
  spec.role("a").role("b");
  spec.initiation(Initiation::Delayed).termination(Termination::Delayed);
  ScriptInstance inst(net, spec);
  inst.on_role("a", [](RoleContext& ctx) {
    // Three exchanges; the partner dies after the first.
    for (int i = 0; i < 3; ++i) {
      auto r = ctx.recv<int>(RoleId("b"));
      if (!r.has_value()) return;
    }
  });
  inst.on_role("b", [](RoleContext& ctx) {
    (void)ctx.send(RoleId("a"), 1);
    ctx.scheduler().sleep_for(1000);  // killed during this nap
    (void)ctx.send(RoleId("a"), 2);
  });

  bool survivor_aborted = false;
  net.spawn_process("A1", [&] {
    survivor_aborted = inst.enroll(RoleId("a")).aborted;
  });
  const ProcessId doomed =
      net.spawn_process("B1", [&] { inst.enroll(RoleId("b")); });
  // Generation 2: two fresh processes arrive after the crash.
  bool gen2_aborted = true;
  std::uint64_t gen2_number = 0;
  net.spawn_process("A2", [&] {
    sched.sleep_for(200);
    const auto r = inst.enroll(RoleId("a"));
    gen2_aborted = r.aborted;
    gen2_number = r.performance;
  });
  net.spawn_process("B2", [&] {
    sched.sleep_for(200);
    inst.enroll(RoleId("b"));
  });

  FaultPlan plan;
  plan.crash_at_time(doomed, 50);
  sched.install_fault_plan(plan);
  const RunResult result = sched.run();
  ASSERT_TRUE(result.ok()) << script::runtime::describe(result, sched);
  EXPECT_TRUE(survivor_aborted);
  EXPECT_FALSE(gen2_aborted);
  EXPECT_EQ(gen2_number, 2u);
  EXPECT_EQ(inst.performances_aborted(), 1u);
  EXPECT_EQ(inst.performances_completed(), 1u);  // only generation 2
  EXPECT_EQ(inst.queue_length(), 0u);
}

TEST(FailureSemantics, DegradeGivesTheDistinguishedValue) {
  // §II generalized: under Degrade the failed role reads exactly like a
  // role that was never filled — terminated(r) true, communication
  // yields the distinguished value — and the performance completes.
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("pair");
  spec.role("a").role("b");
  spec.initiation(Initiation::Delayed).termination(Termination::Delayed);
  spec.on_failure(FailurePolicy::Degrade);
  ScriptInstance inst(net, spec);
  bool got_distinguished = false;
  bool saw_terminated = false;
  bool saw_failed = false;
  inst.on_role("a", [&](RoleContext& ctx) {
    auto r = ctx.recv<int>(RoleId("b"));
    got_distinguished = !r.has_value();
    saw_terminated = ctx.terminated(RoleId("b"));
    saw_failed = ctx.failed(RoleId("b"));
  });
  inst.on_role("b", [](RoleContext& ctx) {
    ctx.scheduler().sleep_for(1000);  // killed before ever sending
    (void)ctx.send(RoleId("a"), 1);
  });

  bool survivor_aborted = true;
  net.spawn_process("A", [&] {
    survivor_aborted = inst.enroll(RoleId("a")).aborted;
  });
  const ProcessId doomed =
      net.spawn_process("B", [&] { inst.enroll(RoleId("b")); });
  FaultPlan plan;
  plan.crash_at_time(doomed, 50);
  sched.install_fault_plan(plan);
  const RunResult result = sched.run();
  ASSERT_TRUE(result.ok()) << script::runtime::describe(result, sched);
  EXPECT_TRUE(got_distinguished);
  EXPECT_TRUE(saw_terminated);
  EXPECT_TRUE(saw_failed);
  EXPECT_FALSE(survivor_aborted);
  EXPECT_EQ(inst.performances_completed(), 1u);
  EXPECT_EQ(inst.performances_aborted(), 0u);
}

TEST(FailureSemantics, CrashWhileQueuedWithdrawsTheRequest) {
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("pair");
  spec.role("a").role("b");
  spec.initiation(Initiation::Delayed).termination(Termination::Delayed);
  ScriptInstance inst(net, spec);
  inst.on_role("a", [](RoleContext&) {});
  inst.on_role("b", [](RoleContext&) {});

  // Only one enroller, killed while queued: the request must leave the
  // queue with it (no dead process may be bound by a later formation).
  const ProcessId doomed =
      net.spawn_process("A", [&] { inst.enroll(RoleId("a")); });
  FaultPlan plan;
  plan.crash_at_time(doomed, 10);
  sched.install_fault_plan(plan);
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(inst.queue_length(), 0u);
  EXPECT_EQ(inst.performances_completed(), 0u);
}

// ---- Message faults (lossy links) ----

TEST(MessageFaults, DroppedMessageLeavesReceiverWaiting) {
  Scheduler sched;
  Net net(sched);
  FaultPlan plan;
  plan.drop_message("data", 1);
  sched.install_fault_plan(plan);
  bool send_ok = false;
  bool first_timed_out = false;
  int second = 0;
  const ProcessId rx = net.spawn_process("rx", [&] {
    auto r1 = net.recv_for<int>(1, "data", 50);
    first_timed_out =
        !r1.has_value() && r1.error() == CommError::TimedOut;
    auto r2 = net.recv<int>(1, "data");
    second = r2.has_value() ? *r2 : -1;
  });
  (void)rx;
  net.spawn_process("tx", [&] {
    // The dropped send still "succeeds" from the sender's side.
    send_ok = net.send(0, "data", 7).has_value();
    sched.sleep_for(100);  // past the receiver's deadline
    send_ok = net.send(0, "data", 8).has_value() && send_ok;
  });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_TRUE(send_ok);
  EXPECT_TRUE(first_timed_out);
  EXPECT_EQ(second, 8);
}

TEST(MessageFaults, DuplicateDeliversASpareCopy) {
  Scheduler sched;
  Net net(sched);
  FaultPlan plan;
  plan.duplicate_message("data", 1);
  sched.install_fault_plan(plan);
  std::vector<int> got;
  net.spawn_process("rx", [&] {
    for (int i = 0; i < 2; ++i) {
      auto r = net.recv<int>(1, "data");
      ASSERT_TRUE(r.has_value());
      got.push_back(*r);
    }
  });
  net.spawn_process("tx",
                    [&] { ASSERT_TRUE(net.send(0, "data", 5).has_value()); });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(got, (std::vector<int>{5, 5}));
}

TEST(MessageFaults, DelayChargesExtraTicks) {
  auto finish_time = [](bool with_delay) {
    Scheduler sched;
    Net net(sched);
    if (with_delay) {
      FaultPlan plan;
      plan.delay_message("data", 1, 70);
      sched.install_fault_plan(plan);
    }
    std::uint64_t done_at = 0;
    net.spawn_process("rx", [&] {
      ASSERT_TRUE(net.recv<int>(1, "data").has_value());
      done_at = sched.now();
    });
    net.spawn_process("tx",
                      [&] { ASSERT_TRUE(net.send(0, "data", 1).has_value()); });
    EXPECT_TRUE(sched.run().ok());
    return done_at;
  };
  const std::uint64_t base = finish_time(false);
  const std::uint64_t delayed = finish_time(true);
  EXPECT_EQ(delayed, base + 70);
}

// ---- Ada: TaskingError ----

TEST(AdaFaults, CrashedOwnerFailsQueuedAndFutureCallers) {
  Scheduler sched;
  script::ada::Entry<int, int> e(sched, "serve");
  bool queued_got_error = false;
  bool late_got_error = false;
  script::ada::Task owner(sched, "owner", [&] {
    sched.sleep_for(1000);  // killed before ever accepting
    e.accept([](int& x) { return x; });
  });
  e.owned_by(owner.id());
  script::ada::Task queued(sched, "queued", [&] {
    try {
      e.call(1);
    } catch (const script::ada::TaskingError&) {
      queued_got_error = true;
    }
  });
  script::ada::Task late(sched, "late", [&] {
    sched.sleep_for(100);  // calls only after the owner is dead
    try {
      e.call(2);
    } catch (const script::ada::TaskingError&) {
      late_got_error = true;
    }
  });
  FaultPlan plan;
  plan.crash_at_time(owner.id(), 50);
  sched.install_fault_plan(plan);
  const RunResult result = sched.run();
  ASSERT_TRUE(result.ok()) << script::runtime::describe(result, sched);
  EXPECT_TRUE(queued_got_error);
  EXPECT_TRUE(late_got_error);
}

// ---- Monitor: a dead holder must pass the monitor on ----

TEST(MonitorFaults, CrashedHolderReleasesTheMonitor) {
  Scheduler sched;
  script::monitor::Monitor mon(sched, "m");
  bool second_entered = false;
  const ProcessId holder = sched.spawn("holder", [&] {
    mon.with([&] { sched.sleep_for(1000); });  // killed mid-hold
  });
  sched.spawn("contender", [&] {
    sched.sleep_for(10);
    mon.with([&] { second_entered = true; });
  });
  FaultPlan plan;
  plan.crash_at_time(holder, 20);
  sched.install_fault_plan(plan);
  const RunResult result = sched.run();
  ASSERT_TRUE(result.ok()) << script::runtime::describe(result, sched);
  EXPECT_TRUE(second_entered);
  EXPECT_FALSE(mon.held());
}

// ---- DistributedCast: timed rounds and suspicion ----

TEST(DistributedCastFaults, SilentMemberIsSuspectedDeterministically) {
  auto run_once = [] {
    Scheduler sched(seeded(21));
    Net net(sched);
    std::vector<ProcessId> pids(3);
    std::vector<std::uint64_t> gens(3, 0);
    DistributedCast cast(net, {0, 1, 2}, "dc");
    CastFaultOptions opts;
    opts.timeout_ticks = 40;
    opts.max_attempts = 3;
    cast.set_fault_options(opts);
    for (std::size_t i = 0; i < 3; ++i)
      pids[i] = net.spawn_process("m" + std::to_string(i), [&, i] {
        gens[i] = cast.enroll(i);
        cast.complete(i);
      });
    FaultPlan plan;
    plan.crash_at_step(pids[2], 2);  // dies inside the enroll round
    sched.install_fault_plan(plan);
    const RunResult result = sched.run();
    EXPECT_TRUE(result.ok()) << script::runtime::describe(result, sched);
    EXPECT_TRUE(cast.is_suspected(2));
    EXPECT_FALSE(cast.is_suspected(0));
    EXPECT_FALSE(cast.is_suspected(1));
    EXPECT_EQ(gens[0], 1u);
    EXPECT_EQ(gens[1], 1u);
    return std::to_string(sched.now()) + "/" +
           std::to_string(cast.messages());
  };
  EXPECT_EQ(run_once(), run_once());  // suspicion instant is reproducible
}

// ---- Same-instant regressions: a timeout and a crash on one tick ----

TEST(SameInstant, EnrollDeadlineVsPartnerCrash) {
  // The enrollment deadline and the only partner's crash land on the
  // same tick. The timer resolves first: the request self-cleans and
  // enroll_for returns nullopt — exactly once, no double wake.
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("pair");
  spec.role("a").role("b");
  spec.initiation(Initiation::Delayed).termination(Termination::Delayed);
  ScriptInstance inst(net, spec);
  inst.on_role("a", [](RoleContext&) {});
  inst.on_role("b", [](RoleContext&) {});

  std::optional<script::core::EnrollResult> r;
  net.spawn_process("A", [&] { r = inst.enroll_for(RoleId("a"), 30); });
  const ProcessId doomed = net.spawn_process("B", [&] {
    sched.sleep_for(1000);  // never actually enrolls
    inst.enroll(RoleId("b"));
  });
  FaultPlan plan;
  plan.crash_at_time(doomed, 30);
  sched.install_fault_plan(plan);
  ASSERT_TRUE(sched.run().ok());
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(inst.queue_length(), 0u);
}

TEST(SameInstant, TimedEntryCallVsOwnerCrash) {
  // The caller's deadline and the owner's crash coincide: the timer
  // wins, the call is withdrawn, and the caller gets nullopt — not
  // TaskingError, and never both.
  Scheduler sched;
  script::ada::Entry<int, int> e(sched, "serve");
  bool timed_out = false;
  bool tasking_error = false;
  script::ada::Task owner(sched, "owner", [&] {
    sched.sleep_for(1000);
    e.accept([](int& x) { return x; });
  });
  e.owned_by(owner.id());
  script::ada::Task caller(sched, "caller", [&] {
    try {
      timed_out = !e.call_with_timeout(1, 40).has_value();
    } catch (const script::ada::TaskingError&) {
      tasking_error = true;
    }
  });
  FaultPlan plan;
  plan.crash_at_time(owner.id(), 40);
  sched.install_fault_plan(plan);
  const RunResult result = sched.run();
  ASSERT_TRUE(result.ok()) << script::runtime::describe(result, sched);
  EXPECT_TRUE(timed_out);
  EXPECT_FALSE(tasking_error);
}

TEST(SameInstant, RecvTimeoutVsSenderCrash) {
  // recv_for's deadline equals the sender's crash instant: the timer
  // fires first and the receiver reports TimedOut (never a double wake,
  // never a lost cleanup).
  Scheduler sched;
  Net net(sched);
  bool timed_out = false;
  net.spawn_process("rx", [&] {
    auto r = net.recv_for<int>(1, "data", 60);
    timed_out = !r.has_value() && r.error() == CommError::TimedOut;
  });
  const ProcessId tx = net.spawn_process("tx", [&] {
    sched.sleep_for(1000);  // never sends
    (void)net.send(0, "data", 1);
  });
  FaultPlan plan;
  plan.crash_at_time(tx, 60);
  sched.install_fault_plan(plan);
  ASSERT_TRUE(sched.run().ok());
  EXPECT_TRUE(timed_out);
}

}  // namespace
