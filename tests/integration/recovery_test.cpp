// End-to-end recovery: supervision + role takeover + recoverable
// services (docs/ROBUSTNESS.md "Recovery").
//
//   * A supervised 2PC coordinator is crashed mid-protocol; the restart
//     re-enrolls, is readmitted into the live performance, replays its
//     WAL (in-doubt transactions presumed aborted), and every schedule
//     stays atomic and byte-for-byte replayable.
//   * A lock client that crashes while holding leased grants has them
//     reclaimed by the lease backstop.
//   * The Figure 5 lock database keeps serving across an injected
//     manager crash, with the recovery visible as causal restart and
//     takeover edges.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "csp/net.hpp"
#include "lockdb/replica.hpp"
#include "obs/event_bus.hpp"
#include "runtime/fault.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/sim_log.hpp"
#include "runtime/supervisor.hpp"
#include "scripts/lock_manager.hpp"
#include "scripts/two_phase_commit.hpp"

namespace {

using script::csp::Net;
using script::obs::Event;
using script::obs::EventBus;
using script::obs::Subsystem;
using script::patterns::LockManagerOptions;
using script::patterns::LockManagerScript;
using script::patterns::LockStatus;
using script::patterns::TwoPhaseCommit;
using script::patterns::TwoPhaseCommitOptions;
using script::runtime::FaultPlan;
using script::runtime::ProcessId;
using script::runtime::RunResult;
using script::runtime::SchedulePolicy;
using script::runtime::Scheduler;
using script::runtime::SchedulerOptions;
using script::runtime::SimLogStore;
using script::runtime::Supervisor;

SchedulerOptions seeded(std::uint64_t seed) {
  SchedulerOptions opts;
  opts.policy = SchedulePolicy::Random;
  opts.seed = seed;
  return opts;
}

std::string fingerprint(Scheduler& sched, const RunResult& result) {
  std::string out;
  for (const auto& e : sched.trace().events())
    out += std::to_string(e.time) + "|" + e.subject + "|" + e.what + "\n";
  out += "outcome=" + std::to_string(static_cast<int>(result.outcome));
  out += " t=" + std::to_string(result.final_time);
  return out;
}

// ---- Supervised recoverable 2PC ----

struct TpcRun {
  std::string fp;
  bool ok = false;
  bool p0 = false, p1 = false, coord = false;
  int coord_runs = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t restarts = 0;
  bool began = false;        // WAL has begin.1
  std::string wal_decision;  // WAL decision.1, "" if absent
};

TpcRun run_tpc_with_crash(std::uint64_t crash_step) {
  Scheduler sched(seeded(41));
  sched.enable_trace_log();
  Net net(sched);
  SimLogStore store;
  TwoPhaseCommitOptions opts;
  opts.wal = &store;
  opts.replace_coordinator = true;
  opts.takeover_deadline = 200;
  TwoPhaseCommit tpc(net, 2, "tpc", opts);
  Supervisor sup(sched);
  sup.set_spawner([&](std::string n, std::function<void()> b) {
    return net.spawn_process(std::move(n), std::move(b));
  });

  TpcRun r;
  bool decided = false;
  auto factory = [&] {
    return [&] {
      ++r.coord_runs;
      if (decided) return;  // the predecessor saw the transaction out
      r.coord = tpc.coordinate();
      decided = true;
    };
  };
  const ProcessId coord_pid = net.spawn_process("coord", factory());
  sup.supervise(coord_pid, "coord", factory);
  net.spawn_process("p0", [&] {
    r.p0 = tpc.participate(0, [] { return true; });
  });
  net.spawn_process("p1", [&] {
    r.p1 = tpc.participate(1, [] { return true; });
  });

  FaultPlan plan;
  plan.crash_at_step(coord_pid, crash_step);
  sched.install_fault_plan(plan);
  const RunResult result = sched.run();
  r.ok = result.ok();
  r.fp = fingerprint(sched, result);
  r.takeovers = tpc.instance().takeovers_completed();
  r.restarts = sup.total_restarts();
  r.began = store.open("tpc.coordinator").last("begin.1").has_value();
  if (const auto d = store.open("tpc.coordinator").last("decision.1"))
    r.wal_decision = *d;
  return r;
}

TEST(Recovery, SupervisedCoordinatorCrashSweepStaysAtomic) {
  // Crash the coordinator at every early dispatch step. Whatever the
  // instant — before enrolling, mid-prepare, after the decision — the
  // supervisor restart re-enrolls it, survivors see one decision, and
  // the run replays byte-identically.
  bool saw_in_doubt = false;
  std::uint64_t takeovers_total = 0;
  for (std::uint64_t step = 1; step <= 16; ++step) {
    const TpcRun first = run_tpc_with_crash(step);
    const TpcRun again = run_tpc_with_crash(step);
    EXPECT_EQ(first.fp, again.fp) << "nondeterministic replay, step "
                                  << step;
    ASSERT_TRUE(first.ok) << "wedged at crash step " << step;
    // Atomicity: both participants agree with the coordinator.
    EXPECT_EQ(first.p0, first.p1) << "split decision at step " << step;
    EXPECT_EQ(first.p0, first.coord) << "split decision at step " << step;
    // The WAL is the ground truth the survivors must match.
    if (!first.wal_decision.empty()) {
      EXPECT_EQ(first.coord, first.wal_decision == "commit")
          << "decision diverges from WAL at step " << step;
    }
    takeovers_total += first.takeovers;
    // In-doubt: the crash hit after begin but before the decision
    // record; the replacement presumed abort despite two YES voters.
    if (first.coord_runs >= 2 && first.began &&
        first.wal_decision == "abort") {
      saw_in_doubt = true;
      EXPECT_EQ(first.restarts, 1u);
      EXPECT_FALSE(first.coord);
    }
  }
  EXPECT_TRUE(saw_in_doubt)
      << "no crash step exercised the in-doubt presumed-abort path";
  EXPECT_GT(takeovers_total, 0u)
      << "no crash step exercised a coordinator takeover";
}

TEST(Recovery, LateCrashCommitsFromTheLog) {
  // Find a step where the decision was logged as commit before the
  // crash: the replacement must re-drive COMMIT, not presume abort.
  bool saw_logged_commit = false;
  for (std::uint64_t step = 8; step <= 24 && !saw_logged_commit; ++step) {
    const TpcRun r = run_tpc_with_crash(step);
    ASSERT_TRUE(r.ok) << "wedged at crash step " << step;
    if (r.coord_runs >= 2 && r.wal_decision == "commit") {
      saw_logged_commit = true;
      EXPECT_TRUE(r.coord);
      EXPECT_TRUE(r.p0);
      EXPECT_TRUE(r.p1);
    }
  }
  EXPECT_TRUE(saw_logged_commit)
      << "no crash step hit the window between logging and acking";
}

// ---- Lease reclamation ----

TEST(Recovery, CrashedLockClientLeasesAreReclaimed) {
  Scheduler sched(seeded(42));
  Net net(sched);
  script::lockdb::ReplicaSet rs(2, 2);
  LockManagerOptions opts;
  opts.lease_ticks = 100;
  LockManagerScript script(net, rs, "lock_script", opts);

  auto serve = [&](std::size_t i) {
    net.spawn_process("m" + std::to_string(i), [&script, i] {
      script.serve_once(i);  // performance 1: writer 7 locks
      script.serve_once(i);  // performance 2: writer 8 locks
    });
  };
  serve(0);
  serve(1);
  LockStatus second = LockStatus::Denied;
  const ProcessId w1 = net.spawn_process("w1", [&] {
    ASSERT_EQ(script.writer_lock("x", 7), LockStatus::Granted);
    sched.sleep_for(10'000);  // holds the grant, never releases
  });
  net.spawn_process("w2", [&] {
    sched.sleep_for(200);  // past the lease horizon
    second = script.writer_lock("x", 8);
  });
  FaultPlan plan;
  plan.crash_at_time(w1, 50);  // dies holding both replicas' locks
  sched.install_fault_plan(plan);
  const RunResult result = sched.run();
  ASSERT_TRUE(result.ok()) << script::runtime::describe(result, sched);

  // The stale grants expired and were reaped, not leaked: the second
  // writer got the exclusive lock on every replica.
  EXPECT_EQ(second, LockStatus::Granted);
  for (std::size_t node = 0; node < 2; ++node) {
    EXPECT_GE(rs.table(node).leases_reaped(), 1u) << "node " << node;
    EXPECT_TRUE(rs.table(node).holds("x", 8)) << "node " << node;
    EXPECT_FALSE(rs.table(node).holds("x", 7)) << "node " << node;
  }
}

// ---- Figure 5 across a manager takeover ----

struct Fig5Run {
  bool formed = false;   // the crash step produced a real takeover
  bool ok = false;
  LockStatus status = LockStatus::Denied;
  int m0_runs = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t restarts = 0;
  bool restart_edge = false;
  bool takeover_edge = false;
};

Fig5Run run_fig5_with_crash(std::uint64_t crash_step) {
  Scheduler sched(seeded(43));
  sched.enable_causal_tracking();
  Net net(sched);
  script::lockdb::ReplicaSet rs(2, 2);
  LockManagerOptions opts;
  opts.replace_on_failure = true;
  opts.takeover_deadline = 300;
  opts.lease_ticks = 500;
  LockManagerScript script(net, rs, "lock_script", opts);
  Supervisor sup(sched);
  sup.set_spawner([&](std::string n, std::function<void()> b) {
    return net.spawn_process(std::move(n), std::move(b));
  });

  Fig5Run r;
  sched.bus().subscribe(EventBus::mask_of(Subsystem::Causal),
                        [&](const Event& e) {
                          if (e.name != "flow.s") return;
                          if (e.detail == "restart") r.restart_edge = true;
                          if (e.detail == "takeover")
                            r.takeover_edge = true;
                        });
  bool served = false;
  auto m0_factory = [&] {
    return [&] {
      ++r.m0_runs;
      if (served) return;  // the predecessor finished the performance
      script.serve_once(0);
      served = true;
    };
  };
  const ProcessId m0 = net.spawn_process("m0", m0_factory());
  sup.supervise(m0, "m0", m0_factory);
  net.spawn_process("m1", [&] { script.serve_once(1); });
  net.spawn_process("writer", [&] {
    r.status = script.writer_lock("x", 7);
  });

  FaultPlan plan;
  plan.crash_at_step(m0, crash_step);
  sched.install_fault_plan(plan);
  const RunResult result = sched.run();
  r.ok = result.ok();
  r.takeovers = script.instance().takeovers_completed();
  r.restarts = sup.total_restarts();
  r.formed = r.takeovers > 0;
  return r;
}

TEST(Recovery, Fig5LockDbServesAcrossManagerTakeover) {
  // Sweep the crash instant across manager 0's early dispatches: the
  // database must grant the writer's lock in every schedule, and at
  // least one schedule must exercise the full crash → supervised
  // restart → takeover → resumed-service chain with both causal edges.
  bool saw_takeover = false;
  for (std::uint64_t step = 1; step <= 14; ++step) {
    const Fig5Run r = run_fig5_with_crash(step);
    ASSERT_TRUE(r.ok) << "wedged at crash step " << step;
    EXPECT_EQ(r.status, LockStatus::Granted)
        << "service lost at crash step " << step;
    if (r.formed && !saw_takeover) {
      saw_takeover = true;
      EXPECT_EQ(r.m0_runs, 2) << "step " << step;
      EXPECT_EQ(r.takeovers, 1u) << "step " << step;
      EXPECT_EQ(r.restarts, 1u) << "step " << step;
      EXPECT_TRUE(r.restart_edge) << "step " << step;
      EXPECT_TRUE(r.takeover_edge) << "step " << step;
    }
  }
  EXPECT_TRUE(saw_takeover)
      << "no crash step exercised a manager takeover";
}

}  // namespace
