// Parallel (M:N work-stealing) execution mode: the same Scheduler API,
// SchedulerOptions::workers > 0. Each test exercises one slice of the
// protocol — group placement and inheritance, the park-commit window,
// cross-group wakes, the global quiescence clock — and the Stress
// fixtures at the bottom are the TSan targets (the CI thread-sanitizer
// job runs this whole file).
#include "runtime/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "csp/net.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/sim_link.hpp"
#include "scripts/lock_manager.hpp"

namespace {

using script::runtime::GroupId;
using script::runtime::ProcessId;
using script::runtime::RunResult;
using script::runtime::Scheduler;
using script::runtime::SchedulerOptions;

SchedulerOptions parallel_opts(std::size_t workers,
                               std::size_t quantum = 0,
                               std::uint64_t seed = 1) {
  SchedulerOptions opts;
  opts.workers = workers;
  opts.group_quantum = quantum;
  opts.seed = seed;
  return opts;
}

TEST(Parallel, RunsSingleFiberToCompletion) {
  Scheduler sched(parallel_opts(2));
  EXPECT_TRUE(sched.parallel_mode());
  EXPECT_EQ(sched.worker_count(), 2u);
  bool ran = false;
  sched.spawn("solo", [&] { ran = true; });
  const auto result = sched.run();
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(ran);
  EXPECT_EQ(result.steps, 1u);
}

TEST(Parallel, AllFibersAcrossGroupsComplete) {
  Scheduler sched(parallel_opts(4));
  std::atomic<int> done{0};
  for (int g = 0; g < 8; ++g) {
    const GroupId gid = sched.new_group();
    for (int i = 0; i < 25; ++i)
      sched.spawn_in_group(gid, "f", [&] {
        sched.yield();
        done.fetch_add(1, std::memory_order_relaxed);
      });
  }
  EXPECT_TRUE(sched.run().ok());
  EXPECT_EQ(done.load(), 200);
}

TEST(Parallel, SpawnInheritsSpawnersGroup) {
  Scheduler sched(parallel_opts(2));
  const GroupId gid = sched.new_group();
  GroupId child_group = 0;
  ProcessId child = script::runtime::kNoProcess;
  sched.spawn_in_group(gid, "parent", [&] {
    child = sched.spawn("child", [] {});
    child_group = sched.group_of(child);
  });
  EXPECT_TRUE(sched.run().ok());
  EXPECT_EQ(child_group, gid);
}

TEST(Parallel, PerGroupOrderIsFifo) {
  // One group ≡ one deterministic sub-scheduler: fibers of a group are
  // dispatched FIFO by whichever worker holds it, so the classic
  // round-robin-across-yields order survives verbatim.
  Scheduler sched(parallel_opts(4));
  const GroupId gid = sched.new_group();
  std::vector<std::string> order;
  for (const char* name : {"a", "b", "c"}) {
    sched.spawn_in_group(gid, name, [&, name] {
      order.push_back(name);
      sched.yield();
      order.push_back(name);
    });
  }
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(order,
            (std::vector<std::string>{"a", "b", "c", "a", "b", "c"}));
}

TEST(Parallel, BlockAndUnblockAcrossGroups) {
  Scheduler sched(parallel_opts(2));
  const GroupId g1 = sched.new_group();
  const GroupId g2 = sched.new_group();
  std::atomic<bool> woke{false};
  const ProcessId sleeper = sched.spawn_in_group(g1, "sleeper", [&] {
    sched.block("waiting for cross-group waker");
    woke = true;
  });
  sched.spawn_in_group(g2, "waker", [&] { sched.unblock(sleeper); });
  EXPECT_TRUE(sched.run().ok());
  EXPECT_TRUE(woke.load());
}

TEST(Parallel, JoinAcrossGroupsSeesTargetWrites) {
  Scheduler sched(parallel_opts(4));
  const GroupId g1 = sched.new_group();
  const GroupId g2 = sched.new_group();
  int value = 0;  // written by target, read by joiner: join orders this
  const ProcessId target = sched.spawn_in_group(g1, "target", [&] {
    sched.yield();
    value = 42;
  });
  std::atomic<int> seen{0};
  sched.spawn_in_group(g2, "joiner", [&] {
    sched.join(target);
    seen = value;
  });
  EXPECT_TRUE(sched.run().ok());
  EXPECT_EQ(seen.load(), 42);
}

TEST(Parallel, SleepAdvancesGlobalVirtualClock) {
  Scheduler sched(parallel_opts(2));
  const GroupId g1 = sched.new_group();
  const GroupId g2 = sched.new_group();
  std::atomic<std::uint64_t> at_wake{0};
  sched.spawn_in_group(g1, "short", [&] { sched.sleep_for(10); });
  sched.spawn_in_group(g2, "long", [&] {
    sched.sleep_for(250);
    at_wake = sched.now();
  });
  const auto result = sched.run();
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(at_wake.load(), 250u);
  EXPECT_EQ(result.final_time, 250u);
}

TEST(Parallel, BlockWithTimeoutFiresWhenNobodyWakes) {
  Scheduler sched(parallel_opts(2));
  std::atomic<bool> timed_out{false};
  std::atomic<bool> cleanup_ran{false};
  sched.spawn("waiter", [&] {
    timed_out = sched.block_with_timeout(
        "nobody is coming", 50, [&] { cleanup_ran = true; });
  });
  EXPECT_TRUE(sched.run().ok());
  EXPECT_TRUE(timed_out.load());
  EXPECT_TRUE(cleanup_ran.load());
}

TEST(Parallel, BlockWithTimeoutWokenEarlyDoesNotTimeOut) {
  Scheduler sched(parallel_opts(2));
  const GroupId g1 = sched.new_group();
  const GroupId g2 = sched.new_group();
  std::atomic<bool> timed_out{true};
  const ProcessId waiter = sched.spawn_in_group(g1, "waiter", [&] {
    timed_out = sched.block_with_timeout("waker is coming", 1000, nullptr);
  });
  sched.spawn_in_group(g2, "waker", [&] {
    sched.sleep_for(5);
    sched.unblock(waiter);
  });
  EXPECT_TRUE(sched.run().ok());
  EXPECT_FALSE(timed_out.load());
}

TEST(Parallel, FailurePropagatesToRun) {
  Scheduler sched(parallel_opts(4));
  for (int g = 0; g < 4; ++g) {
    const GroupId gid = sched.new_group();
    sched.spawn_in_group(gid, "worker", [&, g] {
      sched.yield();
      if (g == 2) throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(sched.run(), std::runtime_error);
}

TEST(Parallel, DeadlockDetectedAtQuiescence) {
  Scheduler sched(parallel_opts(2));
  const GroupId g1 = sched.new_group();
  const GroupId g2 = sched.new_group();
  sched.spawn_in_group(g1, "stuck", [&] { sched.block("waiting forever"); });
  sched.spawn_in_group(g2, "fine", [&] { sched.sleep_for(3); });
  const auto result = sched.run();
  EXPECT_EQ(result.outcome, RunResult::Outcome::Deadlock);
  ASSERT_EQ(result.blocked.size(), 1u);
  EXPECT_EQ(result.blocked[0].second, "waiting forever");
}

TEST(Parallel, SchedulerIsReusableAcrossRuns) {
  Scheduler sched(parallel_opts(2));
  std::atomic<int> total{0};
  for (int round = 0; round < 3; ++round) {
    const GroupId gid = sched.new_group();
    for (int i = 0; i < 10; ++i)
      sched.spawn_in_group(gid, "f", [&] {
        sched.yield();
        total.fetch_add(1, std::memory_order_relaxed);
      });
    EXPECT_TRUE(sched.run().ok());
  }
  EXPECT_EQ(total.load(), 30);
}

TEST(Parallel, CspRendezvousStaysInsideOneGroup) {
  // One Net per group: a Net's matching tables are unlocked, so groups
  // running on different workers must never share one.
  Scheduler sched(parallel_opts(4));
  constexpr int kGroups = 6;
  constexpr int kMsgs = 20;
  std::vector<std::unique_ptr<script::csp::Net>> nets;
  std::atomic<int> received{0};
  for (int g = 0; g < kGroups; ++g) {
    nets.push_back(std::make_unique<script::csp::Net>(sched));
    script::csp::Net& net = *nets.back();
    const GroupId gid = sched.new_group();
    const ProcessId rx =
        net.spawn_process_in_group(gid, "rx" + std::to_string(g), [&] {
          for (int m = 0; m < kMsgs; ++m) {
            auto r = net.recv_any<int>("m");
            ASSERT_TRUE(r.has_value());
            received.fetch_add(1, std::memory_order_relaxed);
          }
        });
    net.spawn_process_in_group(gid, "tx" + std::to_string(g), [&, rx] {
      for (int m = 0; m < kMsgs; ++m) ASSERT_TRUE(net.send(rx, "m", m));
    });
  }
  EXPECT_TRUE(sched.run().ok());
  EXPECT_EQ(received.load(), kGroups * kMsgs);
  for (const auto& net : nets)
    EXPECT_EQ(net->rendezvous_count(), static_cast<std::uint64_t>(kMsgs));
}

// ---- TSan stress targets ------------------------------------------------
// group_quantum=1 forces a group back onto the shard queue after every
// dispatch, maximising migration; different seeds randomise each
// worker's steal sweep, so successive runs interleave differently.

TEST(ParallelStress, ChurnWavesWithQuantumOne) {
  // The C7 churn shape: repeated waves of short-lived fibers through
  // one scheduler, here scattered over many groups with stealing at its
  // most aggressive.
  Scheduler sched(parallel_opts(4, /*quantum=*/1, /*seed=*/0xc7));
  std::atomic<int> done{0};
  constexpr int kWaves = 5;
  constexpr int kGroupsPerWave = 8;
  constexpr int kFibersPerGroup = 30;
  for (int w = 0; w < kWaves; ++w) {
    for (int g = 0; g < kGroupsPerWave; ++g) {
      const GroupId gid = sched.new_group();
      for (int i = 0; i < kFibersPerGroup; ++i)
        sched.spawn_in_group(gid, "c", [&] {
          sched.yield();
          sched.sleep_for(1);
          done.fetch_add(1, std::memory_order_relaxed);
        });
    }
    ASSERT_TRUE(sched.run().ok());
  }
  EXPECT_EQ(done.load(), kWaves * kGroupsPerWave * kFibersPerGroup);
}

TEST(ParallelStress, LockDbPerformancesAcrossGroups) {
  // The fig. 5 lock-manager script — a full script performance with
  // enrollment, the k-manager protocol, and latency-charged rendezvous
  // — run as several independent replicas, one per group, with
  // quantum=1 migration underneath.
  Scheduler sched(parallel_opts(4, /*quantum=*/1, /*seed=*/0xf5));
  script::runtime::UniformLatency lat(1);
  constexpr std::size_t kReplicas = 3;
  constexpr std::size_t kManagers = 2;
  constexpr int kRounds = 5;

  struct Cell {
    std::unique_ptr<script::csp::Net> net;
    std::unique_ptr<script::lockdb::ReplicaSet> replicas;
    std::unique_ptr<script::patterns::LockManagerScript> locks;
  };
  std::vector<Cell> cells(kReplicas);
  std::atomic<int> granted{0};
  for (std::size_t c = 0; c < kReplicas; ++c) {
    Cell& cell = cells[c];
    cell.net = std::make_unique<script::csp::Net>(sched);
    cell.net->set_latency_model(&lat);
    cell.replicas =
        std::make_unique<script::lockdb::ReplicaSet>(kManagers, kManagers);
    cell.locks = std::make_unique<script::patterns::LockManagerScript>(
        *cell.net, *cell.replicas);
    const GroupId gid = sched.new_group();
    const int total_requests = kRounds * 4;
    for (std::size_t m = 0; m < kManagers; ++m)
      cell.net->spawn_process_in_group(
          gid, "M" + std::to_string(m), [&cell, m, total_requests] {
            for (int r = 0; r < total_requests; ++r)
              cell.locks->serve_once(m);
          });
    cell.net->spawn_process_in_group(gid, "client", [&cell, &granted] {
      for (int r = 0; r < kRounds; ++r) {
        const std::string item = "item" + std::to_string(r % 2);
        if (cell.locks->reader_lock(item, 1) ==
            script::patterns::LockStatus::Granted)
          granted.fetch_add(1, std::memory_order_relaxed);
        cell.locks->reader_release(item, 1);
        if (cell.locks->writer_lock(item, 2) ==
            script::patterns::LockStatus::Granted)
          granted.fetch_add(1, std::memory_order_relaxed);
        cell.locks->writer_release(item, 2);
      }
    });
  }
  EXPECT_TRUE(sched.run().ok());
  // A sequential client per replica conflicts with nobody: all granted.
  EXPECT_EQ(granted.load(), static_cast<int>(kReplicas) * kRounds * 2);
  for (Cell& cell : cells)
    EXPECT_GT(cell.locks->instance().performances_completed(), 0u);
}

TEST(ParallelStress, CrossGroupJoinAndTimerStorm) {
  // Hammers the park-commit window from the two directions that are
  // legal cross-group: join (whose waker may catch the joiner still
  // Running — the wake-before-park race) and timed parks (whose timers
  // race the quiescence clock). Chains of joiners span groups, each
  // link sleeping a pseudo-random tick count before retiring.
  Scheduler sched(parallel_opts(4, /*quantum=*/1, /*seed=*/0xabc));
  constexpr int kChains = 6;
  constexpr int kLinks = 10;
  std::atomic<int> retired{0};
  for (int c = 0; c < kChains; ++c) {
    ProcessId prev = script::runtime::kNoProcess;
    for (int l = 0; l < kLinks; ++l) {
      const GroupId gid = sched.new_group();
      const bool first = l == 0;
      const auto ticks = static_cast<std::uint64_t>((c * 7 + l * 3) % 5);
      prev = sched.spawn_in_group(gid, "link", [&, prev, first, ticks] {
        if (!first) sched.join(prev);
        sched.sleep_for(ticks);
        (void)sched.block_with_timeout("always times out", ticks + 1,
                                       nullptr);
        retired.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_TRUE(sched.run().ok());
  EXPECT_EQ(retired.load(), kChains * kLinks);
}

}  // namespace
