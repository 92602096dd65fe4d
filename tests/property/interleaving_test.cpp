// Property tests: script invariants must hold under RANDOM interleavings.
//
// Every test is parameterized over scheduler seeds; the Random policy
// explores a different interleaving per seed and each failure is
// replayable from its seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "script/instance.hpp"
#include "scripts/barrier.hpp"
#include "scripts/broadcast.hpp"
#include "scripts/two_phase_commit.hpp"

namespace {

using script::core::Initiation;
using script::core::role;
using script::core::RoleContext;
using script::core::RoleId;
using script::core::ScriptInstance;
using script::core::ScriptSpec;
using script::core::Termination;
using script::csp::Net;
using script::runtime::SchedulePolicy;
using script::runtime::Scheduler;
using script::runtime::SchedulerOptions;

Scheduler make_sched(std::uint64_t seed) {
  SchedulerOptions opts;
  opts.policy = SchedulePolicy::Random;
  opts.seed = seed;
  return Scheduler(opts);
}

class SeededInterleaving : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededInterleaving, StarBroadcastDeliversUnderAnyInterleaving) {
  auto sched = make_sched(GetParam());
  Net net(sched);
  constexpr std::size_t kN = 6;
  script::patterns::StarBroadcast<int> bc(net, kN);
  std::vector<int> got(kN, 0);
  net.spawn_process("T", [&] { bc.send(99); });
  for (std::size_t i = 0; i < kN; ++i)
    net.spawn_process("R" + std::to_string(i), [&, i] {
      got[i] = bc.receive(static_cast<int>(i));
    });
  ASSERT_TRUE(sched.run().ok()) << "seed " << GetParam();
  EXPECT_EQ(got, std::vector<int>(kN, 99)) << "seed " << GetParam();
}

TEST_P(SeededInterleaving, PipelineBroadcastDeliversUnderAnyInterleaving) {
  auto sched = make_sched(GetParam());
  Net net(sched);
  constexpr std::size_t kN = 6;
  script::patterns::PipelineBroadcast<int> bc(net, kN);
  std::vector<int> got(kN, 0);
  net.spawn_process("T", [&] { bc.send(7); });
  for (std::size_t i = 0; i < kN; ++i)
    net.spawn_process("R" + std::to_string(i), [&, i] {
      got[i] = bc.receive(static_cast<int>(i));
    });
  ASSERT_TRUE(sched.run().ok()) << "seed " << GetParam();
  EXPECT_EQ(got, std::vector<int>(kN, 7)) << "seed " << GetParam();
}

TEST_P(SeededInterleaving, PerformancesNeverOverlap) {
  // Successive-activations invariant, read off the trace: every
  // "performance k begins" must come after "performance k-1 ends".
  auto sched = make_sched(GetParam());
  sched.enable_trace_log();
  Net net(sched);
  ScriptSpec spec("s");
  spec.role("a").role("b");
  spec.initiation(Initiation::Immediate)
      .termination(Termination::Immediate);
  ScriptInstance inst(net, spec);
  inst.on_role("a", [](RoleContext& ctx) {
    ctx.scheduler().sleep_for(ctx.scheduler().rng().below(5));
  });
  inst.on_role("b", [](RoleContext& ctx) {
    ctx.scheduler().sleep_for(ctx.scheduler().rng().below(5));
  });
  constexpr int kRounds = 5;
  for (const char* r : {"a", "b"})
    for (int p = 0; p < 2; ++p)  // two processes compete per role
      net.spawn_process(std::string(r) + std::to_string(p), [&, r] {
        for (int k = 0; k < kRounds; ++k) inst.enroll(RoleId(r));
      });
  ASSERT_TRUE(sched.run().ok()) << "seed " << GetParam();

  int open = 0;
  std::uint64_t last_begun = 0, last_ended = 0;
  for (const auto& e : sched.trace().events()) {
    if (e.subject != "s") continue;
    if (e.what.find("begins") != std::string::npos) {
      EXPECT_EQ(open, 0) << "overlapping performances, seed " << GetParam();
      ++open;
      ++last_begun;
    } else if (e.what.find("ends") != std::string::npos) {
      --open;
      ++last_ended;
    }
  }
  EXPECT_EQ(open, 0);
  EXPECT_EQ(last_begun, last_ended);
  EXPECT_EQ(last_begun, 2u * kRounds);  // 2 processes/role x kRounds
}

TEST_P(SeededInterleaving, BarrierReleasesAllGenerationsTogether) {
  auto sched = make_sched(GetParam());
  Net net(sched);
  constexpr std::size_t kN = 5;
  constexpr int kGenerations = 4;
  script::patterns::Barrier barrier(net, kN);
  // pass_time[g] collects the release times of generation g.
  std::vector<std::vector<std::uint64_t>> pass_time(kGenerations + 1);
  for (std::size_t i = 0; i < kN; ++i)
    net.spawn_process("P" + std::to_string(i), [&] {
      for (int g = 0; g < kGenerations; ++g) {
        sched.sleep_for(sched.rng().below(20));
        const auto gen = barrier.arrive_and_wait();
        pass_time[gen].push_back(sched.now());
      }
    });
  ASSERT_TRUE(sched.run().ok()) << "seed " << GetParam();
  for (int g = 1; g <= kGenerations; ++g) {
    ASSERT_EQ(pass_time[static_cast<std::size_t>(g)].size(), kN)
        << "generation " << g << " seed " << GetParam();
    const auto& times = pass_time[static_cast<std::size_t>(g)];
    for (const auto t : times)
      EXPECT_EQ(t, times.front())
          << "unequal release in generation " << g << ", seed "
          << GetParam();
  }
}

TEST_P(SeededInterleaving, TwoPhaseCommitIsAtomic) {
  // All participants and the coordinator must agree on every round's
  // decision, under any interleaving, with randomized votes.
  auto sched = make_sched(GetParam());
  Net net(sched);
  constexpr std::size_t kN = 4;
  constexpr int kRounds = 6;
  script::patterns::TwoPhaseCommit tpc(net, kN);
  std::vector<std::vector<bool>> decisions(kRounds);
  std::vector<std::vector<bool>> votes(kRounds,
                                       std::vector<bool>(kN, false));
  net.spawn_process("C", [&] {
    for (int r = 0; r < kRounds; ++r)
      decisions[static_cast<std::size_t>(r)].push_back(tpc.coordinate());
  });
  for (std::size_t i = 0; i < kN; ++i)
    net.spawn_process("P" + std::to_string(i), [&, i] {
      for (int r = 0; r < kRounds; ++r) {
        decisions[static_cast<std::size_t>(r)].push_back(
            tpc.participate(static_cast<int>(i), [&, r] {
              const bool vote = sched.rng().chance(0.8);
              votes[static_cast<std::size_t>(r)][i] = vote;
              return vote;
            }));
      }
    });
  ASSERT_TRUE(sched.run().ok()) << "seed " << GetParam();
  for (int r = 0; r < kRounds; ++r) {
    const auto& d = decisions[static_cast<std::size_t>(r)];
    ASSERT_EQ(d.size(), kN + 1) << "round " << r;
    const bool expected = std::all_of(
        votes[static_cast<std::size_t>(r)].begin(),
        votes[static_cast<std::size_t>(r)].end(), [](bool v) { return v; });
    for (const bool got : d)
      EXPECT_EQ(got, expected)
          << "round " << r << " seed " << GetParam();
  }
}

TEST_P(SeededInterleaving, SameSeedSameTrace) {
  auto run_once = [&](std::uint64_t seed) {
    auto sched = make_sched(seed);
    sched.enable_trace_log();
    Net net(sched);
    script::patterns::StarBroadcast<int> bc(net, 4);
    net.spawn_process("T", [&] { bc.send(1); });
    for (int i = 0; i < 4; ++i)
      net.spawn_process("R" + std::to_string(i),
                        [&, i] { bc.receive(i); });
    EXPECT_TRUE(sched.run().ok());
    std::vector<std::string> log;
    for (const auto& e : sched.trace().events())
      log.push_back(e.subject + "/" + e.what);
    return log;
  };
  EXPECT_EQ(run_once(GetParam()), run_once(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededInterleaving,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
