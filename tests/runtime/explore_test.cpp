// Tests for the exhaustive-interleaving explorer, including verifying
// script invariants over EVERY schedule of small casts (§V's
// "verification of concurrent programs using scripts").
#include "runtime/explore.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "csp/net.hpp"
#include "script/instance.hpp"
#include "scripts/broadcast.hpp"

namespace {

using script::csp::Net;
using script::runtime::explore_interleavings;
using script::runtime::ExploreOptions;
using script::runtime::RunResult;
using script::runtime::Scheduler;

TEST(Explore, CountsInterleavingsOfIndependentFibers) {
  // Two fibers, each yielding once: schedules = orderings of 4 slots
  // with per-fiber order fixed = C(4,2) = 6... but decision points with
  // one ready fiber don't branch; exact count depends on when both are
  // ready. Just require: >1 interleaving, terminates, all complete.
  std::set<std::string> orders;
  std::shared_ptr<std::string> order;
  const auto stats = explore_interleavings(
      [&](Scheduler& sched) {
        order = std::make_shared<std::string>();
        auto o = order;
        sched.spawn("a", [&sched, o] {
          *o += 'a';
          sched.yield();
          *o += 'A';
        });
        sched.spawn("b", [&sched, o] {
          *o += 'b';
          sched.yield();
          *o += 'B';
        });
      },
      [&](Scheduler&, const RunResult& r) {
        EXPECT_TRUE(r.ok());
        orders.insert(*order);  // final order of the completed run
      });
  EXPECT_TRUE(stats.complete);
  EXPECT_GT(stats.interleavings, 1u);
  // Per-fiber program order must hold in every observed interleaving.
  for (const auto& o : orders) {
    EXPECT_LT(o.find('a'), o.find('A')) << o;
    EXPECT_LT(o.find('b'), o.find('B')) << o;
  }
}

TEST(Explore, SingleFiberHasOneInterleaving) {
  const auto stats = explore_interleavings(
      [](Scheduler& sched) {
        sched.spawn("solo", [&sched] {
          sched.yield();
          sched.yield();
        });
      },
      [](Scheduler&, const RunResult& r) { EXPECT_TRUE(r.ok()); });
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.interleavings, 1u);
}

TEST(Explore, FindsTheRacyInterleaving) {
  // A deliberately broken "lock": test-and-set with a yield between
  // test and set (no spin — see the loop limitation in explore.hpp).
  // Exploration must find an interleaving where both fibers pass the
  // test before either sets the flag.
  bool race_found = false;
  const auto stats = explore_interleavings(
      [&](Scheduler& sched) {
        auto locked = std::make_shared<bool>(false);
        auto inside = std::make_shared<int>(0);
        for (const char* name : {"p", "q"})
          sched.spawn(name, [&sched, locked, inside, &race_found] {
            if (*locked) return;  // test...
            sched.yield();        // (the hole)
            *locked = true;       // ...and set
            ++*inside;
            if (*inside == 2) race_found = true;
            sched.yield();
            --*inside;
            *locked = false;
          });
      },
      [](Scheduler&, const RunResult& r) { EXPECT_TRUE(r.ok()); });
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.truncated_runs, 0u);
  EXPECT_TRUE(race_found) << "exploration missed the race";
}

TEST(Explore, StepBoundTruncatesDivergentSchedules) {
  // One spinning fiber + one finisher: the schedule that starves the
  // finisher is infinite; the step bound must cut it and exploration
  // must still terminate (possibly incomplete).
  const auto stats = explore_interleavings(
      [](Scheduler& sched) {
        auto done = std::make_shared<bool>(false);
        sched.spawn("spin", [&sched, done] {
          while (!*done) sched.yield();
        });
        sched.spawn("finisher", [done] { *done = true; });
      },
      [](Scheduler&, const RunResult&) {},
      ExploreOptions{.max_runs = 200,
                     .max_steps_per_run = 40,
                     .stack_bytes = 128 * 1024});
  EXPECT_GT(stats.truncated_runs, 0u);
  EXPECT_LE(stats.interleavings, 200u);
}

TEST(Explore, BroadcastInvariantHoldsUnderAllInterleavings) {
  // Exhaustively verify Figure 3's observable behaviour for a small
  // cast: every recipient receives exactly the sender's datum, in
  // EVERY schedule.
  std::shared_ptr<std::vector<int>> got;
  const auto stats = explore_interleavings(
      [&got](Scheduler& sched) {
        auto net = std::make_shared<Net>(sched);
        auto bc = std::make_shared<script::patterns::StarBroadcast<int>>(
            *net, 1);
        got = std::make_shared<std::vector<int>>();
        auto sink = got;
        net->spawn_process("T", [bc, net] { bc->send(7); });
        net->spawn_process("R0",
                           [bc, net, sink] { sink->push_back(bc->receive(0)); });
      },
      [&got](Scheduler&, const RunResult& r) {
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(*got, (std::vector<int>{7}));
      },
      ExploreOptions{.max_runs = 100000, .stack_bytes = 128 * 1024});
  EXPECT_TRUE(stats.complete) << "state space larger than expected: "
                              << stats.interleavings;
  EXPECT_GE(stats.interleavings, 2u);
}

TEST(Explore, SuccessiveActivationInvariantExhaustively) {
  // Two competing enrollers per role of a 2-role script: in every
  // schedule, performances must never overlap.
  using script::core::Initiation;
  using script::core::RoleContext;
  using script::core::RoleId;
  using script::core::ScriptInstance;
  using script::core::ScriptSpec;
  using script::core::Termination;
  const auto stats = explore_interleavings(
      [](Scheduler& sched) {
        sched.enable_trace_log();
        auto net = std::make_shared<Net>(sched);
        ScriptSpec spec("s");
        spec.role("a").role("b");
        spec.initiation(Initiation::Immediate)
            .termination(Termination::Immediate);
        auto inst = std::make_shared<ScriptInstance>(*net, spec);
        inst->on_role("a", [](RoleContext&) {});
        inst->on_role("b", [](RoleContext&) {});
        // Two competitors for role a (forcing two performances), one
        // enroller for b per performance — small enough to exhaust.
        for (int p = 0; p < 2; ++p)
          net->spawn_process("a" + std::to_string(p), [inst, net] {
            inst->enroll(RoleId("a"));
          });
        net->spawn_process("b0", [inst, net] {
          inst->enroll(RoleId("b"));
          inst->enroll(RoleId("b"));
        });
      },
      [](Scheduler& sched, const RunResult& r) {
        EXPECT_TRUE(r.ok());
        int open = 0;
        for (const auto& e : sched.trace().events()) {
          if (e.subject != "s") continue;
          if (e.what.find("begins") != std::string::npos) {
            EXPECT_EQ(open, 0) << "overlap!";
            ++open;
          } else if (e.what.find("ends") != std::string::npos) {
            --open;
          }
        }
        EXPECT_EQ(open, 0);
      },
      ExploreOptions{.max_runs = 500000, .stack_bytes = 128 * 1024});
  EXPECT_TRUE(stats.complete)
      << "explored " << stats.interleavings << " without finishing";
}

TEST(Explore, RespectsRunCap) {
  const auto stats = explore_interleavings(
      [](Scheduler& sched) {
        for (int f = 0; f < 4; ++f)
          sched.spawn("f" + std::to_string(f), [&sched] {
            for (int i = 0; i < 4; ++i) sched.yield();
          });
      },
      [](Scheduler&, const RunResult&) {},
      ExploreOptions{.max_runs = 50, .stack_bytes = 128 * 1024});
  EXPECT_FALSE(stats.complete);
  EXPECT_EQ(stats.interleavings, 50u);
}

}  // namespace
