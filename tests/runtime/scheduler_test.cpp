#include "runtime/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/wait_queue.hpp"

namespace {

using script::runtime::ProcessId;
using script::runtime::RunResult;
using script::runtime::SchedulePolicy;
using script::runtime::Scheduler;
using script::runtime::SchedulerOptions;

TEST(Scheduler, RunsSingleFiberToCompletion) {
  Scheduler sched;
  bool ran = false;
  sched.spawn("solo", [&] { ran = true; });
  const auto result = sched.run();
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(ran);
  EXPECT_EQ(result.steps, 1u);
}

TEST(Scheduler, FifoIsRoundRobinAcrossYields) {
  Scheduler sched;
  std::vector<std::string> order;
  for (const char* name : {"a", "b", "c"}) {
    sched.spawn(name, [&, name] {
      order.push_back(name);
      sched.yield();
      order.push_back(name);
    });
  }
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(order,
            (std::vector<std::string>{"a", "b", "c", "a", "b", "c"}));
}

TEST(Scheduler, RandomPolicyIsSeedDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    SchedulerOptions opts;
    opts.policy = SchedulePolicy::Random;
    opts.seed = seed;
    Scheduler sched(opts);
    std::vector<int> order;
    for (int i = 0; i < 6; ++i)
      sched.spawn("p" + std::to_string(i), [&, i] {
        order.push_back(i);
        sched.yield();
        order.push_back(i + 100);
      });
    EXPECT_TRUE(sched.run().ok());
    return order;
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

TEST(Scheduler, BlockAndUnblock) {
  Scheduler sched;
  bool woke = false;
  ProcessId sleeper = 0;
  sleeper = sched.spawn("sleeper", [&] {
    sched.block("waiting for waker");
    woke = true;
  });
  sched.spawn("waker", [&] { sched.unblock(sleeper); });
  EXPECT_TRUE(sched.run().ok());
  EXPECT_TRUE(woke);
}

TEST(Scheduler, DeadlockDetectedAndReported) {
  Scheduler sched;
  sched.spawn("stuck", [&] { sched.block("waiting for godot"); });
  const auto result = sched.run();
  EXPECT_EQ(result.outcome, RunResult::Outcome::Deadlock);
  ASSERT_EQ(result.blocked.size(), 1u);
  EXPECT_EQ(result.blocked[0].second, "waiting for godot");
}

TEST(Scheduler, VirtualTimeAdvancesOnSleep) {
  Scheduler sched;
  std::uint64_t t_mid = 0, t_end = 0;
  sched.spawn("timer", [&] {
    sched.sleep_for(10);
    t_mid = sched.now();
    sched.sleep_for(5);
    t_end = sched.now();
  });
  const auto result = sched.run();
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(t_mid, 10u);
  EXPECT_EQ(t_end, 15u);
  EXPECT_EQ(result.final_time, 15u);
}

TEST(Scheduler, SleepersInterleaveByDueTime) {
  Scheduler sched;
  std::vector<std::string> order;
  sched.spawn("late", [&] {
    sched.sleep_for(20);
    order.push_back("late");
  });
  sched.spawn("early", [&] {
    sched.sleep_for(5);
    order.push_back("early");
  });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(order, (std::vector<std::string>{"early", "late"}));
}

TEST(Scheduler, SleepZeroActsAsYield) {
  Scheduler sched;
  std::vector<int> order;
  sched.spawn("a", [&] {
    order.push_back(1);
    sched.sleep_for(0);
    order.push_back(3);
  });
  sched.spawn("b", [&] { order.push_back(2); });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 0u);
}

TEST(Scheduler, JoinWaitsForCompletion) {
  Scheduler sched;
  std::vector<std::string> order;
  const ProcessId worker = sched.spawn("worker", [&] {
    sched.sleep_for(100);
    order.push_back("worker done");
  });
  sched.spawn("boss", [&] {
    sched.join(worker);
    order.push_back("boss resumed");
  });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(order,
            (std::vector<std::string>{"worker done", "boss resumed"}));
}

TEST(Scheduler, JoinOnFinishedFiberReturnsImmediately) {
  Scheduler sched;
  const ProcessId quick = sched.spawn("quick", [] {});
  bool resumed = false;
  sched.spawn("boss", [&] {
    sched.yield();  // let quick finish first
    sched.join(quick);
    resumed = true;
  });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_TRUE(resumed);
}

TEST(Scheduler, DynamicSpawnFromFiber) {
  Scheduler sched;
  bool child_ran = false;
  sched.spawn("parent", [&] {
    const ProcessId child = sched.spawn("child", [&] { child_ran = true; });
    sched.join(child);
  });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_TRUE(child_ran);
  EXPECT_EQ(sched.spawned_count(), 2u);
}

TEST(Scheduler, ExceptionInFiberPropagatesFromRun) {
  Scheduler sched;
  sched.spawn("thrower", [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(sched.run(), std::runtime_error);
}

TEST(Scheduler, TraceEventsStampVirtualTime) {
  Scheduler sched;
  sched.enable_trace_log();
  sched.spawn("A", [&] {
    sched.trace_event(sched.current(), "starts");
    sched.sleep_for(7);
    sched.trace_event(sched.current(), "wakes");
  });
  ASSERT_TRUE(sched.run().ok());
  const auto& events = sched.trace().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time, 0u);
  EXPECT_EQ(events[1].time, 7u);
  EXPECT_EQ(events[1].subject, "A");
}

TEST(Scheduler, LiveCountTracksCompletion) {
  Scheduler sched;
  sched.spawn("a", [] {});
  sched.spawn("b", [] {});
  EXPECT_EQ(sched.live_count(), 2u);
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(sched.live_count(), 0u);
}

TEST(Scheduler, ManyFibersComplete) {
  Scheduler sched;
  int done = 0;
  for (int i = 0; i < 500; ++i)
    sched.spawn("w" + std::to_string(i), [&] {
      sched.yield();
      ++done;
    });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(done, 500);
}

TEST(Scheduler, RunAgainAfterNewSpawns) {
  Scheduler sched;
  int runs = 0;
  sched.spawn("first", [&] { ++runs; });
  ASSERT_TRUE(sched.run().ok());
  sched.spawn("second", [&] { ++runs; });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(runs, 2);
}

TEST(Scheduler, StaleTimerHeapStaysBounded) {
  // Every park_for that is woken early strands a timer in the heap;
  // before the lazy purge, 10k arm/early-wake cycles meant 10k dead
  // entries held until their (distant) due times. The purge must keep
  // the heap proportional to the stale floor, not the cycle count.
  Scheduler sched;
  script::runtime::WaitQueue q(sched);
  constexpr int kCycles = 10000;
  std::size_t heap_high_water = 0;
  sched.spawn("waiter", [&] {
    for (int i = 0; i < kCycles; ++i) {
      const bool timed_out = q.park_for("cycling", 1000000);
      EXPECT_FALSE(timed_out);
      heap_high_water = std::max(heap_high_water, sched.timer_heap_size());
    }
  });
  sched.spawn("waker", [&] {
    for (int i = 0; i < kCycles; ++i) {
      while (!q.notify_one()) sched.yield();
    }
  });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_LT(heap_high_water, 300u);
  EXPECT_LT(sched.timer_heap_size(), 300u);
  EXPECT_LT(sched.stale_timer_count(), 300u);
}

// ---- The context switch itself ------------------------------------------

TEST(Scheduler, FloatingPointControlStateIsPerFiber) {
  // The switch saves MXCSR and the x87 control word with the other
  // callee-saved state, as swapcontext did: a rounding mode set in one
  // fiber neither leaks into another nor is lost across a switch.
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  Scheduler sched;
  volatile double one = 1.0;
  volatile double three = 3.0;  // volatile: divide at run time
  int down_saw_at_start = -1;
  int up_after_yield = -1;
  int down_after_yield = -1;
  double up_third = 0.0;
  double down_third = 0.0;
  sched.spawn("up", [&] {
    std::fesetround(FE_UPWARD);
    sched.yield();
    up_after_yield = std::fegetround();
    up_third = one / three;
  });
  sched.spawn("down", [&] {
    down_saw_at_start = std::fegetround();
    std::fesetround(FE_DOWNWARD);
    sched.yield();
    down_after_yield = std::fegetround();
    down_third = one / three;
  });
  const bool ok = sched.run().ok();
  const int loop_after = std::fegetround();
  std::fesetround(FE_TONEAREST);
  ASSERT_TRUE(ok);
  EXPECT_EQ(down_saw_at_start, FE_TONEAREST);
  EXPECT_EQ(up_after_yield, FE_UPWARD);
  EXPECT_EQ(down_after_yield, FE_DOWNWARD);
  EXPECT_GT(up_third, down_third);  // each fiber's SSE rounding held
  EXPECT_EQ(loop_after, FE_TONEAREST);
}

TEST(Scheduler, ExceptionCaughtInsideFiberAfterManySwitches) {
  Scheduler sched;
  int caught = 0;
  for (int f = 0; f < 2; ++f)
    sched.spawn("thrower" + std::to_string(f), [&] {
      for (int i = 0; i < 1000; ++i) {
        try {
          sched.yield();
          if (i % 100 == 99)
            throw std::runtime_error("boom " + std::to_string(i));
        } catch (const std::runtime_error& e) {
          if (std::string(e.what()) == "boom " + std::to_string(i)) ++caught;
        }
      }
    });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(caught, 20);
}

struct LiveFrame {
  explicit LiveFrame(int& live) : live_(live) { ++live_; }
  ~LiveFrame() { --live_; }
  int& live_;
};

void park_deep(Scheduler& sched, int depth, int& live) {
  LiveFrame frame(live);
  volatile char pad[128];
  pad[0] = static_cast<char>(depth);
  if (depth == 0) {
    sched.block("parked deep in recursion");
    return;
  }
  park_deep(sched, depth - 1, live);
  (void)pad[0];
}

TEST(Scheduler, FaultKillUnwindsFiberParkedDeepInRecursion) {
  Scheduler sched;
  int live = 0;
  int deepest = 0;
  const ProcessId victim = sched.spawn("victim", [&] {
    park_deep(sched, 300, live);
    ADD_FAILURE() << "a killed fiber must not resume its body";
  });
  sched.spawn("watcher", [&] { deepest = live; });
  script::runtime::FaultPlan plan;
  plan.crash_at_time(victim, 5);
  sched.install_fault_plan(plan);
  const RunResult r = sched.run();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(deepest, 301);  // every frame was live while parked
  EXPECT_EQ(live, 0);       // and every one was unwound by the kill
  EXPECT_TRUE(sched.has_crashed(victim));
}

TEST(Scheduler, TenThousandFibersThroughPooledStacks) {
  SchedulerOptions opts;
  opts.stack_pool_max_idle = 1000;
  Scheduler sched(opts);
  constexpr int kWaves = 10;
  constexpr int kPerWave = 1000;
  int intact = 0;
  for (int w = 0; w < kWaves; ++w) {
    for (int i = 0; i < kPerWave; ++i)
      sched.spawn("p", [&sched, &intact, tag = w * kPerWave + i] {
        // Stack contents must survive a switch on a recycled stack.
        volatile int stamp[64];
        for (int k = 0; k < 64; ++k) stamp[k] = tag + k;
        sched.yield();
        bool same = true;
        for (int k = 0; k < 64; ++k) same = same && stamp[k] == tag + k;
        if (same) ++intact;
      });
    ASSERT_TRUE(sched.run().ok());
  }
  EXPECT_EQ(intact, kWaves * kPerWave);
  EXPECT_EQ(sched.spawned_count(),
            static_cast<std::size_t>(kWaves * kPerWave));
  EXPECT_GE(sched.stack_pool_stats().reuse_ratio(), 0.9);
}

}  // namespace
