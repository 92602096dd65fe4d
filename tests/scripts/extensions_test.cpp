// Tests for the §V extensions and late additions: enrollment as a
// guard (try_enroll), en-bloc family naming, the bounded-buffer script,
// and recursive scripts via generic re-instantiation.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "script/instance.hpp"
#include "scripts/bounded_buffer.hpp"
#include "scripts/broadcast.hpp"

namespace {

using script::core::any_member;
using script::core::Initiation;
using script::core::Params;
using script::core::PartnerSpec;
using script::core::role;
using script::core::RoleContext;
using script::core::RoleId;
using script::core::ScriptInstance;
using script::core::ScriptSpec;
using script::core::Termination;
using script::csp::Net;
using script::patterns::BoundedBuffer;
using script::runtime::ProcessId;
using script::runtime::Scheduler;

TEST(TryEnroll, FailsImmediatelyWhenCastNotReady) {
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("s");
  spec.role("a").role("b");
  ScriptInstance inst(net, spec);
  inst.on_role("a", [](RoleContext&) {});
  inst.on_role("b", [](RoleContext&) {});
  bool attempted = false;
  net.spawn_process("A", [&] {
    const auto r = inst.try_enroll(RoleId("a"));
    attempted = true;
    EXPECT_FALSE(r.has_value());  // b never offered: no cast possible
  });
  ASSERT_TRUE(sched.run().ok());  // crucially, NOT a deadlock
  EXPECT_TRUE(attempted);
  EXPECT_EQ(inst.queue_length(), 0u);  // nothing left parked
}

TEST(TryEnroll, SucceedsWhenCounterpartIsQueued) {
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("s");
  spec.role("a").role("b");
  ScriptInstance inst(net, spec);
  int met = 0;
  inst.on_role("a", [&](RoleContext& ctx) {
    auto r = ctx.recv<int>(RoleId("b"));
    ASSERT_TRUE(r);
    met += *r;
  });
  inst.on_role("b", [](RoleContext& ctx) {
    ASSERT_TRUE(ctx.send(RoleId("a"), 5));
  });
  net.spawn_process("B", [&] { inst.enroll(RoleId("b")); });
  net.spawn_process("A", [&] {
    sched.sleep_for(5);  // B's request is parked by now
    const auto r = inst.try_enroll(RoleId("a"));
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->played, RoleId("a"));
  });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(met, 5);
}

TEST(TryEnroll, JoinsRunningImmediatePerformance) {
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("s");
  spec.role("first").role("second");
  spec.initiation(Initiation::Immediate)
      .termination(Termination::Immediate);
  ScriptInstance inst(net, spec);
  inst.on_role("first", [](RoleContext& ctx) {
    ASSERT_TRUE(ctx.recv<int>(RoleId("second")));
  });
  inst.on_role("second", [](RoleContext& ctx) {
    ASSERT_TRUE(ctx.send(RoleId("first"), 1));
  });
  net.spawn_process("F", [&] { inst.enroll(RoleId("first")); });
  net.spawn_process("S", [&] {
    sched.sleep_for(5);  // performance already running with `first`
    EXPECT_TRUE(inst.try_enroll(RoleId("second")).has_value());
  });
  ASSERT_TRUE(sched.run().ok());
}

TEST(TryEnroll, RespectsPartnerNamingGuard) {
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("s");
  spec.role("a").role("b");
  spec.initiation(Initiation::Immediate)
      .termination(Termination::Immediate);
  ScriptInstance inst(net, spec);
  inst.on_role("a", [](RoleContext&) {});
  inst.on_role("b", [](RoleContext&) {});
  ProcessId a_pid = 0;
  a_pid = net.spawn_process("A", [&] { inst.enroll(RoleId("a")); });
  net.spawn_process("B", [&] {
    sched.sleep_for(5);
    PartnerSpec wrong;
    wrong.with(RoleId("a"), a_pid + 100);  // contradicts the binding
    EXPECT_FALSE(inst.try_enroll(RoleId("b"), wrong).has_value());
    PartnerSpec right;
    right.with(RoleId("a"), a_pid);
    EXPECT_TRUE(inst.try_enroll(RoleId("b"), right).has_value());
  });
  ASSERT_TRUE(sched.run().ok());
}

TEST(EnBloc, WithFamilyPinsEveryIndex) {
  Scheduler sched;
  sched.enable_trace_log();
  Net net(sched);
  script::patterns::StarBroadcast<int> bc(net, 3);
  std::vector<ProcessId> rx(3);
  std::vector<int> got(3, 0);
  // Recipients enroll with any_member; the SENDER pins who gets which
  // slot en bloc. Spawn recipients first so their pids exist.
  for (int i = 0; i < 3; ++i)
    rx[static_cast<std::size_t>(i)] =
        net.spawn_process("R" + std::to_string(i), [&, i] {
          got[static_cast<std::size_t>(i)] = bc.receive_any();
        });
  net.spawn_process("T", [&] {
    PartnerSpec bloc;
    // Reverse order: R2 must get recipient[0], R1 recipient[1], ...
    bloc.with_family("recipient", {rx[2], rx[1], rx[0]});
    bc.send(42, bloc);
  });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(got, (std::vector<int>{42, 42, 42}));
  // The binding constraint is observable via the trace: R2 played
  // recipient[0].
  EXPECT_GE(sched.trace().find("R2", "enrolls as recipient[0]"), 0);
  EXPECT_GE(sched.trace().find("R0", "enrolls as recipient[2]"), 0);
}

TEST(BoundedBufferScript, TransfersEverythingInOrder) {
  Scheduler sched;
  Net net(sched);
  BoundedBuffer<int> buffer(net, /*capacity=*/4, /*producers=*/1,
                            /*consumers=*/1);
  std::vector<int> items(20);
  std::iota(items.begin(), items.end(), 0);
  std::size_t leftover = 99;
  std::vector<int> got;
  net.spawn_process("buf", [&] { leftover = buffer.serve(); });
  net.spawn_process("prod", [&] { buffer.produce(0, items); });
  net.spawn_process("cons", [&] { got = buffer.consume(0, 20); });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(got, items);
  EXPECT_EQ(leftover, 0u);
}

TEST(BoundedBufferScript, CapacityThrottlesProducer) {
  Scheduler sched;
  Net net(sched);
  BoundedBuffer<int> buffer(net, /*capacity=*/2, 1, 1);
  std::uint64_t producer_done_at = 0;
  net.spawn_process("buf", [&] { buffer.serve(); });
  net.spawn_process("prod", [&] {
    buffer.produce(0, {1, 2, 3, 4, 5, 6});
    producer_done_at = sched.now();
  });
  net.spawn_process("cons", [&] {
    sched.sleep_for(100);  // let the producer hit the capacity wall
    buffer.consume(0, 6);
  });
  ASSERT_TRUE(sched.run().ok());
  // With capacity 2 the producer cannot finish before the consumer
  // starts draining at t=100.
  EXPECT_GE(producer_done_at, 100u);
}

TEST(BoundedBufferScript, ManyProducersManyConsumers) {
  Scheduler sched;
  Net net(sched);
  constexpr std::size_t kP = 3, kC = 2;
  BoundedBuffer<int> buffer(net, 4, kP, kC);
  net.spawn_process("buf", [&] { EXPECT_EQ(buffer.serve(), 0u); });
  int expected_sum = 0;
  for (std::size_t p = 0; p < kP; ++p) {
    std::vector<int> items;
    for (int i = 0; i < 10; ++i) {
      items.push_back(static_cast<int>(p) * 100 + i);
      expected_sum += items.back();
    }
    net.spawn_process("prod" + std::to_string(p), [&, p, items] {
      buffer.produce(static_cast<int>(p), items);
    });
  }
  int got_sum = 0;
  for (std::size_t c = 0; c < kC; ++c)
    net.spawn_process("cons" + std::to_string(c), [&, c] {
      for (const int v : buffer.consume(static_cast<int>(c), 15))
        got_sum += v;
    });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(got_sum, expected_sum);
}

TEST(RecursiveScripts, DivideAndConquerBroadcast) {
  // §V "recursive scripts, where a role could enroll in its own
  // script": with multiple instances of one GENERIC script, a
  // recipient of level k re-enrolls as the sender of level k+1,
  // fanning the datum down a chain of broadcast instances.
  Scheduler sched;
  Net net(sched);
  constexpr int kLevels = 4;
  constexpr std::size_t kWidth = 2;
  std::vector<std::unique_ptr<script::patterns::StarBroadcast<int>>> levels;
  for (int l = 0; l < kLevels; ++l)
    levels.push_back(
        std::make_unique<script::patterns::StarBroadcast<int>>(
            net, kWidth, "bc-level" + std::to_string(l)));

  int leaves_reached = 0;
  // Recipient i of level l: slot 0 recurses as sender of level l+1,
  // slot 1 is a leaf.
  std::function<void(int)> spawn_level = [&](int l) {
    for (std::size_t i = 0; i < kWidth; ++i)
      net.spawn_process("n" + std::to_string(l) + "_" + std::to_string(i),
                        [&, l, i] {
                          const int v =
                              levels[static_cast<std::size_t>(l)]->receive(
                                  static_cast<int>(i));
                          if (i == 0 && l + 1 < kLevels) {
                            levels[static_cast<std::size_t>(l) + 1]->send(
                                v + 1);
                          } else {
                            ++leaves_reached;
                          }
                        });
    if (l + 1 < kLevels) spawn_level(l + 1);
  };
  net.spawn_process("root", [&] { levels[0]->send(0); });
  spawn_level(0);
  ASSERT_TRUE(sched.run().ok());
  // Each level has one leaf except the last, which has two.
  EXPECT_EQ(leaves_reached, kLevels + 1);
  for (int l = 0; l < kLevels; ++l)
    EXPECT_EQ(levels[static_cast<std::size_t>(l)]
                  ->instance()
                  .performances_completed(),
              1u);
}

TEST(EnrollFor, ExpiresWhenCastNeverForms) {
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("s");
  spec.role("a").role("b");
  ScriptInstance inst(net, spec);
  inst.on_role("a", [](RoleContext&) {});
  inst.on_role("b", [](RoleContext&) {});
  std::uint64_t gave_up_at = 0;
  net.spawn_process("A", [&] {
    EXPECT_FALSE(inst.enroll_for(RoleId("a"), 40).has_value());
    gave_up_at = sched.now();
  });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(gave_up_at, 40u);
  EXPECT_EQ(inst.queue_length(), 0u);
}

TEST(EnrollFor, SucceedsWhenPartnerArrivesInTime) {
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("s");
  spec.role("a").role("b");
  ScriptInstance inst(net, spec);
  inst.on_role("a", [](RoleContext&) {});
  inst.on_role("b", [](RoleContext&) {});
  net.spawn_process("A", [&] {
    const auto r = inst.enroll_for(RoleId("a"), 100);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(sched.now(), 30u);
  });
  net.spawn_process("B", [&] {
    sched.sleep_for(30);
    inst.enroll(RoleId("b"));
  });
  ASSERT_TRUE(sched.run().ok());
}

TEST(EnrollFor, AdmittedRoleRunsPastDeadline) {
  // Once admitted, the deadline no longer applies: the role body can
  // outlive it, like a started Ada rendezvous.
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("s");
  spec.role("slow");
  spec.initiation(Initiation::Immediate)
      .termination(Termination::Immediate);
  ScriptInstance inst(net, spec);
  inst.on_role("slow",
               [](RoleContext& ctx) { ctx.scheduler().sleep_for(500); });
  net.spawn_process("P", [&] {
    const auto r = inst.enroll_for(RoleId("slow"), 10);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(sched.now(), 500u);
  });
  ASSERT_TRUE(sched.run().ok());
}

TEST(EnrollFor, ExpiredRequestLeavesNextPerformanceClean) {
  // A withddrawn request must not pollute later matching: after A's
  // timed enrollment expires, B+C form a clean performance.
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("s");
  spec.role("a").role("b");
  ScriptInstance inst(net, spec);
  int ran = 0;
  inst.on_role("a", [&](RoleContext&) { ++ran; });
  inst.on_role("b", [&](RoleContext&) { ++ran; });
  net.spawn_process("A", [&] {
    EXPECT_FALSE(inst.enroll_for(RoleId("a"), 10).has_value());
  });
  net.spawn_process("B", [&] {
    sched.sleep_for(50);
    inst.enroll(RoleId("a"));
  });
  net.spawn_process("C", [&] {
    sched.sleep_for(50);
    inst.enroll(RoleId("b"));
  });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(ran, 2);
}

}  // namespace
