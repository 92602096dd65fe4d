// Tests for ScriptInstance: the semantics of §II of the paper, keyed to
// its figures where applicable.
#include "script/instance.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace {

using script::core::any_member;
using script::core::CriticalSet;
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
using script::runtime::ProcessId;
using script::runtime::Scheduler;

// A minimal delayed/delayed broadcast with N recipients (Figure 3 shape).
ScriptSpec star_spec(std::size_t n) {
  ScriptSpec s("broadcast");
  s.role("sender").role_family("recipient", n);
  s.initiation(Initiation::Delayed).termination(Termination::Delayed);
  return s;
}

void attach_star_bodies(ScriptInstance& inst, std::size_t n) {
  inst.on_role("sender", [n](RoleContext& ctx) {
    const int data = ctx.param<int>("data");
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_TRUE(ctx.send(role("recipient", static_cast<int>(i)), data));
  });
  inst.on_role("recipient", [](RoleContext& ctx) {
    auto v = ctx.recv<int>(RoleId("sender"));
    ASSERT_TRUE(v);
    ctx.set_param("data", *v);
  });
}

TEST(ScriptInstance, Figure3StarBroadcastDeliversToAll) {
  Scheduler sched;
  Net net(sched);
  ScriptInstance inst(net, star_spec(5));
  attach_star_bodies(inst, 5);

  std::vector<int> got(5, 0);
  net.spawn_process("T", [&] {
    inst.enroll(RoleId("sender"), {}, Params().in("data", 42));
  });
  for (int i = 0; i < 5; ++i)
    net.spawn_process("R" + std::to_string(i), [&, i] {
      inst.enroll(role("recipient", i), {},
                  Params().out("data", &got[static_cast<std::size_t>(i)]));
    });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(got, std::vector<int>(5, 42));
  EXPECT_EQ(inst.performances_completed(), 1u);
}

TEST(ScriptInstance, DelayedInitiationWaitsForFullCast) {
  Scheduler sched;
  Net net(sched);
  ScriptInstance inst(net, star_spec(2));
  std::uint64_t sender_began = 0;
  inst.on_role("sender", [&](RoleContext& ctx) {
    sender_began = ctx.scheduler().now();
    ASSERT_TRUE(ctx.send(role("recipient", 0), 1));
    ASSERT_TRUE(ctx.send(role("recipient", 1), 1));
  });
  inst.on_role("recipient", [](RoleContext& ctx) {
    ASSERT_TRUE(ctx.recv<int>(RoleId("sender")));
  });

  net.spawn_process("T", [&] { inst.enroll(RoleId("sender")); });
  net.spawn_process("R0", [&] { inst.enroll(role("recipient", 0)); });
  net.spawn_process("R1", [&] {
    sched.sleep_for(70);  // the last enroller gates initiation
    inst.enroll(role("recipient", 1));
  });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(sender_began, 70u);
}

TEST(ScriptInstance, DelayedTerminationFreesTogether) {
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec = star_spec(2);
  ScriptInstance inst(net, spec);
  attach_star_bodies(inst, 2);
  std::vector<std::uint64_t> released;
  int sink = 0;

  net.spawn_process("T", [&] {
    inst.enroll(RoleId("sender"), {}, Params().in("data", 5));
    released.push_back(sched.now());
  });
  for (int i = 0; i < 2; ++i)
    net.spawn_process("R" + std::to_string(i), [&, i] {
      inst.enroll(role("recipient", i), {}, Params().out("data", &sink));
      // Recipient 1 is artificially slow INSIDE the script via its own
      // role body? No — slowness must be inside the role. Use a second
      // scenario below; here all finish at the same instant anyway.
      released.push_back(sched.now());
    });
  ASSERT_TRUE(sched.run().ok());
  ASSERT_EQ(released.size(), 3u);
  EXPECT_EQ(released[0], released[1]);
  EXPECT_EQ(released[1], released[2]);
}

TEST(ScriptInstance, DelayedTerminationHoldsFastRolesForSlowOnes) {
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("s");
  spec.role("fast").role("slow");
  spec.initiation(Initiation::Delayed).termination(Termination::Delayed);
  ScriptInstance inst(net, spec);
  inst.on_role("fast", [](RoleContext&) {});
  inst.on_role("slow",
               [](RoleContext& ctx) { ctx.scheduler().sleep_for(90); });
  std::uint64_t fast_released = 0;
  net.spawn_process("F", [&] {
    inst.enroll(RoleId("fast"));
    fast_released = sched.now();
  });
  net.spawn_process("S", [&] { inst.enroll(RoleId("slow")); });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(fast_released, 90u);
}

TEST(ScriptInstance, ImmediateTerminationFreesEachRoleAtOnce) {
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("s");
  spec.role("fast").role("slow");
  spec.initiation(Initiation::Delayed).termination(Termination::Immediate);
  ScriptInstance inst(net, spec);
  inst.on_role("fast", [](RoleContext&) {});
  inst.on_role("slow",
               [](RoleContext& ctx) { ctx.scheduler().sleep_for(90); });
  std::uint64_t fast_released = 0;
  net.spawn_process("F", [&] {
    inst.enroll(RoleId("fast"));
    fast_released = sched.now();
  });
  net.spawn_process("S", [&] { inst.enroll(RoleId("slow")); });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(fast_released, 0u);
}

TEST(ScriptInstance, Figure1SuccessivePerformances) {
  // Three roles p,q,r; six processes A..F. D tries to enroll as p while
  // the first performance is still running; it must wait until B and C
  // finish even though A (the first p) is long done.
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("s");
  spec.role("p").role("q").role("r");
  spec.initiation(Initiation::Immediate)
      .termination(Termination::Immediate);
  ScriptInstance inst(net, spec);
  inst.on_role("p", [](RoleContext&) {});
  inst.on_role("q", [](RoleContext& ctx) { ctx.scheduler().sleep_for(50); });
  inst.on_role("r", [](RoleContext& ctx) { ctx.scheduler().sleep_for(80); });

  std::uint64_t d_admitted = 0;
  net.spawn_process("A", [&] { inst.enroll(RoleId("p")); });
  net.spawn_process("B", [&] { inst.enroll(RoleId("q")); });
  net.spawn_process("C", [&] { inst.enroll(RoleId("r")); });
  net.spawn_process("D", [&] {
    sched.sleep_for(10);  // A has finished p by now; q and r still busy
    inst.enroll(RoleId("p"));
    d_admitted = sched.now();
  });
  net.spawn_process("E", [&] {
    sched.sleep_for(10);
    inst.enroll(RoleId("q"));
  });
  net.spawn_process("F", [&] {
    sched.sleep_for(10);
    inst.enroll(RoleId("r"));
  });
  ASSERT_TRUE(sched.run().ok());
  // Performance 1 ends when r finishes at t=80; D enrolls only then.
  EXPECT_EQ(d_admitted, 80u);
  EXPECT_EQ(inst.performances_completed(), 2u);
}

TEST(ScriptInstance, Figure2RepeatedEnrollmentKeepsPerformancesApart) {
  // A broadcasts x then v; B receives into u then y. The semantics must
  // guarantee u=x and y=v.
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("broadcast");
  spec.role("transmitter").role_family("recipient", 1);
  spec.initiation(Initiation::Delayed).termination(Termination::Delayed);
  ScriptInstance inst(net, spec);
  inst.on_role("transmitter", [](RoleContext& ctx) {
    ASSERT_TRUE(ctx.send(role("recipient", 0), ctx.param<int>("data")));
  });
  inst.on_role("recipient", [](RoleContext& ctx) {
    auto v = ctx.recv<int>(RoleId("transmitter"));
    ASSERT_TRUE(v);
    ctx.set_param("data", *v);
  });

  int u = 0, y = 0;
  net.spawn_process("A", [&] {
    inst.enroll(RoleId("transmitter"), {}, Params().in("data", 111));
    inst.enroll(RoleId("transmitter"), {}, Params().in("data", 222));
  });
  net.spawn_process("B", [&] {
    inst.enroll(role("recipient", 0), {}, Params().out("data", &u));
    inst.enroll(role("recipient", 0), {}, Params().out("data", &y));
  });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(u, 111);
  EXPECT_EQ(y, 222);
  EXPECT_EQ(inst.performances_completed(), 2u);
}

TEST(ScriptInstance, PartnersNamedEnrollmentMatchesOnlyAgreeingSpecs) {
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec = star_spec(1);
  ScriptInstance inst(net, spec);
  attach_star_bodies(inst, 1);

  int via_good = 0;
  ProcessId t_good = 0, r_pid = 0;
  // Two would-be senders; the recipient names t_good. t_evil must be
  // left queued (and eventually deadlock-reported, since no second
  // recipient ever joins it — we instead give it a second performance).
  t_good = net.spawn_process("Tgood", [&] {
    sched.sleep_for(10);  // arrive after Tevil to prove naming wins
    inst.enroll(RoleId("sender"), {}, Params().in("data", 7));
  });
  net.spawn_process("Tevil", [&] {
    inst.enroll(RoleId("sender"), {}, Params().in("data", 666));
  });
  r_pid = net.spawn_process("R", [&] {
    PartnerSpec want;
    want.with(RoleId("sender"), t_good);
    inst.enroll(role("recipient", 0), want, Params().out("data", &via_good));
    // Second enrollment, unnamed: pairs with Tevil's queued request.
    int second = 0;
    inst.enroll(role("recipient", 0), {}, Params().out("data", &second));
    EXPECT_EQ(second, 666);
  });
  (void)r_pid;
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(via_good, 7);
  EXPECT_EQ(inst.performances_completed(), 2u);
}

TEST(ScriptInstance, CriticalRoleSetStartsPartialPerformance) {
  // Lock-manager shape: 2 managers + reader OR writer. Only a reader
  // shows up; the writer role must report terminated() and
  // communication with it must yield the distinguished value.
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("lock");
  spec.role_family("manager", 2).role("reader").role("writer");
  spec.initiation(Initiation::Delayed).termination(Termination::Delayed);
  spec.critical(CriticalSet{{"manager", 2}, {"reader", 1}});
  spec.critical(CriticalSet{{"manager", 2}, {"writer", 1}});
  ScriptInstance inst(net, spec);

  bool writer_terminated_seen = false;
  bool writer_send_failed = false;
  inst.on_role("manager", [&](RoleContext& ctx) {
    if (ctx.index() == 0) {
      writer_terminated_seen = ctx.terminated(RoleId("writer"));
      auto r = ctx.send(RoleId("writer"), 1);
      writer_send_failed = !r.has_value();
    }
    // Serve the reader.
    auto req = ctx.recv<int>(RoleId("reader"));
    ASSERT_TRUE(req);
    ASSERT_TRUE(ctx.send(RoleId("reader"), *req + 1));
  });
  inst.on_role("reader", [](RoleContext& ctx) {
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(ctx.send(role("manager", i), 10 * i));
      auto r = ctx.recv<int>(role("manager", i));
      ASSERT_TRUE(r);
      EXPECT_EQ(*r, 10 * i + 1);
    }
  });
  inst.on_role("writer", [](RoleContext&) { FAIL() << "never enrolled"; });

  for (int i = 0; i < 2; ++i)
    net.spawn_process("M" + std::to_string(i),
                      [&, i] { inst.enroll(role("manager", i)); });
  net.spawn_process("Rd", [&] { inst.enroll(RoleId("reader")); });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_TRUE(writer_terminated_seen);
  EXPECT_TRUE(writer_send_failed);
}

TEST(ScriptInstance, ImmediateInitiationRunsRolesAsTheyArrive) {
  // Pipeline shape (Figure 4): sender hands to recipient[0] and leaves;
  // recipient[i] waits for recipient[i+1] to arrive.
  Scheduler sched;
  Net net(sched);
  constexpr int kN = 4;
  ScriptSpec spec("pipeline");
  spec.role("sender").role_family("recipient", kN);
  spec.initiation(Initiation::Immediate)
      .termination(Termination::Immediate);
  ScriptInstance inst(net, spec);
  inst.on_role("sender", [](RoleContext& ctx) {
    ASSERT_TRUE(ctx.send(role("recipient", 0), ctx.param<int>("data")));
  });
  inst.on_role("recipient", [&](RoleContext& ctx) {
    const RoleId prev =
        ctx.index() == 0 ? RoleId("sender") : role("recipient", ctx.index() - 1);
    auto v = ctx.recv<int>(prev);
    ASSERT_TRUE(v);
    ctx.set_param("data", *v);
    if (ctx.index() + 1 < kN) {
      ASSERT_TRUE(ctx.send(role("recipient", ctx.index() + 1), *v));
    }
  });

  std::vector<int> got(kN, 0);
  std::uint64_t sender_released = 0;
  net.spawn_process("T", [&] {
    inst.enroll(RoleId("sender"), {}, Params().in("data", 9));
    sender_released = sched.now();
  });
  for (int i = 0; i < kN; ++i)
    net.spawn_process("R" + std::to_string(i), [&, i] {
      sched.sleep_for(static_cast<std::uint64_t>(10 * (i + 1)));
      inst.enroll(role("recipient", i), {},
                  Params().out("data", &got[static_cast<std::size_t>(i)]));
    });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(got, std::vector<int>(kN, 9));
  // Sender leaves as soon as recipient[0] takes the message (t=10),
  // long before the last recipient arrives (t=40).
  EXPECT_EQ(sender_released, 10u);
  EXPECT_EQ(inst.performances_completed(), 1u);
}

TEST(ScriptInstance, ImmediateImmediateAllowsMultiRoleEnrollment) {
  // Paper: immediate/immediate "allows a given process to enroll in
  // several roles of the same script, where those roles do not
  // communicate directly".
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("multi");
  spec.role("a").role("b").role("hub");
  spec.initiation(Initiation::Immediate)
      .termination(Termination::Immediate);
  ScriptInstance inst(net, spec);
  inst.on_role("a", [](RoleContext& ctx) {
    ASSERT_TRUE(ctx.send(RoleId("hub"), 1));
  });
  inst.on_role("b", [](RoleContext& ctx) {
    ASSERT_TRUE(ctx.send(RoleId("hub"), 2));
  });
  int sum = 0;
  inst.on_role("hub", [&](RoleContext& ctx) {
    for (int i = 0; i < 2; ++i) {
      auto v = ctx.recv_any<int>();
      ASSERT_TRUE(v);
      sum += v->second;
    }
  });
  net.spawn_process("hubproc", [&] { inst.enroll(RoleId("hub")); });
  net.spawn_process("double-agent", [&] {
    inst.enroll(RoleId("a"));
    inst.enroll(RoleId("b"));
  });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(sum, 3);
}

TEST(ScriptInstance, OpenEndedFamilyAcceptsLateMembers) {
  // §V open-ended scripts: a gather with however many workers arrive
  // before the collector finishes.
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("gather");
  spec.role("collector").open_role_family("worker", 2);
  spec.initiation(Initiation::Immediate)
      .termination(Termination::Immediate);
  spec.critical(CriticalSet{{"collector", 1}, {"worker", 2}});
  ScriptInstance inst(net, spec);
  int total = 0;
  inst.on_role("collector", [&](RoleContext& ctx) {
    for (int i = 0; i < 3; ++i) {
      auto v = ctx.recv_any<int>();
      ASSERT_TRUE(v);
      total += v->second;
    }
  });
  inst.on_role("worker", [](RoleContext& ctx) {
    ASSERT_TRUE(ctx.send(RoleId("collector"), 10 + ctx.index()));
  });
  net.spawn_process("C", [&] { inst.enroll(RoleId("collector")); });
  for (int i = 0; i < 3; ++i)
    net.spawn_process("W" + std::to_string(i), [&, i] {
      sched.sleep_for(static_cast<std::uint64_t>(5 * i));
      inst.enroll(any_member("worker"));
    });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(total, 10 + 11 + 12);
}

TEST(ScriptInstance, NestedEnrollment) {
  // §V: "one role can enroll in some other script" — a role of the
  // outer script enrolls in an inner script mid-role.
  Scheduler sched;
  Net net(sched);
  ScriptSpec inner_spec("inner");
  inner_spec.role("pinger").role("ponger");
  ScriptInstance inner(net, inner_spec);
  inner.on_role("pinger", [](RoleContext& ctx) {
    ASSERT_TRUE(ctx.send(RoleId("ponger"), 1));
  });
  inner.on_role("ponger", [](RoleContext& ctx) {
    ASSERT_TRUE(ctx.recv<int>(RoleId("pinger")));
  });

  ScriptSpec outer_spec("outer");
  outer_spec.role("driver").role("helper");
  outer_spec.initiation(Initiation::Immediate)
      .termination(Termination::Immediate);
  ScriptInstance outer(net, outer_spec);
  bool inner_done = false;
  outer.on_role("driver", [&](RoleContext&) {
    inner.enroll(RoleId("pinger"));
    inner_done = true;
  });
  outer.on_role("helper", [&](RoleContext&) {
    inner.enroll(RoleId("ponger"));
  });
  net.spawn_process("D", [&] { outer.enroll(RoleId("driver")); });
  net.spawn_process("H", [&] { outer.enroll(RoleId("helper")); });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_TRUE(inner_done);
}

TEST(ScriptInstance, MultipleInstancesRunConcurrently) {
  // §II "Successive Activations": separate instances of one generic
  // script support concurrent independent broadcasts.
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec = star_spec(1);
  ScriptInstance a(net, spec, "bc-a");
  ScriptInstance b(net, spec, "bc-b");
  attach_star_bodies(a, 1);
  attach_star_bodies(b, 1);
  int got_a = 0, got_b = 0;
  net.spawn_process("Ta", [&] {
    a.enroll(RoleId("sender"), {}, Params().in("data", 1));
  });
  net.spawn_process("Tb", [&] {
    b.enroll(RoleId("sender"), {}, Params().in("data", 2));
  });
  net.spawn_process("Ra", [&] {
    a.enroll(role("recipient", 0), {}, Params().out("data", &got_a));
  });
  net.spawn_process("Rb", [&] {
    b.enroll(role("recipient", 0), {}, Params().out("data", &got_b));
  });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(got_a, 1);
  EXPECT_EQ(got_b, 2);
}

TEST(ScriptInstance, AnyIndexEnrollment) {
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec = star_spec(3);
  ScriptInstance inst(net, spec);
  attach_star_bodies(inst, 3);
  int sink[3] = {0, 0, 0};
  net.spawn_process("T", [&] {
    inst.enroll(RoleId("sender"), {}, Params().in("data", 5));
  });
  for (int i = 0; i < 3; ++i)
    net.spawn_process("R" + std::to_string(i), [&, i] {
      const auto res = inst.enroll(any_member("recipient"), {},
                                   Params().out("data", &sink[i]));
      EXPECT_GE(res.played.index, 0);
      EXPECT_LT(res.played.index, 3);
    });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(sink[0] + sink[1] + sink[2], 15);
}

TEST(ScriptInstance, IncompleteCastIsDeadlockReported) {
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec = star_spec(2);
  ScriptInstance inst(net, spec);
  attach_star_bodies(inst, 2);
  int sink = 0;
  net.spawn_process("T", [&] {
    inst.enroll(RoleId("sender"), {}, Params().in("data", 1));
  });
  net.spawn_process("R0", [&] {
    inst.enroll(role("recipient", 0), {}, Params().out("data", &sink));
  });
  // recipient[1] never arrives: delayed initiation never fires.
  const auto result = sched.run();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.blocked.size(), 2u);
}

TEST(ScriptInstance, TraceRecordsEnrollmentLifecycle) {
  Scheduler sched;
  sched.enable_trace_log();
  Net net(sched);
  ScriptSpec spec = star_spec(1);
  ScriptInstance inst(net, spec);
  attach_star_bodies(inst, 1);
  int sink = 0;
  net.spawn_process("T", [&] {
    inst.enroll(RoleId("sender"), {}, Params().in("data", 1));
  });
  net.spawn_process("R", [&] {
    inst.enroll(role("recipient", 0), {}, Params().out("data", &sink));
  });
  ASSERT_TRUE(sched.run().ok());
  const auto& log = sched.trace();
  EXPECT_GE(log.find("T", "attempts to enroll as sender"), 0);
  EXPECT_GE(log.find("T", "begins role sender"), 0);
  EXPECT_GE(log.find("T", "finishes role sender"), 0);
  EXPECT_GE(log.find("broadcast", "performance 1 begins"), 0);
  EXPECT_GE(log.find("broadcast", "performance 1 ends"), 0);
  EXPECT_TRUE(log.ordered("broadcast", "performance 1 begins", "T",
                          "begins role sender"));
}

TEST(ScriptInstance, FamilySizeProbe) {
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec = star_spec(4);
  ScriptInstance inst(net, spec);
  std::size_t seen = 0;
  inst.on_role("sender",
               [&](RoleContext& ctx) { seen = ctx.family_size("recipient"); });
  inst.on_role("recipient", [](RoleContext&) {});
  net.spawn_process("T", [&] { inst.enroll(RoleId("sender")); });
  for (int i = 0; i < 4; ++i)
    net.spawn_process("R" + std::to_string(i),
                      [&, i] { inst.enroll(role("recipient", i)); });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(seen, 4u);
}

TEST(ScriptInstance, PerformanceRecordsArePooled) {
  // Successive activations (Figure 1) recycle the instance's
  // performance records: 10k performances hold as many records as the
  // first one needed.
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("pair");
  spec.role("a").role("b");
  ScriptInstance inst(net, spec);
  inst.on_role("a", [](RoleContext& ctx) {
    EXPECT_TRUE(ctx.send(RoleId("b"), ctx.param<int>("v")).has_value());
  });
  inst.on_role("b", [](RoleContext& ctx) {
    const auto v = ctx.recv<int>(RoleId("a"));
    ASSERT_TRUE(v.has_value());
    ctx.set_param("v", *v);
  });
  constexpr int kPerfs = 10000;
  std::size_t after_first = 0;
  int wrong = 0;
  net.spawn_process("A", [&] {
    for (int i = 0; i < kPerfs; ++i) {
      inst.enroll(RoleId("a"), {}, Params().in("v", i));
      if (i == 0) after_first = inst.performance_objects();
    }
  });
  net.spawn_process("B", [&] {
    for (int i = 0; i < kPerfs; ++i) {
      int got = -1;
      inst.enroll(RoleId("b"), {}, Params().out("v", &got));
      wrong += got != i ? 1 : 0;
    }
  });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(inst.performances_completed(), static_cast<std::uint64_t>(kPerfs));
  EXPECT_EQ(wrong, 0);
  EXPECT_GE(after_first, 1u);
  EXPECT_EQ(inst.performance_objects(), after_first);
}

TEST(ScriptInstance, PooledRecordsServeImmediateCasts) {
  // Immediate initiation and termination: enrollees of one performance
  // leave at different times, and the next performance may form before
  // the last of them has let go. The record count still stays bounded.
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("cast");
  spec.role("sender").role_family("r", 4);
  spec.initiation(Initiation::Immediate).termination(Termination::Immediate);
  ScriptInstance inst(net, spec);
  inst.on_role("sender", [](RoleContext& ctx) {
    for (int i = 0; i < 4; ++i)
      EXPECT_TRUE(ctx.send(role("r", i), i).has_value());
  });
  inst.on_role("r", [](RoleContext& ctx) {
    EXPECT_EQ(ctx.recv<int>(RoleId("sender")).value(), ctx.index());
  });
  constexpr int kPerfs = 1000;
  net.spawn_process("S", [&] {
    for (int i = 0; i < kPerfs; ++i) inst.enroll(RoleId("sender"));
  });
  for (int r = 0; r < 4; ++r)
    net.spawn_process("R" + std::to_string(r), [&] {
      for (int i = 0; i < kPerfs; ++i) inst.enroll(any_member("r"));
    });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(inst.performances_completed(), static_cast<std::uint64_t>(kPerfs));
  EXPECT_LE(inst.performance_objects(), 2u);
}

/// Clears the variables that arm observability at Scheduler
/// construction for its lifetime, restoring them afterwards.
class UnobservedEnv {
 public:
  UnobservedEnv() {
    for (const char* name : kNames) {
      const char* v = std::getenv(name);
      saved_.emplace_back(name, v == nullptr ? std::optional<std::string>()
                                             : std::string(v));
      unsetenv(name);
    }
  }
  ~UnobservedEnv() {
    for (const auto& [name, value] : saved_)
      if (value) setenv(name, value->c_str(), 1);
  }

 private:
  static constexpr const char* kNames[] = {"SCRIPT_TRACE", "SCRIPT_FLIGHT",
                                           "SCRIPT_TIMELINE",
                                           "SCRIPT_DEBUG_SOCK"};
  std::vector<std::pair<const char*, std::optional<std::string>>> saved_;
};

TEST(ScriptInstance, UnobservedSchedulerPublishesNoScriptEvents) {
  // The Figure-1 prose log is opt-in: with nothing armed, no subscriber
  // wants Script events, so a whole performance publishes nothing.
  const UnobservedEnv quiet;
  Scheduler sched;
  Net net(sched);
  EXPECT_FALSE(sched.trace_log_enabled());
  EXPECT_FALSE(sched.bus().wants(script::obs::Subsystem::Script));
  ScriptSpec spec("s");
  spec.role("a").role("b");
  ScriptInstance inst(net, spec);
  inst.on_role("a", [](RoleContext&) {});
  inst.on_role("b", [](RoleContext&) {});
  net.spawn_process("A", [&] { inst.enroll(RoleId("a")); });
  net.spawn_process("B", [&] { inst.enroll(RoleId("b")); });
  ASSERT_TRUE(sched.run().ok());
  EXPECT_EQ(inst.performances_completed(), 1u);
  EXPECT_EQ(sched.bus().published_count(), 0u);

  sched.enable_trace_log();
  EXPECT_TRUE(sched.bus().wants(script::obs::Subsystem::Script));
}

}  // namespace
