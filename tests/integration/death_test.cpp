// Death tests: API misuse must abort with a diagnostic, not corrupt
// state. (SCRIPT_ASSERT/SCRIPT_PANIC abort; these tests pin that
// behaviour and the message quality.)
#include <gtest/gtest.h>

#include "csp/message.hpp"
#include "monitor/monitor.hpp"
#include "script/instance.hpp"
#include "script/params.hpp"
#include "script/spec.hpp"

namespace {

using script::core::Params;
using script::core::RoleId;
using script::core::ScriptInstance;
using script::core::ScriptSpec;
using script::csp::Message;
using script::csp::Net;
using script::monitor::Monitor;
using script::runtime::Scheduler;

using DeathTest = ::testing::Test;

TEST(DeathTest, MessagePayloadTypeMismatch) {
  const Message m = Message::of<int>(1);
  EXPECT_DEATH((void)m.as<double>(), "payload type mismatch");
}

TEST(DeathTest, DuplicateRoleDeclaration) {
  ScriptSpec s("s");
  s.role("a");
  EXPECT_DEATH(s.role("a"), "duplicate role");
}

TEST(DeathTest, CriticalSetNamesUnknownRole) {
  ScriptSpec s("s");
  s.role("a");
  EXPECT_DEATH(s.critical({{"ghost", 1}}), "unknown role");
}

TEST(DeathTest, CriticalCountExceedsFamily) {
  ScriptSpec s("s");
  s.role_family("fam", 2);
  EXPECT_DEATH(s.critical({{"fam", 3}}), "exceeds family size");
}

TEST(DeathTest, ParamsDuplicateName) {
  Params p;
  p.in("x", 1);
  EXPECT_DEATH(p.in("x", 2), "duplicate parameter");
}

TEST(DeathTest, ParamsUnknownName) {
  const Params p;
  EXPECT_DEATH((void)p.get<int>("nope"), "unknown parameter");
}

TEST(DeathTest, TraceLogReadWithoutOptIn) {
  // An empty prose log must never pass for a quiet run.
  Scheduler sched;
  EXPECT_DEATH((void)sched.trace(), "enable_trace_log");
}

TEST(DeathTest, EnrollWithoutBody) {
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("s");
  spec.role("a");
  ScriptInstance inst(net, spec);
  net.spawn_process("p", [&] { inst.enroll(RoleId("a")); });
  EXPECT_DEATH(sched.run(), "no body attached");
}

TEST(DeathTest, EnrollInvalidRole) {
  Scheduler sched;
  Net net(sched);
  ScriptSpec spec("s");
  spec.role("a");
  ScriptInstance inst(net, spec);
  inst.on_role("a", [](script::core::RoleContext&) {});
  net.spawn_process("p", [&] { inst.enroll(RoleId("ghost")); });
  EXPECT_DEATH(sched.run(), "invalid role");
}

TEST(DeathTest, MonitorLeaveWithoutHold) {
  Scheduler sched;
  Monitor mon(sched, "m");
  sched.spawn("p", [&] { mon.leave(); });
  EXPECT_DEATH(sched.run(), "without holding");
}

TEST(DeathTest, BlockOutsideFiber) {
  Scheduler sched;
  EXPECT_DEATH(sched.block("nope"), "requires a running fiber");
}

namespace {
// Deep enough recursion to blow any reasonable fiber stack; the frame
// array defeats tail-call elimination.
int smash_stack(int depth) {
  volatile char frame[4096];
  frame[0] = static_cast<char>(depth);
  if (depth <= 0) return frame[0];
  return smash_stack(depth - 1) + frame[0];
}
}  // namespace

TEST(DeathTest, StackOverflowHitsGuardPage) {
  // The mmap'd guard page below each fiber stack turns overflow into a
  // loud fault instead of silent corruption of a neighbouring fiber.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Scheduler sched;
        sched.spawn("hog", [] { smash_stack(1 << 16); });
        sched.run();
      },
      "");
}

}  // namespace
