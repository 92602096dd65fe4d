// Golden-trace test: the Figure 1 timeline, event for event.
//
// The paper's Figure 1 is a table of timed events; under the FIFO
// policy our runtime is fully deterministic, so we can assert the
// exact sequence.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "script/instance.hpp"

namespace {

using script::core::Initiation;
using script::core::RoleContext;
using script::core::RoleId;
using script::core::ScriptInstance;
using script::core::ScriptSpec;
using script::core::Termination;
using script::csp::Net;
using script::runtime::Scheduler;

TEST(GoldenTrace, Figure1Timeline) {
  Scheduler sched;
  sched.enable_trace_log();
  Net net(sched);
  ScriptSpec spec("s");
  spec.role("p").role("q").role("r");
  spec.initiation(Initiation::Immediate)
      .termination(Termination::Immediate);
  ScriptInstance inst(net, spec);
  inst.on_role("p", [](RoleContext&) {});
  inst.on_role("q", [](RoleContext& ctx) { ctx.scheduler().sleep_for(50); });
  inst.on_role("r", [](RoleContext& ctx) { ctx.scheduler().sleep_for(80); });

  net.spawn_process("A", [&] { inst.enroll(RoleId("p")); });
  net.spawn_process("B", [&] { inst.enroll(RoleId("q")); });
  net.spawn_process("C", [&] { inst.enroll(RoleId("r")); });
  net.spawn_process("D", [&] {
    sched.sleep_for(10);
    inst.enroll(RoleId("p"));
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

  std::vector<std::string> got;
  for (const auto& e : sched.trace().events())
    got.push_back(std::to_string(e.time) + "|" + e.subject + "|" + e.what);

  const std::vector<std::string> expected = {
      "0|A|attempts to enroll as p",
      "0|s|performance 1 begins",
      "0|A|enrolls as p",
      "0|A|begins role p",
      "0|A|finishes role p",
      "0|A|released from s",
      "0|B|attempts to enroll as q",
      "0|B|enrolls as q",
      "0|B|begins role q",
      "0|C|attempts to enroll as r",
      "0|C|enrolls as r",
      "0|C|begins role r",
      "10|D|attempts to enroll as p",
      "10|E|attempts to enroll as q",
      "10|F|attempts to enroll as r",
      "50|B|finishes role q",
      "50|B|released from s",
      "80|C|finishes role r",
      "80|s|performance 1 ends",
      "80|s|performance 2 begins",
      "80|D|enrolls as p",
      "80|E|enrolls as q",
      "80|F|enrolls as r",
      "80|C|released from s",
      "80|D|begins role p",
      "80|D|finishes role p",
      "80|D|released from s",
      "80|E|begins role q",
      "80|F|begins role r",
      "130|E|finishes role q",
      "130|E|released from s",
      "160|F|finishes role r",
      "160|s|performance 2 ends",
      "160|F|released from s",
  };
  EXPECT_EQ(got, expected);
}

TEST(GoldenTrace, Figure1KeyOrderings) {
  // The figure's prose, independent of exact timestamps:
  //   "D attempts to enroll as p, but must wait"
  //   "A finishes its roll as p, but D must still wait because B and C
  //    are not yet finished"
  Scheduler sched;
  sched.enable_trace_log();
  Net net(sched);
  ScriptSpec spec("s");
  spec.role("p").role("q").role("r");
  spec.initiation(Initiation::Immediate)
      .termination(Termination::Immediate);
  ScriptInstance inst(net, spec);
  inst.on_role("p", [](RoleContext&) {});
  inst.on_role("q", [](RoleContext& ctx) { ctx.scheduler().sleep_for(30); });
  inst.on_role("r", [](RoleContext& ctx) { ctx.scheduler().sleep_for(40); });
  net.spawn_process("A", [&] { inst.enroll(RoleId("p")); });
  net.spawn_process("B", [&] { inst.enroll(RoleId("q")); });
  net.spawn_process("C", [&] { inst.enroll(RoleId("r")); });
  net.spawn_process("D", [&] {
    sched.sleep_for(5);
    inst.enroll(RoleId("p"));
  });
  ASSERT_TRUE(sched.run().ok());
  const auto& log = sched.trace();
  EXPECT_TRUE(log.ordered("A", "finishes role p", "D",
                          "attempts to enroll as p"));
  EXPECT_TRUE(log.ordered("D", "attempts to enroll as p", "B",
                          "finishes role q"));
  EXPECT_TRUE(
      log.ordered("B", "finishes role q", "D", "enrolls as p"));
  EXPECT_TRUE(
      log.ordered("C", "finishes role r", "D", "enrolls as p"));
}

}  // namespace
