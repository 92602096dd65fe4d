// F1 — Figure 1: consecutive performances.
//
// Reproduces the paper's timeline: processes A..F, roles p/q/r, two
// performances. D attempts to enroll as p while performance 1 is still
// running; although A (the first p) finished long ago, D must wait until
// B and C finish too. We print the event trace in the figure's format
// and tabulate D's wait under each initiation/termination policy pair.
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "script/instance.hpp"

namespace {

using script::core::Initiation;
using script::core::RoleContext;
using script::core::RoleId;
using script::core::ScriptInstance;
using script::core::ScriptSpec;
using script::core::Termination;

struct Outcome {
  std::uint64_t d_attempt = 0;
  std::uint64_t d_enrolled = 0;
  std::uint64_t perf1_end = 0;
  std::uint64_t total = 0;
};

Outcome run_scenario(Initiation init, Termination term, bool print_trace) {
  bench::Scheduler sched;
  sched.enable_trace_log();
  bench::Net net(sched);
  ScriptSpec spec("s");
  spec.role("p").role("q").role("r");
  spec.initiation(init).termination(term);
  ScriptInstance inst(net, spec);
  // Role durations: p is instant, q takes 50, r takes 80 ticks.
  inst.on_role("p", [](RoleContext&) {});
  inst.on_role("q", [](RoleContext& ctx) { ctx.scheduler().sleep_for(50); });
  inst.on_role("r", [](RoleContext& ctx) { ctx.scheduler().sleep_for(80); });

  Outcome out;
  net.spawn_process("A", [&] { inst.enroll(RoleId("p")); });
  net.spawn_process("B", [&] { inst.enroll(RoleId("q")); });
  net.spawn_process("C", [&] { inst.enroll(RoleId("r")); });
  net.spawn_process("D", [&] {
    sched.sleep_for(10);
    out.d_attempt = sched.now();
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
  const auto result = sched.run();
  bench::expect_clean(result, sched);
  out.total = result.final_time;

  const auto& log = sched.trace();
  for (const auto& e : log.events()) {
    if (e.subject == "D" && e.what == "begins role p") out.d_enrolled = e.time;
    if (e.subject == "s" && e.what == "performance 1 ends")
      out.perf1_end = e.time;
  }
  if (print_trace) log.print();
  return out;
}

const char* iname(Initiation i) {
  return i == Initiation::Delayed ? "delayed" : "immediate";
}
const char* tname(Termination t) {
  return t == Termination::Delayed ? "delayed" : "immediate";
}

}  // namespace

int main() {
  bench::banner("F1", "Figure 1: consecutive performances of a script");

  std::printf("\nevent trace (immediate initiation, immediate "
              "termination), paper format:\n\n");
  run_scenario(Initiation::Immediate, Termination::Immediate, true);

  bench::Table table({"initiation", "termination", "D attempts", "D enrolls",
                      "perf1 ends", "D waited", "both perfs done"});
  for (const auto init : {Initiation::Immediate, Initiation::Delayed}) {
    for (const auto term : {Termination::Immediate, Termination::Delayed}) {
      const auto o = run_scenario(init, term, false);
      table.add_row({iname(init), tname(term),
                     bench::Table::integer(static_cast<std::int64_t>(o.d_attempt)),
                     bench::Table::integer(static_cast<std::int64_t>(o.d_enrolled)),
                     bench::Table::integer(static_cast<std::int64_t>(o.perf1_end)),
                     bench::Table::integer(
                         static_cast<std::int64_t>(o.d_enrolled - o.d_attempt)),
                     bench::Table::integer(static_cast<std::int64_t>(o.total))});
    }
  }
  std::printf("\n");
  table.print();
  bench::note("D always enrolls exactly when performance 1 ends (t=80): the "
              "successive-activations rule holds under every policy pair.");
  return 0;
}
