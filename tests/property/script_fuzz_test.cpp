// Fuzz the script engine: random specs (roles, families, policies,
// critical sets) and random enrollment programs, under FIFO and random
// scheduling. Deadlock is a legal outcome of a random program; what
// must hold ALWAYS:
//   * the run terminates (all-done or reported deadlock — no crash);
//   * performances are strictly sequential (Figure 1's rule);
//   * a role is bound at most once per performance;
//   * every role body runs inside its performance's begin/end window.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "script/instance.hpp"
#include "support/rng.hpp"

namespace {

using script::core::any_member;
using script::core::CriticalSet;
using script::core::Initiation;
using script::core::PartnerSpec;
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
using script::support::Rng;

class ScriptFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScriptFuzz, TraceInvariantsHoldForRandomPrograms) {
  Rng rng(GetParam() * 7919 + 13);

  // --- Random spec ---
  ScriptSpec spec("fuzz");
  const int n_singles = static_cast<int>(rng.range(1, 2));
  std::vector<std::string> role_names;
  for (int s = 0; s < n_singles; ++s) {
    role_names.push_back("s" + std::to_string(s));
    spec.role(role_names.back());
  }
  const auto fam = static_cast<std::size_t>(rng.range(2, 3));
  spec.role_family("fam", fam);
  spec.initiation(rng.chance(0.5) ? Initiation::Delayed
                                  : Initiation::Immediate);
  spec.termination(rng.chance(0.5) ? Termination::Delayed
                                   : Termination::Immediate);
  if (rng.chance(0.4))
    spec.critical(CriticalSet{{"s0", 1}, {"fam", fam - 1}});

  SchedulerOptions opts;
  opts.policy =
      rng.chance(0.5) ? SchedulePolicy::Fifo : SchedulePolicy::Random;
  opts.seed = GetParam();
  Scheduler sched(opts);
  sched.enable_trace_log();
  Net net(sched);
  ScriptInstance inst(net, spec);
  for (const auto& rn : role_names)
    inst.on_role(rn, [](RoleContext& ctx) {
      ctx.scheduler().sleep_for(ctx.scheduler().rng().below(8));
    });
  inst.on_role("fam", [](RoleContext& ctx) {
    ctx.scheduler().sleep_for(ctx.scheduler().rng().below(8));
  });

  // --- Random program: 4-8 processes, each 1-3 enrollments ---
  const int n_procs = static_cast<int>(rng.range(4, 8));
  for (int p = 0; p < n_procs; ++p) {
    std::vector<RoleId> wants;
    const int n_enrolls = static_cast<int>(rng.range(1, 3));
    for (int e = 0; e < n_enrolls; ++e) {
      if (rng.chance(0.4) && !role_names.empty())
        wants.push_back(RoleId(
            role_names[rng.pick_index(role_names.size())]));
      else if (rng.chance(0.5))
        wants.push_back(any_member("fam"));
      else
        wants.push_back(
            role("fam", static_cast<int>(rng.below(fam))));
    }
    net.spawn_process("p" + std::to_string(p), [&, wants] {
      for (const auto& want : wants) {
        // Use a timed enrollment so random programs cannot wedge the
        // whole run: a request that can never be admitted expires.
        (void)inst.enroll_for(want, 500);
      }
    });
  }

  const auto result = sched.run();  // ok OR deadlock; crash = test fails

  // --- Trace invariants ---
  int open_performances = 0;
  std::set<std::string> roles_in_current_perf;
  std::map<std::string, int> begins_per_process;
  for (const auto& e : sched.trace().events()) {
    if (e.subject == "fuzz") {
      if (e.what.find("begins") != std::string::npos) {
        EXPECT_EQ(open_performances, 0)
            << "overlapping performances, seed " << GetParam();
        ++open_performances;
        roles_in_current_perf.clear();
      } else if (e.what.find("ends") != std::string::npos) {
        --open_performances;
      }
      continue;
    }
    if (e.what.rfind("enrolls as ", 0) == 0) {
      const std::string r = e.what.substr(std::string("enrolls as ").size());
      EXPECT_TRUE(roles_in_current_perf.insert(r).second)
          << "role " << r << " double-bound, seed " << GetParam();
    }
    if (e.what.rfind("begins role", 0) == 0) {
      EXPECT_EQ(open_performances, 1)
          << "role body outside a performance, seed " << GetParam();
    }
  }
  EXPECT_GE(open_performances, 0);
  (void)result;
}

TEST_P(ScriptFuzz, TimedEnrollmentNeverWedges) {
  // With every enrollment timed, random programs must ALWAYS drain:
  // the run ends all-done (expired requests notwithstanding).
  Rng rng(GetParam() * 104729 + 7);
  ScriptSpec spec("fz");
  spec.role("x").role("y");
  spec.initiation(rng.chance(0.5) ? Initiation::Delayed
                                  : Initiation::Immediate);
  // Immediate termination only: under DELAYED termination an admitted
  // role legitimately waits for its performance to finish, which a
  // random program may never complete — that is a correct wedge, not a
  // bug (covered by the invariant test above).
  spec.termination(Termination::Immediate);
  SchedulerOptions opts;
  opts.policy = SchedulePolicy::Random;
  opts.seed = GetParam();
  Scheduler sched(opts);
  Net net(sched);
  ScriptInstance inst(net, spec);
  inst.on_role("x", [](RoleContext&) {});
  inst.on_role("y", [](RoleContext&) {});
  const int n = static_cast<int>(rng.range(1, 5));
  for (int p = 0; p < n; ++p)
    net.spawn_process("p" + std::to_string(p), [&, p] {
      sched.sleep_for(rng.below(10));
      (void)inst.enroll_for(p % 2 == 0 ? RoleId("x") : RoleId("y"), 100);
    });
  const auto result = sched.run();
  EXPECT_TRUE(result.ok()) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScriptFuzz,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
