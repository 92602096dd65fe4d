// Exhaustive-schedule properties of the overload-protection layer
// (docs/SEMANTICS.md §11): a cancellation racing a rendezvous commit
// has exactly one winner on EVERY schedule, and shedding composed with
// crash-replacement (FailurePolicy::Replace) resolves every run with a
// bounded queue and at most one adopted replacement.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "csp/net.hpp"
#include "runtime/explore.hpp"
#include "runtime/fault.hpp"
#include "script/instance.hpp"

namespace {

using script::core::EnrollResult;
using script::core::ExecutionBudget;
using script::core::FailurePolicy;
using script::core::Initiation;
using script::core::OverloadConfig;
using script::core::RoleContext;
using script::core::RoleId;
using script::core::ScriptInstance;
using script::core::ScriptSpec;
using script::core::Termination;
using script::csp::Net;
using script::runtime::DeadlineExceeded;
using script::runtime::explore_interleavings;
using script::runtime::FiberKilled;
using script::runtime::OverflowPolicy;
using script::runtime::RunResult;
using script::runtime::Scheduler;

// A deadline due NOW races the rendezvous commit: depending on which
// ready fiber the scheduler picks, the enroller either forms the
// performance first (commit wins — it runs to completion; the pending
// cancellation would only be delivered at a blocking point it never
// reaches) or hits the cancellation point first (cancel wins — the
// request is withdrawn and the partner times out). The invariant
// across EVERY schedule: exactly one of the two, never both.
TEST(OverloadProperty, CancelVersusCommitHasExactlyOneWinner) {
  struct Outcome {
    bool committed = false;
    bool cancelled = false;
    bool partner_played = false;
  };
  std::shared_ptr<Outcome> out;
  bool saw_commit = false, saw_cancel = false;

  const auto stats = explore_interleavings(
      [&](Scheduler& sched) {
        out = std::make_shared<Outcome>();
        auto net = std::make_shared<Net>(sched);
        ScriptSpec spec("race");
        spec.role("a").role("b");
        spec.initiation(Initiation::Delayed)
            .termination(Termination::Immediate);
        auto inst = std::make_shared<ScriptInstance>(*net, spec);
        inst->on_role("a", [](RoleContext&) {});
        inst->on_role("b", [](RoleContext&) {});
        auto o = out;
        sched.spawn("A", [&sched, net, inst, o] {
          sched.set_deadline(sched.current(), sched.now());
          try {
            const EnrollResult r = inst->enroll(RoleId("a"));
            o->committed = !r.shed && !r.aborted;
          } catch (const DeadlineExceeded&) {
            o->cancelled = true;
          }
          sched.clear_deadline(sched.current());
        });
        sched.spawn("B", [&sched, net, inst, o] {
          const auto r = inst->enroll_for(RoleId("b"), 5);
          o->partner_played = r.has_value() && !r->shed;
        });
      },
      [&](Scheduler&, const RunResult& r) {
        ASSERT_TRUE(r.ok());
        // Exactly one winner, deterministically per schedule.
        EXPECT_NE(out->committed, out->cancelled);
        // The partner's fate follows the winner: it played iff the
        // rendezvous committed.
        EXPECT_EQ(out->partner_played, out->committed);
        saw_commit |= out->committed;
        saw_cancel |= out->cancelled;
      });
  EXPECT_TRUE(stats.complete);
  // The race is real: both outcomes occur across the schedule tree.
  EXPECT_TRUE(saw_commit);
  EXPECT_TRUE(saw_cancel);
}

// Shedding under a bounded queue composed with FailurePolicy::Replace:
// the first "b" cast crashes mid-role while replacement candidates race
// the ShedOldest eviction (an arrival past the depth-2 bound evicts the
// queue head — possibly the very candidate about to be adopted, or the
// not-yet-admitted "a"). Every schedule must still resolve: at most one
// performance, at most one adopted replacement, queue drained, every
// enroller with exactly one fate.
TEST(OverloadProperty, ShedVersusCrashWithReplaceResolvesEverySchedule) {
  struct Outcome {
    std::optional<EnrollResult> a, b1, b2, b3;
    std::uint64_t sheds = 0;
    std::uint64_t completed = 0, aborted = 0;
    std::size_t queue_left = 0;
  };
  std::shared_ptr<Outcome> out;
  std::shared_ptr<ScriptInstance> inst_ref;  // read by the checker

  const auto stats = explore_interleavings(
      [&](Scheduler& sched) {
        out = std::make_shared<Outcome>();
        auto net = std::make_shared<Net>(sched);
        ScriptSpec spec("pair");
        spec.role("a").role("b");
        spec.initiation(Initiation::Delayed)
            .termination(Termination::Delayed);
        spec.on_failure(FailurePolicy::Replace)
            .takeover_deadline(40)
            .takeover_fallback(FailurePolicy::Abort);
        ExecutionBudget budget;
        budget.max_queue_depth = 2;
        spec.budget(budget);
        OverloadConfig cfg;
        cfg.overflow = OverflowPolicy::ShedOldest;
        spec.overload(cfg);
        auto inst = std::make_shared<ScriptInstance>(*net, spec);
        inst_ref = inst;
        inst->on_role("a", [](RoleContext& ctx) {
          auto r = ctx.recv<int>(RoleId("b"));
          if (!r.has_value() && ctx.await_takeover(RoleId("b")))
            r = ctx.recv<int>(RoleId("b"));
        });
        inst->on_role("b", [](RoleContext& ctx) {
          if (ctx.resumed()) {
            (void)ctx.send(RoleId("a"), 2);
            return;
          }
          throw FiberKilled{};  // the first cast always dies
        });
        auto o = out;
        net->spawn_process("A", [net, inst, o] {
          o->a = inst->enroll(RoleId("a"));
        });
        net->spawn_process("B1", [net, inst, o] {
          o->b1 = inst->enroll_for(RoleId("b"), 100);
        });
        net->spawn_process("B2", [net, inst, o] {
          o->b2 = inst->enroll_for(RoleId("b"), 100);
        });
        net->spawn_process("B3", [net, inst, o] {
          o->b3 = inst->enroll_for(RoleId("b"), 100);
        });
      },
      [&](Scheduler&, const RunResult& r) {
        ASSERT_TRUE(r.ok());
        out->sheds = inst_ref->sheds();
        out->completed = inst_ref->performances_completed();
        out->aborted = inst_ref->performances_aborted();
        out->queue_left = inst_ref->queue_length();

        // At most one performance; it resolved one way, not both.
        EXPECT_LE(out->completed + out->aborted, 1u);
        // The "a" enrollment's verdict matches the resolution — unless
        // it was evicted before a performance could ever form.
        ASSERT_TRUE(out->a.has_value());
        if (out->a->shed) {
          EXPECT_EQ(out->completed + out->aborted, 0u);
        } else {
          EXPECT_EQ(out->completed + out->aborted, 1u);
          EXPECT_EQ(out->a->aborted, out->aborted == 1);
        }
        // At most one candidate was adopted as the replacement, and a
        // completed performance required exactly one.
        int resumed = 0;
        for (const auto& b : {out->b1, out->b2, out->b3})
          if (b.has_value() && b->resumed) ++resumed;
        EXPECT_LE(resumed, 1);
        if (out->completed == 1) {
          EXPECT_EQ(resumed, 1);
        }
        // The bounded queue drained and shed at most one head per
        // arrival; nothing leaked or wedged.
        EXPECT_EQ(out->queue_left, 0u);
        EXPECT_LE(out->sheds, 4u);
        // Release the instance while this run's scheduler is still
        // alive: its destructor unregisters scheduler hooks, and the
        // next run's scheduler may reuse the same stack slot.
        inst_ref.reset();
      });
  EXPECT_TRUE(stats.complete);
}

}  // namespace
