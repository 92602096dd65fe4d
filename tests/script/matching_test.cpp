#include "script/matching.hpp"

#include <gtest/gtest.h>

namespace {

using script::core::any_member;
using script::core::CriticalSet;
using script::core::PartnerSpec;
using script::core::role;
using script::core::RoleId;
using script::core::ScriptSpec;
using namespace script::core::detail;

/// try_admit, reporting the concrete role admitted into (or nullopt).
std::optional<RoleId> admit(const ScriptSpec& spec, MatchState& st,
                            const RequestView& req) {
  const std::size_t slot = try_admit(spec, st, req);
  if (slot == script::core::kNoSlot) return std::nullopt;
  return st.role_at(slot);
}

/// form_delayed into a fresh result (nullopt when no cast forms).
std::optional<FormResult> form(const ScriptSpec& spec,
                               const std::vector<RequestView>& queue) {
  FormResult out;
  if (!form_delayed(spec, queue, out)) return std::nullopt;
  return out;
}

ScriptSpec broadcast_spec() {
  ScriptSpec s("broadcast");
  s.role("transmitter").role_family("recipient", 3);
  return s;
}

TEST(Matching, AdmitUnnamedIntoFreeRole) {
  const auto spec = broadcast_spec();
  MatchState st;
  const auto r = admit(spec, st, {10, RoleId("transmitter"), nullptr});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->str(), "transmitter");
  EXPECT_TRUE(st.is_bound(RoleId("transmitter")));
}

TEST(Matching, RejectSecondProcessForBoundRole) {
  const auto spec = broadcast_spec();
  MatchState st;
  ASSERT_TRUE(admit(spec, st, {10, RoleId("transmitter"), nullptr}));
  EXPECT_FALSE(admit(spec, st, {11, RoleId("transmitter"), nullptr}));
}

TEST(Matching, AnyIndexTakesLowestFree) {
  const auto spec = broadcast_spec();
  MatchState st;
  auto a = admit(spec, st, {1, any_member("recipient"), nullptr});
  auto b = admit(spec, st, {2, any_member("recipient"), nullptr});
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->index, 0);
  EXPECT_EQ(b->index, 1);
}

TEST(Matching, AnyIndexSkipsExcluded) {
  const auto spec = broadcast_spec();
  MatchState st;
  st.reset(spec);
  st.slot(st.find_slot(role("recipient", 0))).flags |= kOut;
  auto a = admit(spec, st, {1, any_member("recipient"), nullptr});
  ASSERT_TRUE(a);
  EXPECT_EQ(a->index, 1);
}

TEST(Matching, FullFamilyRejectsFurtherAnyIndex) {
  const auto spec = broadcast_spec();
  MatchState st;
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(admit(spec, st, {static_cast<script::core::ProcessId>(i),
                           any_member("recipient"), nullptr}));
  EXPECT_FALSE(admit(spec, st, {9, any_member("recipient"), nullptr}));
}

TEST(Matching, NamedConstraintRestrictsLaterAdmission) {
  const auto spec = broadcast_spec();
  MatchState st;
  PartnerSpec wants;
  wants.with(RoleId("transmitter"), 42);
  ASSERT_TRUE(admit(spec, st, {1, role("recipient", 0), &wants}));
  // Process 7 may not play transmitter: recipient[0] named 42.
  EXPECT_FALSE(admit(spec, st, {7, RoleId("transmitter"), nullptr}));
  EXPECT_TRUE(admit(spec, st, {42, RoleId("transmitter"), nullptr}));
}

TEST(Matching, RequestContradictingBindingRejected) {
  const auto spec = broadcast_spec();
  MatchState st;
  ASSERT_TRUE(admit(spec, st, {7, RoleId("transmitter"), nullptr}));
  PartnerSpec wants;
  wants.with(RoleId("transmitter"), 42);  // but 7 already has it
  EXPECT_FALSE(admit(spec, st, {1, role("recipient", 0), &wants}));
}

TEST(Matching, AlternativeNamingAcceptsEitherProcess) {
  // Paper: "a given role should be fulfilled by either process A or B".
  const auto spec = broadcast_spec();
  MatchState st;
  PartnerSpec wants;
  wants.with_any_of(RoleId("transmitter"), {40, 41});
  ASSERT_TRUE(admit(spec, st, {1, role("recipient", 0), &wants}));
  EXPECT_FALSE(admit(spec, st, {39, RoleId("transmitter"), nullptr}));
  EXPECT_TRUE(admit(spec, st, {41, RoleId("transmitter"), nullptr}));
}

TEST(Matching, IntersectionOfTwoMembersConstraints) {
  const auto spec = broadcast_spec();
  MatchState st;
  PartnerSpec w1, w2;
  w1.with_any_of(RoleId("transmitter"), {40, 41});
  w2.with_any_of(RoleId("transmitter"), {41, 42});
  ASSERT_TRUE(admit(spec, st, {1, role("recipient", 0), &w1}));
  ASSERT_TRUE(admit(spec, st, {2, role("recipient", 1), &w2}));
  EXPECT_FALSE(admit(spec, st, {40, RoleId("transmitter"), nullptr}));
  EXPECT_TRUE(admit(spec, st, {41, RoleId("transmitter"), nullptr}));
}

TEST(Matching, CriticalSatisfiedDefaultSet) {
  const auto spec = broadcast_spec();
  MatchState st;
  EXPECT_FALSE(critical_satisfied(spec, st));
  (void)admit(spec, st, {0, RoleId("transmitter"), nullptr});
  for (int i = 0; i < 3; ++i)
    (void)admit(spec, st, {static_cast<script::core::ProcessId>(i + 1),
                     any_member("recipient"), nullptr});
  EXPECT_TRUE(critical_satisfied(spec, st));
}

TEST(Matching, CriticalAlternatives) {
  ScriptSpec s("lock");
  s.role_family("manager", 2).role("reader").role("writer");
  s.critical(CriticalSet{{"manager", 2}, {"reader", 1}});
  s.critical(CriticalSet{{"manager", 2}, {"writer", 1}});
  MatchState st;
  (void)admit(s, st, {1, role("manager", 0), nullptr});
  (void)admit(s, st, {2, role("manager", 1), nullptr});
  EXPECT_FALSE(critical_satisfied(s, st));
  (void)admit(s, st, {3, RoleId("writer"), nullptr});
  EXPECT_TRUE(critical_satisfied(s, st));
}

TEST(Matching, FormDelayedSimple) {
  const auto spec = broadcast_spec();
  std::vector<RequestView> queue{
      {10, RoleId("transmitter"), nullptr},
      {11, any_member("recipient"), nullptr},
      {12, any_member("recipient"), nullptr},
      {13, any_member("recipient"), nullptr},
  };
  const auto res = form(spec, queue);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->admitted.size(), 4u);
  EXPECT_TRUE(critical_satisfied(spec, res->state));
}

TEST(Matching, FormDelayedInsufficientReturnsNothing) {
  const auto spec = broadcast_spec();
  std::vector<RequestView> queue{
      {10, RoleId("transmitter"), nullptr},
      {11, any_member("recipient"), nullptr},
  };
  EXPECT_FALSE(form(spec, queue).has_value());
}

TEST(Matching, FormDelayedNeedsBacktracking) {
  // The case greedy admission cannot start: C(q), B(q, wants p=A),
  // A(p, wants q=B). Only {A->p, B->q} satisfies criticality with
  // mutual agreement; greedy would give q to C and then reject A.
  ScriptSpec s("s");
  s.role("p").role("q");
  constexpr script::core::ProcessId A = 1, B = 2, C = 3;
  PartnerSpec b_wants, a_wants;
  b_wants.with(RoleId("p"), A);
  a_wants.with(RoleId("q"), B);
  std::vector<RequestView> queue{
      {C, RoleId("q"), nullptr},
      {B, RoleId("q"), &b_wants},
      {A, RoleId("p"), &a_wants},
  };
  const auto res = form(s, queue);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->state.bound_to(RoleId("p")), A);
  EXPECT_EQ(res->state.bound_to(RoleId("q")), B);
}

TEST(Matching, FormDelayedPrefersEarlierArrivals) {
  ScriptSpec s("s");
  s.role("p");
  std::vector<RequestView> queue{
      {1, RoleId("p"), nullptr},
      {2, RoleId("p"), nullptr},
  };
  const auto res = form(s, queue);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->state.bound_to(RoleId("p")), 1u);
}

TEST(Matching, FormDelayedExtendsBeyondCriticalSet) {
  // Critical set is just the manager; a reader queued behind it must
  // still be pulled into the same performance (maximal extension).
  ScriptSpec s("s");
  s.role("manager").role("reader");
  s.critical(CriticalSet{{"manager", 1}});
  std::vector<RequestView> queue{
      {1, RoleId("manager"), nullptr},
      {2, RoleId("reader"), nullptr},
  };
  const auto res = form(s, queue);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->admitted.size(), 2u);
}

TEST(Matching, OpenFamilyGrowsOnDemand) {
  ScriptSpec s("s");
  s.open_role_family("worker", 2);
  MatchState st;
  auto a = admit(s, st, {1, any_member("worker"), nullptr});
  auto b = admit(s, st, {2, any_member("worker"), nullptr});
  auto c = admit(s, st, {3, any_member("worker"), nullptr});
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(c->index, 2);
  EXPECT_EQ(st.open_size("worker"), 3u);
  EXPECT_FALSE(critical_satisfied(s, st) == false);  // 3 >= min 2
}

TEST(Matching, FifoFairnessAcrossCompetingCriticalSets) {
  // Two alternative critical sets share the contended role r. The
  // enrollee that asked for r FIRST must get it, even though the
  // performance only becomes formable when a later r-requester is also
  // in the queue — the matcher may not starve the head of the line.
  ScriptSpec s("gate");
  s.role("r").role("a").role("b");
  s.critical(CriticalSet{{"r", 1}, {"a", 1}});
  s.critical(CriticalSet{{"r", 1}, {"b", 1}});
  std::vector<RequestView> queue{
      {1, RoleId("r"), nullptr},
      {2, RoleId("b"), nullptr},
      {3, RoleId("r"), nullptr},
  };
  const auto res = form(s, queue);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->state.bound_to(RoleId("r")), 1u);
  EXPECT_EQ(res->state.bound_to(RoleId("b")), 2u);
}

TEST(Matching, FifoFairnessWhenBothSetsFillInOneStep) {
  // Same shape, but the arrival that completes a set is the LAST
  // r-requester: formation still binds r to the oldest request.
  ScriptSpec s("gate");
  s.role("r").role("a").role("b");
  s.critical(CriticalSet{{"r", 1}, {"a", 1}});
  s.critical(CriticalSet{{"r", 1}, {"b", 1}});
  std::vector<RequestView> queue{
      {1, RoleId("r"), nullptr},
      {2, RoleId("r"), nullptr},
      {3, RoleId("a"), nullptr},
  };
  const auto res = form(s, queue);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->state.bound_to(RoleId("r")), 1u);
  EXPECT_EQ(res->state.bound_to(RoleId("a")), 3u);
}

TEST(Matching, MutualNamingPairsJointly) {
  // T enrolls as transmitter naming P,Q as recipients; P and Q each
  // name T back. All three must land in one consistent assignment.
  const auto spec = broadcast_spec();
  constexpr script::core::ProcessId T = 1, P = 2, Q = 3, R = 4;
  PartnerSpec t_wants, p_wants, q_wants;
  t_wants.with(role("recipient", 0), P).with(role("recipient", 1), Q);
  p_wants.with(RoleId("transmitter"), T);
  q_wants.with(RoleId("transmitter"), T);
  std::vector<RequestView> queue{
      {T, RoleId("transmitter"), &t_wants},
      {P, role("recipient", 0), &p_wants},
      {Q, role("recipient", 1), &q_wants},
      {R, role("recipient", 2), nullptr},
  };
  const auto res = form(spec, queue);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->state.bound_to(role("recipient", 0)), P);
  EXPECT_EQ(res->state.bound_to(role("recipient", 1)), Q);
  EXPECT_EQ(res->state.bound_to(role("recipient", 2)), R);
}

}  // namespace
