// Property tests for the joint-enrollment matcher: random request sets,
// validated against the paper's matching conditions.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "script/matching.hpp"
#include "support/rng.hpp"

namespace {

using script::core::any_member;
using script::core::CriticalSet;
using script::core::PartnerSpec;
using script::core::ProcessId;
using script::core::role;
using script::core::RoleId;
using script::core::ScriptSpec;
using script::support::Rng;
using namespace script::core::detail;

struct GeneratedCase {
  ScriptSpec spec{"g"};
  std::vector<PartnerSpec> partner_storage;
  std::vector<RequestView> queue;
};

GeneratedCase generate(std::uint64_t seed) {
  Rng rng(seed);
  GeneratedCase gc;
  // 1-3 singleton roles + one family of 2-4.
  const int singles = static_cast<int>(rng.range(1, 3));
  for (int s = 0; s < singles; ++s)
    gc.spec.role("s" + std::to_string(s));
  const auto fam_size = static_cast<std::size_t>(rng.range(2, 4));
  gc.spec.role_family("fam", fam_size);
  // Sometimes a partial critical set.
  if (rng.chance(0.5))
    gc.spec.critical(CriticalSet{{"s0", 1}, {"fam", fam_size / 2 + 1}});

  // 3-10 requests; constraints name random processes for random roles.
  const auto n_requests = static_cast<std::size_t>(rng.range(3, 10));
  gc.partner_storage.resize(n_requests);
  for (std::size_t i = 0; i < n_requests; ++i) {
    RoleId wanted = rng.chance(0.5)
                        ? RoleId("s" + std::to_string(rng.below(
                              static_cast<std::uint64_t>(singles))))
                        : (rng.chance(0.5)
                               ? any_member("fam")
                               : role("fam", static_cast<int>(rng.below(
                                                 fam_size))));
    PartnerSpec& ps = gc.partner_storage[i];
    if (rng.chance(0.4)) {
      // Constrain one random role to 1-2 random pids.
      RoleId constrained =
          rng.chance(0.5)
              ? RoleId("s" + std::to_string(rng.below(
                    static_cast<std::uint64_t>(singles))))
              : role("fam", static_cast<int>(rng.below(fam_size)));
      std::vector<ProcessId> allowed;
      allowed.push_back(static_cast<ProcessId>(rng.below(n_requests)));
      if (rng.chance(0.5))
        allowed.push_back(static_cast<ProcessId>(rng.below(n_requests)));
      ps.with_any_of(constrained, allowed);
    }
    gc.queue.push_back(RequestView{static_cast<ProcessId>(i), wanted,
                                   &gc.partner_storage[i]});
  }
  return gc;
}

class MatcherProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatcherProperty, FormedAssignmentsAreSoundAndAgreeing) {
  const auto gc = generate(GetParam());
  FormResult result;
  if (!form_delayed(gc.spec, gc.queue, result))
    return;  // failing to form is always sound

  const MatchState& st = result.state;
  const auto bindings = st.bindings();
  // 1. Criticality: the formed cast satisfies some critical set.
  EXPECT_TRUE(critical_satisfied(gc.spec, st)) << "seed " << GetParam();

  // 2. Soundness of bindings: distinct requests, valid roles, each
  //    bound role traces back to a request that asked for it.
  std::set<ProcessId> used;
  for (const auto& [r, pid] : bindings) {
    EXPECT_TRUE(gc.spec.valid(r)) << r.str();
    EXPECT_TRUE(used.insert(pid).second)
        << "process bound twice, seed " << GetParam();
    const auto& req = gc.queue[pid];  // pid == queue index by design
    const bool asked =
        req.requested == r ||
        (req.requested.is_any_index() && req.requested.name == r.name);
    EXPECT_TRUE(asked) << "seed " << GetParam();
  }

  // 3. Mutual agreement: every admitted member's constraints hold for
  //    every FILLED role they constrain.
  for (const auto& [r, pid] : bindings) {
    const auto& partners = gc.partner_storage[pid];
    for (const auto& [cr, allowed] : partners.constraints()) {
      const ProcessId bound = st.bound_to(cr);
      if (bound == script::core::kNoProcess) continue;  // unfilled: vacuous
      EXPECT_NE(std::find(allowed.begin(), allowed.end(), bound),
                allowed.end())
          << "constraint violated on " << cr.str() << ", seed "
          << GetParam();
    }
  }

  // 4. The admitted list is consistent with the bindings.
  EXPECT_EQ(result.admitted.size(), st.binding_count());
  for (const auto& [qi, slot] : result.admitted)
    EXPECT_EQ(st.slot(slot).pid, gc.queue[qi].pid);
}

TEST_P(MatcherProperty, IncrementalAdmissionNeverBreaksAgreement) {
  // Feed the same random queue through try_admit one by one (the
  // immediate-initiation path) and check the same invariants.
  const auto gc = generate(GetParam() + 1000);
  MatchState st;
  std::map<ProcessId, const PartnerSpec*> admitted;
  for (const auto& req : gc.queue)
    if (try_admit(gc.spec, st, req) != script::core::kNoSlot)
      admitted[req.pid] = req.partners;

  for (const auto& [r, pid] : st.bindings()) {
    for (const auto& [cr, allowed] : admitted.at(pid)->constraints()) {
      const ProcessId bound = st.bound_to(cr);
      if (bound == script::core::kNoProcess) continue;
      EXPECT_NE(std::find(allowed.begin(), allowed.end(), bound),
                allowed.end())
          << "seed " << GetParam();
    }
  }
}

TEST_P(MatcherProperty, FormationFindsSolutionsBruteForceFinds) {
  // Cross-check against exhaustive search on small instances: if any
  // subset of requests forms a consistent critical cast, form_delayed
  // must succeed too (completeness), and vice versa (soundness covered
  // above).
  const auto gc = generate(GetParam() + 2000);
  if (gc.queue.size() > 7) return;  // keep brute force cheap

  bool brute_found = false;
  const auto n = gc.queue.size();
  for (std::uint32_t mask = 1; mask < (1u << n) && !brute_found; ++mask) {
    MatchState st;
    bool ok = true;
    for (std::size_t i = 0; i < n && ok; ++i)
      if (mask & (1u << i))
        ok = try_admit(gc.spec, st, gc.queue[i]) != script::core::kNoSlot;
    brute_found = ok && critical_satisfied(gc.spec, st);
  }
  FormResult result;
  const bool formed = form_delayed(gc.spec, gc.queue, result);
  // Brute force admits subsets in arrival order only, so it can miss
  // order-dependent solutions the DFS finds; but anything brute force
  // finds, the DFS must find.
  if (brute_found) {
    EXPECT_TRUE(formed) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherProperty,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
