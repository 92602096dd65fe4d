// C6 — ablation: the joint-enrollment matcher.
//
// DESIGN.md commits to a backtracking matcher (greedy admission cannot
// start mutually-naming casts) with a reachability prune (without it, a
// cast that CANNOT yet form costs 2^queue work on every enrollment
// while processes trickle in). This bench measures formation cost
// across the regimes that motivated those choices:
//   * unnamed     — n any-index requests, forms instantly;
//   * en-bloc     — fully partner-named cast (index backtracking);
//   * infeasible  — queue one short of critical, must FAIL fast;
//   * adversarial — mutual-naming chain solvable only by backtracking.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "script/matching.hpp"

namespace {

using script::core::any_member;
using script::core::PartnerSpec;
using script::core::ProcessId;
using script::core::role;
using script::core::RoleId;
using script::core::ScriptSpec;
using namespace script::core::detail;

void BM_FormUnnamed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ScriptSpec spec("s");
  spec.role_family("member", n);
  std::vector<RequestView> queue;
  for (std::size_t i = 0; i < n; ++i)
    queue.push_back({static_cast<ProcessId>(i), any_member("member"),
                     nullptr});
  FormResult r;  // reused, as an instance reuses its formation state
  for (auto _ : state) {
    if (!form_delayed(spec, queue, r)) std::abort();
    benchmark::DoNotOptimize(r);
  }
}

void BM_FormEnBloc(benchmark::State& state) {
  // Every member pins every OTHER member's slot (maximal naming).
  const auto n = static_cast<std::size_t>(state.range(0));
  ScriptSpec spec("s");
  spec.role_family("member", n);
  std::vector<PartnerSpec> partners(n);
  std::vector<ProcessId> pids(n);
  for (std::size_t i = 0; i < n; ++i) pids[i] = static_cast<ProcessId>(i);
  for (std::size_t i = 0; i < n; ++i)
    partners[i].with_family("member", pids);
  std::vector<RequestView> queue;
  for (std::size_t i = 0; i < n; ++i)
    queue.push_back({pids[i], role("member", static_cast<int>(i)),
                     &partners[i]});
  FormResult r;  // reused, as an instance reuses its formation state
  for (auto _ : state) {
    if (!form_delayed(spec, queue, r)) std::abort();
    benchmark::DoNotOptimize(r);
  }
}

void BM_FormInfeasible(benchmark::State& state) {
  // One member short: with the reachability prune this fails at the
  // root; without it, it would cost 2^(n-1) nodes.
  const auto n = static_cast<std::size_t>(state.range(0));
  ScriptSpec spec("s");
  spec.role_family("member", n);
  std::vector<RequestView> queue;
  for (std::size_t i = 0; i + 1 < n; ++i)
    queue.push_back({static_cast<ProcessId>(i), any_member("member"),
                     nullptr});
  FormResult r;
  for (auto _ : state) {
    if (form_delayed(spec, queue, r)) std::abort();
    benchmark::DoNotOptimize(r);
  }
}

void BM_FormAdversarialChain(benchmark::State& state) {
  // Decoys first: process D_i wants singleton role s_i with an
  // impossible partner for the NEXT role, so greedy inclusion must be
  // undone — only the tail suffix of properly-naming requests works.
  const auto n = static_cast<std::size_t>(state.range(0));
  ScriptSpec spec("s");
  for (std::size_t i = 0; i < n; ++i) spec.role("s" + std::to_string(i));
  std::vector<PartnerSpec> partners(2 * n);
  std::vector<RequestView> queue;
  // Decoys: D_i asks s_i and pins s_((i+1)%n) to a pid that will never
  // request it (pid 9999+i).
  for (std::size_t i = 0; i < n; ++i) {
    partners[i].with(RoleId("s" + std::to_string((i + 1) % n)),
                     static_cast<ProcessId>(9999 + i));
    queue.push_back({static_cast<ProcessId>(i),
                     RoleId("s" + std::to_string(i)), &partners[i]});
  }
  // Real cast: R_i asks s_i and pins s_((i+1)%n) to R_(i+1).
  for (std::size_t i = 0; i < n; ++i) {
    partners[n + i].with(RoleId("s" + std::to_string((i + 1) % n)),
                         static_cast<ProcessId>(100 + (i + 1) % n));
    queue.push_back({static_cast<ProcessId>(100 + i),
                     RoleId("s" + std::to_string(i)), &partners[n + i]});
  }
  FormResult r;  // reused, as an instance reuses its formation state
  for (auto _ : state) {
    if (!form_delayed(spec, queue, r)) std::abort();
    benchmark::DoNotOptimize(r);
  }
}

// Bridges google-benchmark results into the repo's bench telemetry:
// every run lands as a "<Name>.<arg>.ns_per_op" gauge in
// BENCH_c6_matcher.json, so the CI regression gate can diff matcher
// cost the same way it diffs the figure benches.
class TelemetryReporter : public benchmark::ConsoleReporter {
 public:
  explicit TelemetryReporter(bench::Telemetry& telemetry)
      : telemetry_(telemetry) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& r : runs) {
      std::string key = r.benchmark_name();
      if (key.rfind("BM_", 0) == 0) key = key.substr(3);
      for (char& c : key)
        if (c == '/') c = '.';
      telemetry_.gauge(key + ".ns_per_op", r.GetAdjustedRealTime());
    }
  }

 private:
  bench::Telemetry& telemetry_;
};

}  // namespace

BENCHMARK(BM_FormUnnamed)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_FormEnBloc)->Arg(4)->Arg(16);
BENCHMARK(BM_FormInfeasible)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_FormAdversarialChain)->Arg(3)->Arg(5);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::Telemetry telemetry("c6_matcher");
  TelemetryReporter reporter(telemetry);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;  // telemetry written at scope exit
}
