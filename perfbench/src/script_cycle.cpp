// script_cycle — the paper's enroll -> perform -> release cycle (§II),
// two kinds at once on one deterministic scheduler:
//
//   * 1024 independent 2-role instances ("pair": a sends to b), whose
//     processes name each other as partners;
//   * one 64-role instance ("cast64": a sender hands one value to 63
//     recipients that enroll unnamed via any_member).
//
// The run is a sequence of epochs. Each epoch builds a fresh Scheduler,
// csp::Net and instances, runs a fixed amount of work, checks it and
// tears it down. (A Scheduler keeps per-fiber state for every fiber it
// ever spawned, so one shared across epochs would grow without bound.)
// Every epoch uses the same seed-derived inputs, so every epoch must
// produce the same layer counts.
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "csp/net.hpp"
#include "script/instance.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using script::core::any_member;
using script::core::Params;
using script::core::PartnerSpec;
using script::core::role;
using script::core::RoleContext;
using script::core::RoleId;
using script::core::ScriptInstance;
using script::core::ScriptSpec;
using script::runtime::ProcessId;
using script::runtime::Scheduler;

constexpr std::size_t kPairs = 1024;
constexpr int kRecipients = 63;
constexpr int kCyclesPerPair = 12;
constexpr std::uint64_t kCastStream = 1ull << 40;

/// The datum a performance moves, plus the sender's "this is the
/// final cycle" decision, so partners leave their loops together.
struct CycleMsg {
  std::uint64_t value = 0;
  bool last = false;
};

/// Host-time marks a role body leaves for the process that enrolled.
struct Probe {
  std::uint64_t body_start = 0;
  std::uint64_t body_end = 0;
};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t datum(std::uint64_t seed, std::uint64_t stream, int cycle) {
  return splitmix(seed ^ splitmix(stream * 4096 + static_cast<std::uint64_t>(cycle)));
}

/// Layer counts of one epoch; identical epochs must give identical rows.
struct Counts {
  std::uint64_t steps = 0, ticks = 0, rendezvous = 0, matcher_runs = 0,
                index_hits = 0, perfs = 0, aborted = 0;
  bool operator==(const Counts&) const = default;
};

struct SpanNames {
  const char* enroll;
  const char* perform;
  const char* release;
};
constexpr SpanNames kPairSpans{"script.cycle2.enroll", "script.cycle2.perform",
                               "script.cycle2.release"};
constexpr SpanNames kCastSpans{"script.cast64.enroll", "script.cast64.perform",
                               "script.cast64.release"};

/// One epoch's rig and its bookkeeping.
class Epoch {
 public:
  Epoch(std::uint64_t seed, Tracer& tr, Window& win)
      : seed_(seed), tr_(tr), win_(win) {}

  /// Build the scheduler, the Net and the instances; spawn every process.
  void setup() {
    sched_ = std::make_unique<Scheduler>();
    net_ = std::make_unique<script::csp::Net>(*sched_);
    ScriptSpec pair_spec("pair");
    pair_spec.role("a").role("b");
    ScriptSpec cast_spec("cast64");
    cast_spec.role("sender").role_family("recipient", kRecipients);

    for (std::size_t i = 0; i < kPairs; ++i) {
      auto inst = std::make_unique<ScriptInstance>(*net_, pair_spec,
                                                   "pair" + std::to_string(i));
      inst->on_role("a", [this](RoleContext& ctx) {
        Probe* p = mark_start(ctx);
        timed_send(ctx, RoleId("b"), ctx.param<CycleMsg>("msg"));
        mark_end(p);
      });
      inst->on_role("b", [this](RoleContext& ctx) {
        Probe* p = mark_start(ctx);
        timed_recv(ctx, RoleId("a"));
        mark_end(p);
      });
      pairs_.push_back(std::move(inst));
    }
    cast_ = std::make_unique<ScriptInstance>(*net_, cast_spec, "cast64");
    cast_->on_role("sender", [this](RoleContext& ctx) {
      Probe* p = mark_start(ctx);
      const CycleMsg m = ctx.param<CycleMsg>("msg");
      for (int i = 0; i < kRecipients; ++i)
        timed_send(ctx, role("recipient", i), m);
      mark_end(p);
    });
    cast_->on_role("recipient", [this](RoleContext& ctx) {
      Probe* p = mark_start(ctx);
      timed_recv(ctx, RoleId("sender"));
      mark_end(p);
    });

    // The seed permutes spawn order, hence the scheduler's round-robin
    // order, and picks the values every performance moves.
    std::vector<std::size_t> order(kPairs);
    for (std::size_t i = 0; i < kPairs; ++i) order[i] = i;
    script::support::Rng rng(seed_);
    for (std::size_t i = kPairs - 1; i > 0; --i)
      std::swap(order[i], order[rng.below(i + 1)]);

    a_pid_.assign(kPairs, script::runtime::kNoProcess);
    b_pid_.assign(kPairs, script::runtime::kNoProcess);
    pairs_left_ = kPairs;
    for (std::size_t i : order) {
      a_pid_[i] = net_->spawn_process("a" + std::to_string(i),
                                      [this, i] { pair_a(i); });
      b_pid_[i] = net_->spawn_process("b" + std::to_string(i),
                                      [this, i] { pair_b(i); });
    }
    net_->spawn_process("cast.sender", [this] { cast_sender(); });
    for (int r = 0; r < kRecipients; ++r)
      net_->spawn_process("cast.r" + std::to_string(r),
                          [this] { cast_recipient(); });
  }

  Scheduler& scheduler() { return *sched_; }

  /// Layer counts after the epoch's run().
  Counts counts(const script::runtime::RunResult& rr) const {
    Counts c;
    c.steps = rr.steps;
    c.ticks = rr.final_time;
    c.rendezvous = net_->rendezvous_count();
    for (const auto& p : pairs_) add(c, *p);
    add(c, *cast_);
    return c;
  }

  /// Correctness of the epoch; each finding is also a failed operation.
  void check(Outcome& out) const {
    std::uint64_t pair_perfs = 0;
    for (const auto& p : pairs_) pair_perfs += p->performances_completed();
    auto fail = [&](std::uint64_t n, const std::string& what) {
      if (n == 0) return;
      out.failed += n;
      out.problems.push_back(what + " (" + std::to_string(n) + ")");
    };
    const std::uint64_t want = kPairs * kCyclesPerPair;
    fail(pair_cycles_ != want ? 1 : 0, "pair cycles run != planned");
    fail(pair_perfs != pair_cycles_ ? 1 : 0,
         "pair performances_completed != cycles run");
    fail(cast_->performances_completed() != cast_perfs_ ? 1 : 0,
         "cast performances_completed != cycles run");
    std::uint64_t aborted = cast_->performances_aborted();
    for (const auto& p : pairs_) aborted += p->performances_aborted();
    fail(aborted, "aborted performances");
    fail(bad_values_, "recipient holds a value other than the one sent");
    fail(comm_failures_, "role communication failed");
  }

  std::uint64_t ops() const { return pair_cycles_ + cast_perfs_; }
  std::size_t pending_peak() const { return pending_peak_; }

  /// Instances first: they deregister from the Net and the scheduler.
  void teardown() {
    pairs_.clear();
    cast_.reset();
    net_.reset();
    sched_.reset();
  }

 private:
  static void add(Counts& c, const ScriptInstance& inst) {
    c.matcher_runs += inst.matcher_runs();
    c.index_hits += inst.matcher_index_hits();
    c.perfs += inst.performances_completed();
    c.aborted += inst.performances_aborted();
  }

  Probe* mark_start(RoleContext& ctx) {
    Probe* p = ctx.param<Probe*>("probe");
    if (tr_.on) p->body_start = now_ns();
    return p;
  }
  void mark_end(Probe* p) {
    if (tr_.on) p->body_end = now_ns();
  }

  void timed_send(RoleContext& ctx, const RoleId& to, const CycleMsg& m) {
    const bool ok = [&] {
      SpanGuard span(tr_, "csp.send");
      return ctx.send(to, m).has_value();
    }();
    if (!ok) ++comm_failures_;
  }
  void timed_recv(RoleContext& ctx, const RoleId& from) {
    auto v = [&] {
      SpanGuard span(tr_, "csp.recv");
      return ctx.recv<CycleMsg>(from);
    }();
    if (!v.has_value()) {
      ++comm_failures_;
      return;
    }
    ctx.set_param("msg", *v);
  }

  /// One enrollment, timed from the enroll call to its return.
  void enroll(ScriptInstance& inst, const RoleId& r, const PartnerSpec& with,
              Params params, Probe& probe, Samples& lat,
              const SpanNames& names) {
    const std::uint64_t t0 = now_ns();
    inst.enroll(r, with, std::move(params));
    const std::uint64_t t1 = now_ns();
    lat.add_ns(t1 - t0);
    if (tr_.on) {
      tr_.span(names.enroll, t0, probe.body_start);
      tr_.span(names.perform, probe.body_start, probe.body_end);
      tr_.span(names.release, probe.body_end, t1);
    }
    pending_peak_ = std::max(pending_peak_, net_->pending_count());
  }

  void pair_a(std::size_t i) {
    for (int c = 0;; ++c) {
      const CycleMsg m{datum(seed_, i, c), c + 1 == kCyclesPerPair};
      Probe probe;
      enroll(*pairs_[i], RoleId("a"), PartnerSpec().with(RoleId("b"), b_pid_[i]),
             Params().in("msg", m).in("probe", &probe), probe, win_.a,
             kPairSpans);
      if (m.last) return;
    }
  }

  void pair_b(std::size_t i) {
    for (int c = 0;; ++c) {
      CycleMsg got;
      Probe probe;
      enroll(*pairs_[i], RoleId("b"), PartnerSpec().with(RoleId("a"), a_pid_[i]),
             Params().out("msg", &got).in("probe", &probe), probe, win_.a,
             kPairSpans);
      ++pair_cycles_;
      if (got.value != datum(seed_, i, c)) ++bad_values_;
      if (got.last || c + 1 >= kCyclesPerPair) break;
    }
    --pairs_left_;
  }

  // The cast runs alongside the pairs and stops with them: the sender
  // marks a performance final once every pair has finished.
  void cast_sender() {
    for (int c = 0;; ++c) {
      const CycleMsg m{datum(seed_, kCastStream, c), pairs_left_ == 0};
      Probe probe;
      enroll(*cast_, RoleId("sender"), {},
             Params().in("msg", m).in("probe", &probe), probe, win_.b,
             kCastSpans);
      ++cast_perfs_;
      if (m.last) return;
    }
  }

  void cast_recipient() {
    for (int c = 0;; ++c) {
      CycleMsg got;
      Probe probe;
      enroll(*cast_, any_member("recipient"), {},
             Params().out("msg", &got).in("probe", &probe), probe, win_.b,
             kCastSpans);
      if (got.value != datum(seed_, kCastStream, c)) ++bad_values_;
      if (got.last) return;
    }
  }

  std::uint64_t seed_;
  Tracer& tr_;
  Window& win_;
  // Declared in dependency order so that destruction runs instances,
  // then the Net, then the scheduler (teardown() does the same).
  std::unique_ptr<Scheduler> sched_;
  std::unique_ptr<script::csp::Net> net_;
  std::vector<std::unique_ptr<ScriptInstance>> pairs_;
  std::unique_ptr<ScriptInstance> cast_;
  std::vector<ProcessId> a_pid_, b_pid_;
  std::size_t pairs_left_ = 0;
  std::uint64_t pair_cycles_ = 0, cast_perfs_ = 0;
  std::uint64_t bad_values_ = 0, comm_failures_ = 0;
  std::size_t pending_peak_ = 0;
};

}  // namespace

Outcome run_script_cycle(const RunConfig& cfg) {
  Outcome out;
  Tracer tr;
  std::vector<Window> wins;
  std::vector<double> setups;
  std::vector<double> busy_ns_per_step;
  std::vector<Counts> counts;
  std::size_t pending_peak = 0;
  double stack_reuse = 0, peak_rss = 0;
  std::uint64_t start = now_ns();
  const std::size_t min_windows = cfg.trace ? 4 : 3;

  // Epoch 0 warms caches and is not reported.
  for (std::size_t e = 0;; ++e) {
    Window w;
    w.traced = cfg.trace && e > 0 && e % 2 == 0;
    pin_to_cpu(e);
    Epoch epoch(cfg.seed, tr, w);

    const std::uint64_t t0 = now_ns();
    epoch.setup();
    setups.push_back(seconds_since(t0));

    tr.on = w.traced;
    const std::uint64_t t1 = now_ns();
    const script::runtime::RunResult rr = epoch.scheduler().run();
    w.seconds = seconds_since(t1);
    tr.on = false;
    w.ops = epoch.ops();
    out.attempted += w.ops;
    if (!rr.ok()) {
      ++out.failed;
      out.problems.push_back("epoch did not finish: " +
                             script::runtime::describe(rr, epoch.scheduler()));
    }
    epoch.check(out);
    const Counts c = epoch.counts(rr);
    counts.push_back(c);
    pending_peak = std::max(pending_peak, epoch.pending_peak());
    stack_reuse = epoch.scheduler().stack_pool_stats().reuse_ratio();
    if (!w.traced && c.steps > 0)
      busy_ns_per_step.push_back(w.seconds * 1e9 / static_cast<double>(c.steps));
    epoch.teardown();
    // Memory is read at a fixed amount of work, two epochs, not at the
    // end of a run, so that it does not grow with run length or speed.
    if (e == 1) peak_rss = self_peak_rss_mb();

    if (e == 0) {
      start = now_ns();
      continue;
    }
    wins.push_back(std::move(w));
    const double elapsed = seconds_since(start);
    if (!out.problems.empty()) break;
    if (elapsed >= cfg.seconds && wins.size() >= min_windows) break;
    if (elapsed >= 2 * cfg.seconds + 10) break;  // hard stop on a slow host
  }

  Report& r = out.report;
  summarize(wins, "cycles_per_s", "cycle2", "cast64", r);
  r.set("setup_s", median(setups), "s");
  r.set("peak_rss_mb", peak_rss, "MiB");

  // Determinism: every epoch ran the same inputs from a fresh rig.
  std::uint64_t mismatches = 0;
  for (const Counts& c : counts) mismatches += c == counts.front() ? 0 : 1;
  if (mismatches != 0) {
    out.failed += mismatches;
    out.problems.push_back("layer counts differ between identical epochs");
  }
  r.set("determinism.mismatches", static_cast<double>(mismatches), "count");

  const Counts& c = counts.front();
  const double ops = static_cast<double>(c.perfs);
  r.set("runtime.dispatches_per_op", ratio(static_cast<double>(c.steps), ops),
        "count");
  r.set("runtime.ns_per_dispatch", median(busy_ns_per_step), "ns");
  r.set("runtime.virtual_ticks_per_op", ratio(static_cast<double>(c.ticks), ops),
        "ticks");
  r.set("runtime.stackpool.reuse_ratio", stack_reuse, "ratio");
  r.set("script.matcher_runs_per_perf",
        ratio(static_cast<double>(c.matcher_runs), static_cast<double>(c.perfs)),
        "count");
  r.set("script.matcher_index_hit_ratio",
        ratio(static_cast<double>(c.index_hits),
              static_cast<double>(c.index_hits + c.matcher_runs)),
        "ratio");
  r.set("script.perf_aborted", static_cast<double>(c.aborted), "count");
  r.set("csp.rendezvous_per_op", ratio(static_cast<double>(c.rendezvous), ops),
        "count");
  r.set("csp.pending_peak", static_cast<double>(pending_peak), "count");
  for (const char* name : {"script.cycle2.enroll", "script.cycle2.perform",
                           "script.cycle2.release", "script.cast64.enroll",
                           "script.cast64.perform", "script.cast64.release",
                           "csp.send", "csp.recv"})
    r.set(std::string(name) + "_us", tr.get(name).pct_us(0.5), "us");
  return out;
}

}  // namespace perfbench
