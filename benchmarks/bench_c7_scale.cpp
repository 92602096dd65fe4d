// C7 — substrate scalability.
//
// The reproduction-difficulty note for this paper reads "no lightweight
// processes" — the gating problem for scripts in C++. This bench shows
// the fiber substrate we built actually delivers language-level-cheap
// processes: a yield costs tens of nanoseconds, spawn/run cost stays
// linear to 10k fibers, a steady-state rendezvous allocates nothing and
// finds its partner without searching the other parked processes, a
// repeated enroll -> perform -> release cycle allocates nothing either,
// and a full script performance with hundreds of roles stays in the
// millisecond range.
#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "script/instance.hpp"
#include "scripts/broadcast.hpp"

namespace {

// Every allocation in this binary, for the allocs_per_msg gauges (the
// bench is single-threaded).
std::uint64_t g_allocs = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// Not inlined: GCC would otherwise pair an inlined free() with the
// operator new call it sees at the allocation site and warn of a
// mismatch (-Wmismatched-new-delete), though both sides are malloc-based.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using Clock = std::chrono::steady_clock;

double wall_us(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
          .count());
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Two fibers yielding to each other: one op is one yield, i.e. one
/// switch out plus the dispatch of the other fiber.
double yield_ns_per_op() {
  constexpr int kYields = 200000;
  bench::Scheduler sched;
  Clock::time_point t0;
  Clock::time_point t1;
  sched.spawn("ping", [&] {
    t0 = Clock::now();
    for (int i = 0; i < kYields; ++i) sched.yield();
  });
  sched.spawn("pong", [&] {
    for (int i = 0; i < kYields; ++i) sched.yield();
    t1 = Clock::now();
  });
  if (!sched.run().ok()) std::abort();
  return ns_between(t0, t1) / (2.0 * kYields);
}

struct SteadyRendezvous {
  double ns_per_msg = 0;
  std::uint64_t msgs = 0;    // received inside the timed window
  std::uint64_t allocs = 0;  // operator new calls inside the window
};

/// `pairs` sender/receiver pairs on one Net. The timed window opens once
/// every receiver has taken its warm-up messages (spawns, first
/// dispatches and one-time container growth are behind it) and closes
/// when the first receiver has taken its timed ones, so no fiber ends
/// inside it. `named` receivers name their sender; the others receive
/// from any partner.
SteadyRendezvous steady_rendezvous(std::size_t pairs, int timed,
                                   bool named) {
  constexpr int kWarm = 3;
  constexpr int kCool = 2;
  const int total = kWarm + timed + kCool;
  script::runtime::SchedulerOptions opts;
  opts.stack_bytes = 64 * 1024;
  bench::Scheduler sched(opts);
  bench::Net net(sched);
  std::vector<bench::ProcessId> tx(pairs);
  std::vector<bench::ProcessId> rx(pairs);
  std::size_t warming = pairs;
  bool open = false;
  bool closed = false;
  SteadyRendezvous out;
  Clock::time_point t0;
  Clock::time_point t1;
  std::uint64_t allocs0 = 0;
  for (std::size_t p = 0; p < pairs; ++p)
    rx[p] = net.spawn_process("rx" + std::to_string(p), [&, p] {
      for (int m = 0; m < total; ++m) {
        const bool ok = named ? net.recv<int>(tx[p], "m").has_value()
                              : net.recv_any<int>("m").has_value();
        if (!ok) std::abort();
        if (open && !closed) ++out.msgs;
        if (m + 1 == kWarm && --warming == 0) {
          open = true;
          allocs0 = g_allocs;
          t0 = Clock::now();
        } else if (m + 1 == kWarm + timed && open && !closed) {
          closed = true;
          t1 = Clock::now();
          out.allocs = g_allocs - allocs0;
        }
      }
    });
  for (std::size_t p = 0; p < pairs; ++p)
    tx[p] = net.spawn_process("tx" + std::to_string(p), [&, p] {
      for (int m = 0; m < total; ++m)
        if (!net.send(rx[p], "m", m)) std::abort();
    });
  if (!sched.run().ok() || !closed || out.msgs == 0) std::abort();
  out.ns_per_msg = ns_between(t0, t1) / static_cast<double>(out.msgs);
  return out;
}

/// Allocations per performance of one script instance cycling in
/// steady state: `recipients` == 1 is a 2-role pair whose processes name
/// each other; otherwise a sender hands one value to `recipients`
/// members of a family who enroll unnamed. Every enrollment carries two
/// data parameters. The window covers `timed` performances after
/// kWarm warm-up ones (records, stacks and scratch vectors reach their
/// size) and closes kCool performances before anyone exits.
double cycle_allocs_per_perf(int recipients, int timed) {
  using script::core::any_member;
  using script::core::Params;
  using script::core::PartnerSpec;
  using script::core::RoleContext;
  using script::core::RoleId;
  using script::core::ScriptInstance;
  using script::core::ScriptSpec;
  constexpr int kWarm = 8;
  constexpr int kCool = 2;
  const int total = kWarm + timed + kCool;
  const bool pair = recipients == 1;
  bench::Scheduler sched;
  bench::Net net(sched);
  ScriptSpec spec(pair ? "pair" : "cast");
  if (pair)
    spec.role("a").role("b");
  else
    spec.role("a").role_family("b", static_cast<std::size_t>(recipients));
  ScriptInstance inst(net, spec);
  inst.on_role("a", [&](RoleContext& ctx) {
    const int v = ctx.param<int>("v");
    if (pair) {
      if (!ctx.send(RoleId("b"), v)) std::abort();
    } else {
      for (int i = 0; i < recipients; ++i)
        if (!ctx.send(script::core::role("b", i), v)) std::abort();
    }
  });
  inst.on_role("b", [](RoleContext& ctx) {
    auto v = ctx.recv<int>(RoleId("a"));
    if (!v) std::abort();
    ctx.set_param("v", *v);
  });
  std::uint64_t allocs0 = 0;
  std::uint64_t allocs = 0;
  bench::ProcessId a_pid = 0;
  bench::ProcessId b_pid = 0;
  a_pid = net.spawn_process("a", [&] {
    for (int c = 0; c < total; ++c) {
      if (c == kWarm) allocs0 = g_allocs;
      if (c == kWarm + timed) allocs = g_allocs - allocs0;
      const PartnerSpec with =
          pair ? PartnerSpec().with(RoleId("b"), b_pid) : PartnerSpec();
      inst.enroll(RoleId("a"), with, Params().in("v", c).in("cycle", c));
    }
  });
  for (int r = 0; r < recipients; ++r) {
    const auto body = [&] {
      for (int c = 0; c < total; ++c) {
        int got = -1;
        const PartnerSpec with =
            pair ? PartnerSpec().with(RoleId("a"), a_pid) : PartnerSpec();
        inst.enroll(pair ? RoleId("b") : any_member("b"), with,
                    Params().out("v", &got).in("cycle", c));
        if (got != c) std::abort();
      }
    };
    const bench::ProcessId pid =
        net.spawn_process("b" + std::to_string(r), body);
    if (r == 0) b_pid = pid;
  }
  if (!sched.run().ok() ||
      inst.performances_completed() != static_cast<std::uint64_t>(total))
    std::abort();
  return static_cast<double>(allocs) / timed;
}

}  // namespace

int main() {
  bench::banner("C7", "substrate scalability: fibers, rendezvous, casts");

  bench::Telemetry telemetry("c7_scale");
  {
    const double ns = yield_ns_per_op();
    std::printf("yield (two fibers, ping-pong): %.1f ns per yield\n\n", ns);
    telemetry.gauge("yield.ns_per_op", ns);
  }
  {
    bench::Table table({"fibers", "spawn+run wall ms", "us/fiber"});
    for (const std::size_t n : {100u, 1000u, 10000u}) {
      bench::Scheduler sched;
      const double us = wall_us([&] {
        for (std::size_t i = 0; i < n; ++i)
          sched.spawn("f" + std::to_string(i), [&sched] { sched.yield(); });
        if (!sched.run().ok()) std::abort();
      });
      table.add_row({bench::Table::integer(static_cast<std::int64_t>(n)),
                     bench::Table::num(us / 1000.0, 2),
                     bench::Table::num(us / static_cast<double>(n), 2)});
      telemetry.gauge("spawn.n" + std::to_string(n) + ".us_per_fiber",
                      us / static_cast<double>(n));
    }
    table.print();
  }

  {
    std::printf("\n");
    bench::Table table({"pairs", "msgs", "wall ms", "msgs/ms"});
    for (const std::size_t pairs : {50u, 500u, 2000u}) {
      constexpr int kMsgs = 10;
      bench::Scheduler sched;
      bench::Net net(sched);
      std::vector<bench::ProcessId> rx(pairs);
      const double us = wall_us([&] {
        for (std::size_t p = 0; p < pairs; ++p)
          rx[p] = net.spawn_process("rx" + std::to_string(p), [&net] {
            for (int m = 0; m < kMsgs; ++m)
              if (!net.recv_any<int>("m")) std::abort();
          });
        for (std::size_t p = 0; p < pairs; ++p)
          net.spawn_process("tx" + std::to_string(p), [&net, &rx, p] {
            for (int m = 0; m < kMsgs; ++m)
              if (!net.send(rx[p], "m", m)) std::abort();
          });
        if (!sched.run().ok()) std::abort();
      });
      const double total = static_cast<double>(pairs * kMsgs);
      table.add_row(
          {bench::Table::integer(static_cast<std::int64_t>(pairs)),
           bench::Table::integer(static_cast<std::int64_t>(total)),
           bench::Table::num(us / 1000.0, 2),
           bench::Table::num(total / (us / 1000.0), 0)});
      telemetry.gauge(
          "rendezvous.pairs" + std::to_string(pairs) + ".msgs_per_ms",
          total / (us / 1000.0));
    }
    table.print();
  }

  {
    // Steady state only: spawn time and fiber exit are outside the
    // timed window. A message must allocate nothing (allocs_per_msg is
    // gated at 0); what its cost still gains with more pairs is cache
    // misses on thousands of fiber stacks, not search. The ns_per_msg
    // gauges are informational: their run-to-run spread on a shared
    // host is wider than the regression gate's 20%.
    std::printf("\n");
    bench::Table table({"receive", "pairs", "timed msgs", "ns/msg",
                        "allocs/msg"});
    for (const bool named : {true, false}) {
      const std::string kind = named ? "named" : "any";
      std::uint64_t msgs = 0;
      std::uint64_t allocs = 0;
      for (const std::size_t pairs : {50u, 2000u, 8000u}) {
        const int timed = static_cast<int>(100000 / pairs);
        const SteadyRendezvous r = steady_rendezvous(pairs, timed, named);
        msgs += r.msgs;
        allocs += r.allocs;
        table.add_row(
            {kind, bench::Table::integer(static_cast<std::int64_t>(pairs)),
             bench::Table::integer(static_cast<std::int64_t>(r.msgs)),
             bench::Table::num(r.ns_per_msg, 1),
             bench::Table::num(static_cast<double>(r.allocs) /
                                   static_cast<double>(r.msgs),
                               3)});
        telemetry.gauge("rendezvous." + kind + ".pairs" +
                            std::to_string(pairs) + ".ns_per_msg",
                        r.ns_per_msg);
      }
      telemetry.gauge("rendezvous." + kind + ".allocs_per_msg",
                      static_cast<double>(allocs) /
                          static_cast<double>(msgs));
    }
    table.print();
  }

  {
    // A script performance repeated on one instance: enrollment,
    // matching, the role bodies' rendezvous and release. Gated at 0
    // (docs/PERFORMANCE.md, "Script cycle").
    std::printf("\n");
    bench::Table table({"script", "timed perfs", "allocs/perf"});
    for (const auto& [name, recipients] :
         {std::pair<const char*, int>{"pair", 1}, {"cast64", 63}}) {
      constexpr int kTimed = 200;
      const double allocs = cycle_allocs_per_perf(recipients, kTimed);
      table.add_row({name, bench::Table::integer(kTimed),
                     bench::Table::num(allocs, 3)});
      telemetry.gauge(std::string("script.") + name + ".allocs_per_perf",
                      allocs);
    }
    table.print();
  }

  {
    // Fiber churn: repeated waves of short-lived fibers through ONE
    // scheduler, the fig.2 usage pattern distilled. Wave 1 pays the
    // mmaps; every later wave must ride the stack pool.
    std::printf("\n");
    bench::Table table({"waves x fibers", "wall ms", "us/fiber",
                        "stack reuse"});
    constexpr std::size_t kWaves = 20;
    constexpr std::size_t kPerWave = 500;
    script::runtime::SchedulerOptions opts;
    opts.stack_pool_max_idle = kPerWave;  // keep a full wave's stacks warm
    bench::Scheduler sched(opts);
    const double us = wall_us([&] {
      for (std::size_t w = 0; w < kWaves; ++w) {
        for (std::size_t i = 0; i < kPerWave; ++i)
          sched.spawn("c" + std::to_string(i), [&sched] { sched.yield(); });
        if (!sched.run().ok()) std::abort();
      }
    });
    const double per_fiber = us / static_cast<double>(kWaves * kPerWave);
    const double reuse = sched.stack_pool_stats().reuse_ratio();
    table.add_row({std::to_string(kWaves) + " x " + std::to_string(kPerWave),
                   bench::Table::num(us / 1000.0, 2),
                   bench::Table::num(per_fiber, 2),
                   bench::Table::num(reuse, 3)});
    table.print();
    telemetry.gauge("churn.us_per_fiber", per_fiber);
    telemetry.gauge("stackpool.reuse_ratio", reuse);
  }

  {
    std::printf("\n");
    bench::Table table({"cast size", "performances", "wall ms total",
                        "ms/performance"});
    for (const std::size_t n : {50u, 200u, 500u}) {
      constexpr int kPerfs = 5;
      bench::Scheduler sched;
      bench::Net net(sched);
      script::patterns::StarBroadcast<int> bc(net, n);
      const double us = wall_us([&] {
        net.spawn_process("T", [&] {
          for (int p = 0; p < kPerfs; ++p) bc.send(p);
        });
        for (std::size_t i = 0; i < n; ++i)
          net.spawn_process("R" + std::to_string(i), [&, i] {
            for (int p = 0; p < kPerfs; ++p)
              bc.receive(static_cast<int>(i));
          });
        if (!sched.run().ok()) std::abort();
      });
      table.add_row({bench::Table::integer(static_cast<std::int64_t>(n)),
                     bench::Table::integer(kPerfs),
                     bench::Table::num(us / 1000.0, 2),
                     bench::Table::num(us / 1000.0 / kPerfs, 2)});
      telemetry.gauge("cast.n" + std::to_string(n) + ".ms_per_perf",
                      us / 1000.0 / kPerfs);
    }
    table.print();
  }

  bench::note("fibers cost microseconds to spawn+run even at 10k, a "
              "steady-state rendezvous allocates nothing and never "
              "searches other processes' offers, and a 500-role cast "
              "performs in single-digit milliseconds — the 'no "
              "lightweight processes' objection is answered by the "
              "substrate, not avoided.");
  return 0;
}
