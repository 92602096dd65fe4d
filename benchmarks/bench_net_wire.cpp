// Transport/Wire overhead and throughput.
//
// The transport seam (docs/DISTRIBUTION.md) promises that ARMING it is
// nearly free: a scheduler that hosts a Wire pump + PeerSupervisor with
// no application traffic pays one extra fiber dispatch per virtual tick
// and a couple of map lookups — nothing else. This bench pins that:
//
//   1. armed-vs-plain — a dense fiber-churn workload (200 fibers
//      sleeping through 2000 ticks) run bare, then with a full wire
//      stack (SimTransport + PeerSupervisor + Wire pump, heartbeats
//      ticking) mounted beside it. 'wire.arming_overhead_pct' is the
//      number the CI bench gate keeps under its absolute ceiling.
//
//   2. sim round-trips — tagged request/reply between two Wire
//      endpoints over the sim backend: the deterministic-twin cost of
//      one messaging hop, all CPU (virtual latency is free).
//
//   3. TCP loopback round-trips — the same frames over real sockets
//      via epoll service/poll loops, transport-level, so the number is
//      the backend's frame cost without pump pacing. Reported, not
//      gated: loopback latency on a shared CI runner is weather. The
//      syscalls one round trip costs are counted too, after the first
//      reply; 'tcp.epoll_ctls_per_roundtrip' has an absolute ceiling of
//      0 (EPOLLOUT is armed only on a full socket).
//
//   4. FileWal appends — the lock-DB's durable log writing 2PC records
//      into a file in a temporary directory; 'wal.file.ns_per_op' is
//      gated like every ns_per_op cost.
#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>

#include "bench_util.hpp"
#include "lockdb/wire_server.hpp"
#include "runtime/peer_supervisor.hpp"
#include "runtime/transport.hpp"
#include "runtime/transport_tcp.hpp"
#include "runtime/wire.hpp"

namespace {

using script::runtime::PeerId;
using script::runtime::PeerSupervisor;
using script::runtime::Scheduler;
using script::runtime::SimNetwork;
using script::runtime::SimTransport;
using script::runtime::TcpTransport;
using script::runtime::Wire;

double wall_us(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

constexpr std::size_t kFibers = 200;
constexpr std::uint64_t kTicks = 2000;

// Dense tick churn: every fiber takes one dispatch per tick for kTicks
// ticks. With `armed`, a full wire stack idles beside the workload —
// its pump is one more fiber in the same tick rotation, heartbeats and
// suspicion sweeps included, but zero application frames.
double run_churn(bool armed) {
  Scheduler sched;
  SimNetwork net(1);
  SimTransport ta(net, 0);
  SimTransport tb(net, 1);
  PeerSupervisor sup(ta, 1);
  Wire wire(sched, sup, &sup);
  if (armed) {
    wire.start();
    sup.watch(1);
    // Something must drain peer 1's inbox or heartbeats pile up; a
    // second pump is the honest steady-state shape of a 2-node link.
    Wire peer_wire(sched, tb);
    peer_wire.start();
    for (std::size_t i = 0; i < kFibers; ++i) {
      sched.spawn("churn" + std::to_string(i), [&sched] {
        for (std::uint64_t t = 0; t < kTicks; ++t) sched.sleep_for(1);
      });
    }
    sched.spawn("closer", [&] {
      sched.sleep_for(kTicks + 1);
      wire.stop();
      peer_wire.stop();
    });
    return wall_us([&] { sched.run(); });
  }
  for (std::size_t i = 0; i < kFibers; ++i) {
    sched.spawn("churn" + std::to_string(i), [&sched] {
      for (std::uint64_t t = 0; t < kTicks; ++t) sched.sleep_for(1);
    });
  }
  return wall_us([&] { sched.run(); });
}

constexpr std::size_t kSimRoundtrips = 5000;

// One tagged request/reply between two Wire endpoints per iteration.
double run_sim_roundtrips() {
  Scheduler sched;
  SimNetwork net(1);
  SimTransport ta(net, 0);
  SimTransport tb(net, 1);
  Wire wa(sched, ta);
  Wire wb(sched, tb);
  wa.start();
  wb.start();
  const std::string payload(64, 'x');
  sched.spawn("server", [&] {
    Wire::Msg m;
    while (wb.recv("req", &m)) {
      wb.post(m.from, "rep", m.payload);
    }
  });
  sched.spawn("client", [&] {
    Wire::Msg m;
    for (std::size_t i = 0; i < kSimRoundtrips; ++i) {
      wa.post(1, "req", payload);
      if (!wa.recv("rep", &m)) std::abort();
    }
    wa.stop();
    wb.stop();  // unblocks the server's recv
  });
  return wall_us([&] { sched.run(); });
}

constexpr std::size_t kTcpRoundtrips = 2000;

struct TcpRun {
  double wall_us = 0;
  double syscalls_per_rt = 0;    // both endpoints, after the first reply
  double epoll_ctls_per_rt = 0;  // likewise
};

// Transport-level echo over real loopback sockets: tight service/poll
// loops on both endpoints, no scheduler, no pump pacing — the raw
// frame cost of the epoll backend.
TcpRun run_tcp_roundtrips() {
  TcpTransport server(2);
  if (!server.listen(0)) std::abort();
  TcpTransport client(1);
  client.add_peer(2, "127.0.0.1", server.bound_port());
  const std::string payload(64, 'x');
  std::size_t got = 0;
  auto syscalls = [&] {
    return client.stats().syscalls + server.stats().syscalls;
  };
  auto ctls = [&] {
    return client.stats().epoll_ctls + server.stats().epoll_ctls;
  };
  // Connection setup is over once the first reply is in.
  std::uint64_t syscalls0 = 0, ctls0 = 0;
  TcpRun run;
  run.wall_us = wall_us([&] {
    client.send(2, payload);
    while (got < kTcpRoundtrips) {
      client.service();
      server.service();
      server.poll([&](PeerId from, std::string&& frame) {
        server.send(from, std::move(frame));
      });
      client.poll([&](PeerId, std::string&&) {
        if (++got == 1) {
          syscalls0 = syscalls();
          ctls0 = ctls();
        }
        if (got < kTcpRoundtrips) client.send(2, payload);
      });
    }
  });
  const auto steady = static_cast<double>(kTcpRoundtrips - 1);
  run.syscalls_per_rt = static_cast<double>(syscalls() - syscalls0) / steady;
  run.epoll_ctls_per_rt = static_cast<double>(ctls() - ctls0) / steady;
  return run;
}

constexpr std::size_t kWalAppends = 20000;

// FileWal appends of the records one lock-DB write leaves in a
// replica's log, a prepare and its decision, into a fresh file.
// Returns ns per append.
double run_wal_appends() {
  std::string dir =
      (std::filesystem::temp_directory_path() / "bench_wal.XXXXXX").string();
  if (::mkdtemp(dir.data()) == nullptr) std::abort();
  const std::string path = dir + "/replica.wal";
  double us = 0;
  {
    script::lockdb::FileWal wal(path);
    us = wall_us([&] {
      for (std::size_t i = 0; i < kWalAppends; i += 2) {
        const std::string txn = std::to_string(16777216 + i);
        wal.append("prep." + txn, "c0_12=v" + txn + "a;c0_3=v" + txn + "b");
        wal.append("decision." + txn, "commit");
      }
    });
  }
  std::filesystem::remove_all(dir);
  return us * 1000.0 / static_cast<double>(kWalAppends);
}

}  // namespace

int main() {
  bench::banner("net-wire",
                "transport arming overhead (sim), round-trip cost over "
                "the sim and TCP backends, and FileWal append cost");

  bench::Telemetry telemetry("net_wire");
  constexpr int kReps = 5;

  (void)run_churn(false);  // warm-up: allocator + stack pool

  double plain_us = 1e300, armed_us = 1e300;
  for (int r = 0; r < kReps; ++r) {
    plain_us = std::min(plain_us, run_churn(false));
    armed_us = std::min(armed_us, run_churn(true));
  }
  const double armed_pct = (armed_us - plain_us) / plain_us * 100.0;

  double sim_us = 1e300, tcp_us = 1e300, wal_ns = 1e300;
  TcpRun tcp;  // the counts repeat; the last run's are reported
  for (int r = 0; r < kReps; ++r) {
    sim_us = std::min(sim_us, run_sim_roundtrips());
    tcp = run_tcp_roundtrips();
    tcp_us = std::min(tcp_us, tcp.wall_us);
    wal_ns = std::min(wal_ns, run_wal_appends());
  }
  const double sim_rt = sim_us / static_cast<double>(kSimRoundtrips);
  const double tcp_rt = tcp_us / static_cast<double>(kTcpRoundtrips);

  bench::Table table({"config", "wall ms", "note"});
  table.add_row({"churn plain", bench::Table::num(plain_us / 1000.0, 2),
                 "-"});
  table.add_row({"churn armed", bench::Table::num(armed_us / 1000.0, 2),
                 bench::Table::num(armed_pct, 2) + "% overhead"});
  table.add_row({"sim roundtrips", bench::Table::num(sim_us / 1000.0, 2),
                 bench::Table::num(sim_rt, 2) + " us each"});
  table.add_row({"tcp roundtrips", bench::Table::num(tcp_us / 1000.0, 2),
                 bench::Table::num(tcp_rt, 2) + " us each, " +
                     bench::Table::num(tcp.syscalls_per_rt, 1) +
                     " syscalls, " +
                     bench::Table::num(tcp.epoll_ctls_per_rt, 1) +
                     " epoll_ctl"});
  table.add_row({"filewal appends",
                 bench::Table::num(wal_ns * kWalAppends / 1e6, 2),
                 bench::Table::num(wal_ns, 0) + " ns each"});
  table.print();

  telemetry.gauge("churn.plain.wall_ms", plain_us / 1000.0);
  telemetry.gauge("churn.armed.wall_ms", armed_us / 1000.0);
  telemetry.gauge("wire.arming_overhead_pct", armed_pct);
  telemetry.gauge("sim.us_per_roundtrip", sim_rt);
  telemetry.gauge("sim.roundtrips_per_ms", 1000.0 / sim_rt);
  telemetry.gauge("tcp.us_per_roundtrip", tcp_rt);
  telemetry.gauge("tcp.roundtrips_per_ms", 1000.0 / tcp_rt);
  telemetry.gauge("tcp.syscalls_per_roundtrip", tcp.syscalls_per_rt);
  telemetry.gauge("tcp.epoll_ctls_per_roundtrip", tcp.epoll_ctls_per_rt);
  telemetry.gauge("wal.file.ns_per_op", wal_ns);

  bench::note("'armed' mounts SimTransport + PeerSupervisor + two Wire "
              "pumps (heartbeats live, zero app frames) beside the churn "
              "— the CI gate's absolute ceiling covers exactly that "
              "idle tax. TCP loopback latency is reported, not gated; "
              "its epoll_ctl count per round trip must stay 0.");
  return 0;
}
