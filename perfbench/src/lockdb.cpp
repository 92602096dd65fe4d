// lockdb_sim and lockdb_tcp — closed-loop transactions against the Fig 5
// lock database replicated three ways.
//
// K client fibers each own a WireDriver (distinct `self`) and share one
// driver-side Wire. A transaction is either a write (75%: X-lock two
// keys, 2PC update, release) or a read (25%: S-lock one key, get,
// release). Each client draws keys from its own partition, so the mix
// is conflict-free by construction, and each client keeps a model of
// what it committed: every get must return the model's value, and every
// replica's digest must equal lockdb_digest of the merged model.
//
//   lockdb_sim  3 WireReplicas and the clients on one scheduler over
//               SimTransport + SimWal. The run is a sequence of epochs,
//               each a fresh cluster running a fixed number of
//               transactions; identical epochs must give identical
//               layer counts.
//   lockdb_tcp  3 replica processes forked from this binary (`serve`),
//               each TcpTransport + PeerSupervisor + Wire + FileWal, as
//               `lockdb_server serve` deploys them. The driver process
//               runs the clients on one thread, one connection per
//               replica, in phases of a fixed number of transactions.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "lockdb/wire_server.hpp"
#include "runtime/peer_supervisor.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/sim_log.hpp"
#include "runtime/transport_tcp.hpp"
#include "runtime/wire.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using script::lockdb::FileWal;
using script::lockdb::LockMode;
using script::lockdb::LockTable;
using script::lockdb::SimWal;
using script::lockdb::WireDriver;
using script::lockdb::WireDriverOptions;
using script::lockdb::WireReplica;
using script::lockdb::WireReplicaOptions;
using script::runtime::PeerId;
using script::runtime::PeerSupervisor;
using script::runtime::PeerSupervisorOptions;
using script::runtime::ProcessId;
using script::runtime::Scheduler;
using script::runtime::SimLogStore;
using script::runtime::SimNetwork;
using script::runtime::SimTransport;
using script::runtime::TcpTransport;
using script::runtime::Transport;
using script::runtime::TransportStats;
using script::runtime::Wire;

constexpr std::size_t kClients = 8;
constexpr std::uint64_t kKeysPerClient = 32;
constexpr PeerId kDriverPeer = 100;
const std::vector<PeerId> kReplicas{0, 1, 2};

constexpr std::uint64_t kSimTxnsPerEpoch = 8000;
constexpr std::uint64_t kTcpWarmupTxns = 2000;
constexpr std::uint64_t kTcpTxnsPerPhase = 4000;
// Windows are short so that a run holds many of them, and their median
// averages over the host's swings in speed.
constexpr std::uint64_t kTxnsPerWindow = 500;

// Timer sizing. Virtual ticks advance once per Wire pump iteration, and
// under load an iteration takes microseconds, not the 500 us idle floor,
// so every healthy-path timer is sized for the fastest tick: a reply
// timeout of 100k ticks is >= 0.5 s of host time even at 5 us per tick,
// and leases outlive any transaction by orders of magnitude. A healthy
// run therefore sees no denial, dead peer, takeover or reaped lease,
// and the benchmark counts any of them as a failed operation.
WireDriverOptions driver_options(PeerId self) {
  WireDriverOptions o;
  o.self = self;
  o.replicas = kReplicas;
  o.reply_timeout = 100000;
  o.attempts = 2;
  o.lease_ticks = 10000000;
  return o;
}

WireReplicaOptions replica_options(PeerId self) {
  WireReplicaOptions o;
  o.self = self;
  o.replicas = kReplicas;
  o.housekeeping_ticks = 50;
  // A fresh cluster has nothing to recover; peers still booting answer
  // late, so do not hold boot up waiting for them.
  o.recover_timeout = 20;
  return o;
}

PeerSupervisorOptions supervision(bool replica) {
  PeerSupervisorOptions o;
  o.heartbeat_every = 40;
  o.suspect_after = 100000;
  // Clients never escalate a replica to Gone (as in lockdb_server).
  o.gone_after = replica ? 200000 : 0;
  return o;
}

std::string key_of(std::size_t client, std::uint64_t j) {
  return "c" + std::to_string(client) + "_" + std::to_string(j);
}

// ---------------------------------------------------------------------
// The replica stack above a backend, shared by both workloads.

struct ReplicaNode {
  ReplicaNode(Scheduler& sched, Transport& backend, script::lockdb::Wal& store,
              PeerId self)
      : timed(backend),
        sup(timed, 1, supervision(true)),
        wire(sched, sup, &sup),
        wal(store),
        rep(sched, wire, table, wal, replica_options(self)) {
    table.set_clock([&sched] { return sched.now(); });
    sup.on_gone = [this](PeerId p, std::uint64_t) { rep.note_peer_gone(p); };
    sup.on_reenroll = [this](PeerId p, std::uint64_t) { rep.note_peer_back(p); };
  }

  /// Start the pump, watch the other replicas, recover, then serve.
  void boot(Scheduler& sched, PeerId self, std::size_t* booted) {
    wire.start();
    for (PeerId id : kReplicas)
      if (id != self) sup.watch(id);
    sched.spawn("boot", [this, booted] {
      rep.recover();
      rep.start();
      if (booted != nullptr) ++*booted;
    });
  }

  void stop() {
    rep.stop();
    wire.stop();
  }

  TimedTransport timed;
  PeerSupervisor sup;
  Wire wire;
  LockTable table;
  TimedWal wal;
  WireReplica rep;
};

/// Layer counters a replica reports (read in-process for the sim, sent
/// back as a STATS line by a replica process).
struct ReplicaStats {
  std::uint64_t served = 0, appends = 0, timed_appends = 0,
                append_ns = 0, denials = 0, leases_reaped = 0, takeovers = 0,
                frames = 0, bytes = 0;
  std::string digest;

  /// `link` is the replica's backend transport (both directions counted).
  static ReplicaStats of(const ReplicaNode& n, const TransportStats& link) {
    ReplicaStats s;
    s.served = n.rep.requests_served();
    s.appends = n.wal.appends;
    s.timed_appends = n.wal.timed_appends;
    s.append_ns = n.wal.append_ns;
    s.denials = n.table.denials();
    s.leases_reaped = n.table.leases_reaped();
    s.takeovers = n.rep.takeovers();
    s.frames = link.frames_sent + link.frames_received;
    s.bytes = link.bytes_sent + link.bytes_received;
    s.digest = n.rep.digest();
    return s;
  }
  std::string line() const {
    std::ostringstream o;
    o << "STATS " << served << ' ' << appends << ' '
      << timed_appends << ' ' << append_ns << ' ' << denials << ' '
      << leases_reaped << ' ' << takeovers << ' ' << frames << ' ' << bytes
      << ' ' << digest;
    return o.str();
  }
  static bool parse(const std::string& line, ReplicaStats* s) {
    std::istringstream in(line);
    std::string word;
    in >> word >> s->served >> s->appends >> s->timed_appends >>
        s->append_ns >> s->denials >> s->leases_reaped >> s->takeovers >>
        s->frames >> s->bytes >> s->digest;
    return word == "STATS" && !in.fail();
  }
};

// ---------------------------------------------------------------------
// The driver side: K clients over one Wire.

struct Client {
  Client(Scheduler& sched, Wire& wire, SimLogStore& store, std::size_t idx,
         std::uint64_t seed)
      : inner_wal(store.open("driver" + std::to_string(idx))),
        wal(inner_wal),
        driver(sched, wire, wal, driver_options(kDriverPeer + 1 + idx)),
        rng(seed * 1000003 + idx),
        index(idx),
        next_txn(static_cast<std::uint32_t>(idx + 1) << 24) {}

  SimWal inner_wal;
  TimedWal wal;
  WireDriver driver;
  std::map<std::string, std::string> model;  // this client's commits
  script::support::Rng rng;
  std::size_t index;
  std::uint32_t next_txn;
};

/// Driver-side counts of failures seen by clients.
struct ClientFailures {
  std::uint64_t txns = 0;       // write not committed or lock refused
  std::uint64_t bad_reads = 0;  // get disagreed with the model
};

class DriverNode {
 public:
  DriverNode(Scheduler& sched, Transport& backend, Tracer& tr, std::uint64_t seed)
      : sched_(sched),
        tr_(tr),
        timed(backend),
        sup(timed, 1, supervision(false)),
        wire(sched, sup, &sup) {
    for (std::size_t k = 0; k < kClients; ++k)
      clients.push_back(
          std::make_unique<Client>(sched, wire, store_, k, seed));
  }

  void start() {
    wire.start();
    for (PeerId id : kReplicas) sup.watch(id);
  }

  /// In a fiber: every replica answers and all agree.
  bool ready() {
    const std::string d0 = clients[0]->driver.digest_of(kReplicas[0]);
    for (PeerId id : kReplicas)
      if (d0.empty() || clients[0]->driver.digest_of(id) != d0) return false;
    return true;
  }

  /// In a fiber: run `tickets` transactions over the K clients, closed
  /// loop, and wait for all of them. Every kTxnsPerWindow completions
  /// close a window and append it to `wins`.
  void run_phase(std::uint64_t tickets, bool traced, std::vector<Window>& wins) {
    tr_.on = traced;
    timed.timing = traced;
    std::uint64_t left = tickets;
    std::vector<ProcessId> pids;
    Window w;
    cur_ = &w;
    std::uint64_t t0 = now_ns();
    auto close_window = [&] {
      if (w.ops == 0) return;
      w.seconds = seconds_since(t0);
      w.traced = traced;
      wins.push_back(std::move(w));
      w = Window();
      t0 = now_ns();
    };
    for (auto& c : clients)
      pids.push_back(sched_.spawn("client", [&, cl = c.get()] {
        while (left > 0) {
          --left;
          run_txn(*cl);
          if (++w.ops == kTxnsPerWindow) close_window();
        }
      }));
    for (ProcessId pid : pids) sched_.join(pid);
    close_window();
    cur_ = nullptr;
    if (traced) traced_txns += tickets;
    txns += tickets;
    tr_.on = false;
    timed.timing = false;
  }

  /// In a fiber: every replica holds exactly what the clients committed.
  void check_state(Outcome& out) {
    std::map<std::string, std::string> all;
    for (auto& c : clients) all.insert(c->model.begin(), c->model.end());
    const std::string want = script::lockdb::lockdb_digest(all);
    for (PeerId id : kReplicas) {
      const std::string got = clients[0]->driver.digest_of(id);
      if (got != want) {
        ++out.failed;
        out.problems.push_back("replica " + std::to_string(id) + " digest " +
                               got + " != model digest " + want);
      }
    }
  }

  std::uint64_t peers_declared_dead() const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c->driver.peers_declared_dead();
    return n;
  }
  std::uint64_t wal_appends() const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c->wal.appends;
    return n;
  }

 private:
  Scheduler& sched_;
  Tracer& tr_;
  SimLogStore store_;  // the clients' WALs; outlives them
  Window* cur_ = nullptr;  // the open window of run_phase

 public:
  TimedTransport timed;
  PeerSupervisor sup;
  Wire wire;
  std::vector<std::unique_ptr<Client>> clients;
  std::uint64_t txns = 0, traced_txns = 0;
  ClientFailures failures;

 private:
  bool acquire(WireDriver& d, std::uint32_t txn, const std::string& key,
               LockMode mode) {
    SpanGuard span(tr_, "lockdb.acquire");
    return d.acquire(txn, key, mode);
  }
  bool update(WireDriver& d, std::uint32_t txn,
              const std::vector<std::pair<std::string, std::string>>& writes) {
    SpanGuard span(tr_, "lockdb.update");
    return d.update(txn, writes);
  }
  void release(WireDriver& d, std::uint32_t txn) {
    SpanGuard span(tr_, "lockdb.release");
    d.release(txn);
  }
  std::optional<std::string> get(WireDriver& d, const std::string& key) {
    SpanGuard span(tr_, "lockdb.get");
    return d.get(key);
  }

  void run_txn(Client& c) {
    WireDriver& d = c.driver;
    const std::uint32_t txn = c.next_txn++;
    const std::uint64_t t0 = now_ns();
    if (c.rng.below(4) != 0) {
      const std::uint64_t i = c.rng.below(kKeysPerClient);
      std::uint64_t j = c.rng.below(kKeysPerClient - 1);
      if (j >= i) ++j;
      const std::string k1 = key_of(c.index, std::min(i, j));
      const std::string k2 = key_of(c.index, std::max(i, j));
      const std::string v = "v" + std::to_string(txn);
      const bool committed = acquire(d, txn, k1, LockMode::Exclusive) &&
                             acquire(d, txn, k2, LockMode::Exclusive) &&
                             update(d, txn, {{k1, v + "a"}, {k2, v + "b"}});
      release(d, txn);
      cur_->a.add_ns(now_ns() - t0);
      if (committed) {
        c.model[k1] = v + "a";
        c.model[k2] = v + "b";
      } else {
        ++failures.txns;
      }
      return;
    }
    const std::string k = key_of(c.index, c.rng.below(kKeysPerClient));
    const bool locked = acquire(d, txn, k, LockMode::Shared);
    std::optional<std::string> got;
    if (locked) got = get(d, k);
    release(d, txn);
    cur_->b.add_ns(now_ns() - t0);
    const auto it = c.model.find(k);
    const std::optional<std::string> want =
        it == c.model.end() ? std::nullopt : std::optional<std::string>(it->second);
    if (!locked)
      ++failures.txns;
    else if (got != want)
      ++failures.bad_reads;
  }

};

/// Counts shared by both workloads' reports.
struct LockdbCounts {
  std::uint64_t steps = 0, ticks = 0, frames = 0, bytes = 0,
                replica_frames = 0, requests = 0, appends = 0, txns = 0;
  bool operator==(const LockdbCounts&) const = default;
};

LockdbCounts counts_of(const TransportStats& driver_link,
                       const std::vector<ReplicaStats>& reps,
                       std::uint64_t driver_appends, std::uint64_t txns) {
  LockdbCounts c;
  c.frames = driver_link.frames_sent + driver_link.frames_received;
  c.bytes = driver_link.bytes_sent + driver_link.bytes_received;
  for (const ReplicaStats& r : reps) {
    c.replica_frames += r.frames;
    c.requests += r.served;
    c.appends += r.appends;
  }
  c.appends += driver_appends;
  c.txns = txns;
  return c;
}

/// Fault counters: each one is a failed operation in a healthy run.
void account_faults(const std::vector<ReplicaStats>& reps,
                    std::uint64_t peers_dead, const ClientFailures& cf,
                    Outcome& out, Report& r) {
  std::uint64_t denials = 0, reaped = 0, takeovers = 0;
  for (const ReplicaStats& s : reps) {
    denials += s.denials;
    reaped += s.leases_reaped;
    takeovers += s.takeovers;
  }
  r.set("lockdb.denials", static_cast<double>(denials), "count");
  r.set("lockdb.peers_declared_dead", static_cast<double>(peers_dead), "count");
  r.set("lockdb.takeovers", static_cast<double>(takeovers), "count");
  r.set("lockdb.leases_reaped", static_cast<double>(reaped), "count");
  auto fail = [&](std::uint64_t n, const char* what) {
    if (n == 0) return;
    out.failed += n;
    out.problems.push_back(std::string(what) + " (" + std::to_string(n) + ")");
  };
  fail(denials, "lock denials in a conflict-free mix");
  fail(peers_dead, "replicas declared dead");
  fail(takeovers, "primary takeovers");
  fail(reaped, "leases reaped");
  fail(cf.txns, "transactions that did not commit");
  fail(cf.bad_reads, "gets that disagreed with the committed model");
}

/// Per-layer numbers common to both lockdb workloads.
/// Transport times are the driver's: busy per traced transaction, idle
/// as a share of the driver scheduler's whole run.
void report_layers(const LockdbCounts& c, const Tracer& tr,
                   const TransportTimes& t, std::uint64_t traced_txns,
                   double run_seconds, double append_ns, double timed_appends,
                   Report& r) {
  const double txns = static_cast<double>(c.txns);
  const double traced = static_cast<double>(traced_txns);
  r.set("runtime.dispatches_per_op", ratio(static_cast<double>(c.steps), txns),
        "count");
  r.set("runtime.virtual_ticks_per_op", ratio(static_cast<double>(c.ticks), txns),
        "ticks");
  r.set("wire.frames_per_txn", ratio(static_cast<double>(c.frames), txns), "count");
  r.set("wire.bytes_per_txn", ratio(static_cast<double>(c.bytes), txns), "B");
  r.set("wire.replica_frames_per_txn",
        ratio(static_cast<double>(c.replica_frames), txns), "count");
  r.set("lockdb.requests_per_txn", ratio(static_cast<double>(c.requests), txns),
        "count");
  r.set("lockdb.wal.appends_per_txn", ratio(static_cast<double>(c.appends), txns),
        "count");
  r.set("lockdb.wal.append_us", ratio(append_ns, timed_appends) / 1e3, "us");
  r.set("transport.send_ns", ratio(static_cast<double>(t.send_ns), traced), "ns");
  r.set("transport.poll_ns", ratio(static_cast<double>(t.poll_ns), traced), "ns");
  r.set("transport.service_ns", ratio(static_cast<double>(t.service_ns), traced),
        "ns");
  r.set("transport.wait_io_share",
        ratio(static_cast<double>(t.wait_ns) / 1e9, run_seconds), "ratio");
  for (const char* op : {"acquire", "update", "release", "get"}) {
    const Samples& s = tr.get(std::string("lockdb.") + op);
    r.set(std::string("lockdb.") + op + ".p50_us", s.pct_us(0.50), "us");
    r.set(std::string("lockdb.") + op + ".p99_us", s.pct_us(0.99), "us");
  }
}

// ---------------------------------------------------------------------
// lockdb_sim

struct SimEpoch {
  std::vector<Window> wins;
  double setup_s = 0;
  double run_s = 0;
  LockdbCounts counts;
  std::vector<ReplicaStats> reps;
  std::uint64_t peers_dead = 0;
  std::uint64_t timed_appends = 0, append_ns = 0;
  TransportTimes driver_times;
  ClientFailures failures;
  double stack_reuse = 0;
};

SimEpoch run_sim_epoch(const RunConfig& cfg, Tracer& tr, bool traced,
                       Outcome& out) {
  SimEpoch ep;
  const std::uint64_t t0 = now_ns();
  Scheduler sched;
  SimNetwork net(1);
  SimLogStore store;
  std::vector<std::unique_ptr<SimTransport>> links;
  std::vector<std::unique_ptr<SimWal>> wals;
  std::vector<std::unique_ptr<ReplicaNode>> reps;
  std::size_t booted = 0;
  for (PeerId id : kReplicas) {
    links.push_back(std::make_unique<SimTransport>(net, id));
    links.back()->set_clock([&sched] { return sched.now(); });
    wals.push_back(std::make_unique<SimWal>(store.open("r" + std::to_string(id))));
    reps.push_back(
        std::make_unique<ReplicaNode>(sched, *links.back(), *wals.back(), id));
  }
  SimTransport dlink(net, kDriverPeer);
  dlink.set_clock([&sched] { return sched.now(); });
  DriverNode driver(sched, dlink, tr, cfg.seed);
  for (std::size_t i = 0; i < reps.size(); ++i)
    reps[i]->boot(sched, kReplicas[i], &booted);
  driver.start();

  sched.spawn("main", [&] {
    while (booted < reps.size()) sched.sleep_for(1);
    if (!driver.ready()) {
      ++out.failed;
      out.problems.push_back("sim cluster never became ready");
    } else {
      ep.setup_s = seconds_since(t0);
      for (auto& r : reps) r->wal.timing = traced;
      driver.run_phase(kSimTxnsPerEpoch, traced, ep.wins);
      for (auto& r : reps) r->wal.timing = false;
      driver.check_state(out);
    }
    for (auto& r : reps) r->stop();
    driver.wire.stop();
  });
  const std::uint64_t t1 = now_ns();
  const script::runtime::RunResult rr = sched.run();
  ep.run_s = seconds_since(t1);
  if (!rr.ok()) {
    ++out.failed;
    out.problems.push_back("sim epoch did not finish: " +
                           script::runtime::describe(rr, sched));
  }
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const auto& r = reps[i];
    ep.reps.push_back(ReplicaStats::of(*r, links[i]->stats()));
    ep.timed_appends += r->wal.timed_appends;
    ep.append_ns += r->wal.append_ns;
  }
  ep.counts = counts_of(dlink.stats(), ep.reps, driver.wal_appends(), driver.txns);
  ep.counts.steps = rr.steps;
  ep.counts.ticks = rr.final_time;
  ep.peers_dead = driver.peers_declared_dead();
  ep.driver_times = driver.timed.times;
  ep.failures = driver.failures;
  ep.stack_reuse = sched.stack_pool_stats().reuse_ratio();
  return ep;
}

// ---------------------------------------------------------------------
// lockdb_tcp: replica processes

// Children registered here are SIGKILLed and reaped if the driver is
// interrupted, so no replica outlives a run on any exit path.
constexpr int kMaxChildren = 8;
volatile pid_t g_children[kMaxChildren] = {};

void reap_children_and_exit(int sig) {
  for (int i = 0; i < kMaxChildren; ++i) {
    const pid_t p = g_children[i];
    if (p > 0) {
      ::kill(p, SIGKILL);
      ::waitpid(p, nullptr, 0);
    }
  }
  ::_exit(128 + sig);
}

void register_child(pid_t pid) {
  for (int i = 0; i < kMaxChildren; ++i)
    if (g_children[i] == 0) {
      g_children[i] = pid;
      return;
    }
}

void unregister_child(pid_t pid) {
  for (int i = 0; i < kMaxChildren; ++i)
    if (g_children[i] == pid) g_children[i] = 0;
}

struct ReplicaProcess {
  pid_t pid = -1;
  int out = -1;  // read end of the child's stdout
  std::string buf;
  std::uint16_t port = 0;
  std::string wal_path;
  ReplicaStats stats;
  bool have_stats = false;
};

/// Read the child's stdout until a line starting with `prefix`.
bool read_line(ReplicaProcess& c, const std::string& prefix, int timeout_ms,
               std::string* line) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1000000;
  for (;;) {
    std::size_t nl;
    while ((nl = c.buf.find('\n')) != std::string::npos) {
      std::string l = c.buf.substr(0, nl);
      c.buf.erase(0, nl + 1);
      if (l.rfind(prefix, 0) == 0) {
        *line = std::move(l);
        return true;
      }
    }
    const std::uint64_t now = now_ns();
    if (now >= deadline) return false;
    pollfd pfd{c.out, POLLIN, 0};
    const int left_ms = static_cast<int>((deadline - now) / 1000000) + 1;
    if (::poll(&pfd, 1, left_ms) <= 0) continue;
    char tmp[4096];
    const ssize_t n = ::read(c.out, tmp, sizeof tmp);
    if (n <= 0) return false;
    c.buf.append(tmp, static_cast<std::size_t>(n));
  }
}

bool spawn_replica(const RunConfig& cfg, PeerId id, const std::string& peers,
                   ReplicaProcess& c) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return false;
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Die with the driver, whatever kills it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::close(fds[0]);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[1]);
    const std::string ids = std::to_string(id);
    const char* argv[] = {cfg.self_exe.c_str(), "serve", ids.c_str(),
                          c.wal_path.c_str(), peers.c_str(), nullptr};
    ::execv(cfg.self_exe.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(fds[1]);
  c.pid = pid;
  c.out = fds[0];
  register_child(pid);
  std::string line;
  if (!read_line(c, "READY ", 10000, &line)) return false;
  c.port = static_cast<std::uint16_t>(std::strtoul(line.c_str() + 6, nullptr, 10));
  return c.port != 0;
}

/// Ask the replica to report and exit; SIGKILL it if it does not.
void stop_replica(ReplicaProcess& c) {
  if (c.pid <= 0) return;
  ::kill(c.pid, SIGTERM);
  std::string line;
  if (read_line(c, "STATS ", 10000, &line))
    c.have_stats = ReplicaStats::parse(line, &c.stats);
  int status = 0;
  for (int i = 0; i < 200 && ::waitpid(c.pid, &status, WNOHANG) == 0; ++i)
    ::usleep(10000);
  if (::waitpid(c.pid, &status, WNOHANG) == 0) {
    ::kill(c.pid, SIGKILL);
    ::waitpid(c.pid, &status, 0);
  }
  unregister_child(c.pid);
  ::close(c.out);
  c.pid = -1;
  c.out = -1;
  std::remove(c.wal_path.c_str());
}

/// Peak resident set of a live child, in MiB (0 if unreadable).
double child_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string word;
  while (in >> word)
    if (word == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  return 0;
}

/// Three replica processes, torn down on every path: stop_replicas() on
/// the normal one, the destructor otherwise.
class TcpCluster {
 public:
  TcpCluster(const RunConfig& cfg, int trial) : cfg_(cfg), trial_(trial) {}
  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;
  ~TcpCluster() { stop_replicas(); }

  /// Fork the replicas highest id first: each listens on an ephemeral
  /// port and dials only higher ids, whose ports are known by then.
  bool spawn() {
    std::string peers;
    for (auto it = kReplicas.rbegin(); it != kReplicas.rend(); ++it) {
      ReplicaProcess& c = procs_[*it];
      c.wal_path = cfg_.tmp_dir + "/r" + std::to_string(*it) + ".t" +
                   std::to_string(trial_) + ".wal";
      std::remove(c.wal_path.c_str());
      if (!spawn_replica(cfg_, *it, peers.empty() ? "-" : peers, c)) return false;
      peers += (peers.empty() ? "" : ",") + std::to_string(*it) + "@" +
               std::to_string(c.port);
    }
    return true;
  }

  std::uint16_t port(PeerId id) const { return procs_[id].port; }
  /// Move the replicas to allowed CPU number `i`.
  void pin_replicas(std::size_t i) const {
    for (const ReplicaProcess& c : procs_) pin_to_cpu(i, c.pid);
  }
  double children_peak_rss_mb() const {
    double mb = 0;
    for (const ReplicaProcess& c : procs_) mb += child_peak_rss_mb(c.pid);
    return mb;
  }

  /// SIGTERM each replica, collect its STATS line, reap it.
  std::vector<ReplicaStats> stop_replicas() {
    std::vector<ReplicaStats> out;
    for (ReplicaProcess& c : procs_) {
      stop_replica(c);
      if (c.have_stats) out.push_back(c.stats);
    }
    return out;
  }

 private:
  const RunConfig& cfg_;
  int trial_;
  ReplicaProcess procs_[3];
};

volatile std::sig_atomic_t g_serve_stop = 0;

}  // namespace

// ---------------------------------------------------------------------

int serve_replica(int argc, char** argv) {
  // serve <id> <wal path> <higher-id peers "id@port,..." or "-">
  if (argc != 3) return 2;
  const auto self = static_cast<PeerId>(std::strtoul(argv[0], nullptr, 10));
  std::signal(SIGTERM, [](int) { g_serve_stop = 1; });
  std::signal(SIGINT, SIG_IGN);  // the driver decides when we stop

  Scheduler sched;
  TcpTransport tcp(self);
  if (!tcp.listen(0)) {
    std::perror("listen");
    return 1;
  }
  const std::string peers = argv[2];
  std::size_t pos = 0;
  while (peers != "-" && pos < peers.size()) {
    std::size_t comma = peers.find(',', pos);
    if (comma == std::string::npos) comma = peers.size();
    const std::string tok = peers.substr(pos, comma - pos);
    const std::size_t at = tok.find('@');
    if (at == std::string::npos) return 2;
    tcp.add_peer(static_cast<PeerId>(std::strtoul(tok.c_str(), nullptr, 10)),
                 "127.0.0.1",
                 static_cast<std::uint16_t>(
                     std::strtoul(tok.c_str() + at + 1, nullptr, 10)));
    pos = comma + 1;
  }
  // FileWal opens, appends and closes the file on every record, with no
  // fsync; its appends are always timed here (the cost of a clock read
  // is noise next to an open/write/close).
  FileWal file(argv[1]);
  ReplicaNode node(sched, tcp, file, self);
  node.wal.timing = true;
  node.boot(sched, self, nullptr);
  std::printf("READY %u\n", static_cast<unsigned>(tcp.bound_port()));
  std::fflush(stdout);

  sched.spawn("stop.watch", [&] {
    while (g_serve_stop == 0) sched.sleep_for(20);
    std::printf("%s\n", ReplicaStats::of(node, tcp.stats()).line().c_str());
    std::fflush(stdout);
    node.stop();
  });
  sched.run();
  return 0;
}

Outcome run_lockdb_sim(const RunConfig& cfg) {
  Outcome out;
  Tracer tr;
  std::vector<Window> wins;
  std::vector<double> setups, ns_per_step;
  std::vector<LockdbCounts> counts;
  std::vector<ReplicaStats> reps;
  std::uint64_t peers_dead = 0, timed_appends = 0, append_ns = 0;
  TransportTimes times;
  ClientFailures failures;
  double stack_reuse = 0, peak_rss = 0;
  const std::size_t min_epochs = cfg.trace ? 4 : 3;
  std::uint64_t start = now_ns();

  // Epoch 0 warms caches and is not reported.
  for (std::size_t e = 0;; ++e) {
    const bool traced = cfg.trace && e > 0 && e % 2 == 0;
    pin_to_cpu(e);
    SimEpoch ep = run_sim_epoch(cfg, tr, traced, out);
    // Memory is read at a fixed amount of work, two epochs, not at the
    // end of a run, so that it does not grow with run length or speed.
    if (e == 1) peak_rss = self_peak_rss_mb();
    out.attempted += ep.counts.txns;
    setups.push_back(ep.setup_s);
    counts.push_back(ep.counts);
    reps.insert(reps.end(), ep.reps.begin(), ep.reps.end());
    peers_dead += ep.peers_dead;
    failures.txns += ep.failures.txns;
    failures.bad_reads += ep.failures.bad_reads;
    stack_reuse = ep.stack_reuse;
    if (traced) {
      timed_appends += ep.timed_appends;
      append_ns += ep.append_ns;
      times.send_ns += ep.driver_times.send_ns;
      times.poll_ns += ep.driver_times.poll_ns;
      times.service_ns += ep.driver_times.service_ns;
    }
    if (!traced && ep.counts.steps > 0)
      ns_per_step.push_back(ep.run_s * 1e9 / static_cast<double>(ep.counts.steps));
    if (e == 0) {
      start = now_ns();
      continue;
    }
    wins.insert(wins.end(), ep.wins.begin(), ep.wins.end());
    const double elapsed = seconds_since(start);
    if (!out.problems.empty()) break;
    if (elapsed >= cfg.seconds && e >= min_epochs) break;
    if (elapsed >= 2 * cfg.seconds + 10) break;  // hard stop on a slow host
  }

  Report& r = out.report;
  summarize(wins, "txn_per_s", "txn_write", "txn_read", r);
  r.set("setup_s", median(setups), "s");
  r.set("peak_rss_mb", peak_rss, "MiB");
  account_faults(reps, peers_dead, failures, out, r);

  std::uint64_t mismatches = 0;
  for (const LockdbCounts& c : counts) mismatches += c == counts.front() ? 0 : 1;
  if (mismatches != 0) {
    out.failed += mismatches;
    out.problems.push_back("layer counts differ between identical epochs");
  }
  r.set("determinism.mismatches", static_cast<double>(mismatches), "count");

  std::uint64_t traced_txns = 0;
  double run_seconds = 0;
  for (const Window& w : wins) {
    if (w.traced) traced_txns += w.ops;
    run_seconds += w.seconds;
  }
  report_layers(counts.front(), tr, times, traced_txns, run_seconds,
                static_cast<double>(append_ns), static_cast<double>(timed_appends),
                r);
  r.set("runtime.ns_per_dispatch", median(ns_per_step), "ns");
  r.set("runtime.stackpool.reuse_ratio", stack_reuse, "ratio");
  return out;
}

Outcome run_lockdb_tcp(const RunConfig& cfg) {
  Outcome out;
  for (int sig : {SIGINT, SIGTERM, SIGHUP, SIGQUIT})
    std::signal(sig, reap_children_and_exit);
  std::signal(SIGPIPE, SIG_IGN);

  Tracer tr;
  std::vector<double> setups;
  std::vector<Window> wins;
  double peak_rss = 0;
  // Setup is timed on five fresh clusters; the last is kept for the
  // measurement (a traced run sets up once).
  const int trials = cfg.trace ? 1 : 5;
  for (int trial = 0; trial < trials; ++trial) {
    const bool measure = trial + 1 == trials;
    // The driver and its replicas share one CPU (children inherit it).
    pin_to_cpu(static_cast<std::size_t>(trial));
    const std::uint64_t t0 = now_ns();
    TcpCluster cluster(cfg, trial);
    if (!cluster.spawn()) {
      ++out.failed;
      out.problems.push_back("replica processes did not start");
      return out;
    }
    Scheduler sched;
    TcpTransport tcp(kDriverPeer);
    for (PeerId id : kReplicas) tcp.add_peer(id, "127.0.0.1", cluster.port(id));
    DriverNode driver(sched, tcp, tr, cfg.seed);
    driver.start();

    sched.spawn("main", [&] {
      if (!driver.ready()) {
        ++out.failed;
        out.problems.push_back("tcp cluster never became ready");
        driver.wire.stop();
        return;
      }
      setups.push_back(seconds_since(t0));
      if (measure) {
        // Memory is read at a fixed amount of work, not at the end of a
        // timed run, so that it does not grow with throughput.
        std::vector<Window> warm;
        driver.run_phase(kTcpWarmupTxns, false, warm);
        peak_rss = self_peak_rss_mb() + cluster.children_peak_rss_mb();
        const std::size_t min_phases = cfg.trace ? 4 : 3;
        const std::uint64_t start = now_ns();
        for (std::size_t p = 0;; ++p) {
          pin_to_cpu(p);
          cluster.pin_replicas(p);
          driver.run_phase(kTcpTxnsPerPhase, cfg.trace && p % 2 == 1, wins);
          const double elapsed = seconds_since(start);
          if (elapsed >= cfg.seconds && p + 1 >= min_phases) break;
          if (elapsed >= 2 * cfg.seconds + 10) break;
        }
        driver.check_state(out);
      }
      driver.wire.stop();
    });
    const std::uint64_t t1 = now_ns();
    const script::runtime::RunResult rr = sched.run();
    const double run_s = seconds_since(t1);
    const std::vector<ReplicaStats> reps = cluster.stop_replicas();
    if (!measure) continue;

    if (reps.size() != kReplicas.size()) {
      ++out.failed;
      out.problems.push_back("a replica did not report its counters");
    }
    out.attempted += driver.txns;
    Report& r = out.report;
    summarize(wins, "txn_per_s", "txn_write", "txn_read", r);
    r.set("setup_s", median(setups), "s");
    r.set("peak_rss_mb", peak_rss, "MiB");
    account_faults(reps, driver.peers_declared_dead(), driver.failures, out, r);

    LockdbCounts c = counts_of(tcp.stats(), reps, driver.wal_appends(), driver.txns);
    c.steps = rr.steps;
    c.ticks = rr.final_time;
    std::uint64_t append_ns = 0, timed_appends = 0;
    for (const ReplicaStats& s : reps) {
      append_ns += s.append_ns;
      timed_appends += s.timed_appends;
    }
    report_layers(c, tr, driver.timed.times, driver.traced_txns, run_s,
                  static_cast<double>(append_ns),
                  static_cast<double>(timed_appends), r);
    const double busy_s = run_s - static_cast<double>(driver.timed.times.wait_ns) / 1e9;
    r.set("runtime.ns_per_dispatch", ratio(busy_s * 1e9, static_cast<double>(rr.steps)),
          "ns");
    r.set("runtime.stackpool.reuse_ratio", sched.stack_pool_stats().reuse_ratio(),
          "ratio");
  }
  return out;
}

}  // namespace perfbench
