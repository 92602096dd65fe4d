// lockdb over the wire, run in the deterministic sim twin: leased-lock
// reaping for silent clients, 2PC commit/abort across wire replicas,
// WAL recovery with in-doubt resolution, degradation when a replica
// dies, and primary takeover.
#include "lockdb/wire_server.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"
#include "runtime/sim_log.hpp"
#include "runtime/transport.hpp"
#include "runtime/wire.hpp"

namespace {

using script::lockdb::FileWal;
using script::lockdb::LockMode;
using script::lockdb::LockTable;
using script::lockdb::SimWal;
using script::lockdb::Wal;
using script::lockdb::WireDriver;
using script::lockdb::WireDriverOptions;
using script::lockdb::WireReplica;
using script::lockdb::WireReplicaOptions;
using script::runtime::PeerId;
using script::runtime::Scheduler;
using script::runtime::SimLogStore;
using script::runtime::SimNetwork;
using script::runtime::SimTransport;
using script::runtime::Wire;

TEST(FileWal, RoundTripsAndDropsTornTail) {
  const std::string path =
      "/tmp/script_filewal_" + std::to_string(::getpid()) + ".wal";
  std::remove(path.c_str());
  FileWal w(path);
  EXPECT_TRUE(w.all().empty());
  w.append("decision.1", "commit");
  w.append("prep.2", "a=1;b=2");
  w.append("odd\tkey", "with\nnewline");
  {
    // Simulate a crash mid-append: a torn, unterminated tail line.
    std::FILE* f = std::fopen(path.c_str(), "a");
    std::fputs("decision.3\tcom", f);
    std::fclose(f);
  }
  auto check = [](const Wal& wal) {
    ASSERT_EQ(wal.all().size(), 3u) << "torn tail must be discarded";
    EXPECT_EQ(wal.last("decision.1").value(), "commit");
    EXPECT_EQ(wal.last("prep.2").value(), "a=1;b=2");
    EXPECT_EQ(wal.last("odd\tkey").value(), "with\nnewline");
    EXPECT_FALSE(wal.last("decision.3").has_value());
  };
  // The writer keeps no copy of the log: it reads the file back, as a
  // restarted replica does.
  check(w);
  check(FileWal(path));
  std::remove(path.c_str());
}

TEST(FileWal, AppendAfterTornTailStartsItsOwnLine) {
  // A crash mid-append left "decision.3\tcom". The next incarnation's
  // first record must not extend that torn line, or a later replay
  // reads it as decision.3 = "comdecision.4\tcommit" and loses it.
  const std::string path =
      "/tmp/script_filewal_torn_" + std::to_string(::getpid()) + ".wal";
  std::remove(path.c_str());
  {
    FileWal w(path);
    w.append("decision.1", "commit");
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "a");
    std::fputs("decision.3\tcom", f);
    std::fclose(f);
  }
  {
    FileWal w(path);
    w.append("decision.4", "commit");
  }
  FileWal r(path);
  ASSERT_EQ(r.all().size(), 2u);
  EXPECT_EQ(r.last("decision.1").value(), "commit");
  EXPECT_EQ(r.last("decision.4").value(), "commit");
  EXPECT_FALSE(r.last("decision.3").has_value());
  std::remove(path.c_str());
}

/// A 3-replica + driver cluster over one SimNetwork, everything inside
/// one scheduler — the CI twin of the multi-process TCP deployment.
struct Cluster {
  Scheduler sched;
  SimNetwork net{1};
  SimLogStore store;
  std::vector<std::unique_ptr<SimTransport>> trans;
  std::vector<std::unique_ptr<Wire>> wires;
  std::vector<std::unique_ptr<LockTable>> tables;
  std::vector<std::unique_ptr<SimWal>> wals;
  std::vector<std::unique_ptr<WireReplica>> reps;
  std::unique_ptr<SimTransport> dtrans;
  std::unique_ptr<Wire> dwire;
  std::unique_ptr<SimWal> dwal;
  std::unique_ptr<WireDriver> driver;

  explicit Cluster(std::uint64_t driver_lease = 500) {
    const std::vector<PeerId> members{0, 1, 2};
    for (PeerId id : members) {
      trans.push_back(std::make_unique<SimTransport>(net, id));
      wires.push_back(std::make_unique<Wire>(sched, *trans.back()));
      wires.back()->start();
      tables.push_back(std::make_unique<LockTable>());
      tables.back()->set_clock([this] { return sched.now(); });
      wals.push_back(
          std::make_unique<SimWal>(store.open("r" + std::to_string(id))));
      WireReplicaOptions ro;
      ro.self = id;
      ro.replicas = members;
      reps.push_back(std::make_unique<WireReplica>(
          sched, *wires.back(), *tables.back(), *wals.back(), ro));
      reps.back()->start();
    }
    dtrans = std::make_unique<SimTransport>(net, 100);
    dwire = std::make_unique<Wire>(sched, *dtrans);
    dwire->start();
    dwal = std::make_unique<SimWal>(store.open("driver"));
    WireDriverOptions dopts;
    dopts.self = 100;
    dopts.replicas = members;
    dopts.lease_ticks = driver_lease;
    driver = std::make_unique<WireDriver>(sched, *dwire, *dwal, dopts);
  }

  void shutdown() {
    for (auto& r : reps) r->stop();
    for (auto& w : wires) w->stop();
    dwire->stop();
  }
};

TEST(WireLockdb, TwoPhaseCommitReplicatesWrites) {
  Cluster c;
  c.sched.spawn("driver", [&] {
    ASSERT_TRUE(c.driver->acquire(7, "x", LockMode::Exclusive));
    ASSERT_TRUE(c.driver->acquire(7, "y", LockMode::Exclusive));
    EXPECT_TRUE(c.driver->update(7, {{"x", "42"}, {"y", "43"}}));
    EXPECT_EQ(c.driver->get("x").value(), "42");
    EXPECT_EQ(c.driver->get("y").value(), "43");
    // All three replicas converged to the same state.
    const std::string d0 = c.driver->digest_of(0);
    EXPECT_EQ(d0, c.driver->digest_of(1));
    EXPECT_EQ(d0, c.driver->digest_of(2));
    EXPECT_EQ(c.driver->commits(), 1u);
    c.shutdown();
  });
  c.sched.run();
  for (auto& r : c.reps) {
    EXPECT_EQ(r->committed(), 1u);
    EXPECT_EQ(r->data().at("x"), "42");
  }
}

TEST(WireLockdb, PrepareWithoutLocksIsVetoed) {
  Cluster c;
  c.sched.spawn("driver", [&] {
    // No locks taken for txn 9: every replica votes no, 2PC aborts.
    EXPECT_FALSE(c.driver->update(9, {{"x", "evil"}}));
    EXPECT_EQ(c.driver->aborts(), 1u);
    EXPECT_FALSE(c.driver->get("x").has_value());
    c.shutdown();
  });
  c.sched.run();
  for (auto& r : c.reps) EXPECT_EQ(r->aborted(), 1u);
}

TEST(WireLockdb, SilentClientLeasesAreReaped) {
  Cluster c(/*driver_lease=*/100);
  c.sched.spawn("driver", [&] {
    // The zombie client: takes X locks, then goes silent forever.
    ASSERT_TRUE(c.driver->acquire(1, "x", LockMode::Exclusive));
    // A competing txn is refused while the lease lives...
    EXPECT_FALSE(c.driver->acquire(2, "x", LockMode::Exclusive));
    // ...then the lease expires and housekeeping sweeps reap it.
    c.sched.sleep_for(300);
    ASSERT_TRUE(c.driver->acquire(3, "x", LockMode::Exclusive));
    EXPECT_TRUE(c.driver->update(3, {{"x", "recovered"}}));
    c.shutdown();
  });
  c.sched.run();
  std::uint64_t reaped = 0;
  for (auto& t : c.tables) reaped += t->leases_reaped();
  EXPECT_GT(reaped, 0u) << "the zombie's grants must have been reaped";
  for (auto& r : c.reps) EXPECT_EQ(r->data().at("x"), "recovered");
}

TEST(WireLockdb, PreparedTransactionPinsItsLocksPastTheLease) {
  // Txn 1 prepares x and votes yes, then its coordinator stalls until
  // the lock lease has lapsed. Reaping that lock would let txn 2 take
  // x, prepare and commit beside the undecided txn 1; instead txn 1
  // keeps x until its decision lands.
  constexpr std::uint64_t kLease = 100;
  Cluster c(kLease);
  std::uint64_t seq = 0;
  // One raw request to every replica, as a coordinator that stalls
  // between the phases of 2PC would send it.
  auto ask_all = [&](const std::string& op, const std::string& args) {
    std::vector<std::string> replies;
    for (const PeerId id : {0u, 1u, 2u}) {
      const std::string rtag = "stalled." + std::to_string(seq++);
      c.dwire->post(id, "lkreq", op + " " + rtag + " " + args);
      Wire::Msg m;
      EXPECT_TRUE(c.dwire->recv(rtag, &m, 300, id)) << op;
      replies.push_back(m.payload);
    }
    return replies;
  };
  c.sched.spawn("driver", [&] {
    ASSERT_TRUE(c.driver->acquire(1, "x", LockMode::Exclusive));
    for (const std::string& vote : ask_all("prep", "1 x=1"))
      EXPECT_EQ(vote, "yes");
    const std::uint64_t prepared_at = c.sched.now();
    c.sched.sleep_for(2 * kLease);  // txn 1's lease lapses, undecided
    EXPECT_GT(c.sched.now(), prepared_at + kLease);
    EXPECT_FALSE(c.driver->acquire(2, "x", LockMode::Exclusive))
        << "an in-doubt transaction's lock was reaped";
    for (const std::string& ack : ask_all("dec", "1 commit"))
      EXPECT_EQ(ack, "ack");
    // Decided: the lock is free and txn 2 runs after txn 1, not beside.
    ASSERT_TRUE(c.driver->acquire(2, "x", LockMode::Exclusive));
    EXPECT_TRUE(c.driver->update(2, {{"x", "2"}}));
    c.driver->release(2);
    c.shutdown();
  });
  ASSERT_TRUE(c.sched.run().ok());
  for (auto& r : c.reps) {
    EXPECT_EQ(r->committed(), 2u);
    EXPECT_EQ(r->data().at("x"), "2");
  }
  // Once decided, the expired grant is reaped like any other.
  for (auto& t : c.tables) EXPECT_EQ(t->holder_count("x"), 0u);
}

TEST(WireLockdb, ReplicaDeathDegradesAndRecoveryCatchesUp) {
  Cluster c;
  std::string final_digest;
  c.sched.spawn("scenario", [&] {
    // Healthy commit with all three replicas.
    ASSERT_TRUE(c.driver->acquire(1, "a", LockMode::Exclusive));
    ASSERT_TRUE(c.driver->update(1, {{"a", "1"}}));

    // Replica 0 (the primary) is killed: network down, fiber stopped.
    c.reps[0]->stop();
    c.net.set_down(0);
    // Survivors learn about it (PeerSupervisor::on_gone in the real
    // deployment; driven by hand in the sim twin).
    c.reps[1]->note_peer_gone(0);
    c.reps[2]->note_peer_gone(0);
    EXPECT_TRUE(c.reps[1]->is_primary()) << "next-lowest id takes over";
    EXPECT_EQ(c.reps[1]->takeovers(), 1u);

    // The driver degrades: first update times out replica 0, declares
    // it dead, and commits on the survivors.
    ASSERT_TRUE(c.driver->acquire(2, "b", LockMode::Exclusive));
    ASSERT_TRUE(c.driver->update(2, {{"b", "2"}}));
    EXPECT_TRUE(c.driver->degraded());
    EXPECT_EQ(c.driver->peers_declared_dead(), 1u);

    // Replica 0 restarts as a new incarnation: same WAL, fresh state.
    // Two in-doubt prepares sit in its log (staged mid-2PC, never
    // decided locally): txn 55's outcome is known to a survivor
    // (commit), txn 66's is known to nobody (presumed abort).
    c.wals[0]->append("prep.55", "c=3");
    c.wals[0]->append("prep.66", "e=666");
    c.wals[1]->append("decision.55", "commit");
    c.net.set_up(0);
    c.tables[0] = std::make_unique<LockTable>();
    c.tables[0]->set_clock([&] { return c.sched.now(); });
    WireReplicaOptions ro;
    ro.self = 0;
    ro.replicas = {0, 1, 2};
    auto restarted = std::make_unique<WireReplica>(
        c.sched, *c.wires[0], *c.tables[0], *c.wals[0], ro);
    restarted->recover();
    // Recovery replayed txn 1, resolved in-doubt 55 as commit via a
    // survivor's log, presumed-aborted unknown txn 66, and caught up
    // txn 2 (committed while dead) from the primary.
    EXPECT_EQ(restarted->data().at("a"), "1");
    EXPECT_EQ(restarted->data().at("c"), "3");
    EXPECT_EQ(restarted->data().at("b"), "2");
    EXPECT_EQ(restarted->data().count("e"), 0u) << "presumed abort";
    EXPECT_EQ(restarted->indoubt_resolved(), 2u);
    restarted->start();

    // Back in rotation: the driver re-admits it and the next commit
    // lands everywhere. The survivors stay mutually consistent, and
    // replica 0 holds everything they do (plus the resolved in-doubt
    // write whose phase 2 never reached them — a test contrivance).
    c.driver->revive(0);
    ASSERT_TRUE(c.driver->acquire(4, "d", LockMode::Exclusive));
    ASSERT_TRUE(c.driver->update(4, {{"d", "4"}}));
    final_digest = c.driver->digest_of(1);
    EXPECT_EQ(final_digest, c.driver->digest_of(2));
    EXPECT_EQ(restarted->data().at("d"), "4");
    EXPECT_EQ(restarted->data().at("b"), "2");
    restarted->stop();
    c.reps[0] = std::move(restarted);  // keep alive till shutdown
    c.shutdown();
  });
  c.sched.run();
  EXPECT_FALSE(final_digest.empty());
}

TEST(WireLockdb, BelowMinSurvivorsRefusesWrites) {
  Cluster c;
  c.sched.spawn("driver", [&] {
    // Kill everything: Abort policy refuses instead of committing to
    // a void.
    for (PeerId id : {0u, 1u, 2u}) {
      c.reps[id]->stop();
      c.net.set_down(id);
    }
    EXPECT_FALSE(c.driver->update(9, {{"x", "1"}}));
    EXPECT_EQ(c.driver->commits(), 0u);
    c.shutdown();
  });
  c.sched.run();
}

// Malformed peer numbers are refused with "err bad request" and counted;
// the serve fiber neither throws nor wraps them into valid-looking ids.

/// Post one raw request frame to replica `to` and wait for its reply.
std::string raw_request(Cluster& c, PeerId to, const std::string& payload) {
  c.dwire->post(to, "lkreq", payload);
  Wire::Msg reply;
  if (!c.dwire->recv("raw", &reply, 300, to)) return "(no reply)";
  return reply.payload;
}

TEST(WireLockdb, NonNumericTxnIsABadRequest) {
  Cluster c;
  c.sched.spawn("driver", [&] {
    EXPECT_EQ(raw_request(c, 0, "acq raw notanumber x X 5"),
              "err bad request");
    // Still serving: a well-formed transaction goes through everywhere.
    ASSERT_TRUE(c.driver->acquire(7, "x", LockMode::Exclusive));
    EXPECT_TRUE(c.driver->update(7, {{"x", "1"}}));
    c.shutdown();
  });
  const auto r = c.sched.run();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(c.reps[0]->bad_requests(), 1u);
  EXPECT_EQ(c.reps[0]->data().at("x"), "1");
}

TEST(WireLockdb, NegativeTxnDoesNotWrapIntoAnOwner) {
  Cluster c;
  c.sched.spawn("driver", [&] {
    ASSERT_TRUE(c.driver->acquire(7, "x", LockMode::Exclusive));
    EXPECT_EQ(raw_request(c, 1, "rel raw -1"), "err bad request");
    EXPECT_EQ(raw_request(c, 1, "rel raw 7x"), "err bad request");
    // Txn 7's lock survived: a competitor is still refused.
    EXPECT_FALSE(c.driver->acquire(8, "x", LockMode::Exclusive));
    EXPECT_TRUE(c.driver->update(7, {{"x", "2"}}));
    c.shutdown();
  });
  const auto r = c.sched.run();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(c.reps[1]->bad_requests(), 2u);
  EXPECT_EQ(c.reps[1]->data().at("x"), "2");
}

TEST(WireLockdb, LeadingZeroTxnIsABadRequest) {
  // Staged transactions are keyed by the txn token. If "01" passed as
  // owner 1, "dec 1 commit" would ack without applying the write staged
  // under "01", and owner 1's locks would stay pinned by it.
  Cluster c;
  c.sched.spawn("driver", [&] {
    ASSERT_TRUE(c.driver->acquire(1, "x", LockMode::Exclusive));
    EXPECT_EQ(raw_request(c, 0, "prep raw 01 x=9"), "err bad request");
    // A well-formed transaction still commits, and its write lands.
    EXPECT_TRUE(c.driver->update(1, {{"x", "4"}}));
    c.driver->release(1);
    c.shutdown();
  });
  const auto r = c.sched.run();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(c.reps[0]->bad_requests(), 1u);
  for (auto& rep : c.reps) {
    EXPECT_EQ(rep->committed(), 1u);
    EXPECT_EQ(rep->data().at("x"), "4");
  }
}

TEST(WireLockdb, OutOfRangeLeaseIsABadRequest) {
  Cluster c;
  c.sched.spawn("driver", [&] {
    // 2^64 does not fit the lease field.
    EXPECT_EQ(raw_request(c, 2, "acq raw 5 x X 18446744073709551616"),
              "err bad request");
    EXPECT_EQ(raw_request(c, 2, "acq raw 5 x Q 5"), "err bad request");
    ASSERT_TRUE(c.driver->acquire(5, "x", LockMode::Exclusive));
    EXPECT_TRUE(c.driver->update(5, {{"x", "3"}}));
    c.shutdown();
  });
  const auto r = c.sched.run();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(c.reps[2]->bad_requests(), 2u);
  EXPECT_EQ(c.reps[2]->data().at("x"), "3");
}

// Keys and values that cannot be encoded are refused by the driver, not
// truncated on the way: a value is one token of "prep", a key one token
// of "acq" and "get" and the left of "k=v" in a write set.

std::uint64_t served(const Cluster& c) {
  std::uint64_t n = 0;
  for (const auto& r : c.reps) n += r->requests_served();
  return n;
}

TEST(WireLockdb, WhitespaceValueIsRefusedNotTruncated) {
  Cluster c;
  c.sched.spawn("driver", [&] {
    ASSERT_TRUE(c.driver->acquire(7, "x", LockMode::Exclusive));
    const std::uint64_t before = served(c);
    EXPECT_FALSE(c.driver->update(7, {{"x", "a b"}}));
    EXPECT_FALSE(c.driver->update(7, {{"x", "a\tb"}}));
    EXPECT_FALSE(c.driver->update(7, {{"x", "a;y=b"}}));
    EXPECT_FALSE(c.driver->update(7, {{"x y", "1"}}));
    EXPECT_FALSE(c.driver->update(7, {{"", "1"}}));
    EXPECT_EQ(served(c), before) << "refused before sending anything";
    EXPECT_EQ(c.driver->aborts(), 5u);
    EXPECT_EQ(c.driver->commits(), 0u);
    // The replica refuses a prep whose write set is more than one token.
    EXPECT_EQ(raw_request(c, 0, "prep raw 7 x=a b"), "err bad request");
    // An encodable value still commits, '=' included.
    EXPECT_TRUE(c.driver->update(7, {{"x", "a=b"}}));
    c.shutdown();
  });
  ASSERT_TRUE(c.sched.run().ok());
  EXPECT_EQ(c.reps[0]->bad_requests(), 1u);
  for (auto& r : c.reps) {
    EXPECT_EQ(r->committed(), 1u);
    EXPECT_EQ(r->data().at("x"), "a=b");
  }
}

TEST(WireLockdb, UnencodableKeyGetIsNotAValue) {
  Cluster c;
  c.sched.spawn("driver", [&] {
    const std::uint64_t before = served(c);
    EXPECT_FALSE(c.driver->get("a b").has_value());
    EXPECT_FALSE(c.driver->get("").has_value());
    EXPECT_FALSE(c.driver->acquire(3, "a b", LockMode::Exclusive));
    EXPECT_FALSE(c.driver->acquire(3, "a=b", LockMode::Shared));
    EXPECT_FALSE(c.driver->acquire(3, "a;b", LockMode::Shared));
    EXPECT_EQ(served(c), before) << "refused before sending anything";
    c.shutdown();
  });
  ASSERT_TRUE(c.sched.run().ok());
  for (auto& r : c.reps) EXPECT_EQ(r->bad_requests(), 0u);
  for (auto& t : c.tables) EXPECT_EQ(t->holder_count("a b"), 0u);
}

// A replica releases a transaction's locks before it acks `dec`, so the
// driver sends no `rel` to replicas that acked, unless the transaction
// acquired again after its decision.

TEST(WireLockdb, ReleaseAfterDecidedUpdateSendsNoRequest) {
  Cluster c;
  c.sched.spawn("driver", [&] {
    ASSERT_TRUE(c.driver->acquire(7, "x", LockMode::Exclusive));
    ASSERT_TRUE(c.driver->update(7, {{"x", "1"}}));
    const std::uint64_t before = served(c);
    c.driver->release(7);
    EXPECT_EQ(served(c), before) << "every replica acked dec";
    // The dec released x: a competing owner gets X on it.
    EXPECT_TRUE(c.driver->acquire(8, "x", LockMode::Exclusive));
    // Reads never decide, so their release still goes out.
    ASSERT_TRUE(c.driver->acquire(9, "y", LockMode::Shared));
    EXPECT_FALSE(c.driver->get("y").has_value());
    const std::uint64_t before_read = served(c);
    c.driver->release(9);
    EXPECT_EQ(served(c), before_read + 3);
    c.shutdown();
  });
  ASSERT_TRUE(c.sched.run().ok());
  for (auto& t : c.tables) {
    EXPECT_EQ(t->holder_count("x"), 1u);  // owner 8
    EXPECT_EQ(t->holder_count("y"), 0u);
  }
}

TEST(WireLockdb, AcquireAfterUpdateIsReleasedEverywhere) {
  Cluster c;
  c.sched.spawn("driver", [&] {
    ASSERT_TRUE(c.driver->acquire(7, "x", LockMode::Exclusive));
    ASSERT_TRUE(c.driver->update(7, {{"x", "1"}}));
    // Taken after the decision: the dec did not cover it.
    ASSERT_TRUE(c.driver->acquire(7, "z", LockMode::Exclusive));
    const std::uint64_t before = served(c);
    c.driver->release(7);
    EXPECT_EQ(served(c), before + 3);
    EXPECT_TRUE(c.driver->acquire(8, "z", LockMode::Exclusive));
    c.shutdown();
  });
  ASSERT_TRUE(c.sched.run().ok());
  for (auto& t : c.tables) {
    EXPECT_EQ(t->holder_count("z"), 1u);  // owner 8 only
    EXPECT_FALSE(t->holds("z", 7));
  }
}

TEST(WireLockdb, VetoedUpdateLeavesNothingHeld) {
  Cluster c;
  c.sched.spawn("driver", [&] {
    ASSERT_TRUE(c.driver->acquire(7, "x", LockMode::Exclusive));
    // Replica 2 loses txn 7's lock, so it votes no after 0 and 1
    // prepared: the dec abort must unpin and release x on those two.
    EXPECT_EQ(raw_request(c, 2, "rel raw 7"), "ok 1");
    EXPECT_FALSE(c.driver->update(7, {{"x", "1"}}));
    EXPECT_EQ(c.driver->aborts(), 1u);
    const std::uint64_t before = served(c);
    c.driver->release(7);
    EXPECT_EQ(served(c), before) << "every replica acked dec";
    EXPECT_TRUE(c.driver->acquire(8, "x", LockMode::Exclusive));
    c.shutdown();
  });
  ASSERT_TRUE(c.sched.run().ok());
  for (auto& r : c.reps) EXPECT_EQ(r->data().count("x"), 0u);
  for (auto& t : c.tables) EXPECT_FALSE(t->holds("x", 7));
}

TEST(WireLockdb, RequestTokensSplitOnEveryCLocaleSpace) {
  // The same whitespace operator>> skips: space, \t, \n, \v, \f, \r,
  // in runs, leading and trailing.
  Cluster c;
  c.sched.spawn("driver", [&] {
    EXPECT_EQ(raw_request(c, 0, "  acq\traw \r\n 7\v\fx   X\t5 \r"), "ok");
    EXPECT_EQ(raw_request(c, 0, "prep\t\traw\r7  x=1\n"), "yes");
    EXPECT_EQ(raw_request(c, 0, "dec raw\f7\vcommit"), "ack");
    EXPECT_EQ(raw_request(c, 0, "\tget  raw\r\nx"), "1");
    EXPECT_EQ(raw_request(c, 0, "get raw x extra"), "err bad request");
    EXPECT_EQ(raw_request(c, 0, "acq raw 7 y X 5 6"), "err bad request");
    c.shutdown();
  });
  ASSERT_TRUE(c.sched.run().ok());
  EXPECT_EQ(c.reps[0]->bad_requests(), 2u);
  EXPECT_EQ(c.reps[0]->committed(), 1u);
  EXPECT_EQ(c.reps[0]->data().at("x"), "1");
  EXPECT_EQ(c.tables[0]->holder_count("x"), 0u);
}

}  // namespace
