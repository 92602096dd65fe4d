// lockdb over the wire — the paper's replicated-database example
// (§II / Fig 5) deployed across REAL process boundaries.
//
// Everything before this PR kept the k lock-table replicas inside one
// scheduler; WireReplica/WireDriver put each replica behind a
// Transport (TcpTransport in separate OS processes, SimTransport in
// the deterministic CI twin) and make the fault-tolerance stack carry
// its weight end to end:
//
//   * locks are LEASED: a client that dies silent (kill -9) stops
//     renewing, and the replica's housekeeping sweep reaps its grants
//     — lock state is soft, rebuilt from liveness;
//   * updates are 2PC over a WRITE-AHEAD LOG: prepare stages writes
//     and logs them, the decision is logged before it is acted on,
//     and a restarted replica replays its WAL, resolves in-doubt
//     transactions by asking the survivors (presumed abort when
//     nobody knows), then catches up wholesale from the current
//     primary — data state is hard, rebuilt from the log;
//   * the replica set has a PRIMARY (lowest live id): when the
//     primary is declared gone (PeerSupervisor escalation feeds
//     note_peer_gone), the next survivor takes the role over and
//     publishes the takeover — role state is derived, rebuilt from
//     membership.
//
// Protocol: every request is one Wire message under the "lkreq" tag,
// payload "<op> <reply_tag> <args...>" (whitespace-separated tokens; the
// reply goes back to the sender under <reply_tag>). Ops: acq rel prep
// dec get digest outcome sync role. See wire_server.cpp for the
// grammar of each.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "lockdb/lock_table.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/sim_log.hpp"
#include "runtime/wire.hpp"

namespace script::lockdb {

/// Append-only key/value log with last-writer-wins reads — the
/// stable-storage seam. SimWal is the in-process twin (SimLogStore
/// survives fiber crashes); FileWal is a real file surviving kill -9.
class Wal {
 public:
  virtual ~Wal() = default;
  virtual void append(const std::string& key, const std::string& value) = 0;
  virtual std::optional<std::string> last(const std::string& key) const = 0;
  virtual std::vector<std::pair<std::string, std::string>> all() const = 0;
};

class SimWal final : public Wal {
 public:
  explicit SimWal(runtime::SimLog& log) : log_(&log) {}
  void append(const std::string& key, const std::string& value) override;
  std::optional<std::string> last(const std::string& key) const override;
  std::vector<std::pair<std::string, std::string>> all() const override;

 private:
  runtime::SimLog* log_;
};

/// One record per line, "key\tvalue\n", tabs/newlines/backslashes
/// escaped. The file is the only copy of the log: append() hands each
/// line to the kernel with one write() on a descriptor held open for
/// the WAL's life (no fsync), and all()/last() read the file back. A
/// torn final line (crash mid-append) is dropped by every read, exactly
/// like a real WAL discarding a torn tail record, and cut off when the
/// WAL is opened so the next record starts a line of its own.
class FileWal final : public Wal {
 public:
  explicit FileWal(std::string path);
  ~FileWal() override;
  FileWal(const FileWal&) = delete;
  FileWal& operator=(const FileWal&) = delete;

  void append(const std::string& key, const std::string& value) override;
  std::optional<std::string> last(const std::string& key) const override;
  std::vector<std::pair<std::string, std::string>> all() const override;

 private:
  std::string path_;
  int fd_ = -1;       // O_APPEND, open for the WAL's life
  std::string line_;  // append()'s line buffer, reused
};

struct WireReplicaOptions {
  runtime::PeerId self = 0;
  std::vector<runtime::PeerId> replicas;  // all replica ids, incl. self
  std::uint64_t housekeeping_ticks = 50;  // idle sweep period (leases)
  std::uint64_t recover_timeout = 200;    // per in-doubt outcome query
};

class WireReplica {
 public:
  WireReplica(runtime::Scheduler& sched, runtime::Wire& wire,
              LockTable& table, Wal& wal, WireReplicaOptions opts);
  WireReplica(const WireReplica&) = delete;
  WireReplica& operator=(const WireReplica&) = delete;

  /// WAL replay + in-doubt resolution + primary catch-up. Call before
  /// start() on every incarnation (a fresh WAL replays to nothing).
  void recover();

  /// Spawn the serve fiber.
  void start();
  void stop();

  /// Membership escalation input (wire PeerSupervisor::on_gone here,
  /// or drive it from the harness): `peer` is dead for role purposes.
  void note_peer_gone(runtime::PeerId peer);
  /// Inverse input (PeerSupervisor::on_reenroll): `peer` restarted with
  /// a higher incarnation and is role-eligible again.
  void note_peer_back(runtime::PeerId peer);

  runtime::PeerId primary() const;
  bool is_primary() const { return primary() == opts_.self; }

  const std::map<std::string, std::string>& data() const { return kv_; }
  /// FNV-1a over the sorted kv contents: equal digests = equal state.
  std::string digest() const;

  std::uint64_t requests_served() const { return served_; }
  /// Requests answered "err bad request": unknown op, wrong arity, or a
  /// malformed or out-of-range number. None of them stops the replica.
  std::uint64_t bad_requests() const { return bad_requests_; }
  std::uint64_t committed() const { return committed_; }
  std::uint64_t aborted() const { return aborted_; }
  std::uint64_t indoubt_resolved() const { return indoubt_; }
  std::uint64_t takeovers() const { return takeovers_; }
  std::uint64_t replayed() const { return replayed_; }

  void attach_bus(obs::EventBus* bus) { bus_ = bus; }

 private:
  void serve();
  void handle(const runtime::Wire::Msg& m);
  void apply_staged(const std::string& txn, const std::string& staged);
  void decide(const std::string& txn, bool commit);
  void recompute_primary(const char* why);
  void publish(const char* name, std::string detail, double value = 0);
  /// One request/reply round-trip to another replica (recovery path).
  bool ask(runtime::PeerId to, const std::string& op_and_args,
           std::string* reply, std::uint64_t timeout);

  runtime::Scheduler* sched_;
  runtime::Wire* wire_;
  LockTable* table_;
  Wal* wal_;
  WireReplicaOptions opts_;
  obs::EventBus* bus_ = nullptr;

  std::map<std::string, std::string> kv_;
  // Prepared, undecided transactions: txn -> "k=v;k=v". Shared with
  // the lock table's pin hook (LockTable::set_pinned), which may
  // outlive this replica.
  std::shared_ptr<std::map<std::string, std::string>> staged_owner_ =
      std::make_shared<std::map<std::string, std::string>>();
  std::map<std::string, std::string>& staged_ = *staged_owner_;
  std::set<runtime::PeerId> dead_;
  runtime::PeerId primary_ = runtime::kNoPeer;
  bool stopping_ = false;
  std::uint64_t reply_seq_ = 0;

  std::uint64_t served_ = 0;
  std::uint64_t bad_requests_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t indoubt_ = 0;
  std::uint64_t takeovers_ = 0;
  std::uint64_t replayed_ = 0;
};

struct WireDriverOptions {
  runtime::PeerId self = 100;
  std::vector<runtime::PeerId> replicas;
  std::uint64_t reply_timeout = 300;  // per request attempt
  unsigned attempts = 2;              // tries before declaring dead
  std::size_t min_survivors = 1;      // Abort policy floor
  std::uint64_t lease_ticks = 500;    // lock lease length
};

/// The client/coordinator: leased lock acquisition on every live
/// replica (the Fig 5 all-managers discipline) and 2PC updates with a
/// coordinator-side WAL. A replica that exhausts its reply attempts is
/// declared dead and the driver DEGRADES to the survivors; when fewer
/// than min_survivors remain it refuses further work (Abort policy).
///
/// Keys and values travel as whitespace-separated tokens and in
/// "k=v;k=v" write sets, so acquire(), update() and get() refuse,
/// before sending anything, a key that is empty or holds whitespace,
/// ';' or '=', and a value that holds whitespace or ';'.
class WireDriver {
 public:
  WireDriver(runtime::Scheduler& sched, runtime::Wire& wire, Wal& wal,
             WireDriverOptions opts);

  /// Acquire `item` for `txn` on every live replica. All-or-nothing:
  /// a denial releases what was taken and returns false.
  bool acquire(std::uint32_t txn, const std::string& item, LockMode mode);
  /// Release every lock of `txn`. A replica that acked the `dec` of
  /// the transaction this driver decided last has already released
  /// them and gets no `rel`, unless acquire() ran for it since.
  void release(std::uint32_t txn);

  /// 2PC: prepare `writes` on all live replicas under `txn` (which
  /// must hold X locks on every written item), decide from the votes,
  /// log the decision, drive it. Returns true iff committed.
  bool update(std::uint32_t txn,
              const std::vector<std::pair<std::string, std::string>>& writes);

  std::optional<std::string> get(const std::string& key);
  std::string digest_of(runtime::PeerId replica);
  /// Re-admit a peer previously declared dead (it restarted).
  void revive(runtime::PeerId peer);

  std::vector<runtime::PeerId> live() const;
  bool degraded() const { return !dead_.empty(); }
  std::uint64_t commits() const { return commits_; }
  std::uint64_t aborts() const { return aborts_; }
  std::uint64_t peers_declared_dead() const { return declared_dead_; }

  void attach_bus(obs::EventBus* bus) { bus_ = bus; }

 private:
  bool request(runtime::PeerId to, const std::string& op_and_args,
               std::string* reply);
  void declare_dead(runtime::PeerId peer, const char* why);
  void publish(const char* name, std::string detail, double value = 0);

  runtime::Scheduler* sched_;
  runtime::Wire* wire_;
  Wal* wal_;
  WireDriverOptions opts_;
  obs::EventBus* bus_ = nullptr;
  std::set<runtime::PeerId> dead_;
  std::uint64_t reply_seq_ = 0;
  // The transaction update() decided last, and the replicas that acked
  // its `dec` (a replica releases the transaction's locks before it
  // acks). Reset by an acquire() for that transaction.
  std::optional<std::uint32_t> decided_txn_;
  std::vector<runtime::PeerId> released_by_dec_;
  std::uint64_t commits_ = 0;
  std::uint64_t aborts_ = 0;
  std::uint64_t declared_dead_ = 0;
};

/// Shared helpers (also used by tests and the lockdb_server example).
std::string lockdb_serialize_kv(const std::map<std::string, std::string>& kv);
std::map<std::string, std::string> lockdb_parse_kv(const std::string& s);
std::string lockdb_digest(const std::map<std::string, std::string>& kv);

}  // namespace script::lockdb
