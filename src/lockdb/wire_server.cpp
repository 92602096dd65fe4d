#include "lockdb/wire_server.hpp"

#include <errno.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <limits>
#include <string_view>
#include <system_error>

namespace script::lockdb {

namespace {

constexpr const char* kReqTag = "lkreq";

/// The characters `operator>>` skips between words in the C locale.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

// No op takes more than this many tokens (acq takes six).
constexpr std::size_t kMaxTokens = 6;

/// Splits `s` at runs of whitespace into the first kMaxTokens tokens.
/// Returns the token count, capped at kMaxTokens + 1, which every
/// arity check refuses.
std::size_t split(std::string_view s,
                  std::array<std::string_view, kMaxTokens>& tok) {
  std::size_t n = 0;
  std::size_t i = 0;
  while (n <= kMaxTokens) {
    while (i < s.size() && is_space(s[i])) ++i;
    if (i == s.size()) break;
    const std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (n < kMaxTokens) tok[n] = s.substr(start, i - start);
    ++n;
  }
  return n;
}

/// A key is one token, and the left of "k=v" in a write set.
bool encodable_key(const std::string& k) {
  return !k.empty() && std::none_of(k.begin(), k.end(), [](char c) {
    return is_space(c) || c == ';' || c == '=';
  });
}

/// A value is the right of "k=v" in a write set, inside one token.
bool encodable_value(const std::string& v) {
  return std::none_of(v.begin(), v.end(),
                      [](char c) { return is_space(c) || c == ';'; });
}

/// The whole token as a canonical unsigned decimal, or nullopt. Peer
/// bytes may say anything: a sign, trailing junk or an out-of-range
/// value must be refused, not thrown or wrapped. A leading zero on a
/// multi-digit token is refused too: staged transactions are keyed by
/// the token, so "01" and "1" must not both name owner 1.
template <typename T>
std::optional<T> parse_number(std::string_view s) {
  if (s.size() > 1 && s[0] == '0') return std::nullopt;
  T v{};
  const char* end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return v;
}

/// Appends `s` to `out` with backslash, tab and newline escaped.
void escape_into(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '\t')
      out += "\\t";
    else if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
}

std::string unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    out += s[i] == 't' ? '\t' : s[i] == 'n' ? '\n' : s[i];
  }
  return out;
}

/// The whole file, or nullopt when it cannot be read.
std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::string text;
  char buf[64 * 1024];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) != 0) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (n < 0) return std::nullopt;
  return text;
}

}  // namespace

// ---- kv helpers ----

std::string lockdb_serialize_kv(const std::map<std::string, std::string>& kv) {
  std::string out;
  for (const auto& [k, v] : kv) {
    if (!out.empty()) out += ';';
    out += k + "=" + v;
  }
  return out;
}

std::map<std::string, std::string> lockdb_parse_kv(const std::string& s) {
  std::map<std::string, std::string> kv;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t semi = s.find(';', pos);
    if (semi == std::string::npos) semi = s.size();
    const std::string pair = s.substr(pos, semi - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string::npos)
      kv[pair.substr(0, eq)] = pair.substr(eq + 1);
    pos = semi + 1;
  }
  return kv;
}

std::string lockdb_digest(const std::map<std::string, std::string>& kv) {
  // FNV-1a 64 over the sorted (map order) "k=v\n" stream.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](const std::string& s) {
    for (char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ull;
    }
  };
  for (const auto& [k, v] : kv) {
    mix(k);
    mix("=");
    mix(v);
    mix("\n");
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

// ---- Wal backends ----

void SimWal::append(const std::string& key, const std::string& value) {
  log_->append(key, value);
}

std::optional<std::string> SimWal::last(const std::string& key) const {
  return log_->last(key);
}

std::vector<std::pair<std::string, std::string>> SimWal::all() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& r : log_->records()) out.emplace_back(r.key, r.value);
  return out;
}

FileWal::FileWal(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
               0666);
  // A crash mid-append leaves a torn last line. Cut it off before the
  // first append, or that record would extend the torn line and be
  // lost with it at the next read.
  const std::optional<std::string> text = read_file(path_);
  if (fd_ < 0 || !text) return;
  const std::size_t keep = text->rfind('\n') + 1;  // npos + 1 == 0
  if (keep < text->size() &&
      ::ftruncate(fd_, static_cast<off_t>(keep)) != 0)
    std::perror("FileWal: cannot cut torn tail");
}

FileWal::~FileWal() {
  if (fd_ >= 0) ::close(fd_);
}

void FileWal::append(const std::string& key, const std::string& value) {
  if (fd_ < 0) return;
  line_.clear();
  escape_into(line_, key);
  line_ += '\t';
  escape_into(line_, value);
  line_ += '\n';
  // One write() per record: the whole line reaches the kernel before
  // append returns. Nothing is fsync'd.
  std::size_t done = 0;
  while (done < line_.size()) {
    const ssize_t n = ::write(fd_, line_.data() + done, line_.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // disk full or I/O error: the record is lost
    done += static_cast<std::size_t>(n);
  }
}

std::optional<std::string> FileWal::last(const std::string& key) const {
  const auto records = all();
  for (auto it = records.rbegin(); it != records.rend(); ++it)
    if (it->first == key) return it->second;
  return std::nullopt;
}

std::vector<std::pair<std::string, std::string>> FileWal::all() const {
  std::vector<std::pair<std::string, std::string>> records;
  const std::string text = read_file(path_).value_or("");
  // Only newline-terminated lines count: a crash mid-append leaves a
  // torn tail that must be discarded, same as any real WAL.
  std::size_t pos = 0;
  for (std::size_t nl; (nl = text.find('\n', pos)) != std::string::npos;
       pos = nl + 1) {
    const std::size_t tab = text.find('\t', pos);
    if (tab < nl)
      records.emplace_back(unescape(text.substr(pos, tab - pos)),
                           unescape(text.substr(tab + 1, nl - tab - 1)));
  }
  return records;
}

// ---- WireReplica ----

WireReplica::WireReplica(runtime::Scheduler& sched, runtime::Wire& wire,
                         LockTable& table, Wal& wal,
                         WireReplicaOptions opts)
    : sched_(&sched),
      wire_(&wire),
      table_(&table),
      wal_(&wal),
      opts_(std::move(opts)) {
  std::sort(opts_.replicas.begin(), opts_.replicas.end());
  recompute_primary("init");
  // A prepared transaction's locks outlive its lease until `dec` or
  // recover() decides it: reaping them would let a conflicting
  // transaction prepare and commit beside it.
  table_->set_pinned([staged = staged_owner_](OwnerId owner) {
    for (const auto& [txn, writes] : *staged)
      if (parse_number<OwnerId>(txn) == owner) return true;
    return false;
  });
}

void WireReplica::publish(const char* name, std::string detail,
                          double value) {
  if (bus_ == nullptr || !bus_->wants(obs::Subsystem::Recovery)) return;
  obs::Event e;
  e.subsystem = obs::Subsystem::Recovery;
  e.name = name;
  e.detail = std::move(detail);
  e.value = value;
  bus_->publish(e);
}

runtime::PeerId WireReplica::primary() const { return primary_; }

void WireReplica::recompute_primary(const char* why) {
  runtime::PeerId p = runtime::kNoPeer;
  for (runtime::PeerId id : opts_.replicas) {
    if (dead_.count(id) == 0) {
      p = id;
      break;
    }
  }
  const runtime::PeerId old = primary_;
  primary_ = p;
  if (old != primary_ && primary_ == opts_.self && old != runtime::kNoPeer) {
    ++takeovers_;
    publish("lockdb.takeover",
            "from=" + std::to_string(old) + " " + why,
            static_cast<double>(opts_.self));
  }
}

void WireReplica::note_peer_gone(runtime::PeerId peer) {
  if (dead_.insert(peer).second) recompute_primary("peer gone");
}

void WireReplica::note_peer_back(runtime::PeerId peer) {
  if (dead_.erase(peer) != 0) recompute_primary("peer back");
}

void WireReplica::apply_staged(const std::string& txn,
                               const std::string& staged) {
  for (const auto& [k, v] : lockdb_parse_kv(staged)) kv_[k] = v;
  (void)txn;
}

void WireReplica::decide(const std::string& txn, bool commit) {
  wal_->append("decision." + txn, commit ? "commit" : "abort");
  const auto it = staged_.find(txn);
  if (commit) {
    if (it != staged_.end()) apply_staged(txn, it->second);
    ++committed_;
  } else {
    ++aborted_;
  }
  if (it != staged_.end()) staged_.erase(it);
}

bool WireReplica::ask(runtime::PeerId to, const std::string& op_and_args,
                      std::string* reply, std::uint64_t timeout) {
  const std::string rtag =
      "rr" + std::to_string(opts_.self) + "." + std::to_string(reply_seq_++);
  const std::size_t sp = op_and_args.find(' ');
  const std::string op = op_and_args.substr(0, sp);
  const std::string rest =
      sp == std::string::npos ? "" : op_and_args.substr(sp);
  wire_->post(to, kReqTag, op + " " + rtag + rest);
  runtime::Wire::Msg m;
  if (!wire_->recv(rtag, &m, timeout, to)) return false;
  *reply = m.payload;
  return true;
}

void WireReplica::recover() {
  // Pass 1 — replay what stable storage remembers, in append order.
  // A snapshot resets the world (catch-up from a previous recovery);
  // prepare stages; a decision resolves its stage.
  for (const auto& [k, v] : wal_->all()) {
    ++replayed_;
    if (k == "snapshot") {
      kv_ = lockdb_parse_kv(v);
      staged_.clear();
    } else if (k.rfind("prep.", 0) == 0) {
      staged_[k.substr(5)] = v;
    } else if (k.rfind("decision.", 0) == 0) {
      const std::string txn = k.substr(9);
      const auto it = staged_.find(txn);
      if (v == "commit" && it != staged_.end())
        apply_staged(txn, it->second);
      if (it != staged_.end()) staged_.erase(it);
    }
  }
  publish("lockdb.replay", "records", static_cast<double>(replayed_));

  // Pass 2 — in-doubt transactions: prepared, never decided. Ask the
  // survivors (any replica that saw the decision logged it); when
  // nobody knows, the transaction is PRESUMED ABORTED — the standard
  // resolution, and the safe one (an undecided prepare can never have
  // been acted on elsewhere without a logged decision somewhere).
  std::vector<std::string> indoubt;
  for (const auto& [txn, staged] : staged_) indoubt.push_back(txn);
  for (const std::string& txn : indoubt) {
    std::string outcome = "unknown";
    for (runtime::PeerId id : opts_.replicas) {
      if (id == opts_.self || dead_.count(id) != 0) continue;
      std::string reply;
      if (ask(id, "outcome " + txn, &reply, opts_.recover_timeout) &&
          reply != "unknown") {
        outcome = reply;
        break;
      }
    }
    ++indoubt_;
    publish("lockdb.indoubt", "txn=" + txn + " -> " + outcome);
    decide(txn, outcome == "commit");
  }

  // Pass 3 — catch up on everything committed while we were dead: the
  // current primary's state is authoritative. Snapshot it into our WAL
  // so the NEXT recovery starts from here.
  for (runtime::PeerId id : opts_.replicas) {
    if (id == opts_.self || dead_.count(id) != 0) continue;
    std::string reply;
    if (!ask(id, "digest", &reply, opts_.recover_timeout)) continue;
    if (reply == digest()) break;  // already consistent
    std::string dump;
    if (ask(id, "sync", &dump, opts_.recover_timeout)) {
      // Survivor-wins merge, not replace: there are no deletes in this
      // model, so the union is correct — and an in-doubt commit we just
      // resolved locally (whose phase 2 never reached the survivors)
      // must not be wiped by the catch-up.
      for (const auto& [k, v] : lockdb_parse_kv(dump)) kv_[k] = v;
      wal_->append("snapshot", lockdb_serialize_kv(kv_));
      publish("lockdb.catchup", "from=" + std::to_string(id),
              static_cast<double>(kv_.size()));
    }
    break;
  }
}

void WireReplica::start() {
  stopping_ = false;
  sched_->spawn("lockdb.replica" + std::to_string(opts_.self),
                [this] { serve(); });
}

void WireReplica::stop() { stopping_ = true; }

void WireReplica::serve() {
  while (!stopping_) {
    runtime::Wire::Msg m;
    if (!wire_->recv(kReqTag, &m, opts_.housekeeping_ticks)) {
      if (!wire_->running()) break;
      // Idle housekeeping: reap expired leases so locks held by silent
      // (dead) clients drain even when no request ever arrives again.
      table_->reap_expired(sched_->now());
      continue;
    }
    handle(m);
  }
}

void WireReplica::handle(const runtime::Wire::Msg& m) {
  std::array<std::string_view, kMaxTokens> tok;
  const std::size_t n = split(m.payload, tok);
  if (n < 2) return;  // no op or no reply tag: undeliverable
  const std::string_view op = tok[0];
  const std::string rtag(tok[1]);
  ++served_;
  auto reply = [&](const std::string& payload) {
    wire_->post(m.from, rtag, payload);
  };
  auto bad_request = [&] {
    ++bad_requests_;
    reply("err bad request");
  };

  if (op == "acq" && n == 6) {
    // acq <r> <txn> <item> <S|X> <lease_ticks>
    const auto txn = parse_number<OwnerId>(tok[2]);
    const auto lease = parse_number<std::uint64_t>(tok[5]);
    const std::uint64_t now = sched_->now();
    if (!txn || !lease || (tok[4] != "S" && tok[4] != "X") ||
        *lease > std::numeric_limits<std::uint64_t>::max() - now)
      return bad_request();
    const LockMode mode =
        tok[4] == "X" ? LockMode::Exclusive : LockMode::Shared;
    table_->reap_expired(now);
    const bool ok = table_->acquire_leased(std::string(tok[3]), mode, *txn,
                                           now + *lease);
    reply(ok ? "ok" : "no");
  } else if (op == "rel" && n == 3) {
    // rel <r> <txn>
    const auto txn = parse_number<OwnerId>(tok[2]);
    if (!txn) return bad_request();
    reply("ok " + std::to_string(table_->release_all(*txn)));
  } else if (op == "prep" && (n == 3 || n == 4)) {
    // prep <r> <txn> [<k=v;k=v>]   (vote yes only when the txn holds an
    // X lock on every item it wants to write: 2PC rides ON the locks)
    const std::string txn(tok[2]);
    const auto owner = parse_number<OwnerId>(txn);
    if (!owner) return bad_request();
    const std::string staged(n == 4 ? tok[3] : std::string_view());
    bool can = true;
    for (const auto& [k, v] : lockdb_parse_kv(staged))
      if (!table_->holds(k, *owner)) can = false;
    if (can) {
      staged_[txn] = staged;
      wal_->append("prep." + txn, staged);
      reply("yes");
    } else {
      reply("no");
    }
  } else if (op == "dec" && n == 4) {
    // dec <r> <txn> <commit|abort>: the txn's locks are released before
    // the ack, so a driver need not follow an acked dec with rel.
    const std::string txn(tok[2]);
    const auto owner = parse_number<OwnerId>(txn);
    if (!owner) return bad_request();
    decide(txn, tok[3] == "commit");
    table_->release_all(*owner);
    reply("ack");
  } else if (op == "get" && n == 3) {
    const auto it = kv_.find(std::string(tok[2]));
    reply(it == kv_.end() ? "?" : it->second);
  } else if (op == "digest" && n == 2) {
    reply(digest());
  } else if (op == "outcome" && n == 3) {
    const auto v = wal_->last("decision." + std::string(tok[2]));
    reply(v.value_or("unknown"));
  } else if (op == "sync" && n == 2) {
    reply(lockdb_serialize_kv(kv_));
  } else if (op == "role" && n == 2) {
    reply(std::to_string(primary_));
  } else {
    bad_request();
  }
}

std::string WireReplica::digest() const { return lockdb_digest(kv_); }

// ---- WireDriver ----

WireDriver::WireDriver(runtime::Scheduler& sched, runtime::Wire& wire,
                       Wal& wal, WireDriverOptions opts)
    : sched_(&sched), wire_(&wire), wal_(&wal), opts_(std::move(opts)) {
  std::sort(opts_.replicas.begin(), opts_.replicas.end());
}

void WireDriver::publish(const char* name, std::string detail,
                         double value) {
  if (bus_ == nullptr || !bus_->wants(obs::Subsystem::Recovery)) return;
  obs::Event e;
  e.subsystem = obs::Subsystem::Recovery;
  e.name = name;
  e.detail = std::move(detail);
  e.value = value;
  bus_->publish(e);
}

std::vector<runtime::PeerId> WireDriver::live() const {
  std::vector<runtime::PeerId> out;
  for (runtime::PeerId id : opts_.replicas)
    if (dead_.count(id) == 0) out.push_back(id);
  return out;
}

void WireDriver::declare_dead(runtime::PeerId peer, const char* why) {
  if (!dead_.insert(peer).second) return;
  ++declared_dead_;
  publish("lockdb.peer_dead", std::string(why),
          static_cast<double>(peer));
}

void WireDriver::revive(runtime::PeerId peer) { dead_.erase(peer); }

bool WireDriver::request(runtime::PeerId to, const std::string& op_and_args,
                         std::string* reply) {
  const std::size_t sp = op_and_args.find(' ');
  const std::string op = op_and_args.substr(0, sp);
  const std::string rest =
      sp == std::string::npos ? "" : op_and_args.substr(sp);
  for (unsigned attempt = 0; attempt < opts_.attempts; ++attempt) {
    // Fresh reply tag per attempt: a late answer to attempt k must not
    // satisfy attempt k+1 of a DIFFERENT request later on.
    const std::string rtag = "rd" + std::to_string(opts_.self) + "." +
                             std::to_string(reply_seq_++);
    wire_->post(to, kReqTag, op + " " + rtag + rest);
    runtime::Wire::Msg m;
    if (wire_->recv(rtag, &m, opts_.reply_timeout, to)) {
      *reply = m.payload;
      return true;
    }
  }
  declare_dead(to, "no reply");
  return false;
}

bool WireDriver::acquire(std::uint32_t txn, const std::string& item,
                         LockMode mode) {
  if (!encodable_key(item)) return false;
  const std::vector<runtime::PeerId> targets = live();
  if (targets.size() < opts_.min_survivors) return false;
  // Locks taken after the decision are not covered by its dec.
  if (decided_txn_ == txn) decided_txn_.reset();
  std::vector<runtime::PeerId> granted;
  bool ok = true;
  for (runtime::PeerId id : targets) {
    std::string reply;
    if (request(id,
                "acq " + std::to_string(txn) + " " + item + " " +
                    (mode == LockMode::Exclusive ? "X" : "S") + " " +
                    std::to_string(opts_.lease_ticks),
                &reply) &&
        reply == "ok") {
      granted.push_back(id);
    } else if (dead_.count(id) != 0) {
      // Dead replica: degrade, don't fail the acquire.
      continue;
    } else {
      ok = false;
      break;
    }
  }
  if (!ok) {
    for (runtime::PeerId id : granted) {
      std::string ignored;
      request(id, "rel " + std::to_string(txn), &ignored);
    }
  }
  return ok;
}

void WireDriver::release(std::uint32_t txn) {
  const bool decided = decided_txn_ == txn;
  for (runtime::PeerId id : live()) {
    if (decided && std::find(released_by_dec_.begin(), released_by_dec_.end(),
                             id) != released_by_dec_.end())
      continue;  // its dec ack already released every lock of txn
    std::string ignored;
    request(id, "rel " + std::to_string(txn), &ignored);
  }
  if (decided) decided_txn_.reset();
}

bool WireDriver::update(
    std::uint32_t txn,
    const std::vector<std::pair<std::string, std::string>>& writes) {
  for (const auto& [k, v] : writes) {
    if (!encodable_key(k) || !encodable_value(v)) {
      ++aborts_;
      publish("lockdb.refused", "unencodable write");
      return false;
    }
  }
  std::vector<runtime::PeerId> targets = live();
  if (targets.size() < opts_.min_survivors) {
    ++aborts_;
    publish("lockdb.refused", "below min_survivors");
    return false;
  }
  std::map<std::string, std::string> wmap(writes.begin(), writes.end());
  const std::string staged = lockdb_serialize_kv(wmap);
  const std::string t = std::to_string(txn);

  // Phase 1 — prepare everywhere. A replica that dies mid-prepare
  // degrades the set; a live "no" vetoes.
  bool all_yes = true;
  for (runtime::PeerId id : targets) {
    std::string vote;
    if (!request(id, "prep " + t + " " + staged, &vote)) continue;  // dead
    if (vote != "yes") {
      all_yes = false;
      break;
    }
  }
  if (live().size() < opts_.min_survivors) all_yes = false;

  // The decision hits OUR log before any participant learns it: a
  // coordinator crash after this line re-drives the same decision, and
  // a participant crash resolves its in-doubt against this record via
  // the survivors.
  wal_->append("decision." + t, all_yes ? "commit" : "abort");

  // Phase 2 — drive the decision to whoever is still alive. Each ack
  // also says that replica released the transaction's locks.
  decided_txn_.reset();
  released_by_dec_.clear();
  for (runtime::PeerId id : live()) {
    std::string ack;
    if (request(id, "dec " + t + " " + (all_yes ? "commit" : "abort"),
                &ack) &&
        ack == "ack")
      released_by_dec_.push_back(id);
  }
  decided_txn_ = txn;
  if (all_yes)
    ++commits_;
  else
    ++aborts_;
  return all_yes;
}

std::optional<std::string> WireDriver::get(const std::string& key) {
  if (!encodable_key(key)) return std::nullopt;
  for (runtime::PeerId id : live()) {
    std::string reply;
    if (request(id, "get " + key, &reply))
      return reply == "?" ? std::nullopt
                          : std::optional<std::string>(reply);
  }
  return std::nullopt;
}

std::string WireDriver::digest_of(runtime::PeerId replica) {
  std::string reply;
  if (!request(replica, "digest", &reply)) return "";
  return reply;
}

}  // namespace script::lockdb
