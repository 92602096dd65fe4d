// Lock tables for the replicated-database example (paper §II / Fig 5).
//
// "We assume that the lock tables are abstract data types with the
// appropriate functions to lock and release entries in the table and to
// check whether read or write locks on a piece of data may be added."
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/event_bus.hpp"

namespace script::obs {
class Inspector;
}  // namespace script::obs

namespace script::lockdb {

/// A lock requester (the paper's "unique processor identifier").
using OwnerId = std::uint32_t;

enum class LockMode : std::uint8_t { Shared, Exclusive };

/// "No deadline" for the deadline-aware acquire overloads. Matches the
/// runtime's sentinel bit-for-bit, so a RoleContext::deadline_at() can
/// be forwarded without translation (lockdb cannot see runtime types).
inline constexpr std::uint64_t kNoDeadline = static_cast<std::uint64_t>(-1);

/// Typed result of a deadline-aware acquire: a request that arrives at
/// or past its deadline is refused as DeadlineExpired WITHOUT touching
/// the table — the caller can tell "too late" (give up, the requester
/// has already been cancelled or soon will be) from "contended" (Denied
/// — retrying can help).
enum class AcquireOutcome : std::uint8_t { Granted, Denied, DeadlineExpired };

class LockTable {
 public:
  /// May `owner` add a lock of `mode` on `item` right now?
  /// Shared locks coexist; an exclusive lock excludes everyone else.
  /// Re-acquisition by the same owner is allowed (idempotent).
  bool can_acquire(const std::string& item, LockMode mode,
                   OwnerId owner) const;

  /// Try to acquire; returns false (table unchanged) if incompatible.
  bool acquire(const std::string& item, LockMode mode, OwnerId owner);

  // ---- Lease-based grants (docs/ROBUSTNESS.md "Recovery") ----
  // A leased grant expires at `expires_at` (virtual time) unless
  // released or re-acquired (renewal) first. Locks held by crashed
  // clients are thereby reclaimed instead of leaking: a manager that
  // lost its in-memory grant bookkeeping across a restart only needs
  // the clock to keep the table safe. lockdb has no scheduler, so the
  // owner wires a clock in (set_clock); with one installed, acquire()
  // reaps expired grants before testing compatibility.

  /// acquire() plus a lease. Re-acquisition by the same owner renews.
  bool acquire_leased(const std::string& item, LockMode mode,
                      OwnerId owner, std::uint64_t expires_at);

  // ---- Deadline-aware acquires (docs/ROBUSTNESS.md "Overload") ----
  // The requester's remaining deadline travels with the lock request
  // (Fig 5 managers forward RoleContext::deadline_at()); a request
  // whose deadline has passed by the time the manager serves it must
  // not be granted — the requester is being cancelled, and a grant
  // would only sit there until its lease reaps it.

  /// acquire() that honors the requester's deadline: when `now` has
  /// reached `deadline`, returns DeadlineExpired (table untouched,
  /// publishes lock.deadline_expired). kNoDeadline never expires.
  AcquireOutcome acquire(const std::string& item, LockMode mode,
                         OwnerId owner, std::uint64_t now,
                         std::uint64_t deadline);
  /// acquire_leased() with the same deadline contract.
  AcquireOutcome acquire_leased(const std::string& item, LockMode mode,
                                OwnerId owner, std::uint64_t expires_at,
                                std::uint64_t now, std::uint64_t deadline);

  /// Requests refused because their deadline had already passed.
  std::uint64_t deadline_expiries() const { return deadline_expiries_; }

  /// Drop every grant whose lease expired at or before `now`, except
  /// pinned owners' (set_pinned). Returns how many grants were
  /// reclaimed (publishes lock.lease_expired).
  std::size_t reap_expired(std::uint64_t now);

  /// Owners whose expired leases reap_expired() keeps. A replica pins
  /// the owner of a prepared, undecided transaction: its X locks are
  /// what isolates the 2PC, so they hold until the decision (or
  /// recovery) resolves it, whatever the lease says. Consulted only for
  /// expired leases; nullptr (the default) pins nobody.
  void set_pinned(std::function<bool(OwnerId)> pinned) {
    pinned_ = std::move(pinned);
  }

  /// Virtual-time source for the automatic reap in acquire(). nullptr
  /// (the default) disables automatic reaping.
  void set_clock(std::function<std::uint64_t()> clock) {
    clock_ = std::move(clock);
  }

  std::uint64_t leases_reaped() const { return leases_reaped_; }
  /// Outstanding leased grants (for leak assertions in tests).
  std::size_t leased_count() const;

  /// Drop owner's lock on item. No-op if absent.
  void release(const std::string& item, OwnerId owner);

  /// Drop every lock held by owner. Returns how many were dropped.
  std::size_t release_all(OwnerId owner);

  bool holds(const std::string& item, OwnerId owner) const;
  std::size_t holder_count(const std::string& item) const;
  std::size_t locked_items() const { return entries_.size(); }

  // Conflict accounting for the locking-strategy benches.
  std::uint64_t grants() const { return grants_; }
  std::uint64_t denials() const { return denials_; }

  /// Publish lock.acquire / lock.conflict / lock.release events on
  /// `bus` (Subsystem::Lock). lockdb has no scheduler of its own, so
  /// the owner wires a bus in (nullptr detaches).
  void attach_bus(obs::EventBus* bus) { bus_ = bus; }

  /// Structured snapshot: every locked item with its mode, owners, and
  /// lease expiries, plus the grant/denial counters.
  std::string snapshot_json() const;
  /// Register the snapshot as a "locks" Inspector section.
  std::size_t attach_inspector(obs::Inspector& inspector);

 private:
  struct Entry {
    LockMode mode = LockMode::Shared;
    std::set<OwnerId> owners;
    /// Expiry per leased owner; owners absent here hold forever.
    std::map<OwnerId, std::uint64_t> leases;
  };

  void publish(const char* name, const std::string& item, LockMode mode,
               OwnerId owner) const;

  std::map<std::string, Entry> entries_;
  std::uint64_t grants_ = 0;
  mutable std::uint64_t denials_ = 0;
  std::uint64_t leases_reaped_ = 0;
  std::uint64_t deadline_expiries_ = 0;
  std::function<std::uint64_t()> clock_;
  std::function<bool(OwnerId)> pinned_;
  obs::EventBus* bus_ = nullptr;
};

}  // namespace script::lockdb
