#include "lockdb/lock_table.hpp"

#include "obs/inspector.hpp"
#include "obs/json.hpp"

namespace script::lockdb {

void LockTable::publish(const char* name, const std::string& item,
                        LockMode mode, OwnerId owner) const {
  bus_->publish({obs::EventKind::Instant, obs::Subsystem::Lock,
                 obs::kAutoTime, obs::kNoPid, obs::kNoLane, name,
                 item + (mode == LockMode::Exclusive ? " X" : " S"),
                 static_cast<double>(owner)});
}

bool LockTable::can_acquire(const std::string& item, LockMode mode,
                            OwnerId owner) const {
  const auto it = entries_.find(item);
  if (it == entries_.end()) return true;
  const Entry& e = it->second;
  if (e.owners.count(owner)) {
    // Re-acquisition / upgrade: allowed only if sole owner or mode
    // doesn't strengthen.
    if (mode == LockMode::Exclusive && e.mode != LockMode::Exclusive &&
        e.owners.size() > 1) {
      ++denials_;
      if (bus_ != nullptr && bus_->wants(obs::Subsystem::Lock))
        publish("lock.conflict", item, mode, owner);
      return false;
    }
    return true;
  }
  if (mode == LockMode::Shared && e.mode == LockMode::Shared) return true;
  ++denials_;
  if (bus_ != nullptr && bus_->wants(obs::Subsystem::Lock))
    publish("lock.conflict", item, mode, owner);
  return false;
}

bool LockTable::acquire(const std::string& item, LockMode mode,
                        OwnerId owner) {
  // With a clock installed, expired leases are reclaimed before the
  // compatibility test: a crashed client's stale grant never blocks a
  // live one past its lease.
  if (clock_) reap_expired(clock_());
  if (!can_acquire(item, mode, owner)) return false;
  Entry& e = entries_[item];
  e.owners.insert(owner);
  if (mode == LockMode::Exclusive || e.owners.size() == 1) e.mode = mode;
  ++grants_;
  if (bus_ != nullptr && bus_->wants(obs::Subsystem::Lock))
    publish("lock.acquire", item, mode, owner);
  return true;
}

bool LockTable::acquire_leased(const std::string& item, LockMode mode,
                               OwnerId owner, std::uint64_t expires_at) {
  if (!acquire(item, mode, owner)) return false;
  entries_[item].leases[owner] = expires_at;  // fresh grant or renewal
  return true;
}

AcquireOutcome LockTable::acquire(const std::string& item, LockMode mode,
                                  OwnerId owner, std::uint64_t now,
                                  std::uint64_t deadline) {
  if (now >= deadline) {
    ++deadline_expiries_;
    if (bus_ != nullptr && bus_->wants(obs::Subsystem::Lock))
      publish("lock.deadline_expired", item, mode, owner);
    return AcquireOutcome::DeadlineExpired;
  }
  return acquire(item, mode, owner) ? AcquireOutcome::Granted
                                    : AcquireOutcome::Denied;
}

AcquireOutcome LockTable::acquire_leased(const std::string& item,
                                         LockMode mode, OwnerId owner,
                                         std::uint64_t expires_at,
                                         std::uint64_t now,
                                         std::uint64_t deadline) {
  const AcquireOutcome out = acquire(item, mode, owner, now, deadline);
  if (out == AcquireOutcome::Granted)
    entries_[item].leases[owner] = expires_at;  // fresh grant or renewal
  return out;
}

std::size_t LockTable::reap_expired(std::uint64_t now) {
  std::size_t reaped = 0;
  const bool observed = bus_ != nullptr && bus_->wants(obs::Subsystem::Lock);
  for (auto it = entries_.begin(); it != entries_.end();) {
    Entry& e = it->second;
    for (auto lit = e.leases.begin(); lit != e.leases.end();) {
      if (lit->second <= now && !(pinned_ && pinned_(lit->first))) {
        e.owners.erase(lit->first);
        ++reaped;
        if (observed)
          publish("lock.lease_expired", it->first, e.mode, lit->first);
        lit = e.leases.erase(lit);
      } else {
        ++lit;
      }
    }
    if (e.owners.empty())
      it = entries_.erase(it);
    else
      ++it;
  }
  leases_reaped_ += reaped;
  return reaped;
}

std::size_t LockTable::leased_count() const {
  std::size_t n = 0;
  for (const auto& [item, e] : entries_) n += e.leases.size();
  return n;
}

void LockTable::release(const std::string& item, OwnerId owner) {
  const auto it = entries_.find(item);
  if (it == entries_.end()) return;
  it->second.leases.erase(owner);
  if (it->second.owners.erase(owner) > 0 && bus_ != nullptr &&
      bus_->wants(obs::Subsystem::Lock))
    publish("lock.release", item, it->second.mode, owner);
  if (it->second.owners.empty()) entries_.erase(it);
}

std::size_t LockTable::release_all(OwnerId owner) {
  std::size_t dropped = 0;
  const bool observed = bus_ != nullptr && bus_->wants(obs::Subsystem::Lock);
  for (auto it = entries_.begin(); it != entries_.end();) {
    it->second.leases.erase(owner);
    if (it->second.owners.erase(owner) > 0) {
      ++dropped;
      if (observed)
        publish("lock.release", it->first, it->second.mode, owner);
    }
    if (it->second.owners.empty())
      it = entries_.erase(it);
    else
      ++it;
  }
  return dropped;
}

bool LockTable::holds(const std::string& item, OwnerId owner) const {
  const auto it = entries_.find(item);
  return it != entries_.end() && it->second.owners.count(owner) > 0;
}

std::size_t LockTable::holder_count(const std::string& item) const {
  const auto it = entries_.find(item);
  return it == entries_.end() ? 0 : it->second.owners.size();
}

std::string LockTable::snapshot_json() const {
  obs::json::Writer w;
  w.object();
  w.key("held").value(static_cast<std::uint64_t>(entries_.size()));
  w.key("grants").value(grants_);
  w.key("denials").value(denials_);
  w.key("leases_reaped").value(leases_reaped_);
  // Appears only once a deadline has actually expired, so snapshots of
  // deadline-free runs stay byte-identical.
  if (deadline_expiries_ > 0)
    w.key("deadline_expiries").value(deadline_expiries_);
  w.key("items").array();
  for (const auto& [item, e] : entries_) {
    w.object();
    w.key("item").value(item);
    w.key("mode").value(e.mode == LockMode::Exclusive ? "exclusive"
                                                      : "shared");
    w.key("owners").array();
    for (const OwnerId o : e.owners) {
      w.object();
      w.key("owner").value(static_cast<std::uint64_t>(o));
      const auto lease = e.leases.find(o);
      if (lease != e.leases.end())
        w.key("lease_expiry").value(lease->second);
      w.end();
    }
    w.end().end();
  }
  w.end().end();
  return w.str();
}

std::size_t LockTable::attach_inspector(obs::Inspector& inspector) {
  return inspector.attach("locks", [this] { return snapshot_json(); });
}

}  // namespace script::lockdb
