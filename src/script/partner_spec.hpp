// PartnerSpec: the naming part of an enrollment (paper §II).
//
//   ENROLL IN broadcast AS transmitter(exp)
//     WITH [P AS recipient[1], Q AS recipient[2]]
//
// * partners-named   — `with(role, pid)` pins a role to one process;
// * alternatives     — `with_any_of(role, {A, B})` is the paper's "more
//                      elaborate naming convention ... a given role
//                      should be fulfilled by either process A or B";
// * partners-unnamed — an empty PartnerSpec;
// * partial naming   — constrain only some roles ("P may specify the
//                      transmitter T, but not care about the others").
//
// Joint enrollment requires all specifications to agree on the binding
// of processes to roles; disagreeing enrollments wait for a later
// performance.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "script/ids.hpp"

namespace script::core {

/// The processes one naming constraint accepts. The common case — a
/// single named partner — is stored inline; alternatives use the heap.
class PidList {
 public:
  PidList() = default;
  explicit PidList(ProcessId one) : one_(one), size_(1) {}
  explicit PidList(std::vector<ProcessId> many)
      : many_(std::move(many)), size_(many_.size()) {}

  const ProcessId* begin() const {
    return size_ == 1 && many_.empty() ? &one_ : many_.data();
  }
  const ProcessId* end() const { return begin() + size_; }
  std::size_t size() const { return size_; }

 private:
  ProcessId one_ = kNoProcess;
  std::vector<ProcessId> many_;
  std::size_t size_ = 0;
};

class PartnerSpec {
 public:
  /// `role` must be played by one of `pids`.
  struct Constraint {
    RoleId role;
    PidList pids;
  };

  /// Constraints stored inside the PartnerSpec itself; more spill to
  /// the heap.
  static constexpr std::size_t kInline = 2;

  PartnerSpec() = default;

  /// Require `r` to be played by exactly `pid`.
  PartnerSpec& with(RoleId r, ProcessId pid) {
    put(std::move(r), PidList(pid));
    return *this;
  }

  /// Require `r` to be played by one of `pids`.
  PartnerSpec& with_any_of(RoleId r, std::vector<ProcessId> pids) {
    put(std::move(r), PidList(std::move(pids)));
    return *this;
  }

  /// En-bloc naming (the paper's "suggestive idea is to allow the en
  /// bloc enrollment of an array of processes to an array of roles"):
  /// pins family member `name[i]` to `pids[i]` for every i.
  PartnerSpec& with_family(const std::string& name,
                           const std::vector<ProcessId>& pids) {
    for (std::size_t i = 0; i < pids.size(); ++i)
      put(RoleId(name, static_cast<int>(i)), PidList(pids[i]));
    return *this;
  }

  bool empty() const { return constraints().empty(); }
  /// One entry per constrained role (a later constraint on the same
  /// role replaces the earlier one), in the order first given.
  std::span<const Constraint> constraints() const {
    return spill_.empty() ? std::span<const Constraint>(inline_, size_)
                          : std::span<const Constraint>(spill_);
  }

 private:
  void put(RoleId r, PidList pids) {
    std::span<Constraint> all =
        spill_.empty() ? std::span<Constraint>(inline_, size_)
                       : std::span<Constraint>(spill_);
    for (Constraint& c : all) {
      if (c.role == r) {
        c.pids = std::move(pids);
        return;
      }
    }
    if (spill_.empty() && size_ < kInline) {
      inline_[size_++] = Constraint{std::move(r), std::move(pids)};
      return;
    }
    if (spill_.empty()) {  // first spill: the inline entries move out too
      for (std::size_t i = 0; i < size_; ++i)
        spill_.push_back(std::move(inline_[i]));
      size_ = 0;
    }
    spill_.push_back(Constraint{std::move(r), std::move(pids)});
  }

  Constraint inline_[kInline];
  std::size_t size_ = 0;  // inline entries in use (0 once spilled)
  std::vector<Constraint> spill_;
};

}  // namespace script::core
