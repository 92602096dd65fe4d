// StackPool — recycles mmap'd guard-paged fiber stacks.
//
// Spawning a fiber used to cost an mmap + mprotect, and retiring it a
// munmap; under fig. 2-style churn (a fresh fiber per performance) that
// is a syscall pair on every enrollment round. The pool keeps retired
// stacks, decommitted (madvise DONTNEED — physical pages dropped, guard
// page intact), and hands them back to the next fiber of the same size.
//
// The idle set is bounded: beyond `max_idle` stacks a release unmaps
// immediately, so a burst of 10k fibers does not pin 10k mappings
// forever. Decommitted idle stacks cost address space only, not RSS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "runtime/stack.hpp"

namespace script::runtime {

class StackPool {
 public:
  struct Stats {
    std::uint64_t created = 0;  // fresh mmaps
    std::uint64_t reused = 0;   // acquisitions served from the pool
    std::uint64_t dropped = 0;  // releases unmapped (pool was full)
    std::size_t idle = 0;
    std::size_t idle_high_water = 0;
    /// Fraction of acquisitions served without a syscall.
    double reuse_ratio() const {
      const std::uint64_t total = created + reused;
      return total == 0 ? 0.0 : static_cast<double>(reused) / total;
    }
  };

  static constexpr std::size_t kDefaultMaxIdle = 64;

  explicit StackPool(std::size_t max_idle = kDefaultMaxIdle)
      : max_idle_(max_idle) {}

  /// A stack of at least `usable_size` usable bytes: recycled when one
  /// of that size is idle, freshly mapped otherwise.
  Stack acquire(std::size_t usable_size);

  /// Return a stack to the pool. Decommits its pages; unmaps instead
  /// when the pool is already holding `max_idle` stacks.
  void release(Stack stack);

  void set_max_idle(std::size_t n) { max_idle_ = n; }
  std::size_t max_idle() const { return max_idle_; }
  const Stats& stats() const { return stats_; }

 private:
  std::size_t max_idle_;
  // Keyed by usable size (sizes are per-scheduler constants in
  // practice, so this map has one or two entries).
  std::map<std::size_t, std::vector<Stack>> idle_;
  Stats stats_;
};

}  // namespace script::runtime
