// ReadyQueue — the scheduler's run queue with O(1) operations for every
// policy's access pattern.
//
// Layout: a vector of pids with a head index (ring-with-compaction).
//   * push     — append, O(1).
//   * pop_front— Fifo policy: the oldest entry, in exact arrival order
//                (byte-identical to the std::deque it replaces). O(1)
//                amortized; consumed prefix is compacted away once it
//                dominates the vector.
//   * pop_at   — Random/Scripted policies: the i-th live entry counted
//                in arrival order (matching the old deque indexing), by
//                swap-remove with the newest entry. O(1); survivor
//                order is NOT preserved, which those policies never
//                relied on — they pick by index, not position.
//   * remove   — fault kill of a READY fiber (rare): tombstone the slot
//                so everyone else's relative order is untouched.
//                Callers gate on the fiber's intrusive ready flag, so
//                the O(n) scan only runs when the pid really is queued.
#pragma once

#include <cstddef>
#include <vector>

#include "support/panic.hpp"

namespace script::runtime {

template <typename Pid, Pid kNone>
class ReadyQueueT {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  void push(Pid pid) {
    slots_.push_back(pid);
    ++count_;
  }

  Pid pop_front() {
    SCRIPT_ASSERT(count_ > 0, "pop_front on empty ready queue");
    while (slots_[head_] == kNone) ++head_;  // skip tombstones
    const Pid pid = slots_[head_++];
    --count_;
    compact();
    return pid;
  }

  Pid pop_at(std::size_t i) {
    SCRIPT_ASSERT(i < count_, "pop_at out of range");
    std::size_t slot = head_ + i;
    if (head_ + count_ != slots_.size()) {
      // Tombstones present: map the live index by scanning.
      slot = head_;
      for (std::size_t seen = 0;; ++slot)
        if (slots_[slot] != kNone && seen++ == i) break;
    }
    const Pid pid = slots_[slot];
    // Swap-remove: the newest live entry fills the hole.
    while (slots_.back() == kNone) slots_.pop_back();
    slots_[slot] = slots_.back();
    slots_.pop_back();
    --count_;
    if (count_ == 0) {
      slots_.clear();
      head_ = 0;
    }
    return pid;
  }

  void remove(Pid pid) {
    for (std::size_t i = head_; i < slots_.size(); ++i) {
      if (slots_[i] == pid) {
        slots_[i] = kNone;
        --count_;
        if (count_ == 0) {
          slots_.clear();
          head_ = 0;
        }
        return;
      }
    }
    SCRIPT_PANIC("ready-flagged fiber missing from ready queue");
  }

 private:
  void compact() {
    if (count_ == 0) {
      slots_.clear();
      head_ = 0;
    } else if (head_ > 64 && head_ * 2 > slots_.size()) {
      slots_.erase(slots_.begin(),
                   slots_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  std::vector<Pid> slots_;
  std::size_t head_ = 0;   // first possibly-live slot
  std::size_t count_ = 0;  // live entries (excludes tombstones)
};

}  // namespace script::runtime
