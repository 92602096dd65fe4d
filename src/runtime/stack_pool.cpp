#include "runtime/stack_pool.hpp"

#include <utility>

namespace script::runtime {

Stack StackPool::acquire(std::size_t usable_size) {
  // Stacks are keyed by their page-rounded usable size; any idle stack
  // at least as large as the request serves it (schedulers use one
  // fixed size, so lower_bound is a straight hit).
  auto it = idle_.lower_bound(usable_size);
  if (it != idle_.end() && !it->second.empty()) {
    Stack s = std::move(it->second.back());
    it->second.pop_back();
    if (it->second.empty()) idle_.erase(it);
    ++stats_.reused;
    --stats_.idle;
    return s;
  }
  ++stats_.created;
  return Stack(usable_size);
}

void StackPool::release(Stack stack) {
  if (!stack.valid()) return;
  if (stats_.idle >= max_idle_) {
    ++stats_.dropped;
    return;  // stack's destructor unmaps
  }
  stack.decommit();
  const std::size_t key = stack.size();
  idle_[key].push_back(std::move(stack));
  ++stats_.idle;
  if (stats_.idle > stats_.idle_high_water)
    stats_.idle_high_water = stats_.idle;
}

}  // namespace script::runtime
