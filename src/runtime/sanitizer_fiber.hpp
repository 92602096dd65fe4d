// Sanitizer fiber-switch annotations (no-ops outside sanitized builds).
//
// ASan tracks exactly one stack per thread. A fiber context switch
// (runtime/context.hpp) moves sp somewhere ASan has never heard of, with
// two consequences:
//   * stack traces and stack-bounds checks are wrong while a fiber runs;
//   * an exception unwinding on a fiber stack cannot unpoison the frames
//     it destroys (__asan_handle_no_return bails when sp is outside the
//     thread's known stack), so dead frames leave use-after-scope shadow
//     behind — and any later execution over those addresses (a recycled
//     or re-mmapped stack) trips a false positive.
// __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber keep
// ASan's notion of "the current stack" in sync with the scheduler: call
// start_switch on the outgoing side naming the incoming stack, and
// finish_switch first thing on the incoming side.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define SCRIPT_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SCRIPT_ASAN_FIBERS 1
#endif
#endif

#ifdef SCRIPT_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

namespace script::runtime::sanitizer {

/// Announce a switch away from the current stack onto [bottom, bottom+
/// size). `fake_stack_save` stores the current context's fake-stack
/// handle for its later finish_switch; pass nullptr when the current
/// context is done for good (a dying fiber) so ASan retires it instead.
inline void start_switch(void** fake_stack_save, const void* bottom,
                         std::size_t size) {
#ifdef SCRIPT_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
  (void)fake_stack_save;
  (void)bottom;
  (void)size;
#endif
}

/// Complete a switch on the incoming side. `fake_stack_save` is the
/// handle this context saved when it last left (nullptr on first entry);
/// the out-params receive the bounds of the stack we came from.
inline void finish_switch(void* fake_stack_save, const void** bottom_old,
                          std::size_t* size_old) {
#ifdef SCRIPT_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#else
  (void)fake_stack_save;
  (void)bottom_old;
  (void)size_old;
#endif
}

}  // namespace script::runtime::sanitizer
