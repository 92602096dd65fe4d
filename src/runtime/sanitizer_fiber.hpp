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
//
// TSan has the same problem one level up: its shadow state is keyed by
// the executing "fiber" context, and context switches (especially the
// parallel mode's cross-thread group migration) must be announced with
// __tsan_create_fiber / __tsan_switch_to_fiber so the race detector
// follows the control transfer and inherits its happens-before edge.
// The tsan_* helpers below are no-ops outside -fsanitize=thread builds.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define SCRIPT_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SCRIPT_ASAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define SCRIPT_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SCRIPT_TSAN_FIBERS 1
#endif
#endif

#ifdef SCRIPT_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef SCRIPT_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
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

/// TSan context for the calling thread's implicit fiber (each worker
/// thread and the deterministic scheduler loop record theirs once).
inline void* tsan_current_context() {
#ifdef SCRIPT_TSAN_FIBERS
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

/// Create a TSan context for a fiber about to run for the first time.
inline void* tsan_create_context() {
#ifdef SCRIPT_TSAN_FIBERS
  return __tsan_create_fiber(0);
#else
  return nullptr;
#endif
}

/// Retire a finished fiber's TSan context. Must not be the context the
/// calling thread is currently executing in.
inline void tsan_destroy_context(void* ctx) {
#ifdef SCRIPT_TSAN_FIBERS
  if (ctx != nullptr) __tsan_destroy_fiber(ctx);
#else
  (void)ctx;
#endif
}

/// Announce the upcoming context switch to `ctx` (call immediately
/// before).
/// The default flags publish a happens-before edge from the switching-
/// out context to the switched-in one — exactly the edge the real
/// control transfer provides.
inline void tsan_switch(void* ctx) {
#ifdef SCRIPT_TSAN_FIBERS
  if (ctx != nullptr) __tsan_switch_to_fiber(ctx, 0);
#else
  (void)ctx;
#endif
}

}  // namespace script::runtime::sanitizer
