// Machine-level context switch under Fiber and Scheduler.
//
// On x86-64 a switched-out context is nothing but its saved stack
// pointer: context_x86_64.S pushes the callee-saved registers (rbx, rbp,
// r12-r15), MXCSR and the x87 control word onto the outgoing stack,
// stores rsp, loads the incoming rsp and pops the same frame. No
// syscall is involved, unlike glibc's swapcontext, which restores the
// signal mask with rt_sigprocmask on every switch. Other architectures
// keep ucontext.
#pragma once

#include <cstddef>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace script::runtime::context {

/// Where a fresh context starts: called once with the `arg` given to
/// make(); must never return.
using Entry = void (*)(void* arg);

#if defined(__x86_64__)

struct Context {
  void* sp = nullptr;  // top of the saved register frame
};

extern "C" void script_context_switch(void** save_sp, void* load_sp);

/// Save the running context into `from` and resume `to`.
inline void swap(Context& from, const Context& to) {
  script_context_switch(&from.sp, to.sp);
}

#else

struct Context {
  ucontext_t uc{};
};

inline void swap(Context& from, const Context& to) {
  swapcontext(&from.uc, &to.uc);
}

#endif

/// Prepare `ctx` so that the first swap() into it runs entry(arg) on the
/// stack [base, base + size). The floating-point control state starts as
/// the caller's, as it did under makecontext.
void make(Context& ctx, void* base, std::size_t size, Entry entry, void* arg);

}  // namespace script::runtime::context
