#include "runtime/context.hpp"

#include <cstdint>

#include "support/panic.hpp"

#if defined(__x86_64__)

extern "C" void script_context_entry();

namespace script::runtime::context {

void make(Context& ctx, void* base, std::size_t size, Entry entry,
          void* arg) {
  std::uint32_t mxcsr = 0;
  std::uint16_t fpcw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpcw));
  // The frame script_context_switch pops (context_x86_64.S), topped by
  // 16 zero bytes. Its "return" lands in script_context_entry with rsp
  // 16-byte aligned, as the ABI requires at the thunk's own call.
  const std::uintptr_t top =
      (reinterpret_cast<std::uintptr_t>(base) + size) & ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<std::uint64_t*>(top) - 10;
  frame[0] = mxcsr | (std::uint64_t{fpcw} << 32);
  frame[1] = 0;                                      // r15
  frame[2] = 0;                                      // r14
  frame[3] = reinterpret_cast<std::uintptr_t>(entry);  // r13
  frame[4] = reinterpret_cast<std::uintptr_t>(arg);    // r12
  frame[5] = 0;                                      // rbx
  frame[6] = 0;                                      // rbp: ends frame chains
  frame[7] = reinterpret_cast<std::uintptr_t>(&script_context_entry);
  frame[8] = 0;
  frame[9] = 0;
  ctx.sp = frame;
}

}  // namespace script::runtime::context

#else

namespace script::runtime::context {

namespace {

// makecontext passes ints only, so the entry and its argument travel as
// 32-bit halves.
void start(unsigned eh, unsigned el, unsigned ah, unsigned al) {
  const auto join = [](unsigned hi, unsigned lo) {
    return (static_cast<std::uintptr_t>(hi) << 32) |
           static_cast<std::uintptr_t>(lo);
  };
  reinterpret_cast<Entry>(join(eh, el))(
      reinterpret_cast<void*>(join(ah, al)));
  SCRIPT_PANIC("context entry returned");
}

}  // namespace

void make(Context& ctx, void* base, std::size_t size, Entry entry,
          void* arg) {
  if (getcontext(&ctx.uc) != 0) SCRIPT_PANIC("getcontext failed");
  ctx.uc.uc_stack.ss_sp = base;
  ctx.uc.uc_stack.ss_size = size;
  ctx.uc.uc_link = nullptr;  // entries never return
  const auto e = reinterpret_cast<std::uintptr_t>(entry);
  const auto a = reinterpret_cast<std::uintptr_t>(arg);
  makecontext(&ctx.uc, reinterpret_cast<void (*)()>(&start), 4,
              static_cast<unsigned>(e >> 32),
              static_cast<unsigned>(e & 0xffffffffu),
              static_cast<unsigned>(a >> 32),
              static_cast<unsigned>(a & 0xffffffffu));
}

}  // namespace script::runtime::context

#endif
