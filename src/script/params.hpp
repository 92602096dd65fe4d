// Data parameters of a role (paper §II: "ordinary formal parameters ...
// bound at enrollment time to the corresponding actual parameters
// supplied by the enrolling process").
//
// Modes follow the paper's usage:
//   * in      — a value the enroller supplies (Fig 3 `sender(data)`);
//   * out     — a location the role body assigns (Fig 3 recipients'
//               `VAR data`); because the role body executes on the
//               enrolling process's own fiber, out-parameters write
//               straight through to the enroller's variable
//               (call-by-reference, as in the paper's CSP translation).
//
// Values live in csp::Message (small values inline) and writers are
// plain function pointers, so the first kInline parameters of an
// enrollment cost no heap allocation.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "csp/message.hpp"
#include "support/panic.hpp"

namespace script::core {

class Params {
 public:
  /// Parameters stored inside the Params object itself; more spill to
  /// the heap.
  static constexpr std::size_t kInline = 2;

  Params() {}  // user-provided: `const Params p;` must stay legal
  Params(const Params& o) { copy_from(o); }
  Params(Params&& o) noexcept { move_from(o); }
  Params& operator=(const Params& o) {
    if (this != &o) {
      clear();
      copy_from(o);
    }
    return *this;
  }
  Params& operator=(Params&& o) noexcept {
    if (this != &o) {
      clear();
      move_from(o);
    }
    return *this;
  }

  /// Supply an in-parameter value.
  template <typename T>
  Params& in(const std::string& name, T value) {
    add(name).value = csp::Message::of<T>(std::move(value));
    return *this;
  }

  /// Register an out-parameter: the role body's set() writes to *target.
  template <typename T>
  Params& out(const std::string& name, T* target) {
    Slot& s = add(name);
    s.write = &write_through<T>;
    s.target = target;
    return *this;
  }

  /// In-out: supplies a value AND writes the final value back.
  template <typename T>
  Params& inout(const std::string& name, T* target) {
    Slot& s = add(name);
    s.value = csp::Message::of<T>(*target);
    s.write = &write_through<T>;
    s.target = target;
    return *this;
  }

  // ---- Used by the role body (via RoleContext) ----

  template <typename T>
  T get(const std::string& name) const {
    const Slot& s = slot(name);
    SCRIPT_ASSERT(!s.value.empty(), "parameter " + name + " has no value");
    return s.value.as<T>();
  }

  template <typename T>
  void set(const std::string& name, T value) {
    Slot& s = slot(name);
    s.value = csp::Message::of<T>(std::move(value));  // keep readable
    if (s.write != nullptr) s.write(s.target, s.value);
  }

  bool has(const std::string& name) const { return find(name) != nullptr; }

  // ---- Role takeover support (FailurePolicy::Replace) ----

  /// Null every out-writer. A crashed enroller's writers point into its
  /// unwound stack frame; the stored copy of its parameters keeps the
  /// VALUES for the replacement but must never write back.
  void drop_writers() {
    for (Slot& s : slots()) s.write = nullptr;
  }

  /// Copy from `donor` every slot this Params lacks. A replacement
  /// enrollment inherits the crashed incarnation's data parameters
  /// (current values included — set_param updates the stored copy) while
  /// its own slots, writers included, take precedence.
  void adopt_missing(const Params& donor) {
    for (const Slot& s : donor.slots())
      if (find(s.name) == nullptr) add(s.name) = s;
  }

 private:
  using Writer = void (*)(void* target, const csp::Message& value);

  struct Slot {
    std::string name;
    csp::Message value;
    Writer write = nullptr;  // out / in-out: copies `value` to *target
    void* target = nullptr;
  };

  template <typename T>
  static void write_through(void* target, const csp::Message& value) {
    *static_cast<T*>(target) = value.as<T>();
  }

  std::span<Slot> slots() {
    return spill_.empty() ? std::span<Slot>(inline_, size_)
                          : std::span<Slot>(spill_);
  }
  std::span<const Slot> slots() const {
    return spill_.empty() ? std::span<const Slot>(inline_, size_)
                          : std::span<const Slot>(spill_);
  }

  const Slot* find(const std::string& name) const {
    for (const Slot& s : slots())
      if (s.name == name) return &s;
    return nullptr;
  }
  Slot& slot(const std::string& name) {
    const Slot* s = find(name);
    SCRIPT_ASSERT(s != nullptr, "unknown parameter " + name);
    return *const_cast<Slot*>(s);
  }
  const Slot& slot(const std::string& name) const {
    const Slot* s = find(name);
    SCRIPT_ASSERT(s != nullptr, "unknown parameter " + name);
    return *s;
  }

  /// Append an empty slot named `name`.
  Slot& add(const std::string& name) {
    SCRIPT_ASSERT(find(name) == nullptr, "duplicate parameter " + name);
    if (spill_.empty() && size_ < kInline) {
      Slot& s = inline_[size_++];
      s.name = name;
      return s;
    }
    if (spill_.empty()) {  // first spill: the inline slots move out too
      spill_.reserve(kInline * 2);
      for (std::size_t i = 0; i < size_; ++i)
        spill_.push_back(std::move(inline_[i]));
      clear_inline();
    }
    spill_.emplace_back().name = name;
    return spill_.back();
  }

  void clear_inline() {
    for (std::size_t i = 0; i < size_; ++i) inline_[i] = Slot{};
    size_ = 0;
  }
  void clear() {
    clear_inline();
    spill_.clear();
  }
  void copy_from(const Params& o) {
    for (std::size_t i = 0; i < o.size_; ++i) inline_[i] = o.inline_[i];
    size_ = o.size_;
    spill_ = o.spill_;
  }
  void move_from(Params& o) noexcept {
    for (std::size_t i = 0; i < o.size_; ++i)
      inline_[i] = std::move(o.inline_[i]);
    size_ = o.size_;
    spill_ = std::move(o.spill_);
    o.clear();
  }

  Slot inline_[kInline];
  std::size_t size_ = 0;  // inline slots in use (0 once spilled)
  std::vector<Slot> spill_;
};

}  // namespace script::core
