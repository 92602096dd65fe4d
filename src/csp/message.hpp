// Type-erased message payload for CSP-style rendezvous.
//
// A CSP communication matches on (sender, receiver, tag, payload type);
// the payload type is part of the pattern, as in CSP's typed channels.
// Payloads of up to kInlineBytes live inside the Message itself, so the
// common small values (ints, ids, short structs) cross a rendezvous
// without touching the heap; larger or throwing-move types are boxed.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <typeindex>
#include <typeinfo>
#include <utility>

#include "support/panic.hpp"

namespace script::csp {

class Message {
 public:
  static constexpr std::size_t kInlineBytes = 32;

  Message() = default;
  Message(const Message& o) : ops_(o.ops_) {
    if (ops_ != nullptr) ops_->copy(buf_, o.buf_);
  }
  Message(Message&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->move(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }
  Message& operator=(const Message& o) {
    if (this != &o) {
      Message tmp(o);
      *this = std::move(tmp);
    }
    return *this;
  }
  Message& operator=(Message&& o) noexcept {
    if (this != &o) {
      reset();
      if (o.ops_ != nullptr) {
        o.ops_->move(buf_, o.buf_);
        ops_ = o.ops_;
        o.ops_ = nullptr;
      }
    }
    return *this;
  }
  ~Message() { reset(); }

  template <typename T>
  static Message of(T value) {
    Message m;
    if constexpr (fits_inline<T>())
      ::new (static_cast<void*>(m.buf_)) T(std::move(value));
    else
      ::new (static_cast<void*>(m.buf_)) T*(new T(std::move(value)));
    m.ops_ = &kOps<T>;
    return m;
  }

  template <typename T>
  T as() const {
    SCRIPT_ASSERT(type() == std::type_index(typeid(T)),
                  "Message payload type mismatch");
    return *object<T>(buf_);
  }

  std::type_index type() const {
    return ops_ != nullptr ? std::type_index(*ops_->type)
                           : std::type_index(typeid(void));
  }
  bool empty() const { return ops_ == nullptr; }

 private:
  struct Ops {
    const std::type_info* type;
    void (*copy)(unsigned char* dst, const unsigned char* src);
    // Move-constructs into `dst` and destroys what is left in `src`.
    void (*move)(unsigned char* dst, unsigned char* src) noexcept;
    void (*destroy)(unsigned char* buf) noexcept;
  };

  template <typename T>
  static constexpr bool fits_inline() {
    return sizeof(T) <= kInlineBytes &&
           alignof(T) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<T>;
  }

  template <typename T>
  static T* object(unsigned char* buf) {
    if constexpr (fits_inline<T>())
      return std::launder(reinterpret_cast<T*>(buf));
    else
      return *std::launder(reinterpret_cast<T**>(buf));
  }
  template <typename T>
  static const T* object(const unsigned char* buf) {
    return object<T>(const_cast<unsigned char*>(buf));
  }

  template <typename T>
  static constexpr Ops kOps = {
      &typeid(T),
      [](unsigned char* dst, const unsigned char* src) {
        if constexpr (fits_inline<T>())
          ::new (static_cast<void*>(dst)) T(*object<T>(src));
        else
          ::new (static_cast<void*>(dst)) T*(new T(*object<T>(src)));
      },
      [](unsigned char* dst, unsigned char* src) noexcept {
        if constexpr (fits_inline<T>()) {
          T* from = object<T>(src);
          ::new (static_cast<void*>(dst)) T(std::move(*from));
          from->~T();
        } else {
          ::new (static_cast<void*>(dst)) T*(object<T>(src));
        }
      },
      [](unsigned char* buf) noexcept {
        if constexpr (fits_inline<T>())
          object<T>(buf)->~T();
        else
          delete object<T>(buf);
      },
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace script::csp
