#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace hermes::sim {

/// A move-only callable wrapper with *fixed* inline storage and no heap
/// fallback: constructing it from a callable larger than `Capacity` (or
/// over-aligned beyond `alignof(std::max_align_t)`) is a compile error,
/// never a silent allocation. Port and host hooks, and the event queue's
/// closure-form events, hold their callables in it, so none of them
/// allocates — a `std::function` would heap-allocate for any capture
/// past its small-buffer optimization (typically 16 bytes).
///
/// The per-callable dispatch table carries invoke / relocate / destroy.
/// Trivially copyable captures publish null relocate/destroy entries, so
/// moving an InlineCallable is an inline memcpy of the storage with no
/// indirect call. Non-trivial captures relocate through their move
/// constructor. Event records do not hold one: the queue keeps a
/// closure in a pooled slot that never moves, and its record names the
/// slot.
///
/// `Sig` is a function signature (`void()`, `void(const Packet&)`, ...).
/// The nullary case keeps its historical name via the InlineFunction
/// alias below.
template <std::size_t Capacity, typename Sig = void()>
class InlineCallable;  // primary template: only the R(Args...) form exists

template <std::size_t Capacity, typename R, typename... Args>
class InlineCallable<Capacity, R(Args...)> {
 public:
  static constexpr std::size_t capacity() { return Capacity; }

  InlineCallable() = default;
  InlineCallable(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineCallable> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineCallable(F&& f) {  // NOLINT(google-explicit-constructor)
    static_assert(sizeof(D) <= Capacity,
                  "callable capture exceeds the InlineCallable capacity; shrink the "
                  "capture (or raise the capacity at the declaration site)");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "callable is over-aligned for InlineCallable storage");
    // Relocation (and therefore InlineCallable's move) is declared
    // noexcept: a capture whose move constructor actually throws would
    // terminate. Captures are value aggregates in practice; keeping the
    // move noexcept is what lets vector growth in the scheduler relocate
    // events instead of copying them.
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    ops_ = &kOps<D>;
  }

  InlineCallable(InlineCallable&& o) noexcept : ops_{o.ops_} {
    if (ops_) {
      relocate_from(o);
      o.ops_ = nullptr;
    }
  }

  InlineCallable& operator=(InlineCallable&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_) {
        relocate_from(o);
        o.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineCallable(const InlineCallable&) = delete;
  InlineCallable& operator=(const InlineCallable&) = delete;

  ~InlineCallable() { reset(); }

  void reset() {
    if (ops_) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) { return ops_->invoke(buf_, std::forward<Args>(args)...); }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* dst, void* src);  ///< move-construct dst, destroy src
    void (*destroy)(void*);
  };

  // Trivially-copyable, trivially-destructible captures take the
  // memcpy/no-op fast paths (null table entries) instead of indirect
  // calls; see relocate_from() and reset().
  template <typename D>
  static constexpr bool kTrivial =
      std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>;

  template <typename D>
  static constexpr Ops kOps{
      [](void* p, Args&&... args) -> R {
        return (*static_cast<D*>(p))(std::forward<Args>(args)...);
      },
      kTrivial<D> ? nullptr
                  : +[](void* dst, void* src) {
                      D* s = static_cast<D*>(src);
                      ::new (dst) D(std::move(*s));
                      s->~D();
                    },
      kTrivial<D> ? nullptr : +[](void* p) { static_cast<D*>(p)->~D(); },
  };

  void relocate_from(InlineCallable& o) {
    if (ops_->relocate == nullptr) {
      std::memcpy(buf_, o.buf_, Capacity);
    } else {
      ops_->relocate(buf_, o.buf_);
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[Capacity];
};

/// The nullary event-callback form used by the event queue.
template <std::size_t Capacity>
using InlineFunction = InlineCallable<Capacity, void()>;

}  // namespace hermes::sim
