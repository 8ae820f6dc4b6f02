#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace hermes::sim {

/// Handle into a SlotArena: 22 bits of slot index, 10 bits of slot
/// generation, so it travels through the fabric as one 32-bit word
/// instead of the ~112-byte payload it names. The generation field makes
/// use-after-free detectable: freeing a slot bumps its generation, so a
/// stale handle stops validating (until the 10-bit counter wraps, i.e.
/// after 1024 reuses of the same slot — good enough to catch every
/// realistic lifetime bug in tests and debug builds).
///
/// The handle type is shared by every SlotArena instantiation; it does
/// not pin which arena it came from. Like EventQueue::Handle, a handle
/// must not outlive its arena.
class ArenaHandle {
 public:
  static constexpr std::uint32_t kSlotBits = 22;
  static constexpr std::uint32_t kGenBits = 10;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;
  static constexpr std::uint32_t kGenMask = (1u << kGenBits) - 1;
  static constexpr std::uint32_t kNullBits = 0xFFFFFFFFu;

  constexpr ArenaHandle() = default;
  constexpr ArenaHandle(std::uint32_t slot, std::uint32_t gen)
      : bits_{(slot << kGenBits) | (gen & kGenMask)} {}

  [[nodiscard]] constexpr std::uint32_t slot() const { return bits_ >> kGenBits; }
  [[nodiscard]] constexpr std::uint32_t gen() const { return bits_ & kGenMask; }
  [[nodiscard]] constexpr std::uint32_t bits() const { return bits_; }
  [[nodiscard]] constexpr explicit operator bool() const { return bits_ != kNullBits; }
  friend constexpr bool operator==(ArenaHandle a, ArenaHandle b) { return a.bits_ == b.bits_; }

 private:
  std::uint32_t bits_ = kNullBits;
};

/// A pooled object arena with generation-counted slots — the timer-slot
/// pool from the event queue, generalized. alloc() hands out a slot (LIFO
/// free-list, so slot assignment is deterministic for a deterministic
/// call sequence); free() recycles it and invalidates outstanding
/// handles via the generation counter.
///
/// Storage is chunked (kChunkSlots objects per chunk) so growth never
/// relocates live objects: a `T&` obtained from operator[] stays valid
/// across alloc() calls, which the packet pipeline relies on (a switch
/// holds a reference across the egress-port enqueue). Steady state is
/// allocation-free: once the high-water mark is reached, alloc/free is a
/// vector pop/push and a generation bump.
///
/// A chunk holds about 32 KB (a power-of-two slot count, at least one):
/// 256 packets, or 64 of the event queue's 392-byte blocks. Every slot
/// is constructed when its chunk is, so a chunk sized in slots alone
/// would have a small run construct (and fault in) hundreds of kilobytes
/// of blocks it never uses.
///
/// Under ASan a free slot is poisoned (from chunk growth until alloc(),
/// and again from free()), so a `T&` kept past free() reports
/// use-after-poison at its first use, where the generation check only
/// sees handles.
template <typename T>
class SlotArena {
 public:
  using Handle = ArenaHandle;
  static constexpr std::uint32_t kChunkShift =
      static_cast<std::uint32_t>(std::bit_width(std::max<std::size_t>(1, 32768 / sizeof(T)))) - 1;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSlots - 1;

  SlotArena() = default;
  SlotArena(const SlotArena&) = delete;
  SlotArena& operator=(const SlotArena&) = delete;
#if defined(__SANITIZE_ADDRESS__)
  // Destroying a chunk runs every slot's destructor, free slots included.
  ~SlotArena() {
    for (const auto& c : chunks_) ASAN_UNPOISON_MEMORY_REGION(c.get(), sizeof(Chunk));
  }
#endif

  /// Take a slot and move `v` into it. Grows by one chunk when the
  /// free-list is empty; otherwise allocation-free.
  [[nodiscard]] Handle alloc(T&& v) {
    const Handle h = alloc();
    slot_ref(h.slot()) = std::move(v);
    return h;
  }

  /// Take a slot without assigning it: it holds whatever its last user
  /// left there (a value-initialized T on first use). For pooled storage
  /// whose user overwrites the parts it reads, such as the event queue's
  /// blocks, where moving a whole T in would be wasted work.
  [[nodiscard]] Handle alloc() {
    if (free_.empty()) grow();
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    ++live_;
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(&slot_ref(slot), sizeof(T));
#endif
    return Handle{slot, gens_[slot]};
  }

  /// Release a slot. The generation bump invalidates every outstanding
  /// handle to it; the slot goes to the back of the LIFO free-list.
  void free(Handle h) {
    assert(valid(h) && "freeing a stale or foreign arena handle");
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(&slot_ref(h.slot()), sizeof(T));
#endif
    gens_[h.slot()] = (gens_[h.slot()] + 1) & Handle::kGenMask;
    free_.push_back(h.slot());
    --live_;
  }

  /// True when `h` names a live slot of this arena (modulo generation
  /// wrap-around, see ArenaHandle).
  [[nodiscard]] bool valid(Handle h) const {
    return static_cast<bool>(h) && h.slot() < size_ && gens_[h.slot()] == h.gen();
  }

  /// Unchecked access (hot path). Debug builds assert validity.
  [[nodiscard]] T& operator[](Handle h) {
    assert(valid(h) && "dereferencing a stale arena handle");
    return slot_ref(h.slot());
  }
  [[nodiscard]] const T& operator[](Handle h) const {
    assert(valid(h) && "dereferencing a stale arena handle");
    return chunks_[h.slot() >> kChunkShift]->slots[h.slot() & kChunkMask];
  }

  /// Checked access for tests/diagnostics: null on a stale handle.
  [[nodiscard]] T* get(Handle h) { return valid(h) ? &slot_ref(h.slot()) : nullptr; }

  [[nodiscard]] std::size_t live() const { return live_; }
  [[nodiscard]] std::size_t capacity() const { return size_; }

 private:
  struct Chunk {
    T slots[kChunkSlots];
  };

  [[nodiscard]] T& slot_ref(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift]->slots[slot & kChunkMask];
  }

  void grow() {
    assert(size_ + kChunkSlots <= Handle::kMaxSlots && "SlotArena exhausted its 22-bit slot space");
    chunks_.push_back(std::make_unique<Chunk>());
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(chunks_.back().get(), sizeof(Chunk));
#endif
    gens_.resize(size_ + kChunkSlots, 0);
    free_.reserve(size_ + kChunkSlots);
    // Push descending so the LIFO hands out ascending slot numbers —
    // purely cosmetic (nicer traces), determinism holds either way.
    for (std::uint32_t s = size_ + kChunkSlots; s > size_;) free_.push_back(--s);
    size_ += kChunkSlots;
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint16_t> gens_;
  std::vector<std::uint32_t> free_;
  std::uint32_t size_ = 0;
  std::size_t live_ = 0;
};

}  // namespace hermes::sim
