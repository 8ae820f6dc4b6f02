#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hermes/net/packet_arena.hpp"

namespace hermes::net {

/// Index-based FIFO ring over structure-of-arrays storage: parallel
/// power-of-two arrays of packet handles and wire sizes, addressed by
/// monotonically increasing head/tail counters masked into the arrays.
/// This replaces the `std::deque<Packet>` port queues, whose 512-byte
/// chunks alloc/freed once every ~4 packets as the queue oscillated
/// across a chunk boundary — the dominant allocation source of the old
/// pipeline (~2 allocs/packet measured). A ring grows by doubling, then
/// never allocates again: steady state is a masked store per push.
class PacketRing {
 public:
  [[nodiscard]] bool empty() const { return head_ == tail_; }
  [[nodiscard]] std::size_t size() const { return tail_ - head_; }
  [[nodiscard]] std::size_t capacity() const { return handles_.size(); }

  void push(PacketHandle h, std::uint32_t bytes) {
    if (tail_ - head_ == handles_.size()) [[unlikely]] grow();
    const std::size_t i = tail_ & mask_;
    handles_[i] = h;
    bytes_[i] = bytes;
    ++tail_;
  }

  [[nodiscard]] PacketHandle front_handle() const {
    assert(!empty());
    return handles_[head_ & mask_];
  }
  [[nodiscard]] std::uint32_t front_bytes() const {
    assert(!empty());
    return bytes_[head_ & mask_];
  }
  void pop() {
    assert(!empty());
    ++head_;
  }

 private:
  void grow() {
    const std::size_t old_cap = handles_.size();
    const std::size_t new_cap = old_cap == 0 ? kInitialCapacity : old_cap * 2;
    std::vector<PacketHandle> nh(new_cap);
    std::vector<std::uint32_t> nb(new_cap);
    // Re-linearize FIFO order starting at index 0.
    for (std::size_t i = 0; i < tail_ - head_; ++i) {
      nh[i] = handles_[(head_ + i) & mask_];
      nb[i] = bytes_[(head_ + i) & mask_];
    }
    tail_ -= head_;
    head_ = 0;
    handles_.swap(nh);
    bytes_.swap(nb);
    mask_ = new_cap - 1;
  }

  static constexpr std::size_t kInitialCapacity = 32;

  std::vector<PacketHandle> handles_;
  std::vector<std::uint32_t> bytes_;
  std::size_t mask_ = static_cast<std::size_t>(-1);  ///< cap-1; all-ones when empty
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

}  // namespace hermes::net
