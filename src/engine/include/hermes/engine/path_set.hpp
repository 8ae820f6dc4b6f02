#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hermes/engine/path_state.hpp"
#include "hermes/engine/time.hpp"

namespace hermes::engine {

/// The engine's view of one ordered locality pair: the sensing state of
/// each path and the probing "memory" index.
///
/// A pair starts compact: one 16-byte Sensing slot per path plus a bit
/// per path saying whether it has a sample, which is all a probe reply or
/// an ACK writes. An embedder may probe pairs that never send (the
/// simulator probes every pair of a leaf-spine), but only pairs that send
/// need a rate, a retransmission epoch or a failure latch, so the engine
/// promotes a pair the first time anything reads or writes sending state:
/// promote() gives each path a full PathState carrying its slot over, and
/// a path that never sent reads exactly as a fresh PathState would.
class PathSet {
 public:
  [[nodiscard]] std::size_t size() const { return promoted_ ? full_.size() : compact_.size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Does every path hold a full PathState (has promote() run)?
  [[nodiscard]] bool promoted() const { return promoted_; }
  /// Path i's full state; the pair must be promoted.
  [[nodiscard]] PathState& state(std::size_t i) {
    assert(promoted_ && "sending state of a pair that was never promoted");
    return full_[i];
  }
  [[nodiscard]] const PathState& state(std::size_t i) const {
    assert(promoted_ && "sending state of a pair that was never promoted");
    return full_[i];
  }
  /// Path i's RTT/ECN estimate and whether it has a sample, in either form.
  [[nodiscard]] const Sensing& sensing(std::size_t i) const {
    return promoted_ ? full_[i].sensing() : compact_[i];
  }
  [[nodiscard]] bool has_sample(std::size_t i) const {
    return promoted_ ? full_[i].has_sample() : compact_sampled(i);
  }
  /// Feed path i one RTT + ECN observation, in either form.
  void add_sample(std::size_t i, TimeNs rtt, bool ecn_marked) {
    if (promoted_) {
      full_[i].add_sample(rtt, ecn_marked);
      return;
    }
    compact_[i].add_sample(rtt, ecn_marked, !compact_sampled(i));
    sampled_[i / 64] |= std::uint64_t{1} << (i % 64);
  }

  /// Grow-only resize; allocates, so callers invoke it outside
  /// HERMES_HOT regions (the adapter syncs sizes before decide()).
  void ensure(std::size_t n) {
    if (size() >= n) return;
    if (!promoted_) {
      compact_.resize(n);
      sampled_.resize((n + 63) / 64);
      return;
    }
    full_.resize(n);
  }

  /// Move to the full form: each path's PathState takes its Sensing slot
  /// and sampled bit, and the compact storage is freed. A no-op once
  /// promoted. Allocates, so it runs once per pair, on the first call
  /// that needs sending state, never in the steady state.
  void promote() {
    if (promoted_) return;
    full_.reserve(compact_.size());
    for (std::size_t i = 0; i < compact_.size(); ++i) {
      full_.emplace_back(compact_[i], compact_sampled(i));
    }
    std::vector<Sensing>().swap(compact_);
    std::vector<std::uint64_t>().swap(sampled_);
    promoted_ = true;
  }

  int best_idx = -1;  ///< previously observed best path (probed extra)

 private:
  [[nodiscard]] bool compact_sampled(std::size_t i) const {
    return ((sampled_[i / 64] >> (i % 64)) & 1U) != 0;
  }

  bool promoted_ = false;               ///< packs beside best_idx
  std::vector<Sensing> compact_;        ///< compact form: one slot per path
  std::vector<std::uint64_t> sampled_;  ///< compact form: bit i = path i has a sample
  std::vector<PathState> full_;         ///< full form, once promoted
};

}  // namespace hermes::engine
