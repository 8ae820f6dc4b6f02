#pragma once

#include <cstddef>
#include <vector>

#include "hermes/engine/path_state.hpp"

namespace hermes::engine {

/// The engine's view of one ordered locality pair: one PathState per
/// path and the probing "memory" index. A pair holds no paths until its
/// embedder sizes it (ensure); probe replies, ACKs and decisions then all
/// read and write the same PathStates.
class PathSet {
 public:
  [[nodiscard]] std::size_t size() const { return paths_.size(); }
  [[nodiscard]] bool empty() const { return paths_.empty(); }
  [[nodiscard]] PathState& state(std::size_t i) { return paths_[i]; }
  [[nodiscard]] const PathState& state(std::size_t i) const { return paths_[i]; }

  /// Grow-only resize; allocates, so callers invoke it outside
  /// HERMES_HOT regions (the adapter syncs sizes before decide()).
  void ensure(std::size_t n) {
    if (paths_.size() < n) paths_.resize(n);
  }

  int best_idx = -1;  ///< previously observed best path (probed extra)

 private:
  std::vector<PathState> paths_;
};
static_assert(sizeof(PathSet) <= 32, "every ordered pair of an engine's rows holds one");

}  // namespace hermes::engine
