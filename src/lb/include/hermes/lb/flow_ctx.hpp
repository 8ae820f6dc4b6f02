#pragma once

#include <cstdint>

#include "hermes/engine/rate.hpp"
#include "hermes/engine/rng.hpp"
#include "hermes/sim/time.hpp"

namespace hermes::lb {

/// Per-flow state shared between the transport and the load balancer.
/// The transport owns it; every scheme reads/updates the fields it needs
/// (flowlet gap, current path, sent bytes, rate estimate, timeout flag).
struct FlowCtx {
  std::uint64_t flow_id = 0;
  std::int32_t src = -1;
  std::int32_t dst = -1;
  int src_leaf = -1;
  int dst_leaf = -1;

  std::uint64_t bytes_sent = 0;    ///< cumulative payload handed to the wire
  /// The last transmission's path: its index in
  /// paths_between_leaves(src_leaf, dst_leaf), -1 before the first.
  int current_path = -1;
  sim::SimTime last_send{};        ///< time of the last transmission
  bool has_sent = false;           ///< false until the first packet
  bool timeout_pending = false;    ///< set on RTO, cleared once acted upon

  /// Time of the last congestion-triggered reroute (Hermes cooldown).
  sim::SimTime last_reroute{};
  bool has_rerouted = false;
  /// Set while Hermes counts the flow live on its rack pair, from the
  /// first select_path it answers to on_flow_complete.
  bool counted_live = false;

  engine::Dre<engine::kRateDre> rate_dre;  ///< flow sending rate r_f

  [[nodiscard]] bool intra_rack() const { return src_leaf == dst_leaf; }
  [[nodiscard]] double rate_bps(sim::SimTime now) const { return rate_dre.rate_bps(now.ns()); }
};

using engine::mix64;

}  // namespace hermes::lb
