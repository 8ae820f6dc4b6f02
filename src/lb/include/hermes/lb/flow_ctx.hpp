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
  int current_path = -1;           ///< fabric path of the last transmission
  sim::SimTime last_send{};        ///< time of the last transmission
  bool has_sent = false;           ///< false until the first packet
  bool timeout_pending = false;    ///< set on RTO, cleared once acted upon

  /// Time of the last congestion-triggered reroute (Hermes cooldown).
  sim::SimTime last_reroute{};
  bool has_rerouted = false;

  engine::Dre rate_dre{engine::usec(100), 0.2};  ///< flow sending rate r_f

  [[nodiscard]] bool intra_rack() const { return src_leaf == dst_leaf; }
  [[nodiscard]] double rate_bps(sim::SimTime now) const { return rate_dre.rate_bps(now.ns()); }
};

using engine::mix64;

}  // namespace hermes::lb
