#pragma once

#include <cstdint>
#include <vector>

#include "hermes/net/fabric.hpp"
#include "hermes/engine/rng.hpp"
#include "hermes/transport/flow.hpp"
#include "hermes/workload/size_dist.hpp"

namespace hermes::workload {

/// Open-loop traffic generation (§5.1): flows between random senders and
/// receivers under *different* leaf switches arrive as a Poisson process
/// whose rate hits a target fraction of the fabric's bisection capacity:
///
///   lambda = load * bisection_bytes_per_sec / mean_flow_size.
///
/// The full arrival list is materialized up front so every compared
/// scheme sees byte-identical traffic for a given seed.
struct TrafficConfig {
  double load = 0.6;         ///< fraction of bisection capacity
  int num_flows = 1000;      ///< arrivals to generate
  std::uint64_t seed = 1;
  bool inter_rack_only = true;
};

[[nodiscard]] std::vector<transport::FlowSpec> generate_poisson_traffic(
    const net::Fabric& topo, const SizeDist& dist, const TrafficConfig& cfg);

}  // namespace hermes::workload
