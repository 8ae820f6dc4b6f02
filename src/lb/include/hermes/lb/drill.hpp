#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "hermes/lb/load_balancer.hpp"
#include "hermes/net/topology.hpp"
#include "hermes/engine/rng.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::lb {

/// DRILL (Ghorbani et al.): switch-local per-packet micro load balancing.
/// For every packet the source leaf samples `d` random output queues plus
/// the queue it remembered as best, and forwards to the shortest one
/// (power-of-d-choices with memory, applied to queue occupancy).
/// Local-only and congestion-mismatch-prone under asymmetry (§7), but
/// excellent at absorbing microbursts on symmetric fabrics. Not part of
/// the paper's headline evaluation; included to complete Table 1.
struct DrillConfig {
  int samples = 2;  ///< d random queues examined per packet
};

class DrillLb final : public LoadBalancer {
 public:
  DrillLb(sim::Simulator& simulator, net::Topology& topo, DrillConfig config = {})
      : topo_{topo},
        config_{config},
        rng_{simulator.rng_seed(0xD811)},
        best_(static_cast<std::size_t>(topo.config().num_leaves) * topo.config().num_leaves, 0) {}

  int select_path(FlowCtx& flow, const net::Packet&) override {
    if (flow.intra_rack()) return -1;
    const auto& paths = topo_.paths_between_leaves(flow.src_leaf, flow.dst_leaf);
    auto& remembered = best_[static_cast<std::size_t>(flow.src_leaf) *
                                 topo_.config().num_leaves +
                             flow.dst_leaf];
    if (remembered >= paths.size()) remembered = 0;

    std::size_t best = remembered;
    std::uint32_t best_backlog = uplink_backlog(flow.src_leaf, paths[best]);
    for (int k = 0; k < config_.samples; ++k) {
      const std::size_t i = rng_.next(paths.size());
      const std::uint32_t b = uplink_backlog(flow.src_leaf, paths[i]);
      if (b < best_backlog) {
        best_backlog = b;
        best = i;
      }
    }
    remembered = best;
    return static_cast<int>(best);
  }

  [[nodiscard]] std::string_view name() const override { return "drill"; }

 private:
  [[nodiscard]] std::uint32_t uplink_backlog(int src_leaf, const net::FabricPath& p) {
    return topo_.leaf_uplink(src_leaf, p.spine, p.link_idx).backlog_bytes();
  }

  net::Topology& topo_;
  DrillConfig config_;
  engine::Rng rng_;
  std::vector<std::size_t> best_;
};

}  // namespace hermes::lb
