#pragma once

#include <string_view>

#include "hermes/lb/load_balancer.hpp"
#include "hermes/net/fabric.hpp"
#include "hermes/engine/rng.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::lb {

/// LetFlow (Vanini et al., NSDI'17): flowlet switching with *random* path
/// choice. A new flowlet starts whenever the flow has been idle longer
/// than the flowlet timeout; flowlet sizes then adapt implicitly to path
/// quality. Congestion-oblivious but failure-tolerant "by accident":
/// drops create gaps, gaps create flowlets, flowlets sometimes escape.
struct LetFlowConfig {
  sim::SimTime flowlet_timeout = sim::usec(150);
};

class LetFlowLb final : public LoadBalancer {
 public:
  LetFlowLb(sim::Simulator& simulator, net::Fabric& topo, LetFlowConfig config = {})
      : simulator_{simulator},
        topo_{topo},
        config_{config},
        rng_{simulator.rng_seed(0x1E7F10F)} {}

  int select_path(FlowCtx& flow, const net::Packet&) override {
    if (flow.intra_rack()) return -1;
    const sim::SimTime now = simulator_.now();
    const bool new_flowlet =
        !flow.has_sent || (now - flow.last_send) > config_.flowlet_timeout;
    if (new_flowlet || flow.current_path < 0) {
      const auto& paths = topo_.paths_between_leaves(flow.src_leaf, flow.dst_leaf);
      return static_cast<int>(rng_.next(paths.size()));
    }
    return flow.current_path;
  }

  [[nodiscard]] std::string_view name() const override { return "letflow"; }

 private:
  sim::Simulator& simulator_;
  net::Fabric& topo_;
  LetFlowConfig config_;
  engine::Rng rng_;
};

}  // namespace hermes::lb
