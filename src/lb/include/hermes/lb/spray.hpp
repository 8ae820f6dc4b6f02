#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hermes/lb/load_balancer.hpp"
#include "hermes/net/fabric.hpp"

namespace hermes::lb {

/// Congestion-oblivious spraying at a fixed granularity, covering:
///   * DRB   — per-packet round robin, equal weights;
///   * Presto — per-flowcell (64KB) round robin;
///   * Presto* (the paper's variant) — per-packet round robin, with static
///     topology-dependent weights under asymmetry (§5.2) and a receiver
///     reordering buffer (configured in the transport, not here).
///
/// Weighted mode allocates `weight` consecutive units to each path, which
/// is exactly the behaviour that produces the congestion-mismatch effect
/// of §2.2.2 Example 3.
struct SprayConfig {
  std::uint32_t cell_bytes = 0;  ///< 0 = per packet, else flowcell size
  bool weighted = false;         ///< weights proportional to path capacity
};

class SprayLb final : public LoadBalancer {
 public:
  SprayLb(net::Fabric& topo, SprayConfig config, std::string_view name)
      : topo_{topo}, config_{config}, name_{name} {
    state_.reserve(kExpectedConcurrentFlows);  // avoid rehashing mid-run
  }

  int select_path(FlowCtx& flow, const net::Packet& pkt) override {
    if (flow.intra_rack()) return -1;
    State& st = state_[flow.flow_id];
    const auto& paths = topo_.paths_between_leaves(flow.src_leaf, flow.dst_leaf);
    if (st.weights.empty()) init_state(st, paths, flow.flow_id);

    if (st.remaining_units == 0) {
      st.idx = (st.idx + 1) % paths.size();
      st.remaining_units = st.weights[st.idx];
      st.cell_fill = 0;
    }
    if (config_.cell_bytes == 0) {
      --st.remaining_units;  // one packet per unit
    } else {
      st.cell_fill += pkt.payload;
      if (st.cell_fill >= config_.cell_bytes) {
        st.cell_fill = 0;
        --st.remaining_units;
      }
    }
    return paths[st.idx].id;
  }

  void on_flow_complete(FlowCtx& flow) override { state_.erase(flow.flow_id); }

  [[nodiscard]] std::string_view name() const override { return name_; }

 private:
  struct State {
    std::vector<std::uint32_t> weights;
    std::size_t idx = 0;
    std::uint32_t remaining_units = 0;
    std::uint32_t cell_fill = 0;
  };

  void init_state(State& st, std::span<const net::FabricPath> paths, std::uint64_t flow_id) {
    double min_cap = paths[0].capacity_bps;
    for (const auto& p : paths) min_cap = std::min(min_cap, p.capacity_bps);
    st.weights.reserve(paths.size());
    for (const auto& p : paths) {
      const double w = config_.weighted ? p.capacity_bps / min_cap : 1.0;
      st.weights.push_back(static_cast<std::uint32_t>(w + 0.5));
    }
    // Start at a hashed offset so concurrent flows do not synchronize on
    // path 0 (round-robin phase desynchronization, as Presto shuffles).
    st.idx = mix64(flow_id) % paths.size();
    st.remaining_units = st.weights[st.idx];
  }

  net::Fabric& topo_;
  SprayConfig config_;
  std::string_view name_;
  std::unordered_map<std::uint64_t, State> state_;
};

/// Factory helpers for the named schemes.
[[nodiscard]] inline SprayLb make_drb(net::Fabric& topo) {
  return SprayLb{topo, SprayConfig{.cell_bytes = 0, .weighted = false}, "drb"};
}
[[nodiscard]] inline SprayLb make_presto_star(net::Fabric& topo, bool weighted) {
  return SprayLb{topo, SprayConfig{.cell_bytes = 0, .weighted = weighted}, "presto*"};
}
[[nodiscard]] inline SprayLb make_presto_flowcell(net::Fabric& topo) {
  return SprayLb{topo, SprayConfig{.cell_bytes = 64 * 1024, .weighted = false}, "presto"};
}

}  // namespace hermes::lb
