#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>

#include "hermes/lb/load_balancer.hpp"
#include "hermes/net/fabric.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::lb {

/// FlowBender (Kabbani et al., CoNEXT'14): end-host, flow-level adaptive
/// rerouting. Each flow hashes onto a path; when the fraction of
/// ECN-marked ACKs within an observation epoch exceeds a threshold (or an
/// RTO fires), the flow perturbs its hash ("bends") and lands on a random
/// new path. Reactive and blind: it knows *that* it is congested, never
/// *where* to go. The paper implemented it on its testbed and found it
/// close to ECMP with default settings (§5.1 remark); we include it for
/// completeness and for the Table 1 taxonomy.
struct FlowBenderConfig {
  double mark_threshold = 0.05;       ///< ECN fraction that triggers a bend
  sim::SimTime epoch = sim::usec(200);  ///< observation window (~1 RTT)
};

class FlowBenderLb final : public LoadBalancer {
 public:
  FlowBenderLb(sim::Simulator& simulator, net::Fabric& topo, FlowBenderConfig config = {})
      : simulator_{simulator}, topo_{topo}, config_{config} {
    state_.reserve(kExpectedConcurrentFlows);  // avoid rehashing mid-run
  }

  int select_path(FlowCtx& flow, const net::Packet&) override {
    if (flow.intra_rack()) return -1;
    const auto& paths = topo_.paths_between_leaves(flow.src_leaf, flow.dst_leaf);
    State& st = state_[flow.flow_id];
    if (flow.timeout_pending) {
      flow.timeout_pending = false;
      ++st.bends;
    }
    return static_cast<int>(mix64(flow.flow_id ^ (0xB5ADULL * st.bends)) % paths.size());
  }

  void on_ack(FlowCtx& flow, const net::Packet& ack) override {
    if (flow.intra_rack()) return;
    State& st = state_[flow.flow_id];
    const sim::SimTime now = simulator_.now();
    ++st.acks;
    if (ack.ece) ++st.marked;
    if (now - st.epoch_start < config_.epoch) return;
    if (st.acks > 0 &&
        static_cast<double>(st.marked) / static_cast<double>(st.acks) > config_.mark_threshold) {
      ++st.bends;  // rehash next packet
    }
    st.acks = 0;
    st.marked = 0;
    st.epoch_start = now;
  }

  // RTO-triggered bending rides the transport-maintained timeout flag,
  // consumed in select_path.

  void on_flow_complete(FlowCtx& flow) override { state_.erase(flow.flow_id); }

  [[nodiscard]] std::string_view name() const override { return "flowbender"; }

  /// Test hook: how many times a flow has bent so far.
  [[nodiscard]] std::uint32_t bends(std::uint64_t flow_id) {
    auto it = state_.find(flow_id);
    return it == state_.end() ? 0 : it->second.bends;
  }

 private:
  struct State {
    std::uint32_t bends = 0;
    std::uint32_t acks = 0;
    std::uint32_t marked = 0;
    sim::SimTime epoch_start{};
  };

  sim::Simulator& simulator_;
  net::Fabric& topo_;
  FlowBenderConfig config_;
  std::unordered_map<std::uint64_t, State> state_;
};

}  // namespace hermes::lb
