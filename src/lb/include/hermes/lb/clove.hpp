#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hermes/lb/load_balancer.hpp"
#include "hermes/net/fabric.hpp"
#include "hermes/engine/rng.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::lb {

/// CLOVE-ECN (Katta et al.): edge-based per-flowlet weighted round robin.
/// Each source virtual switch keeps a weight per path toward each
/// destination leaf; weights shrink multiplicatively when ACKs for a path
/// carry ECN echoes (rate-limited to roughly once per RTT per path so one
/// marked window does not zero a weight), and new flowlets are spread in
/// proportion to the weights. Congestion-aware but with *piggybacked-only*
/// visibility: a path the host is not using gets no fresh information.
struct CloveConfig {
  sim::SimTime flowlet_timeout = sim::usec(150);
  sim::SimTime mark_min_gap = sim::usec(100);  ///< per-path decrease rate limit
};
inline constexpr double kCloveShift = 0.25;      ///< fraction of weight removed per mark event
inline constexpr double kCloveMinWeight = 0.02;  ///< keep probing dying paths

class CloveLb final : public LoadBalancer {
 public:
  CloveLb(sim::Simulator& simulator, net::Fabric& topo, CloveConfig config = {})
      : simulator_{simulator},
        topo_{topo},
        config_{config},
        rng_{simulator.rng_seed(0xC10FE)} {
    // Keyed by (src host, dst leaf): bounded by hosts x leaves, typically
    // a few thousand entries — reserve once, never rehash on the hot path.
    state_.reserve(static_cast<std::size_t>(topo.num_hosts()) *
                   static_cast<std::size_t>(topo.num_leaves()));
  }

  int select_path(FlowCtx& flow, const net::Packet&) override {
    if (flow.intra_rack()) return -1;
    const sim::SimTime now = simulator_.now();
    const bool new_flowlet =
        !flow.has_sent || (now - flow.last_send) > config_.flowlet_timeout;
    if (!new_flowlet && flow.current_path >= 0) return flow.current_path;

    const auto& paths = topo_.paths_between_leaves(flow.src_leaf, flow.dst_leaf);
    State& st = state(flow.src, flow.dst_leaf, paths.size());
    // Weighted random draw over path weights.
    double total = 0;
    for (double w : st.weights) total += w;
    double x = rng_.uniform() * total;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      x -= st.weights[i];
      if (x <= 0) return static_cast<int>(i);
    }
    return static_cast<int>(paths.size()) - 1;
  }

  void on_ack(FlowCtx& flow, const net::Packet& ack) override {
    // The ACK carries the path of the data packet it acknowledges, so the
    // signal is attributed correctly even right after a reroute.
    if (!ack.ece || flow.intra_rack() || ack.path_id < 0) return;
    const auto& paths = topo_.paths_between_leaves(flow.src_leaf, flow.dst_leaf);
    State& st = state(flow.src, flow.dst_leaf, paths.size());
    const int i = ack.path_id;
    const sim::SimTime now = simulator_.now();
    if (now - st.last_decrease[i] < config_.mark_min_gap) return;
    st.last_decrease[i] = now;
    // Move weight off the congested path, spread evenly over the others.
    const double moved = st.weights[i] * kCloveShift;
    const double keep = std::max(st.weights[i] - moved, kCloveMinWeight);
    const double actually_moved = st.weights[i] - keep;
    st.weights[i] = keep;
    if (paths.size() > 1) {
      const double share = actually_moved / static_cast<double>(paths.size() - 1);
      for (std::size_t j = 0; j < paths.size(); ++j)
        if (j != static_cast<std::size_t>(i)) st.weights[j] += share;
    }
  }

  [[nodiscard]] std::string_view name() const override { return "clove-ecn"; }

  /// Test hook: current weights for a (source host, destination leaf) pair.
  [[nodiscard]] std::vector<double> weights(int src_host, int dst_leaf) {
    const int src_leaf = topo_.leaf_of(src_host);
    const auto& paths = topo_.paths_between_leaves(src_leaf, dst_leaf);
    return state(src_host, dst_leaf, paths.size()).weights;
  }

 private:
  struct State {
    std::vector<double> weights;
    std::vector<sim::SimTime> last_decrease;
  };

  State& state(int src_host, int dst_leaf, std::size_t num_paths) {
    State& st = state_[(static_cast<std::uint64_t>(src_host) << 16) | static_cast<std::uint32_t>(dst_leaf)];
    if (st.weights.empty()) {
      st.weights.assign(num_paths, 1.0);
      // Negative sentinel: the very first mark (possibly at t=0) must not
      // be swallowed by the rate limiter.
      st.last_decrease.assign(num_paths, sim::SimTime::nanoseconds(-1'000'000'000));
    }
    return st;
  }

  sim::Simulator& simulator_;
  net::Fabric& topo_;
  CloveConfig config_;
  engine::Rng rng_;
  std::unordered_map<std::uint64_t, State> state_;
};

}  // namespace hermes::lb
