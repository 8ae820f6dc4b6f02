#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "hermes/lb/load_balancer.hpp"
#include "hermes/net/fabric.hpp"

namespace hermes::lb {

/// WCMP: weighted ECMP. Like ECMP, every flow is hashed onto one path
/// for its lifetime, but the hash space is weighted by path capacity so
/// that a 2G path receives a fifth of the flows a 10G path gets. The
/// standard operator response to *known, static* asymmetry — still
/// oblivious to congestion and failures (it is a useful control:
/// how much of the asymmetric-fabric gap is just static weighting?).
class WcmpLb final : public LoadBalancer {
 public:
  explicit WcmpLb(net::Fabric& topo, std::uint64_t salt = 0) : topo_{topo}, salt_{salt} {}

  int select_path(FlowCtx& flow, const net::Packet&) override {
    if (flow.intra_rack()) return -1;
    const auto& paths = topo_.paths_between_leaves(flow.src_leaf, flow.dst_leaf);
    double total = 0;
    for (const auto& p : paths) total += p.capacity_bps;
    // Map the hash uniformly onto [0, total) and walk the capacities.
    const double x = static_cast<double>(mix64(flow.flow_id ^ salt_) % (1ULL << 53)) /
                     static_cast<double>(1ULL << 53) * total;
    double acc = 0;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      acc += paths[i].capacity_bps;
      if (x < acc) return static_cast<int>(i);
    }
    return static_cast<int>(paths.size()) - 1;
  }

  [[nodiscard]] std::string_view name() const override { return "wcmp"; }

 private:
  net::Fabric& topo_;
  std::uint64_t salt_;
};

}  // namespace hermes::lb
