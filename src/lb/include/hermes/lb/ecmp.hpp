#pragma once

#include <cstdint>
#include <string_view>

#include "hermes/lb/load_balancer.hpp"
#include "hermes/net/fabric.hpp"

namespace hermes::lb {

/// ECMP: per-flow random hashing (RFC 2992). Every packet of a flow takes
/// the path selected by a hash of the flow id; the choice never changes,
/// no matter what the network does.
class EcmpLb final : public LoadBalancer {
 public:
  explicit EcmpLb(net::Fabric& topo, std::uint64_t salt = 0) : topo_{topo}, salt_{salt} {}

  int select_path(FlowCtx& flow, const net::Packet&) override {
    if (flow.intra_rack()) return -1;
    const auto& paths = topo_.paths_between_leaves(flow.src_leaf, flow.dst_leaf);
    return static_cast<int>(mix64(flow.flow_id ^ salt_) % paths.size());
  }

  [[nodiscard]] std::string_view name() const override { return "ecmp"; }

 private:
  net::Fabric& topo_;
  std::uint64_t salt_;
};

}  // namespace hermes::lb
