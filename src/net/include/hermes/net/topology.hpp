#pragma once

#include <cstdint>
#include <map>
#include <tuple>

#include "hermes/net/fabric.hpp"
#include "hermes/net/packet.hpp"
#include "hermes/net/port.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::net {

/// Parameters of a (possibly asymmetric) leaf-spine fabric; the link
/// parameters come from LinkConfig.
struct TopologyConfig : LinkConfig {
  int num_leaves = 8;
  int num_spines = 8;
  int hosts_per_leaf = 16;
  int links_per_pair = 1;  ///< parallel leaf<->spine links (testbed uses 2)

  /// Non-zero: every switch (leaves and spines) shares one buffer of this
  /// many bytes across its ports under the Dynamic Threshold policy,
  /// like real shared-memory ToR ASICs, instead of static carving.
  std::uint64_t shared_buffer_bytes = 0;
  double dt_alpha = 1.0;

  /// Per-link rate overrides keyed by (leaf, spine, parallel index);
  /// applied to both directions. A rate of 0 cuts the link.
  std::map<std::tuple<int, int, int>, double> fabric_overrides;

  /// Leaf l's uplink s * links_per_pair + k is link (l, s, k).
  [[nodiscard]] FabricShape shape() const;
};

/// Builds the leaf-spine fabric on one simulator: wires hosts, leaf and
/// spine switches, and enumerates the explicit paths (the XPath
/// substitute).
class Topology : public Fabric {
 public:
  Topology(sim::Simulator& simulator, TopologyConfig config);

  [[nodiscard]] const TopologyConfig& config() const { return config_; }

  [[nodiscard]] Route forward_route(int src_host, int dst_host, int path) const override;
  [[nodiscard]] Route reverse_route(int src_host, int dst_host, int path) const override;

  /// Fabric ports, for congestion-aware schemes that read switch state.
  [[nodiscard]] Port& leaf_uplink(int leaf_id, int spine, int k = 0);
  [[nodiscard]] Port& spine_downlink(int spine, int leaf_id, int k = 0);

 private:
  [[nodiscard]] double link_rate(int leaf_id, int spine, int k) const;
  /// Path `path` of (src_host, dst_host)'s leaf pair, ending at `to_host`:
  /// dst_host forward, src_host in reverse.
  [[nodiscard]] Route route(int src_host, int dst_host, int path, int to_host) const;
  [[nodiscard]] int uplink_port_index(int spine, int k) const {
    return config_.hosts_per_leaf + spine * config_.links_per_pair + k;
  }
  [[nodiscard]] int downlink_port_index(int leaf_id, int k) const {
    return leaf_id * config_.links_per_pair + k;
  }

  TopologyConfig config_;
};

}  // namespace hermes::net
