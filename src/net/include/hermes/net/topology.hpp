#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "hermes/net/fabric.hpp"
#include "hermes/net/host.hpp"
#include "hermes/net/packet.hpp"
#include "hermes/net/switch.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/metrics.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::net {

/// Parameters of a (possibly asymmetric) leaf-spine fabric.
struct TopologyConfig {
  int num_leaves = 8;
  int num_spines = 8;
  int hosts_per_leaf = 16;
  int links_per_pair = 1;  ///< parallel leaf<->spine links (testbed uses 2)

  double host_rate_bps = 10e9;
  double fabric_rate_bps = 10e9;
  sim::SimTime link_delay = sim::usec(2);  ///< per-hop propagation, one way

  /// ECN marking threshold in bytes; 0 selects a rate-scaled default
  /// (65 packets at 10G, clamped to >= 20 packets, CONGA/DCTCP practice).
  std::uint32_t ecn_threshold_bytes = 0;
  /// Per-port buffer in bytes; 0 selects 6x the ECN threshold (>= 150KB).
  std::uint32_t queue_capacity_bytes = 0;
  bool ecn_enabled = true;

  /// Non-zero: every switch (leaves and spines) shares one buffer of this
  /// many bytes across its ports under the Dynamic Threshold policy,
  /// like real shared-memory ToR ASICs, instead of static carving.
  std::uint64_t shared_buffer_bytes = 0;
  double dt_alpha = 1.0;

  /// Per-link rate overrides keyed by (leaf, spine, parallel index);
  /// applied to both directions. A rate of 0 cuts the link.
  std::map<std::tuple<int, int, int>, double> fabric_overrides;

  [[nodiscard]] std::uint32_t ecn_bytes_for(double rate_bps) const;
  [[nodiscard]] std::uint32_t queue_bytes_for(double rate_bps) const;
  [[nodiscard]] PortConfig port_config(double rate_bps) const;
};

/// Builds and owns the simulated fabric: hosts, leaf and spine switches,
/// all ports, and the enumerated explicit paths (the XPath substitute).
class Topology : public Fabric {
 public:
  Topology(sim::Simulator& simulator, TopologyConfig config);

  [[nodiscard]] const TopologyConfig& config() const { return config_; }
  /// The per-scenario packet pool every device and port of this fabric
  /// draws from (see packet_arena.hpp).
  [[nodiscard]] PacketArena& packet_arena() { return arena_; }
  [[nodiscard]] Host& host(int i) override { return *hosts_[i]; }
  [[nodiscard]] Switch& leaf(int i) override { return *leaves_[i]; }
  [[nodiscard]] Switch& spine(int i) override { return *spines_[i]; }

  [[nodiscard]] Route forward_route(int src_host, int dst_host, int path_id) const override;
  [[nodiscard]] Route reverse_route(int src_host, int dst_host, int path_id) const override;

  /// Fabric ports, for congestion-aware schemes that read switch state.
  [[nodiscard]] Port& leaf_uplink(int leaf_id, int spine, int k = 0) override;
  [[nodiscard]] Port& spine_downlink(int spine, int leaf_id, int k = 0);

  // --- runtime fault mutators (FaultScheduler) --------------------------
  // These change *link behaviour* mid-run without touching the enumerated
  // path set: a load balancer keeps seeing the path and must sense the
  // failure itself, exactly like a silent fault in a real fabric. (The
  // build-time `fabric_overrides` with rate 0, by contrast, remove paths
  // from enumeration — a fault every scheme knows about up front.)
  void set_link_state(int leaf_id, int spine, bool up, int k = 0) override;
  void set_link_rate(int leaf_id, int spine, double rate_bps, int k = 0) override;
  [[nodiscard]] double configured_link_rate(int leaf_id, int spine, int k = 0) const override {
    return link_rate(leaf_id, spine, k);
  }

  // --- observability ----------------------------------------------------
  /// Attach (or with null, detach) the scenario's flight recorder to every
  /// port in the fabric — host NICs, leaf and spine egress. Setup-time:
  /// interns all port names now so hot-path appends carry ids only.
  void set_recorder(obs::FlightRecorder* rec) override;
  /// Register fabric-wide pull counters (tx/drops/ECN marks/failure
  /// drops) under "net.*". Closures read the live PortStats, so the hot
  /// path pays nothing beyond the counters it already maintained.
  void register_metrics(obs::MetricsRegistry& reg) override;

  [[nodiscard]] sim::SimTime one_hop_delay() const override;
  [[nodiscard]] sim::SimTime base_rtt() const override;

 private:
  [[nodiscard]] double link_rate(int leaf_id, int spine, int k) const;
  [[nodiscard]] int uplink_port_index(int spine, int k) const {
    return config_.hosts_per_leaf + spine * config_.links_per_pair + k;
  }
  [[nodiscard]] int downlink_port_index(int leaf_id, int k) const {
    return leaf_id * config_.links_per_pair + k;
  }

  sim::Simulator& simulator_;
  TopologyConfig config_;
  /// Declared before the devices below: their ports keep references into
  /// the arena, so it must outlive them (members destroy in reverse).
  PacketArena arena_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Switch>> leaves_;
  std::vector<std::unique_ptr<Switch>> spines_;
};

}  // namespace hermes::net
