#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hermes/net/host.hpp"
#include "hermes/net/packet.hpp"
#include "hermes/net/packet_arena.hpp"
#include "hermes/net/port.hpp"
#include "hermes/net/switch.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/metrics.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/sim/time.hpp"

namespace hermes::net {

/// Per-hop propagation delay of every fabric link, one way.
inline constexpr sim::SimTime kLinkDelay = sim::usec(2);

/// Link parameters every fabric builder shares: rates and the ECN/buffer
/// sizing rules its ports are built with.
struct LinkConfig {
  double host_rate_bps = 10e9;
  double fabric_rate_bps = 10e9;

  /// ECN marking threshold in bytes; 0 selects a rate-scaled default
  /// (65 packets at 10G, clamped to >= 20 packets, CONGA/DCTCP practice).
  std::uint32_t ecn_threshold_bytes = 0;
  /// Per-port buffer in bytes; 0 selects 6x the ECN threshold (>= 150KB).
  std::uint32_t queue_capacity_bytes = 0;
  bool ecn_enabled = true;

  [[nodiscard]] std::uint32_t ecn_bytes_for(double rate_bps) const;
  [[nodiscard]] std::uint32_t queue_bytes_for(double rate_bps) const;
  /// A port on a link of `rate_bps` with kLinkDelay propagation.
  [[nodiscard]] PortConfig port_config(double rate_bps) const;
};

/// A fabric's device counts, known before it is built: enough to name
/// every fault target. A switch is its index in Fabric::switches() (tier
/// order: leaves, any middle tier, spines); `uplinks[sw]` counts the
/// links going up from switch `sw`, and a link is named by its lower
/// switch and the ordinal of that uplink there.
struct FabricShape {
  int num_leaves = 0;
  int num_spines = 0;
  int hosts_per_leaf = 0;
  std::vector<int> uplinks;  ///< per switch, tier order

  /// The switch index of spine `s` (the top tier).
  [[nodiscard]] int spine(int s) const { return static_cast<int>(uplinks.size()) - num_spines + s; }
  [[nodiscard]] int num_links() const { return std::accumulate(uplinks.begin(), uplinks.end(), 0); }
  /// The n-th link in (switch, uplink) order, as {switch, uplink}.
  [[nodiscard]] std::pair<int, int> link(int n) const;
};

/// One switch-to-switch link, recorded once as the builder wires it: the
/// lower switch's port up to the upper switch and the upper switch's port
/// back down (switches by tier-order index), at its build-time rate.
struct FabricLink {
  int lower = -1;
  int lower_port = -1;
  int upper = -1;
  int upper_port = -1;
  double rate_bps = 0;
};

/// One end-to-end fabric path between a leaf pair. A path has no id of
/// its own: it is named by its index in paths_between_leaves(src, dst),
/// and packets, flow contexts, routes and every scheme's state carry that
/// index. On a leaf-spine the path is (spine, parallel link index); the up
/// and down parallel-link indices are paired, which matches how ECMP
/// groups are built on 2-tier Clos fabrics. On a fat-tree `spine` is the
/// core an inter-pod path crosses, and -1 on an intra-pod path, which
/// turns at the agg its index names.
struct FabricPath {
  int spine = -1;
  int link_idx = 0;
  double capacity_bps = 0;  ///< min(uplink, downlink) rate
};
static_assert(sizeof(FabricPath) == 16, "a leaf-spine stores one per path of every leaf pair");

/// The fabric device model: what transports, load balancers, workload
/// generators, the fault scheduler and the invariant checker need from a
/// topology, independent of its tier structure. Concrete builders are
/// the 2-tier `Topology` (leaf-spine) and the 3-tier `FatTree` (k-ary
/// Clos, possibly sharded); they add wiring, path enumeration and routes.
///
/// The fabric owns every device. Each shard has a simulator and a packet
/// arena; every host and switch is built against its shard's pair
/// through add_host/add_switch, so a leaf-spine fabric is the one-shard
/// case. Switches are kept in tier order — leaves, then any middle tier,
/// then spines — and every walk over the devices (recorder attach,
/// metrics, invariant checks) goes hosts first, then that order. Every
/// switch-to-switch link is in one table, so a fault can reach both ends
/// of any link on any tier.
///
/// Host-id geometry (leaf_of, local_index, ...) and the path table are
/// concrete and non-virtual: every Hermes fabric numbers hosts
/// leaf-major and names each leaf pair's paths by a run (offset, length)
/// of one path table, and these run on per-packet paths where a vtable
/// dispatch would be waste. Pairs may share a run. The builder fills the
/// protected dimension members and the path table before handing the
/// fabric to any consumer.
class Fabric {
 public:
  virtual ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // --- shape (concrete, hot-path safe) ---------------------------------
  [[nodiscard]] int num_leaves() const { return num_leaves_; }
  [[nodiscard]] int num_spines() const { return num_spines_; }
  [[nodiscard]] int hosts_per_leaf() const { return hosts_per_leaf_; }
  /// Pods of racks: a fat-tree's k, and 1 for a leaf-spine.
  [[nodiscard]] int num_pods() const { return num_pods_; }
  [[nodiscard]] int num_hosts() const { return num_leaves_ * hosts_per_leaf_; }
  [[nodiscard]] double host_rate_bps() const { return link_.host_rate_bps; }
  /// Aggregate leaf->spine capacity: the sustainable inter-rack load unit.
  [[nodiscard]] double bisection_bps() const { return bisection_bps_; }
  [[nodiscard]] int leaf_of(int host_id) const { return host_id / hosts_per_leaf_; }
  [[nodiscard]] int local_index(int host_id) const { return host_id % hosts_per_leaf_; }
  /// Any representative host in a rack (Hermes probe agents use host 0).
  [[nodiscard]] int first_host_of_leaf(int leaf_id) const { return leaf_id * hosts_per_leaf_; }

  // --- devices ---------------------------------------------------------
  [[nodiscard]] Host& host(int i) { return *hosts_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] Switch& leaf(int i) { return *switches_[static_cast<std::size_t>(i)]; }
  /// spine(i) is the top tier (the cores of a fat-tree).
  [[nodiscard]] Switch& spine(int i) { return *switches_[spine_index(i)]; }
  /// Every switch in tier order: leaves, any middle tier, spines.
  [[nodiscard]] std::span<const std::unique_ptr<Switch>> switches() const { return switches_; }

  // --- shards ----------------------------------------------------------
  [[nodiscard]] int num_shards() const { return static_cast<int>(sims_.size()); }
  /// The shard owning switches()[sw] (leaf l is switch l).
  [[nodiscard]] int shard_of_switch(int sw) const {
    return switch_shard_[static_cast<std::size_t>(sw)];
  }
  /// A host lives in its leaf's shard.
  [[nodiscard]] int shard_of_host(int host_id) const { return shard_of_switch(leaf_of(host_id)); }
  /// The leaves `shard` owns, ascending (every leaf of a one-shard fabric).
  [[nodiscard]] std::vector<int> leaves_of_shard(int shard) const;

  // --- explicit paths (the XPath substitute) ---------------------------
  /// All usable (non-cut) paths from src_leaf to dst_leaf; a path's index
  /// here is its name. Empty for src_leaf == dst_leaf (intra-rack traffic
  /// needs no fabric choice). A view into the fabric's one path table,
  /// which pairs with identical paths may share.
  [[nodiscard]] std::span<const FabricPath> paths_between_leaves(int src_leaf,
                                                                 int dst_leaf) const {
    const PathRun run = runs_[static_cast<std::size_t>(src_leaf) *
                                  static_cast<std::size_t>(num_leaves_) +
                              static_cast<std::size_t>(dst_leaf)];
    return std::span<const FabricPath>{paths_}.subspan(run.offset, run.length);
  }
  [[nodiscard]] std::span<const FabricPath> paths_between_hosts(int src_host,
                                                                int dst_host) const {
    return paths_between_leaves(leaf_of(src_host), leaf_of(dst_host));
  }

  /// Source route for a data packet from src to dst over the path with
  /// index `path` in paths_between_hosts(src, dst); intra-rack routes
  /// ignore it (callers pass -1). Entries are switch egress ports. Throws
  /// std::out_of_range for an index the leaf pair does not have.
  [[nodiscard]] virtual Route forward_route(int src_host, int dst_host, int path) const = 0;
  /// Route for the reverse direction (ACKs retrace the same path).
  [[nodiscard]] virtual Route reverse_route(int src_host, int dst_host, int path) const = 0;

  // --- links (fault targets) ------------------------------------------
  /// Uplink `j` of switch `sw`, in wiring order; throws std::out_of_range
  /// if there is no such uplink.
  [[nodiscard]] const FabricLink& uplink(int sw, int j) const;
  [[nodiscard]] int num_uplinks(int sw) const {
    return static_cast<int>(std::ranges::count(links_, sw, &FabricLink::lower));
  }

  // --- observability ---------------------------------------------------
  /// Attach the flight recorders, one per shard (null entries detach),
  /// to every port: each device's ports record into its shard's ring.
  /// Setup-time: interns every port name now, in walk order, so hot-path
  /// appends carry ids only.
  void set_recorders(std::span<obs::FlightRecorder* const> recs);
  /// Register fabric-wide pull counters (tx/drops/ECN marks/failure
  /// drops) under "net.*". Closures read the live PortStats, so the hot
  /// path pays nothing beyond the counters it already maintained.
  void register_metrics(obs::MetricsRegistry& reg);

  // --- timing guidelines -----------------------------------------------
  /// One-hop queueing delay at the ECN threshold (the paper's per-hop
  /// delay guideline used to derive T_RTT_high and Delta_RTT).
  [[nodiscard]] sim::SimTime one_hop_delay() const;
  /// Base RTT (propagation + serialization, empty queues) between hosts
  /// on the longest path: max_hops_ links each way, a full-size data
  /// packet out and an ACK back, serialization counted once per hop.
  [[nodiscard]] sim::SimTime base_rtt() const;

 protected:
  /// One simulator per shard; each gets its own packet arena.
  Fabric(std::vector<sim::Simulator*> shard_sims, const LinkConfig& link);

  /// Build the next host (ids count up from 0) on `shard`.
  Host& add_host(int shard);
  /// Build the next switch on `shard`. Call in tier order: leaves, any
  /// middle tier, spines.
  Switch& add_switch(int shard, int id, std::string name);
  /// Record a switch-to-switch link as it is wired. Call in (lower switch,
  /// uplink ordinal) order.
  void add_link(const FabricLink& link) {
    assert((links_.empty() || links_.back().lower <= link.lower) && "lower-switch order");
    links_.push_back(link);
  }
  [[nodiscard]] sim::Simulator& shard_sim(int shard) {
    return *sims_[static_cast<std::size_t>(shard)];
  }
  [[nodiscard]] PacketArena& shard_arena(int shard) {
    return *arenas_[static_cast<std::size_t>(shard)];
  }

  /// Builders fill paths_ and name each ordered leaf pair's paths by
  /// calling this once per pair, in ascending src_leaf * L + dst_leaf
  /// order: the pair's paths are paths_[offset, offset + length) (a
  /// src == dst pair has none).
  void add_pair(std::size_t offset, std::size_t length) {
    runs_.push_back({static_cast<std::uint32_t>(offset), static_cast<std::uint32_t>(length)});
  }
  /// Throws std::out_of_range unless 0 <= path < n, a leaf pair's path count.
  static void check_path(int path, std::size_t n);

  int num_leaves_ = 0;
  int num_spines_ = 0;
  int hosts_per_leaf_ = 0;
  int num_pods_ = 1;
  double bisection_bps_ = 0;
  int max_hops_ = 0;  ///< links one way on the longest host-to-host path
  /// The entries every leaf pair's run (add_pair) views; pairs may share.
  std::vector<FabricPath> paths_;

 private:
  [[nodiscard]] std::size_t spine_index(int spine) const {
    return switches_.size() - static_cast<std::size_t>(num_spines_) +
           static_cast<std::size_t>(spine);
  }

  LinkConfig link_;
  // one simulator per shard; index only by shard id
  std::vector<sim::Simulator*> sims_;
  /// Declared before the devices: their ports keep references into the
  /// arenas, so the arenas must outlive them (members destroy in reverse).
  // one arena per shard; index only by shard id
  std::vector<std::unique_ptr<PacketArena>> arenas_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Switch>> switches_;  ///< tier order
  std::vector<int> switch_shard_;                  ///< parallel to switches_
  std::vector<FabricLink> links_;                  ///< sorted by lower switch
  struct PathRun {
    std::uint32_t offset;
    std::uint32_t length;
  };
  /// paths_between_leaves(a, b) is runs_[a * L + b] of paths_.
  std::vector<PathRun> runs_;
};

}  // namespace hermes::net
