#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hermes/net/packet.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/metrics.hpp"
#include "hermes/sim/time.hpp"

namespace hermes::net {

class Host;
class Switch;
class Port;

/// One end-to-end fabric path between a leaf pair: (spine, parallel link
/// index). The up and down parallel-link indices are paired, which matches
/// how ECMP groups are built on 2-tier Clos fabrics. Three-tier fabrics
/// reuse the struct: `spine` holds the core (or intra-pod agg) selector
/// and `link_idx` distinguishes the path kind (see FatTree).
struct FabricPath {
  int id = -1;
  int src_leaf = -1;
  int dst_leaf = -1;
  int spine = -1;
  int link_idx = 0;
  int local_index = 0;      ///< position within the leaf pair's path list
  double capacity_bps = 0;  ///< min(uplink, downlink) rate
};

/// Abstract fabric: what transports, load balancers, workload generators
/// and the fault scheduler need from a topology, independent of its tier
/// structure. Concrete builders are the 2-tier `Topology` (leaf-spine)
/// and the 3-tier `FatTree` (k-ary Clos, possibly sharded).
///
/// Host-id geometry (leaf_of, local_index, ...) and the path table are
/// concrete and non-virtual: every Hermes fabric numbers hosts
/// leaf-major and stores each path once, pair-major, and these run on
/// per-packet paths where a vtable dispatch would be waste. The builder
/// fills the protected dimension members and the path table before
/// handing the fabric to any consumer.
class Fabric {
 public:
  virtual ~Fabric() = default;
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // --- shape (concrete, hot-path safe) ---------------------------------
  [[nodiscard]] int num_leaves() const { return num_leaves_; }
  [[nodiscard]] int num_spines() const { return num_spines_; }
  [[nodiscard]] int hosts_per_leaf() const { return hosts_per_leaf_; }
  [[nodiscard]] int num_hosts() const { return num_leaves_ * hosts_per_leaf_; }
  [[nodiscard]] double host_rate_bps() const { return host_rate_bps_; }
  /// Aggregate leaf->spine capacity: the sustainable inter-rack load unit.
  [[nodiscard]] double bisection_bps() const { return bisection_bps_; }
  [[nodiscard]] int leaf_of(int host_id) const { return host_id / hosts_per_leaf_; }
  [[nodiscard]] int local_index(int host_id) const { return host_id % hosts_per_leaf_; }
  /// Any representative host in a rack (Hermes probe agents use host 0).
  [[nodiscard]] int first_host_of_leaf(int leaf_id) const { return leaf_id * hosts_per_leaf_; }

  // --- devices ---------------------------------------------------------
  [[nodiscard]] virtual Host& host(int i) = 0;
  [[nodiscard]] virtual Switch& leaf(int i) = 0;
  [[nodiscard]] virtual Switch& spine(int i) = 0;

  // --- explicit paths (the XPath substitute) ---------------------------
  /// All usable (non-cut) paths from src_leaf to dst_leaf, in local-index
  /// order. Empty for src_leaf == dst_leaf (intra-rack traffic needs no
  /// fabric choice). A view into the fabric's one path table.
  [[nodiscard]] std::span<const FabricPath> paths_between_leaves(int src_leaf,
                                                                 int dst_leaf) const {
    const auto pair = static_cast<std::size_t>(src_leaf) * static_cast<std::size_t>(num_leaves_) +
                      static_cast<std::size_t>(dst_leaf);
    return std::span<const FabricPath>{paths_}.subspan(pair_begin_[pair],
                                                       pair_begin_[pair + 1] - pair_begin_[pair]);
  }
  [[nodiscard]] std::span<const FabricPath> paths_between_hosts(int src_host,
                                                                int dst_host) const {
    return paths_between_leaves(leaf_of(src_host), leaf_of(dst_host));
  }
  [[nodiscard]] const FabricPath& path(int path_id) const {
    return paths_[static_cast<std::size_t>(path_id)];
  }
  [[nodiscard]] int num_paths() const { return static_cast<int>(paths_.size()); }

  /// Source route for a data packet from src to dst over fabric path
  /// `path_id` (-1 for intra-rack). Entries are switch egress ports.
  [[nodiscard]] virtual Route forward_route(int src_host, int dst_host, int path_id) const = 0;
  /// Route for the reverse direction (ACKs retrace the same path).
  [[nodiscard]] virtual Route reverse_route(int src_host, int dst_host, int path_id) const = 0;

  /// The leaf-side egress port of fabric link (leaf, spine, k) — what
  /// congestion-aware schemes and the fault scheduler poke at.
  [[nodiscard]] virtual Port& leaf_uplink(int leaf_id, int spine, int k = 0) = 0;

  // --- runtime fault mutators (FaultScheduler) -------------------------
  /// Cut (up=false) or restore (up=true) both directions of a link.
  virtual void set_link_state(int leaf_id, int spine, bool up, int k = 0) = 0;
  /// Degrade or restore both directions of a link to `rate_bps`.
  virtual void set_link_rate(int leaf_id, int spine, double rate_bps, int k = 0) = 0;
  /// The build-time capacity of a link (what restore should return to).
  [[nodiscard]] virtual double configured_link_rate(int leaf_id, int spine, int k = 0) const = 0;

  // --- observability ---------------------------------------------------
  /// Attach (or with null, detach) a flight recorder to every port.
  virtual void set_recorder(obs::FlightRecorder* rec) = 0;
  /// Register fabric-wide pull counters under "net.*".
  virtual void register_metrics(obs::MetricsRegistry& reg) = 0;

  // --- timing guidelines -----------------------------------------------
  /// One-hop queueing delay at the ECN threshold (the paper's per-hop
  /// delay guideline used to derive T_RTT_high and Delta_RTT).
  [[nodiscard]] virtual sim::SimTime one_hop_delay() const = 0;
  /// Base RTT (propagation + serialization, empty queues) between hosts
  /// under different leaves.
  [[nodiscard]] virtual sim::SimTime base_rtt() const = 0;

 protected:
  Fabric() = default;

  /// Builders append every path to paths_ pair-major (ascending
  /// src_leaf * L + dst_leaf), then call this to number the paths by
  /// position and build the per-pair offsets (num_leaves_ must be set).
  void index_paths() {
    assert(std::is_sorted(paths_.begin(), paths_.end(),
                          [](const FabricPath& a, const FabricPath& b) {
                            return a.src_leaf != b.src_leaf ? a.src_leaf < b.src_leaf
                                                            : a.dst_leaf < b.dst_leaf;
                          }) &&
           "paths must be appended pair-major");
    const auto leaves = static_cast<std::size_t>(num_leaves_);
    pair_begin_.assign(leaves * leaves + 1, 0);
    for (std::size_t i = 0; i < paths_.size(); ++i) {
      FabricPath& p = paths_[i];
      p.id = static_cast<int>(i);
      ++pair_begin_[static_cast<std::size_t>(p.src_leaf) * leaves +
                    static_cast<std::size_t>(p.dst_leaf) + 1];
    }
    for (std::size_t i = 0; i < leaves * leaves; ++i) pair_begin_[i + 1] += pair_begin_[i];
  }

  int num_leaves_ = 0;
  int num_spines_ = 0;
  int hosts_per_leaf_ = 0;
  double host_rate_bps_ = 0;
  double bisection_bps_ = 0;
  /// Every path once; a leaf pair's paths are one contiguous run.
  std::vector<FabricPath> paths_;

 private:
  /// paths_between_leaves(a, b) is paths_[pair_begin_[p], pair_begin_[p + 1])
  /// with p = a * L + b; L * L + 1 entries.
  std::vector<std::uint32_t> pair_begin_;
};

}  // namespace hermes::net
