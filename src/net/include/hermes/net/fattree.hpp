#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "hermes/net/fabric.hpp"
#include "hermes/net/host.hpp"
#include "hermes/net/packet.hpp"
#include "hermes/net/packet_arena.hpp"
#include "hermes/net/switch.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/metrics.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::net {

/// Parameters of a k-ary three-tier fat-tree (Al-Fares Clos): k pods,
/// each with k/2 edge and k/2 aggregation switches, k/2 hosts per edge,
/// and (k/2)^2 core switches. k=16 gives the ROADMAP's 1024-host fabric.
struct FatTreeConfig {
  int k = 8;  ///< even, >= 4

  double host_rate_bps = 10e9;
  double fabric_rate_bps = 10e9;
  sim::SimTime link_delay = sim::usec(2);  ///< per-hop propagation, one way

  /// Same defaulting rules as TopologyConfig: 0 selects the rate-scaled
  /// CONGA/DCTCP guideline values.
  std::uint32_t ecn_threshold_bytes = 0;
  std::uint32_t queue_capacity_bytes = 0;
  bool ecn_enabled = true;

  [[nodiscard]] std::uint32_t ecn_bytes_for(double rate_bps) const;
  [[nodiscard]] std::uint32_t queue_bytes_for(double rate_bps) const;
  [[nodiscard]] PortConfig port_config(double rate_bps, sim::SimTime prop_delay) const;
};

/// Three-tier fat-tree fabric, optionally partitioned into shards for
/// the conservative-lookahead parallel executor (sim::ShardedExecutor).
///
/// Sharding plan (fixed and deterministic): pod p -> shard p % S, core
/// c -> shard c % S, where S is the number of Simulators handed to the
/// constructor. A pod is atomic — its hosts, edge and agg switches, and
/// every host-edge / edge-agg link live in one shard — so the only
/// cross-shard links are agg<->core. Each shard owns a private
/// PacketArena; a packet crossing shards is moved by value through a
/// per-shard-pair mailbox and re-pooled in the destination arena.
///
/// Cross-shard link timing: the egress port is built with zero
/// propagation delay and peered to an internal portal device, which
/// stamps deliver_at = now + link_delay into the mailbox — the arrival
/// time is identical to a directly-peered link. Because every event that
/// emits mail runs strictly before the round horizon h = t_min +
/// link_delay, all mail lands at deliver_at >= h: never inside the
/// window any shard is concurrently executing (the conservative-PDES
/// safety argument; DESIGN.md §12).
///
/// With S == 1 every link is peered directly and the fabric behaves as
/// an ordinary serial topology.
///
/// Fabric-interface mapping: "leaf" = edge switch (global id, pod-major),
/// "spine" = core switch for leaf(i)/spine(i), but in the *link* fault
/// surface (leaf_uplink, set_link_state, ...) the `spine` argument is the
/// aggregation-switch local index within the leaf's pod — the k/2 uplinks
/// an edge switch actually has. agg<->core links have no single-shard
/// owner and are not individually faultable (use core switch faults).
class FatTree final : public Fabric {
 public:
  FatTree(std::vector<sim::Simulator*> shard_sims, FatTreeConfig config);
  ~FatTree() override;

  [[nodiscard]] const FatTreeConfig& config() const { return config_; }

  // --- shape -----------------------------------------------------------
  [[nodiscard]] int k() const { return config_.k; }
  [[nodiscard]] int num_pods() const { return config_.k; }
  [[nodiscard]] int num_cores() const { return half_ * half_; }
  [[nodiscard]] int pod_of_leaf(int leaf_id) const { return leaf_id / half_; }

  // --- sharding --------------------------------------------------------
  [[nodiscard]] int num_shards() const { return static_cast<int>(sims_.size()); }
  [[nodiscard]] int shard_of_pod(int pod) const { return pod % num_shards(); }
  [[nodiscard]] int shard_of_leaf(int leaf_id) const { return shard_of_pod(pod_of_leaf(leaf_id)); }
  [[nodiscard]] int shard_of_host(int host_id) const { return shard_of_leaf(leaf_of(host_id)); }
  [[nodiscard]] int shard_of_core(int core) const { return core % num_shards(); }
  [[nodiscard]] std::vector<int> leaves_of_shard(int shard) const;
  /// The conservative lookahead: minimum simulated time any packet needs
  /// to cross a shard boundary (= link_delay; agg->core is one hop).
  [[nodiscard]] sim::SimTime lookahead() const { return config_.link_delay; }

  /// Barrier step for the sharded executor: move every outbox's packets
  /// into the destination shards' pending inboxes (merged in
  /// (deliver_at, src_shard, seq) order) and (re-)arm each inbox's
  /// delivery timer. Single-threaded by contract — call only from the
  /// executor's barrier callback. Returns packets moved this call.
  std::uint64_t exchange_boundary();
  /// Total boundary packets moved across all barriers so far.
  [[nodiscard]] std::uint64_t boundary_packets() const { return boundary_packets_; }

  // --- Fabric interface ------------------------------------------------
  [[nodiscard]] Host& host(int i) override { return *hosts_[i]; }
  /// leaf(i) = edge switch i (pod-major global id).
  [[nodiscard]] Switch& leaf(int i) override { return *edges_[i]; }
  /// spine(i) = core switch i (the fault surface's top tier).
  [[nodiscard]] Switch& spine(int i) override { return *cores_[i]; }
  /// The aggregation switch at (pod, local index a).
  [[nodiscard]] Switch& agg(int pod, int a) { return *aggs_[pod * half_ + a]; }

  [[nodiscard]] Route forward_route(int src_host, int dst_host, int path_id) const override;
  [[nodiscard]] Route reverse_route(int src_host, int dst_host, int path_id) const override;

  /// `spine` here is the agg local index in [0, k/2): the edge switch's
  /// uplink ports. `k` (parallel link index) must be 0.
  [[nodiscard]] Port& leaf_uplink(int leaf_id, int spine, int k = 0) override;
  void set_link_state(int leaf_id, int spine, bool up, int k = 0) override;
  void set_link_rate(int leaf_id, int spine, double rate_bps, int k = 0) override;
  [[nodiscard]] double configured_link_rate(int leaf_id, int spine, int k = 0) const override;

  void set_recorder(obs::FlightRecorder* rec) override;
  /// Per-shard recorders: each device's ports record into the ring of
  /// their owning shard (recs.size() must equal num_shards()).
  void set_recorders(const std::vector<obs::FlightRecorder*>& recs);
  void register_metrics(obs::MetricsRegistry& reg) override;

  [[nodiscard]] sim::SimTime one_hop_delay() const override;
  [[nodiscard]] sim::SimTime base_rtt() const override;

 private:
  class Portal;

  /// One cross-shard mailbox direction (src shard -> dst shard), struct
  /// of arrays: delivery metadata separate from payloads so the barrier
  /// merge scans hot 16-byte records and only the delivered packets are
  /// ever touched. Entry order is push order; an entry's index is its
  /// sequence number within the (src, dst) pair.
  struct Outbox {
    std::vector<sim::SimTime> deliver_at;
    std::vector<Switch*> dst_sw;
    std::vector<std::uint8_t> dst_port;
    std::vector<Packet> pkts;

    void push(sim::SimTime at, Switch* sw, std::uint8_t port, Packet&& p) {
      deliver_at.push_back(at);
      dst_sw.push_back(sw);
      dst_port.push_back(port);
      pkts.push_back(std::move(p));
    }
    [[nodiscard]] std::size_t size() const { return deliver_at.size(); }
    void clear() {
      deliver_at.clear();
      dst_sw.clear();
      dst_port.clear();
      pkts.clear();
    }
  };

  /// A boundary packet staged for delivery inside its destination shard.
  struct Mail {
    sim::SimTime deliver_at;
    std::uint32_t src_shard;
    std::uint32_t seq;
    Switch* dst_sw;
    std::uint8_t dst_port;
    Packet pkt;
  };

  /// Per-destination-shard pending mail, kept sorted by the total order
  /// (deliver_at, src_shard, seq) — unique keys, so merges are stable
  /// and delivery order is independent of thread count.
  struct Inbox {
    std::vector<Mail> pending;
    std::size_t head = 0;
    sim::EventQueue::Handle timer;
  };

  [[nodiscard]] int uplink_port(int a) const { return half_ + a; }
  [[nodiscard]] Outbox& outbox(int src_shard, int dst_shard) {
    return outboxes_[static_cast<std::size_t>(src_shard) * sims_.size() + dst_shard];
  }
  void arm_inbox(int shard);
  void deliver_inbox(int shard);

  FatTreeConfig config_;
  int half_ = 0;  ///< k/2
  std::vector<sim::Simulator*> sims_;
  /// One packet pool per shard; declared before the devices (their ports
  /// keep references into the arena, members destroy in reverse).
  // HERMES_SHARD_OWNED one arena per shard; index only by shard id
  std::vector<std::unique_ptr<PacketArena>> arenas_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Switch>> edges_;  ///< pod-major: pod*k/2 + e
  std::vector<std::unique_ptr<Switch>> aggs_;   ///< pod-major: pod*k/2 + a
  std::vector<std::unique_ptr<Switch>> cores_;
  std::vector<std::unique_ptr<Portal>> portals_;
  // HERMES_SHARD_OWNED S*S mailbox grid, only cross pairs used; indices
  // derive from (src_shard, dst_shard)
  std::vector<Outbox> outboxes_;
  // HERMES_SHARD_OWNED per destination shard
  std::vector<Inbox> inboxes_;
  std::uint64_t boundary_packets_ = 0;
};

}  // namespace hermes::net
