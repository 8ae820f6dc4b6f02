#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "hermes/net/fabric.hpp"
#include "hermes/net/packet.hpp"
#include "hermes/net/port.hpp"
#include "hermes/net/switch.hpp"
#include "hermes/sim/event_queue.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/sim/time.hpp"

namespace hermes::net {

/// Parameters of a k-ary three-tier fat-tree (Al-Fares Clos): k pods,
/// each with k/2 edge and k/2 aggregation switches, k/2 hosts per edge,
/// and (k/2)^2 core switches. k=16 gives the ROADMAP's 1024-host fabric.
/// The link parameters come from LinkConfig.
struct FatTreeConfig : LinkConfig {
  int k = 8;  ///< even, >= 4

  /// Edge uplink a goes to its pod's agg a; agg a's uplink j goes to core
  /// a * k/2 + j.
  [[nodiscard]] FabricShape shape() const;
};

/// Three-tier fat-tree fabric, optionally partitioned into shards for
/// the conservative-lookahead parallel executor (sim::ShardedExecutor).
///
/// Sharding plan (fixed and deterministic, applied as the devices are
/// built): pod p -> shard p % S, core c -> shard c % S, where S is the
/// number of Simulators handed to the constructor; Fabric answers
/// shard_of_switch/host from it afterwards. A pod is atomic — its
/// hosts, edge and agg switches, and every host-edge / edge-agg link
/// live in one shard — so the only cross-shard links are agg<->core.
/// Each shard owns a private PacketArena; a packet crossing shards is
/// moved by value through a per-shard-pair mailbox and re-pooled in the
/// destination arena.
///
/// Cross-shard link timing: the egress port is built with zero
/// propagation delay and peered to an internal portal device, which
/// stamps deliver_at = now + kLinkDelay into the mailbox — the arrival
/// time is identical to a directly-peered link. Because every event that
/// emits mail runs strictly before the round horizon h = t_min +
/// kLinkDelay, all mail lands at deliver_at >= h: never inside the
/// window any shard is concurrently executing (the conservative-PDES
/// safety argument; DESIGN.md §12).
///
/// With S == 1 every link is peered directly and the fabric behaves as
/// an ordinary serial topology.
///
/// Fabric-interface mapping: "leaf" = edge switch (global id, pod-major),
/// the middle tier = aggregation switches (pod-major), "spine" = core
/// switch.
class FatTree final : public Fabric {
 public:
  FatTree(std::vector<sim::Simulator*> shard_sims, FatTreeConfig config);
  ~FatTree() override;

  [[nodiscard]] const FatTreeConfig& config() const { return config_; }

  // --- shape -----------------------------------------------------------
  [[nodiscard]] int k() const { return config_.k; }
  [[nodiscard]] int num_cores() const { return half_ * half_; }
  [[nodiscard]] int pod_of_leaf(int leaf_id) const { return leaf_id / half_; }
  /// The aggregation switch at (pod, local index a): the middle tier.
  [[nodiscard]] Switch& agg(int pod, int a) {
    return *switches()[static_cast<std::size_t>(num_leaves_ + pod * half_ + a)];
  }

  // --- sharding --------------------------------------------------------
  /// The conservative lookahead: minimum simulated time any packet needs
  /// to cross a shard boundary (= kLinkDelay; agg->core is one hop).
  [[nodiscard]] sim::SimTime lookahead() const { return kLinkDelay; }

  /// Barrier step for the sharded executor: move every outbox's packets
  /// into the destination shards' pending inboxes, behind the mail already
  /// there and sorted by (deliver_at, src_shard, seq), and (re-)arm each
  /// inbox's delivery timer. Single-threaded by contract — call only from the
  /// executor's barrier callback. Returns packets moved this call.
  std::uint64_t exchange_boundary();
  /// Total boundary packets moved across all barriers so far.
  [[nodiscard]] std::uint64_t boundary_packets() const { return boundary_packets_; }

  // --- Fabric interface ------------------------------------------------
  /// Index i of an intra-pod pair's paths turns at agg i; index i of an
  /// inter-pod pair's crosses core i, through agg i / (k/2) and that agg's
  /// uplink i % (k/2). Neither reads the path table.
  [[nodiscard]] Route forward_route(int src_host, int dst_host, int path) const override;
  [[nodiscard]] Route reverse_route(int src_host, int dst_host, int path) const override;

 private:
  class Portal;

  /// A boundary packet, stamped by the source shard's portal with its
  /// arrival time, its source shard and its index in the outbox.
  struct Mail {
    sim::SimTime deliver_at;
    std::uint32_t src_shard;
    std::uint32_t seq;
    Switch* dst_sw;
    std::uint8_t dst_port;
    Packet pkt;
  };

  /// One cross-shard mailbox direction (src shard -> dst shard), in push
  /// order.
  using Outbox = std::vector<Mail>;

  /// Per-destination-shard pending mail, sorted by the total order
  /// (deliver_at, src_shard, seq): unique keys, so delivery order is
  /// independent of thread count.
  struct Inbox {
    std::vector<Mail> pending;
    std::size_t head = 0;
    sim::EventQueue::Handle timer;
  };

  /// The build-time shard plan (see the class comment).
  [[nodiscard]] int shard_of_pod(int pod) const { return pod % num_shards(); }
  [[nodiscard]] int shard_of_core(int core) const { return core % num_shards(); }
  [[nodiscard]] int uplink_port(int a) const { return half_ + a; }
  /// One path per agg within a pod, one per core between pods.
  [[nodiscard]] int paths_per_pair(bool same_pod) const { return same_pod ? half_ : half_ * half_; }
  /// Path `path` of (src_host, dst_host)'s leaf pair, ending at `to_host`:
  /// dst_host forward, src_host in reverse.
  [[nodiscard]] Route route(int src_host, int dst_host, int path, int to_host) const;
  [[nodiscard]] Outbox& outbox(int src_shard, int dst_shard) {
    return outboxes_[static_cast<std::size_t>(src_shard) *
                         static_cast<std::size_t>(num_shards()) +
                     static_cast<std::size_t>(dst_shard)];
  }
  void arm_inbox(int shard);
  void deliver_inbox(int shard);

  FatTreeConfig config_;
  int half_ = 0;  ///< k/2
  std::vector<std::unique_ptr<Portal>> portals_;
  // S*S mailbox grid, only cross pairs used; indices
  // derive from (src_shard, dst_shard)
  std::vector<Outbox> outboxes_;
  // per destination shard
  std::vector<Inbox> inboxes_;
  std::uint64_t boundary_packets_ = 0;
};

}  // namespace hermes::net
