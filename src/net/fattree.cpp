#include "hermes/net/fattree.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hermes/net/device.hpp"
#include "hermes/net/host.hpp"
#include "hermes/net/packet_arena.hpp"
#include "hermes/net/port.hpp"

namespace hermes::net {

namespace {
/// FabricPath::link_idx doubles as the path-kind marker on fat-trees.
constexpr int kInterPodPath = 0;  ///< spine field = core switch id
constexpr int kIntraPodPath = 1;  ///< spine field = agg local index
}  // namespace

/// Internal peer of a cross-shard egress port. The port delivers with
/// zero propagation delay into the portal (still inside the source
/// shard's event stream); the portal moves the packet out of the source
/// arena and stages it in the (src, dst) outbox with the full link delay
/// stamped on — so arrival timing is identical to a directly-peered
/// link, but the destination switch is only ever touched after the
/// barrier, inside its own shard.
class FatTree::Portal final : public Device {
 public:
  Portal(PacketArena& arena, sim::Simulator& sim, Outbox& box, sim::SimTime delay, Switch* dst_sw,
         std::uint8_t dst_port)
      : arena_{arena}, sim_{sim}, box_{box}, delay_{delay}, dst_sw_{dst_sw}, dst_port_{dst_port} {}

  void receive(PacketHandle h, int /*in_port*/) override {
    Packet p = std::move(arena_[h]);
    arena_.free(h);
    box_.push(sim_.now() + delay_, dst_sw_, dst_port_, std::move(p));
  }

 private:
  PacketArena& arena_;
  sim::Simulator& sim_;
  Outbox& box_;
  sim::SimTime delay_;
  Switch* dst_sw_;
  std::uint8_t dst_port_;
};

FabricShape FatTreeConfig::shape() const {
  const int half = k / 2;
  FabricShape s{k * half, half * half, half, {}};
  s.uplinks.assign(static_cast<std::size_t>(2 * k * half), half);  // edges, then aggs
  s.uplinks.resize(s.uplinks.size() + static_cast<std::size_t>(half * half), 0);  // cores
  return s;
}

FatTree::FatTree(std::vector<sim::Simulator*> shard_sims, FatTreeConfig config)
    : Fabric{std::move(shard_sims), config}, config_{config} {
  const int k = config_.k;
  if (k < 4 || k % 2 != 0) throw std::invalid_argument("fat-tree k must be even and >= 4");
  half_ = k / 2;
  const int S = num_shards();
  const int pods = k;
  const int num_edges = pods * half_;
  const int num_aggs = pods * half_;
  const int cores = half_ * half_;

  num_leaves_ = num_edges;
  num_spines_ = cores;
  hosts_per_leaf_ = half_;
  max_hops_ = 6;  // host -> edge -> agg -> core -> agg -> edge -> host
  // Sustainable inter-rack load unit: total edge->agg uplink capacity
  // (the tier every inter-rack byte crosses exactly once upward).
  bisection_bps_ = static_cast<double>(num_edges) * half_ * config_.fabric_rate_bps;

  outboxes_.resize(static_cast<std::size_t>(S) * S);
  inboxes_.resize(static_cast<std::size_t>(S));

  // Devices, each built against its owning shard's simulator and arena,
  // switches in tier order: edges, aggs, cores.
  for (int h = 0; h < num_edges * half_; ++h) add_host(shard_of_pod(pod_of_leaf(leaf_of(h))));
  for (int e = 0; e < num_edges; ++e) {
    add_switch(shard_of_pod(pod_of_leaf(e)), e, "edge" + std::to_string(e));
  }
  for (int a = 0; a < num_aggs; ++a) {
    const int pod = a / half_;
    add_switch(shard_of_pod(pod), a, "agg" + std::to_string(pod) + "." + std::to_string(a % half_));
  }
  for (int c = 0; c < cores; ++c) add_switch(shard_of_core(c), c, "core" + std::to_string(c));

  const PortConfig host_pc = config_.port_config(config_.host_rate_bps);
  const PortConfig fab_pc = config_.port_config(config_.fabric_rate_bps);
  // Cross-shard egress: zero wire delay into the portal, which re-adds
  // the link delay when stamping the mailbox entry.
  PortConfig fab_portal_pc = fab_pc;
  fab_portal_pc.prop_delay = sim::SimTime::zero();

  // Host <-> edge. Edge ports [0, k/2) go down to hosts.
  for (int e = 0; e < num_edges; ++e) {
    for (int h = 0; h < half_; ++h) {
      const int host_id = e * half_ + h;
      host(host_id).attach_uplink(host_pc, &leaf(e), h);
      const int p = leaf(e).add_port(host_pc, &host(host_id), 0);
      assert(p == h);
      (void)p;
    }
  }

  // Edge <-> agg, always intra-pod (and therefore intra-shard). Edge
  // ports [k/2, k) go up (port k/2+a to agg a); agg ports [0, k/2) go
  // down (port e to local edge e).
  const int first_agg = num_edges;
  const int first_core = num_edges + num_aggs;
  for (int pod = 0; pod < pods; ++pod) {
    for (int el = 0; el < half_; ++el) {
      Switch* edge = &leaf(pod * half_ + el);
      for (int a = 0; a < half_; ++a) {
        const int up = edge->add_port(fab_pc, &agg(pod, a), el);
        assert(up == uplink_port(a));
        edge->port(up).is_fabric = true;
        add_link({pod * half_ + el, up, first_agg + pod * half_ + a, el, config_.fabric_rate_bps});
      }
    }
    for (int a = 0; a < half_; ++a) {
      Switch* ag = &agg(pod, a);
      for (int el = 0; el < half_; ++el) {
        const int down = ag->add_port(fab_pc, &leaf(pod * half_ + el), uplink_port(a));
        assert(down == el);
        ag->port(down).is_fabric = true;
      }
    }
  }

  // Agg <-> core: the only links that can cross shards. Agg ports
  // [k/2, k) go up (port k/2+j to core a*(k/2)+j, so agg a reaches core
  // group a); core c = a*(k/2)+j has one port per pod (port p to the
  // a-th agg of pod p).
  for (int pod = 0; pod < pods; ++pod) {
    for (int a = 0; a < half_; ++a) {
      Switch* ag = &agg(pod, a);
      for (int j = 0; j < half_; ++j) {
        const int c = a * half_ + j;
        int up;
        if (shard_of_pod(pod) == shard_of_core(c)) {
          up = ag->add_port(fab_pc, &spine(c), pod);
        } else {
          const int src = shard_of_pod(pod);
          portals_.push_back(std::make_unique<Portal>(
              shard_arena(src), shard_sim(src), outbox(src, shard_of_core(c)), kLinkDelay,
              &spine(c), static_cast<std::uint8_t>(pod)));
          up = ag->add_port(fab_portal_pc, portals_.back().get(), 0);
        }
        assert(up == uplink_port(j));
        ag->port(up).is_fabric = true;
        add_link({first_agg + pod * half_ + a, up, first_core + c, pod, config_.fabric_rate_bps});
      }
    }
  }
  for (int c = 0; c < cores; ++c) {
    const int a = c / half_;
    const int j = c % half_;
    Switch* core = &spine(c);
    for (int pod = 0; pod < pods; ++pod) {
      Switch* ag = &agg(pod, a);
      int down;
      if (shard_of_core(c) == shard_of_pod(pod)) {
        down = core->add_port(fab_pc, ag, uplink_port(j));
      } else {
        const int src = shard_of_core(c);
        portals_.push_back(std::make_unique<Portal>(
            shard_arena(src), shard_sim(src), outbox(src, shard_of_pod(pod)), kLinkDelay,
            ag, static_cast<std::uint8_t>(uplink_port(j))));
        down = core->add_port(fab_portal_pc, portals_.back().get(), 0);
      }
      assert(down == pod);
      (void)down;
      core->port(pod).is_fabric = true;
    }
  }

  // Enumerate paths per ordered leaf (edge) pair. Intra-pod pairs get
  // one path per agg (local_index = agg index); inter-pod pairs one per
  // core (local_index = core id).
  const int L = num_edges;
  const std::size_t intra = static_cast<std::size_t>(pods) * half_ * (half_ - 1) * half_;
  const std::size_t inter = static_cast<std::size_t>(pods) * (pods - 1) * half_ * half_ *
                            static_cast<std::size_t>(half_) * half_;
  paths_.reserve(intra + inter);
  for (int src = 0; src < L; ++src) {
    for (int dst = 0; dst < L; ++dst) {
      if (src == dst) continue;
      const bool same_pod = pod_of_leaf(src) == pod_of_leaf(dst);
      const int n = same_pod ? half_ : half_ * half_;
      for (int i = 0; i < n; ++i) {
        FabricPath p;
        p.src_leaf = src;
        p.dst_leaf = dst;
        p.spine = i;
        p.link_idx = same_pod ? kIntraPodPath : kInterPodPath;
        p.local_index = i;
        p.capacity_bps = config_.fabric_rate_bps;
        paths_.push_back(p);
      }
    }
  }
  index_paths();
}

FatTree::~FatTree() = default;

Route FatTree::forward_route(int src_host, int dst_host, int path_id) const {
  Route r;
  const int src_leaf = leaf_of(src_host);
  const int dst_leaf = leaf_of(dst_host);
  if (src_leaf == dst_leaf) {
    r.push(static_cast<std::uint8_t>(local_index(dst_host)));
    return r;
  }
  const FabricPath& p = paths_.at(static_cast<std::size_t>(path_id));
  assert(p.src_leaf == src_leaf && p.dst_leaf == dst_leaf);
  const int dst_el = dst_leaf % half_;
  if (p.link_idx == kIntraPodPath) {
    // edge --(agg p.spine)--> edge --> host: 3 hops.
    r.push(static_cast<std::uint8_t>(uplink_port(p.spine)));
    r.push(static_cast<std::uint8_t>(dst_el));
    r.push(static_cast<std::uint8_t>(local_index(dst_host)));
  } else {
    // edge -> agg a -> core (a,j) -> agg a of dst pod -> edge -> host.
    const int a = p.spine / half_;
    const int j = p.spine % half_;
    r.push(static_cast<std::uint8_t>(uplink_port(a)));
    r.push(static_cast<std::uint8_t>(uplink_port(j)));
    r.push(static_cast<std::uint8_t>(pod_of_leaf(dst_leaf)));
    r.push(static_cast<std::uint8_t>(dst_el));
    r.push(static_cast<std::uint8_t>(local_index(dst_host)));
  }
  return r;
}

Route FatTree::reverse_route(int src_host, int dst_host, int path_id) const {
  Route r;
  const int src_leaf = leaf_of(src_host);
  const int dst_leaf = leaf_of(dst_host);
  if (src_leaf == dst_leaf) {
    r.push(static_cast<std::uint8_t>(local_index(src_host)));
    return r;
  }
  const FabricPath& p = paths_.at(static_cast<std::size_t>(path_id));
  const int src_el = src_leaf % half_;
  if (p.link_idx == kIntraPodPath) {
    r.push(static_cast<std::uint8_t>(uplink_port(p.spine)));
    r.push(static_cast<std::uint8_t>(src_el));
    r.push(static_cast<std::uint8_t>(local_index(src_host)));
  } else {
    const int a = p.spine / half_;
    const int j = p.spine % half_;
    r.push(static_cast<std::uint8_t>(uplink_port(a)));
    r.push(static_cast<std::uint8_t>(uplink_port(j)));
    r.push(static_cast<std::uint8_t>(pod_of_leaf(src_leaf)));
    r.push(static_cast<std::uint8_t>(src_el));
    r.push(static_cast<std::uint8_t>(local_index(src_host)));
  }
  return r;
}

// HERMES_SHARDED: the one barrier-time routine allowed to move state
// across shards — everything goes through the mailbox API (Outbox ->
// Inbox merge); destination switches are only touched later, by the
// inbox delivery event running inside their own shard.
std::uint64_t FatTree::exchange_boundary() {
  const int S = num_shards();
  std::uint64_t moved = 0;
  for (int d = 0; d < S; ++d) {
    Inbox& ib = inboxes_[d];
    // Compact the delivered prefix before merging new mail.
    if (ib.head > 0) {
      ib.pending.erase(ib.pending.begin(),
                       ib.pending.begin() + static_cast<std::ptrdiff_t>(ib.head));
      ib.head = 0;
    }
    const std::size_t old_size = ib.pending.size();
    for (int s = 0; s < S; ++s) {
      if (s == d) continue;
      Outbox& ob = outbox(s, d);
      const std::size_t n = ob.size();
      if (n == 0) continue;
      for (std::size_t i = 0; i < n; ++i) {
        ib.pending.push_back(Mail{ob.deliver_at[i], static_cast<std::uint32_t>(s),
                                  static_cast<std::uint32_t>(i), ob.dst_sw[i], ob.dst_port[i],
                                  std::move(ob.pkts[i])});
      }
      moved += n;
      ob.clear();
    }
    if (ib.pending.size() == old_size) continue;  // no fresh mail: timer stays armed
    // Total order (deliver_at, src_shard, seq): unique keys, so the sort
    // and merge are deterministic. Mail staged in different rounds never
    // ties (each round's mail lands strictly after the previous round's;
    // DESIGN.md §12), so merging new mail behind the old is exact.
    const auto earlier = [](const Mail& a, const Mail& b) {
      if (a.deliver_at != b.deliver_at) return a.deliver_at < b.deliver_at;
      if (a.src_shard != b.src_shard) return a.src_shard < b.src_shard;
      return a.seq < b.seq;
    };
    std::sort(ib.pending.begin() + static_cast<std::ptrdiff_t>(old_size), ib.pending.end(),
              earlier);
    std::inplace_merge(ib.pending.begin(),
                       ib.pending.begin() + static_cast<std::ptrdiff_t>(old_size),
                       ib.pending.end(), earlier);
    arm_inbox(d);
  }
  boundary_packets_ += moved;
  return moved;
}

void FatTree::arm_inbox(int shard) {
  Inbox& ib = inboxes_[static_cast<std::size_t>(shard)];
  ib.timer.cancel();
  if (ib.head < ib.pending.size()) {
    ib.timer = shard_sim(shard).timer_at(ib.pending[ib.head].deliver_at,
                                         [this, shard] { deliver_inbox(shard); });
  }
}

void FatTree::deliver_inbox(int shard) {
  Inbox& ib = inboxes_[static_cast<std::size_t>(shard)];
  const sim::SimTime now = shard_sim(shard).now();
  while (ib.head < ib.pending.size() && ib.pending[ib.head].deliver_at == now) {
    Mail& m = ib.pending[ib.head++];
    m.dst_sw->receive(std::move(m.pkt), m.dst_port);
  }
  if (ib.head < ib.pending.size()) {
    ib.timer = shard_sim(shard).timer_at(ib.pending[ib.head].deliver_at,
                                         [this, shard] { deliver_inbox(shard); });
  } else {
    ib.pending.clear();
    ib.head = 0;
  }
}

}  // namespace hermes::net
