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
#include "hermes/net/port.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/metrics.hpp"

namespace hermes::net {

namespace {
constexpr std::uint32_t kPacketWire = 1500;
/// FabricPath::link_idx doubles as the path-kind marker on fat-trees.
constexpr int kInterPodPath = 0;  ///< spine field = core switch id
constexpr int kIntraPodPath = 1;  ///< spine field = agg local index
}  // namespace

std::uint32_t FatTreeConfig::ecn_bytes_for(double rate_bps) const {
  if (ecn_threshold_bytes != 0) return ecn_threshold_bytes;
  const double pkts = std::max(20.0, 65.0 * rate_bps / 10e9);
  return static_cast<std::uint32_t>(pkts * kPacketWire);
}

std::uint32_t FatTreeConfig::queue_bytes_for(double rate_bps) const {
  if (queue_capacity_bytes != 0) return queue_capacity_bytes;
  return std::max<std::uint32_t>(6 * ecn_bytes_for(rate_bps), 150 * 1024);
}

PortConfig FatTreeConfig::port_config(double rate_bps, sim::SimTime prop_delay) const {
  PortConfig pc;
  pc.rate_bps = rate_bps;
  pc.prop_delay = prop_delay;
  pc.ecn_threshold_bytes = ecn_bytes_for(rate_bps);
  pc.queue_capacity_bytes = queue_bytes_for(rate_bps);
  pc.ecn_enabled = ecn_enabled;
  return pc;
}

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

FatTree::FatTree(std::vector<sim::Simulator*> shard_sims, FatTreeConfig config)
    : config_{config}, sims_{std::move(shard_sims)} {
  const int k = config_.k;
  if (k < 4 || k % 2 != 0) throw std::invalid_argument("fat-tree k must be even and >= 4");
  if (sims_.empty()) throw std::invalid_argument("fat-tree needs at least one shard simulator");
  half_ = k / 2;
  const int S = static_cast<int>(sims_.size());
  const int pods = k;
  const int num_edges = pods * half_;
  const int num_aggs = pods * half_;
  const int cores = half_ * half_;

  num_leaves_ = num_edges;
  num_spines_ = cores;
  hosts_per_leaf_ = half_;
  host_rate_bps_ = config_.host_rate_bps;
  // Sustainable inter-rack load unit: total edge->agg uplink capacity
  // (the tier every inter-rack byte crosses exactly once upward).
  bisection_bps_ = static_cast<double>(num_edges) * half_ * config_.fabric_rate_bps;

  arenas_.reserve(S);
  for (int s = 0; s < S; ++s) arenas_.push_back(std::make_unique<PacketArena>());
  outboxes_.resize(static_cast<std::size_t>(S) * S);
  inboxes_.resize(static_cast<std::size_t>(S));

  // Devices, each built against its owning shard's simulator and arena.
  for (int h = 0; h < num_edges * half_; ++h) {
    const int s = shard_of_host(h);
    hosts_.push_back(std::make_unique<Host>(*sims_[s], *arenas_[s], h));
  }
  for (int e = 0; e < num_edges; ++e) {
    const int s = shard_of_leaf(e);
    edges_.push_back(
        std::make_unique<Switch>(*sims_[s], *arenas_[s], e, "edge" + std::to_string(e)));
  }
  for (int a = 0; a < num_aggs; ++a) {
    const int pod = a / half_;
    const int s = shard_of_pod(pod);
    aggs_.push_back(std::make_unique<Switch>(
        *sims_[s], *arenas_[s], a,
        "agg" + std::to_string(pod) + "." + std::to_string(a % half_)));
  }
  for (int c = 0; c < cores; ++c) {
    const int s = shard_of_core(c);
    cores_.push_back(
        std::make_unique<Switch>(*sims_[s], *arenas_[s], c, "core" + std::to_string(c)));
  }

  const PortConfig host_pc = config_.port_config(config_.host_rate_bps, config_.link_delay);
  const PortConfig fab_pc = config_.port_config(config_.fabric_rate_bps, config_.link_delay);
  // Cross-shard egress: zero wire delay into the portal, which re-adds
  // the link delay when stamping the mailbox entry.
  const PortConfig fab_portal_pc =
      config_.port_config(config_.fabric_rate_bps, sim::SimTime::zero());

  // Host <-> edge. Edge ports [0, k/2) go down to hosts.
  for (int e = 0; e < num_edges; ++e) {
    for (int h = 0; h < half_; ++h) {
      const int host_id = e * half_ + h;
      hosts_[host_id]->attach_uplink(host_pc, edges_[e].get(), h);
      const int p = edges_[e]->add_port(host_pc, hosts_[host_id].get(), 0);
      assert(p == h);
      (void)p;
    }
  }

  // Edge <-> agg, always intra-pod (and therefore intra-shard). Edge
  // ports [k/2, k) go up (port k/2+a to agg a); agg ports [0, k/2) go
  // down (port e to local edge e).
  for (int pod = 0; pod < pods; ++pod) {
    for (int el = 0; el < half_; ++el) {
      Switch* edge = edges_[pod * half_ + el].get();
      for (int a = 0; a < half_; ++a) {
        const int up = edge->add_port(fab_pc, aggs_[pod * half_ + a].get(), el);
        assert(up == uplink_port(a));
        edge->port(up).is_fabric = true;
      }
    }
    for (int a = 0; a < half_; ++a) {
      Switch* ag = aggs_[pod * half_ + a].get();
      for (int el = 0; el < half_; ++el) {
        const int down = ag->add_port(fab_pc, edges_[pod * half_ + el].get(), uplink_port(a));
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
      Switch* ag = aggs_[pod * half_ + a].get();
      for (int j = 0; j < half_; ++j) {
        const int c = a * half_ + j;
        int up;
        if (shard_of_pod(pod) == shard_of_core(c)) {
          up = ag->add_port(fab_pc, cores_[c].get(), pod);
        } else {
          const int src = shard_of_pod(pod);
          portals_.push_back(std::make_unique<Portal>(
              *arenas_[src], *sims_[src], outbox(src, shard_of_core(c)), config_.link_delay,
              cores_[c].get(), static_cast<std::uint8_t>(pod)));
          up = ag->add_port(fab_portal_pc, portals_.back().get(), 0);
        }
        assert(up == uplink_port(j));
        ag->port(up).is_fabric = true;
      }
    }
  }
  for (int c = 0; c < cores; ++c) {
    const int a = c / half_;
    const int j = c % half_;
    Switch* core = cores_[c].get();
    for (int pod = 0; pod < pods; ++pod) {
      Switch* ag = aggs_[pod * half_ + a].get();
      int down;
      if (shard_of_core(c) == shard_of_pod(pod)) {
        down = core->add_port(fab_pc, ag, uplink_port(j));
      } else {
        const int src = shard_of_core(c);
        portals_.push_back(std::make_unique<Portal>(
            *arenas_[src], *sims_[src], outbox(src, shard_of_pod(pod)), config_.link_delay, ag,
            static_cast<std::uint8_t>(uplink_port(j))));
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

std::vector<int> FatTree::leaves_of_shard(int shard) const {
  std::vector<int> out;
  for (int e = 0; e < num_leaves_; ++e)
    if (shard_of_leaf(e) == shard) out.push_back(e);
  return out;
}

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

Port& FatTree::leaf_uplink(int leaf_id, int spine, int k) {
  assert(k == 0 && "fat-tree has no parallel links");
  (void)k;
  return edges_[static_cast<std::size_t>(leaf_id)]->port(uplink_port(spine));
}

void FatTree::set_link_state(int leaf_id, int spine, bool up, int k) {
  leaf_uplink(leaf_id, spine, k).set_link_up(up);
  aggs_[static_cast<std::size_t>(pod_of_leaf(leaf_id)) * half_ + spine]
      ->port(leaf_id % half_)
      .set_link_up(up);
}

void FatTree::set_link_rate(int leaf_id, int spine, double rate_bps, int k) {
  leaf_uplink(leaf_id, spine, k).set_rate_bps(rate_bps);
  aggs_[static_cast<std::size_t>(pod_of_leaf(leaf_id)) * half_ + spine]
      ->port(leaf_id % half_)
      .set_rate_bps(rate_bps);
}

double FatTree::configured_link_rate(int /*leaf_id*/, int /*spine*/, int /*k*/) const {
  return config_.fabric_rate_bps;
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
    ib.timer = sims_[static_cast<std::size_t>(shard)]->timer_at(
        ib.pending[ib.head].deliver_at, [this, shard] { deliver_inbox(shard); });
  }
}

void FatTree::deliver_inbox(int shard) {
  Inbox& ib = inboxes_[static_cast<std::size_t>(shard)];
  const sim::SimTime now = sims_[static_cast<std::size_t>(shard)]->now();
  while (ib.head < ib.pending.size() && ib.pending[ib.head].deliver_at == now) {
    Mail& m = ib.pending[ib.head++];
    m.dst_sw->receive(std::move(m.pkt), m.dst_port);
  }
  if (ib.head < ib.pending.size()) {
    ib.timer = sims_[static_cast<std::size_t>(shard)]->timer_at(
        ib.pending[ib.head].deliver_at, [this, shard] { deliver_inbox(shard); });
  } else {
    ib.pending.clear();
    ib.head = 0;
  }
}

void FatTree::set_recorder(obs::FlightRecorder* rec) {
  for (auto& h : hosts_) h->nic().set_recorder(rec);
  for (const auto* group : {&edges_, &aggs_, &cores_}) {
    for (const auto& sw : *group)
      for (int i = 0; i < sw->num_ports(); ++i) sw->port(i).set_recorder(rec);
  }
}

void FatTree::set_recorders(const std::vector<obs::FlightRecorder*>& recs) {
  assert(static_cast<int>(recs.size()) == num_shards());
  for (int h = 0; h < num_hosts(); ++h) hosts_[h]->nic().set_recorder(recs[shard_of_host(h)]);
  for (int e = 0; e < num_leaves_; ++e) {
    Switch& sw = *edges_[e];
    for (int i = 0; i < sw.num_ports(); ++i) sw.port(i).set_recorder(recs[shard_of_leaf(e)]);
  }
  for (std::size_t a = 0; a < aggs_.size(); ++a) {
    Switch& sw = *aggs_[a];
    const int shard = shard_of_pod(static_cast<int>(a) / half_);
    for (int i = 0; i < sw.num_ports(); ++i) sw.port(i).set_recorder(recs[shard]);
  }
  for (int c = 0; c < num_cores(); ++c) {
    Switch& sw = *cores_[c];
    for (int i = 0; i < sw.num_ports(); ++i) sw.port(i).set_recorder(recs[shard_of_core(c)]);
  }
}

void FatTree::register_metrics(obs::MetricsRegistry& reg) {
  const auto sum = [this](std::uint64_t (*pick)(const PortStats&)) {
    std::uint64_t total = 0;
    for (const auto& h : hosts_) total += pick(h->nic().stats());
    for (const auto* group : {&edges_, &aggs_, &cores_}) {
      for (const auto& sw : *group)
        for (int i = 0; i < sw->num_ports(); ++i) total += pick(sw->port(i).stats());
    }
    return total;
  };
  reg.counter_fn("net.tx_packets",
                 [sum] { return sum([](const PortStats& s) { return s.tx_packets; }); });
  reg.counter_fn("net.tx_bytes",
                 [sum] { return sum([](const PortStats& s) { return s.tx_bytes; }); });
  reg.counter_fn("net.drops", [sum] { return sum([](const PortStats& s) { return s.drops; }); });
  reg.counter_fn("net.drop_bytes",
                 [sum] { return sum([](const PortStats& s) { return s.drop_bytes; }); });
  reg.counter_fn("net.link_down_drops",
                 [sum] { return sum([](const PortStats& s) { return s.link_down_drops; }); });
  reg.counter_fn("net.ecn_marks",
                 [sum] { return sum([](const PortStats& s) { return s.ecn_marks; }); });
  reg.counter_fn("net.failure_drops", [this] {
    std::uint64_t total = 0;
    for (const auto* group : {&edges_, &aggs_, &cores_})
      for (const auto& sw : *group) total += sw->failure_drops();
    return total;
  });
}

sim::SimTime FatTree::one_hop_delay() const {
  const double bytes = config_.ecn_bytes_for(config_.fabric_rate_bps);
  return sim::SimTime::from_seconds(bytes * 8.0 / config_.fabric_rate_bps);
}

sim::SimTime FatTree::base_rtt() const {
  // Worst case is inter-pod: 6 links each way (host-edge-agg-core-agg-
  // edge-host), full-size data out, ACK back, serialization once per hop.
  const double rate = std::min(config_.host_rate_bps, config_.fabric_rate_bps);
  const double data_ser = 6 * kPacketWire * 8.0 / rate;
  const double ack_ser = 6 * 64 * 8.0 / rate;
  return 12 * config_.link_delay + sim::SimTime::from_seconds(data_ser + ack_ser);
}

}  // namespace hermes::net
