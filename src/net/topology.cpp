#include "hermes/net/topology.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/metrics.hpp"

namespace hermes::net {

namespace {
constexpr std::uint32_t kPacketWire = 1500;
}

std::uint32_t TopologyConfig::ecn_bytes_for(double rate_bps) const {
  if (ecn_threshold_bytes != 0) return ecn_threshold_bytes;
  // 65 packets at 10G scaled linearly with rate, but never below 20 packets
  // (the DCTCP guideline for 1G; the paper's testbed uses 30KB at 1G).
  const double pkts = std::max(20.0, 65.0 * rate_bps / 10e9);
  return static_cast<std::uint32_t>(pkts * kPacketWire);
}

std::uint32_t TopologyConfig::queue_bytes_for(double rate_bps) const {
  if (queue_capacity_bytes != 0) return queue_capacity_bytes;
  return std::max<std::uint32_t>(6 * ecn_bytes_for(rate_bps), 150 * 1024);
}

PortConfig TopologyConfig::port_config(double rate_bps) const {
  PortConfig pc;
  pc.rate_bps = rate_bps;
  pc.prop_delay = link_delay;
  pc.ecn_threshold_bytes = ecn_bytes_for(rate_bps);
  pc.queue_capacity_bytes = queue_bytes_for(rate_bps);
  pc.ecn_enabled = ecn_enabled;
  return pc;
}

double Topology::link_rate(int leaf_id, int spine, int k) const {
  auto it = config_.fabric_overrides.find({leaf_id, spine, k});
  return it != config_.fabric_overrides.end() ? it->second : config_.fabric_rate_bps;
}

Topology::Topology(sim::Simulator& simulator, TopologyConfig config)
    : simulator_{simulator}, config_{config} {
  const int L = config_.num_leaves;
  const int S = config_.num_spines;
  const int H = config_.hosts_per_leaf;
  const int M = config_.links_per_pair;
  if (L < 1 || S < 1 || H < 1 || M < 1) throw std::invalid_argument("bad topology shape");

  // Fabric dimension members (the abstract interface's concrete shape).
  num_leaves_ = L;
  num_spines_ = S;
  hosts_per_leaf_ = H;
  host_rate_bps_ = config_.host_rate_bps;

  for (int i = 0; i < L * H; ++i) hosts_.push_back(std::make_unique<Host>(simulator_, arena_, i));
  for (int i = 0; i < L; ++i)
    leaves_.push_back(std::make_unique<Switch>(simulator_, arena_, i, "leaf" + std::to_string(i)));
  for (int i = 0; i < S; ++i)
    spines_.push_back(
        std::make_unique<Switch>(simulator_, arena_, i, "spine" + std::to_string(i)));

  // Host <-> leaf links. Leaf ports [0, H) go down to hosts.
  for (int l = 0; l < L; ++l) {
    for (int h = 0; h < H; ++h) {
      const int host_id = l * H + h;
      hosts_[host_id]->attach_uplink(config_.port_config(config_.host_rate_bps),
                                     leaves_[l].get(), h);
      const int p = leaves_[l]->add_port(config_.port_config(config_.host_rate_bps),
                                         hosts_[host_id].get(), 0);
      assert(p == h);
      (void)p;
    }
  }
  // Leaf <-> spine links. Leaf ports [H, H + S*M) go up; spine ports
  // [0, L*M) go down. Asymmetric overrides apply to both directions;
  // rate 0 means the link is cut (paths through it are excluded).
  for (int l = 0; l < L; ++l) {
    for (int s = 0; s < S; ++s) {
      for (int k = 0; k < M; ++k) {
        const double rate = link_rate(l, s, k);
        const double effective = rate > 0 ? rate : config_.fabric_rate_bps;
        const int up = leaves_[l]->add_port(config_.port_config(effective), spines_[s].get(),
                                            downlink_port_index(l, k));
        assert(up == uplink_port_index(s, k));
        leaves_[l]->port(up).is_fabric = true;
      }
    }
  }
  for (int s = 0; s < S; ++s) {
    for (int l = 0; l < L; ++l) {
      for (int k = 0; k < M; ++k) {
        const double rate = link_rate(l, s, k);
        const double effective = rate > 0 ? rate : config_.fabric_rate_bps;
        const int down = spines_[s]->add_port(config_.port_config(effective), leaves_[l].get(),
                                              uplink_port_index(s, k));
        assert(down == downlink_port_index(l, k));
        spines_[s]->port(down).is_fabric = true;
      }
    }
  }

  // Shared-memory buffering (optional): one Dynamic Threshold pool per
  // switch instead of static per-port carving.
  if (config_.shared_buffer_bytes > 0) {
    for (auto& sw : leaves_) sw->use_shared_buffer(config_.shared_buffer_bytes, config_.dt_alpha);
    for (auto& sw : spines_) sw->use_shared_buffer(config_.shared_buffer_bytes, config_.dt_alpha);
  }

  // Enumerate usable paths per ordered leaf pair.
  for (int a = 0; a < L; ++a) {
    for (int b = 0; b < L; ++b) {
      if (a == b) continue;
      const std::size_t first = paths_.size();
      for (int s = 0; s < S; ++s) {
        for (int k = 0; k < M; ++k) {
          const double up_rate = link_rate(a, s, k);
          const double down_rate = link_rate(b, s, k);
          if (up_rate <= 0 || down_rate <= 0) continue;  // cut link
          FabricPath p;
          p.src_leaf = a;
          p.dst_leaf = b;
          p.spine = s;
          p.link_idx = k;
          p.local_index = static_cast<int>(paths_.size() - first);
          p.capacity_bps = std::min(up_rate, down_rate);
          paths_.push_back(p);
        }
      }
      if (paths_.size() == first) throw std::invalid_argument("leaf pair disconnected by overrides");
    }
  }
  index_paths();

  bisection_bps_ = 0;
  for (int l = 0; l < L; ++l)
    for (int s = 0; s < S; ++s)
      for (int k = 0; k < M; ++k) bisection_bps_ += std::max(0.0, link_rate(l, s, k));
}

Route Topology::forward_route(int src_host, int dst_host, int path_id) const {
  Route r;
  const int src_leaf = leaf_of(src_host);
  const int dst_leaf = leaf_of(dst_host);
  if (src_leaf == dst_leaf) {
    r.push(static_cast<std::uint8_t>(local_index(dst_host)));
    return r;
  }
  const FabricPath& p = paths_.at(static_cast<std::size_t>(path_id));
  assert(p.src_leaf == src_leaf && p.dst_leaf == dst_leaf);
  r.push(static_cast<std::uint8_t>(uplink_port_index(p.spine, p.link_idx)));
  r.push(static_cast<std::uint8_t>(downlink_port_index(dst_leaf, p.link_idx)));
  r.push(static_cast<std::uint8_t>(local_index(dst_host)));
  return r;
}

Route Topology::reverse_route(int src_host, int dst_host, int path_id) const {
  Route r;
  const int src_leaf = leaf_of(src_host);
  const int dst_leaf = leaf_of(dst_host);
  if (src_leaf == dst_leaf) {
    r.push(static_cast<std::uint8_t>(local_index(src_host)));
    return r;
  }
  const FabricPath& p = paths_.at(static_cast<std::size_t>(path_id));
  r.push(static_cast<std::uint8_t>(uplink_port_index(p.spine, p.link_idx)));
  r.push(static_cast<std::uint8_t>(downlink_port_index(src_leaf, p.link_idx)));
  r.push(static_cast<std::uint8_t>(local_index(src_host)));
  return r;
}

Port& Topology::leaf_uplink(int leaf_id, int spine, int k) {
  return leaves_[leaf_id]->port(uplink_port_index(spine, k));
}

Port& Topology::spine_downlink(int spine, int leaf_id, int k) {
  return spines_[spine]->port(downlink_port_index(leaf_id, k));
}

void Topology::set_link_state(int leaf_id, int spine, bool up, int k) {
  leaf_uplink(leaf_id, spine, k).set_link_up(up);
  spine_downlink(spine, leaf_id, k).set_link_up(up);
}

void Topology::set_link_rate(int leaf_id, int spine, double rate_bps, int k) {
  leaf_uplink(leaf_id, spine, k).set_rate_bps(rate_bps);
  spine_downlink(spine, leaf_id, k).set_rate_bps(rate_bps);
}

void Topology::set_recorder(obs::FlightRecorder* rec) {
  for (auto& h : hosts_) h->nic().set_recorder(rec);
  for (auto& sw : leaves_)
    for (int i = 0; i < sw->num_ports(); ++i) sw->port(i).set_recorder(rec);
  for (auto& sw : spines_)
    for (int i = 0; i < sw->num_ports(); ++i) sw->port(i).set_recorder(rec);
}

void Topology::register_metrics(obs::MetricsRegistry& reg) {
  // Pull-model: each closure walks the live PortStats at snapshot time.
  // Topologies are a few hundred ports at most, so the walk is cheap and
  // happens off the packet hot path.
  const auto sum = [this](std::uint64_t (*pick)(const PortStats&)) {
    std::uint64_t total = 0;
    for (const auto& h : hosts_) total += pick(h->nic().stats());
    for (const auto& sw : leaves_)
      for (int i = 0; i < sw->num_ports(); ++i) total += pick(sw->port(i).stats());
    for (const auto& sw : spines_)
      for (int i = 0; i < sw->num_ports(); ++i) total += pick(sw->port(i).stats());
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
    for (const auto& sw : leaves_) total += sw->failure_drops();
    for (const auto& sw : spines_) total += sw->failure_drops();
    return total;
  });
}

sim::SimTime Topology::one_hop_delay() const {
  // Queueing delay of a fabric link filled to the ECN threshold.
  const double bytes = config_.ecn_bytes_for(config_.fabric_rate_bps);
  return sim::SimTime::from_seconds(bytes * 8.0 / config_.fabric_rate_bps);
}

sim::SimTime Topology::base_rtt() const {
  // 4 links each way (host->leaf->spine->leaf->host), full-size data out,
  // ACK back; serialization counted once per hop.
  const double data_ser = 4 * kPacketWire * 8.0 / std::min(config_.host_rate_bps, config_.fabric_rate_bps);
  const double ack_ser = 4 * 64 * 8.0 / std::min(config_.host_rate_bps, config_.fabric_rate_bps);
  return 8 * config_.link_delay + sim::SimTime::from_seconds(data_ser + ack_ser);
}

}  // namespace hermes::net
