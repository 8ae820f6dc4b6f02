#include "hermes/net/fabric.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/metrics.hpp"

namespace hermes::net {

namespace {
constexpr std::uint32_t kPacketWire = 1500;
}

std::uint32_t LinkConfig::ecn_bytes_for(double rate_bps) const {
  if (ecn_threshold_bytes != 0) return ecn_threshold_bytes;
  // 65 packets at 10G scaled linearly with rate, but never below 20 packets
  // (the DCTCP guideline for 1G; the paper's testbed uses 30KB at 1G).
  const double pkts = std::max(20.0, 65.0 * rate_bps / 10e9);
  return static_cast<std::uint32_t>(pkts * kPacketWire);
}

std::uint32_t LinkConfig::queue_bytes_for(double rate_bps) const {
  if (queue_capacity_bytes != 0) return queue_capacity_bytes;
  return std::max<std::uint32_t>(6 * ecn_bytes_for(rate_bps), 150 * 1024);
}

PortConfig LinkConfig::port_config(double rate_bps) const {
  PortConfig pc;
  pc.rate_bps = rate_bps;
  pc.prop_delay = kLinkDelay;
  pc.ecn_threshold_bytes = ecn_bytes_for(rate_bps);
  pc.queue_capacity_bytes = queue_bytes_for(rate_bps);
  pc.ecn_enabled = ecn_enabled;
  return pc;
}

std::pair<int, int> FabricShape::link(int n) const {
  for (std::size_t sw = 0; sw < uplinks.size(); ++sw) {
    if (n < uplinks[sw]) return {static_cast<int>(sw), n};
    n -= uplinks[sw];
  }
  throw std::out_of_range("FabricShape::link: no link " + std::to_string(n));
}

Fabric::Fabric(std::vector<sim::Simulator*> shard_sims, const LinkConfig& link)
    : link_{link}, sims_{std::move(shard_sims)} {
  if (sims_.empty()) throw std::invalid_argument("fabric needs at least one shard simulator");
  arenas_.reserve(sims_.size());
  for (std::size_t s = 0; s < sims_.size(); ++s) arenas_.push_back(std::make_unique<PacketArena>());
}

Fabric::~Fabric() = default;

Host& Fabric::add_host(int shard) {
  const int id = static_cast<int>(hosts_.size());
  hosts_.push_back(std::make_unique<Host>(shard_sim(shard), shard_arena(shard), id));
  return *hosts_.back();
}

Switch& Fabric::add_switch(int shard, int id, std::string name) {
  switches_.push_back(
      std::make_unique<Switch>(shard_sim(shard), shard_arena(shard), id, std::move(name)));
  switch_shard_.push_back(shard);
  return *switches_.back();
}

const FabricLink& Fabric::uplink(int sw, int j) const {
  if (j < 0 || j >= num_uplinks(sw)) {
    throw std::out_of_range("switch " + std::to_string(sw) + " has no uplink " +
                            std::to_string(j));
  }
  return std::ranges::lower_bound(links_, sw, {}, &FabricLink::lower)[j];
}

void Fabric::check_path(int path, std::size_t n) {
  if (path < 0 || static_cast<std::size_t>(path) >= n) {
    throw std::out_of_range("no path " + std::to_string(path) + " in a leaf pair of " +
                            std::to_string(n));
  }
}

std::vector<int> Fabric::leaves_of_shard(int shard) const {
  std::vector<int> out;
  for (int l = 0; l < num_leaves_; ++l)
    if (shard_of_switch(l) == shard) out.push_back(l);
  return out;
}

void Fabric::set_recorders(std::span<obs::FlightRecorder* const> recs) {
  for (int h = 0; h < num_hosts(); ++h) {
    host(h).nic().set_recorder(recs[static_cast<std::size_t>(shard_of_host(h))]);
  }
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    Switch& sw = *switches_[i];
    obs::FlightRecorder* rec = recs[static_cast<std::size_t>(switch_shard_[i])];
    for (int p = 0; p < sw.num_ports(); ++p) sw.port(p).set_recorder(rec);
  }
}

void Fabric::register_metrics(obs::MetricsRegistry& reg) {
  // Pull-model: each closure walks the live PortStats at snapshot time,
  // off the packet hot path.
  const auto sum = [this](std::uint64_t (*pick)(const PortStats&)) {
    std::uint64_t total = 0;
    for (const auto& h : hosts_) total += pick(h->nic().stats());
    for (const auto& sw : switches_)
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
    for (const auto& sw : switches_) total += sw->failure_drops();
    return total;
  });
}

sim::SimTime Fabric::one_hop_delay() const {
  // Queueing delay of a fabric link filled to the ECN threshold.
  const double bytes = link_.ecn_bytes_for(link_.fabric_rate_bps);
  return sim::SimTime::from_seconds(bytes * 8.0 / link_.fabric_rate_bps);
}

sim::SimTime Fabric::base_rtt() const {
  const double rate = std::min(link_.host_rate_bps, link_.fabric_rate_bps);
  const double data_ser = max_hops_ * kPacketWire * 8.0 / rate;
  const double ack_ser = max_hops_ * kAckBytes * 8.0 / rate;
  return 2 * max_hops_ * kLinkDelay + sim::SimTime::from_seconds(data_ser + ack_ser);
}

}  // namespace hermes::net
