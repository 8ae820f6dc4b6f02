#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "hermes/faults/fault_plan.hpp"

namespace hermes::faults {

const char* to_string(FaultAction a) {
  switch (a) {
    case FaultAction::kBlackholeOn: return "blackhole-on";
    case FaultAction::kBlackholeOff: return "blackhole-off";
    case FaultAction::kRandomDropSet: return "random-drop";
    case FaultAction::kLinkDown: return "link-down";
    case FaultAction::kLinkUp: return "link-up";
    case FaultAction::kLinkRate: return "link-rate";
  }
  return "?";
}

std::function<bool(const net::Packet&)> rack_pair_blackhole(int hosts_per_leaf, int src_leaf,
                                                            int dst_leaf, bool half_pairs) {
  return [=](const net::Packet& p) {
    if (p.type != net::PacketType::kData) return false;
    if (p.src / hosts_per_leaf != src_leaf || p.dst / hosts_per_leaf != dst_leaf) return false;
    if (!half_pairs) return true;
    // "Half of the source-destination IP pairs": deterministic per header
    // pattern, like a corrupted TCAM entry.
    return lb::mix64(static_cast<std::uint64_t>(p.src) * 4096 +
                     static_cast<std::uint64_t>(p.dst)) %
               2 ==
           0;
  };
}

FaultPlan& FaultPlan::blackhole_on(sim::SimTime at, int sw,
                                   std::function<bool(const net::Packet&)> pred,
                                   std::string note) {
  return add({.at = at, .action = FaultAction::kBlackholeOn, .sw = sw,
              .blackhole = std::move(pred), .note = std::move(note)});
}

FaultPlan& FaultPlan::blackhole_off(sim::SimTime at, int sw, std::string note) {
  return add({.at = at, .action = FaultAction::kBlackholeOff, .sw = sw, .note = std::move(note)});
}

FaultPlan& FaultPlan::random_drop(sim::SimTime at, int sw, double rate, std::string note) {
  return add({.at = at, .action = FaultAction::kRandomDropSet, .sw = sw, .rate = rate,
              .note = std::move(note)});
}

FaultPlan& FaultPlan::link_down(sim::SimTime at, int sw, int uplink, std::string note) {
  return add({.at = at, .action = FaultAction::kLinkDown, .sw = sw, .uplink = uplink,
              .note = std::move(note)});
}

FaultPlan& FaultPlan::link_up(sim::SimTime at, int sw, int uplink, std::string note) {
  return add({.at = at, .action = FaultAction::kLinkUp, .sw = sw, .uplink = uplink,
              .note = std::move(note)});
}

FaultPlan& FaultPlan::link_rate(sim::SimTime at, int sw, int uplink, double fraction,
                                std::string note) {
  return add({.at = at, .action = FaultAction::kLinkRate, .sw = sw, .uplink = uplink,
              .rate = fraction, .note = std::move(note)});
}

FaultPlan& FaultPlan::transient_blackhole(sim::SimTime on, sim::SimTime off, int sw,
                                          std::function<bool(const net::Packet&)> pred) {
  blackhole_on(on, sw, std::move(pred), "transient onset");
  return blackhole_off(off, sw, "transient recovery");
}

FaultPlan& FaultPlan::transient_random_drop(sim::SimTime on, sim::SimTime off, int sw,
                                            double rate) {
  random_drop(on, sw, rate, "transient onset");
  return random_drop(off, sw, 0.0, "transient recovery");
}

FaultPlan& FaultPlan::flap_random_drop(sim::SimTime start, int sw, double rate,
                                       sim::SimTime period, int count, double duty) {
  for (int i = 0; i < count; ++i) {
    const sim::SimTime on = start + sim::SimTime::nanoseconds(period.ns() * i);
    const sim::SimTime off =
        on + sim::SimTime::nanoseconds(static_cast<std::int64_t>(period.ns() * duty));
    transient_random_drop(on, off, sw, rate);
  }
  return *this;
}

FaultPlan& FaultPlan::flap_link(sim::SimTime start, int sw, int uplink, sim::SimTime period,
                                int count, double duty) {
  for (int i = 0; i < count; ++i) {
    const sim::SimTime down = start + sim::SimTime::nanoseconds(period.ns() * i);
    const sim::SimTime up =
        down + sim::SimTime::nanoseconds(static_cast<std::int64_t>(period.ns() * duty));
    link_down(down, sw, uplink, "flap");
    link_up(up, sw, uplink, "flap");
  }
  return *this;
}

FaultPlan& FaultPlan::merge(const FaultPlan& other) {
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
  return *this;
}

}  // namespace hermes::faults
