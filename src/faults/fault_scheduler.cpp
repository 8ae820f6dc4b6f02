#include "hermes/faults/fault_scheduler.hpp"

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hermes/net/port.hpp"
#include "hermes/net/switch.hpp"
#include "hermes/obs/metrics.hpp"
#include "hermes/obs/records.hpp"

namespace hermes::faults {

const net::FabricLink* resolve_target(const FaultEvent& e, const net::Fabric& fabric) {
  const bool link = is_link_action(e.action);
  const char* why = nullptr;
  if (e.sw < 0 || e.sw >= static_cast<int>(fabric.switches().size())) {
    why = "no such switch";
  } else if (link && (e.uplink < 0 || e.uplink >= fabric.num_uplinks(e.sw))) {
    why = "no such uplink";
  } else if (e.action == FaultAction::kLinkRate && !(e.rate > 0.0)) {
    why = "link_rate fraction must be positive";
  }
  if (why != nullptr) {
    throw std::invalid_argument(std::string("fault event ") + to_string(e.action) +
                                " sw=" + std::to_string(e.sw) + " uplink=" +
                                std::to_string(e.uplink) + " at_ns=" + std::to_string(e.at.ns()) +
                                ": " + why);
  }
  return link ? &fabric.uplink(e.sw, e.uplink) : nullptr;
}

FaultScheduler::FaultScheduler(sim::Simulator& simulator, net::Fabric& fabric, int shard)
    : simulator_{simulator}, fabric_{fabric}, shard_{shard} {}

void FaultScheduler::install(const FaultPlan& plan) {
  const std::vector<FaultEvent> events = plan.sorted();
  for (const FaultEvent& e : events) (void)resolve_target(e, fabric_);
  // Events are stored on the scheduler and the queue carries only an
  // index, so a FaultEvent's std::string/std::function members are never
  // copied through the event queue.
  for (const FaultEvent& e : events) {
    const std::size_t idx = installed_events_.size();
    installed_events_.push_back(e);
    if (owns(e.sw)) ++installed_;
    simulator_.at<&FaultScheduler::apply>(e.at, this, idx);
  }
}

void FaultScheduler::apply(std::uint64_t idx) {
  const FaultEvent& e = installed_events_[idx];
  if (is_link_action(e.action)) {
    apply_link(e, fabric_.uplink(e.sw, e.uplink));
  } else if (owns(e.sw)) {
    net::Switch& sw = switch_at(e.sw);
    if (e.action == FaultAction::kRandomDropSet) {
      const double prev = sw.failure().random_drop_rate;
      if (prev <= 0.0 && e.rate > 0.0) ++active_;
      if (prev > 0.0 && e.rate <= 0.0) --active_;
      sw.set_random_drop_rate(e.rate);
    } else if (e.action == FaultAction::kBlackholeOn) {
      if (!sw.failure().blackhole) ++active_;  // replacing a hole is not a new fault
      sw.set_blackhole(e.blackhole);
    } else {
      if (sw.failure().blackhole) --active_;
      sw.clear_blackhole();
    }
  }
  // The far end of a cross-shard link only mutates its own port.
  if (!owns(e.sw)) return;
  log_.push_back({simulator_.now(), e.action, describe(e)});
  if (rec_ != nullptr) {
    // Onset vs recovery by action semantics (a kLinkRate below the
    // build-time capacity is a degradation onset; at/above it, recovery).
    bool onset = true;
    switch (e.action) {
      case FaultAction::kBlackholeOn:
      case FaultAction::kLinkDown: onset = true; break;
      case FaultAction::kBlackholeOff:
      case FaultAction::kLinkUp: onset = false; break;
      case FaultAction::kRandomDropSet: onset = e.rate > 0.0; break;
      case FaultAction::kLinkRate: onset = e.rate < 1.0; break;
    }
    record_fault(e, onset);
  }
  if (on_transition) on_transition(e);
}

void FaultScheduler::apply_link(const FaultEvent& e, const net::FabricLink& link) {
  if (owns(link.lower)) {
    // Count the transition off the named (lower) end's port state.
    const net::Port& named = switch_at(link.lower).port(link.lower_port);
    if (e.action == FaultAction::kLinkRate) {
      const bool was_degraded = named.config().rate_bps < link.rate_bps;
      const bool degraded = e.rate < 1.0;
      if (!was_degraded && degraded) ++active_;
      if (was_degraded && !degraded) --active_;
    } else if (named.link_up() != (e.action == FaultAction::kLinkUp)) {
      // Cutting a live link or restoring a cut one; the rest are no-ops.
      active_ += e.action == FaultAction::kLinkDown ? 1 : -1;
    }
  }
  for (const auto& [sw, port] : {std::pair{link.lower, link.lower_port},
                                 std::pair{link.upper, link.upper_port}}) {
    if (!owns(sw)) continue;
    net::Port& p = switch_at(sw).port(port);
    if (e.action == FaultAction::kLinkRate) {
      p.set_rate_bps(e.rate * link.rate_bps);
    } else {
      p.set_link_up(e.action == FaultAction::kLinkUp);
    }
  }
}

void FaultScheduler::record_fault(const FaultEvent& e, bool onset) {
  obs::TraceRecord r = obs::make_record(obs::RecordKind::kFault,
                                        static_cast<std::uint64_t>(simulator_.now().ns()),
                                        name_id_, 0);
  r.u.fault.sw = e.sw;
  r.u.fault.uplink = is_link_action(e.action) ? e.uplink : -1;
  r.u.fault.action = static_cast<std::uint8_t>(e.action);
  r.u.fault.onset = onset ? 1 : 0;
  rec_->append(r);
}

void FaultScheduler::register_metrics(obs::MetricsRegistry& reg) {
  reg.counter_fn("faults.installed", [this] { return static_cast<std::uint64_t>(installed_); });
  reg.counter_fn("faults.applied", [this] { return static_cast<std::uint64_t>(log_.size()); });
  reg.gauge_fn("faults.active", [this] { return static_cast<double>(active_); });
}

std::string FaultScheduler::describe(const FaultEvent& e) const {
  const auto name = [this](int sw) -> const std::string& {
    return fabric_.switches()[static_cast<std::size_t>(sw)]->name();
  };
  std::string s = std::string(to_string(e.action)) + " ";
  if (!is_link_action(e.action)) {
    s += name(e.sw);
    if (e.action == FaultAction::kRandomDropSet) s += " rate=" + std::to_string(e.rate);
  } else {
    // Parallel links between one switch pair are told apart by their rank.
    const net::FabricLink& link = fabric_.uplink(e.sw, e.uplink);
    int parallel = 0;
    for (int j = 0; j < e.uplink; ++j) {
      if (fabric_.uplink(e.sw, j).upper == link.upper) ++parallel;
    }
    s += name(link.lower) + "<->" + name(link.upper) + "/" + std::to_string(parallel);
    if (e.action == FaultAction::kLinkRate) s += " bps=" + std::to_string(e.rate * link.rate_bps);
  }
  if (!e.note.empty()) s += " (" + e.note + ")";
  return s;
}

}  // namespace hermes::faults
