#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "hermes/lb/flow_ctx.hpp"
#include "hermes/net/packet.hpp"
#include "hermes/sim/time.hpp"

namespace hermes::faults {

/// What a timed fault event does to the fabric. Onset and recovery are
/// both plain events, so a plan expresses transient faults (blackhole at
/// t1, clear at t2), permanent ones (onset only), and flap trains.
enum class FaultAction : std::uint8_t {
  kBlackholeOn,    ///< install a blackhole predicate on a switch
  kBlackholeOff,   ///< remove the switch's blackhole predicate
  kRandomDropSet,  ///< set the switch's silent random-drop rate (0 clears)
  kLinkDown,       ///< cut a switch-to-switch link (both directions)
  kLinkUp,         ///< restore a cut link
  kLinkRate,       ///< set a link's capacity (degrade or restore)
};

[[nodiscard]] const char* to_string(FaultAction a);

/// True for the actions that target a link rather than a switch.
[[nodiscard]] inline bool is_link_action(FaultAction a) {
  return a == FaultAction::kLinkDown || a == FaultAction::kLinkUp || a == FaultAction::kLinkRate;
}

/// One timed fault transition. Built via the FaultPlan helpers below;
/// executed by the FaultScheduler through the simulator's event queue.
/// Targets use net::Fabric's names, so a plan can be written from the
/// fabric's shape (net::FabricShape) before the fabric is built: a switch
/// is its index in Fabric::switches() (tier order), and a link is its
/// lower switch plus the ordinal of that uplink there.
struct FaultEvent {
  sim::SimTime at{};
  FaultAction action = FaultAction::kRandomDropSet;
  int sw = -1;      ///< the switch, or a link's lower switch
  int uplink = -1;  ///< link events: the uplink ordinal at `sw`; -1 otherwise
  std::function<bool(const net::Packet&)> blackhole{};  ///< kBlackholeOn only
  /// Drop rate (kRandomDropSet) or fraction of the link's build-time
  /// rate (kLinkRate; 1 restores it).
  double rate = 0.0;
  std::string note{};  ///< free-form label carried into the scheduler log
};

/// Reusable blackhole predicate matching the paper's §5.3.3 setup: data
/// packets between two racks, optionally only half of the host pairs
/// (a TCAM-corruption pattern — deterministic per header, not random).
[[nodiscard]] std::function<bool(const net::Packet&)> rack_pair_blackhole(
    int hosts_per_leaf, int src_leaf, int dst_leaf, bool half_pairs = false);

/// An ordered list of timed FaultEvents. The builder methods return *this
/// so plans read as a timeline (on a leaf-spine, `shape.spine(s)` names
/// spine s, and leaf l's uplink s is its link to spine s):
///
///   const net::FabricShape shape = topo_config.shape();
///   faults::FaultPlan plan;
///   plan.random_drop(sim::msec(10), shape.spine(2), 0.02)
///       .random_drop(sim::msec(200), shape.spine(2), 0.0)  // recovery
///       .link_down(sim::msec(50), /*leaf*/ 1, /*uplink*/ 3)
///       .link_up(sim::msec(120), 1, 3)
///       .link_rate(sim::msec(60), 0, 1, 0.25);             // quarter rate
class FaultPlan {
 public:
  FaultPlan& add(FaultEvent e) {
    events_.push_back(std::move(e));
    return *this;
  }

  /// Install `pred` as switch `sw`'s blackhole at `at`.
  FaultPlan& blackhole_on(sim::SimTime at, int sw, std::function<bool(const net::Packet&)> pred,
                          std::string note = {});
  /// Remove the switch's blackhole at `at`.
  FaultPlan& blackhole_off(sim::SimTime at, int sw, std::string note = {});
  /// Set the switch's silent random-drop rate at `at` (0 heals it).
  FaultPlan& random_drop(sim::SimTime at, int sw, double rate, std::string note = {});
  /// Cut / restore uplink `uplink` of switch `sw` (both directions).
  FaultPlan& link_down(sim::SimTime at, int sw, int uplink, std::string note = {});
  FaultPlan& link_up(sim::SimTime at, int sw, int uplink, std::string note = {});
  /// Run the link at `fraction` of its build-time rate (1 restores it).
  FaultPlan& link_rate(sim::SimTime at, int sw, int uplink, double fraction,
                       std::string note = {});

  /// Blackhole active on [on, off): the transient-failure scenario the
  /// resilience scorecard is built around.
  FaultPlan& transient_blackhole(sim::SimTime on, sim::SimTime off, int sw,
                                 std::function<bool(const net::Packet&)> pred);
  /// Random-drop rate active on [on, off).
  FaultPlan& transient_random_drop(sim::SimTime on, sim::SimTime off, int sw, double rate);
  /// A flap train: `count` on/off cycles starting at `start`, each cycle
  /// `period` long with the fault active for the first `duty` fraction.
  FaultPlan& flap_random_drop(sim::SimTime start, int sw, double rate, sim::SimTime period,
                              int count, double duty = 0.5);
  FaultPlan& flap_link(sim::SimTime start, int sw, int uplink, sim::SimTime period, int count,
                       double duty = 0.5);

  /// Append every event of another plan (composing generated + scripted).
  FaultPlan& merge(const FaultPlan& other);

  /// Events sorted by time (stable: insertion order breaks ties).
  [[nodiscard]] std::vector<FaultEvent> sorted() const {
    std::vector<FaultEvent> out = events_;
    std::stable_sort(out.begin(), out.end(),
                     [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
    return out;
  }
  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace hermes::faults
