#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <deque>

#include "hermes/faults/fault_plan.hpp"
#include "hermes/net/fabric.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/metrics.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::faults {

/// One executed fault transition, for post-run reporting.
struct AppliedFault {
  sim::SimTime at{};
  FaultAction action{};
  std::string what;
};

/// The link a link event names (null for a switch event), once the event
/// is checked against `fabric`. Throws std::invalid_argument naming the
/// event when its switch or uplink does not exist, or when a link_rate
/// fraction is not positive.
[[nodiscard]] const net::FabricLink* resolve_target(const FaultEvent& e,
                                                    const net::Fabric& fabric);

/// Executes a FaultPlan against a live fabric: every event is posted on
/// the shard's simulator and, when it fires, mutates the switch, or the
/// ends of the link, that the shard owns. A link with ends in two shards
/// (fat-tree agg<->core) is installed in both; only the shard owning the
/// named switch `sw` logs, records and counts it. The scheduler is the
/// single writer of injected-fault state, so experiments can ask it what
/// is currently broken (`active_faults()`) and subscribe to transitions
/// (`on_transition`, which the InvariantChecker uses to run its checks
/// right after every fault boundary).
class FaultScheduler {
 public:
  /// Applies faults to what shard `shard` of `fabric` owns (everything,
  /// on a one-shard fabric).
  FaultScheduler(sim::Simulator& simulator, net::Fabric& fabric, int shard = 0);

  /// Schedule every event of `plan`. Events timed in the past (relative
  /// to the simulator clock) fire on the next queue pop. May be called
  /// multiple times; plans accumulate. Throws (see resolve_target) before
  /// scheduling anything if an event names a target the fabric lacks.
  void install(const FaultPlan& plan);

  /// Fired after each event has been applied to the fabric.
  std::function<void(const FaultEvent&)> on_transition;

  [[nodiscard]] const std::vector<AppliedFault>& log() const { return log_; }
  [[nodiscard]] std::size_t applied() const { return log_.size(); }
  [[nodiscard]] std::size_t pending() const { return installed_ - log_.size(); }
  /// Number of fault conditions currently active (onsets minus clears);
  /// 0 means the fabric is nominally healthy again.
  [[nodiscard]] int active_faults() const { return active_; }

  /// Attach (null detaches) the scenario's flight recorder: every applied
  /// transition lands in the trace as a kFault record, so `hermestrace`
  /// can correlate reroute decisions with fault boundaries.
  void set_recorder(obs::FlightRecorder* rec) {
    rec_ = rec;
    name_id_ = rec != nullptr ? rec->intern("faults") : 0;
  }
  /// Register "faults.*" counters/gauges with the scenario's registry.
  void register_metrics(obs::MetricsRegistry& reg);

 private:
  [[nodiscard]] bool owns(int sw) const { return fabric_.shard_of_switch(sw) == shard_; }
  [[nodiscard]] net::Switch& switch_at(int sw) {
    return *fabric_.switches()[static_cast<std::size_t>(sw)];
  }
  /// Apply installed event `idx`.
  void apply(std::uint64_t idx);
  void apply_link(const FaultEvent& e, const net::FabricLink& link);
  [[nodiscard]] std::string describe(const FaultEvent& e) const;
  void record_fault(const FaultEvent& e, bool onset);

  sim::Simulator& simulator_;
  net::Fabric& fabric_;
  int shard_;
  obs::FlightRecorder* rec_ = nullptr;  ///< null when observability is off
  std::uint32_t name_id_ = 0;
  std::vector<AppliedFault> log_;
  /// Installed events, owned here; queued callbacks index into this
  /// (append-only, so indices stay stable across install() calls).
  std::deque<FaultEvent> installed_events_;
  std::size_t installed_ = 0;  ///< events whose named switch this shard owns
  int active_ = 0;
};

}  // namespace hermes::faults
