#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hermes/faults/fault_plan.hpp"
#include "hermes/net/fabric.hpp"
#include "hermes/net/host.hpp"
#include "hermes/net/port.hpp"
#include "hermes/obs/metrics.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::faults {

/// The invariants the checker enforces. Each gets its own violation
/// counter in the metrics registry, so a fuzz triage can tell *which*
/// invariant broke without parsing message text.
enum class Invariant : std::uint8_t {
  kByteConservation = 0,
  kQueueBound = 1,
  kSharedBuffer = 2,
};
inline constexpr int kNumInvariants = 3;

[[nodiscard]] const char* to_string(Invariant inv);

/// A broken invariant. `what` is self-contained for triage logs: it
/// always carries the simulated time, the invariant's name, and the
/// implicated flow id (or `flow=-` when no single flow is implicated).
struct InvariantViolation {
  sim::SimTime at{};
  Invariant invariant = Invariant::kByteConservation;
  /// Implicated flow, when the invariant is flow-attributable;
  /// kNoFlow for fabric-global invariants (conservation, pools).
  std::uint64_t flow_id = kNoFlow;
  std::string what;

  static constexpr std::uint64_t kNoFlow = ~0ull;
};

struct InvariantCheckerConfig {
  /// Periodic sweep interval; zero disables the periodic check (checks
  /// then run only at fault transitions and explicit check_now calls).
  sim::SimTime period = sim::msec(5);
  /// A flow with zero ACK progress for this long counts as stuck. Not a
  /// violation — faults legitimately stall flows — but the count feeds
  /// the resilience scorecard ("who strands flows, for how long").
  sim::SimTime stuck_after = sim::msec(50);
  bool check_queue_bounds = true;
};

/// A flow's ACK progress, snapshotted by the harness for the watchdog.
struct FlowProgress {
  std::uint64_t id = 0;
  std::uint64_t bytes_acked = 0;
};

/// Runtime invariant checking over a live fabric: host NICs plus every
/// switch of every tier. Installed once after the fabric and host stacks
/// are built, it wraps the per-port and per-host observer hooks to
/// maintain global packet/byte accounting and asserts, at every fault
/// transition and periodically:
///
///   1. Byte conservation — every byte a host NIC accepted is delivered
///      to a host, dropped (queue, link-down, or injected switch
///      failure), or still in flight (queued or propagating). Silent
///      fault injectors must not make bytes vanish from the accounting.
///   2. Bounded queues — no drop-tail queue exceeds its configured
///      capacity; shared-buffer switches never exceed their pool.
///   3. Stuck-flow watchdog — counts active flows with no ACK progress
///      for `stuck_after` (scorecard metric, not a violation).
///
/// Hard violations accumulate in `violations()`; a clean run has
/// `ok() == true`. Note the checker chains onto Port::on_drop /
/// Port::on_enqueue / Host::on_receive — code that *overwrites* (rather
/// than chains) those hooks after installation breaks the accounting.
class InvariantChecker {
 public:
  /// `simulator` runs the periodic checks; every device of `fabric` must
  /// run on it (a one-shard fabric).
  InvariantChecker(sim::Simulator& simulator, net::Fabric& fabric,
                   InvariantCheckerConfig config = {});

  /// Wire the flow-progress source (the harness snapshots active senders).
  void set_flow_snapshot(std::function<std::vector<FlowProgress>()> fn) {
    snapshot_fn_ = std::move(fn);
  }

  /// Run every invariant check right now (also advances the watchdog).
  void check_now(const char* context);
  /// FaultScheduler::on_transition target: re-checks invariants at the
  /// fault boundary and advances the stuck-flow watchdog.
  void on_fault_transition(const FaultEvent& e);

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<InvariantViolation>& violations() const { return violations_; }
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }
  /// Violations of one specific invariant so far.
  [[nodiscard]] std::uint64_t violation_count(Invariant inv) const {
    return violation_counts_[static_cast<int>(inv)];
  }

  /// Register per-invariant violation counters ("invariants.violation.
  /// byte_conservation", ...) plus checks/stuck-flow telemetry. Pull-model:
  /// closures read the counters this checker already maintains.
  void register_metrics(obs::MetricsRegistry& reg);

  // --- accounting (network-level, cumulative) ---------------------------
  [[nodiscard]] std::uint64_t injected_bytes() const { return injected_bytes_; }
  [[nodiscard]] std::uint64_t delivered_bytes() const { return delivered_bytes_; }
  /// All drops: queue overflow + link-down + injected switch failures.
  [[nodiscard]] std::uint64_t dropped_bytes() const;
  /// Bytes currently queued at or propagating on any port.
  [[nodiscard]] std::uint64_t in_flight_bytes() const;
  [[nodiscard]] std::uint64_t injected_packets() const { return injected_packets_; }
  [[nodiscard]] std::uint64_t delivered_packets() const { return delivered_packets_; }

  // --- watchdog ---------------------------------------------------------
  /// Flows stuck (no ACK progress for >= stuck_after) at the last check.
  [[nodiscard]] std::size_t stuck_flows() const { return stuck_flows_; }
  /// High-water mark of stuck flows over the whole run.
  [[nodiscard]] std::size_t max_stuck_flows() const { return max_stuck_flows_; }

 private:
  void install_hooks();
  void tick();
  void update_watchdog();
  void check_conservation(const char* context);
  void check_queue_bounds(const char* context);
  template <typename Fn>
  void for_each_port(Fn&& fn) const;
  void violation(Invariant inv, const std::string& what,
                 std::uint64_t flow_id = InvariantViolation::kNoFlow);

  sim::Simulator& simulator_;
  net::Fabric& fabric_;
  InvariantCheckerConfig config_;
  std::function<std::vector<FlowProgress>()> snapshot_fn_;

  // Hooks that were installed before the checker wrapped them. The
  // port/host hooks have fixed inline capacity (sim::InlineCallable), so
  // the wrapper cannot capture its predecessor by value the way a
  // std::function chain could; instead predecessors live here and the
  // wrappers capture `this` plus an index (16 bytes).
  std::vector<net::Port::Hook> prev_nic_enqueue_;   ///< one per host NIC
  std::vector<net::Port::Hook> prev_nic_drop_;      ///< one per host NIC
  std::vector<net::Host::ReceiveFn> prev_host_rx_;  ///< one per host
  std::vector<net::Port::Hook> prev_switch_drop_;   ///< switch ports, flattened

  std::uint64_t injected_packets_ = 0;
  std::uint64_t injected_bytes_ = 0;
  std::uint64_t delivered_packets_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t hook_dropped_packets_ = 0;
  std::uint64_t hook_dropped_bytes_ = 0;

  struct Progress {
    std::uint64_t bytes = 0;
    sim::SimTime since{};
    std::uint64_t epoch = 0;  ///< watchdog pass that last saw this flow
  };
  std::unordered_map<std::uint64_t, Progress> progress_;
  std::uint64_t watchdog_epoch_ = 0;
  std::size_t stuck_flows_ = 0;
  std::size_t max_stuck_flows_ = 0;

  std::vector<InvariantViolation> violations_;
  std::uint64_t violation_counts_[kNumInvariants] = {};
  std::uint64_t checks_run_ = 0;
};

}  // namespace hermes::faults
