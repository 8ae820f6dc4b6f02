#pragma once

#include <cstdint>
#include <string>

#include "hermes/faults/fault_plan.hpp"
#include "hermes/net/topology.hpp"
#include "hermes/sim/time.hpp"

namespace hermes::faults::fuzz {

/// Which empirical flow-size distribution the scenario's workload draws
/// from (workload::SizeDist::web_search / data_mining, size-scaled).
enum class Workload : std::uint8_t { kWebSearch = 0, kDataMining = 1 };

[[nodiscard]] const char* to_string(Workload w);

// Bounds of the scenario space the generator samples, sized for CI
// throughput (a seed runs in well under a second) while still spanning
// the dimensions the paper's fig16/fig17 hand-written scenarios cover —
// and the overlapping/back-to-back fault patterns they do not. Hosts per
// leaf are drawn from {2, 4, 8}.
inline constexpr int kMinLeaves = 2;
inline constexpr int kMaxLeaves = 4;
inline constexpr int kMinSpines = 2;
inline constexpr int kMaxSpines = 4;
inline constexpr int kMinFlows = 40;
inline constexpr int kMaxFlows = 120;
inline constexpr double kMinLoad = 0.2;
inline constexpr double kMaxLoad = 0.7;
/// Probability of build-time link-capacity asymmetry (fig13/fig14's
/// dimension) via TopologyConfig::fabric_overrides.
inline constexpr double kAsymProb = 0.4;
/// Probability of appending a hand-shaped adversarial fault pattern
/// (flap train, back-to-back blackholes, overlapping link cuts,
/// zero-duration faults) on top of the MTBF/MTTR base plan.
inline constexpr double kEdgePatternProb = 0.6;
/// Wall guard for the generated scenario. Every generated fault heals
/// within ~500ms, and the transport's capped RTO (320ms) retries through
/// any blackhole window, so a healthy run finishes far below this;
/// hitting it means flows were stranded — a triage finding.
inline constexpr sim::SimTime kMaxSimTime = sim::sec(10);

/// One generated scenario: everything needed to reproduce a run from its
/// seed. Scheme-agnostic — the same scenario can race every LoadBalancer
/// on identical topology, arrivals, and fault timeline.
struct FuzzScenario {
  std::uint64_t seed = 0;
  net::TopologyConfig topo;
  Workload workload = Workload::kWebSearch;
  double workload_scale = 0.1;  ///< SizeDist::scaled factor
  double load = 0.5;            ///< fraction of bisection capacity
  int num_flows = 80;
  sim::SimTime max_sim_time{};
  FaultPlan plan;

  /// Canonical text form: one line per dimension and per fault event, in
  /// a fixed field order with fixed float formatting. Byte-identical for
  /// a given seed across runs — the golden-hash determinism test pins
  /// this, so any change to the generator's sampling order is caught.
  [[nodiscard]] std::string describe() const;
};

/// Deterministically expands a seed into a FuzzScenario: topology
/// (leaf-spine dims, link speeds, asymmetry) × workload (web-search /
/// data-mining mix, load point) × FaultPlan (MTBF/MTTR base plan plus
/// overlapping and back-to-back edge patterns). Same seed ⇒ byte-
/// identical scenario; all randomness flows from hermes::engine::Rng.
[[nodiscard]] FuzzScenario generate_scenario(std::uint64_t seed);

}  // namespace hermes::faults::fuzz
