#pragma once

#include <cstdint>
#include <utility>

#include "hermes/engine/rng.hpp"
#include "hermes/faults/fault_plan.hpp"
#include "hermes/net/fabric.hpp"
#include "hermes/sim/time.hpp"

namespace hermes::faults {

/// MTBF/MTTR fault model: fault onsets arrive as a Poisson process over
/// the whole fabric (exponential inter-onset times with mean `mtbf`);
/// each fault heals after an exponential repair time with mean `mttr`.
/// The fault *kind* is drawn from the weights below, the target switch /
/// link uniformly over every tier. Matches how switch-failure studies
/// (Pingmesh, §2.1) summarize production incident traces.
struct RandomFaultConfig {
  sim::SimTime horizon = sim::sec(1);   ///< generate onsets in [start, start+horizon)
  sim::SimTime start = sim::msec(10);   ///< let the workload ramp up first
  sim::SimTime mtbf = sim::msec(200);   ///< mean time between onsets (fabric-wide)
  sim::SimTime mttr = sim::msec(50);    ///< mean time to repair one fault
  bool half_pair_blackholes = true;  ///< TCAM-style: only half the host pairs
};

// Relative weights of each fault kind (normalized by their sum).
inline constexpr double kWeightRandomDrop = 0.4;
inline constexpr double kWeightBlackhole = 0.3;
inline constexpr double kWeightLinkDown = 0.15;
inline constexpr double kWeightLinkDegrade = 0.15;

inline constexpr double kDropRateLo = 0.01;  ///< silent random-drop severity range
inline constexpr double kDropRateHi = 0.05;
inline constexpr double kDegradeFactor = 0.2;  ///< degraded links run at this capacity fraction

/// Deterministically expands a RandomFaultConfig into a concrete
/// FaultPlan. All randomness comes from the supplied hermes::engine::Rng —
/// fork it from the scenario's seeded simulator (or construct from the
/// scenario seed) so identical seeds replay identical fault timelines.
class RandomFaultGenerator {
 public:
  RandomFaultGenerator(net::FabricShape shape, RandomFaultConfig config, engine::Rng rng)
      : shape_{std::move(shape)}, config_{config}, rng_{rng} {}

  /// Generate the timed onset/recovery events. Every onset gets a
  /// matching recovery event (possibly past the horizon — a fault near
  /// the end of the window still heals on its own schedule).
  [[nodiscard]] FaultPlan generate();

 private:
  net::FabricShape shape_;
  RandomFaultConfig config_;
  engine::Rng rng_;
};

}  // namespace hermes::faults
