#pragma once

#include <cstdint>
#include <functional>

#include "hermes/harness/scenario.hpp"
#include "hermes/stats/fct.hpp"
#include "hermes/workload/flow_gen.hpp"
#include "hermes/workload/size_dist.hpp"

namespace hermes::harness {

/// Run one (scheme, workload, load) cell: generate Poisson traffic on the
/// configured fabric and return the FCT statistics. The traffic depends
/// only on (topology, dist, load, num_flows, seed), so different schemes
/// compared at the same cell see identical flows. `prepare` can install
/// failures or traces on the built scenario before traffic starts;
/// `finish` runs after the simulation, so callers can harvest
/// scenario-side state (e.g. per-reason drop counters) that dies with
/// the Scenario.
[[nodiscard]] stats::FctCollector run_workload_experiment(
    ScenarioConfig scenario, const workload::SizeDist& dist, double load, int num_flows,
    std::uint64_t seed, const std::function<void(Scenario&)>& prepare = {},
    const std::function<void(Scenario&)>& finish = {});

}  // namespace hermes::harness
