#include <cstdint>
#include <functional>
#include <utility>

#include "hermes/harness/experiment.hpp"

namespace hermes::harness {

stats::FctCollector run_workload_experiment(ScenarioConfig scenario,
                                            const workload::SizeDist& dist, double load,
                                            int num_flows, std::uint64_t seed,
                                            const std::function<void(Scenario&)>& prepare,
                                            const std::function<void(Scenario&)>& finish) {
  scenario.seed = seed;
  Scenario s{std::move(scenario)};
  if (prepare) prepare(s);
  workload::TrafficConfig tc;
  tc.load = load;
  tc.num_flows = num_flows;
  tc.seed = seed;
  s.add_flows(workload::generate_poisson_traffic(s.topology(), dist, tc));
  auto fct = s.run();
  if (finish) finish(s);
  return fct;
}

}  // namespace hermes::harness
