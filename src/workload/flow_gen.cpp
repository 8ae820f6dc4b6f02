#include "hermes/workload/flow_gen.hpp"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace hermes::workload {

std::vector<transport::FlowSpec> generate_poisson_traffic(const net::Fabric& topo,
                                                          const SizeDist& dist,
                                                          const TrafficConfig& cfg) {
  if (cfg.load <= 0) throw std::invalid_argument("load must be positive");
  if (topo.num_leaves() < 2 && cfg.inter_rack_only)
    throw std::invalid_argument("inter-rack traffic needs at least two leaves");

  engine::Rng rng{cfg.seed};
  const double lambda = cfg.load * topo.bisection_bps() / 8.0 / dist.mean_bytes();
  const double mean_gap_sec = 1.0 / lambda;

  std::vector<transport::FlowSpec> flows;
  flows.reserve(static_cast<std::size_t>(cfg.num_flows));
  double t = 0;
  const int n = topo.num_hosts();
  for (int i = 0; i < cfg.num_flows; ++i) {
    t += rng.exponential(mean_gap_sec);
    transport::FlowSpec f;
    f.id = static_cast<std::uint64_t>(i) + 1;
    f.start = sim::SimTime::from_seconds(t);
    f.size = dist.sample(rng);
    f.src = static_cast<std::int32_t>(rng.next(static_cast<std::uint64_t>(n)));
    do {
      f.dst = static_cast<std::int32_t>(rng.next(static_cast<std::uint64_t>(n)));
    } while (f.dst == f.src ||
             (cfg.inter_rack_only && topo.leaf_of(f.dst) == topo.leaf_of(f.src)));
    flows.push_back(f);
  }
  return flows;
}

}  // namespace hermes::workload
