// Figure 19: [Simulation] sensitivity of Hermes to T_RTT_high and
// Delta_RTT on the asymmetric fabric.
//
// Paper claims: performance is stable around the recommended settings
// (T_RTT_high 140-280us, Delta_RTT near one-hop delay). The two
// workloads trend oppositely: bursty web-search prefers conservative
// (higher) thresholds that prune excess reroutings; steady data-mining
// prefers aggressive (lower) ones that reroute sooner.

#include <cstdint>

#include "bench_util.hpp"
#include "hermes/harness/experiment.hpp"

int main(int argc, char** argv) {
  using namespace hermes;
  const double scale = bench::parse_scale(argc, argv);

  bench::print_header(
      "Figure 19: sensitivity to T_RTT_high and Delta_RTT (asymmetric fabric)",
      "stable near recommended values; web-search prefers conservative, data-mining "
      "aggressive settings");

  struct Workload {
    workload::SizeDist dist;
    net::TopologyConfig topo;
    int flows;
    int warmup;
  };
  const Workload workloads[] = {
      {workload::SizeDist::web_search(), bench::asym_sim_topology(), bench::scaled(800, scale),
       bench::scaled(200, scale)},
      {bench::dm_dist(), bench::dm_asym_sim_topology(), bench::scaled(350, scale),
       bench::scaled(90, scale)},
  };
  const double load = 0.7;

  for (const auto& w : workloads) {
    std::printf("[%s, %d flows, load %.1f]\n", w.dist.name().c_str(), w.flows, load);

    stats::Table t1({"T_RTT_high (us)", "overall avg FCT"});
    for (int us : {140, 180, 230, 280}) {
      harness::ScenarioConfig cfg;
      cfg.topo = w.topo;
      cfg.scheme = harness::Scheme::kHermes;
      cfg.hermes.t_rtt_high = sim::usec(us);
      cfg.max_sim_time = sim::sec(30);
      auto fct = bench::skip_warmup(harness::run_workload_experiment(cfg, w.dist, load, w.flows, 1),
                                    static_cast<std::uint64_t>(w.warmup));
      t1.add_row({std::to_string(us), stats::Table::usec(fct.overall_with_unfinished().mean_us)});
    }
    t1.print();

    stats::Table t2({"Delta_RTT (us)", "overall avg FCT"});
    for (int us : {40, 80, 120, 160}) {
      harness::ScenarioConfig cfg;
      cfg.topo = w.topo;
      cfg.scheme = harness::Scheme::kHermes;
      cfg.hermes.delta_rtt = sim::usec(us);
      cfg.max_sim_time = sim::sec(30);
      auto fct = bench::skip_warmup(harness::run_workload_experiment(cfg, w.dist, load, w.flows, 1),
                                    static_cast<std::uint64_t>(w.warmup));
      t2.add_row({std::to_string(us), stats::Table::usec(fct.overall_with_unfinished().mean_us)});
    }
    t2.print();
    std::printf("\n");
  }
  return 0;
}
