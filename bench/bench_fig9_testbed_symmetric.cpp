// Figure 9: [Testbed] overall average FCT, symmetric topology.
//
// Paper claims: Hermes beats ECMP by 10-38% (growing with load), beats
// CLOVE-ECN by 9-15% at 30-70% load, and performs close to Presto*
// (which is near-optimal under symmetry).

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hermes/harness/experiment.hpp"

int main(int argc, char** argv) {
  using namespace hermes;
  using harness::Scheme;
  const double scale = bench::parse_scale(argc, argv);

  bench::print_header(
      "Figure 9: testbed, symmetric topology, overall avg FCT",
      "Hermes 10-38% better than ECMP, up to 15% better than CLOVE-ECN, ~Presto*");

  const Scheme schemes[] = {Scheme::kEcmp, Scheme::kCloveEcn, Scheme::kPrestoStar,
                            Scheme::kHermes};
  const double loads[] = {0.3, 0.5, 0.7, 0.9};

  struct Workload {
    workload::SizeDist dist;
    int flows;
  };
  const Workload workloads[] = {
      {workload::SizeDist::web_search(), bench::scaled(400, scale)},
      {workload::SizeDist::data_mining(), bench::scaled(120, scale)},
  };

  for (const auto& w : workloads) {
    std::printf("[%s workload, %d flows/point]\n", w.dist.name().c_str(), w.flows);
    stats::Table t({"load", "ECMP", "CLOVE-ECN", "Presto*", "Hermes", "Hermes vs ECMP",
                    "Hermes vs CLOVE"});
    for (double load : loads) {
      std::vector<std::string> row{stats::Table::num(load, 1)};
      double ecmp = 0, clove = 0, hermes = 0;
      for (Scheme scheme : schemes) {
        harness::ScenarioConfig cfg;
        cfg.topo = bench::testbed_topology();
        cfg.scheme = scheme;
        // CLOVE-ECN testbed flowlet timeout: the paper picked 800us on 1G.
        cfg.clove.flowlet_timeout = sim::usec(800);
        auto fct = harness::run_workload_experiment(cfg, w.dist, load, w.flows, 1);
        const double mean = fct.overall_with_unfinished().mean_us;
        row.push_back(stats::Table::usec(mean));
        if (scheme == Scheme::kEcmp) ecmp = mean;
        if (scheme == Scheme::kCloveEcn) clove = mean;
        if (scheme == Scheme::kHermes) hermes = mean;
      }
      row.push_back(stats::Table::pct((ecmp - hermes) / ecmp));
      row.push_back(stats::Table::pct((clove - hermes) / clove));
      t.add_row(row);
    }
    t.print();
    std::printf("\n");
  }
  return 0;
}
