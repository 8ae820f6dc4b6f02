// Figure 11: [Testbed] web-search workload FCT breakdown in the
// asymmetric case: small-flow (<100KB) average, small-flow 99th
// percentile, and large-flow (>10MB) average (normalized to Hermes).
//
// Paper claims: Hermes 12-30% better than CLOVE-ECN across flow size
// groups; Presto* suffers most on large flows under high load.

#include <array>
#include <cstddef>
#include <vector>

#include "bench_util.hpp"
#include "hermes/harness/experiment.hpp"

int main(int argc, char** argv) {
  using namespace hermes;
  using harness::Scheme;
  const double scale = bench::parse_scale(argc, argv);

  bench::print_header(
      "Figure 11: testbed, asymmetric, web-search FCT breakdown",
      "Hermes ahead of CLOVE-ECN in every size group; large flows hit Presto* hardest");

  auto topo = bench::testbed_topology();
  topo.fabric_overrides[{0, 1, 1}] = 0;

  const Scheme schemes[] = {Scheme::kEcmp, Scheme::kCloveEcn, Scheme::kPrestoStar,
                            Scheme::kHermes};
  const double loads_symmetric[] = {0.45, 0.6};
  const int flows = bench::scaled(600, scale);
  const auto ws = workload::SizeDist::web_search();

  for (double load_sym : loads_symmetric) {
    std::printf("[load %.2f of symmetric capacity, %d flows]\n", load_sym, flows);
    stats::Table t({"scheme", "small avg", "small p99", "large avg",
                    "large avg (norm. to Hermes)"});
    double hermes_large = 0;
    std::vector<std::array<double, 3>> cells;
    for (Scheme scheme : schemes) {
      harness::ScenarioConfig cfg;
      cfg.topo = topo;
      cfg.scheme = scheme;
      cfg.clove.flowlet_timeout = sim::usec(800);
      auto fct = harness::run_workload_experiment(cfg, ws, load_sym / 0.75, flows, 1);
      const auto small = fct.small_flows();
      const auto large = fct.large_flows();
      cells.push_back({small.mean_us, small.p99_us, large.mean_us});
      if (scheme == Scheme::kHermes) hermes_large = large.mean_us;
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      t.add_row({bench::short_name(schemes[i]), stats::Table::usec(cells[i][0]),
                 stats::Table::usec(cells[i][1]), stats::Table::usec(cells[i][2]),
                 stats::Table::num(hermes_large > 0 ? cells[i][2] / hermes_large : 0, 2)});
    }
    t.print();
    std::printf("\n");
  }
  return 0;
}
