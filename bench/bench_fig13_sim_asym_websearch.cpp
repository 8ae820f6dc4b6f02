// Figure 13: [Simulation] FCT statistics for the web-search workload on
// the asymmetric fabric (20% of leaf-spine links degraded 10G -> 2G),
// normalized to Hermes.
//
// Paper claims: CONGA ~10% best overall (web-search's burstiness creates
// flowlets, and CONGA's switch visibility helps small flows); Hermes,
// CLOVE-ECN and LetFlow comparable overall; but flowlet-based schemes'
// SMALL-flow average and 99th percentile blow up at high load (Hermes
// 1.5-3.3x better at 90%) because cautious rerouting protects small
// flows from reordering and congestion mismatch.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench_util.hpp"
#include "hermes/harness/experiment.hpp"

int main(int argc, char** argv) {
  using namespace hermes;
  using harness::Scheme;
  const double scale = bench::parse_scale(argc, argv);

  bench::print_header(
      "Figure 13: simulation, asymmetric fabric, web-search FCT (normalized to Hermes)",
      "overall: CONGA modestly best; small-flow avg & p99: Hermes 1.5-3.3x better "
      "than flowlet schemes at 90% load");

  const auto topo = bench::asym_sim_topology();
  const Scheme schemes[] = {Scheme::kConga, Scheme::kLetFlow, Scheme::kCloveEcn,
                            Scheme::kPrestoStar, Scheme::kHermes};
  const double loads[] = {0.5, 0.7, 0.9};
  const int flows = bench::scaled(1000, scale);
  const int warmup = bench::scaled(250, scale);
  const auto ws = workload::SizeDist::web_search();

  for (double load : loads) {
    std::printf("[load %.1f, %d flows]\n", load, flows);
    stats::Table t({"scheme", "overall avg", "small avg", "small p99", "large avg",
                    "overall (norm)", "small p99 (norm)"});
    double h_overall = 1, h_p99 = 1;
    struct Cell {
      double overall, small_avg, small_p99, large_avg;
    };
    std::vector<Cell> cells;
    for (Scheme scheme : schemes) {
      harness::ScenarioConfig cfg;
      cfg.topo = topo;
      cfg.scheme = scheme;
      auto fct = bench::skip_warmup(harness::run_workload_experiment(cfg, ws, load, flows, 1),
                                    static_cast<std::uint64_t>(warmup));
      Cell c{fct.overall_with_unfinished().mean_us, fct.small_flows().mean_us,
             fct.small_flows().p99_us, fct.large_flows().mean_us};
      cells.push_back(c);
      if (scheme == Scheme::kHermes) {
        h_overall = c.overall;
        h_p99 = c.small_p99;
      }
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      t.add_row({bench::short_name(schemes[i]), stats::Table::usec(cells[i].overall),
                 stats::Table::usec(cells[i].small_avg), stats::Table::usec(cells[i].small_p99),
                 stats::Table::usec(cells[i].large_avg),
                 stats::Table::num(cells[i].overall / h_overall, 2),
                 stats::Table::num(cells[i].small_p99 / h_p99, 2)});
    }
    t.print();
    std::printf("\n");
  }
  return 0;
}
