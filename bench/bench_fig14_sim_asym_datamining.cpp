// Figure 14: [Simulation] FCT statistics for the data-mining workload on
// the asymmetric fabric (normalized to Hermes).
//
// Paper claims: Hermes beats CONGA by 5-10% and CLOVE-ECN/LetFlow by
// 13-20% — data-mining is much less bursty, so flowlet gaps are rare and
// only Hermes's timely (non-flowlet) rerouting can resolve collisions of
// large flows on the degraded 2G links.

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
      "Figure 14: simulation, asymmetric fabric, data-mining FCT (normalized to Hermes)",
      "Hermes 5-10% better than CONGA, 13-20% better than CLOVE-ECN/LetFlow "
      "(few flowlet gaps in this steady workload)");

  const auto topo = bench::dm_asym_sim_topology();
  const Scheme schemes[] = {Scheme::kConga, Scheme::kLetFlow, Scheme::kCloveEcn,
                            Scheme::kHermes};
  const double loads[] = {0.6, 0.8};
  const int flows = bench::scaled(400, scale);
  const int warmup = bench::scaled(100, scale);
  const auto dm = bench::dm_dist();

  for (double load : loads) {
    std::printf("[load %.1f, %d flows (%d warmup excluded)]\n", load, flows, warmup);
    stats::Table t({"scheme", "overall avg", "large avg", "overall (norm. to Hermes)"});
    double h_overall = 1;
    std::vector<std::pair<double, double>> cells;
    for (Scheme scheme : schemes) {
      harness::ScenarioConfig cfg;
      cfg.topo = topo;
      cfg.scheme = scheme;
      cfg.max_sim_time = sim::sec(30);  // data-mining's giant flows need time
      auto fct = bench::skip_warmup(harness::run_workload_experiment(cfg, dm, load, flows, 1),
                                    static_cast<std::uint64_t>(warmup));
      cells.emplace_back(fct.overall_with_unfinished().mean_us, fct.large_flows().mean_us);
      if (scheme == Scheme::kHermes) h_overall = cells.back().first;
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      t.add_row({bench::short_name(schemes[i]), stats::Table::usec(cells[i].first),
                 stats::Table::usec(cells[i].second),
                 stats::Table::num(cells[i].first / h_overall, 2)});
    }
    t.print();
    std::printf("\n");
  }
  return 0;
}
