// Figure 12: [Simulation] overall average FCT on the baseline symmetric
// leaf-spine fabric.
//
// Paper claims: web-search — Hermes up to 55% better than ECMP and
// within 17% of CONGA at all loads; data-mining — Hermes 29% better than
// ECMP at high load and slightly (<=4%) better than CONGA thanks to
// timely rerouting of colliding large flows.
//
// Web-search runs on the paper's 8x8/128-host fabric. Data-mining runs
// on the 4x4 variant with the distribution scaled 0.5x so steady state
// is reachable in a tractable run (see bench_util.hpp).
//
// The (setup, load, scheme) grid is a pure map — every cell owns its
// Scenario/EventQueue/RNG — so cells run concurrently on a
// ThreadPool and the tables are assembled from the index-ordered
// results: output is byte-identical to a serial run.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hermes/harness/experiment.hpp"
#include "hermes/sim/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace hermes;
  using harness::Scheme;
  const double scale = bench::parse_scale(argc, argv);

  bench::print_header(
      "Figure 12: simulation baseline (symmetric), overall avg FCT",
      "web-search: ECMP worst, Hermes within ~17% of CONGA; "
      "data-mining: Hermes matches or slightly beats CONGA (timely rerouting)");

  const Scheme schemes[] = {Scheme::kEcmp, Scheme::kConga, Scheme::kHermes};
  const double loads[] = {0.4, 0.6, 0.8, 0.9};

  struct Setup {
    workload::SizeDist dist;
    net::TopologyConfig topo;
    int flows;
    int warmup;
  };
  const Setup setups[] = {
      {workload::SizeDist::web_search(), bench::sim_topology(), bench::scaled(1200, scale),
       bench::scaled(300, scale)},
      {bench::dm_dist(), bench::dm_sim_topology(), bench::scaled(400, scale),
       bench::scaled(100, scale)},
  };

  struct Cell {
    const Setup* setup;
    double load;
    Scheme scheme;
  };
  std::vector<Cell> cells;
  for (const auto& setup : setups)
    for (double load : loads)
      for (Scheme scheme : schemes) cells.push_back({&setup, load, scheme});

  const sim::ThreadPool runner;
  const auto means = runner.map<double>(cells.size(), [&](std::size_t i) {
    const Cell& c = cells[i];
    harness::ScenarioConfig cfg;
    cfg.topo = c.setup->topo;
    cfg.scheme = c.scheme;
    cfg.max_sim_time = sim::sec(30);
    const auto fct = bench::skip_warmup(
        harness::run_workload_experiment(cfg, c.setup->dist, c.load, c.setup->flows, 1),
        static_cast<std::uint64_t>(c.setup->warmup));
    return fct.overall_with_unfinished().mean_us;
  });

  std::size_t cell = 0;
  for (const auto& setup : setups) {
    std::printf("[%s workload, %d flows/point (%d warmup excluded)]\n",
                setup.dist.name().c_str(), setup.flows, setup.warmup);
    stats::Table t({"load", "ECMP", "CONGA", "Hermes", "Hermes vs ECMP", "Hermes vs CONGA"});
    for (double load : loads) {
      std::vector<std::string> row{stats::Table::num(load, 1)};
      double ecmp = 0, conga = 0, hermes = 0;
      for (Scheme scheme : schemes) {
        const double mean = means[cell++];
        row.push_back(stats::Table::usec(mean));
        if (scheme == Scheme::kEcmp) ecmp = mean;
        if (scheme == Scheme::kConga) conga = mean;
        if (scheme == Scheme::kHermes) hermes = mean;
      }
      row.push_back(stats::Table::pct((ecmp - hermes) / ecmp));
      row.push_back(stats::Table::pct((conga - hermes) / conga));
      t.add_row(row);
    }
    t.print();
    std::printf("\n");
  }
  return 0;
}
