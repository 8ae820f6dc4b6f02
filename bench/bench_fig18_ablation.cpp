// Figure 18: [Simulation] Hermes deep dive on the data-mining workload:
// (a) incremental benefit of active probing and of rerouting —
//     probing ~20% and rerouting ~10% improvement of overall avg FCT;
// (b) impact of the probe interval — 500us probing buys 11-15% over no
//     probing; shortening to 100us adds only another 1-3%.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hermes/harness/experiment.hpp"

int main(int argc, char** argv) {
  using namespace hermes;
  const double scale = bench::parse_scale(argc, argv);

  bench::print_header(
      "Figure 18a: Hermes ablation (data-mining): probing and rerouting",
      "probing ~20% improvement, rerouting ~10%; 'without both' is worst");

  const auto topo = bench::dm_asym_sim_topology();
  const int flows = bench::scaled(400, scale);
  const int warmup = bench::scaled(100, scale);
  const double load = 0.7;
  const auto dm = bench::dm_dist();

  struct Variant {
    const char* name;
    bool probing;
    bool rerouting;
  };
  const Variant variants[] = {
      {"Hermes", true, true},
      {"w/o probing", false, true},
      {"w/o rerouting", true, false},
      {"w/o both", false, false},
  };

  {
    stats::Table t({"variant", "overall avg", "small avg", "large avg", "vs full Hermes"});
    double full = 0;
    struct Cell {
      double overall, small, large;
    };
    std::vector<Cell> cells;
    for (const auto& v : variants) {
      harness::ScenarioConfig cfg;
      cfg.topo = topo;
      cfg.scheme = harness::Scheme::kHermes;
      cfg.hermes.probing_enabled = v.probing;
      cfg.hermes.rerouting_enabled = v.rerouting;
      cfg.max_sim_time = sim::sec(30);
      auto fct = bench::skip_warmup(harness::run_workload_experiment(cfg, dm, load, flows, 1),
                                    static_cast<std::uint64_t>(warmup));
      cells.push_back({fct.overall_with_unfinished().mean_us, fct.small_flows().mean_us,
                       fct.large_flows().mean_us});
      if (full == 0) full = cells.back().overall;
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      t.add_row({variants[i].name, stats::Table::usec(cells[i].overall),
                 stats::Table::usec(cells[i].small), stats::Table::usec(cells[i].large),
                 stats::Table::pct((cells[i].overall - full) / full)});
    }
    t.print();
  }

  bench::print_header("Figure 18b: probe interval impact (data-mining)",
                      "500us interval ~11-15% better than no probing; 100us adds 1-3% more");
  {
    stats::Table t({"probe interval", "overall avg", "vs no probing"});
    double none = 0;
    struct Cell {
      std::string label;
      double mean;
    };
    std::vector<Cell> cells;
    const int intervals_us[] = {0, 500, 100};
    for (int us : intervals_us) {
      harness::ScenarioConfig cfg;
      cfg.topo = topo;
      cfg.scheme = harness::Scheme::kHermes;
      cfg.hermes.probing_enabled = us > 0;
      if (us > 0) cfg.hermes.probe_interval = sim::usec(us);
      cfg.max_sim_time = sim::sec(30);
      auto fct = bench::skip_warmup(harness::run_workload_experiment(cfg, dm, load, flows, 1),
                                    static_cast<std::uint64_t>(warmup));
      cells.push_back({us == 0 ? "no probing" : std::to_string(us) + "us",
                       fct.overall_with_unfinished().mean_us});
      if (us == 0) none = cells.back().mean;
    }
    for (const auto& c : cells) {
      t.add_row({c.label, stats::Table::usec(c.mean),
                 stats::Table::pct((none - c.mean) / none)});
    }
    t.print();
  }
  return 0;
}
