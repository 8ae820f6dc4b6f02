// Extension: the remaining Table 1 baselines under symmetric and
// asymmetric fabrics — FlowBender (the paper implemented it but omitted
// results, remarking it performed "close to ECMP" with default
// parameters) and DRILL (per-packet switch-local; the paper's §7 argues
// it suffers congestion mismatch under asymmetry).

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hermes/harness/experiment.hpp"

int main(int argc, char** argv) {
  using namespace hermes;
  using harness::Scheme;
  const double scale = bench::parse_scale(argc, argv);

  bench::print_header(
      "Extension: Table 1 stragglers (FlowBender, DRILL) vs ECMP and Hermes",
      "FlowBender ~ECMP (blind rehashing); DRILL strong when symmetric, hurt by "
      "asymmetry (local-only visibility)");

  const Scheme schemes[] = {Scheme::kEcmp, Scheme::kFlowBender, Scheme::kDrill,
                            Scheme::kHermes};
  const int flows = bench::scaled(600, scale);
  const auto ws = workload::SizeDist::web_search();

  for (bool asym : {false, true}) {
    const auto topo = asym ? bench::asym_sim_topology() : bench::sim_topology();
    std::printf("[%s fabric, web-search, %d flows]\n",
                asym ? "asymmetric (20% links at 2G)" : "symmetric", flows);
    stats::Table t({"load", "ECMP", "FlowBender", "DRILL", "Hermes"});
    for (double load : {0.5, 0.7}) {
      std::vector<std::string> row{stats::Table::num(load, 1)};
      for (Scheme scheme : schemes) {
        harness::ScenarioConfig cfg;
        cfg.topo = topo;
        cfg.scheme = scheme;
        auto fct = harness::run_workload_experiment(cfg, ws, load, flows, 1);
        row.push_back(stats::Table::usec(fct.overall_with_unfinished().mean_us));
      }
      t.add_row(row);
    }
    t.print();
    std::printf("\n");
  }
  return 0;
}
