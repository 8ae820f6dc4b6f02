// Table 2: average number of concurrent flows observed on parallel paths
// between ToR-to-ToR vs host-to-host pairs.
//
// Paper numbers (8x8 fabric, 10G): switch pair 1.7-5.9 flows per path,
// host pair 0.007-0.022 — i.e. a ToR aggregates ~(hosts/leaf)^2 = 256x
// the visibility of an end host pair, which is why piggybacking-only
// edge schemes are nearly blind and Hermes needs active probing.

#include <map>

#include "bench_util.hpp"

namespace {

/// Flows per pair per path, summed over samples of the active flows.
struct Visibility {
  hermes::harness::Scenario& s;
  int leaves;
  int hosts;  ///< per leaf
  int paths;  ///< per leaf pair
  double switch_vis = 0, host_vis = 0;
  int samples = 0;

  void sample() {
    double active = static_cast<double>(s.active_flows().size());
    // Every active flow sits between exactly one ordered leaf pair
    // and one host pair; visibility = flows per pair per path.
    switch_vis += active / (leaves * (leaves - 1)) / paths;
    host_vis += active / (static_cast<double>(leaves * hosts) * (leaves - 1) * hosts) / paths;
    ++samples;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace hermes;
  const double scale = bench::parse_scale(argc, argv);

  bench::print_header(
      "Table 2: concurrent flows observed on parallel paths (switch pair vs host pair)",
      "switch pair ~1.7-5.9; host pair ~0.007-0.022 (ratio = hosts_per_leaf^2 = 256)");

  struct Cell {
    const char* workload;
    double load;
    workload::SizeDist dist;
  };
  const Cell cells[] = {
      {"data-mining", 0.6, workload::SizeDist::data_mining()},
      {"data-mining", 0.8, workload::SizeDist::data_mining()},
      {"web-search", 0.6, workload::SizeDist::web_search()},
      {"web-search", 0.8, workload::SizeDist::web_search()},
  };

  stats::Table t({"workload", "load", "switch pair", "host pair", "ratio"});
  for (const auto& cell : cells) {
    harness::ScenarioConfig cfg;
    cfg.topo = bench::sim_topology();
    cfg.scheme = harness::Scheme::kEcmp;
    cfg.max_sim_time = sim::sec(30);
    harness::Scenario s{cfg};
    const int flows = bench::scaled(cell.workload[0] == 'd' ? 400 : 2000, scale);
    workload::TrafficConfig tc{.load = cell.load, .num_flows = flows, .seed = 1};
    const auto specs = workload::generate_poisson_traffic(s.topology(), cell.dist, tc);
    s.add_flows(specs);

    Visibility vis{s, cfg.topo.num_leaves, cfg.topo.hosts_per_leaf, cfg.topo.num_spines};
    // Sample only while the arrival process is live (the paper measures
    // a continuously offered load); afterwards the fabric just drains.
    const auto span = specs.back().start;
    for (int i = 1; i <= 200; ++i) {
      s.simulator().at<&Visibility::sample>(span / 5 + (span * 4 / 5) * i / 200, &vis);
    }
    auto fct = s.run();
    (void)fct;
    const double switch_vis = vis.switch_vis / vis.samples;
    const double host_vis = vis.host_vis / vis.samples;
    t.add_row({cell.workload, stats::Table::num(cell.load, 1),
               stats::Table::num(switch_vis, 3), stats::Table::num(host_vis, 4),
               stats::Table::num(host_vis > 0 ? switch_vis / host_vis : 0, 0)});
  }
  t.print();
  std::printf("\nNote: absolute values depend on how long flows stay in the system\n"
              "(our FCTs differ from the testbed's); the switch/host ratio of 256x is\n"
              "the structural result that motivates Hermes's active probing.\n");
  return 0;
}
