// Figure 15: [Simulation] CONGA with different flowlet timeout values on
// the asymmetric fabric, web-search at 80% load, reordering masked.
//
// Paper claims: reducing the timeout from 500us to 150us improves FCT by
// ~6% (more rerouting opportunities), but reducing further to 50us
// degrades it by ~30% — vigorous path changing causes congestion
// mismatch even for a congestion-aware scheme.

#include <cstdint>
#include <vector>

#include "bench_util.hpp"
#include "hermes/harness/experiment.hpp"

int main(int argc, char** argv) {
  using namespace hermes;
  const double scale = bench::parse_scale(argc, argv);

  bench::print_header(
      "Figure 15: CONGA flowlet-timeout sweep (web-search @80%, asymmetric, reordering masked)",
      "500us -> 150us improves ~6%; 150us -> 50us degrades ~30% (congestion mismatch)");

  const auto topo = bench::asym_sim_topology();
  const int flows = bench::scaled(1000, scale);
  const int warmup = bench::scaled(250, scale);
  const auto ws = workload::SizeDist::web_search();

  stats::Table t({"flowlet timeout", "overall avg FCT", "vs 150us"});
  double base150 = 0;
  const int timeouts_us[] = {500, 150, 50};
  struct Row {
    int us;
    double mean;
  };
  std::vector<Row> rows;
  for (int us : timeouts_us) {
    harness::ScenarioConfig cfg;
    cfg.topo = topo;
    cfg.scheme = harness::Scheme::kConga;
    cfg.conga.flowlet_timeout = sim::usec(us);
    // Mask reordering so the effect isolated is congestion mismatch.
    cfg.tcp.reorder_buffer = true;
    auto fct = bench::skip_warmup(harness::run_workload_experiment(cfg, ws, 0.8, flows, 1),
                                  static_cast<std::uint64_t>(warmup));
    rows.push_back({us, fct.overall_with_unfinished().mean_us});
    if (us == 150) base150 = rows.back().mean;
  }
  for (const auto& r : rows) {
    t.add_row({std::to_string(r.us) + "us", stats::Table::usec(r.mean),
               stats::Table::pct((r.mean - base150) / base150)});
  }
  t.print();
  return 0;
}
