// §5.4 "Different transport protocols": Hermes with plain TCP (NewReno,
// no ECN) on the 8x8 fabric, sensing with RTT only and thresholds 1.5x
// larger. The paper reports (figures omitted there for space):
//   * web-search: Hermes within 10-25% of CONGA at all loads, baseline
//     and asymmetric topologies;
//   * data-mining: Hermes performs almost identically to CONGA;
//   * trends mirror DCTCP except CONGA gains slightly, because bursty
//     TCP creates more flowlet gaps.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hermes/harness/experiment.hpp"

int main(int argc, char** argv) {
  using namespace hermes;
  using harness::Scheme;
  const double scale = bench::parse_scale(argc, argv);

  bench::print_header(
      "Section 5.4: plain TCP transport (RTT-only sensing, 1.5x thresholds)",
      "Hermes within 10-25% of CONGA (web-search) and ~identical on data-mining; "
      "TCP's burstiness helps flowlet schemes");

  struct Workload {
    workload::SizeDist dist;
    bool dm;
    int flows;
    int warmup;
  };
  const Workload workloads[] = {
      {workload::SizeDist::web_search(), false, bench::scaled(700, scale),
       bench::scaled(150, scale)},
      {bench::dm_dist(), true, bench::scaled(300, scale), bench::scaled(75, scale)},
  };
  const double loads[] = {0.5, 0.7};

  for (bool asym : {false, true}) {
    std::printf("[%s topology]\n", asym ? "asymmetric (20%% links at 2G)" : "baseline");
    for (const auto& w : workloads) {
      const auto topo = w.dm ? (asym ? bench::dm_asym_sim_topology() : bench::dm_sim_topology())
                             : (asym ? bench::asym_sim_topology() : bench::sim_topology());
      stats::Table t({"load", "ECMP", "CONGA (500us flowlet)", "Hermes (RTT-only)",
                      "Hermes vs CONGA"});
      for (double load : loads) {
        double conga = 0, hermes = 0;
        std::vector<std::string> row{stats::Table::num(load, 1)};
        for (Scheme scheme : {Scheme::kEcmp, Scheme::kConga, Scheme::kHermes}) {
          harness::ScenarioConfig cfg;
          cfg.topo = topo;
          cfg.scheme = scheme;
          cfg.tcp.dctcp = false;  // plain TCP; ECN disabled fabric-wide
          cfg.max_sim_time = sim::sec(30);
          // TCP is burstier: the paper uses a 500us flowlet timeout for
          // CONGA and 1.5x RTT thresholds for Hermes.
          cfg.conga.flowlet_timeout = sim::usec(500);
          cfg.hermes.use_ecn = false;
          {
            // Derive defaults, then scale T_RTT_high and Delta_RTT by 1.5.
            sim::Simulator probe{1};
            net::Topology tp{probe, cfg.topo};
            auto d = lb::HermesConfig::defaults_for(tp);
            cfg.hermes.t_rtt_low = d.t_rtt_low;
            cfg.hermes.t_rtt_high =
                sim::SimTime::nanoseconds(d.t_rtt_high.ns() * 3 / 2);
            cfg.hermes.delta_rtt = sim::SimTime::nanoseconds(d.delta_rtt.ns() * 3 / 2);
          }
          auto fct = bench::skip_warmup(
              harness::run_workload_experiment(cfg, w.dist, load, w.flows, 1),
              static_cast<std::uint64_t>(w.warmup));
          const double mean = fct.overall_with_unfinished().mean_us;
          row.push_back(stats::Table::usec(mean));
          if (scheme == Scheme::kConga) conga = mean;
          if (scheme == Scheme::kHermes) hermes = mean;
        }
        row.push_back(stats::Table::pct((conga - hermes) / conga));
        t.add_row(row);
      }
      std::printf("%s:\n", w.dist.name().c_str());
      t.print();
    }
    std::printf("\n");
  }
  return 0;
}
