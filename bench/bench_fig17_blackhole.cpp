// Figure 17: [Simulation] performance under a packet blackhole: one spine
// deterministically drops packets of half the source-destination pairs
// from rack 1 to rack 8 (indices 0 and 7 here), web-search workload.
//
// Paper claims: Hermes detects the blackhole after 3 timeouts, so every
// flow finishes and Hermes is >=1.6x better than all others; ECMP
// strands the flows hashed onto the failed switch (unfinished flows blow
// its average up 9-22x); CONGA shifts MORE flows into the blackhole (it
// looks uncongested); Presto* finishes everything (round robin touches
// all paths) but is slowed; LetFlow escapes eventually via flowlets.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hermes/harness/experiment.hpp"
#include "hermes/lb/flow_ctx.hpp"

namespace {

// Where the Hermes cell's flight-recorder dump goes (--trace=<path>).
// `hermestrace <path> --summary` then lists the blackhole latches —
// flow, path, and leaf pair — that explain the table's "bh drops" column.
std::string parse_trace_path(int argc, char** argv) {
  std::string path = "TRACE_fig17_hermes.htrc";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) path = argv[i] + 8;
  }
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hermes;
  using harness::Scheme;
  const double scale = bench::parse_scale(argc, argv);

  bench::print_header(
      "Figure 17: packet blackhole (half of rack0->rack7 pairs at one spine), web-search",
      "Hermes: all flows finish, >=1.6x better; ECMP ~unfinished flows, 9-22x worse; "
      "CONGA worse than ECMP (shifts flows INTO the blackhole)");

  const Scheme schemes[] = {Scheme::kEcmp, Scheme::kConga, Scheme::kLetFlow,
                            Scheme::kPrestoStar, Scheme::kHermes};
  const double loads[] = {0.3, 0.5, 0.7};
  const int flows = bench::scaled(1000, scale);
  const int warmup = bench::scaled(200, scale);
  const auto ws = workload::SizeDist::web_search();
  const int failed_spine = 2;

  bench::MetricsJson mj{"bench_fig17_blackhole"};
  const std::string trace_path = parse_trace_path(argc, argv);

  for (double load : loads) {
    std::printf("[load %.1f, %d flows, blackhole at spine %d]\n", load, flows, failed_spine);
    stats::Table t({"scheme", "avg FCT (incl. unfinished)", "unfinished", "affected-pair avg",
                    "bh drops", "norm. to Hermes"});
    double hermes = 1;
    struct Cell {
      double mean, unfinished, affected;
      std::uint64_t bh_drops;
    };
    std::vector<Cell> cells;
    for (Scheme scheme : schemes) {
      harness::ScenarioConfig cfg;
      cfg.topo = bench::sim_topology();
      cfg.scheme = scheme;
      cfg.max_sim_time = sim::sec(5);
      if (scheme == Scheme::kHermes) {
        // Record Hermes's Algorithm-2 decisions (not per-packet events —
        // the ring would wrap long before the blackhole latches land).
        cfg.obs.enabled = true;
        cfg.obs.trace_packets = false;
      }
      auto install = [&](harness::Scenario& s) {
        s.topology().spine(failed_spine).set_failure(
            {.blackhole =
                 [&topo = s.topology()](const net::Packet& p) {
                   if (p.type != net::PacketType::kData) return false;
                   if (topo.leaf_of(p.src) != 0 || topo.leaf_of(p.dst) != 7) return false;
                   // "half of the source-destination IP pairs"
                   return lb::mix64(static_cast<std::uint64_t>(p.src) * 4096 +
                                    static_cast<std::uint64_t>(p.dst)) %
                              2 ==
                          0;
                 },
             .random_drop_rate = 0.0});
      };
      // Fewer blackhole drops = the scheme stopped feeding the dead
      // paths (Hermes latches after 3 timeouts; CONGA keeps feeding).
      std::uint64_t bh_drops = 0;
      auto harvest = [&](harness::Scenario& s) {
        bh_drops = s.topology().spine(failed_spine).blackhole_drops();
        mj.add_cell(bench::short_name(scheme), load, s.metrics().snapshot_json());
        // Each Hermes cell overwrites the dump, so the file ends up with
        // the highest load — the cell where blackhole latches actually
        // fire (at 0.3 the affected pairs rarely re-hit the dead path
        // three times, so the detector never has to latch).
        if (scheme == Scheme::kHermes && s.dump_trace(trace_path)) {
          std::printf("wrote %s (load %.1f)\n", trace_path.c_str(), load);
        }
      };
      auto fct = bench::skip_warmup(
          harness::run_workload_experiment(cfg, ws, load, flows, 1, install, harvest),
          static_cast<std::uint64_t>(warmup));
      // Affected-pair breakdown: the collector has no src/dst, so
      // approximate the affected set by the slowest 2% of flows
      // (dominated by blackholed pairs).
      double affected_sum = 0;
      int affected_n = 0;
      std::vector<double> fcts;
      for (const auto& r : fct.records()) fcts.push_back(r.fct().to_usec());
      const double p98 = stats::percentile(fcts, 98);
      for (double v : fcts)
        if (v >= p98) {
          affected_sum += v;
          ++affected_n;
        }
      Cell c{fct.overall_with_unfinished().mean_us, fct.unfinished_fraction(),
             affected_n ? affected_sum / affected_n : 0, bh_drops};
      cells.push_back(c);
      if (scheme == Scheme::kHermes) hermes = c.mean;
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      t.add_row({bench::short_name(schemes[i]), stats::Table::usec(cells[i].mean),
                 stats::Table::pct(cells[i].unfinished, 2), stats::Table::usec(cells[i].affected),
                 std::to_string(cells[i].bh_drops), stats::Table::num(cells[i].mean / hermes, 2)});
    }
    t.print();
    std::printf("\n");
  }
  mj.write(bench::parse_json_path(argc, argv, "BENCH_fig17.json"));
  return 0;
}
