// The paper's FCT sweeps (§5: Figs. 9-19, §5.4, and the Table 1
// extension), one FigureSpec each with the paper's claim. All 13 binaries
// are built from this file; main() runs the spec named like the binary.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "figure.hpp"
#include "hermes/lb/flow_ctx.hpp"

namespace {

using namespace hermes;
using namespace hermes::bench;
using enum harness::Scheme;
using Config = harness::ScenarioConfig;
using workload::SizeDist;

Config on(net::TopologyConfig topo, sim::SimTime cap = sim::sec(10)) {
  Config cfg;
  cfg.topo = std::move(topo);
  cfg.max_sim_time = cap;
  return cfg;
}

// Testbed (§5.2), with one leaf0-spine1 link cut when `asym` (bisection
// 75%); CLOVE-ECN takes the paper's 800us testbed flowlet timeout.
Config testbed(bool asym) {
  auto cfg = on(testbed_topology());
  if (asym) cfg.topo.fabric_overrides[{0, 1, 1}] = 0;
  cfg.clove.flowlet_timeout = sim::usec(800);
  return cfg;
}

struct Workload {
  SizeDist dist;
  int flows;
  int warmup;
  net::TopologyConfig topo{};
};

// The claim that Hermes's mean FCT is at least `margin` % lower than
// `rival`'s on every row that has both (a "Hermes vs <rival>" column), in
// tables of workload `only` when given. Each paper_shape margin passes
// seeds 1-3; EXPERIMENTS.md gives the spread.
Verdict hermes_ahead(const char* claim, const char* rival, double margin,
                     const char* only = nullptr) {
  return {claim, strf("Hermes vs %s, %%", rival), true, margin, [=](const Row& r) {
            if (!r.find(rival) || (only && r.table->dist.name() != only)) return double(NAN);
            return 100 * (mean(r.at(rival)) - mean(r.at("Hermes"))) / mean(r.at(rival));
          }};
}

FigureSpec fig9(double scale) {
  FigureSpec f{"bench_fig9_testbed_symmetric",
               "Figure 9: testbed, symmetric topology, overall avg FCT",
               "Hermes 10-38% better than ECMP, up to 15% better than CLOVE-ECN, ~Presto*"};
  const auto v = schemes({kEcmp, kCloveEcn, kPrestoStar, kHermes});
  const auto cols = wide_columns(load_column(), v,
                                 {gain_column("Hermes vs ECMP", "ECMP", "Hermes"),
                                  gain_column("Hermes vs CLOVE", "CLOVE-ECN", "Hermes")});
  for (const Workload& w : {Workload{SizeDist::web_search(), 400, 0},
                            Workload{SizeDist::data_mining(), 120, 0}}) {
    const int n = scaled(w.flows, scale);
    f.tables.push_back({.intro = strf("[%s workload, %d flows/point]\n", w.dist.name().c_str(), n),
                        .base = testbed(false), .dist = w.dist, .flows = n,
                        .loads = {0.3, 0.5, 0.7, 0.9}, .variants = v, .columns = cols});
  }
  return f;
}

FigureSpec fig10(double scale) {
  FigureSpec f{"bench_fig10_testbed_asymmetric",
               "Figure 10: testbed, asymmetric topology (one uplink cut), overall avg FCT",
               "Hermes 12-30% over CLOVE-ECN at 30-65%; Presto* collapses past ~60% load; "
               "ECMP deteriorates past 40-50%"};
  const auto v = schemes({kEcmp, kCloveEcn, kPrestoStar, kHermes});
  // Loads are relative to the symmetric bisection (§5.2); the generator
  // keys off the asymmetric one, 75% of it.
  const auto cols = wide_columns(
      {"load", [](const Row& r) { return stats::Table::num(r.load * 0.75, 2); }}, v,
      {gain_column("Hermes vs CLOVE", "CLOVE-ECN", "Hermes")});
  for (const Workload& w : {Workload{SizeDist::web_search(), 400, 0},
                            Workload{SizeDist::data_mining(), 120, 0}}) {
    const int n = scaled(w.flows, scale);
    f.tables.push_back(
        {.intro = strf("[%s workload, %d flows/point, loads relative to symmetric capacity]\n",
                       w.dist.name().c_str(), n),
         .base = testbed(true), .dist = w.dist, .flows = n,
         .loads = {0.3 / 0.75, 0.45 / 0.75, 0.6 / 0.75, 0.7 / 0.75}, .variants = v,
         .columns = cols});
  }
  return f;
}

FigureSpec fig11(double scale) {
  FigureSpec f{"bench_fig11_testbed_breakdown",
               "Figure 11: testbed, asymmetric, web-search FCT breakdown",
               "Hermes ahead of CLOVE-ECN in every size group; large flows hit Presto* hardest"};
  const int n = scaled(600, scale);
  for (const double load_sym : {0.45, 0.6})
    f.tables.push_back(
        {.intro = strf("[load %.2f of symmetric capacity, %d flows]\n", load_sym, n),
         .base = testbed(true), .dist = SizeDist::web_search(), .flows = n,
         .loads = {load_sym / 0.75},
         .variants = schemes({kEcmp, kCloveEcn, kPrestoStar, kHermes}),
         .columns = {label_column("scheme"), usec_column("small avg", small_mean),
                     usec_column("small p99", small_p99), usec_column("large avg", large_mean),
                     ratio_column("large avg (norm. to Hermes)", large_mean, "Hermes")},
         .per_variant_rows = true});
  return f;
}

// Data-mining runs on the 4x4 fabric with sizes x0.5 (see bench_util.hpp).
FigureSpec fig12(double scale) {
  FigureSpec f{"bench_fig12_sim_baseline",
               "Figure 12: simulation baseline (symmetric), overall avg FCT",
               "web-search: ECMP worst, Hermes within ~17% of CONGA; "
               "data-mining: Hermes matches or slightly beats CONGA (timely rerouting)"};
  const auto v = schemes({kEcmp, kConga, kHermes});
  const auto cols = wide_columns(load_column(), v,
                                 {gain_column("Hermes vs ECMP", "ECMP", "Hermes"),
                                  gain_column("Hermes vs CONGA", "CONGA", "Hermes")});
  for (const Workload& w : {Workload{SizeDist::web_search(), 1200, 300, sim_topology()},
                            Workload{dm_dist(), 400, 100, dm_sim_topology()}}) {
    const int n = scaled(w.flows, scale), warm = scaled(w.warmup, scale);
    f.tables.push_back({.intro = strf("[%s workload, %d flows/point (%d warmup excluded)]\n",
                                      w.dist.name().c_str(), n, warm),
                        .base = on(w.topo, sim::sec(30)), .dist = w.dist, .flows = n,
                        .warmup = warm, .loads = {0.4, 0.6, 0.8, 0.9}, .variants = v,
                        .columns = cols});
  }
  f.verdicts = {hermes_ahead("hermes_near_conga", "CONGA", -17),  // the paper's bound
                hermes_ahead("hermes_beats_ecmp", "ECMP", 5, "web-search")};
  return f;
}

FigureSpec fig13(double scale) {
  FigureSpec f{"bench_fig13_sim_asym_websearch",
               "Figure 13: simulation, asymmetric fabric, web-search FCT (normalized to Hermes)",
               "overall: CONGA modestly best; small-flow avg & p99: Hermes 1.5-3.3x better "
               "than flowlet schemes at 90% load"};
  const int n = scaled(1000, scale);
  for (const double load : {0.5, 0.7, 0.9})
    f.tables.push_back(
        {.intro = strf("[load %.1f, %d flows]\n", load, n), .base = on(asym_sim_topology()),
         .dist = SizeDist::web_search(), .flows = n, .warmup = scaled(250, scale), .loads = {load},
         .variants = schemes({kConga, kLetFlow, kCloveEcn, kPrestoStar, kHermes}),
         .columns = {label_column("scheme"), usec_column("overall avg", mean),
                     usec_column("small avg", small_mean), usec_column("small p99", small_p99),
                     usec_column("large avg", large_mean),
                     ratio_column("overall (norm)", mean, "Hermes"),
                     ratio_column("small p99 (norm)", small_p99, "Hermes")},
         .per_variant_rows = true});
  return f;
}

FigureSpec fig14(double scale) {
  FigureSpec f{"bench_fig14_sim_asym_datamining",
               "Figure 14: simulation, asymmetric fabric, data-mining FCT (normalized to Hermes)",
               "Hermes 5-10% better than CONGA, 13-20% better than CLOVE-ECN/LetFlow "
               "(few flowlet gaps in this steady workload)"};
  const int n = scaled(400, scale), warm = scaled(100, scale);
  for (const double load : {0.6, 0.8})
    f.tables.push_back(
        {.intro = strf("[load %.1f, %d flows (%d warmup excluded)]\n", load, n, warm),
         .base = on(dm_asym_sim_topology(), sim::sec(30)), .dist = dm_dist(), .flows = n,
         .warmup = warm, .loads = {load},
         .variants = schemes({kConga, kLetFlow, kCloveEcn, kHermes}),
         .columns = {label_column("scheme"), usec_column("overall avg", mean),
                     usec_column("large avg", large_mean),
                     ratio_column("overall (norm. to Hermes)", mean, "Hermes")},
         .per_variant_rows = true});
  f.verdicts = {hermes_ahead("hermes_near_conga", "CONGA", -10)};
  return f;
}

FigureSpec fig15(double scale) {
  FigureSpec f{
      "bench_fig15_conga_timeout",
      "Figure 15: CONGA flowlet-timeout sweep (web-search @80%, asymmetric, reordering masked)",
      "500us -> 150us improves ~6%; 150us -> 50us degrades ~30% (congestion mismatch)"};
  auto cfg = on(asym_sim_topology());
  cfg.scheme = kConga;
  cfg.tcp.reorder_buffer = true;
  std::vector<Variant> v;
  for (const int us : {500, 150, 50})
    v.push_back({std::to_string(us) + "us",
                 [us](Config& c) { c.conga.flowlet_timeout = sim::usec(us); }});
  f.tables.push_back({.base = cfg, .dist = SizeDist::web_search(), .flows = scaled(1000, scale),
                      .warmup = scaled(250, scale), .loads = {0.8}, .variants = v,
                      .columns = {label_column("flowlet timeout"),
                                  usec_column("overall avg FCT", mean),
                                  gain_column("vs 150us", "150us", {}, -1)},
                      .per_variant_rows = true, .blank_after = false});
  return f;
}

double large_mean_all(const Cell& c) {  // unfinished large flows too
  return c.fct.summarize(stats::FctCollector::kLargeLimit, UINT64_MAX, true).mean_us;
}

FigureSpec fig16(double scale) {
  constexpr int kSpine = 3;  // "randomly selected"; fixed for reproducibility
  FigureSpec f{
      .name = "bench_fig16_random_drop",
      .title = "Figure 16: silent random packet drops (2% at one spine), web-search",
      .claim = "Hermes >32% better than all; CONGA ~ECMP (paradox: lossy paths look idle); "
               "LetFlow second best but ~1.5x worse than Hermes",
      .install =
          [](harness::Scenario& s) { s.topology().spine(kSpine).set_random_drop_rate(0.02); },
      // Fewer drops: less traffic through the lossy spine, i.e. avoided.
      .harvest = [](harness::Scenario& s) { return s.topology().spine(kSpine).random_drops(); },
      .json = "BENCH_fig16.json"};
  const int n = scaled(800, scale);
  for (const double load : {0.3, 0.5, 0.7})
    f.tables.push_back(
        {.intro = strf("[load %.1f, %d flows, spine %d drops 2%%]\n", load, n, kSpine),
         .base = on(sim_topology()), .dist = SizeDist::web_search(), .flows = n,
         .warmup = scaled(150, scale), .loads = {load},
         .variants = schemes({kEcmp, kConga, kLetFlow, kPrestoStar, kHermes}),
         .columns = {label_column("scheme"), usec_column("overall avg", mean),
                     usec_column("large avg", large_mean_all),
                     {"rand drops", [](const Row& r) { return std::to_string(r.me().counter); }},
                     ratio_column("norm. to Hermes", mean, "Hermes")},
         .per_variant_rows = true});
  f.verdicts = {hermes_ahead("best_vs_ecmp", "ECMP", -1),
                hermes_ahead("best_vs_conga", "CONGA", -1),
                hermes_ahead("best_vs_letflow", "LetFlow", -1),
                hermes_ahead("best_vs_presto", "Presto*", -1)};
  return f;
}

// The slowest 2% of flows: the collector has no src/dst, and these are
// dominated by the blackholed pairs.
double affected_mean(const Cell& c) {
  std::vector<double> fcts;
  for (const auto& r : c.fct.records()) fcts.push_back(r.fct().to_usec());
  const double p98 = stats::percentile(fcts, 98);
  double sum = 0, n = 0;
  for (const double v : fcts)
    if (v >= p98) sum += v, ++n;
  return n ? sum / n : 0;
}

// One spine blackholes half the rack-1 -> rack-8 pairs (leaves 0 and 7).
// The highest-load Hermes cell, where latches fire, is dumped to --trace;
// `hermestrace <path> --summary` lists the latches behind "bh drops".
FigureSpec fig17(double scale) {
  constexpr int kSpine = 2;
  FigureSpec f{
      .name = "bench_fig17_blackhole",
      .title = "Figure 17: packet blackhole (half of rack0->rack7 pairs at one spine), web-search",
      .claim = "Hermes: all flows finish, >=1.6x better; ECMP ~unfinished flows, 9-22x worse; "
               "CONGA worse than ECMP (shifts flows INTO the blackhole)",
      .install =
          [](harness::Scenario& s) {
            auto& topo = s.topology();
            topo.spine(kSpine).set_blackhole([&topo](const net::Packet& p) {
              return p.type == net::PacketType::kData && topo.leaf_of(p.src) == 0 &&
                     topo.leaf_of(p.dst) == 7 &&  // "half of the source-destination pairs"
                     lb::mix64(static_cast<std::uint64_t>(p.src) * 4096 +
                               static_cast<std::uint64_t>(p.dst)) % 2 == 0;
            });
          },
      // Fewer drops: the scheme stopped feeding the dead paths.
      .harvest = [](harness::Scenario& s) { return s.topology().spine(kSpine).blackhole_drops(); },
      .json = "BENCH_fig17.json",
      .trace = "TRACE_fig17_hermes.htrc"};
  auto v = schemes({kEcmp, kConga, kLetFlow, kPrestoStar, kHermes});
  v.back().edit = [](Config& c) {
    c.scheme = kHermes;
    c.obs.enabled = true;  // decisions only: packets would wrap the ring
    c.obs.trace_packets = false;
  };
  const int n = scaled(1000, scale);
  for (const double load : {0.3, 0.5, 0.7})
    f.tables.push_back(
        {.intro = strf("[load %.1f, %d flows, blackhole at spine %d]\n", load, n, kSpine),
         .base = on(sim_topology(), sim::sec(5)), .dist = SizeDist::web_search(), .flows = n,
         .warmup = scaled(200, scale), .loads = {load}, .variants = v,
         .columns = {label_column("scheme"), usec_column("avg FCT (incl. unfinished)", mean),
                     {"unfinished",
                      [](const Row& r) {
                        return stats::Table::pct(r.me().fct.unfinished_fraction(), 2);
                      }},
                     usec_column("affected-pair avg", affected_mean),
                     {"bh drops", [](const Row& r) { return std::to_string(r.me().counter); }},
                     ratio_column("norm. to Hermes", mean, "Hermes")},
         .per_variant_rows = true});
  auto unfinished = [](const char* scheme) {
    return [scheme](const Row& r) { return double(r.at(scheme).fct.unfinished_flows()); };
  };
  f.verdicts = {{"hermes_finishes_all", "Hermes unfinished flows", false, 0, unfinished("Hermes")},
                {"ecmp_strands", "ECMP unfinished flows", true, 1, unfinished("ECMP")}};
  return f;
}

FigureSpec fig18(double scale) {
  FigureSpec f{"bench_fig18_ablation",
               "Figure 18a: Hermes ablation (data-mining): probing and rerouting",
               "probing ~20% improvement, rerouting ~10%; 'without both' is worst"};
  auto cfg = on(dm_asym_sim_topology(), sim::sec(30));
  cfg.scheme = kHermes;
  auto ablate = [](const char* label, bool probing, bool rerouting) {
    return Variant{label, [=](Config& c) {
                     c.hermes.probing_enabled = probing;
                     c.hermes.rerouting_enabled = rerouting;
                   }};
  };
  Table t{.base = cfg, .dist = dm_dist(), .flows = scaled(400, scale),
          .warmup = scaled(100, scale), .loads = {0.7},
          .variants = {ablate("Hermes", true, true), ablate("w/o probing", false, true),
                       ablate("w/o rerouting", true, false), ablate("w/o both", false, false)},
          .columns = {label_column("variant"), usec_column("overall avg", mean),
                      usec_column("small avg", small_mean), usec_column("large avg", large_mean),
                      gain_column("vs full Hermes", "Hermes", {}, -1)},
          .per_variant_rows = true, .blank_after = false};
  f.tables.push_back(t);
  t.intro = "\n=== Figure 18b: probe interval impact (data-mining) ===\n"
            "paper: 500us interval ~11-15% better than no probing; 100us adds 1-3% more\n\n";
  t.variants = {{"no probing", [](Config& c) { c.hermes.probing_enabled = false; }}};
  for (const int us : {500, 100})
    t.variants.push_back({std::to_string(us) + "us", [us](Config& c) {
                            c.hermes.probing_enabled = true;
                            c.hermes.probe_interval = sim::usec(us);
                          }});
  t.columns = {label_column("probe interval"), usec_column("overall avg", mean),
               gain_column("vs no probing", "no probing")};
  f.tables.push_back(t);
  f.verdicts = {hermes_ahead("probing_helps", "w/o probing", 5),
                hermes_ahead("rerouting_helps", "w/o rerouting", 5)};
  return f;
}

FigureSpec fig19(double scale) {
  FigureSpec f{"bench_fig19_sensitivity",
               "Figure 19: sensitivity to T_RTT_high and Delta_RTT (asymmetric fabric)",
               "stable near recommended values; web-search prefers conservative, "
               "data-mining aggressive settings"};
  std::vector<Variant> high, delta;
  for (const int us : {140, 180, 230, 280})
    high.push_back({std::to_string(us), [us](Config& c) { c.hermes.t_rtt_high = sim::usec(us); }});
  for (const int us : {40, 80, 120, 160})
    delta.push_back({std::to_string(us), [us](Config& c) { c.hermes.delta_rtt = sim::usec(us); }});
  for (const Workload& w : {Workload{SizeDist::web_search(), 800, 200, asym_sim_topology()},
                            Workload{dm_dist(), 350, 90, dm_asym_sim_topology()}}) {
    const int n = scaled(w.flows, scale);
    Table t{.intro = strf("[%s, %d flows, load %.1f]\n", w.dist.name().c_str(), n, 0.7),
            .base = on(w.topo, sim::sec(30)), .dist = w.dist, .flows = n,
            .warmup = scaled(w.warmup, scale), .loads = {0.7}, .variants = high,
            .columns = {label_column("T_RTT_high (us)"), usec_column("overall avg FCT", mean)},
            .per_variant_rows = true, .blank_after = false};
    t.base.scheme = kHermes;
    f.tables.push_back(t);
    t.intro.clear();
    t.variants = delta;
    t.columns.front() = label_column("Delta_RTT (us)");
    t.blank_after = true;
    f.tables.push_back(t);
  }
  return f;
}

// Plain TCP (NewReno, no ECN): Hermes senses with RTT only and 1.5x
// thresholds; CONGA uses a 500us flowlet timeout.
FigureSpec sec54(double scale) {
  FigureSpec f{"bench_sec54_tcp_transport",
               "Section 5.4: plain TCP transport (RTT-only sensing, 1.5x thresholds)",
               "Hermes within 10-25% of CONGA (web-search) and ~identical on data-mining; "
               "TCP's burstiness helps flowlet schemes"};
  auto v = schemes({kEcmp, kConga, kHermes});
  v[1].label = "CONGA (500us flowlet)";
  v[2].label = "Hermes (RTT-only)";
  const auto cols = wide_columns(load_column(), v,
                                 {gain_column("Hermes vs CONGA", v[1].label, v[2].label)});
  for (const bool asym : {false, true})
    for (const Workload& w :
         {Workload{SizeDist::web_search(), 700, 150, asym ? asym_sim_topology() : sim_topology()},
          Workload{dm_dist(), 300, 75, asym ? dm_asym_sim_topology() : dm_sim_topology()}}) {
      auto cfg = on(w.topo, sim::sec(30));
      cfg.tcp.dctcp = false;  // ECN off fabric-wide
      cfg.conga.flowlet_timeout = sim::usec(500);
      cfg.hermes.use_ecn = false;
      sim::Simulator probe{1};
      net::Topology tp{probe, cfg.topo};
      const auto d = lb::HermesConfig::defaults_for(tp);
      cfg.hermes.t_rtt_low = d.t_rtt_low;
      cfg.hermes.t_rtt_high = sim::SimTime::nanoseconds(d.t_rtt_high.ns() * 3 / 2);
      cfg.hermes.delta_rtt = sim::SimTime::nanoseconds(d.delta_rtt.ns() * 3 / 2);
      const bool first = w.flows == 700;
      const char* fabric = asym ? "asymmetric (20% links at 2G)" : "baseline";
      f.tables.push_back({.intro = (first ? strf("[%s topology]\n", fabric) : "") +
                                   w.dist.name() + ":\n",
                          .base = cfg, .dist = w.dist, .flows = scaled(w.flows, scale),
                          .warmup = scaled(w.warmup, scale), .loads = {0.5, 0.7}, .variants = v,
                          .columns = cols, .blank_after = !first});
    }
  return f;
}

FigureSpec table1(double scale) {
  FigureSpec f{"bench_ext_table1_schemes",
               "Extension: Table 1 stragglers (FlowBender, DRILL) vs ECMP and Hermes",
               "FlowBender ~ECMP (blind rehashing); DRILL strong when symmetric, hurt by "
               "asymmetry (local-only visibility)"};
  const auto v = schemes({kEcmp, kFlowBender, kDrill, kHermes});
  const int n = scaled(600, scale);
  for (const bool asym : {false, true})
    f.tables.push_back({.intro = strf("[%s fabric, web-search, %d flows]\n",
                                      asym ? "asymmetric (20% links at 2G)" : "symmetric", n),
                        .base = on(asym ? asym_sim_topology() : sim_topology()),
                        .dist = SizeDist::web_search(), .flows = n, .loads = {0.5, 0.7},
                        .variants = v, .columns = wide_columns(load_column(), v)});
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  const char* slash = std::strrchr(argv[0], '/');
  const std::string name = slash != nullptr ? slash + 1 : argv[0];
  const double scale = parse_scale(argc, argv);
  for (auto* figure : {fig9, fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig17, fig18, fig19,
                       sec54, table1})
    if (const FigureSpec f = figure(scale); f.name == name) return run_figure(f, argc, argv);
  std::fprintf(stderr, "%s: not a figure bench\n", name.c_str());
  return 2;
}
