// Integration tests: end-to-end scenarios asserting the paper's central
// qualitative claims on small fabrics — asymmetry handling, flowlet
// passivity (Example 1), switch-failure detection, and visibility.

#include <functional>
#include <gtest/gtest.h>
#include <map>

#include "hermes/harness/experiment.hpp"
#include "hermes/harness/scenario.hpp"
#include "hermes/workload/flow_gen.hpp"

namespace hermes {
namespace {

using harness::Scenario;
using harness::ScenarioConfig;
using harness::Scheme;
using sim::msec;
using sim::usec;

net::TopologyConfig small_fabric() {
  net::TopologyConfig c;
  c.num_leaves = 4;
  c.num_spines = 4;
  c.hosts_per_leaf = 4;
  return c;
}

double mean_fct(Scheme scheme, const net::TopologyConfig& topo, double load, int flows,
                std::function<void(Scenario&)> prepare = nullptr) {
  ScenarioConfig cfg;
  cfg.topo = topo;
  cfg.scheme = scheme;
  Scenario s{cfg};
  if (prepare) prepare(s);
  workload::TrafficConfig tc{.load = load, .num_flows = flows, .seed = 12};
  s.add_flows(workload::generate_poisson_traffic(s.topology(),
                                                 workload::SizeDist::web_search(), tc));
  auto fct = s.run();
  return fct.overall_with_unfinished().mean_us;
}

TEST(Integration, HermesBeatsEcmpUnderAsymmetry) {
  auto topo = small_fabric();
  topo.fabric_overrides[{0, 0, 0}] = 2e9;
  topo.fabric_overrides[{1, 2, 0}] = 2e9;
  topo.fabric_overrides[{2, 1, 0}] = 2e9;
  const double ecmp = mean_fct(Scheme::kEcmp, topo, 0.6, 400);
  const double hermes = mean_fct(Scheme::kHermes, topo, 0.6, 400);
  EXPECT_LT(hermes, ecmp * 0.85);  // clearly better, not just noise
}

TEST(Integration, CongestionAwareSchemesBeatEcmpUnderAsymmetry) {
  auto topo = small_fabric();
  topo.fabric_overrides[{0, 0, 0}] = 2e9;
  topo.fabric_overrides[{3, 3, 0}] = 2e9;
  const double ecmp = mean_fct(Scheme::kEcmp, topo, 0.6, 300);
  for (Scheme s : {Scheme::kConga, Scheme::kLetFlow, Scheme::kCloveEcn}) {
    EXPECT_LT(mean_fct(s, topo, 0.6, 300), ecmp) << harness::to_string(s);
  }
}

TEST(Integration, Example1_HermesResolvesLargeFlowCollision) {
  // §2.2.2 Example 1: two large DCTCP flows collide on one path while the
  // other path is idle. DCTCP's smooth cwnd leaves no flowlet gaps, so
  // CONGA cannot move either flow; Hermes senses the congested path and
  // reroutes one flow onto the idle path.
  net::TopologyConfig topo;
  topo.num_leaves = 2;
  topo.num_spines = 2;
  topo.hosts_per_leaf = 2;

  auto run = [&](Scheme scheme) {
    ScenarioConfig cfg;
    cfg.topo = topo;
    cfg.scheme = scheme;
    // Force both flows onto the same initial path by hashing: with ECMP
    // salt/CONGA tie-breaks this is probabilistic, so instead start them
    // together on an idle fabric — both see "all paths equal" and the
    // interesting part is whether anyone ever *leaves* after colliding.
    Scenario s{cfg};
    s.add_flow(0, 2, 30'000'000, usec(0));
    s.add_flow(1, 3, 30'000'000, usec(1));
    auto fct = s.run();
    return fct;
  };

  auto hermes = run(Scheme::kHermes);
  EXPECT_EQ(hermes.unfinished_flows(), 0u);
  // Ideal completion: both large flows on separate paths finish in ~24ms;
  // a persistent collision means ~48ms. Hermes must end up separated
  // (possibly after a reroute), CONGA may or may not depending on hashing;
  // we assert Hermes achieves near-ideal.
  EXPECT_LT(hermes.overall().max_us, 36'000.0);

  auto conga = run(Scheme::kConga);
  EXPECT_LE(hermes.overall().max_us, conga.overall().max_us * 1.1);
}

TEST(Integration, BlackholeEcmpStrandsFlowsHermesEscapes) {
  auto topo = small_fabric();
  auto prepare = [&](Scenario& s) {
    s.topology().spine(0).set_failure(
        {.blackhole =
             [&topo = s.topology()](const net::Packet& p) {
               return p.type == net::PacketType::kData && topo.leaf_of(p.src) == 0 &&
                      topo.leaf_of(p.dst) == 1;
             },
         .random_drop_rate = 0.0});
  };

  ScenarioConfig cfg;
  cfg.topo = topo;
  cfg.scheme = Scheme::kEcmp;
  cfg.max_sim_time = msec(500);
  Scenario ecmp{cfg};
  prepare(ecmp);
  workload::TrafficConfig tc{.load = 0.4, .num_flows = 300, .seed = 4};
  auto flows = workload::generate_poisson_traffic(ecmp.topology(),
                                                  workload::SizeDist::web_search(), tc);
  ecmp.add_flows(flows);
  auto ecmp_fct = ecmp.run();
  EXPECT_GT(ecmp_fct.unfinished_flows(), 0u);  // hashed-to-blackhole flows die

  cfg.scheme = Scheme::kHermes;
  Scenario hermes{cfg};
  prepare(hermes);
  hermes.add_flows(flows);
  auto hermes_fct = hermes.run();
  EXPECT_EQ(hermes_fct.unfinished_flows(), 0u);  // detected after 3 timeouts
}

TEST(Integration, RandomDropDetectedAndAvoided) {
  auto topo = small_fabric();
  ScenarioConfig cfg;
  cfg.topo = topo;
  cfg.scheme = Scheme::kHermes;
  Scenario s{cfg};
  s.topology().spine(2).set_failure({.blackhole = nullptr, .random_drop_rate = 0.04});
  workload::TrafficConfig tc{.load = 0.5, .num_flows = 500, .seed = 9};
  s.add_flows(workload::generate_poisson_traffic(s.topology(),
                                                 workload::SizeDist::web_search(), tc));
  auto fct = s.run();
  EXPECT_EQ(fct.unfinished_flows(), 0u);
  int latched = 0;
  for (int a = 0; a < 4; ++a)
    for (int b = 0; b < 4; ++b) {
      if (a == b) continue;
      for (int i = 0; i < 4; ++i)
        if (s.hermes()->path_state(a, b, i).failed() &&
            s.topology().paths_between_leaves(a, b)[i].spine == 2)
          ++latched;
    }
  EXPECT_GT(latched, 4);  // a meaningful share of the 12 spine-2 pair-paths
}

TEST(Integration, VisibilitySwitchPairVsHostPair) {
  // Table 2's mechanism: a ToR pair aggregates every flow between two
  // racks, a host pair sees almost none of them.
  ScenarioConfig cfg;
  cfg.topo = small_fabric();
  cfg.scheme = Scheme::kEcmp;
  Scenario s{cfg};
  workload::TrafficConfig tc{.load = 0.7, .num_flows = 600, .seed = 2};
  s.add_flows(workload::generate_poisson_traffic(s.topology(),
                                                 workload::SizeDist::web_search(), tc));

  struct Visibility {
    Scenario& s;
    double switch_vis = 0, host_vis = 0;
    int samples = 0;
    void sample() {
      const int n_paths = 4;
      const auto& active = s.active_flows();
      // flows per ordered leaf pair / paths, averaged over pairs.
      std::map<std::pair<int, int>, int> per_leaf_pair;
      std::map<std::pair<int, int>, int> per_host_pair;
      for (const auto& [id, f] : active) {
        ++per_leaf_pair[{s.topology().leaf_of(f.src), s.topology().leaf_of(f.dst)}];
        ++per_host_pair[{f.src, f.dst}];
      }
      double sv = 0;
      for (auto& [k, v] : per_leaf_pair) sv += v;
      switch_vis += sv / (4.0 * 3.0) / n_paths;
      double hv = 0;
      for (auto& [k, v] : per_host_pair) hv += v;
      host_vis += hv / (16.0 * 12.0) / n_paths;
      ++samples;
    }
  };
  Visibility vis{s};
  for (int i = 1; i <= 40; ++i) s.simulator().at<&Visibility::sample>(msec(1) * i, &vis);
  auto fct = s.run();
  (void)fct;
  ASSERT_GT(vis.samples, 0);
  const double switch_vis = vis.switch_vis / vis.samples;
  const double host_vis = vis.host_vis / vis.samples;
  // Both views count the same flows; the ratio is the number of host
  // pairs per leaf pair = hosts_per_leaf^2 = 16 here (256 in the paper's
  // fabric, matching Table 2's ~5.86 vs ~0.022).
  EXPECT_GT(host_vis, 0.0);
  EXPECT_NEAR(switch_vis / host_vis, 16.0, 0.5);
}

TEST(Integration, HermesTcpModeStillWorks) {
  // §5.4: plain TCP, RTT-only sensing, 1.5x thresholds.
  ScenarioConfig cfg;
  cfg.topo = small_fabric();
  cfg.scheme = Scheme::kHermes;
  cfg.tcp.dctcp = false;
  cfg.hermes.use_ecn = false;
  Scenario s{cfg};
  const auto defaults = lb::HermesConfig::defaults_for(s.topology());
  (void)defaults;
  workload::TrafficConfig tc{.load = 0.5, .num_flows = 300, .seed = 3};
  s.add_flows(workload::generate_poisson_traffic(s.topology(),
                                                 workload::SizeDist::web_search(), tc));
  auto fct = s.run();
  EXPECT_EQ(fct.unfinished_flows(), 0u);
}

TEST(Integration, ProbeOverheadIsSmall) {
  // Table 6: Hermes's probing overhead ~3% of an edge link.
  ScenarioConfig cfg;
  cfg.topo = small_fabric();
  cfg.scheme = Scheme::kHermes;
  Scenario s{cfg};
  s.run_for(msec(50));
  const auto& ps = s.hermes()->probe_stats();
  const double probe_bps = static_cast<double>(ps.probe_bytes) * 8 / 0.050;
  // All probes of a rack agent share one host link; overhead per the
  // paper's definition is probe rate over edge link capacity.
  const double per_rack_bps = probe_bps / 4.0;
  EXPECT_LT(per_rack_bps / 10e9, 0.03);
  EXPECT_GT(ps.replies_received, 0u);
}

}  // namespace
}  // namespace hermes
