// Deep behavioural tests for Hermes internals: failure-latch expiry with
// backoff, the prober's best-path memory, the reroute cooldown, and
// end-to-end sensing timelines.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "hermes/lb/hermes.hpp"
#include "hermes/harness/scenario.hpp"
#include "hermes/workload/flow_gen.hpp"

namespace hermes::lb {
namespace {

using sim::msec;
using sim::usec;

net::TopologyConfig topo4() {
  net::TopologyConfig c;
  c.num_leaves = 2;
  c.num_spines = 4;
  c.hosts_per_leaf = 2;
  return c;
}

TEST(FailureExpiry, LatchClearsAfterExpiry) {
  engine::Config cfg;
  cfg.failure_expiry = engine::msec(100);
  engine::PathState st;
  st.fail(engine::usec(0));
  EXPECT_TRUE(st.failed_active(engine::msec(50), cfg));
  EXPECT_FALSE(st.failed_active(engine::msec(101), cfg));
}

TEST(FailureExpiry, BackoffDoublesPerRelatch) {
  engine::Config cfg;
  cfg.failure_expiry = engine::msec(100);
  engine::PathState st;
  st.fail(engine::usec(0));                                 // streak 1: expiry 100ms
  EXPECT_FALSE(st.failed_active(engine::msec(101), cfg));   // expired
  st.fail(engine::msec(101));                               // streak 2: expiry 200ms
  EXPECT_TRUE(st.failed_active(engine::msec(250), cfg));    // 149ms < 200ms: held
  EXPECT_FALSE(st.failed_active(engine::msec(302), cfg));   // expired again
  st.fail(engine::msec(302));                               // streak 3: expiry 400ms
  EXPECT_TRUE(st.failed_active(engine::msec(700), cfg));
}

TEST(FailureExpiry, ZeroMeansPermanent) {
  engine::Config cfg;
  cfg.failure_expiry = 0;
  engine::PathState st;
  st.fail(engine::usec(0));
  EXPECT_TRUE(st.failed_active(engine::sec(100), cfg));
}

TEST(FailureExpiry, ClearResetsStreak) {
  engine::Config cfg;
  cfg.failure_expiry = engine::msec(100);
  engine::PathState st;
  st.fail(engine::usec(0));
  st.fail(engine::usec(1));
  st.clear_failure();
  st.fail(engine::msec(10));  // streak restarts at 1: expiry 100ms again
  EXPECT_FALSE(st.failed_active(engine::msec(111), cfg));
}

TEST(RerouteCooldown, SecondRerouteWaitsForGap) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  auto cfg = HermesConfig::defaults_for(topo);
  cfg.probing_enabled = false;
  cfg.reroute_min_gap = msec(2);
  HermesLb h{simulator, topo, cfg};

  auto congest = [&](int idx) {
    auto& st = h.path_state(0, 1, idx);
    for (int i = 0; i < 300; ++i) st.add_sample((cfg.t_rtt_high + usec(200)).ns(), true);
  };
  auto good = [&](int idx) {
    auto& st = h.path_state(0, 1, idx);
    for (int i = 0; i < 300; ++i) st.add_sample(usec(25).ns(), false);
  };
  congest(0);
  congest(1);
  good(2);
  good(3);

  FlowCtx f;
  f.flow_id = 1;
  f.src = 0;
  f.dst = 2;
  f.src_leaf = 0;
  f.dst_leaf = 1;
  f.current_path = 0;
  f.has_sent = true;
  f.bytes_sent = cfg.sent_threshold_bytes + 1;

  net::Packet pkt;
  pkt.size = 1500;
  const int first = h.select_path(f, pkt);
  EXPECT_NE(first, 0);  // rerouted off path 0
  f.current_path = first;

  // Make the flow's new path look congested too; it may not move again
  // until the cooldown elapses.
  congest(first);
  EXPECT_EQ(h.select_path(f, pkt), first);  // cooldown active
  simulator.run_until(msec(3));
  EXPECT_NE(h.select_path(f, pkt), first);  // cooldown over: moves again
}

TEST(RerouteCooldown, FailureEscapeIgnoresCooldown) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  auto cfg = HermesConfig::defaults_for(topo);
  cfg.probing_enabled = false;
  cfg.reroute_min_gap = sim::sec(1);  // huge cooldown
  HermesLb h{simulator, topo, cfg};

  FlowCtx f;
  f.flow_id = 1;
  f.src = 0;
  f.dst = 2;
  f.src_leaf = 0;
  f.dst_leaf = 1;
  f.current_path = 0;
  f.has_sent = true;
  f.last_reroute = simulator.now();
  f.has_rerouted = true;

  // Current path latches failed: the flow must leave immediately.
  h.path_state(0, 1, 0).fail(simulator.now().ns());
  net::Packet pkt;
  pkt.size = 1500;
  EXPECT_NE(h.select_path(f, pkt), 0);
}

TEST(ProberMemory, BestPathTracksLowestRtt) {
  harness::ScenarioConfig cfg;
  cfg.topo = topo4();
  cfg.scheme = harness::Scheme::kHermes;
  harness::Scenario s{cfg};
  // Let probing populate everything on an idle fabric.
  s.run_for(msec(10));
  auto* h = s.hermes();
  // All paths sampled; the recorded best is one of them and carries the
  // minimum RTT estimate.
  auto best_rtt = std::numeric_limits<engine::TimeNs>::max();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(h->path_state(0, 1, i).has_sample());
    best_rtt = std::min(best_rtt, h->path_state(0, 1, i).rtt());
  }
  int sampled = h->sampled_paths(0, 1);
  EXPECT_EQ(sampled, 4);
  EXPECT_LT(best_rtt, usec(60).ns());
}

TEST(ProberMemory, ReplyCountMatchesLossFreeFabric) {
  harness::ScenarioConfig cfg;
  cfg.topo = topo4();
  cfg.scheme = harness::Scheme::kHermes;
  harness::Scenario s{cfg};
  s.run_for(msec(20));
  const auto& ps = s.hermes()->probe_stats();
  // All probes answered (minus the last interval still in flight).
  EXPECT_GE(ps.replies_received + 12, ps.probes_sent);
  EXPECT_EQ(ps.probe_bytes, ps.probes_sent * net::kProbeBytes);
}

TEST(EndToEnd, DegradedLinkCarriesLessThanFairShare) {
  // Sensing must steer traffic off the 2G path: its byte share ends well
  // below the fair 1/4. (Its *sensed* RTT at equilibrium is low — that is
  // the point: Hermes keeps it just busy enough to stay balanced.)
  harness::ScenarioConfig cfg;
  cfg.topo = topo4();
  cfg.topo.fabric_overrides[{0, 1, 0}] = 2e9;  // spine-1 uplink at 2G
  cfg.topo.fabric_overrides[{1, 1, 0}] = 2e9;
  cfg.scheme = harness::Scheme::kHermes;
  harness::Scenario s{cfg};
  workload::TrafficConfig tc{.load = 0.55, .num_flows = 300, .seed = 5};
  s.add_flows(workload::generate_poisson_traffic(s.topology(),
                                                 workload::SizeDist::web_search(), tc));
  auto fct = s.run();
  EXPECT_EQ(fct.unfinished_flows(), 0u);
  double total = 0, degraded = 0;
  for (int l = 0; l < 2; ++l) {
    for (int sp = 0; sp < 4; ++sp) {
      const double b = static_cast<double>(s.topology().leaf_uplink(l, sp).stats().tx_bytes);
      total += b;
      if (sp == 1) degraded += b;
    }
  }
  EXPECT_LT(degraded / total, 0.18);  // clearly below the fair 25%
}

TEST(EndToEnd, RerouteCountStaysModest) {
  // "Timely yet cautious": even at high load the average flow must not
  // bounce between paths many times.
  harness::ScenarioConfig cfg;
  cfg.topo = topo4();
  cfg.scheme = harness::Scheme::kHermes;
  harness::Scenario s{cfg};
  workload::TrafficConfig tc{.load = 0.8, .num_flows = 300, .seed = 3};
  s.add_flows(workload::generate_poisson_traffic(s.topology(),
                                                 workload::SizeDist::web_search(), tc));
  auto fct = s.run();
  EXPECT_LT(static_cast<double>(fct.total_reroutes()) / fct.total_flows(), 3.0);
}

}  // namespace
}  // namespace hermes::lb
