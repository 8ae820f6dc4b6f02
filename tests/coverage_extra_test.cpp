// Additional coverage: CONGA's in-band loop over real traffic, spray
// boundary arithmetic, CLOVE draw statistics, host-stack probe plumbing,
// event-queue interleavings, and DRE quantization sweeps.

#include <cstdint>
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "hermes/engine/rate.hpp"
#include "hermes/harness/scenario.hpp"
#include "hermes/lb/clove.hpp"
#include "hermes/lb/conga.hpp"
#include "hermes/lb/spray.hpp"
#include "hermes/net/port.hpp"
#include "hermes/transport/udp_source.hpp"
#include "hermes/workload/flow_gen.hpp"

namespace hermes {
namespace {

using sim::msec;
using sim::usec;

// --- CONGA over real traffic ------------------------------------------------

TEST(CongaLoop, RealTrafficPopulatesRemoteMetrics) {
  harness::ScenarioConfig cfg;
  cfg.topo.num_leaves = 2;
  cfg.topo.num_spines = 2;
  cfg.topo.hosts_per_leaf = 2;
  cfg.scheme = harness::Scheme::kConga;
  harness::Scenario s{cfg};
  auto* conga = dynamic_cast<lb::CongaLb*>(&s.balancer());
  ASSERT_NE(conga, nullptr);

  // Saturate one direction; feedback must give leaf 0 a nonzero metric
  // for at least the used path.
  s.add_flow(0, 2, 20'000'000, usec(0));
  s.run_for(msec(5));
  int nonzero = 0;
  for (int i = 0; i < 2; ++i) nonzero += conga->path_metric(0, 1, i) > 0 ? 1 : 0;
  EXPECT_GE(nonzero, 1);
}

TEST(CongaLoop, BalancesTwoHeavyFlowsAcrossSpines) {
  harness::ScenarioConfig cfg;
  cfg.topo.num_leaves = 2;
  cfg.topo.num_spines = 2;
  cfg.topo.hosts_per_leaf = 2;
  cfg.scheme = harness::Scheme::kConga;
  harness::Scenario s{cfg};
  s.add_flow(0, 2, 30'000'000, usec(0));
  s.add_flow(1, 3, 30'000'000, usec(100));
  auto fct = s.run();
  EXPECT_EQ(fct.unfinished_flows(), 0u);
  // Both uplinks carried substantial traffic: neither starved.
  const auto a = s.topology().leaf_uplink(0, 0).stats().tx_bytes;
  const auto b = s.topology().leaf_uplink(0, 1).stats().tx_bytes;
  EXPECT_GT(std::min(a, b), 10'000'000u);
}

// --- spray arithmetic -------------------------------------------------------

TEST(SprayMath, FlowcellBoundaryIsExact) {
  sim::Simulator simulator{1};
  net::TopologyConfig tc;
  tc.num_leaves = 2;
  tc.num_spines = 2;
  tc.hosts_per_leaf = 1;
  net::Topology topo{simulator, tc};
  lb::SprayLb lb{topo, lb::SprayConfig{.cell_bytes = 2920, .weighted = false}, "cell"};
  lb::FlowCtx f;
  f.flow_id = 1;
  f.src = 0;
  f.dst = 1;
  f.src_leaf = 0;
  f.dst_leaf = 1;
  net::Packet p;
  p.payload = 1460;
  // Cell = exactly 2 packets: the path must change every 2 packets.
  std::vector<int> seq;
  for (int i = 0; i < 12; ++i) seq.push_back(lb.select_path(f, p));
  for (int i = 0; i + 1 < 12; i += 2) {
    EXPECT_EQ(seq[i], seq[i + 1]);
    if (i + 2 < 12) {
      EXPECT_NE(seq[i + 1], seq[i + 2]);
    }
  }
}

TEST(SprayMath, ThreeTierWeights) {
  sim::Simulator simulator{1};
  net::TopologyConfig tc;
  tc.num_leaves = 2;
  tc.num_spines = 3;
  tc.hosts_per_leaf = 1;
  tc.fabric_overrides[{0, 0, 0}] = 2e9;
  tc.fabric_overrides[{1, 0, 0}] = 2e9;
  tc.fabric_overrides[{0, 1, 0}] = 4e9;
  tc.fabric_overrides[{1, 1, 0}] = 4e9;
  net::Topology topo{simulator, tc};
  lb::SprayLb lb{topo, lb::SprayConfig{.cell_bytes = 0, .weighted = true}, "w"};
  lb::FlowCtx f;
  f.flow_id = 3;
  f.src = 0;
  f.dst = 1;
  f.src_leaf = 0;
  f.dst_leaf = 1;
  net::Packet p;
  p.payload = 1460;
  std::map<int, int> counts;
  const int n = 8000;  // weights 1:2:5
  for (int i = 0; i < n; ++i) ++counts[lb.select_path(f, p)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 1.0 / 8, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 2.0 / 8, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 5.0 / 8, 0.01);
}

// --- CLOVE draw statistics ----------------------------------------------------

TEST(CloveDraw, MatchesWeightsAfterSkew) {
  sim::Simulator simulator{1};
  net::TopologyConfig tc;
  tc.num_leaves = 2;
  tc.num_spines = 2;
  tc.hosts_per_leaf = 1;
  net::Topology topo{simulator, tc};
  lb::CloveLb lb{simulator, topo, {.flowlet_timeout = usec(0), .mark_min_gap = usec(0)}};
  lb::FlowCtx f;
  f.flow_id = 1;
  f.src = 0;
  f.dst = 1;
  f.src_leaf = 0;
  f.dst_leaf = 1;
  net::Packet ack;
  ack.ece = true;
  ack.path_id = 0;
  for (int i = 0; i < 5; ++i) {
    simulator.run_until(simulator.now() + usec(1));
    lb.on_ack(f, ack);
  }
  const auto w = lb.weights(0, 1);
  const double p0 = w[0] / (w[0] + w[1]);
  int on0 = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    lb::FlowCtx g;
    g.flow_id = 100 + static_cast<std::uint64_t>(i);
    g.src = 0;
    g.dst = 1;
    g.src_leaf = 0;
    g.dst_leaf = 1;
    if (lb.select_path(g, net::Packet{}) == 0) ++on0;
  }
  EXPECT_NEAR(on0 / static_cast<double>(n), p0, 0.02);
}

// --- host stack probe plumbing -----------------------------------------------

TEST(HostStackProbes, ReplyEchoesForwardObservations) {
  harness::ScenarioConfig cfg;
  cfg.topo.num_leaves = 2;
  cfg.topo.num_spines = 2;
  cfg.topo.hosts_per_leaf = 2;
  cfg.scheme = harness::Scheme::kEcmp;  // no built-in prober: drive by hand
  harness::Scenario s{cfg};

  std::vector<net::Packet> replies;
  s.stack(0).on_probe_reply = [&](const net::Packet& p) { replies.push_back(p); };

  net::Packet probe;
  probe.id = 99;
  probe.probe_id = 7;
  probe.type = net::PacketType::kProbe;
  probe.src = 0;
  probe.dst = 2;
  probe.size = net::kProbeBytes;
  probe.ect = true;
  probe.ts_sent = s.simulator().now();
  probe.path_id = 1;
  probe.route = s.topology().forward_route(0, 2, probe.path_id);
  s.stack(0).send_raw(probe);
  s.run_for(msec(1));

  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].probe_id, 7u);
  EXPECT_EQ(replies[0].path_id, probe.path_id);
  EXPECT_EQ(replies[0].ts_echo, probe.ts_sent);
  EXPECT_FALSE(replies[0].ece);  // idle fabric: no CE observed
  EXPECT_EQ(replies[0].priority, 1);
}

TEST(HostStackProbes, UdpSinkHookReceivesPayload) {
  harness::ScenarioConfig cfg;
  cfg.topo.num_leaves = 2;
  cfg.topo.num_spines = 1;
  cfg.topo.hosts_per_leaf = 1;
  harness::Scenario s{cfg};
  std::uint64_t udp_bytes = 0;
  s.stack(1).on_udp = [&](const net::Packet& p) { udp_bytes += p.payload; };
  transport::UdpSource udp{s.simulator(), s.topology(), s.balancer(), 5, 0, 1,
                           1e9,           1000,          [&](net::Packet p) {
                             s.stack(0).send_raw(std::move(p));
                           }};
  udp.start();
  s.run_for(msec(1));
  udp.stop();
  // ~1Gbps for 1ms = ~125KB of payload.
  EXPECT_NEAR(static_cast<double>(udp_bytes), 120'000.0, 25'000.0);
}

// --- event queue interleavings -------------------------------------------------

TEST(EventInterleaving, PostAndTimerShareFifoOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  q.post_at(usec(5), [&] { order.push_back(1); });
  auto h = q.schedule_at(usec(5), [&] { order.push_back(2); });
  q.post_at(usec(5), [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(h.pending());
}

TEST(EventInterleaving, CancelledTimerBetweenPostsKeepsOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  q.post_at(usec(5), [&] { order.push_back(1); });
  auto h = q.schedule_at(usec(5), [&] { order.push_back(99); });
  q.post_at(usec(5), [&] { order.push_back(2); });
  h.cancel();
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// --- DRE quantization sweep -----------------------------------------------------

class DreQuantSweep : public ::testing::TestWithParam<double> {};

TEST_P(DreQuantSweep, QuantizationTracksUtilization) {
  const double util = GetParam();
  engine::Dre<engine::kLinkDre> dre;
  sim::SimTime t{};
  const auto gap = sim::SimTime::from_seconds(1500 * 8 / (util * 10e9));
  for (int i = 0; i < 6000; ++i) {
    dre.add(1500, t.ns());
    t += gap;
  }
  const int q = net::dre_quantized(dre, 10e9, t);
  EXPECT_NEAR(q, util * 7, 1.01) << "util=" << util;
}

INSTANTIATE_TEST_SUITE_P(Utils, DreQuantSweep, ::testing::Values(0.15, 0.3, 0.5, 0.7, 0.95));

}  // namespace
}  // namespace hermes
