// Unit tests for the Hermes load balancer adapter (lb::HermesLb over
// engine::Engine): Algorithm 2's rerouting decisions and cautious gates,
// blackhole detection per host pair, and power-of-two-choices probing —
// all driven through the simulator-facing lb::LoadBalancer surface.

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>

#include <set>

#include "hermes/lb/hermes.hpp"
#include "hermes/harness/scenario.hpp"
#include "hermes/net/topology.hpp"
#include "hermes/sim/simulator.hpp"

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

HermesConfig cfg_for(const net::Topology& topo) {
  auto c = HermesConfig::defaults_for(topo);
  c.probing_enabled = false;  // unit tests drive samples manually
  return c;
}

FlowCtx make_flow(const net::Topology& topo, std::uint64_t id, int src, int dst) {
  FlowCtx f;
  f.flow_id = id;
  f.src = src;
  f.dst = dst;
  f.src_leaf = topo.leaf_of(src);
  f.dst_leaf = topo.leaf_of(dst);
  return f;
}

net::Packet data_packet() {
  net::Packet p;
  p.type = net::PacketType::kData;
  p.payload = 1460;
  p.size = 1500;
  return p;
}

/// Make a path's state read as (rtt, ecn).
void set_state(HermesLb& h, int a, int b, int idx, sim::SimTime rtt, double ecn) {
  auto& st = h.path_state(a, b, idx);
  int marked = 0;
  for (int i = 0; i < 300; ++i) {
    const bool m = marked < ecn * (i + 1);
    if (m) ++marked;
    st.add_sample(rtt.ns(), m);
  }
}

class HermesLbTest : public ::testing::Test {
 protected:
  HermesLbTest()
      : simulator{1},
        topo{simulator, topo4()},
        cfg{cfg_for(topo)},
        ecfg{cfg.engine_config(topo.host_rate_bps())},
        h{simulator, topo, cfg} {}

  sim::Simulator simulator;
  net::Topology topo;
  HermesConfig cfg;
  engine::Config ecfg;
  HermesLb h;
};

TEST_F(HermesLbTest, NewFlowPrefersGoodPathWithLeastRate) {
  // Paths 0,1 good; 2 gray; 3 congested. Path 1 good but busy.
  set_state(h, 0, 1, 0, usec(30), 0.0);
  set_state(h, 0, 1, 1, usec(30), 0.0);
  set_state(h, 0, 1, 3, topo.base_rtt() + usec(400), 0.9);
  for (int i = 0; i < 100; ++i)
    h.path_state(0, 1, 1).add_send(15000, simulator.now().ns(), ecfg);

  auto f = make_flow(topo, 1, 0, 2);
  const int chosen = h.select_path(f, data_packet());
  EXPECT_EQ(chosen, 0);  // good and least-loaded
}

TEST_F(HermesLbTest, NewFlowFallsBackToGrayThenRandom) {
  // No good paths: 0 congested, 1,2,3 unknown (gray).
  set_state(h, 0, 1, 0, topo.base_rtt() + usec(400), 0.9);
  auto f = make_flow(topo, 1, 0, 2);
  const int chosen = h.select_path(f, data_packet());
  EXPECT_NE(chosen, 0);  // any gray path, not congested
}

TEST_F(HermesLbTest, StaysOnPathWhenNotCongested) {
  set_state(h, 0, 1, 0, usec(30), 0.0);
  auto f = make_flow(topo, 1, 0, 2);
  const int first = h.select_path(f, data_packet());
  f.current_path = first;
  f.has_sent = true;
  f.bytes_sent = 10'000'000;  // gates satisfied...
  // ...but the current path is good: no reroute regardless.
  for (int i = 0; i < 20; ++i) EXPECT_EQ(h.select_path(f, data_packet()), first);
}

TEST_F(HermesLbTest, ReroutesOffCongestedPathWhenGatesPass) {
  set_state(h, 0, 1, 0, cfg.t_rtt_high + usec(100), 0.9);  // congested
  set_state(h, 0, 1, 2, usec(30), 0.0);                    // notably better good
  auto f = make_flow(topo, 1, 0, 2);
  f.current_path = 0;
  f.has_sent = true;
  f.bytes_sent = cfg.sent_threshold_bytes + 1;  // S gate passes
  // r_f ~ 0 (no rate recorded): R gate passes.
  const int chosen = h.select_path(f, data_packet());
  EXPECT_EQ(chosen, 2);
}

TEST_F(HermesLbTest, SentSizeGateBlocksSmallFlows) {
  set_state(h, 0, 1, 0, cfg.t_rtt_high + usec(100), 0.9);
  set_state(h, 0, 1, 2, usec(30), 0.0);
  auto f = make_flow(topo, 1, 0, 2);
  f.current_path = 0;
  f.has_sent = true;
  f.bytes_sent = cfg.sent_threshold_bytes - 1;  // S gate fails
  EXPECT_EQ(h.select_path(f, data_packet()), 0);
}

TEST_F(HermesLbTest, HighRateGateBlocksFastFlows) {
  set_state(h, 0, 1, 0, cfg.t_rtt_high + usec(100), 0.9);
  set_state(h, 0, 1, 2, usec(30), 0.0);
  auto f = make_flow(topo, 1, 0, 2);
  f.current_path = 0;
  f.has_sent = true;
  f.bytes_sent = cfg.sent_threshold_bytes + 1;
  // Drive r_f above R = 30% of 10G.
  for (int i = 0; i < 2000; ++i) f.rate_dre.add(1500, simulator.now().ns());
  EXPECT_GT(f.rate_bps(simulator.now()), cfg.rate_threshold_frac * 10e9);
  EXPECT_EQ(h.select_path(f, data_packet()), 0);
}

TEST_F(HermesLbTest, NotablyBetterRequiresBothMargins) {
  // Current path congested. Candidate has much lower RTT but its ECN
  // fraction is only slightly lower: not notably better per Algorithm 2.
  set_state(h, 0, 1, 0, cfg.t_rtt_high + usec(100), 0.45);
  set_state(h, 0, 1, 1, usec(30), 0.42);
  auto f = make_flow(topo, 1, 0, 2);
  f.current_path = 0;
  f.has_sent = true;
  f.bytes_sent = cfg.sent_threshold_bytes + 1;
  EXPECT_EQ(h.select_path(f, data_packet()), 0);
}

TEST_F(HermesLbTest, TimeoutForcesFreshSelection) {
  set_state(h, 0, 1, 2, usec(30), 0.0);  // a good escape path
  auto f = make_flow(topo, 1, 0, 2);
  f.current_path = 0;
  f.has_sent = true;
  f.timeout_pending = true;
  const int chosen = h.select_path(f, data_packet());
  EXPECT_EQ(chosen, 2);
  EXPECT_FALSE(f.timeout_pending);  // consumed
}

TEST_F(HermesLbTest, ReroutingDisabledStaysOnCongestedPath) {
  auto cfg2 = cfg;
  cfg2.rerouting_enabled = false;
  HermesLb h2{simulator, topo, cfg2};
  set_state(h2, 0, 1, 0, cfg2.t_rtt_high + usec(100), 0.9);
  set_state(h2, 0, 1, 2, usec(30), 0.0);
  auto f = make_flow(topo, 1, 0, 2);
  f.current_path = 0;
  f.has_sent = true;
  f.bytes_sent = cfg2.sent_threshold_bytes + 1;
  EXPECT_EQ(h2.select_path(f, data_packet()), 0);
}

TEST_F(HermesLbTest, BlackholeDetectedAfterThreeTimeoutsWithoutAcks) {
  auto f = make_flow(topo, 1, 0, 2);
  f.current_path = 1;
  f.has_sent = true;
  // The per-(pair, path) count accrues across timeout events (possibly
  // from different flows of the pair revisiting the path).
  h.on_timeout(f);
  h.on_timeout(f);
  EXPECT_FALSE(h.blackholed(0, 2, 1));  // two is not enough
  h.on_timeout(f);
  EXPECT_TRUE(h.blackholed(0, 2, 1));
  EXPECT_FALSE(h.blackholed(0, 3, 1));  // other pairs unaffected
  EXPECT_FALSE(h.blackholed(0, 2, 0));  // other paths unaffected

  // The failed path is avoided on the next selection.
  f.timeout_pending = true;
  const int chosen = h.select_path(f, data_packet());
  EXPECT_NE(chosen, 1);
}

TEST_F(HermesLbTest, MidFlowOnsetDetectedDespiteEarlierProgress) {
  // A blackhole that onsets while a flow is mid-transfer: the flow made
  // plenty of progress on the path, then hits consecutive timeouts with
  // no ACK in between. Earlier progress must not veto detection.
  auto f = make_flow(topo, 1, 0, 2);
  f.current_path = 1;
  f.has_sent = true;
  // Progress on this path, pre-onset: an ACK after a stray timeout.
  h.on_timeout(f);
  net::Packet ack;
  ack.type = net::PacketType::kAck;
  ack.path_id = 1;
  ack.ts_echo = sim::SimTime::zero();
  h.on_ack(f, ack);
  for (std::uint32_t i = 0; i < engine::kBlackholeTimeouts; ++i) h.on_timeout(f);
  EXPECT_TRUE(h.blackholed(0, 2, 1));
}

TEST_F(HermesLbTest, AckBetweenTimeoutsResetsBlackholeCount) {
  auto f = make_flow(topo, 1, 0, 2);
  f.current_path = 1;
  f.has_sent = true;
  h.on_timeout(f);
  h.on_timeout(f);
  // An ACK for this (pair, path) proves it is not a blackhole.
  net::Packet ack;
  ack.type = net::PacketType::kAck;
  ack.path_id = 1;
  ack.ts_echo = sim::SimTime::zero();
  h.on_ack(f, ack);
  h.on_timeout(f);
  EXPECT_FALSE(h.blackholed(0, 2, 1));  // count restarted after the ACK
}

TEST_F(HermesLbTest, AllPathsBlackholedStillTransmits) {
  auto f = make_flow(topo, 1, 0, 2);
  const auto& paths = topo.paths_between_leaves(0, 1);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    f.current_path = static_cast<int>(i);
    f.has_sent = true;
      for (std::uint32_t k = 0; k < engine::kBlackholeTimeouts; ++k) h.on_timeout(f);
  }
  f.timeout_pending = true;
  const int chosen = h.select_path(f, data_packet());
  EXPECT_GE(chosen, 0);  // must still pick something
}

TEST_F(HermesLbTest, RetransmitAccountingFeedsPathState) {
  auto f = make_flow(topo, 1, 0, 2);
  for (int i = 0; i < 100; ++i)
    h.path_state(0, 1, 0).add_send(1500, simulator.now().ns(), ecfg);
  h.on_retransmit(f, 0);
  // Roll the epoch and confirm the fraction reflects 1/100.
  auto& st = h.path_state(0, 1, 0);
  st.roll_epoch(simulator.now().ns() + engine::kRetxEpoch + usec(1).ns(), ecfg);
  EXPECT_NEAR(st.retx_fraction(), 0.01, 0.001);
}

TEST_F(HermesLbTest, AckSampleUpdatesPathState) {
  auto f = make_flow(topo, 1, 0, 2);
  net::Packet ack;
  ack.type = net::PacketType::kAck;
  ack.path_id = 2;
  ack.ece = true;
  ack.ts_echo = usec(1);
  simulator.run_until(usec(101));
  h.on_ack(f, ack);
  EXPECT_TRUE(h.path_state(0, 1, 2).has_sample());
  EXPECT_EQ(h.path_state(0, 1, 2).rtt(), usec(100).ns());
  EXPECT_DOUBLE_EQ(h.path_state(0, 1, 2).ecn_fraction(), 1.0);
}

TEST_F(HermesLbTest, IntraRackFlowsBypassHermes) {
  auto f = make_flow(topo, 1, 0, 1);
  EXPECT_EQ(h.select_path(f, data_packet()), -1);
}

TEST(HermesConfigDefaults, DerivedFromTopology) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, net::TopologyConfig{}};
  const auto cfg = HermesConfig::defaults_for(topo);
  // one-hop delay at 10G/65pkts is 78us -> T_RTT_high ~= base + 117us.
  EXPECT_GT(cfg.t_rtt_high, cfg.t_rtt_low);
  EXPECT_NEAR(cfg.delta_rtt.to_usec(), 78.0, 1.0);
  EXPECT_NEAR((cfg.t_rtt_high - topo.base_rtt()).to_usec(), 117.0, 2.0);
  EXPECT_NEAR((cfg.t_rtt_low - topo.base_rtt()).to_usec(), 30.0, 0.1);
}

TEST(HermesConfigLowering, EngineConfigMatchesSimConfig) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, net::TopologyConfig{}};
  const auto cfg = HermesConfig::defaults_for(topo);
  const auto e = cfg.engine_config(topo.host_rate_bps());
  EXPECT_EQ(e.t_rtt_low, cfg.t_rtt_low.ns());
  EXPECT_EQ(e.t_rtt_high, cfg.t_rtt_high.ns());
  EXPECT_EQ(e.delta_rtt, cfg.delta_rtt.ns());
  EXPECT_DOUBLE_EQ(e.reroute_rate_limit_bps, cfg.rate_threshold_frac * topo.host_rate_bps());
  EXPECT_EQ(e.failure_expiry, cfg.failure_expiry.ns());
  EXPECT_EQ(e.reroute_min_gap, cfg.reroute_min_gap.ns());
}

// --- probing (wired through a real scenario) ----------------------------

TEST(HermesProbing, ProbesPopulateVisibility) {
  harness::ScenarioConfig cfg;
  cfg.topo = topo4();
  cfg.scheme = harness::Scheme::kHermes;
  harness::Scenario s{cfg};
  s.run_for(msec(5));
  auto* h = s.hermes();
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->probe_stats().probes_sent, 0u);
  EXPECT_GT(h->probe_stats().replies_received, 0u);
  // The paper's Table 6 claim: visibility of at least ~3 paths per pair.
  EXPECT_GE(h->sampled_paths(0, 1), 3);
  EXPECT_GE(h->sampled_paths(1, 0), 3);
}

TEST(HermesProbing, ThreeProbesPerPairPerInterval) {
  harness::ScenarioConfig cfg;
  cfg.topo = topo4();
  cfg.scheme = harness::Scheme::kHermes;
  cfg.hermes.probe_interval = usec(500);
  harness::Scenario s{cfg};
  s.run_for(msec(10));
  auto* h = s.hermes();
  // 2 ordered pairs x ~20 intervals x 2-3 probes (best may coincide with a
  // random choice).
  const auto sent = h->probe_stats().probes_sent;
  EXPECT_GE(sent, 2u * 19u * 2u);
  EXPECT_LE(sent, 2u * 21u * 3u);
}

TEST(HermesProbing, DisabledMeansNoProbes) {
  harness::ScenarioConfig cfg;
  cfg.topo = topo4();
  cfg.scheme = harness::Scheme::kHermes;
  cfg.hermes.probing_enabled = false;
  harness::Scenario s{cfg};
  s.run_for(msec(5));
  EXPECT_EQ(s.hermes()->probe_stats().probes_sent, 0u);
}

TEST(HermesProbing, IdleFabricProbesReadGood) {
  harness::ScenarioConfig cfg;
  cfg.topo = topo4();
  cfg.scheme = harness::Scheme::kHermes;
  harness::Scenario s{cfg};
  s.run_for(msec(20));
  auto* h = s.hermes();
  int good = 0, total = 0;
  for (int i = 0; i < 4; ++i) {
    if (!h->path_state(0, 1, i).has_sample()) continue;
    ++total;
    if (h->path_type(0, 1, i) == engine::PathType::kGood) ++good;
  }
  EXPECT_GT(total, 2);
  EXPECT_EQ(good, total);  // an idle fabric is all-good
}

}  // namespace
}  // namespace hermes::lb
