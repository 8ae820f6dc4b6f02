// Transport tests: DCTCP/NewReno sender behaviour (slow start, ECN
// window cut, fast retransmit, RTO), receiver ACK/reorder semantics, and
// flow completion accounting, exercised end-to-end through tiny fabrics.

#include <cstdint>
#include <gtest/gtest.h>

#include "hermes/harness/scenario.hpp"
#include "hermes/net/topology.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/transport/tcp_receiver.hpp"
#include "hermes/transport/tcp_sender.hpp"

namespace hermes::transport {
namespace {

using harness::Scenario;
using harness::ScenarioConfig;
using harness::Scheme;
using sim::msec;
using sim::usec;

/// 2 leaves x 1 spine x 1 host each: a single deterministic path.
ScenarioConfig single_path_config() {
  ScenarioConfig cfg;
  cfg.topo.num_leaves = 2;
  cfg.topo.num_spines = 1;
  cfg.topo.hosts_per_leaf = 1;
  cfg.topo.host_rate_bps = 10e9;
  cfg.topo.fabric_rate_bps = 10e9;
  cfg.scheme = Scheme::kEcmp;
  return cfg;
}

TEST(TcpFlow, SingleFlowReachesLineRate) {
  Scenario s{single_path_config()};
  s.add_flow(0, 1, 10'000'000, sim::SimTime::zero());
  auto fct = s.run();
  ASSERT_EQ(fct.overall().count, 1u);
  // 10MB at 10G is 8ms of serialization; allow 25% for ramp-up/RTT.
  EXPECT_GT(fct.overall().mean_us, 8000.0);
  EXPECT_LT(fct.overall().mean_us, 10'000.0);
}

TEST(TcpFlow, TinyFlowFinishesInInitialWindow) {
  Scenario s{single_path_config()};
  s.add_flow(0, 1, 5'000, sim::SimTime::zero());  // 4 segments < IW=10
  auto fct = s.run();
  const auto& r = fct.records().front();
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(r.packets_retransmitted, 0u);
  // One RTT-ish: well under a millisecond on an idle 10G fabric.
  EXPECT_LT(r.fct().to_usec(), 100.0);
}

TEST(TcpFlow, FctGrowsWithSize) {
  Scenario s{single_path_config()};
  s.add_flow(0, 1, 100'000, usec(0));
  auto id2 = s.add_flow(1, 0, 10'000'000, usec(0));  // opposite direction
  auto fct = s.run();
  double small_fct = 0, big_fct = 0;
  for (const auto& r : fct.records()) {
    (r.id == id2 ? big_fct : small_fct) = r.fct().to_usec();
  }
  EXPECT_LT(small_fct, big_fct / 10);
}

TEST(TcpFlow, TwoFlowsShareBottleneckFairly) {
  auto cfg = single_path_config();
  cfg.topo.hosts_per_leaf = 2;
  Scenario s{cfg};
  // Both flows 0->2 direction share the single 10G uplink.
  s.add_flow(0, 2, 5'000'000, usec(0));
  s.add_flow(1, 3, 5'000'000, usec(0));
  auto fct = s.run();
  ASSERT_EQ(fct.overall().count, 2u);
  const double a = fct.records()[0].fct().to_usec();
  const double b = fct.records()[1].fct().to_usec();
  // Equal shares: both finish around 8ms (2x 4ms solo), within 30%.
  EXPECT_NEAR(a / b, 1.0, 0.3);
  EXPECT_GT(a, 6000.0);
  EXPECT_LT(a, 11'000.0);
}

TEST(TcpFlow, DctcpKeepsQueueNearThreshold) {
  auto cfg = single_path_config();
  Scenario s{cfg};
  s.add_flow(0, 1, 20'000'000, usec(0));
  // A single flow's first bottleneck is its own NIC (all links 10G);
  // sample that backlog during steady state.
  struct BacklogMax {
    const net::Port& port;
    std::uint32_t seen = 0;
    void sample() { seen = std::max(seen, port.backlog_bytes()); }
  };
  auto& port = s.topology().host(0).nic();
  BacklogMax max{port};
  for (int i = 0; i < 100; ++i) s.simulator().at<&BacklogMax::sample>(msec(2) + usec(50) * i, &max);
  auto fct = s.run();
  EXPECT_EQ(fct.unfinished_flows(), 0u);
  // With step marking at K the backlog stays in the vicinity of K: far
  // below the 6x-K buffer, and it must have produced marks.
  EXPECT_LT(max.seen, 3 * cfg.topo.ecn_bytes_for(10e9));
  EXPECT_GT(port.stats().ecn_marks, 0u);
}

TEST(TcpFlow, DctcpAlphaRisesUnderPersistentCongestion) {
  auto cfg = single_path_config();
  cfg.topo.hosts_per_leaf = 2;
  Scenario s{cfg};
  transport::FlowSpec spec;
  spec.id = 77;
  spec.src = 0;
  spec.dst = 2;
  spec.size = 30'000'000;
  spec.start = sim::SimTime::zero();
  auto& sender = s.stack(0).start_flow(spec, nullptr);
  s.add_flow(1, 3, 30'000'000, usec(0));
  s.run_for(msec(10));
  EXPECT_GT(sender.dctcp_alpha(), 0.01);
  EXPECT_LT(sender.dctcp_alpha(), 1.0);
}

TEST(TcpFlow, RandomDropsTriggerFastRetransmitNotOnlyRto) {
  auto cfg = single_path_config();
  Scenario s{cfg};
  s.topology().spine(0).set_failure({.blackhole = nullptr, .random_drop_rate = 0.01});
  s.add_flow(0, 1, 5'000'000, usec(0));
  auto fct = s.run();
  const auto& r = fct.records().front();
  EXPECT_TRUE(r.finished);
  EXPECT_GT(r.fast_retransmits, 0u);
  EXPECT_GT(r.packets_retransmitted, 0u);
}

TEST(TcpFlow, BlackholeLeavesFlowUnfinishedUnderEcmp) {
  auto cfg = single_path_config();
  cfg.max_sim_time = msec(200);
  Scenario s{cfg};
  s.topology().spine(0).set_failure(
      {.blackhole = [](const net::Packet& p) { return p.type == net::PacketType::kData; },
       .random_drop_rate = 0.0});
  s.add_flow(0, 1, 100'000, usec(0));
  auto fct = s.run();
  EXPECT_EQ(fct.unfinished_flows(), 1u);
  EXPECT_GT(fct.records().front().timeouts, 2u);  // RTOs kept firing
}

TEST(TcpFlow, RtoBacksOffExponentially) {
  auto cfg = single_path_config();
  cfg.max_sim_time = msec(500);
  Scenario s{cfg};
  s.topology().spine(0).set_failure(
      {.blackhole = [](const net::Packet&) { return true; }, .random_drop_rate = 0.0});
  s.add_flow(0, 1, 100'000, usec(0));
  auto fct = s.run();
  const auto& r = fct.records().front();
  // 500ms with 10ms initial RTO and doubling: 10+20+40+80+160+320 caps
  // around 6-7 timeouts; without backoff it would be ~50.
  EXPECT_GE(r.timeouts, 5u);
  EXPECT_LE(r.timeouts, 10u);
}

TEST(TcpFlow, CompletionRecordFields) {
  Scenario s{single_path_config()};
  s.add_flow(0, 1, 1'000'000, usec(100));
  auto fct = s.run();
  const auto& r = fct.records().front();
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(r.size, 1'000'000u);
  EXPECT_EQ(r.start, usec(100));
  EXPECT_GT(r.end, r.start);
  EXPECT_GE(r.packets_sent, 1'000'000u / 1460u);
}

TEST(TcpFlow, ZeroByteFlowCompletesImmediately) {
  Scenario s{single_path_config()};
  s.add_flow(0, 1, 0, usec(5));
  auto fct = s.run();
  EXPECT_TRUE(fct.records().front().finished);
  EXPECT_EQ(fct.records().front().fct(), sim::SimTime::zero());
}

TEST(TcpFlow, IntraRackFlowNeedsNoFabric) {
  auto cfg = single_path_config();
  cfg.topo.hosts_per_leaf = 2;
  Scenario s{cfg};
  s.add_flow(0, 1, 1'000'000, usec(0));
  auto fct = s.run();
  EXPECT_TRUE(fct.records().front().finished);
  EXPECT_EQ(s.topology().leaf_uplink(0, 0).stats().tx_packets, 0u);
}

TEST(TcpFlow, PlainTcpModeIgnoresEcn) {
  auto cfg = single_path_config();
  cfg.tcp.dctcp = false;
  Scenario s{cfg};
  s.add_flow(0, 1, 10'000'000, usec(0));
  auto fct = s.run();
  EXPECT_TRUE(fct.records().front().finished);
  // ECN disabled fabric-wide in TCP mode: no marks anywhere.
  EXPECT_EQ(s.topology().leaf_uplink(0, 0).stats().ecn_marks, 0u);
}

TEST(TcpFlow, ByteConservationUnderLoss) {
  auto cfg = single_path_config();
  Scenario s{cfg};
  s.topology().spine(0).set_failure({.blackhole = nullptr, .random_drop_rate = 0.02});
  const auto id = s.add_flow(0, 1, 2'000'000, usec(0));
  auto fct = s.run();
  EXPECT_TRUE(fct.records().front().finished);
  auto* recv = s.stack(1).receiver(id);
  ASSERT_NE(recv, nullptr);
  EXPECT_EQ(recv->rcv_nxt(), 2'000'000u);
}

// --- reordering masking -------------------------------------------------

/// 2 spines so spraying actually reorders.
ScenarioConfig spray_config(bool reorder_buffer) {
  ScenarioConfig cfg;
  cfg.topo.num_leaves = 2;
  cfg.topo.num_spines = 2;
  cfg.topo.hosts_per_leaf = 1;
  cfg.scheme = Scheme::kDrb;  // per-packet round robin
  cfg.tcp.reorder_buffer = reorder_buffer;  // note: Scenario forces it on
  return cfg;
}

TEST(ReorderBuffer, SprayingWithMaskAvoidsSpuriousRetransmits) {
  Scenario s{spray_config(true)};
  s.add_flow(0, 1, 10'000'000, usec(0));
  auto fct = s.run();
  const auto& r = fct.records().front();
  EXPECT_TRUE(r.finished);
  // Equal-length parallel paths: reordering is mild and fully masked.
  EXPECT_EQ(r.fast_retransmits, 0u);
}

TEST(ReorderBuffer, LossStillRecoveredThroughMask) {
  auto cfg = spray_config(true);
  Scenario s{cfg};
  s.topology().spine(0).set_failure({.blackhole = nullptr, .random_drop_rate = 0.01});
  s.add_flow(0, 1, 5'000'000, usec(0));
  auto fct = s.run();
  const auto& r = fct.records().front();
  EXPECT_TRUE(r.finished);
  EXPECT_GT(r.packets_retransmitted, 0u);
}

TEST(ReorderBuffer, ReceiverMergesOutOfOrderSegments) {
  Scenario s{spray_config(true)};
  const auto id = s.add_flow(0, 1, 3'000'000, usec(0));
  auto fct = s.run();
  EXPECT_TRUE(fct.records().front().finished);
  EXPECT_EQ(s.stack(1).receiver(id)->rcv_nxt(), 3'000'000u);
}

}  // namespace
}  // namespace hermes::transport
