// Unit tests for the congestion-aware baselines: CONGA's DRE-based
// metrics, feedback loop, aging, and flowlet behaviour; CLOVE-ECN's
// ECN-driven weight adaptation.

#include <cstdint>
#include <gtest/gtest.h>

#include <set>

#include "hermes/lb/clove.hpp"
#include "hermes/lb/conga.hpp"
#include "hermes/net/topology.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::lb {
namespace {

using sim::msec;
using sim::usec;

net::TopologyConfig topo2x2() {
  net::TopologyConfig c;
  c.num_leaves = 2;
  c.num_spines = 2;
  c.hosts_per_leaf = 2;
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

net::Packet data_packet(int src, int dst, int path_id, std::uint8_t metric) {
  net::Packet p;
  p.type = net::PacketType::kData;
  p.src = src;
  p.dst = dst;
  p.payload = 1460;
  p.size = 1500;
  p.path_id = path_id;
  p.conga_ce = metric;
  return p;
}

TEST(Conga, FeedbackLoopPropagatesRemoteMetric) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo2x2()};
  CongaLb lb{simulator, topo, {}};

  // A data packet from host0 to host2 on path 0 arrives stamped with
  // congestion 5; the destination leaf stores it and piggybacks it on the
  // ACK; the source leaf learns it.
  auto data = data_packet(0, 2, 0, 5);
  lb.on_data_arrival(data);
  net::Packet ack;
  ack.type = net::PacketType::kAck;
  lb.decorate_ack(data, ack);
  ASSERT_TRUE(ack.conga_fb_valid);
  EXPECT_EQ(ack.conga_fb_lbtag, 0);
  EXPECT_EQ(ack.conga_fb_metric, 5);

  auto f = make_flow(topo, 1, 0, 2);
  lb.on_ack(f, ack);
  EXPECT_EQ(lb.path_metric(0, 1, 0), 5);
  EXPECT_EQ(lb.path_metric(0, 1, 1), 0);  // other path untouched
}

TEST(Conga, SelectsLeastCongestedPathForNewFlowlet) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo2x2()};
  CongaLb lb{simulator, topo, {}};

  // Mark path 0 congested via feedback; a fresh flow must pick path 1.
  auto data = data_packet(0, 2, 0, 7);
  lb.on_data_arrival(data);
  net::Packet ack;
  lb.decorate_ack(data, ack);
  auto f0 = make_flow(topo, 1, 0, 2);
  lb.on_ack(f0, ack);

  for (std::uint64_t id = 10; id < 20; ++id) {
    auto f = make_flow(topo, id, 0, 2);
    const int chosen = lb.select_path(f, data_packet(0, 2, -1, 0));
    EXPECT_EQ(chosen, 1);
  }
}

TEST(Conga, MetricAgesToZero) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo2x2()};
  CongaLb lb{simulator, topo, {.flowlet_timeout = usec(150), .metric_aging = msec(10)}};

  auto data = data_packet(0, 2, 0, 7);
  lb.on_data_arrival(data);
  net::Packet ack;
  lb.decorate_ack(data, ack);
  auto f = make_flow(topo, 1, 0, 2);
  lb.on_ack(f, ack);
  EXPECT_EQ(lb.path_metric(0, 1, 0), 7);
  simulator.run_until(msec(11));
  // After the aging interval the path is assumed empty (Example 4's
  // hidden-terminal behaviour depends on exactly this).
  EXPECT_EQ(lb.path_metric(0, 1, 0), 0);
}

TEST(Conga, FlowletStickinessWithinTimeout) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo2x2()};
  CongaLb lb{simulator, topo, {.flowlet_timeout = usec(150), .metric_aging = msec(10)}};
  auto f = make_flow(topo, 3, 0, 2);
  const int first = lb.select_path(f, data_packet(0, 2, -1, 0));
  f.current_path = first;
  f.has_sent = true;
  f.last_send = simulator.now();
  for (int i = 0; i < 10; ++i) {
    simulator.run_until(simulator.now() + usec(50));
    EXPECT_EQ(lb.select_path(f, data_packet(0, 2, -1, 0)), first);
    f.last_send = simulator.now();
  }
}

TEST(Conga, FeedbackCyclesOverPaths) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo2x2()};
  CongaLb lb{simulator, topo, {}};
  lb.on_data_arrival(data_packet(0, 2, 0, 3));
  lb.on_data_arrival(data_packet(0, 2, 1, 4));
  net::Packet a1, a2;
  auto d = data_packet(0, 2, 0, 3);
  lb.decorate_ack(d, a1);
  lb.decorate_ack(d, a2);
  ASSERT_TRUE(a1.conga_fb_valid && a2.conga_fb_valid);
  EXPECT_NE(a1.conga_fb_lbtag, a2.conga_fb_lbtag);  // round robin
}

TEST(Clove, InitialWeightsUniform) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo2x2()};
  CloveLb lb{simulator, topo, {}};
  auto w = lb.weights(0, 1);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w[0], w[1]);
}

TEST(Clove, EcnMarkShiftsWeightAway) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo2x2()};
  CloveLb lb{simulator, topo, {}};
  auto f = make_flow(topo, 1, 0, 2);
  f.current_path = 0;

  net::Packet ack;
  ack.type = net::PacketType::kAck;
  ack.ece = true;
  ack.path_id = 0;
  lb.on_ack(f, ack);

  auto w = lb.weights(0, 1);
  EXPECT_LT(w[0], w[1]);
  // Total weight is conserved.
  EXPECT_NEAR(w[0] + w[1], 2.0, 1e-9);
}

TEST(Clove, MarkRateLimited) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo2x2()};
  CloveLb lb{simulator, topo, {.mark_min_gap = usec(100)}};
  auto f = make_flow(topo, 1, 0, 2);
  net::Packet ack;
  ack.ece = true;
  ack.path_id = 0;
  lb.on_ack(f, ack);
  const auto w1 = lb.weights(0, 1);
  lb.on_ack(f, ack);  // same instant: must be ignored
  EXPECT_EQ(lb.weights(0, 1), w1);
  simulator.run_until(usec(200));
  lb.on_ack(f, ack);
  EXPECT_LT(lb.weights(0, 1)[0], w1[0]);
}

TEST(Clove, WeightNeverCollapsesToZero) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo2x2()};
  CloveLb lb{simulator, topo, {.mark_min_gap = usec(0)}};
  auto f = make_flow(topo, 1, 0, 2);
  net::Packet ack;
  ack.ece = true;
  ack.path_id = 0;
  for (int i = 0; i < 1000; ++i) {
    simulator.run_until(simulator.now() + usec(1));
    lb.on_ack(f, ack);
  }
  EXPECT_GT(lb.weights(0, 1)[0], 0.0);  // keeps probing the bad path
}

TEST(Clove, SelectionFollowsWeights) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo2x2()};
  CloveLb lb{simulator, topo, {.flowlet_timeout = usec(0), .mark_min_gap = usec(0)}};
  auto f = make_flow(topo, 1, 0, 2);
  // Push weight heavily off path 0.
  net::Packet ack;
  ack.ece = true;
  ack.path_id = 0;
  for (int i = 0; i < 30; ++i) {
    simulator.run_until(simulator.now() + usec(1));
    lb.on_ack(f, ack);
  }
  int on_path0 = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    auto g = make_flow(topo, 100 + static_cast<std::uint64_t>(i), 0, 2);
    if (lb.select_path(g, net::Packet{}) == 0) ++on_path0;
  }
  EXPECT_LT(on_path0, n / 4);  // strongly biased away from the marked path
}

TEST(Clove, FlowletKeepsPath) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo2x2()};
  CloveLb lb{simulator, topo, {.flowlet_timeout = usec(150)}};
  auto f = make_flow(topo, 1, 0, 2);
  const int first = lb.select_path(f, net::Packet{});
  f.current_path = first;
  f.has_sent = true;
  f.last_send = simulator.now();
  simulator.run_until(usec(50));
  EXPECT_EQ(lb.select_path(f, net::Packet{}), first);
}

}  // namespace
}  // namespace hermes::lb
