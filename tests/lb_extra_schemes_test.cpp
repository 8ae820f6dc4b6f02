// Unit tests for the additional Table 1 baselines: FlowBender (blind
// flow-level rehashing on congestion) and DRILL (switch-local
// power-of-d-choices per packet).

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>

#include <set>

#include "hermes/harness/scenario.hpp"
#include "hermes/lb/drill.hpp"
#include "hermes/lb/flowbender.hpp"
#include "hermes/net/topology.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/workload/flow_gen.hpp"

namespace hermes::lb {
namespace {

using sim::usec;

net::TopologyConfig topo4() {
  net::TopologyConfig c;
  c.num_leaves = 2;
  c.num_spines = 4;
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

net::Packet ack_packet(bool ece) {
  net::Packet a;
  a.type = net::PacketType::kAck;
  a.ece = ece;
  return a;
}

TEST(FlowBender, StableWithoutCongestion) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  FlowBenderLb lb{simulator, topo};
  auto f = make_flow(topo, 9, 0, 2);
  const int first = lb.select_path(f, net::Packet{});
  for (int i = 0; i < 100; ++i) {
    simulator.run_until(simulator.now() + usec(50));
    lb.on_ack(f, ack_packet(false));
    EXPECT_EQ(lb.select_path(f, net::Packet{}), first);
  }
  EXPECT_EQ(lb.bends(9), 0u);
}

TEST(FlowBender, BendsWhenMarkFractionHigh) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  FlowBenderLb lb{simulator, topo, {.mark_threshold = 0.05, .epoch = usec(200)}};
  auto f = make_flow(topo, 9, 0, 2);
  std::set<int> seen{lb.select_path(f, net::Packet{})};
  for (int i = 0; i < 40; ++i) {
    simulator.run_until(simulator.now() + usec(50));
    lb.on_ack(f, ack_packet(true));  // 100% marked
    seen.insert(lb.select_path(f, net::Packet{}));
  }
  EXPECT_GE(lb.bends(9), 2u);
  // Bending rehashes; across several bends the flow must have moved
  // (a single rehash may collide with the original path by chance).
  EXPECT_GT(seen.size(), 1u);
}

TEST(FlowBender, SubThresholdMarksDoNotBend) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  FlowBenderLb lb{simulator, topo, {.mark_threshold = 0.5, .epoch = usec(200)}};
  auto f = make_flow(topo, 9, 0, 2);
  (void)lb.select_path(f, net::Packet{});
  for (int i = 0; i < 40; ++i) {
    simulator.run_until(simulator.now() + usec(50));
    lb.on_ack(f, ack_packet(i % 4 == 0));  // 25% < 50%
  }
  EXPECT_EQ(lb.bends(9), 0u);
}

TEST(FlowBender, TimeoutBends) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  FlowBenderLb lb{simulator, topo};
  auto f = make_flow(topo, 9, 0, 2);
  const int first = lb.select_path(f, net::Packet{});
  f.timeout_pending = true;  // as the transport would set on RTO
  const int after = lb.select_path(f, net::Packet{});
  EXPECT_FALSE(f.timeout_pending);  // consumed
  EXPECT_NE(after, first);
  EXPECT_EQ(lb.bends(9), 1u);
}

TEST(FlowBender, RehashReachesAllPaths) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  FlowBenderLb lb{simulator, topo};
  auto f = make_flow(topo, 9, 0, 2);
  std::set<int> seen;
  for (int i = 0; i < 40; ++i) {
    seen.insert(lb.select_path(f, net::Packet{}));
    f.timeout_pending = true;
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Drill, PicksEmptierUplink) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  DrillLb lb{simulator, topo, {.samples = 4}};  // samples >= paths: exhaustive
  // Stuff packets into the uplink toward spine 2 so its backlog is big.
  auto& busy = topo.leaf_uplink(0, 2);
  for (int i = 0; i < 50; ++i) {
    net::Packet p;
    p.size = 1500;
    p.route.push(0);
    busy.send(std::move(p));
  }
  auto f = make_flow(topo, 1, 0, 2);
  for (int i = 0; i < 20; ++i) {
    const int chosen = lb.select_path(f, net::Packet{});
    EXPECT_NE(topo.paths_between_leaves(0, 1)[static_cast<std::size_t>(chosen)].spine, 2);
  }
}

TEST(Drill, RemembersBestQueue) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  DrillLb lb{simulator, topo, {.samples = 1}};
  auto f = make_flow(topo, 1, 0, 2);
  // All queues empty: with memory, consecutive picks should not thrash
  // randomly across all 4 paths — the remembered queue ties and wins
  // unless a sampled one is strictly shorter.
  const int first = lb.select_path(f, net::Packet{});
  int same = 0;
  for (int i = 0; i < 50; ++i) same += lb.select_path(f, net::Packet{}) == first ? 1 : 0;
  EXPECT_GT(same, 40);
}

TEST(ExtraSchemes, EndToEndRunsComplete) {
  for (auto scheme : {harness::Scheme::kFlowBender, harness::Scheme::kDrill}) {
    harness::ScenarioConfig cfg;
    cfg.topo = topo4();
    cfg.scheme = scheme;
    harness::Scenario s{cfg};
    workload::TrafficConfig tc{.load = 0.5, .num_flows = 150, .seed = 2};
    s.add_flows(workload::generate_poisson_traffic(s.topology(),
                                                   workload::SizeDist::web_search(), tc));
    auto fct = s.run();
    EXPECT_EQ(fct.unfinished_flows(), 0u) << harness::to_string(scheme);
  }
}

}  // namespace
}  // namespace hermes::lb
