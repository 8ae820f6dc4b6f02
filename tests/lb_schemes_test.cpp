// Unit tests for the baseline load balancers: ECMP hashing, DRB/Presto*
// spraying (weighted and unweighted), and LetFlow flowlet switching.

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <vector>

#include <map>
#include <set>

#include "hermes/lb/ecmp.hpp"
#include "hermes/lb/letflow.hpp"
#include "hermes/lb/spray.hpp"
#include "hermes/net/topology.hpp"
#include "hermes/sim/simulator.hpp"

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

net::Packet data_packet() {
  net::Packet p;
  p.type = net::PacketType::kData;
  p.payload = 1460;
  p.size = 1500;
  return p;
}

TEST(Ecmp, StablePerFlow) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  EcmpLb lb{topo};
  auto f = make_flow(topo, 7, 0, 2);
  const int first = lb.select_path(f, data_packet());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(lb.select_path(f, data_packet()), first);
}

TEST(Ecmp, SpreadsFlowsAcrossPaths) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  EcmpLb lb{topo};
  std::set<int> used;
  for (std::uint64_t id = 0; id < 64; ++id) {
    auto f = make_flow(topo, id, 0, 2);
    used.insert(lb.select_path(f, data_packet()));
  }
  EXPECT_EQ(used.size(), 4u);  // all paths hit with 64 flows
}

TEST(Ecmp, IntraRackReturnsMinusOne) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  EcmpLb lb{topo};
  auto f = make_flow(topo, 1, 0, 1);
  EXPECT_EQ(lb.select_path(f, data_packet()), -1);
}

TEST(Ecmp, SaltChangesMapping) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  EcmpLb a{topo, 1}, b{topo, 2};
  int diff = 0;
  for (std::uint64_t id = 0; id < 64; ++id) {
    auto f = make_flow(topo, id, 0, 2);
    auto g = make_flow(topo, id, 0, 2);
    if (a.select_path(f, data_packet()) != b.select_path(g, data_packet())) ++diff;
  }
  EXPECT_GT(diff, 16);
}

TEST(Spray, PerPacketRoundRobinCyclesAllPaths) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  SprayLb lb{topo, SprayConfig{.cell_bytes = 0, .weighted = false}, "drb"};
  auto f = make_flow(topo, 5, 0, 2);
  std::map<int, int> counts;
  for (int i = 0; i < 40; ++i) ++counts[lb.select_path(f, data_packet())];
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [path, n] : counts) EXPECT_EQ(n, 10);
}

TEST(Spray, ConsecutivePacketsUseDifferentPaths) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  SprayLb lb{topo, SprayConfig{.cell_bytes = 0, .weighted = false}, "drb"};
  auto f = make_flow(topo, 5, 0, 2);
  const int a = lb.select_path(f, data_packet());
  const int b = lb.select_path(f, data_packet());
  EXPECT_NE(a, b);
}

TEST(Spray, FlowcellGranularityHoldsPathFor64KB) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  SprayLb lb{topo, SprayConfig{.cell_bytes = 64 * 1024, .weighted = false}, "presto"};
  auto f = make_flow(topo, 5, 0, 2);
  std::vector<int> seq;
  for (int i = 0; i < 100; ++i) seq.push_back(lb.select_path(f, data_packet()));
  // 64KB / 1460B = ~45 packets per cell.
  int changes = 0;
  for (std::size_t i = 1; i < seq.size(); ++i) changes += seq[i] != seq[i - 1];
  EXPECT_LE(changes, 3);
  EXPECT_GE(changes, 1);
}

TEST(Spray, WeightsFollowCapacityRatio) {
  auto cfg = topo4();
  // Make spine 0's links 2G: weight 1 against 5 for the 10G paths.
  cfg.fabric_overrides[{0, 0, 0}] = 2e9;
  cfg.fabric_overrides[{1, 0, 0}] = 2e9;
  sim::Simulator simulator{1};
  net::Topology topo{simulator, cfg};
  SprayLb lb{topo, SprayConfig{.cell_bytes = 0, .weighted = true}, "presto*"};
  auto f = make_flow(topo, 5, 0, 2);
  std::map<int, int> counts;
  for (int i = 0; i < 16 * 100; ++i) ++counts[lb.select_path(f, data_packet())];
  const auto& paths = topo.paths_between_leaves(0, 1);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const double frac = counts[static_cast<int>(i)] / 1600.0;
    if (paths[i].spine == 0) {
      EXPECT_NEAR(frac, 1.0 / 16.0, 0.01);
    } else {
      EXPECT_NEAR(frac, 5.0 / 16.0, 0.01);
    }
  }
}

TEST(Spray, WeightedAllocationIsConsecutive) {
  // The paper's Example 3: weights are served as consecutive bursts,
  // which is exactly what produces congestion mismatch.
  auto cfg = topo4();
  cfg.num_spines = 2;
  cfg.fabric_overrides[{0, 0, 0}] = 1e9;
  cfg.fabric_overrides[{1, 0, 0}] = 1e9;
  sim::Simulator simulator{1};
  net::Topology topo{simulator, cfg};
  SprayLb lb{topo, SprayConfig{.cell_bytes = 0, .weighted = true}, "presto*"};
  auto f = make_flow(topo, 5, 0, 2);
  std::vector<int> seq;
  for (int i = 0; i < 44; ++i) seq.push_back(lb.select_path(f, data_packet()));
  // Pattern must be runs of 10 on the fast path and 1 on the slow one.
  int max_run = 1, run = 1;
  for (std::size_t i = 1; i < seq.size(); ++i) {
    run = seq[i] == seq[i - 1] ? run + 1 : 1;
    max_run = std::max(max_run, run);
  }
  EXPECT_EQ(max_run, 10);
}

TEST(Spray, StateReleasedOnFlowCompletion) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  SprayLb lb{topo, SprayConfig{}, "drb"};
  auto f = make_flow(topo, 5, 0, 2);
  (void)lb.select_path(f, data_packet());
  lb.on_flow_complete(f);  // must not crash; frees per-flow cursor
  (void)lb.select_path(f, data_packet());
}

TEST(LetFlow, KeepsPathWithinFlowlet) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  LetFlowLb lb{simulator, topo, {.flowlet_timeout = usec(150)}};
  auto f = make_flow(topo, 5, 0, 2);
  const int first = lb.select_path(f, data_packet());
  f.current_path = first;
  f.has_sent = true;
  f.last_send = simulator.now();
  // Packets 10us apart: same flowlet, same path.
  for (int i = 0; i < 20; ++i) {
    simulator.run_until(simulator.now() + usec(10));
    EXPECT_EQ(lb.select_path(f, data_packet()), first);
    f.last_send = simulator.now();
  }
}

TEST(LetFlow, GapBeyondTimeoutMaySwitchPath) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  LetFlowLb lb{simulator, topo, {.flowlet_timeout = usec(150)}};
  auto f = make_flow(topo, 5, 0, 2);
  f.current_path = lb.select_path(f, data_packet());
  f.has_sent = true;
  f.last_send = simulator.now();
  std::set<int> seen;
  for (int i = 0; i < 64; ++i) {
    simulator.run_until(simulator.now() + usec(200));  // exceed timeout
    seen.insert(lb.select_path(f, data_packet()));
    f.last_send = simulator.now();
  }
  EXPECT_EQ(seen.size(), 4u);  // random choice explores all paths
}

TEST(LetFlow, ChoiceIsUniformish) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, topo4()};
  LetFlowLb lb{simulator, topo, {.flowlet_timeout = usec(1)}};
  std::map<int, int> counts;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    auto f = make_flow(topo, static_cast<std::uint64_t>(i), 0, 2);
    ++counts[lb.select_path(f, data_packet())];
  }
  for (const auto& [path, c] : counts) EXPECT_NEAR(c / static_cast<double>(n), 0.25, 0.05);
}

}  // namespace
}  // namespace hermes::lb
