// Unit tests for Topology: leaf-spine construction, path enumeration,
// asymmetry (rate overrides, link cuts), route building, and the derived
// quantities (bisection, base RTT, one-hop delay).

#include <cstddef>
#include <gtest/gtest.h>

#include <stdexcept>

#include "hermes/net/fattree.hpp"
#include "hermes/net/topology.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/sim/time.hpp"

namespace hermes::net {
namespace {

TopologyConfig small_config() {
  TopologyConfig c;
  c.num_leaves = 4;
  c.num_spines = 3;
  c.hosts_per_leaf = 2;
  c.host_rate_bps = 10e9;
  c.fabric_rate_bps = 10e9;
  return c;
}

TEST(TopologyTest, BuildsExpectedCounts) {
  sim::Simulator simulator{1};
  Topology topo{simulator, small_config()};
  EXPECT_EQ(topo.num_hosts(), 8);
  EXPECT_EQ(topo.leaf(0).num_ports(), 2 + 3);  // hosts + spines
  EXPECT_EQ(topo.spine(0).num_ports(), 4);     // leaves
}

TEST(TopologyTest, HostLeafMapping) {
  sim::Simulator simulator{1};
  Topology topo{simulator, small_config()};
  EXPECT_EQ(topo.leaf_of(0), 0);
  EXPECT_EQ(topo.leaf_of(1), 0);
  EXPECT_EQ(topo.leaf_of(2), 1);
  EXPECT_EQ(topo.leaf_of(7), 3);
  EXPECT_EQ(topo.local_index(5), 1);
  EXPECT_EQ(topo.first_host_of_leaf(2), 4);
}

TEST(TopologyTest, PathEnumerationPerPair) {
  sim::Simulator simulator{1};
  Topology topo{simulator, small_config()};
  const auto& paths = topo.paths_between_leaves(0, 1);
  ASSERT_EQ(paths.size(), 3u);  // one per spine
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(paths[i].spine, static_cast<int>(i));
    EXPECT_EQ(paths[i].link_idx, 0);
    EXPECT_DOUBLE_EQ(paths[i].capacity_bps, 10e9);
  }
}

TEST(TopologyTest, IntraLeafHasNoFabricPaths) {
  sim::Simulator simulator{1};
  Topology topo{simulator, small_config()};
  EXPECT_TRUE(topo.paths_between_leaves(2, 2).empty());
}

TEST(TopologyTest, ParallelLinksMultiplyPaths) {
  auto c = small_config();
  c.links_per_pair = 2;
  sim::Simulator simulator{1};
  Topology topo{simulator, c};
  EXPECT_EQ(topo.paths_between_leaves(0, 1).size(), 6u);  // 3 spines x 2
}

TEST(TopologyTest, RateOverrideReducesCapacity) {
  auto c = small_config();
  c.fabric_overrides[{0, 1, 0}] = 2e9;
  sim::Simulator simulator{1};
  Topology topo{simulator, c};
  const auto& paths = topo.paths_between_leaves(0, 2);
  EXPECT_DOUBLE_EQ(paths[1].capacity_bps, 2e9);  // degraded uplink
  EXPECT_DOUBLE_EQ(paths[0].capacity_bps, 10e9);
  // Reverse direction through the same physical link also degraded.
  EXPECT_DOUBLE_EQ(topo.paths_between_leaves(2, 0)[1].capacity_bps, 2e9);
}

TEST(TopologyTest, CutLinkRemovesPaths) {
  auto c = small_config();
  c.fabric_overrides[{0, 1, 0}] = 0;  // cut leaf0-spine1
  sim::Simulator simulator{1};
  Topology topo{simulator, c};
  EXPECT_EQ(topo.paths_between_leaves(0, 1).size(), 2u);
  EXPECT_EQ(topo.paths_between_leaves(1, 0).size(), 2u);
  EXPECT_EQ(topo.paths_between_leaves(1, 2).size(), 3u);  // unaffected pair
  // Indices stay dense after the cut: index 1 is now spine 2.
  const auto& p01 = topo.paths_between_leaves(0, 1);
  EXPECT_EQ(p01[0].spine, 0);
  EXPECT_EQ(p01[1].spine, 2);
}

TEST(TopologyTest, RouteRejectsAnIndexThePairLacks) {
  auto c = small_config();
  c.fabric_overrides[{0, 1, 0}] = 0;  // leaf 0's pairs keep 2 of 3 paths
  sim::Simulator simulator{1};
  Topology topo{simulator, c};
  // host 0 (leaf 0) -> host 2 (leaf 1): indices 0 and 1 only.
  EXPECT_EQ(topo.forward_route(0, 2, 1).ports[0], 2 + 2);  // uplink to spine 2
  EXPECT_THROW((void)topo.forward_route(0, 2, 2), std::out_of_range);
  EXPECT_THROW((void)topo.reverse_route(0, 2, 2), std::out_of_range);
  EXPECT_THROW((void)topo.forward_route(0, 2, -1), std::out_of_range);
  // host 2 (leaf 1) -> host 4 (leaf 2) keeps all three.
  EXPECT_EQ(topo.forward_route(2, 4, 2).len, 3);
}

TEST(TopologyTest, DisconnectedPairThrows) {
  auto c = small_config();
  c.fabric_overrides[{0, 0, 0}] = 0;
  c.fabric_overrides[{0, 1, 0}] = 0;
  c.fabric_overrides[{0, 2, 0}] = 0;
  sim::Simulator simulator{1};
  EXPECT_THROW((Topology{simulator, c}), std::invalid_argument);
}

TEST(TopologyTest, BadShapeThrows) {
  auto c = small_config();
  c.num_leaves = 0;
  sim::Simulator simulator{1};
  EXPECT_THROW((Topology{simulator, c}), std::invalid_argument);
}

TEST(TopologyTest, ForwardRouteInterRack) {
  sim::Simulator simulator{1};
  Topology topo{simulator, small_config()};
  // host 0 (leaf0) -> host 7 (leaf3) via spine 1 (path local index 1).
  const Route r = topo.forward_route(0, 7, 1);
  ASSERT_EQ(r.len, 3);
  EXPECT_EQ(r.ports[0], 2 + 1);  // leaf0 uplink to spine1
  EXPECT_EQ(r.ports[1], 3);      // spine1 downlink to leaf3
  EXPECT_EQ(r.ports[2], 1);      // leaf3 port to local host index 1
}

TEST(TopologyTest, ReverseRouteMirrorsForward) {
  sim::Simulator simulator{1};
  Topology topo{simulator, small_config()};
  const Route r = topo.reverse_route(0, 7, 1);
  ASSERT_EQ(r.len, 3);
  EXPECT_EQ(r.ports[0], 2 + 1);  // leaf3 uplink to spine1
  EXPECT_EQ(r.ports[1], 0);      // spine1 downlink to leaf0
  EXPECT_EQ(r.ports[2], 0);      // leaf0 port to local host index 0
}

TEST(TopologyTest, IntraRackRoutes) {
  sim::Simulator simulator{1};
  Topology topo{simulator, small_config()};
  const Route f = topo.forward_route(0, 1, -1);
  ASSERT_EQ(f.len, 1);
  EXPECT_EQ(f.ports[0], 1);
  const Route b = topo.reverse_route(0, 1, -1);
  ASSERT_EQ(b.len, 1);
  EXPECT_EQ(b.ports[0], 0);
}

TEST(TopologyTest, BisectionSumsUplinks) {
  sim::Simulator simulator{1};
  Topology topo{simulator, small_config()};
  EXPECT_DOUBLE_EQ(topo.bisection_bps(), 4 * 3 * 10e9);

  auto c = small_config();
  c.fabric_overrides[{0, 0, 0}] = 0;
  c.fabric_overrides[{1, 0, 0}] = 2e9;
  Topology asym{simulator, c};
  EXPECT_DOUBLE_EQ(asym.bisection_bps(), (4 * 3 - 2) * 10e9 + 2e9);
}

TEST(TopologyTest, EcnDefaultsScaleWithRate) {
  TopologyConfig c;
  EXPECT_EQ(c.ecn_bytes_for(10e9), 65u * 1500u);
  EXPECT_EQ(c.ecn_bytes_for(1e9), 20u * 1500u);  // clamped at 20 packets
  c.ecn_threshold_bytes = 30'000;
  EXPECT_EQ(c.ecn_bytes_for(1e9), 30'000u);
}

TEST(TopologyTest, OneHopDelayMatchesEcnThreshold) {
  sim::Simulator simulator{1};
  Topology topo{simulator, small_config()};
  // 65 packets * 1500B * 8 / 10G = 78us.
  EXPECT_NEAR(topo.one_hop_delay().to_usec(), 78.0, 0.5);
}

TEST(TopologyTest, BaseRttIsSmallButPositive) {
  sim::Simulator simulator{1};
  Topology topo{simulator, small_config()};
  EXPECT_GT(topo.base_rtt(), sim::usec(10));
  EXPECT_LT(topo.base_rtt(), sim::usec(50));
}

// Default link parameters: 10G everywhere, 2us per hop, a 65-packet
// (97,500-byte) ECN threshold. HermesConfig::defaults_for derives its RTT
// thresholds from these two values.
TEST(FabricTiming, LeafSpineDefaultsToTheNanosecond) {
  sim::Simulator simulator{1};
  Topology topo{simulator, TopologyConfig{}};
  // 97,500 B * 8 / 10G = 78us.
  EXPECT_EQ(topo.one_hop_delay(), sim::nsec(78'000));
  // 4 hops each way: 8 x 2us propagation, plus (1500 + 64) B x 4 hops
  // serialized at 10G = 5004.8ns, rounded to 5005ns.
  EXPECT_EQ(topo.base_rtt(), sim::nsec(21'005));
}

TEST(FabricTiming, FatTreeDefaultsToTheNanosecond) {
  sim::Simulator simulator{1};
  FatTree ft{{&simulator}, FatTreeConfig{}};
  EXPECT_EQ(ft.one_hop_delay(), sim::nsec(78'000));
  // 6 hops each way: 12 x 2us, plus (1500 + 64) B x 6 hops at 10G =
  // 7507.2ns, rounded to 7507ns.
  EXPECT_EQ(ft.base_rtt(), sim::nsec(31'507));
}

TEST(TopologyTest, FabricPortsAreFlagged) {
  sim::Simulator simulator{1};
  Topology topo{simulator, small_config()};
  EXPECT_TRUE(topo.leaf_uplink(0, 0).is_fabric);
  EXPECT_TRUE(topo.spine_downlink(1, 2).is_fabric);
  EXPECT_FALSE(topo.leaf(0).port(0).is_fabric);  // toward a host
  EXPECT_FALSE(topo.host(0).nic().is_fabric);
}

TEST(TopologyTest, TestbedShape) {
  // The paper's testbed: 2 leaves, 2 spines, 2 parallel links per pair,
  // 6 hosts per leaf, all 1G. 3:2 oversubscription; cutting one link
  // leaves 3 paths = 75% bisection for the pair.
  TopologyConfig c;
  c.num_leaves = 2;
  c.num_spines = 2;
  c.hosts_per_leaf = 6;
  c.links_per_pair = 2;
  c.host_rate_bps = 1e9;
  c.fabric_rate_bps = 1e9;
  sim::Simulator simulator{1};
  Topology topo{simulator, c};
  EXPECT_EQ(topo.paths_between_leaves(0, 1).size(), 4u);

  c.fabric_overrides[{0, 1, 1}] = 0;
  Topology cut{simulator, c};
  EXPECT_EQ(cut.paths_between_leaves(0, 1).size(), 3u);
}

}  // namespace
}  // namespace hermes::net
