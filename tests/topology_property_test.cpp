// Property sweep over fabric shapes: for EVERY host pair and EVERY
// index of its path list, a packet stamped with the forward route must
// arrive at the destination host through the real switches, and the
// reverse route must bring the reply back to the source. This pins down
// the port-indexing arithmetic for all leaf-spine and fat-tree shapes at
// once, and on a fat-tree which agg or core each index crosses.

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <vector>

#include <stdexcept>
#include <string>
#include <tuple>

#include "hermes/net/fattree.hpp"
#include "hermes/net/topology.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::net {
namespace {

struct Shape {
  int leaves, spines, hosts, links;
};

/// Sends packets through a fabric's real switches, one at a time. The
/// hosts' receive hooks point at it, so it stays where it was built.
class Courier {
 public:
  Courier(Fabric& fabric, sim::Simulator& simulator)
      : fabric_{fabric},
        simulator_{simulator},
        received_(static_cast<std::size_t>(fabric.num_hosts()), 0) {
    for (int h = 0; h < fabric.num_hosts(); ++h) {
      fabric.host(h).on_receive = [this, h](Packet p, int) {
        received_[static_cast<std::size_t>(h)] = p.id;
      };
    }
  }
  Courier(const Courier&) = delete;
  Courier& operator=(const Courier&) = delete;

  /// Send a packet from `src` along `route`, run the fabric dry, and say
  /// whether `dst` received it.
  bool delivers(int src, int dst, const Route& route) {
    Packet p;
    p.id = next_id_++;
    p.src = src;
    p.dst = dst;
    p.size = 64;
    p.route = route;
    fabric_.host(src).send(p);
    simulator_.run();
    return received_[static_cast<std::size_t>(dst)] == p.id;
  }

 private:
  Fabric& fabric_;
  sim::Simulator& simulator_;
  std::vector<std::uint64_t> received_;
  std::uint64_t next_id_ = 1;
};

class RouteSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(RouteSweep, EveryForwardAndReverseRouteDelivers) {
  const auto [leaves, spines, hosts, links] = GetParam();
  sim::Simulator simulator{1};
  TopologyConfig cfg;
  cfg.num_leaves = leaves;
  cfg.num_spines = spines;
  cfg.hosts_per_leaf = hosts;
  cfg.links_per_pair = links;
  Topology topo{simulator, cfg};
  Courier courier{topo, simulator};

  for (int src = 0; src < topo.num_hosts(); ++src) {
    for (int dst = 0; dst < topo.num_hosts(); ++dst) {
      if (src == dst) continue;
      const auto& paths = topo.paths_between_hosts(src, dst);
      if (paths.empty()) {
        // Intra-rack: single implicit path.
        ASSERT_TRUE(courier.delivers(src, dst, topo.forward_route(src, dst, -1)))
            << "intra " << src << "->" << dst;
        continue;
      }
      for (int i = 0; i < static_cast<int>(paths.size()); ++i) {
        const FabricPath& path = paths[static_cast<std::size_t>(i)];
        ASSERT_TRUE(courier.delivers(src, dst, topo.forward_route(src, dst, i)))
            << src << "->" << dst << " via path " << i << " (spine " << path.spine << ", link "
            << path.link_idx << ")";
        ASSERT_TRUE(courier.delivers(dst, src, topo.reverse_route(src, dst, i)))
            << "reverse " << src << "->" << dst << " via path " << i;
      }
    }
  }
}

std::string shape_name(const ::testing::TestParamInfo<Shape>& info) {
  const auto& s = info.param;
  return std::to_string(s.leaves) + "x" + std::to_string(s.spines) + "x" +
         std::to_string(s.hosts) + "x" + std::to_string(s.links);
}

INSTANTIATE_TEST_SUITE_P(Shapes, RouteSweep,
                         ::testing::Values(Shape{2, 1, 1, 1}, Shape{2, 2, 2, 1},
                                           Shape{2, 2, 3, 2}, Shape{3, 2, 2, 1},
                                           Shape{4, 4, 2, 1}, Shape{2, 2, 6, 2},
                                           Shape{5, 3, 1, 3}),
                         shape_name);

class CutSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(CutSweep, RoutesSurviveOneCutPerLeaf) {
  const auto [leaves, spines, hosts, links] = GetParam();
  if (spines * links < 2) GTEST_SKIP() << "cutting would disconnect";
  sim::Simulator simulator{1};
  TopologyConfig cfg;
  cfg.num_leaves = leaves;
  cfg.num_spines = spines;
  cfg.hosts_per_leaf = hosts;
  cfg.links_per_pair = links;
  // Cut one spine-0 link per leaf (staggered over parallel links so the
  // remaining spines always connect every pair).
  for (int l = 0; l < leaves; ++l) {
    cfg.fabric_overrides[{l, 0, l % links}] = 0;
  }
  Topology topo{simulator, cfg};
  Courier courier{topo, simulator};

  for (int a = 0; a < leaves; ++a) {
    for (int b = 0; b < leaves; ++b) {
      if (a == b) continue;
      const int src = topo.first_host_of_leaf(a);
      const int dst = topo.first_host_of_leaf(b);
      const auto& paths = topo.paths_between_leaves(a, b);
      ASSERT_FALSE(paths.empty());
      // No enumerated path may traverse a cut link, and all must deliver.
      for (int i = 0; i < static_cast<int>(paths.size()); ++i) {
        EXPECT_GT(paths[static_cast<std::size_t>(i)].capacity_bps, 0.0);
        ASSERT_TRUE(courier.delivers(src, dst, topo.forward_route(src, dst, i)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, CutSweep,
                         ::testing::Values(Shape{2, 2, 2, 1}, Shape{2, 2, 2, 2},
                                           Shape{4, 4, 1, 1}, Shape{3, 2, 1, 2}),
                         shape_name);

std::uint64_t tx_packets(const Switch& sw) {
  std::uint64_t tx = 0;
  for (int p = 0; p < sw.num_ports(); ++p) tx += sw.port(p).stats().tx_packets;
  return tx;
}

/// One-shard k-ary fat-trees. A fat-tree route is computed from the path
/// index alone: index i of an intra-pod pair turns at agg i, and index i
/// of an inter-pod pair crosses core i, so each index is checked against
/// the tx count of the switch it names, in both directions.
class FatTreeRouteSweep : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeRouteSweep, EveryIndexDeliversThroughItsAggOrCore) {
  sim::Simulator simulator{1};
  FatTreeConfig cfg;
  cfg.k = GetParam();
  FatTree ft{{&simulator}, cfg};
  Courier courier{ft, simulator};

  for (int src = 0; src < ft.num_hosts(); ++src) {
    for (int dst = 0; dst < ft.num_hosts(); ++dst) {
      if (src == dst) continue;
      const auto& paths = ft.paths_between_hosts(src, dst);
      if (paths.empty()) {
        ASSERT_TRUE(courier.delivers(src, dst, ft.forward_route(src, dst, -1)))
            << "intra " << src << "->" << dst;
        continue;
      }
      const int src_pod = ft.pod_of_leaf(ft.leaf_of(src));
      const bool inter_pod = src_pod != ft.pod_of_leaf(ft.leaf_of(dst));
      ASSERT_EQ(paths.size(), static_cast<std::size_t>(inter_pod ? ft.num_cores() : ft.k() / 2));
      for (int i = 0; i < static_cast<int>(paths.size()); ++i) {
        EXPECT_EQ(paths[static_cast<std::size_t>(i)].spine, inter_pod ? i : -1);
        const Switch& via = inter_pod ? ft.spine(i) : ft.agg(src_pod, i);
        const std::uint64_t before = tx_packets(via);
        ASSERT_TRUE(courier.delivers(src, dst, ft.forward_route(src, dst, i)))
            << src << "->" << dst << " via path " << i;
        ASSERT_EQ(tx_packets(via), before + 1) << src << "->" << dst << " missed " << via.name();
        ASSERT_TRUE(courier.delivers(dst, src, ft.reverse_route(src, dst, i)))
            << "reverse " << src << "->" << dst << " via path " << i;
        ASSERT_EQ(tx_packets(via), before + 2)
            << "reverse " << src << "->" << dst << " missed " << via.name();
      }
      EXPECT_THROW((void)ft.forward_route(src, dst, static_cast<int>(paths.size())),
                   std::out_of_range);
      EXPECT_THROW((void)ft.reverse_route(src, dst, -1), std::out_of_range);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(K, FatTreeRouteSweep, ::testing::Values(4, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "k" + std::to_string(info.param);
                         });

/// A fat-tree's path table is two runs that every leaf pair shares: all
/// intra-pod pairs view one k/2-entry run and all inter-pod pairs one
/// (k/2)^2-entry run, so the table does not grow with leaves^2.
class FatTreeSharedRuns : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeSharedRuns, EveryPairOfAKindViewsTheSameStorage) {
  sim::Simulator simulator{1};
  FatTreeConfig cfg;
  cfg.k = GetParam();
  FatTree ft{{&simulator}, cfg};
  const FabricPath* intra = ft.paths_between_leaves(0, 1).data();
  const FabricPath* inter = ft.paths_between_leaves(0, ft.num_leaves() - 1).data();
  ASSERT_NE(intra, inter);
  for (int a = 0; a < ft.num_leaves(); ++a) {
    for (int b = 0; b < ft.num_leaves(); ++b) {
      if (a == b) continue;
      const bool same_pod = ft.pod_of_leaf(a) == ft.pod_of_leaf(b);
      EXPECT_EQ(ft.paths_between_leaves(a, b).data(), same_pod ? intra : inter)
          << a << "->" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(K, FatTreeSharedRuns, ::testing::Values(4, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "k" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace hermes::net
