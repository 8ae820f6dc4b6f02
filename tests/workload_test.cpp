// Tests for the workload module: CDF validity, inverse-transform
// sampling statistics, and the Poisson open-loop flow generator.

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <set>

#include <map>

#include "hermes/net/topology.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/workload/flow_gen.hpp"
#include "hermes/workload/size_dist.hpp"

namespace hermes::workload {
namespace {

TEST(SizeDist, RejectsMalformedCdf) {
  EXPECT_THROW(SizeDist("x", {{0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(SizeDist("x", {{0, 0.0}, {10, 0.9}}), std::invalid_argument);
  EXPECT_THROW(SizeDist("x", {{10, 0.0}, {5, 1.0}}), std::invalid_argument);
  EXPECT_THROW(SizeDist("x", {{0, 0.5}, {10, 0.2}, {20, 1.0}}), std::invalid_argument);
}

TEST(SizeDist, SampleMeanMatchesAnalyticMean) {
  const auto ws = SizeDist::web_search();
  engine::Rng rng{5};
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(ws.sample(rng));
  EXPECT_NEAR(sum / n / ws.mean_bytes(), 1.0, 0.03);
}

TEST(SizeDist, SamplesWithinSupport) {
  const auto dm = SizeDist::data_mining();
  engine::Rng rng{5};
  for (int i = 0; i < 10'000; ++i) {
    const auto s = dm.sample(rng);
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 1'000'000'000u);
  }
}

TEST(SizeDist, SampleQuantilesMatchCdf) {
  const auto ws = SizeDist::web_search();
  engine::Rng rng{9};
  int below_100k = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) below_100k += ws.sample(rng) < 100'000 ? 1 : 0;
  EXPECT_NEAR(below_100k / static_cast<double>(n), ws.cdf(100e3), 0.01);
}

TEST(SizeDist, CdfMonotoneAndBounded) {
  const auto dm = SizeDist::data_mining();
  double prev = -1;
  for (double b = 0; b < 2e9; b = b * 1.7 + 100) {
    const double c = dm.cdf(b);
    EXPECT_GE(c, prev);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(dm.cdf(2e9), 1.0);
}

TEST(SizeDist, WebSearchMeanIsAbout1_7MB) {
  EXPECT_NEAR(SizeDist::web_search().mean_bytes() / 1e6, 1.7, 0.2);
}

TEST(SizeDist, DataMiningIsMoreSkewedThanWebSearch) {
  const auto ws = SizeDist::web_search();
  const auto dm = SizeDist::data_mining();
  // Data-mining: more tiny flows AND a heavier tail (Fig. 7).
  EXPECT_GT(dm.cdf(10e3), ws.cdf(10e3));
  EXPECT_GT(dm.mean_bytes(), ws.mean_bytes());
}

TEST(SizeDist, ScaledPreservesShape) {
  const auto ws = SizeDist::web_search();
  const auto half = ws.scaled(0.5);
  EXPECT_NEAR(half.mean_bytes(), ws.mean_bytes() / 2, 1.0);
  EXPECT_DOUBLE_EQ(half.cdf(50e3), ws.cdf(100e3));
}

class FlowGenTest : public ::testing::Test {
 protected:
  FlowGenTest() : simulator{1}, topo{simulator, config()} {}
  static net::TopologyConfig config() {
    net::TopologyConfig c;
    c.num_leaves = 4;
    c.num_spines = 4;
    c.hosts_per_leaf = 4;
    return c;
  }
  sim::Simulator simulator;
  net::Topology topo;
};

TEST_F(FlowGenTest, DeterministicForSeed) {
  TrafficConfig tc{.load = 0.5, .num_flows = 200, .seed = 7};
  const auto a = generate_poisson_traffic(topo, SizeDist::web_search(), tc);
  const auto b = generate_poisson_traffic(topo, SizeDist::web_search(), tc);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].size, b[i].size);
    EXPECT_EQ(a[i].start, b[i].start);
  }
}

TEST_F(FlowGenTest, ArrivalsAreOrderedAndIdsUnique) {
  TrafficConfig tc{.load = 0.5, .num_flows = 500, .seed = 3};
  const auto flows = generate_poisson_traffic(topo, SizeDist::web_search(), tc);
  std::set<std::uint64_t> ids;
  sim::SimTime prev{};
  for (const auto& f : flows) {
    EXPECT_GE(f.start, prev);
    prev = f.start;
    ids.insert(f.id);
  }
  EXPECT_EQ(ids.size(), flows.size());
}

TEST_F(FlowGenTest, InterRackOnly) {
  TrafficConfig tc{.load = 0.5, .num_flows = 500, .seed = 3};
  for (const auto& f : generate_poisson_traffic(topo, SizeDist::web_search(), tc)) {
    EXPECT_NE(topo.leaf_of(f.src), topo.leaf_of(f.dst));
  }
}

TEST_F(FlowGenTest, ArrivalRateMatchesLoad) {
  const auto dist = SizeDist::web_search();
  TrafficConfig tc{.load = 0.6, .num_flows = 4000, .seed = 11};
  const auto flows = generate_poisson_traffic(topo, dist, tc);
  const double duration = flows.back().start.to_seconds();
  double bytes = 0;
  for (const auto& f : flows) bytes += static_cast<double>(f.size);
  const double offered_bps = bytes * 8 / duration;
  EXPECT_NEAR(offered_bps / topo.bisection_bps(), 0.6, 0.1);
}

TEST_F(FlowGenTest, SourcesCoverAllHosts) {
  TrafficConfig tc{.load = 0.5, .num_flows = 2000, .seed = 5};
  std::map<int, int> srcs;
  for (const auto& f : generate_poisson_traffic(topo, SizeDist::web_search(), tc)) ++srcs[f.src];
  EXPECT_EQ(static_cast<int>(srcs.size()), topo.num_hosts());
}

TEST_F(FlowGenTest, RejectsBadConfig) {
  TrafficConfig tc{.load = 0.0, .num_flows = 10, .seed = 1};
  EXPECT_THROW(generate_poisson_traffic(topo, SizeDist::web_search(), tc),
               std::invalid_argument);
}

TEST_F(FlowGenTest, RejectsNegativeFlowCount) {
  TrafficConfig tc{.load = 0.5, .num_flows = -5, .seed = 1};
  EXPECT_THROW(generate_poisson_traffic(topo, SizeDist::web_search(), tc),
               std::invalid_argument);
  tc.num_flows = 0;
  EXPECT_TRUE(generate_poisson_traffic(topo, SizeDist::web_search(), tc).empty());
}

}  // namespace
}  // namespace hermes::workload
