// Tests for the harness module: scenario composition, scheme factory,
// run semantics, balancer decoration, traces, and the path-usage
// recorder.

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <string>

#include "hermes/harness/experiment.hpp"
#include "hermes/harness/scenario.hpp"
#include "hermes/harness/trace.hpp"
#include "hermes/stats/path_usage.hpp"
#include "hermes/workload/flow_gen.hpp"

namespace hermes::harness {
namespace {

using sim::msec;
using sim::usec;

net::TopologyConfig small() {
  net::TopologyConfig c;
  c.num_leaves = 2;
  c.num_spines = 2;
  c.hosts_per_leaf = 2;
  return c;
}

TEST(Scenario, BuildsEverySchemeAndRunsAFlow) {
  for (Scheme scheme :
       {Scheme::kEcmp, Scheme::kDrb, Scheme::kPrestoStar, Scheme::kLetFlow, Scheme::kConga,
        Scheme::kCloveEcn, Scheme::kHermes, Scheme::kFlowBender, Scheme::kDrill, Scheme::kWcmp}) {
    ScenarioConfig cfg;
    cfg.topo = small();
    cfg.scheme = scheme;
    Scenario s{cfg};
    s.add_flow(0, 2, 500'000, usec(0));
    auto fct = s.run();
    EXPECT_EQ(fct.unfinished_flows(), 0u) << to_string(scheme);
    EXPECT_EQ(fct.total_flows(), 1u);
  }
}

TEST(Scenario, HermesAccessorOnlyForHermes) {
  ScenarioConfig cfg;
  cfg.topo = small();
  cfg.scheme = Scheme::kEcmp;
  Scenario e{cfg};
  EXPECT_EQ(e.hermes(), nullptr);
  cfg.scheme = Scheme::kHermes;
  Scenario h{cfg};
  EXPECT_NE(h.hermes(), nullptr);
}

TEST(Scenario, HermesThresholdsDerivedFromTopology) {
  ScenarioConfig cfg;
  cfg.topo = small();
  cfg.scheme = Scheme::kHermes;
  Scenario s{cfg};
  const auto& hc = s.hermes()->config();
  EXPECT_GT(hc.t_rtt_low, sim::SimTime::zero());
  EXPECT_GT(hc.t_rtt_high, hc.t_rtt_low);
  EXPECT_GT(hc.delta_rtt, sim::SimTime::zero());
}

TEST(Scenario, ExplicitHermesThresholdsRespected) {
  ScenarioConfig cfg;
  cfg.topo = small();
  cfg.scheme = Scheme::kHermes;
  cfg.hermes.t_rtt_high = usec(777);
  Scenario s{cfg};
  EXPECT_EQ(s.hermes()->config().t_rtt_high, usec(777));
  EXPECT_GT(s.hermes()->config().t_rtt_low, sim::SimTime::zero());  // still derived
}

TEST(Scenario, SpraySchemesForceReorderBuffer) {
  for (Scheme scheme : {Scheme::kDrb, Scheme::kPrestoStar, Scheme::kDrill}) {
    ScenarioConfig cfg;
    cfg.topo = small();
    cfg.scheme = scheme;
    cfg.tcp.reorder_buffer = false;
    Scenario s{cfg};
    EXPECT_TRUE(s.config().tcp.reorder_buffer) << to_string(scheme);
  }
}

TEST(Scenario, PlainTcpDisablesFabricEcn) {
  ScenarioConfig cfg;
  cfg.topo = small();
  cfg.tcp.dctcp = false;
  Scenario s{cfg};
  EXPECT_FALSE(s.config().topo.ecn_enabled);
}

TEST(Scenario, MaxSimTimeCapsRun) {
  ScenarioConfig cfg;
  cfg.topo = small();
  cfg.max_sim_time = msec(1);
  Scenario s{cfg};
  s.add_flow(0, 2, 100'000'000, usec(0));  // cannot finish in 1ms
  s.add_flow(1, 3, 1'000, msec(5));         // never starts before the cap
  auto fct = s.run();
  EXPECT_EQ(fct.total_flows(), 2u);
  EXPECT_EQ(fct.unfinished_flows(), 2u);
  EXPECT_NE(s.metrics().snapshot_text().find("transport.flows_unfinished 2\n"),
            std::string::npos);
  EXPECT_LE(s.simulator().now(), msec(1) + usec(1));
}

TEST(Scenario, ManualFlowIdsAreUnique) {
  ScenarioConfig cfg;
  cfg.topo = small();
  Scenario s{cfg};
  const auto a = s.add_flow(0, 2, 1000, usec(0));
  const auto b = s.add_flow(1, 3, 1000, usec(0));
  EXPECT_NE(a, b);
}

TEST(Scenario, ActiveFlowsTracksLifecycle) {
  ScenarioConfig cfg;
  cfg.topo = small();
  Scenario s{cfg};
  s.add_flow(0, 2, 1'000'000, usec(10));
  EXPECT_TRUE(s.active_flows().empty());  // not started yet
  s.run_for(usec(20));
  EXPECT_EQ(s.active_flows().size(), 1u);
  s.run_for(msec(50));
  EXPECT_TRUE(s.active_flows().empty());  // finished
}

TEST(Scenario, WrapBalancerSubstitutesScheme) {
  ScenarioConfig cfg;
  cfg.topo = small();
  cfg.scheme = Scheme::kEcmp;
  stats::PathUsageRecorder* recorder = nullptr;
  cfg.wrap_balancer = [&](sim::Simulator&, net::Topology&,
                          std::unique_ptr<lb::LoadBalancer> inner) {
    auto r = std::make_unique<stats::PathUsageRecorder>(std::move(inner));
    recorder = r.get();
    return r;
  };
  Scenario s{cfg};
  ASSERT_NE(recorder, nullptr);
  s.add_flow(0, 2, 1'000'000, usec(0));
  auto fct = s.run();
  EXPECT_EQ(fct.unfinished_flows(), 0u);
  std::uint64_t pkts = 0;
  for (const auto& [path, c] : recorder->per_path()) pkts += c.packets;
  EXPECT_GE(pkts, 1'000'000u / 1460u);
}

TEST(RunWorkloadExperiment, SameSeedSameTraffic) {
  ScenarioConfig cfg;
  cfg.topo = small();
  cfg.scheme = Scheme::kEcmp;
  const auto dist = workload::SizeDist::web_search();
  const auto a = run_workload_experiment(cfg, dist, 0.4, 50, 9);
  const auto b = run_workload_experiment(cfg, dist, 0.4, 50, 9);
  EXPECT_DOUBLE_EQ(a.overall().mean_us, b.overall().mean_us);
}

TEST(RunWorkloadExperiment, MeanOverSeedsAverages) {
  ScenarioConfig cfg;
  cfg.topo = small();
  cfg.scheme = Scheme::kEcmp;
  const auto dist = workload::SizeDist::web_search();
  const double one = run_workload_experiment(cfg, dist, 0.4, 40, 1).overall().mean_us;
  const double two = run_workload_experiment(cfg, dist, 0.4, 40, 2).overall().mean_us;
  const double avg = mean_fct_over_seeds(cfg, dist, 0.4, 40, 2, 1);
  EXPECT_NEAR(avg, (one + two) / 2, 1e-6);
}

TEST(QueueTraceTest, SamplesBacklogOverTime) {
  ScenarioConfig cfg;
  cfg.topo = small();
  Scenario s{cfg};
  harness::QueueTrace trace{s.simulator(), s.topology().host(0).nic(), usec(10)};
  trace.start(msec(2));
  s.add_flow(0, 2, 3'000'000, usec(0));
  s.run_for(msec(3));
  EXPECT_GT(trace.samples().size(), 100u);
  EXPECT_GT(trace.max_backlog(), 0u);  // slow start overshoots the NIC
  EXPECT_GE(trace.max_backlog(), trace.mean_backlog());
}

TEST(ValueTraceTest, SamplesProbe) {
  ScenarioConfig cfg;
  cfg.topo = small();
  Scenario s{cfg};
  int calls = 0;
  harness::ValueTrace trace{s.simulator(), usec(100), [&] { return static_cast<double>(++calls); }};
  trace.start(msec(1));
  s.run_for(msec(2));
  EXPECT_EQ(trace.samples().size(), static_cast<std::size_t>(calls));
  EXPECT_NEAR(trace.mean(), (1 + calls) / 2.0, 0.51);
}

TEST(PathUsage, RecordsReroutes) {
  ScenarioConfig cfg;
  cfg.topo = small();
  cfg.scheme = Scheme::kDrb;  // per-packet spraying: reroutes every packet
  stats::PathUsageRecorder* recorder = nullptr;
  cfg.wrap_balancer = [&](sim::Simulator&, net::Topology&,
                          std::unique_ptr<lb::LoadBalancer> inner) {
    auto r = std::make_unique<stats::PathUsageRecorder>(std::move(inner));
    recorder = r.get();
    return r;
  };
  Scenario s{cfg};
  const auto id = s.add_flow(0, 2, 1'000'000, usec(0));
  s.run();
  EXPECT_GT(recorder->reroutes().size(), 100u);
  const auto hist = recorder->flow_histogram(id);
  EXPECT_EQ(hist.size(), 2u);  // both paths used
  // Byte shares sum to ~1 over fabric paths.
  double share = 0;
  for (const auto& [path, c] : recorder->per_path())
    if (path >= 0) share += recorder->byte_share(path);
  EXPECT_NEAR(share, 1.0, 1e-9);
}

}  // namespace
}  // namespace hermes::harness
