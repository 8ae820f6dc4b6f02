// Tests for the harness module: scenario composition, scheme factory,
// run semantics, balancer decoration and queue traces.

#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "hermes/harness/experiment.hpp"
#include "hermes/harness/scenario.hpp"
#include "hermes/harness/sharded_scenario.hpp"
#include "hermes/harness/trace.hpp"
#include "hermes/lb/load_balancer.hpp"
#include "hermes/transport/udp_source.hpp"
#include "hermes/workload/flow_gen.hpp"
#include "hermes/workload/size_dist.hpp"

namespace hermes::harness {
namespace {

using sim::msec;
using sim::usec;

/// Pass-through decorator that counts the packets it places.
class CountingLb final : public lb::LoadBalancer {
 public:
  explicit CountingLb(std::unique_ptr<lb::LoadBalancer> inner) : inner_{std::move(inner)} {}

  int select_path(lb::FlowCtx& flow, const net::Packet& pkt) override {
    ++packets;
    return inner_->select_path(flow, pkt);
  }
  void on_ack(lb::FlowCtx& f, const net::Packet& a) override { inner_->on_ack(f, a); }
  void on_data_arrival(const net::Packet& d) override { inner_->on_data_arrival(d); }
  void decorate_ack(const net::Packet& d, net::Packet& a) override {
    inner_->decorate_ack(d, a);
  }
  void on_timeout(lb::FlowCtx& f) override { inner_->on_timeout(f); }
  void on_retransmit(lb::FlowCtx& f, int p) override { inner_->on_retransmit(f, p); }
  void on_flow_complete(lb::FlowCtx& f) override { inner_->on_flow_complete(f); }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }

  std::uint64_t packets = 0;

 private:
  std::unique_ptr<lb::LoadBalancer> inner_;
};

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
  CountingLb* counter = nullptr;
  cfg.wrap_balancer = [&](sim::Simulator&, net::Topology&,
                          std::unique_ptr<lb::LoadBalancer> inner) {
    auto r = std::make_unique<CountingLb>(std::move(inner));
    counter = r.get();
    return r;
  };
  Scenario s{cfg};
  ASSERT_NE(counter, nullptr);
  s.add_flow(0, 2, 1'000'000, usec(0));
  auto fct = s.run();
  EXPECT_EQ(fct.unfinished_flows(), 0u);
  EXPECT_GE(counter->packets, 1'000'000u / 1460u);
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

// Every schedule in src/ takes the direct form: a closure would cost a
// pooled slot per event and, at flow start, setup time. So a run of
// every src/ event kind reserves no closure slot on any queue: port
// finish and drain, RTO and reorder hold, probe ticks, flow start, fault
// apply, checker ticks, a UDP source, a queue trace and, sharded, the
// fat-tree inbox.
TEST(ScenarioEvents, SrcTakesNoClosurePath) {
  ScenarioConfig cfg;
  cfg.topo = small();
  cfg.scheme = Scheme::kHermes;
  cfg.check_invariants = true;
  cfg.invariant_config.period = usec(200);
  cfg.max_sim_time = sim::sec(5);
  cfg.fault_plan.link_down(msec(1), 0, 1).link_up(msec(3), 0, 1);
  Scenario s{cfg};
  QueueTrace trace{s.simulator(), s.topology().host(0).nic(), usec(10)};
  trace.start(msec(2));
  transport::UdpSource udp{s.simulator(), s.topology(), s.balancer(), 99, 1, 3, 1e9, 1000,
                           [&](net::Packet p) { s.stack(1).send_raw(std::move(p)); }};
  udp.start();
  s.add_flow(0, 2, 5'000'000, usec(0));
  s.add_flow(3, 1, 5'000'000, usec(5));
  s.run_for(msec(2));
  udp.stop();
  const auto fct = s.run();
  EXPECT_EQ(fct.unfinished_flows(), 0u);
  EXPECT_GT(s.fault_scheduler()->applied(), 0u);
  EXPECT_GT(s.invariants()->checks_run(), 2u);
  EXPECT_GT(trace.samples().size(), 100u);
  EXPECT_GT(udp.packets_sent(), 0u);
  EXPECT_EQ(s.simulator().events().reserved_closures(), 0u);

  ShardedScenarioConfig sharded;
  sharded.fabric.k = 4;
  sharded.scheme = Scheme::kHermes;
  sharded.num_shards = 2;
  sharded.threads = 1;
  ShardedScenario ft{sharded};
  workload::TrafficConfig tc;
  tc.load = 0.4;
  tc.num_flows = 60;
  ft.add_flows(workload::generate_poisson_traffic(ft.fabric(), workload::SizeDist::web_search(), tc));
  EXPECT_EQ(ft.run().unfinished_flows(), 0u);
  EXPECT_GT(ft.fabric().boundary_packets(), 0u);
  for (int shard = 0; shard < ft.num_shards(); ++shard) {
    EXPECT_EQ(ft.shard_sim(shard).events().reserved_closures(), 0u) << "shard " << shard;
  }
}

}  // namespace
}  // namespace hermes::harness
