// Sharded parallel execution: FatTree structure, the executor's round
// primitives, and the central determinism contract — for a fixed shard
// count, HERMES_THREADS=1 and =N produce byte-identical results (FCT
// records, metrics, merged trace bytes), observability on or off, with
// and without a mid-run fault train.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "event_log.hpp"
#include "hermes/faults/fault_plan.hpp"

#include "hermes/harness/sharded_scenario.hpp"
#include "hermes/net/fattree.hpp"
#include "hermes/sim/event_queue.hpp"
#include "hermes/sim/sharded_executor.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/stats/csv.hpp"
#include "hermes/workload/flow_gen.hpp"
#include "hermes/workload/size_dist.hpp"

namespace hermes {
namespace {

/// Value of `name` in a MetricsRegistry::snapshot_text() dump ("name
/// value" lines), or -1 when absent.
double metric_value(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) return std::stod(line.substr(name.size() + 1));
  }
  return -1.0;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- EventQueue round primitives ---------------------------------------

TEST(EventQueueRounds, RunUntilBeforeExcludesHorizonAndAdvancesClock) {
  sim::EventQueue q;
  sim::Log log;
  q.post_at<&sim::Log::on>(sim::usec(1), &log, 1);
  q.post_at<&sim::Log::on>(sim::usec(2), &log, 2);
  q.post_at<&sim::Log::on>(sim::usec(2), &log, 3);  // exactly at horizon
  q.post_at<&sim::Log::on>(sim::usec(5), &log, 4);

  q.run_until_before(sim::usec(2));
  EXPECT_EQ(log.fired, (std::vector<int>{1}));
  EXPECT_EQ(q.now(), sim::usec(2)) << "clock must land exactly on the horizon";

  // Events at exactly the previous horizon run in the next round.
  q.run_until_before(sim::usec(5));
  EXPECT_EQ(log.fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), sim::usec(5));
}

TEST(EventQueueRounds, NextEventTimeReportsEarliestStoredEvent) {
  sim::EventQueue q;
  sim::Log log;
  EXPECT_EQ(q.next_event_time(), sim::SimTime::max());
  q.post_at<&sim::Log::on>(sim::usec(7), &log, 7);
  q.post_at<&sim::Log::on>(sim::usec(3), &log, 3);
  EXPECT_EQ(q.next_event_time(), sim::usec(3));
  q.run_until_before(sim::usec(4));
  EXPECT_EQ(q.next_event_time(), sim::usec(7));
}

TEST(EventQueueRounds, RunUntilBeforeOnEmptyQueueStillAdvances) {
  sim::EventQueue q;
  q.run_until_before(sim::usec(9));
  EXPECT_EQ(q.now(), sim::usec(9));
}

// --- thread-count policy (satellite: HERMES_THREADS=0/unset fallback) --

TEST(ResolveThreads, ExplicitRequestWins) {
  EXPECT_EQ(sim::resolve_threads(3), 3u);
}

TEST(ResolveThreads, EnvZeroEmptyAndGarbageMeanUnset) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const char* old = std::getenv("HERMES_THREADS");
  const std::string saved = old != nullptr ? old : "";

  ::setenv("HERMES_THREADS", "2", 1);
  EXPECT_EQ(sim::resolve_threads(), 2u);
  // 0, empty and non-numeric all fall back to hardware concurrency.
  ::setenv("HERMES_THREADS", "0", 1);
  EXPECT_EQ(sim::resolve_threads(), hw);
  ::setenv("HERMES_THREADS", "", 1);
  EXPECT_EQ(sim::resolve_threads(), hw);
  ::setenv("HERMES_THREADS", "lots", 1);
  EXPECT_EQ(sim::resolve_threads(), hw);
  ::unsetenv("HERMES_THREADS");
  EXPECT_EQ(sim::resolve_threads(), hw);

  if (old != nullptr) {
    ::setenv("HERMES_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("HERMES_THREADS");
  }
}

// --- FatTree structure -------------------------------------------------

TEST(FatTree, ShapeAndPathsK4) {
  sim::Simulator s{1};
  net::FatTreeConfig fc;
  fc.k = 4;
  net::FatTree ft{{&s}, fc};

  EXPECT_EQ(ft.num_pods(), 4);
  EXPECT_EQ(ft.num_leaves(), 8);    // 4 pods x 2 edges
  EXPECT_EQ(ft.num_cores(), 4);     // (k/2)^2
  EXPECT_EQ(ft.hosts_per_leaf(), 2);
  EXPECT_EQ(ft.num_hosts(), 16);
  EXPECT_EQ(ft.num_shards(), 1);
  EXPECT_EQ(ft.pod_of_leaf(0), 0);
  EXPECT_EQ(ft.pod_of_leaf(7), 3);

  // Intra-pod pair: one path per agg; inter-pod: one per core.
  EXPECT_EQ(ft.paths_between_leaves(0, 1).size(), 2u);
  EXPECT_EQ(ft.paths_between_leaves(0, 2).size(), 4u);
  EXPECT_TRUE(ft.paths_between_leaves(3, 3).empty());

  // Inter-pod forward route: 5 hops ending at the destination host port.
  const net::Route r = ft.forward_route(0, ft.first_host_of_leaf(2) + 1, 0);
  EXPECT_EQ(r.len, 5);

  // Same-leaf: one hop straight down.
  const net::Route local = ft.forward_route(0, 1, -1);
  EXPECT_EQ(local.len, 1);
}

TEST(FatTree, K16Is1024Hosts) {
  sim::Simulator s{1};
  net::FatTreeConfig fc;
  fc.k = 16;
  net::FatTree ft{{&s}, fc};
  EXPECT_EQ(ft.num_hosts(), 1024);
  EXPECT_EQ(ft.num_leaves(), 128);
  EXPECT_EQ(ft.num_cores(), 64);
  // Inter-pod leaf pairs see all (k/2)^2 = 64 core paths.
  EXPECT_EQ(ft.paths_between_leaves(0, 127).size(), 64u);
}

TEST(FatTree, ShardPlanKeepsPodsAtomic) {
  sim::Simulator s0{1};
  sim::Simulator s1{2};
  net::FatTreeConfig fc;
  fc.k = 4;
  net::FatTree ft{{&s0, &s1}, fc};
  EXPECT_EQ(ft.num_shards(), 2);
  for (int h = 0; h < ft.num_hosts(); ++h) {
    EXPECT_EQ(ft.shard_of_host(h), ft.shard_of_switch(ft.leaf_of(h)));
    EXPECT_EQ(ft.shard_of_switch(ft.leaf_of(h)), ft.pod_of_leaf(ft.leaf_of(h)) % 2);
  }
  EXPECT_EQ(ft.leaves_of_shard(0), (std::vector<int>{0, 1, 4, 5}));
  EXPECT_EQ(ft.leaves_of_shard(1), (std::vector<int>{2, 3, 6, 7}));
}

// --- sharded runs ------------------------------------------------------

harness::ShardedScenarioConfig base_config(harness::Scheme scheme, int shards,
                                           unsigned threads) {
  harness::ShardedScenarioConfig cfg;
  cfg.fabric.k = 4;
  cfg.scheme = scheme;
  cfg.seed = 7;
  cfg.max_sim_time = sim::sec(2);
  cfg.num_shards = shards;
  cfg.threads = threads;
  return cfg;
}

std::vector<transport::FlowSpec> test_traffic(const net::Fabric& fabric, int num_flows = 60) {
  workload::TrafficConfig tc;
  tc.load = 0.4;
  tc.num_flows = num_flows;
  tc.seed = 7;
  return workload::generate_poisson_traffic(fabric, workload::SizeDist::web_search(), tc);
}

std::string run_sharded_csv(harness::ShardedScenarioConfig cfg,
                            const std::string& trace_path = "") {
  harness::ShardedScenario s{cfg};
  s.add_flows(test_traffic(s.fabric()));
  const stats::FctCollector fct = s.run();
  if (!trace_path.empty()) {
    EXPECT_TRUE(s.dump_trace(trace_path));
  }
  return stats::to_csv(fct);
}

TEST(Sharded, SingleShardCompletesAllFlows) {
  harness::ShardedScenario s{base_config(harness::Scheme::kEcmp, 1, 1)};
  s.add_flows(test_traffic(s.fabric()));
  const auto fct = s.run();
  EXPECT_EQ(fct.total_flows(), 60u);
  EXPECT_EQ(fct.unfinished_flows(), 0u);
  EXPECT_EQ(s.fabric().boundary_packets(), 0u) << "one shard => no mailbox traffic";
}

TEST(Sharded, FourShardsCompleteAllFlowsAndUseMailboxes) {
  harness::ShardedScenario s{base_config(harness::Scheme::kEcmp, 4, 2)};
  s.add_flows(test_traffic(s.fabric()));
  const auto fct = s.run();
  EXPECT_EQ(fct.total_flows(), 60u);
  EXPECT_EQ(fct.unfinished_flows(), 0u);
  EXPECT_GT(s.fabric().boundary_packets(), 0u) << "inter-pod flows must cross shards";
  EXPECT_GT(s.executor_stats().rounds, 0u);
  EXPECT_EQ(s.threads_used(), 2u);
}

TEST(Sharded, ThreadCountIsInvisible_Ecmp) {
  const std::string t1 = run_sharded_csv(base_config(harness::Scheme::kEcmp, 4, 1));
  const std::string t2 = run_sharded_csv(base_config(harness::Scheme::kEcmp, 4, 2));
  const std::string t4 = run_sharded_csv(base_config(harness::Scheme::kEcmp, 4, 4));
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t4);
}

TEST(Sharded, ThreadCountIsInvisible_Hermes) {
  const std::string t1 = run_sharded_csv(base_config(harness::Scheme::kHermes, 4, 1));
  const std::string t2 = run_sharded_csv(base_config(harness::Scheme::kHermes, 4, 2));
  EXPECT_EQ(t1, t2);
}

TEST(Sharded, ThreadCountIsInvisible_ObsOnWithMergedTrace) {
  auto cfg = base_config(harness::Scheme::kHermes, 4, 1);
  cfg.obs.enabled = true;
  const std::string p1 = "sharded_t1.htrc";
  const std::string p2 = "sharded_t2.htrc";
  const std::string t1 = run_sharded_csv(cfg, p1);
  cfg.threads = 2;
  const std::string t2 = run_sharded_csv(cfg, p2);
  EXPECT_EQ(t1, t2);

  // The merged (time, shard)-sorted trace must be byte-identical too.
  const std::string b1 = file_bytes(p1);
  const std::string b2 = file_bytes(p2);
  ASSERT_FALSE(b1.empty());
  EXPECT_EQ(stats::fnv1a64(b1), stats::fnv1a64(b2))
      << "merged trace bytes differ across thread counts";
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(Sharded, ObservabilityOnDoesNotPerturbResults) {
  auto cfg = base_config(harness::Scheme::kHermes, 4, 2);
  const std::string off = run_sharded_csv(cfg);
  cfg.obs.enabled = true;
  const std::string on = run_sharded_csv(cfg);
  EXPECT_EQ(off, on);
}

TEST(Sharded, FaultTrainIsThreadCountInvisible) {
  auto cfg = base_config(harness::Scheme::kHermes, 4, 1);
  // Faults on every tier and several owner shards: a core drop flap, an
  // edge uplink flap, a transient blackhole on another core, an agg drop,
  // and a flap of an agg<->core link whose ends live in different shards.
  const net::FabricShape shape = cfg.fabric.shape();
  const int agg_1_0 = shape.num_leaves + 2;  // aggs follow the 8 edges, pod-major
  const int agg_0_1 = shape.num_leaves + 1;  // pod 0 (shard 0); uplink 0 -> core 2 (shard 2)
  cfg.fault_plan.flap_random_drop(sim::msec(5), shape.spine(1), 0.05, sim::msec(20), 3);
  cfg.fault_plan.flap_link(sim::msec(10), 2, 0, sim::msec(30), 2);
  cfg.fault_plan.transient_blackhole(sim::msec(8), sim::msec(60), shape.spine(2),
                                     faults::rack_pair_blackhole(2, 0, 2));
  cfg.fault_plan.transient_random_drop(sim::msec(6), sim::msec(40), agg_1_0, 0.03);
  cfg.fault_plan.flap_link(sim::msec(12), agg_0_1, 0, sim::msec(20), 2);
  const std::string t1 = run_sharded_csv(cfg);
  cfg.threads = 2;
  const std::string t2 = run_sharded_csv(cfg);
  EXPECT_EQ(t1, t2);

  harness::ShardedScenario s{cfg};
  s.add_flows(test_traffic(s.fabric()));
  s.add_flow(0, 15, 100'000'000, sim::SimTime::zero());  // keeps the run alive past every event
  const net::FabricLink& cut = s.fabric().uplink(agg_0_1, 0);
  const auto port_up = [&s](int sw, int port) {
    return s.fabric().switches()[static_cast<std::size_t>(sw)]->port(port).link_up();
  };
  EXPECT_NE(s.fabric().shard_of_switch(cut.lower), s.fabric().shard_of_switch(cut.upper));
  s.run_for(sim::msec(17));  // inside the first [12ms, 22ms) cut
  EXPECT_FALSE(port_up(cut.lower, cut.lower_port));
  EXPECT_FALSE(port_up(cut.upper, cut.upper_port));
  s.run_for(sim::msec(44));  // past the last event (60ms); the cut has healed
  EXPECT_TRUE(port_up(cut.lower, cut.lower_port));
  EXPECT_TRUE(port_up(cut.upper, cut.upper_port));
  // Each event counts once, in the shard that owns its named switch,
  // although the cross-shard link's events run in two shards.
  EXPECT_EQ(metric_value(s.metrics().snapshot_text(), "faults.applied"),
            static_cast<double>(cfg.fault_plan.size()));
}

// Golden pins for the sharded configuration itself (k=4, 4 shards, seed
// 7): the serial golden in determinism_test.cpp pins the single-sim
// path; these pin the sharded event order, so an accidental change to
// mailbox ordering, horizon math, or per-shard seeding shows up as a
// hash mismatch even when T=1 vs T=N still agree with each other. ECMP
// and Hermes are pinned apart, so a change to Hermes alone (its probing)
// re-pins the Hermes hash and leaves the ECMP one standing as proof that
// the executor's order did not move. If an intentional behaviour change
// shifts one, re-record it and say so in the commit message.
constexpr std::uint64_t kShardedEcmpGoldenHash = 0xea0925710b62c39bull;
constexpr std::uint64_t kShardedHermesGoldenHash = 0x284daf98d71a6fdcull;

TEST(Sharded, GoldenHashPinned) {
  const std::string ecmp = run_sharded_csv(base_config(harness::Scheme::kEcmp, 4, 2));
  EXPECT_EQ(stats::fnv1a64(ecmp), kShardedEcmpGoldenHash)
      << "fixed-seed sharded ECMP FCT output changed (" << ecmp.size()
      << " bytes) — mailbox/horizon ordering regression, or an intentional "
         "change that must re-record this hash";
}

TEST(Sharded, HermesGoldenHashPinned) {
  const std::string hermes = run_sharded_csv(base_config(harness::Scheme::kHermes, 4, 2));
  EXPECT_EQ(stats::fnv1a64(hermes), kShardedHermesGoldenHash)
      << "fixed-seed sharded Hermes FCT output changed (" << hermes.size()
      << " bytes) — ordering or probing regression, or an intentional "
         "change that must re-record this hash";
}

TEST(Sharded, ShardingMetricsAreRegistered) {
  harness::ShardedScenario s{base_config(harness::Scheme::kEcmp, 4, 2)};
  s.add_flows(test_traffic(s.fabric(), 20));
  (void)s.run();
  const std::string snap = s.metrics().snapshot_text();
  EXPECT_EQ(metric_value(snap, "sharding.shards"), 4.0);
  EXPECT_GT(metric_value(snap, "sharding.rounds"), 0.0);
  EXPECT_GT(metric_value(snap, "sharding.boundary_packets"), 0.0);
  EXPECT_GT(metric_value(snap, "sharding.shard0.events"), 0.0);

  // Hermes: each shard's instance registers its own series; the root
  // sums them by name.
  harness::ShardedScenario h{base_config(harness::Scheme::kHermes, 4, 2)};
  h.add_flows(test_traffic(h.fabric(), 20));
  (void)h.run();
  std::uint64_t probes = 0;
  for (int s = 0; s < h.num_shards(); ++s) probes += h.hermes(s)->probe_stats().probes_sent;
  const std::string hsnap = h.metrics().snapshot_text();
  EXPECT_GT(probes, 0u);
  EXPECT_EQ(metric_value(hsnap, "lb.probes_sent"), static_cast<double>(probes));
  EXPECT_NE(hsnap.find("lb.latch_lifetime_us "), std::string::npos) << hsnap;
}

TEST(Sharded, HermesShardKeepsRowsForItsOwnLeavesOnly) {
  harness::ShardedScenario h{base_config(harness::Scheme::kHermes, 4, 2)};
  h.add_flows(test_traffic(h.fabric(), 20));
  (void)h.run();
  const net::Fabric& f = h.fabric();
  for (int s = 0; s < h.num_shards(); ++s) {
    lb::HermesLb& shard_lb = *h.hermes(s);
    const std::vector<int> own = f.leaves_of_shard(s);
    EXPECT_EQ(shard_lb.engine().owned_groups(), own);
    for (int src = 0; src < f.num_leaves(); ++src) {
      const int dst = (src + f.num_leaves() / 2) % f.num_leaves();  // another pod
      const int src_host = f.first_host_of_leaf(src);
      const int dst_host = f.first_host_of_leaf(dst);
      if (std::find(own.begin(), own.end(), src) != own.end()) {
        EXPECT_NO_THROW((void)shard_lb.sampled_paths(src, dst)) << "shard " << s << " leaf " << src;
        EXPECT_NO_THROW((void)shard_lb.probes_sent(src, dst)) << "shard " << s << " leaf " << src;
        EXPECT_FALSE(shard_lb.blackholed(src_host, dst_host, 0));
        continue;
      }
      EXPECT_THROW((void)shard_lb.path_state(src, dst, 0), std::out_of_range);
      EXPECT_THROW((void)shard_lb.path_type(src, dst, 0), std::out_of_range);
      EXPECT_THROW((void)shard_lb.sampled_paths(src, dst), std::out_of_range);
      EXPECT_THROW((void)shard_lb.probes_sent(src, dst), std::out_of_range);
      EXPECT_THROW((void)shard_lb.blackholed(src_host, dst_host, 0), std::out_of_range);
    }
  }
}

TEST(Sharded, HermesSizesOnlyPairsThatCarryData) {
  // A fat-tree's rack pairs are probed only while they carry flows, so a
  // pair is sized, and has samples, iff it carried an inter-rack flow;
  // any other pair's PathSet stays empty.
  harness::ShardedScenario h{base_config(harness::Scheme::kHermes, 4, 2)};
  const std::vector<transport::FlowSpec> flows = test_traffic(h.fabric(), 20);
  h.add_flows(flows);
  (void)h.run();
  const net::Fabric& f = h.fabric();
  std::set<std::pair<int, int>> carried;
  for (const transport::FlowSpec& fl : flows) {
    const int a = f.leaf_of(fl.src);
    const int b = f.leaf_of(fl.dst);
    if (a != b) carried.emplace(a, b);
  }
  ASSERT_FALSE(carried.empty());
  std::uint64_t sized = 0;
  int idle = 0;
  for (int s = 0; s < h.num_shards(); ++s) {
    const engine::Engine& eng = h.hermes(s)->engine();
    for (const int a : eng.owned_groups()) {
      for (int b = 0; b < f.num_leaves(); ++b) {
        if (a == b) continue;
        const bool carries = carried.count({a, b}) == 1;
        const bool is_sized = !eng.path_set(a, b).empty();
        EXPECT_EQ(is_sized, carries) << a << "->" << b;
        if (carries) {
          EXPECT_GT(eng.sampled_paths(a, b), 0) << a << "->" << b << " has no samples";
        } else {
          ++idle;
        }
        sized += is_sized ? 1 : 0;
      }
    }
  }
  EXPECT_GT(idle, 0);
  EXPECT_EQ(sized, carried.size());
  EXPECT_EQ(metric_value(h.metrics().snapshot_text(), "lb.sized_pairs"),
            static_cast<double>(carried.size()));
}

TEST(Sharded, HermesProbesAPairOnlyWhileItCarriesFlows) {
  // One shard per pod: shard 0 owns racks 0 and 1. Rack 0 sends to rack
  // 4 (pod 2) twice, the second flow long after the first has ended;
  // nothing goes to rack 1 (its own pod) or rack 6 (pod 3).
  harness::ShardedScenario h{base_config(harness::Scheme::kHermes, 4, 2)};
  const net::Fabric& f = h.fabric();
  const int far = 4;
  const int src = f.first_host_of_leaf(0);
  h.add_flow(src, f.first_host_of_leaf(far), 2'000'000, sim::SimTime::zero());
  h.add_flow(src, f.first_host_of_leaf(far), 2'000'000, sim::msec(8));
  lb::HermesLb& lb = *h.hermes(0);
  const sim::SimTime interval = lb.config().probe_interval;

  // Step between probe ticks until the first flow has completed.
  h.run_for(interval / 2);
  while (!h.active_flows(0).empty()) h.run_for(interval);
  const std::uint64_t at_end = lb.probes_sent(0, far);
  EXPECT_GT(at_end, 0u) << "a pair carrying a flow is probed";
  EXPECT_GT(lb.engine().sampled_paths(0, far), 0);

  // It completed within the last interval, after which no tick probes it.
  h.run_for(sim::msec(8) - h.simulator().now() - interval / 2);
  EXPECT_EQ(lb.probes_sent(0, far), at_end) << "a pair with no live flow is still probed";

  h.run_for(interval);  // the second flow starts at 8 ms
  EXPECT_GT(lb.probes_sent(0, far), at_end);
  for (const int idle : {1, 6}) {
    EXPECT_EQ(lb.probes_sent(0, idle), 0u) << "rack " << idle;
    EXPECT_TRUE(lb.engine().path_set(0, idle).empty()) << "rack " << idle;
  }
}

TEST(Sharded, HermesCountsAFlowLiveOnlyOnceItPlacesIt) {
  // A wrapper may place a flow's first packet itself and still forward
  // its completion (bench::PinnedFirstLb). Hermes counts a flow live from
  // the first packet it places, so that completion takes nothing away
  // from the next flow on the pair.
  harness::ShardedScenario h{base_config(harness::Scheme::kHermes, 4, 2)};
  const net::Fabric& f = h.fabric();
  // A flow in another pod, starting late, keeps the run going meanwhile.
  h.add_flow(f.first_host_of_leaf(2), f.first_host_of_leaf(3), 1000, sim::msec(8));
  lb::HermesLb& lb = *h.hermes(0);
  const sim::SimTime interval = lb.config().probe_interval;
  const auto flow_to = [&f](std::uint64_t id, int dst_leaf) {
    lb::FlowCtx flow;
    flow.flow_id = id;
    flow.src = f.first_host_of_leaf(0);
    flow.dst = f.first_host_of_leaf(dst_leaf);
    flow.src_leaf = 0;
    flow.dst_leaf = dst_leaf;
    return flow;
  };
  lb::FlowCtx pinned = flow_to(1, 4);
  pinned.has_sent = true;  // its first packet went out on a pinned path
  lb.on_flow_complete(pinned);

  lb::FlowCtx placed = flow_to(2, 4);
  net::Packet pkt;
  pkt.size = 1500;
  (void)lb.select_path(placed, pkt);
  h.run_for(interval + interval / 2);
  const std::uint64_t probed = lb.probes_sent(0, 4);
  EXPECT_GT(probed, 0u) << "a live flow's pair is not probed";

  lb.on_flow_complete(placed);
  lb.on_flow_complete(placed);  // a repeated completion undoes nothing more
  h.run_for(interval);
  EXPECT_EQ(lb.probes_sent(0, 4), probed) << "a completed flow's pair is still probed";
}

TEST(Sharded, FlowsStartingAfterTheCapCountAsUnfinished) {
  auto cfg = base_config(harness::Scheme::kEcmp, 4, 2);
  cfg.max_sim_time = sim::msec(1);
  harness::ShardedScenario s{cfg};
  const int far = s.fabric().num_hosts() - 1;  // another pod, so another shard
  s.add_flow(0, far, 100'000'000, sim::SimTime::zero());  // cannot finish in 1ms
  s.add_flow(far, 0, 1'000, sim::msec(5));                // never starts before the cap
  const auto fct = s.run();
  EXPECT_EQ(fct.total_flows(), 2u);
  EXPECT_EQ(fct.unfinished_flows(), 2u);
  EXPECT_EQ(metric_value(s.metrics().snapshot_text(), "transport.flows_unfinished"), 2.0);
}

}  // namespace
}  // namespace hermes
