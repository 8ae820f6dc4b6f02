// Tests for the fault-injection framework: FaultPlan building, the
// FaultScheduler's execution of timed onset/recovery against a live
// fabric, the seeded RandomFaultGenerator, the runtime InvariantChecker,
// and the determinism regression (same seed + same fault plan => byte
// identical FCT statistics).

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hermes/faults/fault_plan.hpp"
#include "hermes/faults/fault_scheduler.hpp"
#include "hermes/faults/invariant_checker.hpp"
#include "hermes/faults/random_faults.hpp"
#include "hermes/harness/scenario.hpp"
#include "hermes/harness/sharded_scenario.hpp"
#include "hermes/net/fabric.hpp"
#include "hermes/net/fattree.hpp"
#include "hermes/net/packet.hpp"
#include "hermes/net/topology.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/stats/csv.hpp"
#include "hermes/workload/flow_gen.hpp"
#include "hermes/workload/size_dist.hpp"

namespace hermes::faults {
namespace {

using sim::msec;
using sim::usec;

net::TopologyConfig small_topo() {
  net::TopologyConfig c;
  c.num_leaves = 2;
  c.num_spines = 2;
  c.hosts_per_leaf = 2;
  return c;
}

/// The switch index of spine `s` on small_topo().
int small_spine(int s) { return small_topo().shape().spine(s); }

// --- FaultPlan ----------------------------------------------------------

TEST(FaultPlan, TransientHelpersEmitOnsetAndRecovery) {
  FaultPlan plan;
  plan.transient_random_drop(msec(10), msec(20), /*sw=*/1, 0.02);
  plan.transient_blackhole(msec(5), msec(15), 0, rack_pair_blackhole(2, 0, 1));
  ASSERT_EQ(plan.size(), 4u);
  const auto ev = plan.sorted();
  EXPECT_EQ(ev[0].action, FaultAction::kBlackholeOn);
  EXPECT_EQ(ev[0].at, msec(5));
  EXPECT_EQ(ev[1].action, FaultAction::kRandomDropSet);
  EXPECT_DOUBLE_EQ(ev[1].rate, 0.02);
  EXPECT_EQ(ev[2].action, FaultAction::kBlackholeOff);
  EXPECT_EQ(ev[3].action, FaultAction::kRandomDropSet);
  EXPECT_DOUBLE_EQ(ev[3].rate, 0.0);  // recovery clears the rate
}

TEST(FaultPlan, SortIsStableOnTies) {
  FaultPlan plan;
  plan.link_down(msec(1), 0, 0).link_up(msec(1), 0, 1).random_drop(msec(1), 0, 0.5);
  const auto ev = plan.sorted();
  EXPECT_EQ(ev[0].action, FaultAction::kLinkDown);
  EXPECT_EQ(ev[1].action, FaultAction::kLinkUp);
  EXPECT_EQ(ev[2].action, FaultAction::kRandomDropSet);
}

TEST(FaultPlan, FlapTrainAlternates) {
  FaultPlan plan;
  plan.flap_random_drop(msec(0), 0, 0.1, msec(10), /*count=*/3, /*duty=*/0.5);
  ASSERT_EQ(plan.size(), 6u);
  const auto ev = plan.sorted();
  for (int cycle = 0; cycle < 3; ++cycle) {
    EXPECT_EQ(ev[2 * cycle].at, msec(10) * cycle);
    EXPECT_DOUBLE_EQ(ev[2 * cycle].rate, 0.1);
    EXPECT_EQ(ev[2 * cycle + 1].at, msec(10) * cycle + msec(5));
    EXPECT_DOUBLE_EQ(ev[2 * cycle + 1].rate, 0.0);
  }
}

TEST(FaultPlan, MergeComposesPlans) {
  FaultPlan a;
  a.link_down(msec(2), 0, 0);
  FaultPlan b;
  b.link_up(msec(1), 0, 0);
  a.merge(b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.sorted()[0].action, FaultAction::kLinkUp);  // merged event sorts first
}

TEST(RackPairBlackhole, MatchesOnlyTargetPairData) {
  const auto pred = rack_pair_blackhole(/*hosts_per_leaf=*/2, /*src_leaf=*/0, /*dst_leaf=*/1);
  net::Packet p;
  p.type = net::PacketType::kData;
  p.src = 0;
  p.dst = 2;  // leaf 0 -> leaf 1
  EXPECT_TRUE(pred(p));
  p.dst = 1;  // intra-rack
  EXPECT_FALSE(pred(p));
  p.src = 2;
  p.dst = 0;  // reverse direction not matched
  EXPECT_FALSE(pred(p));
  p.src = 0;
  p.dst = 2;
  p.type = net::PacketType::kAck;  // only data packets blackholed
  EXPECT_FALSE(pred(p));
}

TEST(RackPairBlackhole, HalfPairsIsDeterministicSubset) {
  const auto all = rack_pair_blackhole(8, 0, 1, /*half_pairs=*/false);
  const auto half = rack_pair_blackhole(8, 0, 1, /*half_pairs=*/true);
  int matched_all = 0;
  int matched_half = 0;
  for (int s = 0; s < 8; ++s) {
    for (int d = 8; d < 16; ++d) {
      net::Packet p;
      p.type = net::PacketType::kData;
      p.src = s;
      p.dst = d;
      matched_all += all(p) ? 1 : 0;
      matched_half += half(p) ? 1 : 0;
      // Deterministic: the same header always gets the same verdict.
      EXPECT_EQ(half(p), half(p));
    }
  }
  EXPECT_EQ(matched_all, 64);
  EXPECT_GT(matched_half, 0);
  EXPECT_LT(matched_half, 64);
}

// --- FaultScheduler -----------------------------------------------------

TEST(FaultScheduler, AppliesTransientSwitchFaults) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, small_topo()};
  FaultScheduler sched{simulator, topo};

  FaultPlan plan;
  plan.transient_random_drop(msec(1), msec(3), small_spine(0), 0.05);
  plan.transient_blackhole(msec(2), msec(4), small_spine(1), rack_pair_blackhole(2, 0, 1));
  sched.install(plan);
  EXPECT_EQ(sched.pending(), 4u);

  simulator.run_until(msec(1) + usec(1));
  EXPECT_DOUBLE_EQ(topo.spine(0).failure().random_drop_rate, 0.05);
  EXPECT_EQ(sched.active_faults(), 1);

  simulator.run_until(msec(2) + usec(1));
  EXPECT_TRUE(static_cast<bool>(topo.spine(1).failure().blackhole));
  EXPECT_EQ(sched.active_faults(), 2);

  simulator.run_until(msec(5));
  EXPECT_DOUBLE_EQ(topo.spine(0).failure().random_drop_rate, 0.0);
  EXPECT_FALSE(static_cast<bool>(topo.spine(1).failure().blackhole));
  EXPECT_EQ(sched.active_faults(), 0);
  EXPECT_EQ(sched.applied(), 4u);
  EXPECT_EQ(sched.pending(), 0u);
  ASSERT_EQ(sched.log().size(), 4u);
  EXPECT_EQ(sched.log()[0].at, msec(1));
}

TEST(FaultScheduler, CutsAndRestoresLinks) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, small_topo()};
  FaultScheduler sched{simulator, topo};

  FaultPlan plan;
  plan.link_down(msec(1), /*leaf=*/0, /*uplink (spine)=*/1);
  plan.link_up(msec(2), 0, 1);
  plan.link_rate(msec(1), 1, 0, 0.2, "degrade");
  sched.install(plan);

  simulator.run_until(msec(1) + usec(1));
  EXPECT_FALSE(topo.leaf_uplink(0, 1).link_up());
  EXPECT_FALSE(topo.spine_downlink(1, 0).link_up());
  EXPECT_EQ(sched.active_faults(), 2);  // cut + degrade
  EXPECT_DOUBLE_EQ(topo.leaf_uplink(1, 0).config().rate_bps, 2e9);
  EXPECT_DOUBLE_EQ(topo.spine_downlink(0, 1).config().rate_bps, 2e9);

  simulator.run_until(msec(2) + usec(1));
  EXPECT_TRUE(topo.leaf_uplink(0, 1).link_up());
  EXPECT_TRUE(topo.spine_downlink(1, 0).link_up());
  EXPECT_EQ(sched.active_faults(), 1);  // degrade still active

  // Restoring the build-time rate clears the degrade.
  FaultPlan heal;
  heal.link_rate(msec(3), 1, 0, 1.0);
  sched.install(heal);
  simulator.run_until(msec(4));
  EXPECT_EQ(sched.active_faults(), 0);
  EXPECT_DOUBLE_EQ(topo.spine_downlink(0, 1).config().rate_bps, 10e9);
  ASSERT_EQ(sched.log().size(), 4u);
  EXPECT_EQ(sched.log()[0].what, "link-down leaf0<->spine1/0");
  EXPECT_EQ(sched.log()[1].what, "link-rate leaf1<->spine0/0 bps=2000000000.000000 (degrade)");
}

TEST(FaultScheduler, TransitionCallbackFires) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, small_topo()};
  FaultScheduler sched{simulator, topo};
  std::vector<FaultAction> seen;
  sched.on_transition = [&](const FaultEvent& e) { seen.push_back(e.action); };
  FaultPlan plan;
  plan.transient_random_drop(msec(1), msec(2), small_spine(0), 0.1);
  sched.install(plan);
  simulator.run_until(msec(3));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], FaultAction::kRandomDropSet);
}

// A fabric's shape names exactly the switches and links the builder
// wired: one link_down on uplink (sw, j) cuts the two ports that link
// joins and nothing else.
void expect_shape_matches_fabric(const net::FabricShape& shape, net::Fabric& fabric,
                                 sim::Simulator& simulator) {
  const auto& switches = fabric.switches();
  ASSERT_EQ(shape.uplinks.size(), switches.size());
  for (int s = 0; s < shape.num_spines; ++s) {
    EXPECT_EQ(switches[static_cast<std::size_t>(shape.spine(s))].get(), &fabric.spine(s));
  }
  for (std::size_t sw = 0; sw < switches.size(); ++sw) {
    EXPECT_EQ(fabric.num_uplinks(static_cast<int>(sw)), shape.uplinks[sw]) << "switch " << sw;
  }
  const auto down_ports = [&switches] {
    std::set<std::pair<int, int>> down;
    for (std::size_t sw = 0; sw < switches.size(); ++sw) {
      for (int p = 0; p < switches[sw]->num_ports(); ++p) {
        if (!switches[sw]->port(p).link_up()) down.insert({static_cast<int>(sw), p});
      }
    }
    return down;
  };
  FaultScheduler sched{simulator, fabric};
  for (int n = 0; n < shape.num_links(); ++n) {
    const auto [sw, j] = shape.link(n);
    const net::FabricLink& link = fabric.uplink(sw, j);
    EXPECT_EQ(link.lower, sw);
    FaultPlan cut;
    cut.link_down(simulator.now(), sw, j).link_up(simulator.now() + usec(2), sw, j);
    sched.install(cut);
    simulator.run_until(simulator.now() + usec(1));
    EXPECT_EQ(down_ports(), (std::set<std::pair<int, int>>{{link.lower, link.lower_port},
                                                           {link.upper, link.upper_port}}))
        << "link " << n;
    simulator.run_until(simulator.now() + usec(1));
    EXPECT_TRUE(down_ports().empty()) << "link " << n;
  }
  EXPECT_THROW((void)fabric.uplink(0, shape.uplinks[0]), std::out_of_range);
}

TEST(FaultScheduler, ShapeNamesEveryLinkOfTheBuiltFabric) {
  {
    sim::Simulator simulator{1};
    const net::TopologyConfig cfg;  // the paper's 8x8
    net::Topology topo{simulator, cfg};
    expect_shape_matches_fabric(cfg.shape(), topo, simulator);
  }
  {
    sim::Simulator simulator{1};
    net::TopologyConfig cfg = small_topo();
    cfg.num_leaves = 3;
    cfg.links_per_pair = 2;
    net::Topology topo{simulator, cfg};
    expect_shape_matches_fabric(cfg.shape(), topo, simulator);
    // Leaf l's uplink s * links_per_pair + k is parallel link k to spine s.
    const net::FabricLink& l = topo.uplink(2, 1 * 2 + 1);
    EXPECT_EQ(&topo.leaf(2).port(l.lower_port), &topo.leaf_uplink(2, 1, 1));
    EXPECT_EQ(&topo.spine(1).port(l.upper_port), &topo.spine_downlink(1, 2, 1));
  }
  {
    sim::Simulator simulator{1};
    net::FatTreeConfig cfg;
    cfg.k = 4;
    net::FatTree ft{{&simulator}, cfg};
    expect_shape_matches_fabric(cfg.shape(), ft, simulator);
    // Edge 3's uplink 1 reaches agg 1 of its pod (pod 1).
    EXPECT_EQ(ft.switches()[static_cast<std::size_t>(ft.uplink(3, 1).upper)].get(), &ft.agg(1, 1));
  }
}

// A fault target the fabric lacks is refused when the plan is installed,
// with the event named, instead of reading past a device table (or, for
// a zero rate, dividing by it) when the event fires.
struct MissingTarget {
  FaultPlan plan;
  const char* named;  ///< how the error message names the event
};

std::vector<MissingTarget> plans_with_missing_targets() {
  std::vector<MissingTarget> cases(4);
  cases[0].plan.random_drop(msec(1), /*sw=*/5, 0.02);  // small_topo() has 4 switches
  cases[0].named = "random-drop sw=5 uplink=-1";
  cases[1].plan.link_down(msec(1), /*leaf=*/0, /*uplink=*/5);  // a leaf there has 2 uplinks
  cases[1].named = "link-down sw=0 uplink=5";
  cases[2].plan.link_rate(msec(1), 0, 1, 0.0);
  cases[2].named = "link-rate sw=0 uplink=1";
  cases[3].plan.link_rate(msec(1), 0, 1, -0.5);
  cases[3].named = "link-rate sw=0 uplink=1";
  return cases;
}

template <typename Install>
void expect_rejected(const MissingTarget& c, Install install) {
  try {
    install();
    ADD_FAILURE() << "installed a plan naming " << c.named;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(c.named), std::string::npos) << e.what();
  }
}

TEST(FaultScheduler, RejectsTargetsTheFabricLacks) {
  for (const MissingTarget& c : plans_with_missing_targets()) {
    sim::Simulator simulator{1};
    net::Topology topo{simulator, small_topo()};
    FaultScheduler sched{simulator, topo};
    FaultPlan plan;
    plan.link_down(msec(1), 0, 0);  // valid, but nothing installs if any event is bad
    plan.merge(c.plan);
    expect_rejected(c, [&] { sched.install(plan); });
    EXPECT_EQ(sched.pending(), 0u);
  }
}

TEST(FaultScheduler, ScenarioRejectsTargetsTheFabricLacks) {
  for (const MissingTarget& c : plans_with_missing_targets()) {
    harness::ScenarioConfig cfg;
    cfg.topo = small_topo();
    cfg.fault_plan = c.plan;
    expect_rejected(c, [&] { harness::Scenario s{cfg}; });
  }
  harness::ShardedScenarioConfig ft;
  ft.fabric.k = 4;
  ft.num_shards = 2;
  ft.fault_plan.link_down(msec(1), /*agg 0.0*/ 8, /*uplink=*/2);  // aggs have 2 uplinks
  expect_rejected({ft.fault_plan, "link-down sw=8 uplink=2"},
                  [&] { harness::ShardedScenario s{ft}; });
}

// --- FaultScheduler edge cases ------------------------------------------
// The fuzzer's adversarial patterns lean on these semantics: re-breaking
// an already-broken thing is not a new fault, healing a healthy thing is
// not a negative one, and ties execute in plan insertion order.

TEST(FaultSchedulerEdge, OverlappingSameLinkCutsCountOnce) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, small_topo()};
  FaultScheduler sched{simulator, topo};

  FaultPlan plan;
  plan.link_down(msec(1), 0, 0).link_down(msec(2), 0, 0).link_up(msec(3), 0, 0);
  sched.install(plan);

  simulator.run_until(msec(2) + usec(1));
  EXPECT_FALSE(topo.leaf_uplink(0, 0).link_up());
  EXPECT_EQ(sched.active_faults(), 1);  // second cut of a dead link is not a new fault

  simulator.run_until(msec(4));
  EXPECT_TRUE(topo.leaf_uplink(0, 0).link_up());
  EXPECT_EQ(sched.active_faults(), 0);  // one heal undoes both cuts
  EXPECT_EQ(sched.applied(), 3u);
}

TEST(FaultSchedulerEdge, RecoveryBeforeOnsetIsANoOp) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, small_topo()};
  FaultScheduler sched{simulator, topo};

  FaultPlan plan;
  plan.link_up(msec(1), 0, 1);  // heals a link that was never cut
  plan.link_down(msec(2), 0, 1);
  plan.link_up(msec(3), 0, 1);
  sched.install(plan);

  simulator.run_until(msec(1) + usec(1));
  EXPECT_TRUE(topo.leaf_uplink(0, 1).link_up());
  EXPECT_EQ(sched.active_faults(), 0);  // not -1

  simulator.run_until(msec(4));
  EXPECT_TRUE(topo.leaf_uplink(0, 1).link_up());
  EXPECT_EQ(sched.active_faults(), 0);
}

TEST(FaultSchedulerEdge, RecoveryTiedWithOnsetRunsInInsertionOrder) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, small_topo()};
  FaultScheduler sched{simulator, topo};

  // Same timestamp: the stable sort keeps insertion order, so the heal
  // (inserted first) applies to the still-healthy link, then the cut
  // lands — the link ends the tick down.
  FaultPlan plan;
  plan.link_up(msec(1), 1, 1).link_down(msec(1), 1, 1);
  sched.install(plan);
  simulator.run_until(msec(2));
  EXPECT_FALSE(topo.leaf_uplink(1, 1).link_up());
  EXPECT_EQ(sched.active_faults(), 1);
  ASSERT_EQ(sched.log().size(), 2u);
  EXPECT_EQ(sched.log()[0].action, FaultAction::kLinkUp);
  EXPECT_EQ(sched.log()[1].action, FaultAction::kLinkDown);
}

TEST(FaultSchedulerEdge, ZeroDurationFaultHealsWithinTheTick) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, small_topo()};
  FaultScheduler sched{simulator, topo};

  FaultPlan plan;
  plan.random_drop(msec(1), small_spine(0), 0.5).random_drop(msec(1), small_spine(0), 0.0);
  plan.link_down(msec(1), 0, 0).link_up(msec(1), 0, 0);
  sched.install(plan);
  simulator.run_until(msec(2));
  EXPECT_DOUBLE_EQ(topo.spine(0).failure().random_drop_rate, 0.0);
  EXPECT_TRUE(topo.leaf_uplink(0, 0).link_up());
  EXPECT_EQ(sched.active_faults(), 0);
  EXPECT_EQ(sched.applied(), 4u);
}

// --- RandomFaultGenerator -----------------------------------------------

TEST(RandomFaultGenerator, SameSeedSamePlan) {
  const auto topo = small_topo();
  RandomFaultConfig cfg;
  cfg.horizon = sim::sec(2);
  cfg.mtbf = msec(50);
  auto gen = [&](std::uint64_t seed) {
    return RandomFaultGenerator{topo.shape(), cfg, engine::Rng{seed}}.generate().sorted();
  };
  const auto a = gen(7);
  const auto b = gen(7);
  const auto c = gen(8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].action, b[i].action);
    EXPECT_EQ(a[i].sw, b[i].sw);
    EXPECT_EQ(a[i].uplink, b[i].uplink);
    EXPECT_DOUBLE_EQ(a[i].rate, b[i].rate);
  }
  // A different seed produces a different timeline (overwhelmingly).
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) differs = a[i].at != c[i].at;
  EXPECT_TRUE(differs);
}

TEST(RandomFaultGenerator, EveryOnsetHasRecovery) {
  RandomFaultConfig cfg;
  cfg.horizon = sim::sec(2);
  cfg.mtbf = msec(40);
  const auto plan = RandomFaultGenerator{small_topo().shape(), cfg, engine::Rng{3}}.generate();
  EXPECT_FALSE(plan.empty());
  std::map<FaultAction, int> count;
  for (const auto& e : plan.events()) ++count[e.action];
  EXPECT_EQ(count[FaultAction::kBlackholeOn], count[FaultAction::kBlackholeOff]);
  EXPECT_EQ(count[FaultAction::kLinkDown], count[FaultAction::kLinkUp]);
  // Drop-rate and link-rate faults heal by setting the value back.
  EXPECT_EQ(count[FaultAction::kRandomDropSet] % 2, 0);
  EXPECT_EQ(count[FaultAction::kLinkRate] % 2, 0);
  for (const auto& e : plan.events()) EXPECT_GE(e.at, cfg.start);
}

TEST(RandomFaultGenerator, GeneratedPlanRunsCleanly) {
  RandomFaultConfig fcfg;
  fcfg.horizon = msec(50);
  fcfg.mtbf = msec(10);
  fcfg.mttr = msec(5);

  harness::ScenarioConfig cfg;
  cfg.topo = small_topo();
  cfg.scheme = harness::Scheme::kHermes;
  cfg.fault_plan = RandomFaultGenerator{cfg.topo.shape(), fcfg, engine::Rng{cfg.seed}}.generate();
  cfg.check_invariants = true;
  cfg.max_sim_time = sim::sec(5);
  harness::Scenario s{cfg};
  // Flows sized to still be running across the whole fault window
  // (~50MB at 10G is ~40ms; faults land in [10ms, 60ms)).
  s.add_flow(0, 2, 50'000'000, usec(0));
  s.add_flow(1, 3, 50'000'000, usec(5));
  const auto fct = s.run();
  EXPECT_EQ(fct.unfinished_flows(), 0u);
  ASSERT_NE(s.invariants(), nullptr);
  EXPECT_TRUE(s.invariants()->ok()) << s.invariants()->violations().front().what;
  EXPECT_GT(s.fault_scheduler()->applied(), 0u);
}

// --- InvariantChecker ---------------------------------------------------

TEST(InvariantChecker, ByteConservationHoldsOnCleanRun) {
  harness::ScenarioConfig cfg;
  cfg.topo = small_topo();
  cfg.scheme = harness::Scheme::kEcmp;
  cfg.check_invariants = true;
  harness::Scenario s{cfg};
  s.add_flow(0, 2, 1'000'000, usec(0));
  s.run();
  auto* inv = s.invariants();
  ASSERT_NE(inv, nullptr);
  inv->check_now("end of test");
  EXPECT_TRUE(inv->ok());
  EXPECT_GT(inv->checks_run(), 0u);
  EXPECT_GE(inv->injected_bytes(), 1'000'000u);
  EXPECT_EQ(inv->injected_bytes(),
            inv->delivered_bytes() + inv->dropped_bytes() + inv->in_flight_bytes());
}

TEST(InvariantChecker, ConservationHoldsUnderEveryFaultKind) {
  harness::ScenarioConfig cfg;
  cfg.topo = small_topo();
  cfg.scheme = harness::Scheme::kHermes;
  cfg.check_invariants = true;
  cfg.max_sim_time = sim::sec(5);
  cfg.fault_plan.transient_blackhole(msec(1), msec(30), small_spine(0),
                                     rack_pair_blackhole(2, 0, 1));
  cfg.fault_plan.transient_random_drop(msec(2), msec(25), small_spine(1), 0.05);
  cfg.fault_plan.link_down(msec(3), 0, 1);
  cfg.fault_plan.link_up(msec(20), 0, 1);
  cfg.fault_plan.link_rate(msec(4), 1, 0, 0.1);
  harness::Scenario s{cfg};
  // Large enough to be in flight when the first fault lands at 1ms.
  s.add_flow(0, 2, 20'000'000, usec(0));
  s.add_flow(3, 1, 20'000'000, usec(0));
  const auto fct = s.run();
  auto* inv = s.invariants();
  ASSERT_NE(inv, nullptr);
  inv->check_now("end of test");
  EXPECT_TRUE(inv->ok()) << inv->violations().front().what;
  EXPECT_EQ(fct.unfinished_flows(), 0u);  // faults were transient
  // The blackhole + random drops must appear in the drop accounting.
  EXPECT_GT(inv->dropped_bytes(), 0u);
}

TEST(InvariantChecker, WatchdogCountsStuckFlowsUnderPermanentBlackhole) {
  harness::ScenarioConfig cfg;
  cfg.topo = small_topo();
  cfg.scheme = harness::Scheme::kEcmp;  // cannot escape the blackhole
  cfg.check_invariants = true;
  cfg.invariant_config.stuck_after = msec(20);
  cfg.max_sim_time = msec(200);
  // Permanent: both spines blackhole the pair, onset only.
  cfg.fault_plan.blackhole_on(msec(1), small_spine(0), rack_pair_blackhole(2, 0, 1));
  cfg.fault_plan.blackhole_on(msec(1), small_spine(1), rack_pair_blackhole(2, 0, 1));
  harness::Scenario s{cfg};
  s.add_flow(0, 2, 5'000'000, usec(0));
  const auto fct = s.run();
  EXPECT_EQ(fct.unfinished_flows(), 1u);
  ASSERT_NE(s.invariants(), nullptr);
  EXPECT_GT(s.invariants()->max_stuck_flows(), 0u);
  EXPECT_TRUE(s.invariants()->ok());  // stuck flows are a metric, not a violation
}

TEST(InvariantChecker, RegistersPerInvariantCounters) {
  harness::ScenarioConfig cfg;
  cfg.topo = small_topo();
  cfg.scheme = harness::Scheme::kEcmp;
  cfg.check_invariants = true;
  harness::Scenario s{cfg};
  s.add_flow(0, 2, 100'000, usec(0));
  s.run();
  const std::string snap = s.metrics().snapshot_text();
  EXPECT_NE(snap.find("invariants.checks_run"), std::string::npos);
  EXPECT_NE(snap.find("invariants.violations.byte_conservation 0"), std::string::npos);
  EXPECT_NE(snap.find("invariants.violations.queue_bound 0"), std::string::npos);
  EXPECT_NE(snap.find("invariants.violations.shared_buffer 0"), std::string::npos);
  EXPECT_EQ(s.invariants()->violation_count(Invariant::kByteConservation), 0u);
  EXPECT_STREQ(to_string(Invariant::kQueueBound), "queue-bound");
}

TEST(InvariantChecker, WalksTheFatTreeMiddleTier) {
  // A one-shard k=4 fat-tree with the (leaf 0, agg 0) link cut. Pod 1
  // sends one packet over each of its four paths to a host under leaf 0:
  // the paths through cores 0 and 1 reach agg(0, 0), whose downlink to
  // leaf 0 is cut, so two drops land on a middle-tier port; the other
  // two are delivered. A checker that skips the middle tier misses those
  // drops and reports a conservation violation.
  sim::Simulator simulator{1};
  net::FatTreeConfig ftc;
  ftc.k = 4;
  net::FatTree ft{{&simulator}, ftc};
  InvariantCheckerConfig icfg;
  icfg.period = sim::SimTime::zero();
  InvariantChecker checker{simulator, ft, icfg};
  const net::FabricLink& cut = ft.uplink(/*leaf 0*/ 0, /*to agg 0*/ 0);
  ft.switches()[static_cast<std::size_t>(cut.lower)]->port(cut.lower_port).set_link_up(false);
  ft.switches()[static_cast<std::size_t>(cut.upper)]->port(cut.upper_port).set_link_up(false);

  const int src = ft.first_host_of_leaf(2);  // pod 1
  const int dst = 0;                         // under leaf 0
  const int num_paths = static_cast<int>(ft.paths_between_hosts(src, dst).size());
  for (int path = 0; path < num_paths; ++path) {
    net::Packet p;
    p.id = static_cast<std::uint64_t>(path);
    p.src = src;
    p.dst = dst;
    p.size = 1500;
    p.path_id = path;
    p.route = ft.forward_route(src, dst, path);
    ft.host(src).send(std::move(p));
  }
  simulator.run();
  checker.check_now("end of test");

  EXPECT_TRUE(checker.ok()) << checker.violations().front().what;
  EXPECT_EQ(ft.agg(0, 0).port(0).stats().link_down_drops, 2u);
  EXPECT_EQ(checker.dropped_bytes(), 2u * 1500u);
  EXPECT_EQ(checker.delivered_bytes(), 2u * 1500u);
  EXPECT_EQ(checker.injected_bytes(), 4u * 1500u);
}

// --- determinism regression ---------------------------------------------

TEST(FaultDeterminism, SameSeedSamePlanSameFctStats) {
  const auto run_once = [] {
    harness::ScenarioConfig cfg;
    cfg.topo = small_topo();
    cfg.scheme = harness::Scheme::kHermes;
    cfg.seed = 42;
    cfg.check_invariants = true;
    cfg.max_sim_time = sim::sec(5);
    cfg.fault_plan.transient_blackhole(msec(1), msec(20), small_spine(0),
                                       rack_pair_blackhole(2, 0, 1));
    cfg.fault_plan.transient_random_drop(msec(5), msec(15), small_spine(1), 0.02);
    harness::Scenario s{cfg};
    workload::TrafficConfig tc;
    tc.load = 0.3;
    tc.num_flows = 60;
    tc.seed = 42;
    s.add_flows(workload::generate_poisson_traffic(
        s.topology(), workload::SizeDist::web_search(), tc));
    return s.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    EXPECT_EQ(a.records()[i].start, b.records()[i].start);
    EXPECT_EQ(a.records()[i].end, b.records()[i].end);
    EXPECT_EQ(a.records()[i].finished, b.records()[i].finished);
    EXPECT_EQ(a.records()[i].packets_retransmitted, b.records()[i].packets_retransmitted);
  }
  EXPECT_EQ(a.total_timeouts(), b.total_timeouts());
}

std::string fault_and_net_counters(const std::string& snapshot) {
  std::istringstream in(snapshot);
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    if (line.rfind("faults.", 0) == 0 || line.rfind("net.", 0) == 0) out += line + "\n";
  }
  return out;
}

// A 3x2 leaf-spine with two links per leaf-spine pair and one static 4G
// override: a parallel-link cut, a degrade and restore of the overridden
// link, a leaf drop, a spine blackhole and an overlapping re-cut.
std::string run_faulted_leafspine(harness::Scheme scheme) {
  harness::ScenarioConfig cfg;
  cfg.topo.num_leaves = 3;
  cfg.topo.num_spines = 2;
  cfg.topo.hosts_per_leaf = 4;
  cfg.topo.links_per_pair = 2;
  cfg.topo.fabric_overrides[{0, 1, 1}] = 4e9;
  cfg.scheme = scheme;
  cfg.seed = 3;
  cfg.max_sim_time = sim::sec(5);
  // Leaf l's uplink s * 2 + k is parallel link k to spine s.
  FaultPlan& p = cfg.fault_plan;
  p.link_down(msec(2), 1, /*spine 0, k 1*/ 1).link_up(msec(30), 1, 1);
  p.link_rate(msec(5), 0, /*spine 1, k 1*/ 3, 0.25).link_rate(msec(40), 0, 3, 1.0);
  p.random_drop(msec(8), /*leaf*/ 2, 0.01).random_drop(msec(25), 2, 0.0);
  p.transient_blackhole(msec(10), msec(35), cfg.topo.shape().spine(1),
                        rack_pair_blackhole(4, 0, 2, true));
  p.link_down(msec(12), 2, /*spine 1, k 0*/ 2).link_down(msec(15), 2, 2).link_up(msec(20), 2, 2);
  harness::Scenario s{cfg};
  workload::TrafficConfig tc;
  tc.load = 0.5;
  tc.num_flows = 80;
  tc.seed = 3;
  s.add_flows(
      workload::generate_poisson_traffic(s.topology(), workload::SizeDist::web_search(), tc));
  s.add_flow(0, 8, 30'000'000, usec(0));
  s.add_flow(5, 1, 30'000'000, msec(1));
  const auto fct = s.run();
  return stats::to_csv(fct) + fault_and_net_counters(s.metrics().snapshot_text());
}

/// What run_faulted_fattree() leaves behind.
struct FatTreeRun {
  std::string bytes;  ///< FCT records plus the faults.* and net.* counters
  std::uint64_t unfinished = 0;
  std::uint64_t timeout_escapes = 0;  ///< Hermes' lb.timeout_escapes, every shard
};

// A 4-shard k=4 fat-tree under Hermes: a core drop flap, an edge-uplink
// flap and degrade, a core that blackholes rack pair 2->0 from 4 to
// 25 ms, and an edge drop.
FatTreeRun run_faulted_fattree() {
  harness::ShardedScenarioConfig cfg;
  cfg.fabric.k = 4;
  cfg.scheme = harness::Scheme::kHermes;
  cfg.seed = 3;
  cfg.max_sim_time = sim::sec(5);
  cfg.num_shards = 4;
  cfg.threads = 2;
  const net::FabricShape shape = cfg.fabric.shape();
  FaultPlan& p = cfg.fault_plan;
  p.flap_random_drop(msec(1), shape.spine(1), 0.03, msec(10), 3);
  p.flap_link(msec(2), /*edge*/ 2, /*to agg*/ 1, msec(12), 2);
  p.link_rate(msec(3), 5, 0, 0.25).link_rate(msec(30), 5, 0, 1.0);
  p.transient_blackhole(msec(4), msec(25), shape.spine(3), rack_pair_blackhole(2, 0, 7));
  p.transient_random_drop(msec(5), msec(20), /*edge*/ 4, 0.02);
  harness::ShardedScenario s{cfg};
  workload::TrafficConfig tc;
  tc.load = 0.4;
  tc.num_flows = 100;
  tc.seed = 3;
  s.add_flows(
      workload::generate_poisson_traffic(s.fabric(), workload::SizeDist::web_search(), tc));
  for (int h = 0; h < 4; ++h) s.add_flow(h, 15 - h, 20'000'000, msec(h));
  const auto fct = s.run();
  FatTreeRun run;
  run.bytes = stats::to_csv(fct) + fault_and_net_counters(s.metrics().snapshot_text());
  run.unfinished = fct.unfinished_flows();
  for (int shard = 0; shard < s.num_shards(); ++shard) {
    run.timeout_escapes += s.hermes(shard)->decision_stats().timeout_escapes;
  }
  return run;
}

// Golden pins for faulted runs: FCT records plus the faults.* and net.*
// counters. The two leaf-spine runs and the fat-tree run are pinned
// apart, so a change to fat-tree Hermes alone (its probing) re-pins the
// fat-tree hash and leaves the leaf-spine one standing. Both were
// recorded first as one 12029-byte hash, before faults were named by
// switch index and uplink ordinal, from the same plans written per leaf,
// spine and parallel link with absolute rates, so they also prove that
// both namings reach the same ports.
constexpr std::uint64_t kFaultLeafSpineGoldenHash = 0x0dcf836324fded16ull;
constexpr std::uint64_t kFaultFatTreeGoldenHash = 0x5edd5b99f6705b44ull;

TEST(FaultDeterminism, GoldenHashPinsFaultedRuns) {
  const std::string all = run_faulted_leafspine(harness::Scheme::kHermes) +
                          run_faulted_leafspine(harness::Scheme::kEcmp);
  EXPECT_EQ(stats::fnv1a64(all), kFaultLeafSpineGoldenHash)
      << "faulted leaf-spine FCT output or fault/net counters changed (" << all.size()
      << " bytes)";
}

TEST(FaultDeterminism, GoldenHashPinsFaultedFatTreeRun) {
  const std::string bytes = run_faulted_fattree().bytes;
  EXPECT_EQ(stats::fnv1a64(bytes), kFaultFatTreeGoldenHash)
      << "faulted fat-tree FCT output or fault/net counters changed (" << bytes.size()
      << " bytes)";
}

// What the fat-tree pin means, stated so that it survives a re-pin: while
// core 3 blackholes rack pair 2->0, Hermes escapes the dead path on
// timeouts and still finishes every flow.
TEST(FaultDeterminism, FatTreeHermesEscapesBlackholeAndFinishesEveryFlow) {
  const FatTreeRun run = run_faulted_fattree();
  EXPECT_EQ(run.unfinished, 0u);
  EXPECT_GE(run.timeout_escapes, 1u);
}

}  // namespace
}  // namespace hermes::faults
