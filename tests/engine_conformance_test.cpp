// Conformance suite for hermes::engine::Engine as a *load balancer*:
// placement, every branch of Algorithm 2 with its RNG draws, and the
// failure latch lifecycle — all driven through the public engine API
// with no simulator attached (one test also checks the simulator
// adapter's introspection bounds). These tests are also run under TSan
// in tier 1 (two engines on concurrent threads must not share hidden
// state).

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hermes/engine/engine.hpp"
#include "hermes/lb/hermes.hpp"
#include "hermes/net/topology.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/stats/csv.hpp"

namespace hermes::engine {
namespace {

Config test_config() {
  Config c;
  c.t_ecn = 0.40;
  c.t_rtt_low = usec(60);
  c.t_rtt_high = usec(180);
  c.delta_rtt = usec(80);
  c.delta_ecn = 0.05;
  c.failure_expiry = msec(100);
  return c;
}

/// A flow view for one (src,dst) pair on group pair (0,1).
FlowView flow(std::uint64_t id, std::int32_t src = 1, std::int32_t dst = 2) {
  FlowView v;
  v.flow_id = id;
  v.src = src;
  v.dst = dst;
  v.src_group = 0;
  v.dst_group = 1;
  return v;
}

/// Saturate one slot's sensing to a steady (rtt, ecn) point.
void drive(Engine& e, int li, TimeNs rtt, bool ecn, int n = 300) {
  for (int i = 0; i < n; ++i) e.on_ack(0, 1, li, 1, 2, true, rtt, ecn);
}

/// Collects the decision stream for assertions.
struct LogSink final : DecisionSink {
  std::vector<DecisionEvent> events;
  void on_decision(const DecisionEvent& ev) override { events.push_back(ev); }
  [[nodiscard]] int count(DecisionKind k) const {
    int n = 0;
    for (const auto& ev : events)
      if (ev.kind == k) ++n;
    return n;
  }
};

TEST(EngineConformance, NoPathsReturnsNoDecision) {
  Engine e{test_config(), 2, 1};
  FlowView f = flow(1);
  EXPECT_EQ(e.decide(f, 1500, usec(1)), -1);
  EXPECT_EQ(e.stats().initial_placements, 0u);  // nothing to place onto
}

TEST(EngineConformance, SingleHostAlwaysSelected) {
  Engine e{test_config(), 2, 1};
  e.path_set(0, 1).ensure(1);
  for (int i = 0; i < 20; ++i) {
    FlowView f = flow(static_cast<std::uint64_t>(i));
    EXPECT_EQ(e.decide(f, 1500, usec(i)), 0);
  }
  EXPECT_EQ(e.stats().initial_placements, 20u);
}

TEST(EngineConformance, FlowOnAPathThePairLacksTransmitsInRange) {
  // decide() bounds the embedder's cur_local: an established flow naming
  // a path past the pair's size goes to a path in range, and is not
  // misread as a timeout or failure escape.
  Engine e{test_config(), 2, 1};
  e.path_set(0, 1).ensure(2);
  FlowView f = flow(7);
  f.has_sent = true;
  f.cur_local = 2;
  const int chosen = e.decide(f, 1500, msec(2));
  EXPECT_GE(chosen, 0);
  EXPECT_LT(chosen, 2);
  EXPECT_EQ(e.stats().timeout_escapes + e.stats().failure_escapes, 0u);
}

TEST(EngineConformance, TimeoutEscapeClearsPendingFlag) {
  Engine e{test_config(), 2, 1};
  e.path_set(0, 1).ensure(4);
  FlowView f = flow(1);
  f.has_sent = true;
  f.cur_local = 0;
  f.timeout_pending = true;
  const int chosen = e.decide(f, 1500, msec(1));
  EXPECT_GE(chosen, 0);
  EXPECT_FALSE(f.timeout_pending) << "engine must consume the timeout flag";
  EXPECT_EQ(e.stats().timeout_escapes, 1u);
}

TEST(EngineConformance, BlackholeLatchRepelsThenExpires) {
  Engine e{test_config(), 2, 1};
  LogSink sink;
  e.set_sink(&sink);
  e.path_set(0, 1).ensure(4);

  // Three consecutive timeouts for one (src,dst) pair on path 0 latch it.
  FlowView f = flow(1);
  f.has_sent = true;
  f.cur_local = 0;
  for (int i = 0; i < 3; ++i) e.on_timeout(f, msec(1 + i));
  EXPECT_EQ(e.stats().blackhole_latches, 1u);
  EXPECT_EQ(sink.count(DecisionKind::kBlackholeLatch), 1);
  EXPECT_TRUE(e.blackholed(0, 1, 1, 2, 0, msec(4)));

  // The latched path is avoided while the latch is live...
  EXPECT_NE(e.decide(f, 1500, msec(5)), 0);
  EXPECT_EQ(e.stats().failure_escapes, 1u);

  // ...and without fresh timeouts the latch expires (streak 1: one
  // failure_expiry) — observed on the next decision that touches it.
  const TimeNs late = msec(3) + e.config().failure_expiry + msec(1);
  EXPECT_FALSE(e.blackholed(0, 1, 1, 2, 0, late));
  FlowView f2 = flow(1);
  f2.has_sent = true;
  f2.cur_local = 0;
  EXPECT_EQ(e.decide(f2, 1500, late), 0) << "expired latch must stop repelling the flow";
  EXPECT_EQ(e.stats().latch_expiries, 1u);
  EXPECT_EQ(sink.count(DecisionKind::kLatchExpire), 1);
}

TEST(EngineConformance, RelatchDoublesExpiryPerStreak) {
  Engine e{test_config(), 2, 1};
  e.path_set(0, 1).ensure(4);
  const TimeNs expiry = e.config().failure_expiry;
  FlowView f = flow(1);
  f.has_sent = true;
  f.cur_local = 0;

  for (int i = 0; i < 3; ++i) e.on_timeout(f, msec(i));  // streak 1
  // Expire it via a decision past the window.
  (void)e.decide(f, 1500, msec(2) + expiry + msec(1));
  EXPECT_EQ(e.stats().latch_expiries, 1u);

  // Re-latch: the streak doubles the expiry window.
  const TimeNs t2 = msec(2) + expiry + msec(2);
  for (int i = 0; i < 3; ++i) e.on_timeout(f, t2 + msec(i));
  EXPECT_EQ(e.stats().blackhole_latches, 2u);
  const TimeNs latched_at = t2 + msec(2);
  EXPECT_TRUE(e.blackholed(0, 1, 1, 2, 0, latched_at + expiry + msec(50)))
      << "re-latched hole should hold past one expiry (doubled window)";
  EXPECT_FALSE(e.blackholed(0, 1, 1, 2, 0, latched_at + 2 * expiry + msec(1)));
}

TEST(EngineConformance, BlackholeLatchesOfDistinctHostPairsNeverCollide) {
  // Host pair 1->0 latches path 0. Host pair 0->2^24 never timed out: a
  // latch key packing src into bits 40-63 and dst into bits 16-47 gave
  // both pairs the same latch.
  Engine e{test_config(), 2, 1};
  e.path_set(0, 1).ensure(4);
  FlowView f = flow(1, /*src=*/1, /*dst=*/0);
  f.has_sent = true;
  f.cur_local = 0;
  for (int i = 0; i < 3; ++i) e.on_timeout(f, msec(1 + i));
  ASSERT_TRUE(e.blackholed(0, 1, 1, 0, 0, msec(4)));
  EXPECT_FALSE(e.blackholed(0, 1, 0, 1 << 24, 0, msec(4)));
  FlowView other = flow(2, /*src=*/0, /*dst=*/1 << 24);
  other.has_sent = true;
  other.cur_local = 0;
  EXPECT_EQ(e.decide(other, 1500, msec(4)), 0) << "another pair's latch repelled the flow";
  EXPECT_EQ(e.stats().failure_escapes, 0u);
}

TEST(EngineConformance, EveryAlgorithmTwoBranchDecidesAsPinned) {
  // One script over 8 paths runs every branch of Algorithm 2 — tied
  // placements, reroutes, line 12's fallback over congested paths, and
  // the transmit-anywhere tail once every path is latched — and its
  // decision log, event stream and next draw are pinned.
  Config cfg = test_config();
  cfg.reroute_rate_limit_bps = 1e12;  // rate gate open
  Engine e{cfg, 2, 42};
  LogSink sink;
  e.set_sink(&sink);
  e.path_set(0, 1).ensure(8);
  std::string out;
  TimeNs t = 0;
  const auto place = [&](std::uint64_t id, bool established, int cur) {
    FlowView f = flow(id);
    f.has_sent = established;
    f.cur_local = cur;
    f.bytes_sent = 1 << 20;  // past S
    out += std::to_string(e.decide(f, 1500, t += usec(7))) + ",";
  };
  for (int i = 0; i < 40; ++i) place(static_cast<std::uint64_t>(i), false, -1);  // all gray
  for (int li = 0; li < 8; ++li) drive(e, li, li < 4 ? usec(40) : usec(250), li >= 4, 50);
  for (int i = 0; i < 40; ++i) place(static_cast<std::uint64_t>(100 + i), i % 2 == 0, 4 + i % 4);
  for (int li = 0; li < 4; ++li) drive(e, li, usec(250), true, 50);  // all congested
  for (int i = 0; i < 40; ++i) place(static_cast<std::uint64_t>(200 + i), false, -1);
  const auto latch = [&](int li) {  // three timeouts of host pair 1->2 on path li
    FlowView f = flow(300);
    f.has_sent = true;
    f.cur_local = li;
    for (int k = 0; k < 3; ++k) e.on_timeout(f, t += usec(3));
  };
  for (int li = 0; li < 4; ++li) latch(li);  // the fallback draws over paths 4-7
  for (int i = 0; i < 40; ++i) place(static_cast<std::uint64_t>(400 + i), false, -1);
  for (int li = 4; li < 8; ++li) latch(li);  // the transmit-anywhere tail
  for (int i = 0; i < 40; ++i) place(static_cast<std::uint64_t>(500 + i), false, -1);
  for (const DecisionEvent& ev : sink.events) {
    out += std::to_string(static_cast<int>(ev.kind)) + ":" + std::to_string(ev.from_path) +
           ">" + std::to_string(ev.to_path) + ";";
  }
  out += "rng=" + std::to_string(e.rng().next(1U << 30));
  EXPECT_EQ(out.size(), 1829u);
  EXPECT_EQ(stats::fnv1a64(out), 0x65eb901d9f412308ULL) << out;
  EXPECT_NE(out.find("4:"), std::string::npos) << "script never latched a blackhole";
}

TEST(EngineConformance, UnownedSourceGroupThrows) {
  Engine e{test_config(), 4, std::vector<int>{1, 3}, 1};
  EXPECT_EQ(e.path_set(3, 0).size(), 0u);
  EXPECT_THROW((void)e.path_set(0, 1), std::out_of_range);
  EXPECT_THROW((void)e.path_set(4, 1), std::out_of_range);
  EXPECT_THROW((void)e.path_set(1, 4), std::out_of_range);
  FlowView f = flow(1);  // group pair 0 -> 1
  EXPECT_THROW((void)e.decide(f, 1500, usec(1)), std::out_of_range);
  EXPECT_THROW((void)e.path_set(2, 1), std::out_of_range);
  EXPECT_THROW((void)e.blackholed(0, 1, 1, 2, 0, usec(1)), std::out_of_range);
  EXPECT_THROW((Engine{test_config(), 4, std::vector<int>{3, 1}, 1}), std::invalid_argument);
}

TEST(EngineConformance, PathIndexOutsideThePairThrows) {
  Engine e{test_config(), 2, 1};
  e.path_set(0, 1).ensure(4);
  EXPECT_EQ(e.path_type(0, 1, 3), PathType::kGray);
  for (const int bad : {-1, 4}) {
    EXPECT_THROW((void)e.path_state(0, 1, bad), std::out_of_range) << bad;
    EXPECT_THROW((void)e.path_type(0, 1, bad), std::out_of_range) << bad;
  }
  // The simulator's adapter sizes a pair from the fabric on first use.
  sim::Simulator simulator{1};
  net::Topology topo{simulator, net::TopologyConfig{}};
  lb::HermesLb h{simulator, topo, lb::HermesConfig::defaults_for(topo)};
  const int n = static_cast<int>(topo.paths_between_leaves(0, 1).size());
  ASSERT_GT(n, 0);
  EXPECT_EQ(h.path_type(0, 1, n - 1), PathType::kGray);
  for (const int bad : {-1, n}) {
    EXPECT_THROW((void)h.path_state(0, 1, bad), std::out_of_range) << bad;
    EXPECT_THROW((void)h.path_type(0, 1, bad), std::out_of_range) << bad;
  }
}

TEST(EngineConformance, IndependentEnginesRunConcurrently) {
  // Two engines on two threads share nothing: under TSan (tier 1 runs
  // this suite sanitized) any hidden global in the decision path fails.
  auto work = [](std::uint64_t seed, std::string* out) {
    Engine e{test_config(), 2, seed};
    e.path_set(0, 1).ensure(8);
    for (int i = 0; i < 500; ++i) {
      FlowView f = flow(static_cast<std::uint64_t>(i));
      out->push_back(static_cast<char>('a' + e.decide(f, 1500, usec(i))));
      e.on_ack(0, 1, i % 8, 1, 2, true, usec(40 + i % 7), (i % 5) == 0);
    }
  };
  std::string a1, a2, b;
  std::thread t1{work, 42, &a1};
  std::thread t2{work, 43, &b};
  t1.join();
  t2.join();
  work(42, &a2);
  EXPECT_EQ(a1, a2) << "same seed, same decision string, regardless of thread";
  EXPECT_NE(a1, b) << "tie-break stream must depend on the seed";
}

}  // namespace
}  // namespace hermes::engine
