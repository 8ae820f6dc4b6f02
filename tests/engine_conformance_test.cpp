// Conformance suite for hermes::engine::Engine as a *load balancer*, in
// the style of Envoy/gRPC LB conformance tests: declared membership
// (HostSet weights + health + panic), churn under load, and the failure
// latch lifecycle — all driven through the public engine API with no
// simulator attached. These tests are also run under TSan in tier 1
// (two engines on concurrent threads must not share hidden state).

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "hermes/engine/engine.hpp"

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

/// N anonymous unit-weight healthy hosts with ids base..base+n-1.
HostSet hosts(int n, std::int64_t base = 100) {
  HostSet h;
  for (int i = 0; i < n; ++i) h.add(base + i);
  return h;
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
  e.sync_pair(0, 1, hosts(1));
  for (int i = 0; i < 20; ++i) {
    FlowView f = flow(static_cast<std::uint64_t>(i));
    EXPECT_EQ(e.decide(f, 1500, usec(i)), 0);
  }
  EXPECT_EQ(e.stats().initial_placements, 20u);
}

TEST(EngineConformance, UnhealthyHostExcludedFromSelection) {
  Engine e{test_config(), 2, 1};
  HostSet h = hosts(4);
  h.set_health(103, Health::kUnhealthy);
  e.sync_pair(0, 1, h);
  // Make the unhealthy path the most attractive (only "good" path): it
  // must still never be selected while healthy alternatives exist.
  drive(e, 3, usec(40), false);
  for (int i = 0; i < 100; ++i) {
    FlowView f = flow(static_cast<std::uint64_t>(i));
    const int chosen = e.decide(f, 1500, usec(i));
    ASSERT_GE(chosen, 0);
    EXPECT_NE(chosen, 3) << "declared-unhealthy path selected outside panic mode";
  }
}

TEST(EngineConformance, AllUnhealthyPanicsAndSpreads) {
  Engine e{test_config(), 2, 1};
  HostSet h = hosts(4);
  for (int i = 0; i < 4; ++i) h.set_health(100 + i, Health::kUnhealthy);
  e.sync_pair(0, 1, h);
  ASSERT_TRUE(e.path_set(0, 1).in_panic());
  std::set<int> seen;
  for (int i = 0; i < 100; ++i) {
    FlowView f = flow(static_cast<std::uint64_t>(i));
    const int chosen = e.decide(f, 1500, usec(i));
    ASSERT_GE(chosen, 0) << "panic mode must still place traffic";
    seen.insert(chosen);
  }
  // Panic spreads over everyone rather than concentrating.
  EXPECT_GT(seen.size(), 1u);
}

TEST(EngineConformance, PanicThresholdBoundary) {
  Engine e{test_config(), 2, 1};
  // 2 of 4 healthy: exactly at the 0.5 threshold — no panic.
  HostSet h = hosts(4);
  h.set_health(102, Health::kUnhealthy);
  h.set_health(103, Health::kUnhealthy);
  e.sync_pair(0, 1, h);
  EXPECT_FALSE(e.path_set(0, 1).in_panic());
  // 1 of 4 healthy: below — panic.
  h.set_health(101, Health::kUnhealthy);
  e.sync_pair(0, 1, h);
  EXPECT_TRUE(e.path_set(0, 1).in_panic());
  // Healing one host leaves panic again.
  h.set_health(102, Health::kHealthy);
  e.sync_pair(0, 1, h);
  EXPECT_FALSE(e.path_set(0, 1).in_panic());
}

TEST(EngineConformance, DegradedHostSkippedWhileHealthyExist) {
  Engine e{test_config(), 2, 1};
  HostSet h = hosts(4);
  h.set_health(100, Health::kDegraded);
  e.sync_pair(0, 1, h);
  drive(e, 0, usec(30), false);  // degraded path senses best
  for (int i = 0; i < 100; ++i) {
    FlowView f = flow(static_cast<std::uint64_t>(i));
    EXPECT_NE(e.decide(f, 1500, usec(i)), 0)
        << "degraded path preferred over healthy ones in the ranked scan";
  }
}

TEST(EngineConformance, DrainedWeightZeroNeverSelected) {
  Engine e{test_config(), 2, 1};
  HostSet h = hosts(3);
  h.set_weight(101, 0);  // draining
  e.sync_pair(0, 1, h);
  for (int i = 0; i < 100; ++i) {
    FlowView f = flow(static_cast<std::uint64_t>(i));
    const int chosen = e.decide(f, 1500, usec(i));
    ASSERT_GE(chosen, 0);
    EXPECT_NE(chosen, 1) << "weight-0 (drained) path selected";
  }
}

TEST(EngineConformance, WeightChangeMidStreamShiftsDistribution) {
  Engine e{test_config(), 2, 1};
  HostSet h;
  h.add(100, 9);
  h.add(101, 1);
  e.sync_pair(0, 1, h);
  // Space decisions 10ms apart so each path's rate DRE decays back to
  // ~idle in between: every placement is then a pure weighted tie-break
  // rather than least-rate balancing.
  TimeNs t = 0;
  auto tally = [&](std::uint64_t id_base) {
    int first = 0;
    for (int i = 0; i < 200; ++i) {
      t += msec(10);
      FlowView f = flow(id_base + static_cast<std::uint64_t>(i));
      if (e.decide(f, 1500, t) == 0) ++first;
    }
    return first;
  };
  const int before = tally(0);
  EXPECT_GT(before, 140) << "9:1 weights not respected by placement";
  // Flip the weights mid-stream: no resync-time state loss, just a new
  // distribution from here on.
  h.set_weight(100, 1);
  h.set_weight(101, 9);
  e.sync_pair(0, 1, h);
  const int after = tally(1000);
  EXPECT_LT(after, 60) << "weight update did not take effect";
  // Sensing state survived the weight-only update.
  EXPECT_EQ(e.path_set(0, 1).slot(0).host_id, 100);
}

TEST(EngineConformance, HostAddUnderLoadPreservesSensing) {
  Engine e{test_config(), 2, 1};
  HostSet h = hosts(2);
  e.sync_pair(0, 1, h);
  drive(e, 0, usec(40), false);
  const TimeNs rtt_before = e.path_state(0, 1, 0).rtt();
  // Scale out while flows are in flight.
  h.add(300);
  e.sync_pair(0, 1, h);
  ASSERT_EQ(e.path_set(0, 1).size(), 3u);
  EXPECT_EQ(e.path_state(0, 1, 0).rtt(), rtt_before) << "surviving slot lost its estimates";
  EXPECT_FALSE(e.path_state(0, 1, 2).has_sample()) << "new slot must start cold";
  // Established flows keep their path; the new path is reachable for
  // fresh placements.
  FlowView est = flow(1);
  est.has_sent = true;
  est.cur_local = 0;
  EXPECT_EQ(e.decide(est, 1500, msec(1)), 0);
  // While the new path is unsampled it is gray: the sensed-good path 0
  // keeps winning. Once probing samples it as good, placements use it.
  FlowView cold = flow(9);
  EXPECT_EQ(e.decide(cold, 1500, msec(1)), 0);
  e.feed_probe_sample(0, 1, 2, usec(30), false);
  std::set<int> seen;
  for (int i = 0; i < 60; ++i) {
    FlowView f = flow(static_cast<std::uint64_t>(10 + i));
    seen.insert(e.decide(f, 1500, msec(1) + usec(i)));
  }
  EXPECT_TRUE(seen.count(2) == 1) << "sampled-good new member never placed onto";
}

TEST(EngineConformance, HostRemoveUnderLoadRebindsAndResets) {
  Engine e{test_config(), 2, 1};
  HostSet h = hosts(3);  // ids 100, 101, 102
  e.sync_pair(0, 1, h);
  drive(e, 0, usec(40), false);
  drive(e, 1, usec(50), false);
  drive(e, 2, usec(45), false);
  h.remove(101);  // positions shift: slot 1 now backs host 102
  e.sync_pair(0, 1, h);
  ASSERT_EQ(e.path_set(0, 1).size(), 2u);
  EXPECT_TRUE(e.path_state(0, 1, 0).has_sample()) << "unmoved slot must keep state";
  EXPECT_FALSE(e.path_state(0, 1, 1).has_sample())
      << "slot re-bound to a different host must restart sensing";
  // A flow still pointing at the removed position is routed to a live
  // path without being misread as a timeout/failure escape.
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
  e.sync_pair(0, 1, hosts(4));
  FlowView f = flow(1);
  f.has_sent = true;
  f.cur_local = 0;
  f.timeout_pending = true;
  const int chosen = e.decide(f, 1500, msec(1));
  EXPECT_GE(chosen, 0);
  EXPECT_FALSE(f.timeout_pending) << "engine must consume the timeout flag";
  EXPECT_EQ(e.stats().timeout_escapes, 1u);
}

TEST(EngineConformance, BlackholeLatchSurvivesHealthFlappingThenExpires) {
  Engine e{test_config(), 2, 1};
  LogSink sink;
  e.set_sink(&sink);
  HostSet h = hosts(4);
  e.sync_pair(0, 1, h);

  // Three consecutive timeouts for one (src,dst) pair on path 0 latch it.
  FlowView f = flow(1);
  f.has_sent = true;
  f.cur_local = 0;
  for (int i = 0; i < 3; ++i) e.on_timeout(f, msec(1 + i));
  EXPECT_EQ(e.stats().blackhole_latches, 1u);
  EXPECT_EQ(sink.count(DecisionKind::kBlackholeLatch), 1);
  EXPECT_TRUE(e.blackholed(0, 1, 1, 2, 0, msec(4)));

  // Health flapping (unhealthy -> healthy, same host ids) must not
  // disturb the latch: declared health and sensed failure are separate.
  h.set_health(100, Health::kUnhealthy);
  e.sync_pair(0, 1, h);
  h.set_health(100, Health::kHealthy);
  e.sync_pair(0, 1, h);
  EXPECT_TRUE(e.blackholed(0, 1, 1, 2, 0, msec(4))) << "membership churn cleared the latch";

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
  e.sync_pair(0, 1, hosts(4));
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

TEST(EngineConformance, IndependentEnginesRunConcurrently) {
  // Two engines on two threads share nothing: under TSan (tier 1 runs
  // this suite sanitized) any hidden global in the decision path fails.
  auto work = [](std::uint64_t seed, std::string* out) {
    Engine e{test_config(), 2, seed};
    e.sync_pair(0, 1, hosts(8));
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
