// Unit tests for Hermes's sensing state: the Algorithm 1 / Table 5
// characterization truth table, signal smoothing, and the failure
// detectors (blackhole handled in engine_conformance_test and
// lb_hermes_test; random drops here). Exercises the environment-neutral
// hermes::engine types directly — no simulator involved.

#include <gtest/gtest.h>

#include "hermes/engine/config.hpp"
#include "hermes/engine/path_state.hpp"

namespace hermes::engine {
namespace {

Config test_config() {
  Config c;
  c.t_ecn = 0.40;
  c.t_rtt_low = usec(60);
  c.t_rtt_high = usec(180);
  c.delta_rtt = usec(80);
  c.delta_ecn = 0.05;
  return c;
}

/// Drive the EWMAs to a steady (rtt, ecn_fraction) point.
void saturate(PathState& st, TimeNs rtt, double ecn_frac) {
  int marked = 0;
  for (int i = 0; i < 400; ++i) {
    const bool mark = (marked < ecn_frac * (i + 1));
    if (mark) ++marked;
    st.add_sample(rtt, mark);
  }
}

TEST(PathCharacterization, NoSampleIsGray) {
  PathState st;
  EXPECT_EQ(st.characterize(test_config()), PathType::kGray);
  EXPECT_FALSE(st.has_sample());
}

// Table 5 rows:
TEST(PathCharacterization, LowEcnLowRttIsGood) {
  auto cfg = test_config();
  PathState st;
  saturate(st, usec(40), 0.0);
  EXPECT_EQ(st.characterize(cfg), PathType::kGood);
}

TEST(PathCharacterization, HighEcnHighRttIsCongested) {
  auto cfg = test_config();
  PathState st;
  saturate(st, usec(250), 0.9);
  EXPECT_EQ(st.characterize(cfg), PathType::kCongested);
}

TEST(PathCharacterization, HighEcnLowRttIsGray) {
  // "Not enough ECN samples or all delay built up at one hop."
  auto cfg = test_config();
  PathState st;
  saturate(st, usec(100), 0.9);
  EXPECT_EQ(st.characterize(cfg), PathType::kGray);
}

TEST(PathCharacterization, LowEcnHighRttIsGray) {
  // "The network stack incurs high RTT" must not condemn the path.
  auto cfg = test_config();
  PathState st;
  saturate(st, usec(250), 0.0);
  EXPECT_EQ(st.characterize(cfg), PathType::kGray);
}

TEST(PathCharacterization, LowEcnModerateRttIsGray) {
  auto cfg = test_config();
  PathState st;
  saturate(st, usec(120), 0.1);
  EXPECT_EQ(st.characterize(cfg), PathType::kGray);
}

TEST(PathCharacterization, RttOnlyModeIgnoresEcn) {
  auto cfg = test_config();
  cfg.use_ecn = false;  // plain-TCP sensing (§5.4)
  PathState st;
  saturate(st, usec(40), 1.0);  // ECN would say congested
  EXPECT_EQ(st.characterize(cfg), PathType::kGood);
  PathState st2;
  saturate(st2, usec(250), 0.0);
  EXPECT_EQ(st2.characterize(cfg), PathType::kCongested);
}

TEST(PathState, EwmaTracksShift) {
  auto cfg = test_config();
  PathState st;
  saturate(st, usec(40), 0.0);
  EXPECT_EQ(st.characterize(cfg), PathType::kGood);
  saturate(st, usec(300), 1.0);
  EXPECT_EQ(st.characterize(cfg), PathType::kCongested);
}

TEST(PathState, FirstSampleInitializesDirectly) {
  PathState st;
  st.add_sample(usec(123), true);
  EXPECT_EQ(st.rtt(), usec(123));
  EXPECT_DOUBLE_EQ(st.ecn_fraction(), 1.0);
}

TEST(RandomDropDetector, LatchesOnSustainedRetransmissions) {
  auto cfg = test_config();
  PathState st;
  saturate(st, usec(40), 0.0);  // path looks good (not congested)
  TimeNs t = 0;
  // Two epochs of 2% retransmission rate with enough samples.
  for (int epoch = 0; epoch < 2; ++epoch) {
    for (int i = 0; i < 200; ++i) st.add_send(1500, t, cfg);
    for (int i = 0; i < 4; ++i) st.add_retransmit(t, cfg);
    t += kRetxEpoch + usec(1);
    st.roll_epoch(t, cfg);
  }
  EXPECT_TRUE(st.failed());
  EXPECT_EQ(st.characterize(cfg), PathType::kFailed);
}

TEST(RandomDropDetector, CongestionExplainsRetransmissions) {
  auto cfg = test_config();
  PathState st;
  saturate(st, usec(300), 0.9);  // genuinely congested
  TimeNs t = 0;
  for (int i = 0; i < 200; ++i) st.add_send(1500, t, cfg);
  for (int i = 0; i < 10; ++i) st.add_retransmit(t, cfg);
  t += kRetxEpoch + usec(1);
  st.roll_epoch(t, cfg);
  EXPECT_FALSE(st.failed());  // lines 8-9: congested paths are excluded
}

TEST(RandomDropDetector, TooFewSamplesDoNotLatch) {
  auto cfg = test_config();
  PathState st;
  saturate(st, usec(40), 0.0);
  TimeNs t = 0;
  for (int i = 0; i < 10; ++i) st.add_send(1500, t, cfg);  // < kMinEpochSends
  st.add_retransmit(t, cfg);                               // 10% rate but n=10
  t += kRetxEpoch + usec(1);
  st.roll_epoch(t, cfg);
  EXPECT_FALSE(st.failed());
}

TEST(RandomDropDetector, CleanEpochsDoNotLatch) {
  auto cfg = test_config();
  PathState st;
  saturate(st, usec(40), 0.0);
  TimeNs t = 0;
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (int i = 0; i < 500; ++i) st.add_send(1500, t, cfg);
    st.add_retransmit(t, cfg);  // 0.2% — below the 1% threshold
    t += kRetxEpoch + usec(1);
    st.roll_epoch(t, cfg);
  }
  EXPECT_FALSE(st.failed());
}

TEST(RandomDropDetector, FailureSensingToggleDisablesIt) {
  auto cfg = test_config();
  cfg.failure_sensing = false;
  PathState st;
  saturate(st, usec(40), 0.0);
  TimeNs t = 0;
  for (int i = 0; i < 200; ++i) st.add_send(1500, t, cfg);
  for (int i = 0; i < 20; ++i) st.add_retransmit(t, cfg);
  t += kRetxEpoch + usec(1);
  st.roll_epoch(t, cfg);
  EXPECT_FALSE(st.failed());
}

TEST(PathState, FailureCanBeCleared) {
  PathState st;
  st.fail(usec(1));
  EXPECT_TRUE(st.failed());
  st.clear_failure();
  EXPECT_FALSE(st.failed());
}

// --- failure-latch lifecycle (expiry + re-confirmation doubling) --------

TEST(FailureLatch, FiresAndStaysActiveWithinExpiry) {
  auto cfg = test_config();
  PathState st;
  st.fail(msec(1));
  EXPECT_TRUE(st.failed_active(msec(1), cfg));
  // Still latched right up to the expiry boundary.
  EXPECT_TRUE(st.failed_active(msec(1) + cfg.failure_expiry, cfg));
}

TEST(FailureLatch, ExpiresWithoutFreshEvidence) {
  auto cfg = test_config();
  PathState st;
  st.fail(msec(1));
  const TimeNs past = msec(1) + cfg.failure_expiry + usec(1);
  EXPECT_FALSE(st.failed_active(past, cfg));
  EXPECT_FALSE(st.failed());  // the latch itself cleared, not just the view
}

TEST(FailureLatch, ReconfirmationDoublesExpiry) {
  auto cfg = test_config();
  PathState st;
  st.fail(msec(1));  // streak 1: expiry = E
  EXPECT_FALSE(st.failed_active(msec(1) + cfg.failure_expiry * 2, cfg));
  st.fail(msec(300));  // streak 2: expiry = 2E
  // One expiry later it is still latched (would have expired at streak 1)...
  EXPECT_TRUE(st.failed_active(msec(300) + cfg.failure_expiry + usec(1), cfg));
  // ...but two expiries later it heals.
  EXPECT_FALSE(st.failed_active(msec(300) + cfg.failure_expiry * 2 + usec(1), cfg));
}

TEST(FailureLatch, DoublingCapsAt128x) {
  auto cfg = test_config();
  PathState st;
  // Far more confirmations than the cap; streak saturates at 8.
  for (int i = 0; i < 20; ++i) st.fail(msec(1));
  // 128x expiry still latched...
  EXPECT_TRUE(st.failed_active(msec(1) + cfg.failure_expiry * 128, cfg));
  // ...but not a nanosecond more than that (no unbounded growth).
  EXPECT_FALSE(st.failed_active(msec(1) + cfg.failure_expiry * 128 + usec(1), cfg));
}

TEST(FailureLatch, ClearedFaultReturnsToCongestionType) {
  auto cfg = test_config();
  PathState st;
  saturate(st, usec(40), 0.0);
  EXPECT_EQ(st.characterize(cfg), PathType::kGood);
  st.fail(msec(1));
  EXPECT_EQ(st.characterize(cfg), PathType::kFailed);
  // Expiry heals the latch; the path reads good again from its signals.
  EXPECT_FALSE(st.failed_active(msec(1) + cfg.failure_expiry + usec(1), cfg));
  EXPECT_EQ(st.characterize(cfg), PathType::kGood);
  // A fresh path with no samples heals back to gray, not good.
  PathState fresh;
  fresh.fail(msec(1));
  EXPECT_FALSE(fresh.failed_active(msec(1) + cfg.failure_expiry + usec(1), cfg));
  EXPECT_EQ(fresh.characterize(cfg), PathType::kGray);
}

TEST(FailureLatch, ZeroExpiryLatchesForever) {
  auto cfg = test_config();
  cfg.failure_expiry = 0;
  PathState st;
  st.fail(msec(1));
  EXPECT_TRUE(st.failed_active(sec(100), cfg));
}

TEST(PathState, RateDreAccumulatesSends) {
  auto cfg = test_config();
  PathState st;
  TimeNs t = 0;
  for (int i = 0; i < 1000; ++i) {
    st.add_send(1500, t, cfg);
    t += nsec(1200);  // 10Gbps pacing
  }
  EXPECT_NEAR(st.rate_bps(t), 10e9, 2e9);
}

}  // namespace
}  // namespace hermes::engine
