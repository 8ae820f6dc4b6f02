// Unit tests for the simulation core: time arithmetic, the event queue's
// ordering/cancellation semantics, and deterministic RNG streams.

#include <functional>
#include <gtest/gtest.h>

#include <vector>

#include "hermes/engine/rng.hpp"
#include "hermes/sim/event_queue.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/sim/time.hpp"

namespace hermes::sim {
namespace {

using engine::Rng;

TEST(SimTime, ConstructorsAgree) {
  EXPECT_EQ(usec(1).ns(), 1000);
  EXPECT_EQ(msec(1), usec(1000));
  EXPECT_EQ(sec(1), msec(1000));
  EXPECT_EQ(SimTime::from_seconds(1e-6), usec(1));
}

TEST(SimTime, Arithmetic) {
  EXPECT_EQ(usec(3) + usec(4), usec(7));
  EXPECT_EQ(usec(10) - usec(4), usec(6));
  EXPECT_EQ(usec(5) * 3, usec(15));
  EXPECT_EQ(usec(15) / 3, usec(5));
  EXPECT_DOUBLE_EQ(usec(10) / usec(4), 2.5);
}

TEST(SimTime, Comparisons) {
  EXPECT_LT(usec(1), usec(2));
  EXPECT_GE(msec(1), usec(1000));
  EXPECT_EQ(SimTime::zero(), nsec(0));
}

TEST(SimTime, Conversions) {
  EXPECT_DOUBLE_EQ(msec(5).to_seconds(), 0.005);
  EXPECT_DOUBLE_EQ(usec(7).to_usec(), 7.0);
  EXPECT_DOUBLE_EQ(msec(3).to_msec(), 3.0);
}

TEST(SimTime, ToStringPicksUnits) {
  EXPECT_EQ(nsec(500).to_string(), "500ns");
  EXPECT_EQ(usec(100).to_string(), "100us");
  EXPECT_EQ(msec(10).to_string(), "10ms");
  EXPECT_EQ(sec(2).to_string(), "2s");
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(usec(30), [&] { order.push_back(3); });
  q.schedule_at(usec(10), [&] { order.push_back(1); });
  q.schedule_at(usec(20), [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), usec(30));
}

TEST(EventQueue, EqualTimesFireFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.schedule_at(usec(5), [&, i] { order.push_back(i); });
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  auto h = q.schedule_at(usec(10), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  q.run();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  int count = 0;
  auto h = q.schedule_at(usec(10), [&] { ++count; });
  q.run();
  EXPECT_EQ(count, 1);
  h.cancel();  // must not crash or double-count
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, RunUntilAdvancesClockPastLastEvent) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(usec(10), [&] { ++fired; });
  q.schedule_at(usec(50), [&] { ++fired; });
  q.run_until(usec(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), usec(20));
  q.run_until(usec(100));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), usec(100));
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.schedule_in(usec(1), recurse);
  };
  q.schedule_at(usec(0), recurse);
  q.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.now(), usec(4));
}

TEST(EventQueue, StopHaltsRun) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(usec(1), [&] {
    ++fired;
    q.stop();
  });
  q.schedule_at(usec(2), [&] { ++fired; });
  q.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, EmptyReflectsCancelledEvents) {
  EventQueue q;
  auto h = q.schedule_at(usec(1), [] {});
  EXPECT_FALSE(q.empty());
  h.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ProcessedCounter) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.schedule_at(usec(i), [] {});
  q.run();
  EXPECT_EQ(q.events_processed(), 7u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(1000), b.next(1000));
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next(1'000'000) == b.next(1'000'000)) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange) {
  Rng r{7};
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    EXPECT_LT(r.next(10), 10u);
  }
}

TEST(Rng, ExponentialMean) {
  Rng r{11};
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng a{42}, b{42};
  Rng fa = a.fork(1), fb = b.fork(1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(fa.next(1000), fb.next(1000));
  Rng fc = Rng{42}.fork(2);
  int same = 0;
  Rng fd = Rng{42}.fork(1);
  for (int i = 0; i < 100; ++i)
    if (fc.next(1'000'000) == fd.next(1'000'000)) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, ChanceExtremes) {
  Rng r{3};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Simulator, SchedulingHelpers) {
  Simulator s{1};
  int fired = 0;
  s.after(usec(5), [&] { ++fired; });
  s.at(usec(10), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), usec(10));
}

TEST(Simulator, RngStreamsDeterministic) {
  Simulator a{5}, b{5};
  Rng ra{a.rng_seed(9)}, rb{b.rng_seed(9)};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ra.next(100), rb.next(100));
}

}  // namespace
}  // namespace hermes::sim
