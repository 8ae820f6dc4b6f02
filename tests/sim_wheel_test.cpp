// Tests targeting the time-wheel internals of EventQueue through its
// public API: equal-time FIFO across bucket boundaries, cancellation
// surviving wheel rollover, far-future overflow handling, clock
// semantics of run_until across empty spans, randomized stress tests
// against sorted reference models (scheduling from outside and from
// inside callbacks), and wheel storage that follows live events.
//
// Wheel geometry (see event_queue.hpp): level-0 buckets are 256ns, the
// level-0 horizon is ~262us, the level-1 horizon is ~268ms, and
// anything beyond sits in the sorted overflow list. The times below are
// chosen to land in specific tiers.

#include <cstddef>
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "hermes/sim/event_queue.hpp"
#include "hermes/sim/time.hpp"

namespace hermes::sim {
namespace {

constexpr SimTime kL0Span = nsec(1 << 8);            // one level-0 bucket
constexpr SimTime kL0Horizon = nsec(1024LL << 8);    // one level-1 bucket
constexpr SimTime kL1Horizon = nsec(1024LL << 18);   // ~268ms

TEST(TimeWheel, EqualTimeFifoWithinAndAcrossBuckets) {
  EventQueue q;
  std::vector<int> fired;
  // Same instant, interleaved with neighbours in the same and in other
  // buckets; equal-time events must pop in scheduling order.
  const SimTime t = usec(100);
  q.post_at(t, [&] { fired.push_back(0); });
  q.post_at(t + kL0Span * 3, [&] { fired.push_back(10); });
  q.post_at(t, [&] { fired.push_back(1); });
  q.post_at(t - usec(50), [&] { fired.push_back(-1); });
  q.post_at(t, [&] { fired.push_back(2); });
  q.post_at(t + kL0Span * 3, [&] { fired.push_back(11); });
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{-1, 0, 1, 2, 10, 11}));
}

TEST(TimeWheel, SameBucketIndexDifferentLap) {
  EventQueue q;
  std::vector<int> fired;
  // Two events whose level-0 bucket indices are equal mod the wheel
  // size but a full lap apart: the wheel must not fire the far one on
  // the near one's drain.
  const SimTime near = usec(10);
  const SimTime far = near + kL0Horizon;  // same masked index, next lap
  q.post_at(far, [&] { fired.push_back(2); });
  q.post_at(near, [&] { fired.push_back(1); });
  ASSERT_TRUE(q.run_one());
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(q.now(), near);
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), far);
}

TEST(TimeWheel, FarFutureOverflowOrdering) {
  EventQueue q;
  std::vector<int> fired;
  // All three are beyond the ~268ms level-1 horizon at insert time and
  // arrive out of order; one more sits in the wheel proper.
  q.post_at(sec(100), [&] { fired.push_back(3); });
  q.post_at(sec(5), [&] { fired.push_back(1); });
  q.post_at(sec(10), [&] { fired.push_back(2); });
  q.post_at(msec(1), [&] { fired.push_back(0); });
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.now(), sec(100));
  EXPECT_EQ(q.events_processed(), 4u);
}

TEST(TimeWheel, CancellationSurvivesRollover) {
  EventQueue q;
  int fired = 0;
  // One timer in the level-1 range, one beyond the horizon (overflow).
  auto h1 = q.schedule_at(msec(100), [&] { ++fired; });
  auto h2 = q.schedule_at(sec(6), [&] { ++fired; });
  auto keep = q.schedule_at(sec(7), [&] { ++fired; });
  h1.cancel();
  h2.cancel();
  EXPECT_FALSE(h1.pending());
  EXPECT_FALSE(h2.pending());
  EXPECT_TRUE(keep.pending());
  // Rolling far past both cancelled times must fire only the keeper,
  // even though the wheel cursor laps level 0 thousands of times and
  // level 1 more than once.
  q.run_until(sec(8));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(keep.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now(), sec(8));
}

TEST(TimeWheel, SlotReuseDoesNotMisfireStaleHandles) {
  EventQueue q;
  std::vector<int> fired;
  auto a = q.schedule_at(usec(10), [&] { fired.push_back(1); });
  a.cancel();
  // b reuses a's pooled slot (it is the only free one). The stale
  // handle must stay inert against the new generation.
  auto b = q.schedule_at(usec(20), [&] { fired.push_back(2); });
  a.cancel();  // no-op: must not kill b
  EXPECT_TRUE(b.pending());
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{2}));
  // Cancelling after firing is a no-op too.
  b.cancel();
  EXPECT_EQ(q.events_processed(), 1u);
}

TEST(TimeWheel, RunUntilAdvancesClockAcrossEmptySpans) {
  EventQueue q;
  // Nothing scheduled: the clock still advances to the target.
  q.run_until(msec(5));
  EXPECT_EQ(q.now(), msec(5));
  int fired = 0;
  q.post_at(sec(6), [&] { ++fired; });  // overflow-range event
  // Target short of the event: no firing, clock lands exactly on the
  // target even though the wheel has to skip many empty level-1 spans.
  q.run_until(sec(5));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.now(), sec(5));
  q.run_until(sec(7));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), sec(7));
}

TEST(TimeWheel, EmptyIsConstAndCountsCancellations) {
  EventQueue q;
  const EventQueue& cq = q;
  EXPECT_TRUE(cq.empty());  // const observer, no purge needed
  std::vector<EventQueue::Handle> hs;
  hs.reserve(10);
  for (int i = 0; i < 10; ++i)
    hs.push_back(q.schedule_at(usec(10 + i), [] {}));
  for (int i = 0; i < 4; ++i) hs[static_cast<std::size_t>(i)].cancel();
  EXPECT_FALSE(q.empty());
  // Wheel-bucket records are removed eagerly on cancel (the slot table
  // tracks each live timer's bucket position); these events sit in
  // level-0 buckets, so the storage shrinks immediately.
  EXPECT_EQ(q.stored_events(), 6u);
  q.purge_cancelled();  // no-op here: nothing cancelled remains stored
  EXPECT_EQ(q.stored_events(), 6u);
  q.run();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.events_processed(), 6u);
  EXPECT_EQ(q.stored_events(), 0u);
}

// Randomized stress: interleaved scheduling phases, cancellations and
// partial drains across all three storage tiers, validated against a
// stable-sorted reference model. The wheel must fire exactly the
// non-cancelled events in (time, scheduling-order) sequence.
TEST(TimeWheel, StressMatchesReferenceModel) {
  std::mt19937 rng{20240807};
  EventQueue q;
  struct Ref {
    std::int64_t time_ns;
    int id;
    bool cancelled = false;
  };
  std::vector<Ref> ref;
  std::vector<EventQueue::Handle> handles;
  std::vector<int> fired;
  int next_id = 0;
  for (int phase = 0; phase < 12; ++phase) {
    const std::int64_t now_ns = q.now().ns();
    std::uniform_int_distribution<std::int64_t> dt{0, 8'000'000'000};  // up to 8s ahead
    std::vector<std::size_t> this_phase;
    for (int i = 0; i < 400; ++i) {
      const int id = next_id++;
      const std::int64_t t = now_ns + dt(rng) % (i % 7 == 0 ? 2'000 : 8'000'000'000);
      ref.push_back({t, id});
      this_phase.push_back(ref.size() - 1);
      if (i % 3 == 0) {
        handles.push_back(q.schedule_at(nsec(t), [&fired, id] { fired.push_back(id); }));
        this_phase.back() |= std::size_t{1} << 63;  // mark cancellable
      } else {
        q.post_at(nsec(t), [&fired, id] { fired.push_back(id); });
      }
    }
    // Cancel ~half of this phase's cancellable timers (none have fired:
    // all were scheduled at or after the current clock).
    std::size_t h = handles.size();
    for (auto it = this_phase.rbegin(); it != this_phase.rend(); ++it) {
      if ((*it >> 63) == 0) continue;
      --h;
      if (rng() % 2 == 0) {
        handles[h].cancel();
        ref[*it & ~(std::size_t{1} << 63)].cancelled = true;
      }
    }
    // Drain partway into the phase's window, leaving a live backlog.
    q.run_until(nsec(now_ns + static_cast<std::int64_t>(rng() % 4'000'000'000)));
  }
  q.run();
  EXPECT_TRUE(q.empty());
  // Reference order: stable sort by time (stability = scheduling order,
  // since ids were appended in scheduling order).
  std::vector<int> expected;
  std::vector<Ref> sorted = ref;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Ref& a, const Ref& b) { return a.time_ns < b.time_ns; });
  for (const Ref& r : sorted)
    if (!r.cancelled) expected.push_back(r.id);
  ASSERT_EQ(fired.size(), expected.size());
  EXPECT_EQ(fired, expected);
}

// Lock-step reference model for scheduling from inside callbacks:
// `pending` holds every armed, uncancelled timer as (time, id), ids in
// scheduling order, so its minimum is the timer the wheel must fire next.
struct RearmModel {
  EventQueue q;
  std::set<std::pair<std::int64_t, int>> pending;
  std::vector<EventQueue::Handle> handles;  // by id
  std::vector<std::int64_t> times;          // by id
  std::vector<int> fired;
  std::vector<int> expected;
  std::function<void(int)> on_fire;

  int arm(std::int64_t t_ns) {
    const int id = static_cast<int>(times.size());
    times.push_back(t_ns);
    pending.emplace(t_ns, id);
    handles.push_back(q.schedule_at(nsec(t_ns), [this, id] { fire(id); }));
    return id;
  }
  void cancel(int id) {
    handles[static_cast<std::size_t>(id)].cancel();
    pending.erase({times[static_cast<std::size_t>(id)], id});
  }
  void fire(int id) {
    expected.push_back(pending.empty() ? -1 : pending.begin()->second);
    if (!pending.empty()) pending.erase(pending.begin());
    fired.push_back(id);
    if (on_fire) on_fire(id);
  }
};

// The RTO re-arm pattern: every firing arms new timers and cancels
// others while the wheel is mid-drain, across all storage tiers. The
// scripted part cancels a bucket's last record, a non-last record, a
// drained record whose block the pool has since handed to another
// bucket, and a record in that recycled block.
TEST(TimeWheel, CallbackRearmAndCancelMatchReferenceModel) {
  RearmModel m;
  std::mt19937 rng{20261017};
  // Nine timers in one 256ns level-0 bucket: two pool blocks.
  constexpr std::int64_t kT = 100'000;
  std::vector<int> x;
  for (int i = 0; i < 9; ++i) x.push_back(m.arm(kT + i));
  m.cancel(x[8]);  // the bucket's last record, alone in the tail block
  m.cancel(x[2]);  // a non-last record: x[7] moves into its place
  int recycled = -1;
  int recycled_kept = -1;
  m.on_fire = [&](int id) {
    const std::int64_t now = m.q.now().ns();
    if (id == x[0]) {
      // Bucket kT has just drained into the due run and returned its
      // block; the pool is LIFO, so the next empty bucket opened gets it.
      recycled = m.arm(kT + 50'000);
      recycled_kept = m.arm(kT + 50'001);
      m.cancel(x[5]);      // drained: must not touch the block's new records
      m.cancel(recycled);  // non-last record of the recycled block
    }
    if (m.times.size() >= 20'000) return;
    // Re-arm 1-3 timers: same instant, same bucket, level 0, level 1,
    // or overflow; then cancel one armed timer at random.
    for (std::uint32_t n = 1 + rng() % 3; n > 0; --n) {
      const std::int64_t spans[] = {1, 256, 262'144, 268'435'456, 1'000'000'000};
      m.arm(now + static_cast<std::int64_t>(rng() % static_cast<std::uint32_t>(spans[rng() % 5])));
    }
    if (rng() % 2 == 0) m.cancel(static_cast<int>(rng() % m.times.size()));
  };
  m.q.run();
  ASSERT_GE(recycled_kept, 0);
  EXPECT_GT(m.fired.size(), 10'000u);
  EXPECT_EQ(m.fired, m.expected);
  EXPECT_TRUE(m.pending.empty());
  EXPECT_TRUE(m.q.empty());
  EXPECT_EQ(m.q.stored_events(), 0u);
  EXPECT_NE(std::find(m.fired.begin(), m.fired.end(), recycled_kept), m.fired.end());
  EXPECT_EQ(std::find(m.fired.begin(), m.fired.end(), recycled), m.fired.end());
}

// The probe-tick pattern: every 500us a tick drops a 512-event burst
// into one level-0 bucket, the next bucket each tick, so over 1024 ticks
// (~1950 laps of the 262us wheel) every bucket holds one burst. Storage
// must follow the live events: the burst's pool blocks (rounded up to
// whole 32-block chunks) plus the drained burst in the due run, a few
// times the peak — not a burst's worth retained by each of 1024 buckets.
TEST(TimeWheel, StorageBoundedByLiveEvents) {
  constexpr int kBurst = 512;
  constexpr int kTicks = 1024;
  constexpr std::int64_t kLap = 1024 * 256;
  struct Ticker {
    EventQueue q;
    int ticks = 0;
    std::size_t fired = 0;
    std::size_t peak = 0;
    void tick() {
      // First instant of level-0 bucket (ticks mod 1024) after now.
      const std::int64_t now = q.now().ns();
      std::int64_t t = now / kLap * kLap + (ticks % 1024) * 256;
      if (t <= now) t += kLap;
      for (int i = 0; i < kBurst; ++i) q.post_at(nsec(t), [this] { ++fired; });
      peak = std::max(peak, q.stored_events());
      if (++ticks < kTicks) q.post_in(usec(500), [this] { tick(); });
    }
  };
  Ticker k;
  k.q.post_at(SimTime::zero(), [&k] { k.tick(); });
  k.q.run();
  EXPECT_EQ(k.fired, static_cast<std::size_t>(kBurst) * kTicks);
  EXPECT_GE(k.peak, static_cast<std::size_t>(kBurst));
  EXPECT_LE(k.q.reserved_events(), 4 * k.peak);
}

}  // namespace
}  // namespace hermes::sim
