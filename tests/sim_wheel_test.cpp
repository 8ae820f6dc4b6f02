// Tests targeting the time-wheel internals of EventQueue through its
// public API: equal-time FIFO across bucket boundaries, cancellation
// surviving wheel rollover, far-future overflow handling, clock
// semantics of run_until across empty spans, randomized stress tests
// against sorted reference models (direct-form and closure events
// interleaved, scheduling from outside and from inside callbacks, and a
// lockstep due run hundreds deep cut by round horizons), a level-1
// cascade that fills a bucket before any direct push, beside side-run
// ties, lazy cancel of wheel records and of closures, and wheel storage
// that follows live events.
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
#include <iterator>
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
  q.run_until(near);
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

/// A direct-form event target: records the argument it is called with.
struct Log {
  std::vector<int> fired;
  void on(std::uint64_t id) { fired.push_back(static_cast<int>(id)); }
};

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
  // Cancel only bumps the timer slot's generation: the four records
  // stay stored until dispatch reaches and skips them.
  EXPECT_EQ(q.stored_events(), 10u);
  q.run();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.events_processed(), 6u);
  EXPECT_EQ(q.stored_events(), 0u);
}

// A level-1 cascade fills a bucket before any direct push: A is posted
// first, ~300us ahead in the next level-1 span, so it waits in level 1.
// B and C, posted at ~100us at A's instant and one nanosecond before it,
// are for A's span too, so they wait in level 1 behind A (M, due at
// 100us, holds the cursor in the first span: a run with nothing nearer
// would walk ahead and drain A's bucket). Were level 0 a sliding window,
// B and C would go straight to it and the cascade would land A behind
// them. The drain must fire C, A, B: exact (time, seq) order, not time
// order alone. C's callback then posts D at A's instant into the side
// run, and arms and stops on E, a zero-delay timer at the side run's
// head. With E cancelled, next_event_time() must skip it, and D must
// lose its tie with A and B, whose lower seqs sit in the due run. Run
// once with the bucket in one pool block and once with eight more
// records after A's instant, which take the counting sort.
TEST(TimeWheel, CascadeDrainOrderAndSideRunTies) {
  for (const int extra : {0, 8}) {
    SCOPED_TRACE(extra);
    EventQueue q;
    Log log;
    const SimTime t = usec(300);
    q.post_at<&Log::on>(t, &log, 1);          // A: beyond the level-0 horizon
    q.post_at<&Log::on>(usec(100), &log, 6);  // M
    q.run_until_before(usec(100));
    q.post_at<&Log::on>(t, &log, 2);  // B
    EventQueue::Handle e;
    q.post_at(t - nsec(1), [&] {  // C
      log.fired.push_back(3);
      e = q.schedule_at<&Log::on>(q.now(), &log, 5);  // E: side-run head
      q.post_at<&Log::on>(t, &log, 4);                // D: ties with A and B
      q.stop();
    });
    std::vector<int> expected{6, 3, 1, 2, 4};
    for (int i = 1; i <= extra; ++i) {
      q.post_at<&Log::on>(t + nsec(i), &log, static_cast<std::uint64_t>(9 + i));
      expected.push_back(9 + i);
    }
    q.run();
    EXPECT_EQ(log.fired, (std::vector<int>{6, 3}));
    EXPECT_TRUE(e.pending());
    e.cancel();
    EXPECT_EQ(q.next_event_time(), t);
    q.run();
    EXPECT_EQ(log.fired, expected);
    EXPECT_EQ(q.stored_events(), 0u);
  }
}

// Randomized stress: interleaved scheduling phases, cancellations and
// partial drains across all three storage tiers, validated against a
// stable-sorted reference model. Direct-form and closure events, posts
// and timers, interleave. The wheel must fire exactly the non-cancelled
// events in (time, scheduling-order) sequence.
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
  // Both forms write one log, so it holds the single firing order.
  Log direct;
  std::vector<int>& fired = direct.fired;
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
      // Posts and timers, each in the direct form or as a closure.
      const auto uid = static_cast<std::uint64_t>(id);
      if (i % 3 == 0) {
        handles.push_back(i % 2 == 0
                              ? q.schedule_at(nsec(t), [&fired, id] { fired.push_back(id); })
                              : q.schedule_at<&Log::on>(nsec(t), &direct, uid));
        this_phase.back() |= std::size_t{1} << 63;  // mark cancellable
      } else if (i % 2 == 0) {
        q.post_at(nsec(t), [&fired, id] { fired.push_back(id); });
      } else {
        q.post_at<&Log::on>(nsec(t), &direct, uid);
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

// Cancel leaves a wheel record stored until dispatch reaches it. The
// sharded executor builds its horizons from next_event_time(), which
// reclaims such records ahead of the next live event and reports that
// event's time, and a round cut there fires nothing extra.
TEST(TimeWheel, CancelledWheelRecordKeepsHorizonsConservative) {
  EventQueue q;
  Log log;
  auto near = q.schedule_at<&Log::on>(usec(10), &log, 1);  // level 0
  q.post_at<&Log::on>(usec(50), &log, 2);
  auto far = q.schedule_at<&Log::on>(msec(5), &log, 3);  // level 1
  q.post_at<&Log::on>(msec(6), &log, 4);
  near.cancel();
  far.cancel();
  EXPECT_EQ(q.stored_events(), 4u);
  EXPECT_EQ(q.next_event_time(), usec(50));
  EXPECT_EQ(q.stored_events(), 3u);  // the cancelled level-0 record is gone
  q.run_until_before(usec(50));
  EXPECT_TRUE(log.fired.empty());
  EXPECT_EQ(q.now(), usec(50));
  EXPECT_EQ(q.next_event_time(), usec(50));
  q.run_until_before(usec(51));
  EXPECT_EQ(log.fired, (std::vector<int>{2}));
  EXPECT_EQ(q.next_event_time(), msec(6));
  q.run_until_before(msec(6));
  EXPECT_EQ(log.fired, (std::vector<int>{2}));
  EXPECT_EQ(q.next_event_time(), msec(6));
  q.run();
  EXPECT_EQ(log.fired, (std::vector<int>{2, 4}));
  EXPECT_EQ(q.events_processed(), 2u);
  EXPECT_EQ(q.stored_events(), 0u);
}

// A cancelled closure timer keeps its capture until dispatch reaches
// the stale record: then the capture is destroyed and the closure's
// arena slot is released for reuse.
TEST(TimeWheel, CancelledClosureIsDestroyedWhenDispatchReclaimsIt) {
  struct Counted {
    int* destroyed;
    explicit Counted(int* d) : destroyed{d} {}
    Counted(Counted&& o) noexcept : destroyed{std::exchange(o.destroyed, nullptr)} {}
    Counted(const Counted&) = delete;
    Counted& operator=(const Counted&) = delete;
    Counted& operator=(Counted&&) = delete;
    ~Counted() {
      if (destroyed != nullptr) ++*destroyed;
    }
  };
  constexpr int kTimers = 300;  // more than one arena chunk
  EventQueue q;
  EXPECT_EQ(q.reserved_closures(), 0u);
  int destroyed = 0;
  int fired = 0;
  std::vector<EventQueue::Handle> hs;
  for (int i = 0; i < kTimers; ++i) {
    hs.push_back(q.schedule_at(usec(10), [c = Counted{&destroyed}, &fired] { ++fired; }));
  }
  const std::size_t reserved = q.reserved_closures();
  EXPECT_GE(reserved, static_cast<std::size_t>(kTimers));
  for (auto& h : hs) h.cancel();
  EXPECT_EQ(destroyed, 0);  // not at cancel
  q.run_until(usec(20));
  EXPECT_EQ(destroyed, kTimers);
  EXPECT_EQ(fired, 0);
  // The reclaimed slots serve the next closures: the arena does not grow.
  for (int i = 0; i < kTimers; ++i) {
    q.post_at(usec(30), [c = Counted{&destroyed}, &fired] { ++fired; });
  }
  EXPECT_EQ(q.reserved_closures(), reserved);
  q.run();
  EXPECT_EQ(fired, kTimers);
  EXPECT_EQ(destroyed, 2 * kTimers);
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

// The lockstep pattern of a loaded shard: 256 timers fire together and
// each re-arms at +0 (a zero-delay hand-off), +51ns (a 64 B frame at
// 10G) or +1..255ns, so most arms land in the drained bucket's due run,
// hundreds deep and full of equal-time ties. Callbacks also cancel
// timers that sit in the due run. The sharded executor's round
// primitive drives the queue: run_until_before in 2us horizons, which
// cut buckets mid-run, with next_event_time() checked between rounds.
TEST(TimeWheel, LockstepDueRunMatchesReferenceModel) {
  RearmModel m;
  std::mt19937 rng{20261019};
  constexpr int kTimers = 256;
  constexpr std::size_t kArms = 150'000;
  constexpr std::int64_t kT0 = 1'000'000;
  for (int i = 0; i < kTimers; ++i) m.arm(kT0);
  std::size_t peak = 0;
  int due_cancels = 0;
  m.on_fire = [&](int) {
    const std::int64_t now = m.q.now().ns();
    if (m.times.size() < kArms) {
      const std::int64_t steps[] = {0, 51, 1 + static_cast<std::int64_t>(rng() % 255)};
      m.arm(now + steps[rng() % 3]);
      // About one firing in four cancels one of the 64 earliest pending
      // timers when it sits in the drained bucket, so in the due run, and
      // arms a replacement.
      auto it = std::next(m.pending.begin(),
                          static_cast<std::ptrdiff_t>(rng() % std::min<std::size_t>(
                                                          m.pending.size(), 64)));
      if (rng() % 4 == 0 && (it->first >> 8) == (now >> 8)) {
        m.cancel(it->second);
        m.arm(now + 51);
        ++due_cancels;
      }
    }
    peak = std::max(peak, m.q.stored_events());
  };
  std::int64_t horizon = kT0;
  int rounds = 0;
  while (m.q.next_event_time() != SimTime::max()) {
    horizon += 2'000;
    m.q.run_until_before(nsec(horizon));
    ++rounds;
    // Nothing before the horizon is left, and the reported time is the
    // model's next timer: cancelled records ahead of it are skipped.
    const SimTime next = m.q.next_event_time();
    const std::int64_t model_next =
        m.pending.empty() ? SimTime::max().ns() : m.pending.begin()->first;
    ASSERT_GE(next.ns(), horizon);
    ASSERT_EQ(next.ns(), model_next);
  }
  EXPECT_GT(rounds, 10);
  EXPECT_GT(due_cancels, 10'000);
  EXPECT_GE(peak, static_cast<std::size_t>(kTimers));
  EXPECT_GT(m.fired.size(), 100'000u);
  EXPECT_EQ(m.fired, m.expected);
  EXPECT_TRUE(m.pending.empty());
  EXPECT_TRUE(m.q.empty());
  EXPECT_EQ(m.q.stored_events(), 0u);
  EXPECT_LE(m.q.reserved_events(), 4 * peak);
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
