#include "hermes/sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hermes::sim {

// HERMES_HOT: one call per scheduled event; the bucket push must stay O(1)
// and allocation-free in steady state.
void EventQueue::place(const Event& ev) {
  const std::int64_t i0 = ev.time.ns() >> kL0Shift;
  if (i0 <= cur_) {
    // The wheel already drained past this bucket (the event is due now or
    // nearly now): merge the record into the newest-first due run, in
    // front of every record that fires before it.
    // hermeslint:reserve-audited(due_ keeps its high-water capacity across laps; the sorted insert shifts 48-byte records but reallocates only until the run's working-set peak)
    due_.insert(std::upper_bound(due_.begin(), due_.end(), ev, Later{}), ev);
    return;
  }
  if (i0 - cur_ <= kNumBuckets) {
    const auto b = static_cast<std::uint32_t>(i0 & kBucketMask);
    push(l0_[b], ev);
    ++l0_count_;
    return;
  }
  const std::int64_t i1 = ev.time.ns() >> kL1Shift;
  const std::int64_t cur1 = cur_ >> kLevelBits;
  if (i1 - cur1 < kNumBuckets) {
    const auto b = static_cast<std::uint32_t>(i1 & kBucketMask);
    push(l1_[b], ev);
    ++l1_count_;
    return;
  }
  // Beyond the level-1 horizon (~268ms ahead): sorted overflow list.
  // Workload generators emit flow arrivals in time order, so the common
  // insert is an O(1) append at the back.
  const auto it = std::upper_bound(overflow_.begin() + static_cast<std::ptrdiff_t>(overflow_head_),
                                   overflow_.end(), ev, Earlier{});
  // hermeslint:reserve-audited(overflow is the >268ms cold tail — flow-arrival preloading, not the per-packet path; appends are O(1) at the back)
  overflow_.insert(it, ev);
}

// HERMES_HOT: append to a bucket's tail block, opening a new block from
// the pool when the tail is full.
void EventQueue::push(Bucket& b, const Event& ev) {
  const std::uint32_t index = b.size & kBlockMask;
  if (index == 0) {
    // hermeslint:reserve-audited(the block pool grows by one chunk only when its LIFO free list is empty, i.e. to the peak number of stored events; drained blocks return to the free list)
    const ArenaHandle fresh = blocks_.alloc();
    if (b.tail) {
      blocks_[b.tail].next = fresh;
    } else {
      b.head = fresh;
    }
    b.tail = fresh;
  }
  blocks_[b.tail].ev[index] = ev;
  ++b.size;
}

// HERMES_HOT: bucket hand-off (drain and level-1 cascade). `f` may push
// into other buckets; each block goes back to the pool only after its
// records have been handed over.
template <typename F>
void EventQueue::take_all(Bucket& b, F&& f) {
  ArenaHandle h = b.head;
  for (std::uint32_t left = b.size; left > 0;) {
    Block& blk = blocks_[h];
    const std::uint32_t n = left < kBlockEvents ? left : kBlockEvents;
    if (left > kBlockEvents) {
      // A long bucket's blocks lie apart in the pool, out of the hardware
      // prefetcher's reach: fetch the next block while this one drains.
      const auto* ahead = reinterpret_cast<const char*>(&blocks_[blk.next]);
      for (std::size_t off = 0; off < sizeof(Block); off += 64) __builtin_prefetch(ahead + off);
    }
    f(blk.ev, n);
    left -= n;
    const ArenaHandle next = blk.next;
    blocks_.free(h);
    h = next;
  }
  b = Bucket{};
}

// HERMES_HOT: the fire-and-forget fast path (one call per packet hop).
void EventQueue::post(SimTime t, Fn fn, void* obj, std::uint64_t arg) {
  assert(t >= now_ && "cannot schedule into the past");
  ++live_;
  place(Event{t < now_ ? now_ : t, next_seq_++, fn, obj, arg, kNoSlot, 0});
}

// HERMES_HOT: timer arm path (RTOs, pacing) — pooled slots, no shared_ptr.
EventQueue::Handle EventQueue::schedule(SimTime t, Fn fn, void* obj, std::uint64_t arg) {
  assert(t >= now_ && "cannot schedule into the past");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    // hermeslint:reserve-audited(slot pool grows to the high-water mark of concurrent timers once, then the free-list recycles)
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint32_t gen = slots_[slot].gen;
  ++live_;
  place(Event{t < now_ ? now_ : t, next_seq_++, fn, obj, arg, slot, gen});
  return Handle{this, slot, gen};
}

void EventQueue::post_at(SimTime t, Callback cb) { post(t, &fire_closure, this, stash(std::move(cb))); }

EventQueue::Handle EventQueue::schedule_at(SimTime t, Callback cb) {
  return schedule(t, &fire_closure, this, stash(std::move(cb)));
}

std::uint64_t EventQueue::stash(Callback&& cb) {
  const ArenaHandle h = closures_.alloc(std::move(cb));
  return std::uint64_t{h.slot()} << 32 | h.gen();
}

ArenaHandle EventQueue::closure_of(std::uint64_t arg) {
  return ArenaHandle{static_cast<std::uint32_t>(arg >> 32), static_cast<std::uint32_t>(arg)};
}

void EventQueue::drop_closure(std::uint64_t arg) {
  closures_[closure_of(arg)].reset();
  closures_.free(closure_of(arg));
}

void EventQueue::fire_closure(void* queue, std::uint64_t arg) {
  auto& q = *static_cast<EventQueue*>(queue);
  // Called in place: the arena never relocates a slot, and this one is
  // released only after the closure returns, so closures it schedules
  // cannot reuse it.
  q.closures_[closure_of(arg)]();
  q.drop_closure(arg);
}

// HERMES_HOT: a flow's completion cancels its RTO timer; a fat-tree
// inbox re-arm cancels the previous inbox timer.
void EventQueue::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  if (slot >= slots_.size() || slots_[slot].gen != gen) return;  // already fired/cancelled
  // The record stays where it is stored; dispatch skips it as stale.
  ++slots_[slot].gen;  // invalidates the stored event record and all handle copies
  // hermeslint:reserve-audited(free-list capacity is bounded by slots_.size(), which the pool already paid for)
  free_slots_.push_back(slot);
  assert(live_ > 0);
  --live_;
}

// HERMES_HOT: runs once per fired timer event.
bool EventQueue::consume_slot(const Event& ev) {
  if (slots_[ev.slot].gen != ev.gen) return false;  // cancelled: stale record
  ++slots_[ev.slot].gen;  // fired: handles turn inert, slot returns to the pool
  // hermeslint:reserve-audited(free-list capacity is bounded by slots_.size(), which the pool already paid for)
  free_slots_.push_back(ev.slot);
  return true;
}

// HERMES_HOT: bucket hand-off into the due run; its blocks return to
// the block pool.
void EventQueue::drain_to_due(Bucket& bucket) {
  l0_count_ -= bucket.size;
  const auto base = static_cast<std::ptrdiff_t>(due_.size());
  take_all(bucket, [this](const Event* ev, std::uint32_t n) {
    // hermeslint:reserve-audited(due_ retains high-water capacity; popping records at dispatch never shrinks it)
    due_.insert(due_.end(), ev, ev + n);
  });
  // Records arrive in push order, rising seq: reversed, they are newest
  // first when the bucket filled in time order. A bucket spans 256ns of
  // simulated time, so it can hold events at different instants, and
  // the run may already hold records (same-instant inserts made during
  // the cascade): sort the whole run when it is out of order, as 90% of
  // a loaded fat-tree's drains are.
  std::reverse(due_.begin() + base, due_.end());
  if (!std::is_sorted(due_.begin(), due_.end(), Later{})) {
    std::sort(due_.begin(), due_.end(), Later{});
  }
}

// HERMES_HOT: wheel cursor walk between non-empty buckets.
void EventQueue::advance() {
  for (;;) {
    // First bucket index of the next level-1 span.
    const std::int64_t span_end = ((cur_ >> kLevelBits) + 1) << kLevelBits;
    if (l0_count_ > 0) {
      for (std::int64_t i = cur_ + 1; i < span_end; ++i) {
        Bucket& bucket = l0_[static_cast<std::size_t>(i & kBucketMask)];
        if (bucket.size != 0) {
          cur_ = i;
          drain_to_due(bucket);
          return;
        }
      }
    }
    if (l0_count_ == 0 && l1_count_ == 0) {
      if (overflow_head_ == overflow_.size()) {
        cur_ = span_end - 1;
        return;  // nothing stored anywhere; caller observes due_ unchanged
      }
      // Only far-future overflow remains: fast-forward the cursor so the
      // next span entry brings the overflow head inside the level-1
      // window, instead of walking every empty span up to it.
      const std::int64_t oi1 = overflow_[overflow_head_].time.ns() >> kL1Shift;
      const std::int64_t jump_cur1 = oi1 - (kNumBuckets - 1);
      if (jump_cur1 > (cur_ >> kLevelBits) + 1) cur_ = (jump_cur1 << kLevelBits) - 1;
    }
    // Enter the next level-1 bucket: pull newly-in-horizon overflow
    // events, then cascade the bucket's events down into level 0 / due.
    cur_ = ((cur_ >> kLevelBits) + 1) << kLevelBits;
    const std::int64_t cur1 = cur_ >> kLevelBits;
    while (overflow_head_ < overflow_.size() &&
           (overflow_[overflow_head_].time.ns() >> kL1Shift) - cur1 < kNumBuckets) {
      place(overflow_[overflow_head_++]);
    }
    if (overflow_head_ == overflow_.size() && !overflow_.empty()) {
      overflow_.clear();
      overflow_head_ = 0;
    }
    Bucket& b1 = l1_[static_cast<std::size_t>(cur1 & kBucketMask)];
    if (b1.size != 0) {
      l1_count_ -= b1.size;
      take_all(b1, [this](const Event* ev, std::uint32_t n) {
        for (std::uint32_t i = 0; i < n; ++i) place(ev[i]);  // all land in level 0 or due_
      });
    }
    Bucket& b0 = l0_[static_cast<std::size_t>(cur_ & kBucketMask)];
    if (b0.size != 0) drain_to_due(b0);
    if (!due_.empty()) return;
  }
}

// HERMES_HOT: called before every event pop.
bool EventQueue::peek_due() {
  while (due_.empty()) {
    if (l0_count_ == 0 && l1_count_ == 0 && overflow_head_ == overflow_.size()) return false;
    advance();
  }
  return true;
}

std::size_t EventQueue::stored_events() const {
  return due_.size() + l0_count_ + l1_count_ + (overflow_.size() - overflow_head_);
}

std::size_t EventQueue::reserved_events() const {
  return blocks_.capacity() * kBlockEvents + due_.capacity() + overflow_.capacity();
}

// HERMES_HOT: the event dispatch loop (the bench inner loop).
void EventQueue::dispatch(SimTime last) {
  stopped_ = false;
  while (!stopped_) {
    if (!peek_due()) break;
    // due_.back() is the global minimum, so one comparison bounds the run.
    if (due_.back().time > last) break;
    // Copied out before it runs: the callback may insert into the run.
    const Event ev = due_.back();
    due_.pop_back();
    if (ev.slot != kNoSlot && !consume_slot(ev)) {  // cancelled: reclaim silently
      if (ev.fn == &fire_closure) drop_closure(ev.arg);
      continue;
    }
    assert(live_ > 0);
    --live_;
    now_ = ev.time;
    ++processed_;
    ev.fn(ev.obj, ev.arg);
  }
}

void EventQueue::run_until(SimTime t) {
  dispatch(t);
  if (!stopped_ && now_ < t) now_ = t;
}

void EventQueue::run_until_before(SimTime h) {
  dispatch(h - SimTime::nanoseconds(1));
  if (!stopped_ && now_ < h) now_ = h;
}

SimTime EventQueue::next_event_time() {
  // Reclaim cancelled records at the head of the run first, as dispatch
  // would, so the sharded horizons see only live events.
  while (peek_due()) {
    const Event& ev = due_.back();
    if (ev.slot == kNoSlot || slots_[ev.slot].gen == ev.gen) return ev.time;
    if (ev.fn == &fire_closure) drop_closure(ev.arg);
    due_.pop_back();
  }
  return SimTime::max();
}

void EventQueue::run() { dispatch(SimTime::max()); }

}  // namespace hermes::sim
