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
void EventQueue::place(Event&& ev) {
  const std::int64_t i0 = ev.time.ns() >> kL0Shift;
  if (i0 <= cur_) {
    // The wheel already drained past this bucket (the event is due now or
    // nearly now): merge its key into the newest-first due run, in front
    // of every key that fires before it.
    if (TimerSlot* ts = live_slot(ev)) ts->where = TimerSlot::kInDue;
    Key key{ev.time, ev.seq};
    key.rec = to_pool(std::move(ev));
    // hermeslint:reserve-audited(due_ keeps its high-water capacity across laps; the sorted insert shifts 24-byte keys but reallocates only until the run's working-set peak)
    due_.insert(std::upper_bound(due_.begin(), due_.end(), key, Later{}), key);
    return;
  }
  if (i0 - cur_ <= kNumBuckets) {
    const auto b = static_cast<std::uint32_t>(i0 & kBucketMask);
    push(l0_[b], TimerSlot::kInL0, b, std::move(ev));
    ++l0_count_;
    return;
  }
  const std::int64_t i1 = ev.time.ns() >> kL1Shift;
  const std::int64_t cur1 = cur_ >> kLevelBits;
  if (i1 - cur1 < kNumBuckets) {
    const auto b = static_cast<std::uint32_t>(i1 & kBucketMask);
    push(l1_[b], TimerSlot::kInL1, b, std::move(ev));
    ++l1_count_;
    return;
  }
  // Beyond the level-1 horizon (~268ms ahead): sorted overflow list.
  // Workload generators emit flow arrivals in time order, so the common
  // insert is an O(1) append at the back.
  const auto it = std::upper_bound(overflow_.begin() + static_cast<std::ptrdiff_t>(overflow_head_),
                                   overflow_.end(), ev, Earlier{});
  if (TimerSlot* ts = live_slot(ev)) ts->where = TimerSlot::kInOverflow;
  // hermeslint:reserve-audited(overflow is the >268ms cold tail — flow-arrival preloading, not the per-packet path; appends are O(1) at the back)
  overflow_.insert(it, std::move(ev));
}

// HERMES_HOT: one call per record entering the due run.
std::uint32_t EventQueue::to_pool(Event&& ev) {
  if (due_free_.empty()) {
    // hermeslint:reserve-audited(the due pool grows only while its LIFO free list is empty, i.e. to the due run's peak; every fired record returns its index)
    due_pool_.push_back(std::move(ev));
    return static_cast<std::uint32_t>(due_pool_.size() - 1);
  }
  const std::uint32_t rec = due_free_.back();
  due_free_.pop_back();
  due_pool_[rec] = std::move(ev);
  return rec;
}

// HERMES_HOT: append to a bucket's tail block, opening a new block from
// the pool when the tail is full.
void EventQueue::push(Bucket& b, std::uint8_t where, std::uint32_t bucket_index, Event&& ev) {
  const std::uint32_t index = b.size & kBlockMask;
  if (index == 0) {
    // hermeslint:reserve-audited(the block pool grows by one chunk only when its LIFO free list is empty, i.e. to the peak number of stored events; drained and emptied blocks return to the free list)
    const ArenaHandle fresh = blocks_.alloc();
    blocks_[fresh].prev = b.tail;
    if (b.tail) {
      blocks_[b.tail].next = fresh;
    } else {
      b.head = fresh;
    }
    b.tail = fresh;
  }
  // Record where a live timer event lands so cancel_slot can remove it.
  // Guarded on generation: a stale record being cascaded must not clobber
  // the location of the slot's current (re-armed) incarnation.
  if (TimerSlot* ts = live_slot(ev)) {
    ts->where = where;
    ts->bucket = bucket_index;
    ts->block = b.tail;
    ts->index = static_cast<std::uint8_t>(index);
  }
  blocks_[b.tail].ev[index] = std::move(ev);
  ++b.size;
}

// HERMES_HOT: O(1) removal for timer cancel.
void EventQueue::remove_at(Bucket& b, ArenaHandle block, std::uint32_t index) {
  Block& tail = blocks_[b.tail];
  Event& last = tail.ev[(b.size - 1) & kBlockMask];
  Event& victim = blocks_[block].ev[index];
  if (&victim != &last) {
    victim = std::move(last);
    // The swapped-in record changed position; keep its slot's hint live.
    if (TimerSlot* ts = live_slot(victim)) {
      ts->block = block;
      ts->index = static_cast<std::uint8_t>(index);
    }
  } else {
    victim.cb.reset();  // release the capture now, as destroying the record would
  }
  if ((--b.size & kBlockMask) == 0) {
    const ArenaHandle prev = tail.prev;
    blocks_.free(b.tail);
    b.tail = prev;
    if (!prev) b.head = ArenaHandle{};
  }
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
    for (std::uint32_t i = 0; i < n; ++i) f(blk.ev[i]);
    left -= n;
    const ArenaHandle next = blk.next;
    blocks_.free(h);
    h = next;
  }
  b = Bucket{};
}

// HERMES_HOT: the fire-and-forget fast path (one call per packet hop).
void EventQueue::post_at(SimTime t, Callback cb) {
  assert(t >= now_ && "cannot schedule into the past");
  ++live_;
  place(Event{t < now_ ? now_ : t, next_seq_++, kNoSlot, 0, std::move(cb)});
}

// HERMES_HOT: timer arm path (RTOs, pacing) — pooled slots, no shared_ptr.
EventQueue::Handle EventQueue::schedule_at(SimTime t, Callback cb) {
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
  place(Event{t < now_ ? now_ : t, next_seq_++, slot, gen, std::move(cb)});
  return Handle{this, slot, gen};
}

// HERMES_HOT: a flow's completion cancels its RTO timer; a fat-tree
// inbox re-arm cancels the previous inbox timer.
void EventQueue::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  if (slot >= slots_.size() || slots_[slot].gen != gen) return;  // already fired/cancelled
  // Physically remove wheel-bucket records (swap-remove: bucket order is
  // irrelevant, every bucket is (time, seq)-sorted when it drains). The
  // due run and overflow list are sorted, so their records are bumped
  // lazily instead and reclaimed when dispatch reaches them.
  const TimerSlot& loc = slots_[slot];
  if (loc.where == TimerSlot::kInL0 || loc.where == TimerSlot::kInL1) {
    Bucket& b = loc.where == TimerSlot::kInL0 ? l0_[loc.bucket] : l1_[loc.bucket];
    assert(blocks_[loc.block].ev[loc.index].slot == slot &&
           blocks_[loc.block].ev[loc.index].gen == gen && "timer-slot location out of sync");
    (loc.where == TimerSlot::kInL0 ? l0_count_ : l1_count_) -= 1;
    remove_at(b, loc.block, loc.index);
  }
  slots_[slot].where = TimerSlot::kNowhere;
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

// HERMES_HOT: bucket hand-off into the due run; its records move to the
// due pool and its blocks return to the block pool.
void EventQueue::drain_to_due(Bucket& bucket) {
  l0_count_ -= bucket.size;
  const auto base = static_cast<std::ptrdiff_t>(due_.size());
  take_all(bucket, [this](Event& ev) {
    if (TimerSlot* ts = live_slot(ev)) ts->where = TimerSlot::kInDue;
    Key key{ev.time, ev.seq};
    key.rec = to_pool(std::move(ev));
    // hermeslint:reserve-audited(due_ retains high-water capacity; popping keys at dispatch never shrinks it)
    due_.push_back(key);
  });
  // Records arrive in push order, rising seq: reversed, the keys are
  // newest first when the bucket filled in time order. A bucket spans
  // 256ns of simulated time, so it can hold events at different
  // instants, and the run may already hold keys (same-instant inserts
  // made during the cascade): sort the whole run's keys when it is out
  // of order, as 90% of a loaded fat-tree's drains are.
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
      place(std::move(overflow_[overflow_head_++]));
    }
    if (overflow_head_ == overflow_.size() && !overflow_.empty()) {
      overflow_.clear();
      overflow_head_ = 0;
    }
    Bucket& b1 = l1_[static_cast<std::size_t>(cur1 & kBucketMask)];
    if (b1.size != 0) {
      l1_count_ -= b1.size;
      take_all(b1, [this](Event& ev) { place(std::move(ev)); });  // all land in level 0 or due_
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
  return blocks_.capacity() * kBlockEvents + due_pool_.capacity() + overflow_.capacity();
}

// HERMES_HOT: the event dispatch loop (the bench inner loop).
void EventQueue::dispatch(SimTime last) {
  stopped_ = false;
  while (!stopped_) {
    if (!peek_due()) break;
    // due_.back() is the global minimum, so one comparison bounds the run.
    const Key next = due_.back();
    if (next.time > last) break;
    due_.pop_back();
    // Move the record out before its callback runs: the callback may grow
    // the pool, and the freed index is the next one reused.
    Event ev = std::move(due_pool_[next.rec]);
    // hermeslint:reserve-audited(free-list capacity is bounded by due_pool_.size(), which the pool already paid for)
    due_free_.push_back(next.rec);
    if (ev.slot != kNoSlot && !consume_slot(ev)) continue;  // cancelled, reclaim silently
    assert(live_ > 0);
    --live_;
    now_ = ev.time;
    ++processed_;
    ev.cb();
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
  if (!peek_due()) return SimTime::max();
  return due_.back().time;
}

void EventQueue::run() { dispatch(SimTime::max()); }

}  // namespace hermes::sim
