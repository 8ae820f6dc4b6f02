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
    // nearly now): merge into the sorted due run.
    const auto it = std::upper_bound(due_.begin() + static_cast<std::ptrdiff_t>(due_head_),
                                     due_.end(), ev, Earlier{});
    if (TimerSlot* ts = live_slot(ev)) ts->where = TimerSlot::kInDue;
    // hermeslint:reserve-audited(due_ keeps its high-water capacity across laps; the sorted insert shifts records but reallocates only until the run's working-set peak)
    due_.insert(it, std::move(ev));
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

// HERMES_HOT: O(1) removal for timer cancel (and purge_cancelled).
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

// HERMES_HOT: every ACK that re-arms an RTO cancels the previous timer.
void EventQueue::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  if (slot >= slots_.size() || slots_[slot].gen != gen) return;  // already fired/cancelled
  // Physically remove wheel-bucket records (swap-remove: bucket order is
  // irrelevant, every bucket is (time, seq)-sorted when it drains). The
  // due run and overflow list are sorted, so their records are bumped
  // lazily instead and reclaimed when the cursor reaches them.
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

// HERMES_HOT: bucket hand-off into the due run; its blocks return to the pool.
void EventQueue::drain_to_due(Bucket& bucket) {
  l0_count_ -= bucket.size;
  if (due_head_ == due_.size()) {
    due_.clear();
    due_head_ = 0;
  }
  const auto base = static_cast<std::ptrdiff_t>(due_.size());
  take_all(bucket, [this](Event& ev) {
    if (TimerSlot* ts = live_slot(ev)) ts->where = TimerSlot::kInDue;
    // hermeslint:reserve-audited(due_ retains high-water capacity; the clear and head reset above reuse it without shrinking)
    due_.push_back(std::move(ev));
  });
  // A bucket spans 256ns of simulated time, so it can hold events at
  // different instants; restore the (time, seq) total order. When the
  // due run already had entries (same-instant inserts made during the
  // cascade), sort the whole run rather than merging. Events are pushed
  // in seq order and near-future schedules are issued in rising time
  // order, so the run is usually already sorted — check before paying
  // for a sort that would move 112-byte records around.
  auto first = due_.begin() + (due_head_ < static_cast<std::size_t>(base)
                                   ? static_cast<std::ptrdiff_t>(due_head_)
                                   : base);
  if (!std::is_sorted(first, due_.end(), Earlier{})) std::sort(first, due_.end(), Earlier{});
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
    if (due_head_ < due_.size()) return;
  }
}

// HERMES_HOT: called before every event pop.
bool EventQueue::peek_due() {
  while (due_head_ == due_.size()) {
    due_.clear();
    due_head_ = 0;
    if (l0_count_ == 0 && l1_count_ == 0 && overflow_head_ == overflow_.size()) return false;
    advance();
  }
  return true;
}

std::size_t EventQueue::stored_events() const {
  return (due_.size() - due_head_) + l0_count_ + l1_count_ + (overflow_.size() - overflow_head_);
}

std::size_t EventQueue::reserved_events() const {
  return blocks_.capacity() * kBlockEvents + due_.capacity() + overflow_.capacity();
}

void EventQueue::purge_cancelled() {
  const auto stale = [this](const Event& ev) {
    return ev.slot != kNoSlot && slots_[ev.slot].gen != ev.gen;
  };
  due_.erase(std::remove_if(due_.begin() + static_cast<std::ptrdiff_t>(due_head_), due_.end(),
                            stale),
             due_.end());
  // Swap-remove keeps every live timer's position hint current, so a
  // bucket is compacted with the same primitive cancel uses. A removal
  // moves the last record into the hole, which is then checked again.
  const auto purge = [&](Bucket& b, std::size_t& count) {
    ArenaHandle h = b.head;
    std::uint32_t i = 0;
    for (std::uint32_t k = 0; k < b.size;) {
      if (stale(blocks_[h].ev[i])) {
        remove_at(b, h, i);
        --count;
        continue;
      }
      ++k;
      if (++i == kBlockEvents) {
        i = 0;
        h = blocks_[h].next;
      }
    }
  };
  for (Bucket& b : l0_) purge(b, l0_count_);
  for (Bucket& b : l1_) purge(b, l1_count_);
  overflow_.erase(
      std::remove_if(overflow_.begin() + static_cast<std::ptrdiff_t>(overflow_head_),
                     overflow_.end(), stale),
      overflow_.end());
}

// HERMES_HOT: the event dispatch loop body.
bool EventQueue::run_one() {
  for (;;) {
    if (!peek_due()) return false;
    Event ev = std::move(due_[due_head_++]);
    if (ev.slot != kNoSlot && !consume_slot(ev)) continue;  // cancelled, reclaim silently
    assert(live_ > 0);
    --live_;
    now_ = ev.time;
    ++processed_;
    ev.cb();
    return true;
  }
}

// HERMES_HOT: bounded-run dispatch loop (the bench inner loop).
void EventQueue::run_until(SimTime t) {
  stopped_ = false;
  while (!stopped_) {
    if (!peek_due()) break;
    // due_ front is the global minimum, so one comparison bounds the run.
    if (due_[due_head_].time > t) break;
    Event ev = std::move(due_[due_head_++]);
    if (ev.slot != kNoSlot && !consume_slot(ev)) continue;
    assert(live_ > 0);
    --live_;
    now_ = ev.time;
    ++processed_;
    ev.cb();
  }
  if (!stopped_ && now_ < t) now_ = t;
}

void EventQueue::run_until_before(SimTime h) {
  stopped_ = false;
  while (!stopped_) {
    if (!peek_due()) break;
    if (due_[due_head_].time >= h) break;
    Event ev = std::move(due_[due_head_++]);
    if (ev.slot != kNoSlot && !consume_slot(ev)) continue;
    assert(live_ > 0);
    --live_;
    now_ = ev.time;
    ++processed_;
    ev.cb();
  }
  if (!stopped_ && now_ < h) now_ = h;
}

SimTime EventQueue::next_event_time() {
  if (!peek_due()) return SimTime::max();
  return due_[due_head_].time;
}

void EventQueue::run() {
  stopped_ = false;
  while (!stopped_ && run_one()) {
  }
}

}  // namespace hermes::sim
