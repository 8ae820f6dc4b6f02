#include "hermes/sim/event_queue.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hermes::sim {
namespace {

/// One bit per nanosecond of a level-0 bucket.
using SlotBitmap = std::array<std::uint64_t, 4>;

/// Call `f(slot)` for each set bit of `occupied`, lowest (oldest
/// nanosecond) first.
template <typename F>
void for_each_slot(const SlotBitmap& occupied, F&& f) {
  for (std::uint32_t w = 0; w < occupied.size(); ++w) {
    for (std::uint64_t bits = occupied[w]; bits != 0; bits &= bits - 1) {
      f(w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits)));
    }
  }
}

}  // namespace

// HERMES_HOT: one call per scheduled event; the bucket push must stay O(1)
// and allocation-free in steady state.
void EventQueue::place(const Event& ev) {
  const std::int64_t i0 = ev.time.ns() >> kL0Shift;
  if (i0 <= cur_) {
    // The wheel already drained past this bucket (the event is due now or
    // nearly now): the record joins the side run.
    push_side(ev);
    return;
  }
  const std::int64_t i1 = ev.time.ns() >> kL1Shift;
  const std::int64_t cur1 = cur_ >> kLevelBits;
  if (i1 == cur1) {
    // Level 0 holds only the cursor's level-1 span. A record for a later
    // span waits in level 1, so that span's cascade fills its level-0
    // buckets before any direct push can reach them.
    const auto b = static_cast<std::uint32_t>(i0 & kBucketMask);
    push(l0_[b], ev);
    ++l0_count_;
    return;
  }
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

// HERMES_HOT: a fifth to two fifths of a loaded fabric's schedules land in
// drained time.
// The record's seq is the highest stored, so it belongs behind every
// side-run record at its time or earlier: the walk from the newest end
// passes only records that fire after it, and nearly every insert passes
// none.
void EventQueue::push_side(const Event& ev) {
  if (side_size_ == side_.size()) grow_side();
  const std::size_t mask = side_.size() - 1;
  std::size_t at = side_head_ + side_size_;
  while (at != side_head_ && ev.time < side_[(at - 1) & mask].time) {
    side_[at & mask] = side_[(at - 1) & mask];
    --at;
  }
  side_[at & mask] = ev;
  ++side_size_;
}

// Doubles the side run's ring (a block's worth to start), unwrapped; its
// size tracks the run's peak depth.
void EventQueue::grow_side() {
  std::vector<Event> grown(side_.empty() ? kBlockEvents : 2 * side_.size());
  for (std::size_t i = 0; i < side_size_; ++i) {
    grown[i] = side_[(side_head_ + i) & (side_.size() - 1)];
  }
  side_.swap(grown);
  side_head_ = 0;
}

// HERMES_HOT: bucket walk (the drain's census, and take_all).
template <typename F>
void EventQueue::walk(const Bucket& b, F&& f) {
  ArenaHandle h = b.head;
  for (std::uint32_t left = b.size; left > 0;) {
    const Block& blk = blocks_[h];
    const ArenaHandle next = blk.next;
    const std::uint32_t n = left < kBlockEvents ? left : kBlockEvents;
    if (left > kBlockEvents) {
      // A long bucket's blocks lie apart in the pool, out of the hardware
      // prefetcher's reach: fetch the next block while this one drains.
      const auto* ahead = reinterpret_cast<const char*>(&blocks_[next]);
      for (std::size_t off = 0; off < sizeof(Block); off += 64) __builtin_prefetch(ahead + off);
    }
    f(h, blk.ev, n);
    left -= n;
    h = next;
  }
}

// HERMES_HOT: bucket hand-off (drain and level-1 cascade). `f` may push
// into other buckets; each block goes back to the pool only after its
// records have been handed over.
template <typename F>
void EventQueue::take_all(Bucket& b, F&& f) {
  walk(b, [this, &f](ArenaHandle h, const Event* ev, std::uint32_t n) {
    f(ev, n);
    blocks_.free(h);
  });
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
// the block pool. The run is empty here (advance() runs only when both
// runs are), and each record is written into it once.
void EventQueue::drain_to_due(Bucket& bucket) {
  assert(due_size_ == 0 && side_size_ == 0);
  const std::uint32_t n = bucket.size;
  l0_count_ -= n;
  if (due_.size() < n) {
    // hermeslint:reserve-audited(due_ keeps its high-water size across drains; it grows only to the largest bucket drained)
    due_.resize(n);
  }
  Event* const run = due_.data();
  due_size_ = n;
  // Within every instant a bucket's push order is seq order (see place()),
  // so reversed push order is newest first within each instant.
  if (n <= kBlockEvents) {
    // One block, copied reversed with an insertion by time alone: each
    // record passes toward the back only the records pushed before it
    // that fire later (at most 28 moves for 8 records).
    std::uint32_t to = n;
    take_all(bucket, [&](const Event* ev, std::uint32_t k) {
      for (std::uint32_t i = 0; i < k; ++i) {
        std::uint32_t at = --to;
        for (; at + 1 < n && ev[i].time < run[at + 1].time; ++at) run[at] = run[at + 1];
        run[at] = ev[i];
      }
    });
    return;
  }
  // Census: records per nanosecond of the bucket, and a bitmap of the
  // nanoseconds that hold any.
  static_assert(sizeof(SlotBitmap) * 8 == kSlots);
  SlotBitmap occupied{};
  walk(bucket, [&](ArenaHandle, const Event* ev, std::uint32_t k) {
    for (std::uint32_t i = 0; i < k; ++i) {
      const auto slot = static_cast<std::uint32_t>(ev[i].time.ns()) & kSlotMask;
      ++slot_count_[slot];
      occupied[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }
  });
  // Stable counting sort over the occupied slots only, the oldest
  // nanosecond at the back: slot_count_ becomes one past each slot's
  // range, and each record fills its range from the back, so later pushes
  // (higher seqs) sit nearer the front.
  std::uint32_t end = n;
  for_each_slot(occupied, [&](std::uint32_t slot) {
    const std::uint32_t count = slot_count_[slot];
    slot_count_[slot] = end;
    end -= count;
  });
  take_all(bucket, [&](const Event* ev, std::uint32_t k) {
    for (std::uint32_t i = 0; i < k; ++i) {
      run[--slot_count_[static_cast<std::uint32_t>(ev[i].time.ns()) & kSlotMask]] = ev[i];
    }
  });
  for_each_slot(occupied, [this](std::uint32_t slot) { slot_count_[slot] = 0; });
}

// HERMES_HOT: wheel cursor walk between non-empty buckets.
void EventQueue::advance() {
  for (;;) {
    if (l0_count_ > 0) {
      // Level 0 holds only the cursor's span, so a bucket past the cursor
      // and inside the span holds the next records.
      const std::int64_t span_end = ((cur_ >> kLevelBits) + 1) << kLevelBits;
      for (std::int64_t i = cur_ + 1; i < span_end; ++i) {
        Bucket& bucket = l0_[static_cast<std::size_t>(i & kBucketMask)];
        if (bucket.size != 0) {
          cur_ = i;
          drain_to_due(bucket);
          return;
        }
      }
    }
    assert(l0_count_ == 0);
    if (l1_count_ == 0) {
      // Only far-future overflow remains (peek() calls this only while
      // something is stored): fast-forward the cursor so the next span
      // entry brings the overflow head inside the level-1 window, instead
      // of walking every empty span up to it.
      assert(overflow_head_ < overflow_.size());
      const std::int64_t oi1 = overflow_[overflow_head_].time.ns() >> kL1Shift;
      const std::int64_t jump_cur1 = oi1 - (kNumBuckets - 1);
      if (jump_cur1 > (cur_ >> kLevelBits) + 1) cur_ = (jump_cur1 << kLevelBits) - 1;
    }
    // Enter the next level-1 bucket: pull newly-in-horizon overflow
    // events, then cascade the bucket's events down into level 0.
    cur_ = ((cur_ >> kLevelBits) + 1) << kLevelBits;
    const std::int64_t cur1 = cur_ >> kLevelBits;
    while (overflow_head_ < overflow_.size() &&
           (overflow_[overflow_head_].time.ns() >> kL1Shift) - cur1 < kNumBuckets) {
      // Migrated records land in level 1, past this span: the previous
      // entry took every nearer one.
      assert((overflow_[overflow_head_].time.ns() >> kL1Shift) > cur1);
      place(overflow_[overflow_head_++]);
    }
    if (overflow_head_ == overflow_.size() && !overflow_.empty()) {
      overflow_.clear();
      overflow_head_ = 0;
    }
    Bucket& b1 = l1_[static_cast<std::size_t>(cur1 & kBucketMask)];
    if (b1.size != 0) {
      // Every record belongs to a level-0 bucket of this span, the span's
      // first included, and lands in it before any direct push: the
      // buckets are empty, and place() has sent nothing of this span to
      // level 0 yet.
      l1_count_ -= b1.size;
      l0_count_ += b1.size;
      take_all(b1, [this](const Event* ev, std::uint32_t n) {
        for (std::uint32_t i = 0; i < n; ++i) {
          push(l0_[static_cast<std::size_t>((ev[i].time.ns() >> kL0Shift) & kBucketMask)], ev[i]);
        }
      });
    }
    Bucket& b0 = l0_[static_cast<std::size_t>(cur_ & kBucketMask)];
    if (b0.size != 0) drain_to_due(b0);
    if (due_size_ != 0) return;
  }
}

// HERMES_HOT: called before every event pop.
bool EventQueue::peek() {
  while (due_size_ == 0 && side_size_ == 0) {
    if (l0_count_ == 0 && l1_count_ == 0 && overflow_head_ == overflow_.size()) return false;
    advance();
  }
  return true;
}

std::size_t EventQueue::stored_events() const {
  return due_size_ + side_size_ + l0_count_ + l1_count_ + (overflow_.size() - overflow_head_);
}

std::size_t EventQueue::reserved_events() const {
  return blocks_.capacity() * kBlockEvents + due_.capacity() + side_.capacity() +
         overflow_.capacity();
}

// HERMES_HOT: the event dispatch loop (the bench inner loop).
void EventQueue::dispatch(SimTime last) {
  stopped_ = false;
  while (!stopped_) {
    if (!peek()) break;
    // The earlier head is the global minimum, so one comparison bounds
    // the run.
    const bool side = side_first();
    if (head(side).time > last) break;
    // Copied out before it runs: the callback may insert into the side run.
    const Event ev = head(side);
    pop(side);
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
  while (peek()) {
    const bool side = side_first();
    const Event& ev = head(side);
    if (ev.slot == kNoSlot || slots_[ev.slot].gen == ev.gen) return ev.time;
    if (ev.fn == &fire_closure) drop_closure(ev.arg);
    pop(side);
  }
  return SimTime::max();
}

void EventQueue::run() { dispatch(SimTime::max()); }

}  // namespace hermes::sim
