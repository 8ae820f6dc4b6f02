#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "hermes/sim/slot_arena.hpp"
#include "hermes/sim/time.hpp"

namespace hermes::sim {

/// Discrete-event scheduler. Events fire in nondecreasing time order;
/// equal-time events fire in the order they were scheduled (stable FIFO),
/// which keeps packet pipelines deterministic.
///
/// post_at is fire-and-forget (the packet hot path); schedule_at returns
/// a cancellable Handle (timers). Both take one form,
/// `post_at<&T::f>(t, obj, arg)`, and store a plain 48-byte record whose
/// `fn` is a trampoline calling `obj->f()` or `obj->f(arg)`, so `fn` is
/// also the event's kind.
///
/// Implementation: a two-level bucketed time wheel (calendar queue)
/// keyed on SimTime, with a sorted overflow list for the far future.
/// Steady state is allocation-free: records are trivially copyable (every
/// move is a memcpy, nothing is destroyed), and
/// cancellable-timer slots come from pooled free-lists with generation
/// counters instead of shared_ptr state. Wheel buckets own no storage of
/// their own: each is a chain of fixed 8-record blocks drawn from one
/// per-queue SlotArena with a LIFO free list, and a drained bucket hands
/// its blocks straight back. Wheel memory therefore follows the peak
/// number of stored events, not 2048 buckets times each bucket's own high
/// water: a periodic burst that drifts through every bucket (a Hermes
/// probe tick puts ~500 events in one) costs one burst's worth of blocks.
/// Blocks of 8 keep drains sequential; the chunked arena never relocates
/// a block, so a pool that grows costs no copies.
///
///   level 0:  1024 buckets x 256ns   -> the cursor's ~262us span
///   level 1:  1024 buckets x ~262us  -> horizon ~268ms
///   overflow: sorted vector (time, seq) beyond ~268ms
///
/// Level 0 holds only the cursor's level-1 span. A record for the next
/// span waits in level 1, and at span entry the cascade fills that span's
/// level-0 buckets before any direct push can reach them. Overflow
/// migration and cascades keep push order, so within every instant a
/// bucket's push order is seq order.
///
/// The due run: a drained level-0 bucket's records are written once
/// into one vector, newest first, so the next event is the back record.
/// The drain sorts with no comparison sort. A one-block bucket is copied
/// reversed and insertion-sorted by time alone (at most 28 moves). Any
/// other gets a stable counting sort on each record's nanosecond within
/// the bucket, which visits only the nanoseconds a bitmap marks occupied
/// (so its cost follows the record count) and scatters each record once.
/// Either way an instant's records sit in reverse push order, which is
/// newest first.
///
/// The side run: a schedule into time the wheel has already drained
/// never shifts the due run. It joins a small ring kept in (time, seq)
/// order, oldest first, and the next event is the earlier of the two
/// heads: the due run's on a time tie, since every side-run record was
/// scheduled after the drain and so holds the higher seq. Lockstep
/// traffic makes such schedules common: 64 B frames finish 51 ns apart
/// and sharded portals hand off with zero delay, so 40.8% of the 6.47M
/// placements of a k=16 fat-tree Hermes run (20% on a loaded leaf-spine;
/// seed 3) land in drained time. On the leaf-spine all but 0.2% of them
/// land behind the whole side run, an append; a fat-tree insert passes
/// about one later record. Wider buckets would send more schedules
/// there: with 4.096us buckets a loaded 10G fabric put ~70% of them into
/// the current one.
///
/// Cancel is lazy: it bumps the timer slot's generation, and the record
/// stays wherever it is stored until dispatch (or next_event_time())
/// reaches it and skips it.
///
/// The total order is always (time, seq): the drain and the side run
/// each keep it, so the wheel is observably identical to a binary heap
/// with a stable tiebreak — for a fixed seed, simulation output is
/// byte-equal.
class EventQueue {
 public:
  /// What an event record calls: a plain function of the object and the
  /// 64-bit argument it was scheduled with.
  using Fn = void (*)(void* obj, std::uint64_t arg);

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Handle to a cancellable event: a (slot, generation) pair into the
  /// queue's pooled timer-slot table. Default-constructed handles are
  /// inert; cancelling an already-fired event is a no-op. A Handle must
  /// not outlive its EventQueue (it holds a non-owning pointer).
  class Handle {
   public:
    Handle() = default;
    void cancel() {
      if (q_ != nullptr) {
        q_->cancel_slot(slot_, gen_);
        q_ = nullptr;
      }
    }
    [[nodiscard]] bool pending() const { return q_ != nullptr && q_->slot_pending(slot_, gen_); }

   private:
    friend class EventQueue;
    Handle(EventQueue* q, std::uint32_t slot, std::uint32_t gen)
        : q_{q}, slot_{slot}, gen_{gen} {}
    EventQueue* q_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
  };

  /// Fire-and-forget scheduling (fast path, no cancellation): at `t`,
  /// call `obj->*Method`, with `arg` when it takes one.
  template <auto Method, typename T>
  void post_at(SimTime t, T* obj, std::uint64_t arg = 0) {
    post(t, &call<Method, T>, obj, arg);
  }

  /// Cancellable scheduling (timers).
  template <auto Method, typename T>
  Handle schedule_at(SimTime t, T* obj, std::uint64_t arg = 0) {
    return schedule(t, &call<Method, T>, obj, arg);
  }

  [[nodiscard]] SimTime now() const { return now_; }
  /// True when no runnable (non-cancelled) events remain. Const: a
  /// cancelled event is discounted the moment its Handle is cancelled,
  /// so observing emptiness never mutates the queue (asserts are safe).
  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  /// Event records physically stored (including cancelled ones awaiting
  /// lazy reclamation) — a diagnostics/test observer.
  [[nodiscard]] std::size_t stored_events() const;
  /// Event records the queue can hold without allocating: the block
  /// pool's capacity plus the due run's, the side run's and the overflow
  /// list's. A diagnostics/test observer; it tracks the peak of
  /// stored_events().
  [[nodiscard]] std::size_t reserved_events() const;

  /// Run all events with time <= t, then advance the clock to t.
  void run_until(SimTime t);
  /// Run all events with time strictly < h, then advance the clock to h.
  /// The sharded executor's round primitive: events at exactly h stay
  /// pending, because boundary packets arriving at the horizon h may
  /// legally sort before them in a later round.
  void run_until_before(SimTime h);
  /// Time of the next live event, or SimTime::max() when none is
  /// stored. Cancelled records ahead of it are reclaimed first, so the
  /// sharded horizons built from it do not depend on where a cancelled
  /// record waits.
  [[nodiscard]] SimTime next_event_time();
  /// Run until the queue drains or stop() is called.
  void run();
  /// Stop a run()/run_until() loop after the current event returns.
  void stop() { stopped_ = true; }

 private:
  // Wheel geometry. Level-0 buckets span 2^kL0Shift ns; each level has
  // 2^kLevelBits buckets; level 1's bucket span equals level 0's range.
  static constexpr int kL0Shift = 8;
  static constexpr int kLevelBits = 10;
  static constexpr int kL1Shift = kL0Shift + kLevelBits;
  static constexpr std::int64_t kNumBuckets = std::int64_t{1} << kLevelBits;
  static constexpr std::int64_t kBucketMask = kNumBuckets - 1;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Events per pool block. One is too few: a drain would chase a
  /// pointer per event.
  static constexpr std::uint32_t kBlockEvents = 8;
  static constexpr std::uint32_t kBlockMask = kBlockEvents - 1;
  /// The drain's counting sort keys a record on its nanosecond within
  /// the level-0 bucket.
  static constexpr std::uint32_t kSlots = 1u << kL0Shift;
  static constexpr std::uint32_t kSlotMask = kSlots - 1;

  struct Event {
    SimTime time;
    std::uint64_t seq = 0;         ///< global FIFO tiebreak for equal times
    Fn fn = nullptr;
    void* obj = nullptr;
    std::uint64_t arg = 0;
    std::uint32_t slot = kNoSlot;  ///< timer-slot index, kNoSlot for posts
    std::uint32_t gen = 0;         ///< slot generation at scheduling time
  };
  static_assert(sizeof(Event) <= 48 && std::is_trivially_copyable_v<Event>,
                "buckets, the drain's scatter and the side run copy records; "
                "keep them small and memcpy-able");
  /// A pool block: a run of a bucket's records in push order, linked
  /// toward the bucket's tail. The tail's `next` is stale (walks stop by
  /// record count).
  struct Block {
    ArenaHandle next;
    Event ev[kBlockEvents];
  };
  /// A wheel bucket: a chain of pool blocks; only the tail is partly full.
  /// Within each instant its push order is seq order.
  struct Bucket {
    ArenaHandle head;
    ArenaHandle tail;
    std::uint32_t size = 0;
  };
  /// One pooled record per in-flight cancellable timer. Cancel and fire
  /// bump the generation, which turns stale Handles and the stored
  /// record inert; the record stays where it is until it is reached.
  struct TimerSlot {
    std::uint32_t gen = 0;
  };
  /// The total event order: nondecreasing time, FIFO (sequence) within a
  /// time. seq values are unique, so this is a strict total order.
  struct Earlier {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };

  /// The trampoline of an event.
  template <auto Method, typename T>
  static void call(void* obj, std::uint64_t arg) {
    T& self = *static_cast<T*>(obj);
    if constexpr (std::is_invocable_v<decltype(Method), T&>) {
      (self.*Method)();
    } else {
      (self.*Method)(arg);
    }
  }
  void post(SimTime t, Fn fn, void* obj, std::uint64_t arg);
  Handle schedule(SimTime t, Fn fn, void* obj, std::uint64_t arg);
  void place(const Event& ev);
  void push(Bucket& b, const Event& ev);
  /// Insert a record scheduled into drained time into the side run.
  void push_side(const Event& ev);
  void grow_side();
  /// Show the records of `b` to `f(block, records, count)`, a block's
  /// run at a time in push order.
  template <typename F>
  void walk(const Bucket& b, F&& f);
  /// Hand every record of `b` to `f`, a block's run at a time in push
  /// order, returning the blocks.
  template <typename F>
  void take_all(Bucket& b, F&& f);
  void advance();
  void drain_to_due(Bucket& bucket);
  /// Ensure a run holds the globally next event; false if storage empty.
  bool peek();
  /// True when the side run's head fires before the due run's.
  [[nodiscard]] bool side_first() const {
    return side_size_ != 0 && (due_size_ == 0 || side_[side_head_].time < due_[due_size_ - 1].time);
  }
  [[nodiscard]] const Event& head(bool side) const {
    return side ? side_[side_head_] : due_[due_size_ - 1];
  }
  void pop(bool side) {
    if (side) {
      side_head_ = (side_head_ + 1) & (side_.size() - 1);
      --side_size_;
    } else {
      --due_size_;
    }
  }
  /// The one dispatch loop: fire events in (time, seq) order while the
  /// next is at or before `last`, until stop() or the queue drains.
  void dispatch(SimTime last);
  [[nodiscard]] bool consume_slot(const Event& ev);
  void cancel_slot(std::uint32_t slot, std::uint32_t gen);
  [[nodiscard]] bool slot_pending(std::uint32_t slot, std::uint32_t gen) const {
    return slot < slots_.size() && slots_[slot].gen == gen;
  }

  // The due run: the last drained bucket's unfired records, newest
  // first in due_[0, due_size_); due_[due_size_ - 1] fires next. due_
  // keeps its high-water size, so a drain writes no record twice.
  std::vector<Event> due_;
  std::size_t due_size_ = 0;
  // The side run: records scheduled into drained time, oldest first in
  // a ring of power-of-two size starting at side_[side_head_].
  std::vector<Event> side_;
  std::size_t side_head_ = 0;
  std::size_t side_size_ = 0;
  /// The drain's per-nanosecond record counts; all zero between drains.
  std::array<std::uint32_t, kSlots> slot_count_{};
  SlotArena<Block> blocks_;
  std::array<Bucket, kNumBuckets> l0_{};
  std::array<Bucket, kNumBuckets> l1_{};
  std::size_t l0_count_ = 0;  ///< events stored across level-0 buckets
  std::size_t l1_count_ = 0;  ///< events stored across level-1 buckets
  // Far-future events, sorted ascending by (time, seq); overflow_head_
  // indexes the next candidate to migrate into the wheel.
  std::vector<Event> overflow_;
  std::size_t overflow_head_ = 0;
  /// Absolute level-0 bucket index the wheel has drained through: every
  /// event with (time >> kL0Shift) <= cur_ lives in the due or side run
  /// (or fired).
  std::int64_t cur_ = -1;

  std::vector<TimerSlot> slots_;
  std::vector<std::uint32_t> free_slots_;

  SimTime now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;  ///< scheduled minus fired minus cancelled
  bool stopped_ = false;
};

}  // namespace hermes::sim
