#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hermes/sim/inline_function.hpp"
#include "hermes/sim/slot_arena.hpp"
#include "hermes/sim/time.hpp"

namespace hermes::sim {

/// Discrete-event scheduler. Events fire in nondecreasing time order;
/// equal-time events fire in the order they were scheduled (stable FIFO),
/// which keeps packet pipelines deterministic.
///
/// Two scheduling paths exist for performance:
///  * post_at/post_in  — fire-and-forget, stored by value, used by the
///    packet hot path (no cancellation state is allocated);
///  * schedule_at/schedule_in — return a cancellable Handle, used by
///    timers (retransmission timeouts, CBR pacing).
///
/// Implementation: a two-level bucketed time wheel (calendar queue)
/// keyed on SimTime, with a sorted overflow list for the far future.
/// Steady state is allocation-free: callbacks live inline in the event
/// record (InlineFunction, no heap), and cancellable-timer slots come
/// from a pooled free-list with generation counters instead of
/// shared_ptr state. Wheel buckets own no storage of their own: each is
/// a chain of fixed 8-event blocks drawn from one per-queue SlotArena
/// with a LIFO free list, and a drained bucket hands its blocks straight
/// back. Wheel memory therefore follows the peak number of stored
/// events, not 2048 buckets times each bucket's own high water: a
/// periodic burst that drifts through every bucket (a Hermes probe tick
/// puts ~500 events in one) costs one burst's worth of blocks. Blocks of
/// 8 keep drains sequential; the chunked arena never relocates a block,
/// so a pool that grows costs no copies.
///
///   level 0:  1024 buckets x 256ns   -> horizon ~262us
///   level 1:  1024 buckets x ~262us  -> horizon ~268ms
///   overflow: sorted vector (time, seq) beyond ~268ms
///
/// The 256ns level-0 bucket is deliberately finer than the smallest
/// common event spacing (64B ACK serialization at 10G is 51ns, data
/// packets 1.2us): a scheduled event almost always lands in a *future*
/// bucket (an O(1) push) instead of the already-drained current one
/// (a sorted insert into the due run, which shifts records). With
/// 4.096us buckets a loaded 10G fabric put ~70% of schedules into the
/// current bucket and per-event cost tripled.
///
/// The total order is always (time, seq): bucket contents are sorted on
/// drain, so the wheel is observably identical to a binary heap with a
/// stable tiebreak — for a fixed seed, simulation output is byte-equal.
class EventQueue {
 public:
  /// Inline storage for event callbacks — a global budget: the Event
  /// record (and with it every byte the wheel stores, moves and sorts)
  /// is sized by it, so captures are kept to a few pointers/ints; bulky
  /// state (e.g. reorder-held packets) lives in the owning object with
  /// the event capturing only `this`. Oversized captures fail to
  /// compile (see InlineFunction). Shrinking 128 -> 64 cut the Event
  /// record from 176 to 112 bytes (two cache lines).
  static constexpr std::size_t kInlineCallbackBytes = 64;
  using Callback = InlineFunction<kInlineCallbackBytes>;

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

  /// Fire-and-forget scheduling (fast path, no cancellation).
  void post_at(SimTime t, Callback cb);
  void post_in(SimTime delay, Callback cb) { post_at(now_ + delay, std::move(cb)); }

  /// Cancellable scheduling (timers).
  Handle schedule_at(SimTime t, Callback cb);
  Handle schedule_in(SimTime delay, Callback cb) { return schedule_at(now_ + delay, std::move(cb)); }

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
  /// pool's capacity plus the due run's and overflow list's. A
  /// diagnostics/test observer; it tracks the peak of stored_events().
  [[nodiscard]] std::size_t reserved_events() const;

  /// Eagerly drop cancelled event records from every bucket. Never
  /// needed for correctness (cancelled records are skipped and reclaimed
  /// as the wheel reaches them); call it to release their memory early.
  void purge_cancelled();

  /// Run the next pending event. Returns false if none remain.
  bool run_one();
  /// Run all events with time <= t, then advance the clock to t.
  void run_until(SimTime t);
  /// Run all events with time strictly < h, then advance the clock to h.
  /// The sharded executor's round primitive: events at exactly h stay
  /// pending, because boundary packets arriving at the horizon h may
  /// legally sort before them in a later round.
  void run_until_before(SimTime h);
  /// Earliest stored event time, or SimTime::max() when nothing is
  /// stored. May report a cancelled record's time — never *later* than
  /// the true next event, so horizons derived from it stay conservative
  /// (and deterministic: cancellation state is part of simulation state).
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

  struct Event {
    SimTime time;
    std::uint64_t seq = 0;          ///< global FIFO tiebreak for equal times
    std::uint32_t slot = kNoSlot;   ///< timer-slot index, kNoSlot for posts
    std::uint32_t gen = 0;          ///< slot generation at scheduling time
    Callback cb;
  };
  /// A pool block: a run of a bucket's records in push order, doubly
  /// linked so the tail can be returned to the pool when it empties. The
  /// links share a cache line with ev[0], the record a tail block holds
  /// last; the tail's `next` is stale (walks stop by record count).
  struct Block {
    ArenaHandle next;  ///< toward the bucket's tail
    ArenaHandle prev;  ///< toward the bucket's head
    Event ev[kBlockEvents];
  };
  /// A wheel bucket: a chain of pool blocks; only the tail is partly full.
  /// Record order within a bucket is arbitrary (cancel swap-removes) —
  /// the bucket is (time, seq)-sorted when it drains.
  struct Bucket {
    ArenaHandle head;
    ArenaHandle tail;
    std::uint32_t size = 0;
  };
  /// One pooled record per in-flight cancellable timer. The generation
  /// counter invalidates stale Handles and stale queue entries when the
  /// slot is recycled through the free-list. The location fields track
  /// which wheel structure currently stores the slot's live event, so
  /// cancel() can physically remove the record: per-packet RTO re-arms
  /// would otherwise pile thousands of stale 112-byte records into far
  /// level-1 buckets, to be cascaded and sorted for nothing.
  struct TimerSlot {
    enum Where : std::uint8_t { kNowhere = 0, kInL0, kInL1, kInDue, kInOverflow };
    std::uint32_t gen = 0;
    std::uint32_t bucket = 0;  ///< bucket index when where is kInL0/kInL1
    ArenaHandle block;         ///< pool position of the record (O(1) cancel):
    std::uint8_t index = 0;    ///< its block and index within that block
    std::uint8_t where = kNowhere;
  };
  /// The total event order: nondecreasing time, FIFO (sequence) within a
  /// time. seq values are unique, so this is a strict total order and
  /// plain std::sort is deterministic.
  struct Earlier {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };

  /// The slot of the timer whose live record `ev` is; null for a post or
  /// a stale record (its timer fired, was cancelled, or was re-armed).
  [[nodiscard]] TimerSlot* live_slot(const Event& ev) {
    return ev.slot != kNoSlot && slots_[ev.slot].gen == ev.gen ? &slots_[ev.slot] : nullptr;
  }
  void place(Event&& ev);
  void push(Bucket& b, std::uint8_t where, std::uint32_t bucket_index, Event&& ev);
  /// Swap-remove the record at (block, index) with the bucket's last one,
  /// returning the tail block to the pool when it empties.
  void remove_at(Bucket& b, ArenaHandle block, std::uint32_t index);
  /// Hand every record of `b` to `f` in push order, returning the blocks.
  template <typename F>
  void take_all(Bucket& b, F&& f);
  void advance();
  void drain_to_due(Bucket& bucket);
  /// Ensure due_ holds the globally next events; false if storage empty.
  bool peek_due();
  [[nodiscard]] bool consume_slot(const Event& ev);
  void cancel_slot(std::uint32_t slot, std::uint32_t gen);
  [[nodiscard]] bool slot_pending(std::uint32_t slot, std::uint32_t gen) const {
    return slot < slots_.size() && slots_[slot].gen == gen;
  }

  // Events already pulled in front of the wheel, sorted by (time, seq);
  // due_head_ indexes the next one to fire.
  std::vector<Event> due_;
  std::size_t due_head_ = 0;
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
  /// event with (time >> kL0Shift) <= cur_ lives in due_ (or fired).
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
