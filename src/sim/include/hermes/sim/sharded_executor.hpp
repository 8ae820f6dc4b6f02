#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "hermes/sim/event_queue.hpp"
#include "hermes/sim/thread_pool.hpp"
#include "hermes/sim/time.hpp"

namespace hermes::sim {

/// Conservative parallel discrete-event executor over fixed shards.
///
/// Each shard is an independent EventQueue (its own wheel, clock and
/// arena); shards interact only through boundary packets that take at
/// least `lookahead` of simulated time to cross (the minimum inter-shard
/// link latency). That bound makes null-message-free barrier rounds
/// safe:
///
///   1. barrier(): single-threaded exchange of boundary packets
///      produced last round (each lands at time >= the last horizon);
///   2. t_min = min over shards of next_event_time();
///   3. horizon h = min(t_min + lookahead, t_end);
///   4. every shard runs all its events with time < h, in parallel.
///
/// Any packet emitted during round 4 by an event at time t < h arrives
/// in another shard at t + link_delay >= t_min + lookahead >= h — never
/// inside the window being executed — so each shard's event order is
/// independent of every other shard's progress, and therefore of the
/// thread count. HERMES_THREADS=1 and =N produce byte-identical
/// simulations (pinned by the sharded golden-hash test).
///
/// Threading: each round is one ThreadPool job with one index per shard;
/// the pool's workers persist across rounds. With `threads <= 1` rounds
/// run inline on the caller's thread through the same claim loop.
class ShardedExecutor {
 public:
  struct Stats {
    std::uint64_t rounds = 0;
    /// Sum over rounds of (h - t_min): how much conservative slack each
    /// round granted beyond its earliest event. Mean width = total/rounds.
    std::uint64_t horizon_ns_total = 0;
  };

  /// `threads == 0` resolves via resolve_threads(); the effective count
  /// is additionally capped at the shard count. `lookahead` must be
  /// positive when more than one shard exists.
  ShardedExecutor(std::vector<EventQueue*> shards, SimTime lookahead, unsigned threads = 0);

  /// Run barrier rounds until every shard's next event is at or beyond
  /// `t_end`, or `barrier` returns false. `barrier` runs single-threaded
  /// between rounds (including once before the first round); it is where
  /// the caller moves boundary packets between shards and checks
  /// termination (e.g. "all flows complete").
  void run_until(SimTime t_end, const std::function<bool()>& barrier);

  [[nodiscard]] unsigned threads() const { return pool_.threads(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  std::vector<EventQueue*> shards_;
  SimTime lookahead_;
  Stats stats_;
  ThreadPool pool_;
};

}  // namespace hermes::sim
