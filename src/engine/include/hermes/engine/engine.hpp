#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "hermes/engine/config.hpp"
#include "hermes/engine/decision.hpp"
#include "hermes/engine/path_set.hpp"
#include "hermes/engine/path_state.hpp"
#include "hermes/engine/rng.hpp"
#include "hermes/engine/time.hpp"

namespace hermes::engine {

/// Hermes decision engine: comprehensive sensing + timely yet cautious
/// rerouting (Algorithm 2), lifted out of any particular environment.
///
/// The engine knows only locality *groups* (racks in the paper, localities
/// in a serving mesh) and, per ordered group pair, a PathSet of path
/// states, empty until the embedder sizes the pair. It never reads a
/// clock, never touches a socket, and holds no per-flow state: every
/// entry point takes `now` and a FlowView from the embedder. Three
/// embedders exist in this repo — the simulator adapter (lb::HermesLb),
/// the conformance suite, and the hermesd replay daemon.
///
/// The engine decides on sensed path conditions alone, as the paper does
/// (§3.1). Selection consumes the RNG in exactly the order the
/// pre-extraction simulator implementation did, which is what keeps the
/// golden determinism hash unchanged.
///
/// Blackholes are detected per (source host, destination host) pair
/// (§3.1.2), because a blackhole deterministically drops only packets
/// matching certain header patterns; silent random drops are detected
/// per path via the retransmission-rate epoch detector in PathState.
///
/// An engine keeps pair rows only for the source groups its embedder owns:
/// a sender senses the paths out of its own racks (§3.1.3), so a simulator
/// shard's engine holds the rows of that shard's leaves and nothing else.
class Engine {
 public:
  /// An engine owning every source group. `num_groups` fixes the
  /// group-pair table; `rng_seed` seeds the tie-break/fallback stream (sim
  /// adapters pass Simulator::rng_seed(salt) to share the simulator's
  /// seed lattice).
  Engine(Config config, int num_groups, std::uint64_t rng_seed);
  /// An engine owning only the source groups in `owned` (ascending, each
  /// in [0, num_groups)): every call naming another source group throws
  /// std::out_of_range.
  Engine(Config config, int num_groups, std::vector<int> owned, std::uint64_t rng_seed);

  // --- the decision path (HERMES_HOT, allocation-free) -------------------
  /// Algorithm 2 for one outgoing packet of `flow`: returns the local
  /// path index to transmit on (accounting the send on it), or -1 when
  /// the pair has no paths. Mutates flow.timeout_pending /
  /// has_rerouted / last_reroute; the embedder copies those back.
  int decide(FlowView& flow, std::uint32_t bytes, TimeNs now);

  // --- signal feeds ------------------------------------------------------
  /// ACK observed for a (group pair, path): optional RTT sample plus the
  /// flow-pair's blackhole-progress reset.
  void on_ack(int src_group, int dst_group, int local_idx, std::int32_t flow_src,
              std::int32_t flow_dst, bool has_rtt, TimeNs rtt, bool ecn_marked);
  /// The flow's retransmission timer fired while on flow.cur_local.
  void on_timeout(const FlowView& flow, TimeNs now);
  /// A segment was retransmitted on this path.
  void on_retransmit(int src_group, int dst_group, int local_idx, TimeNs now);
  /// A probe reply measured this path (updates the probing "memory" best
  /// index as well).
  void feed_probe_sample(int src_group, int dst_group, int local_idx, TimeNs rtt,
                         bool ecn_marked);

  // --- pairs -------------------------------------------------------------
  /// A pair's PathSet, which the embedder sizes with PathSet::ensure;
  /// throws std::out_of_range unless `src_group` is owned and `dst_group`
  /// is in [0, num_groups).
  [[nodiscard]] PathSet& path_set(int src_group, int dst_group) {
    return sets_[pair_index(src_group, dst_group)];
  }
  [[nodiscard]] const PathSet& path_set(int src_group, int dst_group) const {
    return sets_[pair_index(src_group, dst_group)];
  }
  /// A pair's index in [0, owned_groups().size() * num_groups()): one row
  /// of num_groups() pairs per owned source group, in owned order, so an
  /// embedder can keep its own per-pair table beside the engine's. Throws
  /// std::out_of_range as path_set() does.
  [[nodiscard]] std::size_t pair_index(int src_group, int dst_group) const {
    const std::size_t row = src_group >= 0 && src_group < num_groups_
                                ? row_of_[static_cast<std::size_t>(src_group)]
                                : kNoRow;
    if (row == kNoRow || dst_group < 0 || dst_group >= num_groups_) [[unlikely]] {
      throw_not_owned(src_group, dst_group);
    }
    return row * static_cast<std::size_t>(num_groups_) + static_cast<std::size_t>(dst_group);
  }

  // --- introspection ------------------------------------------------------
  [[nodiscard]] int num_groups() const { return num_groups_; }
  /// The source groups this engine keeps rows for, ascending.
  [[nodiscard]] const std::vector<int>& owned_groups() const { return owned_; }
  /// One path's state; throws std::out_of_range as path_set() does, or
  /// for an index outside [0, size()) of the pair's PathSet.
  [[nodiscard]] PathState& path_state(int src_group, int dst_group, int local_idx);
  [[nodiscard]] PathType path_type(int src_group, int dst_group, int local_idx) {
    return path_state(src_group, dst_group, local_idx).characterize(config_);
  }
  /// Is the (src,dst,path) blackhole latch live right now? Const: stale
  /// latches are reported expired without mutating detector state.
  [[nodiscard]] bool blackholed(int src_group, int dst_group, std::int32_t src_host,
                                std::int32_t dst_host, int local_idx, TimeNs now) const;
  /// Number of distinct paths with at least one sample for a pair (the
  /// "visibility" a sender has, Table 6).
  [[nodiscard]] int sampled_paths(int src_group, int dst_group) const;
  /// Number of pairs the embedder has sized (non-empty PathSets).
  [[nodiscard]] std::uint64_t sized_pairs() const;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const DecisionStats& stats() const { return stats_; }
  /// The engine's RNG stream, exposed so the embedder's probing draws
  /// from the same sequence the pre-extraction implementation did.
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Attach (null detaches) the decision-stream consumer.
  void set_sink(DecisionSink* sink) { sink_ = sink; }

 private:
  /// Timeout bookkeeping per (group pair, src, dst, path) feeding the
  /// blackhole detector (Table 3's per-path n_timeout, kept per host pair
  /// since a blackhole matches specific header patterns). Aggregated
  /// across flows: one flow reroutes away after a single timeout, but the
  /// pair's traffic keeps revisiting the path and the count accrues. The
  /// latch heals the same way PathState's random-drop latch does: it
  /// expires after failure_expiry without fresh evidence, and each
  /// re-confirmation doubles the expiry (streak capped at 8 => 128x).
  struct HoleTrack {
    std::uint32_t timeouts = 0;
    bool latched = false;
    TimeNs latched_at = 0;
    std::uint32_t streak = 0;
  };
  /// One blackhole latch's identity: the group pair, the flow endpoints
  /// and the path, each its own field.
  struct HoleKey {
    int src_group;
    int dst_group;
    std::int32_t src;
    std::int32_t dst;
    int path;
    bool operator==(const HoleKey&) const = default;
  };
  struct HoleKeyHash {
    std::size_t operator()(const HoleKey& k) const;
  };

  [[noreturn]] void throw_not_owned(int src_group, int dst_group) const;
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

  /// Is the hole latch live (expiring it in place when stale)? `flow`
  /// and `local_idx` locate the expiry for the decision stream.
  [[nodiscard]] bool hole_active(HoleTrack& track, PathSet& ps, TimeNs now, const FlowView* flow,
                                 int local_idx);
  [[nodiscard]] bool failed_for_flow(PathSet& ps, const FlowView& flow, int local_idx,
                                     TimeNs now);
  /// Algorithm 2 lines 3-12: initial placement / failure escape.
  int pick_fresh(PathSet& ps, const FlowView& flow, TimeNs now);
  /// Algorithm 2 lines 14-23: cautious reroute off a congested path.
  int pick_notably_better(PathSet& ps, const FlowView& flow, int cur_local, TimeNs now);
  /// Argmin r_p over non-failed paths of type `wanted` (uniformly random
  /// among near-ties); `better_than` non-null restricts to paths notably
  /// better than it (the reroute comparison).
  int least_rate_path(PathSet& ps, const FlowView& flow, PathType wanted, int exclude_local,
                      const PathState* better_than, TimeNs now);
  [[nodiscard]] bool notably_better(const PathState& cur, const PathState& cand) const;
  void emit(DecisionKind kind, const FlowView* flow, PathSet& ps, int from_local, int to_local,
            std::int64_t delta_rtt_ns, float delta_ecn, TimeNs now,
            std::uint64_t latch_lifetime_us = 0);

  Config config_;
  Rng rng_;
  int num_groups_;
  std::vector<int> owned_;
  std::vector<std::size_t> row_of_;  ///< per source group: its sets_ row, or kNoRow
  std::vector<PathSet> sets_;        ///< one row of num_groups_ sets per owned group
  /// Blackhole latches of every pair, created by the first timeout.
  std::unordered_map<HoleKey, HoleTrack, HoleKeyHash> holes_;
  DecisionStats stats_;
  DecisionSink* sink_ = nullptr;
};

}  // namespace hermes::engine
