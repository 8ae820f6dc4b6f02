#include "hermes/engine/engine.hpp"

#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace hermes::engine {

namespace {
std::vector<int> every_group(int num_groups) {
  std::vector<int> all(static_cast<std::size_t>(num_groups));
  std::iota(all.begin(), all.end(), 0);
  return all;
}
}  // namespace

Engine::Engine(Config config, int num_groups, std::uint64_t rng_seed)
    : Engine{config, num_groups, every_group(num_groups), rng_seed} {}

Engine::Engine(Config config, int num_groups, std::vector<int> owned, std::uint64_t rng_seed)
    : config_{config},
      rng_{rng_seed},
      num_groups_{num_groups},
      owned_{std::move(owned)},
      row_of_(static_cast<std::size_t>(num_groups), kNoRow) {
  for (std::size_t row = 0; row < owned_.size(); ++row) {
    const int g = owned_[row];
    if (g < 0 || g >= num_groups_ || (row > 0 && g <= owned_[row - 1])) {
      throw std::invalid_argument("engine: owned groups must ascend within [0, num_groups)");
    }
    row_of_[static_cast<std::size_t>(g)] = row;
  }
  sets_.resize(owned_.size() * static_cast<std::size_t>(num_groups_));
}

void Engine::throw_not_owned(int src_group, int dst_group) const {
  throw std::out_of_range("engine: no pair " + std::to_string(src_group) + "->" +
                          std::to_string(dst_group) + " (source group not owned or out of range)");
}

PathState& Engine::path_state(int src_group, int dst_group, int local_idx) {
  PathSet& ps = path_set(src_group, dst_group);
  if (local_idx < 0 || static_cast<std::size_t>(local_idx) >= ps.size()) {
    throw std::out_of_range("engine: pair " + std::to_string(src_group) + "->" +
                            std::to_string(dst_group) + " has no path " +
                            std::to_string(local_idx) + " (it has " +
                            std::to_string(ps.size()) + ")");
  }
  return ps.state(static_cast<std::size_t>(local_idx));
}

std::size_t Engine::HoleKeyHash::operator()(const HoleKey& k) const {
  // Equality compares every field, so keys that hash alike cost a probe,
  // never a shared latch.
  const auto word = [](std::int32_t hi, std::int32_t lo) {
    return std::uint64_t{static_cast<std::uint32_t>(hi)} << 32 | static_cast<std::uint32_t>(lo);
  };
  const std::uint64_t h = mix64(mix64(word(k.src, k.dst)) ^ word(k.src_group, k.dst_group));
  return static_cast<std::size_t>(mix64(h ^ static_cast<std::uint32_t>(k.path)));
}

// HERMES_HOT: latch-expiry check on the decision path — reads/updates one
// HoleTrack in place, allocates nothing, consumes no RNG.
bool Engine::hole_active(HoleTrack& track, PathSet& ps, TimeNs now, const FlowView* flow,
                         int local_idx) {
  if (track.latched && config_.failure_expiry > 0) {
    const TimeNs expiry = config_.failure_expiry << (track.streak > 0 ? track.streak - 1 : 0);
    if (now - track.latched_at > expiry) {
      // Heal: the detector must re-accumulate kBlackholeTimeouts fresh
      // timeouts to re-latch; the streak is kept so a genuinely broken
      // path re-latches with a doubled expiry (up to 128x).
      const std::uint64_t lifetime_us =
          static_cast<std::uint64_t>((now - track.latched_at) / 1000);
      track.latched = false;
      track.timeouts = 0;
      ++stats_.latch_expiries;
      if (sink_ != nullptr) [[unlikely]] {
        emit(DecisionKind::kLatchExpire, flow, ps, local_idx, -1, 0, 0.0F, now, lifetime_us);
      }
    }
  }
  return track.latched;
}

// HERMES_HOT: per-candidate failure test inside the selection scans.
bool Engine::failed_for_flow(PathSet& ps, const FlowView& flow, int local_idx, TimeNs now) {
  if (ps.state(static_cast<std::size_t>(local_idx)).failed_active(now, config_)) return true;
  if (holes_.empty()) return false;
  const auto it =
      holes_.find(HoleKey{flow.src_group, flow.dst_group, flow.src, flow.dst, local_idx});
  if (it == holes_.end()) return false;
  return hole_active(it->second, ps, now, &flow, local_idx);
}

// HERMES_HOT: Algorithm 2 lines 3-12.
int Engine::pick_fresh(PathSet& ps, const FlowView& flow, TimeNs now) {
  // Lines 4-6: good paths, least local sending rate r_p first.
  // Lines 8-10: otherwise gray paths the same way. Near-equal rates are
  // tie-broken randomly so concurrent senders do not herd onto one path.
  for (PathType wanted : {PathType::kGood, PathType::kGray}) {
    const int best = least_rate_path(ps, flow, wanted, -1, nullptr, now);
    if (best >= 0) return best;
  }
  // Line 12: a uniformly random path with no failure. Two passes (count
  // the non-failed paths, then walk the draw down the same sequence) so
  // the hot path allocates no candidate list; failure checks are
  // idempotent at fixed `now`, so re-evaluating them is safe.
  const int n = static_cast<int>(ps.size());
  std::uint64_t alive = 0;
  for (int li = 0; li < n; ++li) {
    if (!failed_for_flow(ps, flow, li, now)) ++alive;
  }
  if (alive > 0) {
    std::uint64_t draw = rng_.next(alive);
    for (int li = 0; li < n; ++li) {
      if (failed_for_flow(ps, flow, li, now)) continue;
      if (draw == 0) return li;
      --draw;
    }
  }
  // Everything looks failed; we must still transmit somewhere.
  return static_cast<int>(rng_.next(static_cast<std::uint64_t>(n)));
}

// HERMES_HOT: Algorithm 2 lines 14-23.
int Engine::pick_notably_better(PathSet& ps, const FlowView& flow, int cur_local, TimeNs now) {
  const PathState& cur = ps.state(static_cast<std::size_t>(cur_local));
  // Lines 15-21: good paths notably better than the current one, then gray.
  for (PathType wanted : {PathType::kGood, PathType::kGray}) {
    const int best = least_rate_path(ps, flow, wanted, cur_local, &cur, now);
    if (best >= 0) return best;
  }
  return -1;  // line 23: do not reroute
}

// HERMES_HOT: the "notably better" margins (ΔRTT, ΔECN) of Algorithm 2.
bool Engine::notably_better(const PathState& cur, const PathState& cand) const {
  if (!cand.has_sample()) return false;
  if (cur.rtt() - cand.rtt() <= config_.delta_rtt) return false;
  if (config_.use_ecn && cur.ecn_fraction() - cand.ecn_fraction() <= config_.delta_ecn)
    return false;
  return true;
}

// HERMES_HOT: argmin r_p with reservoir sampling among near-ties: the
// k-th tied path replaces the pick with probability 1/k.
int Engine::least_rate_path(PathSet& ps, const FlowView& flow, PathType wanted, int exclude_local,
                            const PathState* better_than, TimeNs now) {
  const int n = static_cast<int>(ps.size());
  int best = -1;
  double best_rate = std::numeric_limits<double>::max();
  std::uint64_t ties = 0;
  for (int li = 0; li < n; ++li) {
    if (li == exclude_local) continue;
    if (failed_for_flow(ps, flow, li, now)) continue;
    const PathState& st = ps.state(static_cast<std::size_t>(li));
    if (st.characterize(config_) != wanted) continue;
    if (better_than != nullptr && !notably_better(*better_than, st)) continue;
    const double r = st.rate_bps(now);
    // Rates within 1% (or both idle) count as tied.
    if (best >= 0 && r <= best_rate * 1.01 + 1.0 && best_rate <= r * 1.01 + 1.0) {
      if (rng_.next(++ties) == 0) best = li;
      if (r < best_rate) best_rate = r;
    } else if (r < best_rate) {
      best_rate = r;
      best = li;
      ties = 1;
    }
  }
  return best;
}

// HERMES_HOT: Algorithm 2 — the per-packet decision. Allocation-free:
// candidate scans are in-place, the event is stack-built, and the pair's
// PathSet was sized by the embedder before this call.
int Engine::decide(FlowView& flow, std::uint32_t bytes, TimeNs now) {
  PathSet& ps = path_set(flow.src_group, flow.dst_group);
  const int n = static_cast<int>(ps.size());
  if (n == 0) return -1;

  int cur_local = flow.cur_local;
  if (cur_local >= n) cur_local = -1;  // the flow names a path the pair lacks
  int chosen = cur_local;

  const bool fresh = !flow.has_sent || flow.timeout_pending ||
                     (cur_local >= 0 && failed_for_flow(ps, flow, cur_local, now));
  if (fresh) {
    // Algorithm 2 line 3: new flow, flow with a timeout, or failed path.
    const DecisionKind kind = !flow.has_sent  ? DecisionKind::kInitialPlacement
                              : flow.timeout_pending ? DecisionKind::kTimeoutEscape
                                                     : DecisionKind::kFailureEscape;
    flow.timeout_pending = false;
    chosen = pick_fresh(ps, flow, now);
    switch (kind) {
      case DecisionKind::kInitialPlacement: ++stats_.initial_placements; break;
      case DecisionKind::kTimeoutEscape: ++stats_.timeout_escapes; break;
      default: ++stats_.failure_escapes; break;
    }
    if (sink_ != nullptr) [[unlikely]] emit(kind, &flow, ps, cur_local, chosen, 0, 0.0F, now);
  } else if (cur_local >= 0 && config_.rerouting_enabled &&
             ps.state(static_cast<std::size_t>(cur_local)).characterize(config_) ==
                 PathType::kCongested) {
    // Line 14: cautious gates — only flows that sent enough and are not
    // already fast benefit from rerouting; and a flow that just moved is
    // given time to observe its new path before moving again.
    const bool cooled_down =
        !flow.has_rerouted || now - flow.last_reroute >= config_.reroute_min_gap;
    if (cooled_down && flow.bytes_sent > config_.sent_threshold_bytes &&
        flow.rate_bps(now) < config_.reroute_rate_limit_bps) {
      const int better = pick_notably_better(ps, flow, cur_local, now);
      if (better >= 0) {
        chosen = better;
        flow.last_reroute = now;
        flow.has_rerouted = true;
        ++stats_.congestion_reroutes;
        if (sink_ != nullptr) [[unlikely]] {
          // Algorithm 2's reroute benefit at the moment of the decision.
          const PathState& cur = ps.state(static_cast<std::size_t>(cur_local));
          const PathState& cand = ps.state(static_cast<std::size_t>(better));
          emit(DecisionKind::kCongestionReroute, &flow, ps, cur_local, better,
               cur.rtt() - cand.rtt(),
               static_cast<float>(cur.ecn_fraction() - cand.ecn_fraction()), now);
        }
      }
    }
  }

  // An established flow on no path of the pair transmits anywhere.
  if (chosen < 0) chosen = static_cast<int>(rng_.next(static_cast<std::uint64_t>(n)));
  ps.state(static_cast<std::size_t>(chosen)).add_send(bytes, now, config_);
  return chosen;
}

void Engine::on_ack(int src_group, int dst_group, int local_idx, std::int32_t flow_src,
                    std::int32_t flow_dst, bool has_rtt, TimeNs rtt, bool ecn_marked) {
  PathSet& ps = path_set(src_group, dst_group);
  if (local_idx < 0 || local_idx >= static_cast<int>(ps.size())) return;
  if (has_rtt) ps.state(static_cast<std::size_t>(local_idx)).add_sample(rtt, ecn_marked);
  // ACK progress on this (pair, path): not a blackhole; reset the count.
  if (config_.failure_sensing && !holes_.empty()) {
    const auto it = holes_.find(HoleKey{src_group, dst_group, flow_src, flow_dst, local_idx});
    if (it != holes_.end()) it->second.timeouts = 0;
  }
}

void Engine::on_timeout(const FlowView& flow, TimeNs now) {
  if (!config_.failure_sensing || flow.cur_local < 0) return;
  // Blackhole detection (§3.1.2): Hermes monitors flow timeouts per
  // (source-destination pair, path). Once kBlackholeTimeouts timeouts
  // accrue with no packet of that pair ever ACKed on that path, the path
  // deterministically drops this pair's packets.
  PathSet& ps = path_set(flow.src_group, flow.dst_group);
  const int li = flow.cur_local;
  if (li >= static_cast<int>(ps.size())) return;
  // Every timeout is evidence; ACK progress on the (pair, path) resets
  // the count (on_ack), so only *consecutive* timeouts without an ACK in
  // between reach the threshold. Earlier progress on the path must not
  // veto detection — a blackhole can onset mid-flow (TCAM corruption on
  // a previously healthy switch) and the path has to re-prove itself.
  HoleTrack& track = holes_[HoleKey{flow.src_group, flow.dst_group, flow.src, flow.dst, li}];
  if (++track.timeouts >= kBlackholeTimeouts) {
    if (!track.latched) {
      if (track.streak < 8) ++track.streak;
      ++stats_.blackhole_latches;
      if (sink_ != nullptr) [[unlikely]] {
        emit(DecisionKind::kBlackholeLatch, &flow, ps, li, -1, 0, 0.0F, now);
      }
    }
    track.latched = true;
    // Each confirming timeout refreshes the latch; a cleared blackhole
    // stops producing timeouts and the latch expires (see hole_active).
    track.latched_at = now;
  }
}

void Engine::on_retransmit(int src_group, int dst_group, int local_idx, TimeNs now) {
  PathSet& ps = path_set(src_group, dst_group);
  if (local_idx < 0 || local_idx >= static_cast<int>(ps.size())) return;
  ps.state(static_cast<std::size_t>(local_idx)).add_retransmit(now, config_);
}

void Engine::feed_probe_sample(int src_group, int dst_group, int local_idx, TimeNs rtt,
                               bool ecn_marked) {
  PathSet& ps = path_set(src_group, dst_group);
  if (local_idx < 0 || local_idx >= static_cast<int>(ps.size())) return;
  PathState& st = ps.state(static_cast<std::size_t>(local_idx));
  st.add_sample(rtt, ecn_marked);
  // Track the best observed path for the extra "memory" probe.
  const auto best = static_cast<std::size_t>(ps.best_idx);
  if (ps.best_idx < 0 || best >= ps.size() || !ps.state(best).has_sample() ||
      st.rtt() < ps.state(best).rtt()) {
    ps.best_idx = local_idx;
  }
}

bool Engine::blackholed(int src_group, int dst_group, std::int32_t src_host,
                        std::int32_t dst_host, int local_idx, TimeNs now) const {
  (void)path_set(src_group, dst_group);  // throws for a pair this engine has no row for
  const auto it = holes_.find(HoleKey{src_group, dst_group, src_host, dst_host, local_idx});
  if (it == holes_.end() || !it->second.latched) return false;
  // Same expiry rule as hole_active, evaluated without mutating (const
  // introspection must not disturb detector state).
  if (config_.failure_expiry > 0) {
    const HoleTrack& t = it->second;
    const TimeNs expiry = config_.failure_expiry << (t.streak > 0 ? t.streak - 1 : 0);
    if (now - t.latched_at > expiry) return false;
  }
  return true;
}

int Engine::sampled_paths(int src_group, int dst_group) const {
  const PathSet& ps = path_set(src_group, dst_group);
  int n = 0;
  for (std::size_t i = 0; i < ps.size(); ++i)
    if (ps.state(i).has_sample()) ++n;
  return n;
}

std::uint64_t Engine::sized_pairs() const {
  std::uint64_t n = 0;
  for (const PathSet& ps : sets_)
    if (!ps.empty()) ++n;
  return n;
}

// HERMES_HOT: decision-stream append (runs inside decide/on_timeout) —
// stack-built event, reads only const path state, consumes no RNG,
// allocates nothing.
void Engine::emit(DecisionKind kind, const FlowView* flow, PathSet& ps, int from_local,
                  int to_local, std::int64_t delta_rtt_ns, float delta_ecn, TimeNs now,
                  std::uint64_t latch_lifetime_us) {
  DecisionEvent ev;
  ev.time_ns = now;
  ev.kind = kind;
  ev.delta_rtt_ns = delta_rtt_ns;
  ev.delta_ecn = delta_ecn;
  ev.from_path = static_cast<std::int16_t>(from_local);
  ev.to_path = static_cast<std::int16_t>(to_local);
  const auto cond = [&](int li) -> std::uint8_t {
    if (li < 0 || li >= static_cast<int>(ps.size())) return kCondNone;
    return static_cast<std::uint8_t>(ps.state(static_cast<std::size_t>(li)).characterize(config_));
  };
  ev.from_cond = cond(from_local);
  ev.to_cond = cond(to_local);
  ev.latch_lifetime_us = latch_lifetime_us;
  if (flow != nullptr) {
    ev.has_flow = true;
    ev.flow_id = flow->flow_id;
    ev.sent_bytes = flow->bytes_sent;
    ev.rate_bps = flow->rate_bps(now);
    ev.src_group = static_cast<std::int16_t>(flow->src_group);
    ev.dst_group = static_cast<std::int16_t>(flow->dst_group);
  }
  sink_->on_decision(ev);
}

}  // namespace hermes::engine
