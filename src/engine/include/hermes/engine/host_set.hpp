#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "hermes/engine/config.hpp"
#include "hermes/engine/path_state.hpp"
#include "hermes/engine/time.hpp"

namespace hermes::engine {

/// Administrative health of a path's far end, as reported by the
/// embedder's health checking (the engine itself only *senses* failures;
/// health is declared). Mirrors the Envoy host-health trichotomy.
enum class Health : std::uint8_t {
  kHealthy = 0,
  kDegraded = 1,   ///< usable, but only when healthy capacity runs short
  kUnhealthy = 2,  ///< excluded from selection outside panic mode
};

[[nodiscard]] constexpr const char* to_string(Health h) {
  switch (h) {
    case Health::kHealthy: return "healthy";
    case Health::kDegraded: return "degraded";
    case Health::kUnhealthy: return "unhealthy";
  }
  return "?";
}

/// One member of a HostSet: a stable endpoint identity plus the
/// embedder-declared weight and health.
struct Host {
  std::int64_t id = -1;
  std::uint32_t weight = 1;
  Health health = Health::kHealthy;
};

/// Membership of one locality pair as the embedder sees it: an ordered
/// list of hosts, position i backing path i of the pair's PathSet.
/// Mutations (add/remove/set_health/set_weight) happen here and are
/// pushed into the engine with Engine::sync_pair(), which preserves the
/// sensing state of every host that kept its position-identity and
/// resets slots whose backing host changed.
class HostSet {
 public:
  [[nodiscard]] std::size_t size() const { return hosts_.size(); }
  [[nodiscard]] bool empty() const { return hosts_.empty(); }
  [[nodiscard]] const Host& host(std::size_t i) const { return hosts_[i]; }
  [[nodiscard]] const std::vector<Host>& hosts() const { return hosts_; }

  /// Append a host; returns its position (= path local index).
  std::size_t add(std::int64_t id, std::uint32_t weight = 1, Health health = Health::kHealthy) {
    hosts_.push_back(Host{id, weight, health});
    return hosts_.size() - 1;
  }

  /// Remove the host with this id (positions above it shift down, so
  /// their slots re-bind on the next sync_pair). Returns false if absent.
  bool remove(std::int64_t id) {
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      if (hosts_[i].id == id) {
        hosts_.erase(hosts_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  bool set_health(std::int64_t id, Health h) {
    Host* host = find(id);
    if (host == nullptr) return false;
    host->health = h;
    return true;
  }

  bool set_weight(std::int64_t id, std::uint32_t w) {
    Host* host = find(id);
    if (host == nullptr) return false;
    host->weight = w;
    return true;
  }

 private:
  [[nodiscard]] Host* find(std::int64_t id) {
    for (Host& h : hosts_)
      if (h.id == id) return &h;
    return nullptr;
  }
  std::vector<Host> hosts_;
};

/// The engine's view of one ordered locality pair: the sensing state of
/// each path, the probing "memory" index, and, once the embedder declares
/// membership with Engine::sync_pair, the weight, health and backing host
/// of every path.
///
/// A pair starts compact: one 16-byte Sensing slot per path plus a bit
/// per path saying whether it has a sample, which is all a probe reply or
/// an ACK writes. Probing reaches every pair, but only pairs that send
/// need a rate, a retransmission epoch or a failure latch, so the engine
/// promotes a pair the first time anything reads or writes sending state:
/// promote() gives each path a full PathState carrying its slot over, and
/// a path that never sent reads exactly as a fresh PathState would.
///
/// Declared membership lives in a side table that only sync() creates: a
/// pair without one (every simulator pair) treats each path as healthy at
/// weight 1.
class PathSet {
 public:
  /// Declared membership: hosts[i] backs path i. A path that ensure()
  /// added after the last sync() is anonymous (id -1).
  struct Members {
    std::vector<Host> hosts;
    std::size_t healthy = 0;
  };

  [[nodiscard]] std::size_t size() const { return promoted_ ? full_.size() : compact_.size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Does every path hold a full PathState (has promote() run)?
  [[nodiscard]] bool promoted() const { return promoted_; }
  /// Path i's full state; the pair must be promoted.
  [[nodiscard]] PathState& state(std::size_t i) {
    assert(promoted_ && "sending state of a pair that was never promoted");
    return full_[i];
  }
  [[nodiscard]] const PathState& state(std::size_t i) const {
    assert(promoted_ && "sending state of a pair that was never promoted");
    return full_[i];
  }
  /// Path i's RTT/ECN estimate and whether it has a sample, in either form.
  [[nodiscard]] const Sensing& sensing(std::size_t i) const {
    return promoted_ ? full_[i].sensing() : compact_[i];
  }
  [[nodiscard]] bool has_sample(std::size_t i) const {
    return promoted_ ? full_[i].has_sample() : compact_sampled(i);
  }
  /// Feed path i one RTT + ECN observation, in either form.
  void add_sample(std::size_t i, TimeNs rtt, bool ecn_marked) {
    if (promoted_) {
      full_[i].add_sample(rtt, ecn_marked);
      return;
    }
    compact_[i].add_sample(rtt, ecn_marked, !compact_sampled(i));
    sampled_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  /// Declared membership; null until the first sync().
  [[nodiscard]] const Members* members() const { return members_.get(); }

  /// Grow-only resize; allocates, so callers invoke it outside
  /// HERMES_HOT regions (the adapter syncs sizes before decide()). Paths
  /// it adds to a pair with declared membership are anonymous, healthy
  /// and of weight 1.
  void ensure(std::size_t n) {
    if (size() >= n) return;
    if (!promoted_) {
      compact_.resize(n);
      sampled_.resize((n + 63) / 64);
      return;
    }
    full_.resize(n);
    if (members_ != nullptr) {
      members_->hosts.resize(n);
      recount();
    }
  }

  /// Move to the full form: each path's PathState takes its Sensing slot
  /// and sampled bit, and the compact storage is freed. A no-op once
  /// promoted. Allocates, so it runs once per pair, on the first call
  /// that needs sending state, never in the steady state.
  void promote() {
    if (promoted_) return;
    full_.reserve(compact_.size());
    for (std::size_t i = 0; i < compact_.size(); ++i) {
      full_.emplace_back(compact_[i], compact_sampled(i));
    }
    std::vector<Sensing>().swap(compact_);
    std::vector<std::uint64_t>().swap(sampled_);
    promoted_ = true;
  }

  /// Adopt `hosts` as this pair's membership (promoting it): path i backs
  /// hosts.host(i), and the pair takes its size. A path whose backing
  /// host id changed is reset (sensing restarts); a path that kept its
  /// host keeps its RTT/ECN estimates, rate and failure latches across
  /// weight/health updates.
  void sync(const HostSet& hosts) {
    promote();
    if (members_ == nullptr) members_ = std::make_unique<Members>();
    const std::size_t n = hosts.size();
    full_.resize(n);
    members_->hosts.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      Host& mine = members_->hosts[i];
      if (mine.id != hosts.host(i).id) {
        // A different host now backs this position: its sensing history
        // is about another endpoint — restart it. Stale blackhole latches
        // key the *flow* endpoints and heal via expiry.
        full_[i] = PathState{};
        if (best_idx == static_cast<int>(i)) best_idx = -1;
      }
      mine = hosts.host(i);
    }
    recount();
  }

  /// Envoy-style panic: too few healthy members => ignore health and
  /// spread over everyone rather than concentrate on the survivors.
  [[nodiscard]] bool in_panic() const {
    return members_ != nullptr && !full_.empty() &&
           static_cast<double>(members_->healthy) <
               kPanicThreshold * static_cast<double>(full_.size());
  }

  int best_idx = -1;  ///< previously observed best path (probed extra)

 private:
  [[nodiscard]] bool compact_sampled(std::size_t i) const {
    return ((sampled_[i / 64] >> (i % 64)) & 1U) != 0;
  }
  void recount() {
    members_->healthy = 0;
    for (const Host& h : members_->hosts)
      if (h.health == Health::kHealthy) ++members_->healthy;
  }

  bool promoted_ = false;               ///< packs beside best_idx
  std::vector<Sensing> compact_;        ///< compact form: one slot per path
  std::vector<std::uint64_t> sampled_;  ///< compact form: bit i = path i has a sample
  std::vector<PathState> full_;         ///< full form, once promoted
  std::unique_ptr<Members> members_;    ///< only a promoted pair has one
};

}  // namespace hermes::engine
