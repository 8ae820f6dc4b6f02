#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
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

/// Timeout/ACK bookkeeping per (src,dst,path) feeding the blackhole
/// detector (Table 3's per-path n_timeout, kept per host pair since a
/// blackhole matches specific header patterns). Aggregated across flows:
/// one flow reroutes away after a single timeout, but the pair's traffic
/// keeps revisiting the path and the count accrues. The latch heals the
/// same way PathState's random-drop latch does: it expires after
/// failure_expiry without fresh evidence, and each re-confirmation
/// doubles the expiry (streak capped at 8 => 128x).
struct HoleTrack {
  std::uint32_t timeouts = 0;
  bool acked = false;
  bool latched = false;
  TimeNs latched_at = 0;
  std::uint32_t streak = 0;
};

/// The engine's view of one ordered locality pair: per-path sensing
/// state plus the declared weight/health of whatever backs each path,
/// the probing "memory" index, and the pair's blackhole latches.
class PathSet {
 public:
  struct Slot {
    PathState state;
    std::uint32_t weight = 1;
    Health health = Health::kHealthy;
    std::int64_t host_id = -1;  ///< backing host identity, -1 = anonymous path
  };

  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] bool empty() const { return slots_.empty(); }
  [[nodiscard]] Slot& slot(std::size_t i) { return slots_[i]; }
  [[nodiscard]] const Slot& slot(std::size_t i) const { return slots_[i]; }
  [[nodiscard]] PathState& state(std::size_t i) { return slots_[i].state; }
  [[nodiscard]] const PathState& state(std::size_t i) const { return slots_[i].state; }

  /// Exact resize. Shrinking drops the tail slots (their latches stay in
  /// hole_track but can no longer match a live index).
  void set_size(std::size_t n) {
    if (n == slots_.size()) return;
    slots_.resize(n);
    recount();
  }
  /// Grow-only resize; allocates, so callers invoke it outside
  /// HERMES_HOT regions (the adapter syncs sizes before decide()).
  void ensure(std::size_t n) {
    if (slots_.size() < n) set_size(n);
  }

  void set_health(std::size_t i, Health h) {
    if (slots_[i].health == h) return;
    if (slots_[i].health == Health::kHealthy) --healthy_;
    if (h == Health::kHealthy) ++healthy_;
    slots_[i].health = h;
  }
  void set_weight(std::size_t i, std::uint32_t w) { slots_[i].weight = w; }

  [[nodiscard]] std::size_t healthy_count() const { return healthy_; }

  /// Envoy-style panic: too few healthy members => ignore health and
  /// spread over everyone rather than concentrate on the survivors.
  [[nodiscard]] bool in_panic() const {
    return !slots_.empty() &&
           static_cast<double>(healthy_) < kPanicThreshold * static_cast<double>(slots_.size());
  }

  int best_idx = -1;  ///< previously observed best path (probed extra)
  std::unordered_map<std::uint64_t, HoleTrack> hole_track;

 private:
  void recount() {
    healthy_ = 0;
    for (const Slot& s : slots_)
      if (s.health == Health::kHealthy) ++healthy_;
  }

  std::vector<Slot> slots_;
  std::size_t healthy_ = 0;
};

}  // namespace hermes::engine
