#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "hermes/engine/rate.hpp"
#include "hermes/net/buffer_pool.hpp"
#include "hermes/net/device.hpp"
#include "hermes/net/packet.hpp"
#include "hermes/net/packet_arena.hpp"
#include "hermes/net/packet_ring.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/records.hpp"
#include "hermes/sim/inline_function.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::net {

/// Utilization in [0, ~1+] of a link of `link_bps` whose traffic `dre`
/// measures.
[[nodiscard]] inline double dre_utilization(const engine::Dre& dre, double link_bps,
                                            sim::SimTime now) {
  return link_bps > 0 ? dre.rate_bps(now.ns()) / link_bps : 0.0;
}

/// CONGA's 3-bit quantized congestion metric of that link.
[[nodiscard]] inline std::uint8_t dre_quantized(const engine::Dre& dre, double link_bps,
                                                sim::SimTime now) {
  double u = dre_utilization(dre, link_bps, now);
  if (u < 0) u = 0;
  if (u > 1) u = 1;
  return static_cast<std::uint8_t>(u * 7.0 + 0.5);
}

/// Configuration for an output port and its attached simplex link.
struct PortConfig {
  double rate_bps = 10e9;                ///< link capacity
  sim::SimTime prop_delay = sim::usec(2); ///< one-way propagation delay
  std::uint32_t queue_capacity_bytes = 500 * 1024;  ///< per-port buffer
  std::uint32_t ecn_threshold_bytes = 65 * 1500;    ///< step marking point (K)
  bool ecn_enabled = true;
};

/// Counters exported by every port. `drops`/`drop_bytes` total every drop
/// at this port; `link_down_drops` is the subset lost because the link
/// itself was administratively/faultily down (fault injection).
struct PortStats {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t drops = 0;
  std::uint64_t drop_bytes = 0;
  std::uint64_t link_down_drops = 0;
  std::uint64_t ecn_marks = 0;
};

/// An output port: a two-band strict-priority drop-tail queue feeding a
/// fixed-rate link with propagation delay. ECN CE marking happens at
/// enqueue when the backlog exceeds the threshold (DCTCP step marking).
/// The port also maintains a DRE so CONGA can read per-link utilization.
///
/// Queues are SoA rings of arena handles (PacketRing/WireRing): the port
/// never copies a Packet, it moves 32-bit handles between index rings.
/// Link delivery is batched — every wire entry carries its delivery
/// deadline, and one drain event delivers every packet that is due.
class Port {
 public:
  /// Per-packet observer hook. Fixed inline storage, no heap fallback:
  /// an observer capturing more than kHookCapacity bytes is a compile
  /// error, never a per-install allocation (see sim::InlineCallable).
  static constexpr std::size_t kHookCapacity = 48;
  using Hook = sim::InlineCallable<kHookCapacity, void(const Packet&)>;

  Port(sim::Simulator& simulator, PacketArena& arena, std::string name, PortConfig config,
       Device* peer, int peer_in_port);

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  /// Enqueue the packet named by `h` for transmission (drops — and frees
  /// the slot — if the buffer is full or the link is down).
  void send(PacketHandle h);

  /// Convenience for endpoints and tests: place `p` into the arena and
  /// enqueue the resulting handle.
  void send(Packet&& p) { send(arena_.alloc(std::move(p))); }

  [[nodiscard]] std::uint32_t backlog_bytes() const { return backlog_bytes_; }
  [[nodiscard]] std::size_t backlog_packets() const { return hi_.size() + lo_.size(); }
  [[nodiscard]] const PortStats& stats() const { return stats_; }
  [[nodiscard]] const PortConfig& config() const { return config_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] PacketArena& arena() { return arena_; }

  /// CONGA congestion metric of this link, quantized to 3 bits.
  [[nodiscard]] std::uint8_t conga_metric() const {
    return dre_quantized(dre_, config_.rate_bps, simulator_.now());
  }

  /// Serialization delay of `bytes` on this link.
  [[nodiscard]] sim::SimTime tx_time(std::uint32_t bytes) const {
    return sim::SimTime::from_seconds(static_cast<double>(bytes) * 8.0 / config_.rate_bps);
  }

  // --- runtime fault state (driven by the fault scheduler) --------------
  /// Change the link capacity mid-run (degrade/restore). Affects future
  /// serializations; packets already on the wire keep their old timing.
  void set_rate_bps(double rate_bps) {
    config_.rate_bps = rate_bps;
    tx_cache_bytes_[0] = tx_cache_bytes_[1] = 0;  // memoized tx times are stale
  }
  /// Cut / restore the link. While down, newly arriving packets are
  /// silently dropped (counted in stats: drops + link_down_drops); what is
  /// already queued or on the wire still drains — a cut fiber loses what
  /// is sent into it, not what already left.
  void set_link_up(bool up) { link_up_ = up; }
  [[nodiscard]] bool link_up() const { return link_up_; }

  /// Bytes transmitted but still propagating (invariant accounting).
  [[nodiscard]] std::uint64_t wire_bytes() const { return wire_.total_bytes(); }
  [[nodiscard]] std::size_t wire_packets() const { return wire_.size(); }
  /// True when admission goes through a shared BufferPool instead of the
  /// static per-port capacity (invariant checker picks the right bound).
  [[nodiscard]] bool pooled() const { return pool_ != nullptr; }

  /// Optional per-packet observers (tests, InvariantChecker). Null by
  /// default; the hot path pays one branch each.
  Hook on_drop;
  Hook on_enqueue;

  /// Current simulation time (for observers that only hold the port).
  [[nodiscard]] sim::SimTime now() const { return simulator_.now(); }

  /// Switch to shared-buffer admission: the static per-port capacity is
  /// replaced by the pool's (dynamic-threshold) policy. The pool must
  /// outlive the port.
  void set_buffer_pool(BufferPool* pool) { pool_ = pool; }

  /// Attach the scenario's flight recorder (null detaches — the default).
  /// Interns this port's name once, here; the per-packet appends carry
  /// only the 4-byte id. The recorder must outlive the port.
  void set_recorder(obs::FlightRecorder* rec) {
    rec_ = rec;
    name_id_ = rec != nullptr ? rec->intern(name_) : 0;
  }

  /// True for leaf-uplink and spine-downlink ports. Only fabric ports are
  /// stamped with CONGA's in-band congestion metric.
  bool is_fabric = false;

 private:
  void try_transmit();
  void finish_transmit();
  void drain_wire();
  [[nodiscard]] sim::SimTime tx_time_cached(std::uint32_t bytes);
  void record_packet(obs::PacketEvent ev, const Packet& p);

  sim::Simulator& simulator_;
  PacketArena& arena_;
  std::string name_;
  PortConfig config_;
  Device* peer_;
  int peer_in_port_;

  PacketRing hi_;
  PacketRing lo_;
  WireRing wire_;  ///< transmitted, awaiting propagation delivery
  std::uint32_t backlog_bytes_ = 0;
  bool busy_ = false;
  bool link_up_ = true;
  /// Delivery deadline of the most recently scheduled drain event. When a
  /// new wire entry lands on exactly this deadline the already-scheduled
  /// drain will deliver it too (equal-time batch), so no second event is
  /// needed. Deadlines are nondecreasing, so equality is the only
  /// coalescible case.
  sim::SimTime drain_scheduled_for_ = sim::nsec(-1);

  /// Two-entry memo of tx_time keyed by size: fabric traffic is almost
  /// entirely {MSS data, 64B ACK}, so this removes the per-packet double
  /// divide. Computes through the identical tx_time() arithmetic, so
  /// timing stays bit-for-bit the same. Invalidated by set_rate_bps.
  std::uint32_t tx_cache_bytes_[2] = {0, 0};
  sim::SimTime tx_cache_time_[2] = {};

  engine::Dre dre_;
  PortStats stats_;
  BufferPool* pool_ = nullptr;
  obs::FlightRecorder* rec_ = nullptr;  ///< null when observability is off
  std::uint32_t name_id_ = 0;           ///< interned name, valid while rec_ set
};

}  // namespace hermes::net
