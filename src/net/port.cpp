#include "hermes/net/port.hpp"

#include <cstdint>
#include <string>
#include <utility>

#include "hermes/obs/records.hpp"

namespace hermes::net {

Port::Port(sim::Simulator& simulator, PacketArena& arena, std::string name, PortConfig config,
           Device* peer, int peer_in_port)
    : simulator_{simulator},
      arena_{arena},
      name_{std::move(name)},
      config_{config},
      peer_{peer},
      peer_in_port_{peer_in_port} {}

// HERMES_HOT: flight-recorder append — builds a 64-byte POD record on the
// stack and copies it into the preallocated ring; must stay allocation-free.
void Port::record_packet(obs::PacketEvent ev, const Packet& p) {
  obs::TraceRecord r = obs::make_record(obs::RecordKind::kPacket,
                                        static_cast<std::uint64_t>(simulator_.now().ns()),
                                        name_id_, p.flow_id);
  r.u.packet.packet_id = p.id;
  r.u.packet.seq = p.seq;
  r.u.packet.size = p.size;
  r.u.packet.event = static_cast<std::uint8_t>(ev);
  r.u.packet.type = static_cast<std::uint8_t>(p.type);
  r.u.packet.ce = p.ce ? 1 : 0;
  rec_->append(r);
}

// HERMES_HOT: memoized serialization delay. The two cache lines cover the
// entire steady-state traffic mix (MSS data + 64B ACKs/probes); a miss
// recomputes through tx_time()'s exact double arithmetic, so a cached hop
// is bit-identical to an uncached one.
sim::SimTime Port::tx_time_cached(std::uint32_t bytes) {
  if (bytes == tx_cache_bytes_[0]) return tx_cache_time_[0];
  if (bytes == tx_cache_bytes_[1]) {
    // Promote: keep the most recent size in way 0.
    std::swap(tx_cache_bytes_[0], tx_cache_bytes_[1]);
    std::swap(tx_cache_time_[0], tx_cache_time_[1]);
    return tx_cache_time_[0];
  }
  tx_cache_bytes_[1] = tx_cache_bytes_[0];
  tx_cache_time_[1] = tx_cache_time_[0];
  tx_cache_bytes_[0] = bytes;
  tx_cache_time_[0] = tx_time(bytes);
  return tx_cache_time_[0];
}

// HERMES_HOT: per-packet enqueue — admission, ECN mark, queue push. The
// packet stays in its arena slot; only the 32-bit handle moves.
void Port::send(PacketHandle h) {
  Packet& p = arena_[h];
  if (!link_up_) [[unlikely]] {
    // Fault-injected link cut: the packet vanishes silently, like a pulled
    // fiber — no NACK, nothing the load balancer can observe directly.
    ++stats_.drops;
    stats_.drop_bytes += p.size;
    ++stats_.link_down_drops;
    if (rec_) [[unlikely]] record_packet(obs::PacketEvent::kDrop, p);
    if (on_drop) on_drop(p);
    arena_.free(h);
    return;
  }
  const bool admitted = pool_ ? pool_->try_admit(p.size, backlog_bytes_)
                              : backlog_bytes_ + p.size <= config_.queue_capacity_bytes;
  if (!admitted) [[unlikely]] {
    ++stats_.drops;
    stats_.drop_bytes += p.size;
    if (rec_) [[unlikely]] record_packet(obs::PacketEvent::kDrop, p);
    if (on_drop) on_drop(p);
    arena_.free(h);
    return;
  }
  // DCTCP step marking on enqueue: CE once the instantaneous backlog
  // reaches K. Marking considers the total backlog so that high-priority
  // probes also observe congestion built up by data.
  if (config_.ecn_enabled && p.ect && backlog_bytes_ >= config_.ecn_threshold_bytes) {
    p.ce = true;
    ++stats_.ecn_marks;
  }
  backlog_bytes_ += p.size;
  // Trace observers and the flight recorder are null in every
  // non-instrumented run: the hot path pays exactly one
  // predicted-not-taken branch per hook.
  if (rec_) [[unlikely]] record_packet(obs::PacketEvent::kEnqueue, p);
  if (on_enqueue) [[unlikely]] on_enqueue(p);
  // hermeslint:reserve-audited(ring doubles geometrically; steady state never grows)
  (p.priority > 0 ? hi_ : lo_).push(h, p.size);
  try_transmit();
}

// HERMES_HOT: per-packet dequeue onto the wire.
void Port::try_transmit() {
  if (busy_) return;
  if (hi_.empty() && lo_.empty()) return;
  busy_ = true;
  PacketRing& q = hi_.empty() ? lo_ : hi_;
  const PacketHandle h = q.front_handle();
  const std::uint32_t bytes = q.front_bytes();
  q.pop();
  backlog_bytes_ -= bytes;
  if (pool_) pool_->release(bytes);
  dre_.add(bytes, simulator_.now().ns());
  ++stats_.tx_packets;
  stats_.tx_bytes += bytes;
  if (rec_) [[unlikely]] record_packet(obs::PacketEvent::kTransmit, arena_[h]);
  const auto tx = tx_time_cached(bytes);
  // The packet rides "the wire" until tx + propagation. Its delivery
  // deadline is recorded with the wire entry; the serialization-done
  // event below schedules the batched drain.
  // hermeslint:reserve-audited(wire ring doubles geometrically; bounded by in-flight packets)
  wire_.push(h, bytes, simulator_.now() + tx + config_.prop_delay);
  simulator_.after<&Port::finish_transmit>(tx, this);
}

// HERMES_HOT: serialization-done continuation (one per packet). Schedules
// the wire drain for this packet's delivery deadline — unless a drain is
// already scheduled for exactly that time, in which case the pending
// drain will deliver this packet too (equal-deadline batch; deadlines
// are nondecreasing, so equality is the only coalescible case).
void Port::finish_transmit() {
  busy_ = false;
  const sim::SimTime due = simulator_.now() + config_.prop_delay;
  if (due != drain_scheduled_for_) {
    drain_scheduled_for_ = due;
    simulator_.after<&Port::drain_wire>(config_.prop_delay, this);
  }
  try_transmit();
}

// HERMES_HOT: propagation-done continuation — delivers every wire packet
// whose deadline has arrived (usually one; more when serialization was
// fast enough that several packets share a delivery time).
void Port::drain_wire() {
  const sim::SimTime now = simulator_.now();
  while (!wire_.empty() && wire_.front_due() <= now) {
    const PacketHandle h = wire_.front_handle();
    wire_.pop();
    peer_->receive(h, peer_in_port_);
  }
  // Every remaining entry's (strictly future) deadline has its own drain
  // pending; once the wire empties, drop the coalescing watermark so a
  // deadline landing exactly on a fired drain's time reschedules.
  if (wire_.empty()) drain_scheduled_for_ = sim::nsec(-1);
}

}  // namespace hermes::net
