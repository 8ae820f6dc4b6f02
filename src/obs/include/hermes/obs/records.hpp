#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

namespace hermes::obs {

/// What a flight-recorder record describes. Values are part of the trace
/// file format (schema v1) — append only, never renumber. 2 was a
/// queue-backlog sample that nothing wrote; do not reuse it.
enum class RecordKind : std::uint8_t {
  kNone = 0,
  kPacket = 1,    ///< packet lifecycle at a port (enqueue/transmit/drop)
  kFault = 3,     ///< injected fault onset/recovery transition
  kDecision = 4,  ///< Hermes Algorithm 2 decision (placement/reroute/latch)
};

[[nodiscard]] constexpr const char* to_string(RecordKind k) {
  switch (k) {
    case RecordKind::kNone: return "none";
    case RecordKind::kPacket: return "packet";
    case RecordKind::kFault: return "fault";
    case RecordKind::kDecision: return "decision";
  }
  return "?";
}

/// Packet lifecycle events (mirrors net::TraceEvent; duplicated here so
/// the trace format does not depend on net/ headers).
enum class PacketEvent : std::uint8_t { kEnqueue = 0, kTransmit = 1, kDrop = 2 };

[[nodiscard]] constexpr const char* to_string(PacketEvent e) {
  switch (e) {
    case PacketEvent::kEnqueue: return "ENQ";
    case PacketEvent::kTransmit: return "TX";
    case PacketEvent::kDrop: return "DROP";
  }
  return "?";
}

/// Why Hermes (re)placed a flow — Algorithm 2's branches plus the two
/// failure-latch lifecycle events the fig16/fig17 debugging story needs.
enum class DecisionKind : std::uint8_t {
  kInitialPlacement = 0,   ///< line 3: first packet of a flow
  kTimeoutEscape = 1,      ///< line 3: flow had an RTO, pick fresh
  kFailureEscape = 2,      ///< line 3: current path latched failed
  kCongestionReroute = 3,  ///< lines 14-22: notably-better reroute taken
  kBlackholeLatch = 4,     ///< §3.1.2 detector latched (src,dst,path)
  kLatchExpire = 5,        ///< a failure latch expired without re-confirmation
};

[[nodiscard]] constexpr const char* to_string(DecisionKind k) {
  switch (k) {
    case DecisionKind::kInitialPlacement: return "initial-placement";
    case DecisionKind::kTimeoutEscape: return "timeout-escape";
    case DecisionKind::kFailureEscape: return "failure-escape";
    case DecisionKind::kCongestionReroute: return "congestion-reroute";
    case DecisionKind::kBlackholeLatch: return "blackhole-latch";
    case DecisionKind::kLatchExpire: return "latch-expire";
  }
  return "?";
}

/// Path condition codes stored in decision records. Matches the paper's
/// Algorithm 1 characterization; engine::PathType casts to this 1:1
/// (kGood=0, kGray=1, kCongested=2, kFailed=3). 255 = not applicable.
inline constexpr std::uint8_t kPathCondNone = 255;

[[nodiscard]] constexpr const char* path_condition_name(std::uint8_t c) {
  switch (c) {
    case 0: return "good";
    case 1: return "gray";
    case 2: return "congested";
    case 3: return "failed";
    case kPathCondNone: return "-";
  }
  return "?";
}

/// Payload of a RecordKind::kPacket record.
struct PacketPayload {
  std::uint64_t packet_id;
  std::uint64_t seq;
  std::uint32_t size;
  std::uint8_t event;  ///< PacketEvent
  std::uint8_t type;   ///< net::PacketType numeric value
  std::uint8_t ce;     ///< congestion-experienced bit at this point
  std::uint8_t retransmit;
};

/// Payload of a RecordKind::kFault record. `action` mirrors
/// faults::FaultAction's numeric value; `onset` is 1 for a fault turning
/// on (blackhole install, link cut, drop-rate set) and 0 for recovery.
/// The target is named as in faults::FaultEvent.
struct FaultPayload {
  std::int32_t sw;      ///< switch index in tier order; a link's lower switch
  std::int32_t uplink;  ///< uplink ordinal at `sw`; -1 for switch events
  std::uint8_t action;
  std::uint8_t onset;
};

/// Payload of a RecordKind::kDecision record: Algorithm 2's inputs at the
/// moment of the decision. delta_rtt/delta_ecn are (current - chosen),
/// i.e. positive means the chosen path looked better; both are zero when
/// there was no current path (initial placement) or no reroute happened.
struct DecisionPayload {
  std::int64_t delta_rtt_ns;   ///< ΔRTT between current and chosen path
  std::uint64_t sent_bytes;    ///< S: flow bytes sent so far
  double rate_bps;             ///< R: the flow's sending rate estimate
  float delta_ecn;             ///< ΔECN fraction between current and chosen
  std::int16_t src_leaf;
  std::int16_t dst_leaf;
  std::int16_t from_path;      ///< local path index before (-1 = none)
  std::int16_t to_path;        ///< local path index chosen (-1 = none)
  std::uint8_t kind;           ///< DecisionKind
  std::uint8_t from_cond;      ///< path condition of from_path (kPathCondNone if none)
  std::uint8_t to_cond;        ///< path condition of to_path (kPathCondNone if none)
  std::uint8_t pad;
};

/// One fixed-size flight-recorder record. Strictly POD: no pointers, no
/// heap-owning members — records are memcpy'd into the ring and dumped
/// raw to disk (trace format schema v1). The union payload is selected
/// by `kind`; `name` is a StringTable id locating the event (port name,
/// balancer name, fault target).
struct TraceRecord {
  std::uint64_t time_ns;
  std::uint64_t flow_id;
  std::uint32_t name;
  RecordKind kind;
  /// pad[0] carries the originating shard id (stamped by FlightRecorder;
  /// 0 in serial traces, so pre-sharding trace bytes are unchanged).
  /// pad[1..2] are zero.
  std::uint8_t pad[3];
  union {
    PacketPayload packet;
    FaultPayload fault;
    DecisionPayload decision;
  } u;
};

static_assert(sizeof(TraceRecord) == 64, "trace format schema v1 pins 64-byte records");
// The payloads sit in TraceRecord's union, so a heap-owning member in
// any of them deletes the record's copy and fails this too.
static_assert(std::is_trivially_copyable_v<TraceRecord>,
              "records are memcpy'd into the ring and dumped raw");

/// Zeroed record (padding included, so dumped bytes are reproducible),
/// with the common header filled in.
[[nodiscard]] inline TraceRecord make_record(RecordKind kind, std::uint64_t time_ns,
                                             std::uint32_t name, std::uint64_t flow_id) {
  TraceRecord r;
  std::memset(&r, 0, sizeof r);
  r.time_ns = time_ns;
  r.flow_id = flow_id;
  r.name = name;
  r.kind = kind;
  return r;
}

}  // namespace hermes::obs
