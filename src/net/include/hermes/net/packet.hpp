#pragma once

#include <array>
#include <cstdint>

#include "hermes/sim/time.hpp"

namespace hermes::net {

/// Packet kinds carried by the fabric.
enum class PacketType : std::uint8_t {
  kData,        ///< TCP/DCTCP data segment
  kAck,         ///< TCP/DCTCP acknowledgment
  kUdp,         ///< UDP datagram (CBR traffic in microbenchmarks)
  kProbe,       ///< Hermes active probe (request)
  kProbeReply,  ///< Hermes active probe (reply)
};

namespace detail {
/// Out-of-line hard failure for a route overflow: prints the attempted
/// hop count and aborts. Lives in packet.cpp so the push() fast path
/// inlines to a compare + store.
[[noreturn]] void route_overflow(std::uint8_t len);
}  // namespace detail

/// Maximum hops a source route can name. Two-tier leaf-spine needs 3
/// (src leaf, spine, dst leaf); 6 leaves room for a three-tier Clos
/// (leaf, agg, spine, agg, leaf + host port).
inline constexpr std::uint8_t kMaxRouteHops = 6;

/// Source route: the egress port each *switch* along the path must use.
/// Hosts have a single port, so they need no entry. Two-tier leaf-spine
/// paths need at most 3 entries (src leaf, spine, dst leaf).
struct Route {
  std::array<std::uint8_t, kMaxRouteHops> ports{};
  std::uint8_t len = 0;

  /// Append an egress hop. Overflow is a hard error in every build mode:
  /// a route builder for a deeper topology (e.g. a k=16 fat-tree) must
  /// fail loudly here, not scribble past the 6-slot array.
  void push(std::uint8_t port) {
    if (len >= kMaxRouteHops) [[unlikely]] detail::route_overflow(len);
    ports[len++] = port;
  }
};

/// A network packet, passed by value through the simulated fabric.
/// Fields mirror what a real implementation would encode in headers:
/// ECN bits, the XPath-style explicit path (which doubles as CONGA's
/// lbtag), timestamps for RTT echo, and CONGA's piggybacked congestion
/// metadata.
struct Packet {
  std::uint64_t id = 0;       ///< globally unique packet id
  std::uint64_t flow_id = 0;  ///< owning flow (0 for probes)
  std::int32_t src = -1;      ///< source host id
  std::int32_t dst = -1;      ///< destination host id
  PacketType type = PacketType::kData;

  std::uint32_t size = 0;     ///< bytes on the wire (payload + headers)
  std::uint32_t payload = 0;  ///< transport payload bytes
  std::uint64_t seq = 0;      ///< first payload byte sequence number
  std::uint64_t ack = 0;      ///< cumulative ACK (kAck only)

  // ECN (RFC 3168 / DCTCP)
  bool ect = false;  ///< ECN-capable transport
  bool ce = false;   ///< congestion experienced (set by switches)
  bool ece = false;  ///< ECN echo (set by receiver on ACKs)

  // Explicit routing
  /// The fabric path the load balancer chose, as its index in its leaf
  /// pair's path list (-1 intra-rack). ACKs and probe replies carry the
  /// index of the data packet or probe they answer.
  std::int32_t path_id = -1;
  std::uint8_t hop = 0;       ///< next index into route.ports
  Route route;
  std::int8_t priority = 0;  ///< 0 = best effort, 1 = high (ACKs/probes)

  // Timestamps for RTT measurement (the data packet's send time is echoed
  // back in the ACK, like TCP timestamp options).
  sim::SimTime ts_sent{};
  sim::SimTime ts_echo{};

  // CONGA piggybacked metadata (used only when the CONGA scheme runs).
  std::uint8_t conga_ce = 0;       ///< max quantized DRE along the path
  bool conga_fb_valid = false;     ///< reverse-direction feedback present
  std::uint8_t conga_fb_lbtag = 0;
  std::uint8_t conga_fb_metric = 0;

  std::uint64_t probe_id = 0;  ///< matches probe requests with replies

  /// True for segments that were retransmitted by the sender (diagnostics).
  bool retransmit = false;
};

/// Default maximum segment payload and header overhead, bytes.
inline constexpr std::uint32_t kMss = 1460;
inline constexpr std::uint32_t kHeaderBytes = 40;
inline constexpr std::uint32_t kAckBytes = 64;
inline constexpr std::uint32_t kProbeBytes = 64;

}  // namespace hermes::net
