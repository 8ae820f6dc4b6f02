#pragma once

#include <cstddef>
#include <string_view>

#include "hermes/lb/flow_ctx.hpp"
#include "hermes/net/packet.hpp"

namespace hermes::lb {

/// Initial bucket reservation for per-flow state maps kept by schemes.
/// Sized for the concurrent-flow population of the paper's sweeps so the
/// maps never rehash on the packet path (they grow only if a workload
/// keeps more flows in flight than this).
inline constexpr std::size_t kExpectedConcurrentFlows = 1024;

/// Path-selection interface implemented by every scheme (ECMP, DRB,
/// Presto*, LetFlow, CONGA, CLOVE-ECN, Hermes).
///
/// The transport calls select_path() for every outgoing data packet
/// *before* stamping the route, and feeds back the signals each scheme
/// needs: ACK arrival (RTT/ECN), data arrival at the destination side
/// (CONGA's from-leaf table), ACK decoration (CONGA feedback), timeouts
/// and retransmissions (Hermes failure sensing).
///
/// One instance serves the whole fabric. Schemes keep their state keyed by
/// host/leaf exactly as their real implementations would (per-host virtual
/// switch state for edge schemes, per-leaf tables for CONGA), so no scheme
/// gains artificial global knowledge.
class LoadBalancer {
 public:
  virtual ~LoadBalancer() = default;

  /// Choose the fabric path for this packet of `flow`. Returns its index
  /// in paths_between_leaves(flow.src_leaf, flow.dst_leaf), or -1 for
  /// intra-rack flows.
  virtual int select_path(FlowCtx& flow, const net::Packet& pkt) = 0;

  /// Sender-side: an ACK for `flow` arrived (carries echoed timestamps,
  /// ECE, and possibly scheme-specific feedback).
  virtual void on_ack(FlowCtx& flow, const net::Packet& ack) { (void)flow, (void)ack; }

  /// Receiver-side: a data packet arrived at its destination host.
  virtual void on_data_arrival(const net::Packet& data) { (void)data; }

  /// Receiver-side: an ACK for `data` is about to be sent; the scheme may
  /// piggyback feedback on it (CONGA).
  virtual void decorate_ack(const net::Packet& data, net::Packet& ack) { (void)data, (void)ack; }

  /// Sender-side: the flow's retransmission timer fired.
  virtual void on_timeout(FlowCtx& flow) { (void)flow; }

  /// Sender-side: a segment of `flow` is about to be retransmitted.
  /// `path_id` is flow.current_path, the path of the flow's latest
  /// transmission, which need not be the one the lost copy took: after a
  /// reroute, a loss on the old path is charged to the new one.
  virtual void on_retransmit(FlowCtx& flow, int path_id) { (void)flow, (void)path_id; }

  /// Sender-side: the flow completed (all bytes acknowledged). A source
  /// that never completes (transport::UdpSource) never calls it, so its
  /// flow stays live for schemes that count live flows.
  virtual void on_flow_complete(FlowCtx& flow) { (void)flow; }

  [[nodiscard]] virtual std::string_view name() const = 0;
};

}  // namespace hermes::lb
