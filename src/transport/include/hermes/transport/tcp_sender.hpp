#pragma once

#include <cstdint>
#include <functional>

#include "hermes/lb/flow_ctx.hpp"
#include "hermes/lb/load_balancer.hpp"
#include "hermes/net/packet.hpp"
#include "hermes/net/fabric.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/transport/flow.hpp"
#include "hermes/transport/tcp_config.hpp"

namespace hermes::transport {

/// Sender half of a TCP/DCTCP flow.
///
/// Implements NewReno congestion control (slow start, AIMD congestion
/// avoidance, 3-dupack fast retransmit with NewReno partial-ACK recovery,
/// RTO with exponential backoff) plus the DCTCP extension (per-window ECN
/// fraction alpha, proportional window cut). The RTO starts at kInitRto
/// as is standard in datacenter simulations (§5.1: both initial and
/// minimum RTO are 10ms).
///
/// Path selection is delegated to the LoadBalancer for every transmitted
/// segment; the sender maintains the per-flow context the schemes use
/// (flowlet gap, sent bytes, rate DRE, timeout flag).
class TcpSender {
 public:
  using SendFn = std::function<void(net::Packet)>;
  using CompletionFn = std::function<void(const FlowRecord&)>;

  TcpSender(sim::Simulator& simulator, net::Fabric& topo, lb::LoadBalancer& lb,
            TcpConfig config, FlowSpec spec, SendFn send, CompletionFn on_complete);

  /// Begin transmitting (typically scheduled at spec.start).
  void start();

  /// Process an arriving ACK for this flow.
  void on_ack(const net::Packet& ack);

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const FlowRecord& record() const { return record_; }
  [[nodiscard]] lb::FlowCtx& ctx() { return ctx_; }
  [[nodiscard]] double cwnd_bytes() const { return cwnd_; }
  [[nodiscard]] double dctcp_alpha() const { return alpha_; }
  [[nodiscard]] std::uint64_t snd_una() const { return snd_una_; }

 private:
  void send_window();
  void transmit_segment(std::uint64_t seq, std::uint32_t len);
  void arm_rto();
  void on_rto_check();
  void on_rto();
  void enter_fast_recovery();
  void maybe_update_dctcp(std::uint64_t newly_acked, bool ece);
  void complete();

  sim::Simulator& simulator_;
  net::Fabric& topo_;
  lb::LoadBalancer& lb_;
  TcpConfig config_;
  FlowSpec spec_;
  SendFn send_;
  CompletionFn on_complete_;

  lb::FlowCtx ctx_;
  FlowRecord record_;

  // Sequence space (bytes of payload).
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t max_sent_ = 0;  ///< transmission high-water mark
  std::uint64_t next_packet_id_ = 0;
  double cwnd_ = 0;
  double ssthresh_ = 0;
  std::uint32_t dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;

  // DCTCP state.
  double alpha_ = 0;
  std::uint64_t window_end_ = 0;
  std::uint64_t window_acked_ = 0;
  std::uint64_t window_marked_ = 0;

  // RTO state.
  sim::SimTime rto_{};
  sim::EventQueue::Handle rto_timer_;
  /// Logical RTO expiry. Every ACK re-arms the RTO, but cancelling and
  /// rescheduling a ~10ms-out timer per packet is the single hottest
  /// timer pattern in the simulator; instead the physical timer event is
  /// left in place and merely compares against this deadline when it
  /// fires, rescheduling itself forward if ACKs pushed the deadline out
  /// (a lazy timer). The timeout still takes effect at exactly
  /// last-arm + rto, so behaviour is unchanged.
  sim::SimTime rto_deadline_{};
  std::uint32_t backoffs_ = 0;

  bool started_ = false;
  bool finished_ = false;
};

}  // namespace hermes::transport
