#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "hermes/lb/load_balancer.hpp"
#include "hermes/net/packet.hpp"
#include "hermes/net/fabric.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/transport/tcp_config.hpp"

namespace hermes::transport {

/// Receiver half of a TCP/DCTCP flow: cumulative ACK generation with
/// per-packet ECN echo (DCTCP-style immediate echo) and an optional
/// reordering buffer that masks spray-induced reordering (Presto*).
///
/// ACKs retrace the data packet's path in reverse at high priority, as the
/// paper's testbed does for accurate RTT measurement (§4).
class TcpReceiver {
 public:
  using SendFn = std::function<void(net::Packet)>;

  TcpReceiver(sim::Simulator& simulator, net::Fabric& topo, lb::LoadBalancer& lb,
              TcpConfig config, std::uint64_t flow_id, std::int32_t flow_src,
              std::int32_t flow_dst, SendFn send);

  void on_data(const net::Packet& p);

  [[nodiscard]] std::uint64_t rcv_nxt() const { return rcv_nxt_; }
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_received_; }
  [[nodiscard]] std::uint64_t duplicate_bytes() const { return duplicate_bytes_; }

 private:
  /// ACK everything received so far, echoing `data`'s CE mark, send
  /// time and path.
  void send_ack(const net::Packet& data);
  void fire_held_ack();

  sim::Simulator& simulator_;
  net::Fabric& topo_;
  lb::LoadBalancer& lb_;
  TcpConfig config_;
  std::uint64_t flow_id_;
  std::int32_t flow_src_;
  std::int32_t flow_dst_;
  SendFn send_;

  std::uint64_t rcv_nxt_ = 0;
  std::map<std::uint64_t, std::uint64_t> ooo_;  ///< [seq, end) of buffered data
  std::uint64_t bytes_received_ = 0;
  std::uint64_t duplicate_bytes_ = 0;
  std::uint64_t next_ack_id_ = 0;

  /// FIFO of data packets whose (duplicate) ACKs are held by the
  /// reorder mask. The hold is a constant, so the pending events fire
  /// in push order and each event needs only `this`: an event record
  /// carries an object and one 64-bit argument, not a ~112-byte Packet.
  /// Grows to the reorder window's high-water mark, then recycles.
  std::vector<net::Packet> held_;
  std::size_t held_head_ = 0;
};

}  // namespace hermes::transport
