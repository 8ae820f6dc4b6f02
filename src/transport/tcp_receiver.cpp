#include "hermes/transport/tcp_receiver.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace hermes::transport {

TcpReceiver::TcpReceiver(sim::Simulator& simulator, net::Fabric& topo, lb::LoadBalancer& lb,
                         TcpConfig config, std::uint64_t flow_id, std::int32_t flow_src,
                         std::int32_t flow_dst, SendFn send)
    : simulator_{simulator},
      topo_{topo},
      lb_{lb},
      config_{config},
      flow_id_{flow_id},
      flow_src_{flow_src},
      flow_dst_{flow_dst},
      send_{std::move(send)} {}

void TcpReceiver::on_data(const net::Packet& p) {
  lb_.on_data_arrival(p);

  const std::uint64_t seq = p.seq;
  const std::uint64_t end = seq + p.payload;

  if (end <= rcv_nxt_) {
    // Entirely old data (spurious retransmission): re-ACK.
    duplicate_bytes_ += p.payload;
    send_ack(p);
    return;
  }

  if (seq <= rcv_nxt_) {
    // In-order (possibly partially old): advance and merge buffered data.
    bytes_received_ += end - std::max(seq, rcv_nxt_);
    rcv_nxt_ = std::max(rcv_nxt_, end);
    while (!ooo_.empty() && ooo_.begin()->first <= rcv_nxt_) {
      rcv_nxt_ = std::max(rcv_nxt_, ooo_.begin()->second);
      ooo_.erase(ooo_.begin());
    }
    send_ack(p);
    return;
  }

  // Out of order: buffer it.
  bytes_received_ += p.payload;
  auto [it, inserted] = ooo_.emplace(seq, end);
  if (!inserted) it->second = std::max(it->second, end);

  if (!config_.reorder_buffer) {
    send_ack(p);  // immediate duplicate ACK
    return;
  }
  // Reordering mask: hold the ACK briefly. If the gap fills in the
  // meantime the deferred ACK is cumulative and no dupACK ever appears;
  // a genuine loss still surfaces as dupACKs after the hold expires.
  // hermeslint:reserve-audited(held_ grows to the reorder window high-water mark once, then recycles)
  held_.push_back(p);
  simulator_.after<&TcpReceiver::fire_held_ack>(config_.reorder_hold, this);
}

// Deferred duplicate ACK from the reorder mask. The hold delay is
// constant, so events fire in exactly the order packets were held.
void TcpReceiver::fire_held_ack() {
  net::Packet cause = held_[held_head_++];
  if (held_head_ == held_.size()) {
    held_.clear();
    held_head_ = 0;
  }
  send_ack(cause);
}

void TcpReceiver::send_ack(const net::Packet& data) {
  net::Packet ack;
  ack.id = (flow_id_ << 20) | (0x80000 + next_ack_id_++);
  ack.flow_id = flow_id_;
  ack.src = flow_dst_;  // the ACK originates at the flow's destination
  ack.dst = flow_src_;
  ack.type = net::PacketType::kAck;
  ack.size = net::kAckBytes;
  ack.ack = rcv_nxt_;
  ack.ece = data.ce;
  ack.ect = false;
  ack.ts_echo = data.ts_sent;
  ack.path_id = data.path_id;
  ack.priority = 1;  // ACKs ride the high-priority queue (§4)
  ack.route = topo_.reverse_route(flow_src_, flow_dst_, data.path_id);
  lb_.decorate_ack(data, ack);
  send_(std::move(ack));
}

}  // namespace hermes::transport
