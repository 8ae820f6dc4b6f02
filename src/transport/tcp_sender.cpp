#include "hermes/transport/tcp_sender.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

namespace hermes::transport {

namespace {
constexpr double kInfiniteSsthresh = 1e18;
}

TcpSender::TcpSender(sim::Simulator& simulator, net::Fabric& topo, lb::LoadBalancer& lb,
                     TcpConfig config, FlowSpec spec, SendFn send, CompletionFn on_complete)
    : simulator_{simulator},
      topo_{topo},
      lb_{lb},
      config_{config},
      spec_{spec},
      send_{std::move(send)},
      on_complete_{std::move(on_complete)} {
  ctx_.flow_id = spec_.id;
  ctx_.src = spec_.src;
  ctx_.dst = spec_.dst;
  ctx_.src_leaf = topo_.leaf_of(spec_.src);
  ctx_.dst_leaf = topo_.leaf_of(spec_.dst);
  record_.id = spec_.id;
  record_.size = spec_.size;
  record_.start = spec_.start;
  cwnd_ = static_cast<double>(kInitCwndPkts) * kMss;
  ssthresh_ = kInfiniteSsthresh;
  rto_ = kInitRto;
}

void TcpSender::start() {
  if (started_) return;
  started_ = true;
  if (spec_.size == 0) {
    complete();
    return;
  }
  send_window();
}

// HERMES_HOT: window pump, runs on start and after every ACK.
void TcpSender::send_window() {
  if (finished_) return;
  for (;;) {
    const auto window_limit = snd_una_ + static_cast<std::uint64_t>(cwnd_);
    if (snd_nxt_ >= spec_.size) break;
    const std::uint32_t len =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(kMss, spec_.size - snd_nxt_));
    if (snd_nxt_ + len > window_limit) break;
    transmit_segment(snd_nxt_, len);
    snd_nxt_ += len;
  }
  if (snd_nxt_ > snd_una_ && !rto_timer_.pending()) arm_rto();
}

// HERMES_HOT: builds and routes one data segment (per-packet).
void TcpSender::transmit_segment(std::uint64_t seq, std::uint32_t len) {
  const sim::SimTime now = simulator_.now();
  const bool is_retransmit = seq < max_sent_;

  net::Packet p;
  p.id = (spec_.id << 20) | next_packet_id_++;
  p.flow_id = spec_.id;
  p.src = spec_.src;
  p.dst = spec_.dst;
  p.type = net::PacketType::kData;
  p.payload = len;
  p.size = len + net::kHeaderBytes;
  p.seq = seq;
  p.ect = config_.dctcp;
  p.ts_sent = now;
  p.retransmit = is_retransmit;

  const int path = lb_.select_path(ctx_, p);
  if (path != ctx_.current_path) {
    if (ctx_.has_sent) ++record_.reroutes;
    ctx_.current_path = path;
  }
  p.path_id = path;
  p.route = topo_.forward_route(spec_.src, spec_.dst, path);

  ctx_.has_sent = true;
  ctx_.last_send = now;
  ctx_.rate_dre.add(p.size, now.ns());
  if (seq + len > max_sent_) {
    ctx_.bytes_sent += seq + len - std::max(seq, max_sent_);
    max_sent_ = seq + len;
  }
  ++record_.packets_sent;
  if (is_retransmit) ++record_.packets_retransmitted;

  send_(std::move(p));
}

// HERMES_HOT: per-ACK bookkeeping — cwnd, RTT, dup-ACK, DCTCP alpha.
void TcpSender::on_ack(const net::Packet& ack) {
  if (finished_ || !started_) return;
  lb_.on_ack(ctx_, ack);

  if (ack.ack > snd_una_) {
    const std::uint64_t newly = ack.ack - snd_una_;
    snd_una_ = ack.ack;
    backoffs_ = 0;
    rto_ = kInitRto;

    maybe_update_dctcp(newly, ack.ece);

    if (in_recovery_) {
      if (snd_una_ >= recover_) {
        in_recovery_ = false;
        cwnd_ = ssthresh_;
        dupacks_ = 0;
      } else {
        // NewReno partial ACK: retransmit the next hole, deflate.
        const std::uint32_t len = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(kMss, spec_.size - snd_una_));
        transmit_segment(snd_una_, len);
        cwnd_ = std::max(cwnd_ - static_cast<double>(newly) + kMss,
                         static_cast<double>(kMss));
      }
    } else {
      dupacks_ = 0;
      if (cwnd_ < ssthresh_) {
        cwnd_ += static_cast<double>(newly);  // slow start
      } else {
        cwnd_ += static_cast<double>(kMss) * static_cast<double>(newly) / cwnd_;
      }
      cwnd_ = std::min(cwnd_, static_cast<double>(kMaxCwndBytes));
    }

    if (snd_una_ >= spec_.size) {
      complete();
      return;
    }
    arm_rto();
    send_window();
    return;
  }

  // Duplicate ACK.
  if (snd_nxt_ > snd_una_) {
    ++dupacks_;
    if (in_recovery_) {
      cwnd_ += kMss;  // inflation
      send_window();
    } else if (dupacks_ == kDupackThreshold) {
      enter_fast_recovery();
    }
  }
}

void TcpSender::enter_fast_recovery() {
  in_recovery_ = true;
  recover_ = snd_nxt_;
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * kMss);
  cwnd_ = ssthresh_ + 3.0 * kMss;
  ++record_.fast_retransmits;
  lb_.on_retransmit(ctx_, ctx_.current_path);
  const std::uint32_t len =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(kMss, spec_.size - snd_una_));
  transmit_segment(snd_una_, len);
}

void TcpSender::maybe_update_dctcp(std::uint64_t newly_acked, bool ece) {
  if (!config_.dctcp) return;
  window_acked_ += newly_acked;
  if (ece) window_marked_ += newly_acked;
  if (snd_una_ < window_end_) return;

  const double frac =
      window_acked_ > 0 ? static_cast<double>(window_marked_) / static_cast<double>(window_acked_)
                        : 0.0;
  alpha_ = (1.0 - kDctcpG) * alpha_ + kDctcpG * frac;
  if (window_marked_ > 0 && !in_recovery_) {
    cwnd_ = std::max(cwnd_ * (1.0 - alpha_ / 2.0),
                     static_cast<double>(kMinCwndPkts) * kMss);
    ssthresh_ = cwnd_;  // stay in congestion avoidance after an ECN cut
  }
  window_end_ = snd_nxt_;
  window_acked_ = 0;
  window_marked_ = 0;
}

// HERMES_HOT: runs per ACK — must not touch the event queue in steady
// state (the physical check event below is shared across re-arms).
void TcpSender::arm_rto() {
  if (snd_una_ >= spec_.size) return;
  rto_deadline_ = simulator_.now() + rto_;
  if (!rto_timer_.pending()) {
    rto_timer_ = simulator_.timer_after<&TcpSender::on_rto_check>(rto_, this);
  }
}

// Fires at some past deadline; if ACKs have since pushed the logical
// deadline forward, chase it instead of timing out.
void TcpSender::on_rto_check() {
  if (finished_) return;
  const sim::SimTime now = simulator_.now();
  if (now < rto_deadline_) {
    rto_timer_ = simulator_.timer_after<&TcpSender::on_rto_check>(rto_deadline_ - now, this);
    return;
  }
  on_rto();
}

void TcpSender::on_rto() {
  if (finished_) return;
  ++record_.timeouts;
  ctx_.timeout_pending = true;

  const double flight = static_cast<double>(snd_nxt_ - snd_una_);
  ssthresh_ = std::max(flight / 2.0, 2.0 * kMss);
  cwnd_ = kMss;
  in_recovery_ = false;
  dupacks_ = 0;
  snd_nxt_ = snd_una_;  // go-back-N

  ++backoffs_;
  const auto backed = sim::SimTime::nanoseconds(kInitRto.ns() << std::min(backoffs_, 5u));
  rto_ = std::min(backed, kMaxRto);

  lb_.on_timeout(ctx_);
  lb_.on_retransmit(ctx_, ctx_.current_path);
  arm_rto();
  send_window();
}

void TcpSender::complete() {
  finished_ = true;
  record_.finished = true;
  record_.end = simulator_.now();
  rto_timer_.cancel();
  lb_.on_flow_complete(ctx_);
  if (on_complete_) on_complete_(record_);
}

}  // namespace hermes::transport
