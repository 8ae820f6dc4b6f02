#pragma once

#include <cstdint>
#include <functional>

#include "hermes/lb/flow_ctx.hpp"
#include "hermes/lb/load_balancer.hpp"
#include "hermes/net/fabric.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::transport {

/// Constant-bit-rate UDP source (used by the §2.2.2 microbenchmarks, e.g.
/// the 9 Gbps competitor in Example 2). Paths are chosen through the same
/// load balancer interface as TCP traffic.
class UdpSource {
 public:
  using SendFn = std::function<void(net::Packet)>;

  UdpSource(sim::Simulator& simulator, net::Fabric& topo, lb::LoadBalancer& lb,
            std::uint64_t flow_id, std::int32_t src, std::int32_t dst, double rate_bps,
            std::uint32_t payload_bytes, SendFn send)
      : simulator_{simulator},
        topo_{topo},
        lb_{lb},
        src_{src},
        dst_{dst},
        rate_bps_{rate_bps},
        payload_{payload_bytes},
        send_{std::move(send)} {
    ctx_.flow_id = flow_id;
    ctx_.src = src;
    ctx_.dst = dst;
    ctx_.src_leaf = topo.leaf_of(src);
    ctx_.dst_leaf = topo.leaf_of(dst);
  }

  void start() {
    running_ = true;
    emit();
  }
  void stop() {
    running_ = false;
    timer_.cancel();
  }

  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }

 private:
  void emit() {
    if (!running_) return;
    net::Packet p;
    p.id = (ctx_.flow_id << 20) | packets_sent_;
    p.flow_id = ctx_.flow_id;
    p.src = src_;
    p.dst = dst_;
    p.type = net::PacketType::kUdp;
    p.payload = payload_;
    p.size = payload_ + net::kHeaderBytes;
    p.ect = false;

    const int path = lb_.select_path(ctx_, p);
    ctx_.current_path = path;
    ctx_.has_sent = true;
    ctx_.last_send = simulator_.now();
    ctx_.bytes_sent += payload_;
    ctx_.rate_dre.add(p.size, simulator_.now().ns());
    p.path_id = path;
    p.route = topo_.forward_route(src_, dst_, path);
    send_(std::move(p));
    ++packets_sent_;

    const auto gap = sim::SimTime::from_seconds((payload_ + net::kHeaderBytes) * 8.0 / rate_bps_);
    timer_ = simulator_.timer_after<&UdpSource::emit>(gap, this);
  }

  sim::Simulator& simulator_;
  net::Fabric& topo_;
  lb::LoadBalancer& lb_;
  std::int32_t src_;
  std::int32_t dst_;
  double rate_bps_;
  std::uint32_t payload_;
  SendFn send_;

  lb::FlowCtx ctx_;
  bool running_ = false;
  std::uint64_t packets_sent_ = 0;
  sim::EventQueue::Handle timer_;
};

}  // namespace hermes::transport
