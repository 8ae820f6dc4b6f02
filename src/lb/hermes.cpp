#include "hermes/lb/hermes.hpp"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "hermes/obs/metrics.hpp"
#include "hermes/obs/records.hpp"

namespace hermes::lb {

HermesLb::HermesLb(sim::Simulator& simulator, net::Fabric& topo, HermesConfig config)
    : HermesLb{simulator, topo, config, topo.leaves_of_shard(0)} {}

HermesLb::HermesLb(sim::Simulator& simulator, net::Fabric& topo, HermesConfig config,
                   std::vector<int> source_leaves)
    : simulator_{simulator},
      topo_{topo},
      config_{config},
      // The engine draws its tie-break stream from the simulator's seed
      // lattice with the same salt the pre-extraction implementation
      // forked, so decision sequences are unchanged.
      engine_{config.engine_config(topo.host_rate_bps()), topo.num_leaves(),
              std::move(source_leaves), simulator.rng_seed(0x4E14E5)},
      probing_(engine_.owned_groups().size() * static_cast<std::size_t>(topo.num_leaves())) {
  engine_.set_sink(this);
}

engine::PathSet& HermesLb::pair(int src_leaf, int dst_leaf) {
  engine::PathSet& ps = engine_.path_set(src_leaf, dst_leaf);
  ps.ensure(topo_.paths_between_leaves(src_leaf, dst_leaf).size());
  return ps;
}

engine::PathState& HermesLb::path_state(int src_leaf, int dst_leaf, int local_index) {
  pair(src_leaf, dst_leaf);  // size the pair from the fabric first
  return engine_.path_state(src_leaf, dst_leaf, local_index);
}

engine::PathType HermesLb::path_type(int src_leaf, int dst_leaf, int local_index) {
  return path_state(src_leaf, dst_leaf, local_index).characterize(engine_.config());
}

bool HermesLb::blackholed(std::int32_t src_host, std::int32_t dst_host, int local_index) const {
  return engine_.blackholed(topo_.leaf_of(src_host), topo_.leaf_of(dst_host), src_host, dst_host,
                            local_index, simulator_.now().ns());
}

int HermesLb::sampled_paths(int src_leaf, int dst_leaf) {
  pair(src_leaf, dst_leaf);
  return engine_.sampled_paths(src_leaf, dst_leaf);
}

engine::FlowView HermesLb::make_view(const FlowCtx& flow) const {
  engine::FlowView v;
  v.flow_id = flow.flow_id;
  v.src = flow.src;
  v.dst = flow.dst;
  v.src_group = flow.src_leaf;
  v.dst_group = flow.dst_leaf;
  v.bytes_sent = flow.bytes_sent;
  v.cur_local = flow.current_path;
  v.has_sent = flow.has_sent;
  v.timeout_pending = flow.timeout_pending;
  v.has_rerouted = flow.has_rerouted;
  v.last_reroute = flow.last_reroute.ns();
  // Lazy flow rate r_f: the engine evaluates it only when a decision
  // needs the R gate or a decision record is being emitted.
  v.rate_ctx = &flow;
  v.rate_fn = [](const void* ctx, engine::TimeNs now) {
    return static_cast<const FlowCtx*>(ctx)->rate_bps(sim::SimTime::nanoseconds(now));
  };
  return v;
}

int HermesLb::select_path(FlowCtx& flow, const net::Packet& pkt) {
  if (flow.intra_rack()) return -1;
  pair(flow.src_leaf, flow.dst_leaf);
  if (!flow.counted_live) {
    flow.counted_live = true;
    ++probing(flow.src_leaf, flow.dst_leaf).live_flows;
  }

  engine::FlowView view = make_view(flow);
  const int chosen = engine_.decide(view, pkt.size, simulator_.now().ns());
  // Copy the engine's flow-flag mutations back into the shared context.
  flow.timeout_pending = view.timeout_pending;
  flow.has_rerouted = view.has_rerouted;
  flow.last_reroute = sim::SimTime::nanoseconds(view.last_reroute);
  return chosen;
}

void HermesLb::on_ack(FlowCtx& flow, const net::Packet& ack) {
  if (flow.intra_rack() || ack.path_id < 0) return;
  pair(flow.src_leaf, flow.dst_leaf);
  const bool has_rtt = ack.ts_echo > sim::SimTime::zero();
  engine_.on_ack(flow.src_leaf, flow.dst_leaf, ack.path_id, flow.src, flow.dst, has_rtt,
                 has_rtt ? (simulator_.now() - ack.ts_echo).ns() : 0, ack.ece);
}

void HermesLb::on_timeout(FlowCtx& flow) {
  if (flow.intra_rack() || flow.current_path < 0) return;
  pair(flow.src_leaf, flow.dst_leaf);
  const engine::FlowView view = make_view(flow);
  engine_.on_timeout(view, simulator_.now().ns());
}

void HermesLb::on_retransmit(FlowCtx& flow, int path_id) {
  if (flow.intra_rack() || path_id < 0) return;
  pair(flow.src_leaf, flow.dst_leaf);
  engine_.on_retransmit(flow.src_leaf, flow.dst_leaf, path_id, simulator_.now().ns());
}

void HermesLb::on_flow_complete(FlowCtx& flow) {
  if (!flow.counted_live) return;
  flow.counted_live = false;
  PairProbing& p = probing(flow.src_leaf, flow.dst_leaf);
  assert(p.live_flows > 0 && "a flow completed that select_path never counted");
  --p.live_flows;
}

void HermesLb::enable_probing(std::function<void(int, net::Packet)> raw_send) {
  raw_send_ = std::move(raw_send);
  if (!config_.probing_enabled) return;
  simulator_.after<&HermesLb::probe_tick>(config_.probe_interval, this);
}

void HermesLb::probe_tick() {
  // Power-of-two-choices probing (§3.1.3): per rack pair and interval,
  // probe two random paths plus the previously observed best path. Draws
  // come from the engine's RNG — the same stream its tie-breaking uses —
  // preserving the pre-extraction draw order. A pair skipped here (the
  // class comment says which) draws nothing.
  const bool every_pair = topo_.num_pods() == 1;
  for (const int a : engine_.owned_groups()) {
    for (int b = 0; b < engine_.num_groups(); ++b) {
      if (a == b) continue;
      PairProbing& probe = probing(a, b);
      if (!every_pair && probe.live_flows == 0) continue;
      const auto& paths = topo_.paths_between_leaves(a, b);
      engine::PathSet& ps = pair(a, b);
      const std::size_t n = paths.size();
      const int r1 = static_cast<int>(engine_.rng().next(n));
      int r2 = static_cast<int>(engine_.rng().next(n));
      if (n > 1 && r2 == r1) r2 = static_cast<int>((static_cast<std::size_t>(r2) + 1) % n);
      send_probe(probe, a, b, r1);
      if (r2 != r1) send_probe(probe, a, b, r2);
      if (ps.best_idx >= 0 && ps.best_idx != r1 && ps.best_idx != r2 &&
          ps.best_idx < static_cast<int>(n)) {
        send_probe(probe, a, b, ps.best_idx);
      }
    }
  }
  simulator_.after<&HermesLb::probe_tick>(config_.probe_interval, this);
}

void HermesLb::send_probe(PairProbing& target, int src_leaf, int dst_leaf, int path) {
  const int agent_src = topo_.first_host_of_leaf(src_leaf);
  const int agent_dst = topo_.first_host_of_leaf(dst_leaf);

  net::Packet p;
  p.id = 0xF0000000ULL + next_probe_id_;
  p.probe_id = next_probe_id_++;
  p.type = net::PacketType::kProbe;
  p.src = agent_src;
  p.dst = agent_dst;
  p.size = net::kProbeBytes;
  p.ect = true;  // probes must be markable to observe ECN state
  p.ts_sent = simulator_.now();
  p.path_id = path;
  p.priority = 0;  // ride the data queue so the probe *sees* congestion
  p.route = topo_.forward_route(agent_src, agent_dst, p.path_id);

  ++target.probes_sent;
  ++probe_stats_.probes_sent;
  probe_stats_.probe_bytes += p.size;
  raw_send_(agent_src, std::move(p));
}

void HermesLb::on_probe_reply(const net::Packet& reply) {
  if (reply.path_id < 0) return;
  ++probe_stats_.replies_received;
  // The reply retraces the probe, so the probed pair runs from the
  // reply's destination back to its source.
  const int src_leaf = topo_.leaf_of(reply.dst);
  const int dst_leaf = topo_.leaf_of(reply.src);
  pair(src_leaf, dst_leaf);
  engine_.feed_probe_sample(src_leaf, dst_leaf, reply.path_id,
                            (simulator_.now() - reply.ts_echo).ns(), reply.ece);
}

void HermesLb::on_decision(const engine::DecisionEvent& ev) {
  if (ev.kind == engine::DecisionKind::kLatchExpire && latch_hist_ != nullptr) {
    latch_hist_->observe(ev.latch_lifetime_us);
  }
  if (rec_ == nullptr || !ev.has_flow) return;
  obs::TraceRecord r = obs::make_record(obs::RecordKind::kDecision,
                                        static_cast<std::uint64_t>(ev.time_ns), name_id_,
                                        ev.flow_id);
  r.u.decision.delta_rtt_ns = ev.delta_rtt_ns;
  r.u.decision.sent_bytes = ev.sent_bytes;
  r.u.decision.rate_bps = ev.rate_bps;
  r.u.decision.delta_ecn = ev.delta_ecn;
  r.u.decision.src_leaf = ev.src_group;
  r.u.decision.dst_leaf = ev.dst_group;
  r.u.decision.from_path = ev.from_path;
  r.u.decision.to_path = ev.to_path;
  r.u.decision.kind = static_cast<std::uint8_t>(ev.kind);
  r.u.decision.from_cond = ev.from_cond;
  r.u.decision.to_cond = ev.to_cond;
  rec_->append(r);
}

void HermesLb::register_metrics(obs::MetricsRegistry& reg) {
  reg.counter_fn("lb.initial_placements", [this] { return engine_.stats().initial_placements; });
  reg.counter_fn("lb.timeout_escapes", [this] { return engine_.stats().timeout_escapes; });
  reg.counter_fn("lb.failure_escapes", [this] { return engine_.stats().failure_escapes; });
  reg.counter_fn("lb.congestion_reroutes",
                 [this] { return engine_.stats().congestion_reroutes; });
  reg.counter_fn("lb.blackhole_latches", [this] { return engine_.stats().blackhole_latches; });
  reg.counter_fn("lb.latch_expiries", [this] { return engine_.stats().latch_expiries; });
  reg.counter_fn("lb.probes_sent", [this] { return probe_stats_.probes_sent; });
  reg.counter_fn("lb.probe_replies", [this] { return probe_stats_.replies_received; });
  reg.counter_fn("lb.probe_bytes", [this] { return probe_stats_.probe_bytes; });
  // Rack pairs the engine holds path state for: engine memory follows
  // this count, not the number of rack pairs.
  reg.counter_fn("lb.sized_pairs", [this] { return engine_.sized_pairs(); });
  latch_hist_ = &reg.histogram("lb.latch_lifetime_us");
}

}  // namespace hermes::lb
