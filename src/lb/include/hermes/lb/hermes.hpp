#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "hermes/engine/engine.hpp"
#include "hermes/lb/load_balancer.hpp"
#include "hermes/net/fabric.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/metrics.hpp"
#include "hermes/obs/records.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/sim/time.hpp"

namespace hermes::lb {

/// Hermes parameters (Table 4) in the simulator's vocabulary: SimTime
/// durations and a rate gate expressed as a *fraction* of the host link
/// rate. `defaults_for(topology)` derives the RTT thresholds from the
/// fabric's base RTT and one-hop delay exactly as the paper prescribes
/// (§3.3):
///   T_RTT_low  = base RTT + 20..40us          (default +30us)
///   T_RTT_high = base RTT + 1.5 x one-hop delay
///   Delta_RTT  = one-hop delay
/// where one-hop delay = ECN marking threshold / link capacity.
/// engine_config() lowers this into the environment-neutral
/// engine::Config (absolute nanoseconds and bits/second).
struct HermesConfig {
  // Congestion sensing thresholds.
  double t_ecn = 0.40;                   ///< ECN fraction of a congested path
  sim::SimTime t_rtt_low{};              ///< below: lightly loaded
  sim::SimTime t_rtt_high{};             ///< above (with ECN): congested
  // "Notably better" margins for cautious rerouting.
  sim::SimTime delta_rtt{};
  double delta_ecn = 0.05;
  // Flow-status gates for cautious rerouting.
  double rate_threshold_frac = 0.30;     ///< R, fraction of host link rate
  std::uint64_t sent_threshold_bytes = 600 * 1024;  ///< S

  // Active probing (simulator-side concern; the engine only consumes the
  // resulting samples via feed_probe_sample).
  sim::SimTime probe_interval = sim::usec(500);

  // Failure sensing (thresholds: engine::kBlackholeTimeouts,
  // engine::kRetxThreshold, engine::kRetxEpoch).
  /// A random-drop latch expires after this long and must be re-confirmed
  /// by fresh evidence. A truly failing switch re-latches within one tau;
  /// a congestion-burst false positive self-heals. 0 = latch forever.
  sim::SimTime failure_expiry = sim::msec(100);

  /// Minimum spacing between congestion-triggered reroutes of one flow.
  /// Guards against path bouncing when the congestion a flow senses is
  /// actually at its destination host (every alternative looks "notably
  /// better" through rack-level probe state but is not). Failure- and
  /// timeout-triggered switches are never delayed.
  sim::SimTime reroute_min_gap = sim::msec(2);

  // Feature toggles (ablations of Fig. 18; §5.4 TCP mode).
  bool probing_enabled = true;
  bool rerouting_enabled = true;   ///< reroute ongoing flows on congestion
  bool failure_sensing = true;
  bool use_ecn = true;             ///< false: sense with RTT only (plain TCP)

  /// Recommended settings for a concrete fabric.
  [[nodiscard]] static HermesConfig defaults_for(const net::Fabric& topo) {
    HermesConfig c;
    const auto base = topo.base_rtt();
    const auto hop = topo.one_hop_delay();
    c.t_rtt_low = base + sim::usec(30);
    c.t_rtt_high = base + sim::SimTime::nanoseconds(hop.ns() * 3 / 2);
    c.delta_rtt = hop;
    return c;
  }

  /// Lower into the engine's environment-neutral parameter set.
  /// `host_rate_bps` converts the fractional rate gate to absolute.
  [[nodiscard]] engine::Config engine_config(double host_rate_bps) const {
    engine::Config e;
    e.t_ecn = t_ecn;
    e.t_rtt_low = t_rtt_low.ns();
    e.t_rtt_high = t_rtt_high.ns();
    e.delta_rtt = delta_rtt.ns();
    e.delta_ecn = delta_ecn;
    e.reroute_rate_limit_bps = rate_threshold_frac * host_rate_bps;
    e.sent_threshold_bytes = sent_threshold_bytes;
    e.failure_expiry = failure_expiry.ns();
    e.reroute_min_gap = reroute_min_gap.ns();
    e.rerouting_enabled = rerouting_enabled;
    e.failure_sensing = failure_sensing;
    e.use_ecn = use_ecn;
    return e;
  }
};

/// Counters for the probing/visibility analysis (Table 6).
struct ProbeStats {
  std::uint64_t probes_sent = 0;
  std::uint64_t replies_received = 0;
  std::uint64_t probe_bytes = 0;
};

/// Hermes in the simulator: a thin adapter binding engine::Engine — which
/// owns all of Algorithm 2's sensing and decision state — to the
/// simulator's fabric, clock, flow contexts, probing transport, and
/// observability (flight recorder + metrics).
///
/// State is kept per ordered rack pair, matching the paper's deployment
/// model where one hypervisor per rack acts as the probe agent and shares
/// path information with every hypervisor under the same rack (§3.1.3).
/// Data-plane signals (ACK RTT/ECN, timeouts, retransmissions) and probe
/// replies feed the same per-pair engine PathSet tables.
///
/// The adapter implements engine::DecisionSink: every Algorithm 2
/// decision and latch transition arrives as a DecisionEvent, which it
/// forwards into the flight recorder (when attached) and the
/// latch-lifetime histogram. The sink is always attached, so the engine's
/// observable behavior does not depend on whether recording is on.
class HermesLb final : public LoadBalancer, private engine::DecisionSink {
 public:
  HermesLb(sim::Simulator& simulator, net::Fabric& topo, HermesConfig config);

  // --- lb::LoadBalancer -------------------------------------------------
  int select_path(FlowCtx& flow, const net::Packet& pkt) override;
  void on_ack(FlowCtx& flow, const net::Packet& ack) override;
  void on_timeout(FlowCtx& flow) override;
  void on_retransmit(FlowCtx& flow, int path_id) override;
  [[nodiscard]] std::string_view name() const override { return "hermes"; }

  // --- probing ----------------------------------------------------------
  /// Turn on active probing from the rack agents of `source_leaves`
  /// (ascending). `raw_send(src_host, packet)` must transmit the packet
  /// from that host's NIC; the harness wires it to the rack agents'
  /// HostStacks. Probing runs every config.probe_interval. The harness
  /// runs one HermesLb per shard and passes the leaves that shard owns
  /// (every leaf of a one-shard run), so probes originate — and their
  /// replies return — strictly shard-locally.
  void enable_probing(std::vector<int> source_leaves,
                      std::function<void(int src_host, net::Packet)> raw_send);
  /// Deliver a probe reply arriving at a rack agent.
  void on_probe_reply(const net::Packet& reply);
  [[nodiscard]] const ProbeStats& probe_stats() const { return probe_stats_; }

  // --- observability ----------------------------------------------------
  /// Attach (null detaches) the scenario's flight recorder: every
  /// Algorithm 2 decision and blackhole-latch transition is appended as a
  /// kDecision record carrying the decision inputs (ΔRTT, ΔECN, S, R) and
  /// the path-condition transition.
  void set_recorder(obs::FlightRecorder* rec) {
    rec_ = rec;
    name_id_ = rec != nullptr ? rec->intern("hermes") : 0;
  }
  /// Register "lb.*" decision/probe counters and the latch-lifetime
  /// histogram with the scenario's registry.
  void register_metrics(obs::MetricsRegistry& reg);
  [[nodiscard]] const engine::DecisionStats& decision_stats() const { return engine_.stats(); }

  // --- introspection (tests, traces, benches) ---------------------------
  [[nodiscard]] const HermesConfig& config() const { return config_; }
  /// The embedded decision engine (tests drive conformance checks and
  /// membership churn through it directly).
  [[nodiscard]] engine::Engine& engine() { return engine_; }
  [[nodiscard]] engine::PathState& path_state(int src_leaf, int dst_leaf, int local_index);
  [[nodiscard]] engine::PathType path_type(int src_leaf, int dst_leaf, int local_index);
  [[nodiscard]] bool blackholed(std::int32_t src_host, std::int32_t dst_host,
                                int local_index) const;
  /// Number of distinct paths with at least one sample for a rack pair
  /// (the "visibility" a sender has, Table 6).
  [[nodiscard]] int sampled_paths(int src_leaf, int dst_leaf);

 private:
  // --- engine::DecisionSink ---------------------------------------------
  void on_decision(const engine::DecisionEvent& ev) override;

  /// Size the pair's PathSet to the fabric's path count (outside the
  /// engine's allocation-free decision path) and return it.
  engine::PathSet& pair(int src_leaf, int dst_leaf);
  /// Project the simulator flow context into the engine's view.
  [[nodiscard]] engine::FlowView make_view(const FlowCtx& flow) const;
  void probe_tick();
  void send_probe(int src_leaf, int dst_leaf, int local_idx);

  sim::Simulator& simulator_;
  net::Fabric& topo_;
  HermesConfig config_;
  engine::Engine engine_;

  std::function<void(int, net::Packet)> raw_send_;
  std::vector<int> probe_sources_;  ///< leaves whose rack agents probe
  ProbeStats probe_stats_;
  std::uint64_t next_probe_id_ = 1;

  obs::FlightRecorder* rec_ = nullptr;   ///< null when observability is off
  std::uint32_t name_id_ = 0;            ///< interned "hermes", valid while rec_ set
  obs::Histogram* latch_hist_ = nullptr; ///< latch lifetimes (us), null until registered
};

}  // namespace hermes::lb
