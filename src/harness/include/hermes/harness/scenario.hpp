#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hermes/lb/hermes.hpp"
#include "hermes/faults/fault_plan.hpp"
#include "hermes/faults/fault_scheduler.hpp"
#include "hermes/faults/invariant_checker.hpp"
#include "hermes/lb/clove.hpp"
#include "hermes/lb/conga.hpp"
#include "hermes/lb/drill.hpp"
#include "hermes/lb/flowbender.hpp"
#include "hermes/lb/letflow.hpp"
#include "hermes/lb/load_balancer.hpp"
#include "hermes/net/fabric.hpp"
#include "hermes/net/fattree.hpp"
#include "hermes/net/topology.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/metrics.hpp"
#include "hermes/obs/string_table.hpp"
#include "hermes/sim/sharded_executor.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/stats/fct.hpp"
#include "hermes/transport/host_stack.hpp"
#include "hermes/transport/tcp_config.hpp"

namespace hermes::harness {

/// The load balancing schemes the paper evaluates (§5.1), plus the two
/// extra baselines of Table 1 (FlowBender was implemented but its results
/// omitted by the paper; DRILL was related work).
enum class Scheme {
  kEcmp,
  kDrb,
  kPrestoStar,  ///< per-packet spray + reordering buffer, weighted if asym.
  kLetFlow,
  kConga,
  kCloveEcn,
  kHermes,
  kFlowBender,
  kDrill,
  kWcmp,
};

[[nodiscard]] const char* to_string(Scheme s);

/// Flight-recorder settings. Off by default: with `enabled == false` no
/// recorder exists and every instrumented hot-path site reduces to one
/// predicted-not-taken null check (measured at zero extra allocations by
/// bench_core_micro). The metrics registry is independent of this flag —
/// pull-model counters cost nothing until snapshotted.
struct ObsConfig {
  bool enabled = false;
  /// Record per-packet port lifecycle events (the bulk of trace volume).
  /// Decision/fault records are always on when `enabled`.
  bool trace_packets = true;
};
/// Records each shard's ring keeps: the *last* kRingCapacity records —
/// black-box semantics.
inline constexpr std::size_t kRingCapacity = 1u << 16;

/// What every run shares whatever its fabric: scheme and transport,
/// scheme parameters, seed, time cap, timed faults and observability.
struct RunConfig {
  Scheme scheme = Scheme::kEcmp;
  transport::TcpConfig tcp;

  // Scheme parameters; zero-valued Hermes RTT thresholds are derived from
  // the fabric via HermesConfig::defaults_for.
  lb::HermesConfig hermes;
  lb::CloveConfig clove;
  lb::LetFlowConfig letflow;
  lb::FlowBenderConfig flowbender;
  bool presto_weighted = true;
  /// 0 = spray per packet (the paper's Presto*); 64KB reproduces the
  /// original Presto flowcell granularity (used by Examples 2/3).
  std::uint32_t presto_cell_bytes = 0;

  std::uint64_t seed = 1;
  /// Wall guard: absolute simulated-time cap. Flows still running when it
  /// is reached are reported as unfinished (blackholed ECMP flows never
  /// finish; the cap is what ends them), and so are flows scheduled to
  /// start after it.
  sim::SimTime max_sim_time = sim::sec(10);

  /// Timed fault events (onset AND recovery) executed mid-run through a
  /// FaultScheduler — dynamic failures, unlike the static
  /// Switch::set_failure calls an experiment makes before traffic starts.
  faults::FaultPlan fault_plan;

  /// Observability (flight recorder) settings for this run.
  ObsConfig obs;
};

/// A leaf-spine run (the paper's fabric) on one simulator, with the
/// options only it offers. CONGA and DRILL read fabric-wide switch state
/// through the concrete net::Topology, and the balancer decorator
/// receives it. The invariant checker walks any net::Fabric, but its
/// checks run on one simulator, so it is offered here only.
struct ScenarioConfig : RunConfig {
  net::TopologyConfig topo;
  lb::CongaConfig conga;
  lb::DrillConfig drill;

  /// Wire an InvariantChecker across the fabric: byte conservation,
  /// bounded queues, and the stuck-flow watchdog, verified after every
  /// fault transition and every `invariant_config.period`.
  bool check_invariants = false;
  faults::InvariantCheckerConfig invariant_config;

  /// Optional decorator wrapped around the built balancer — used by the
  /// microbenchmarks to pin initial placements, and by applications to
  /// substitute entirely custom schemes (see examples/custom_scheme.cpp).
  /// Receives the simulator, the built topology, and the scheme built
  /// from `scheme`; returns the balancer the fabric will actually use.
  std::function<std::unique_ptr<lb::LoadBalancer>(
      sim::Simulator&, net::Topology&, std::unique_ptr<lb::LoadBalancer>)>
      wrap_balancer;
};

/// The composition root used by examples, tests and benches: builds a
/// fabric, per-host transport stacks and the selected load balancer, runs
/// flow workloads, and collects FCT results and metrics.
///
/// A run is split into S shards, each with its own Simulator, balancer,
/// fault scheduler, flight recorder and flow state. A leaf-spine run is
/// the one-shard case: one simulator seeded with `seed`, run straight to
/// the last completion or the cap, records in completion order. A
/// fat-tree run (ShardedScenario) partitions the fabric across S > 1
/// shards that sim::ShardedExecutor runs in barrier rounds, with the
/// fabric's mailbox exchange as the barrier. Per-shard state follows flow
/// ownership: a flow lives entirely in the shard of its source host
/// (sender, receiver-side bookkeeping callbacks, LB decisions and probe
/// state are all keyed by source), so it is only ever touched from that
/// shard's event stream and rounds can run on parallel threads.
///
/// Determinism contract: for a fixed config (including the shard count),
/// results — FCT records, metrics, trace bytes — are identical for any
/// thread count; multi-shard records are merged in ascending flow-id
/// order. Results for different shard counts are each self-consistent but
/// not byte-comparable (cross-switch arrival interleavings legitimately
/// differ).
class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);
  virtual ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Shard 0's simulator: the only one of a leaf-spine run.
  [[nodiscard]] sim::Simulator& simulator() { return *sims_.front(); }
  [[nodiscard]] sim::Simulator& shard_sim(int shard) { return *sims_[shard]; }
  [[nodiscard]] int num_shards() const { return static_cast<int>(sims_.size()); }
  /// The leaf-spine fabric (leaf-spine runs only).
  [[nodiscard]] net::Topology& topology() { return *topo_; }
  [[nodiscard]] lb::LoadBalancer& balancer() { return *lbs_.front(); }
  [[nodiscard]] transport::HostStack& stack(int host_id) { return *stacks_[host_id]; }
  /// The run's settings; a fat-tree run leaves the leaf-spine-only
  /// fields at their defaults.
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  /// The shard-local Hermes instance; null unless the scheme is Hermes.
  [[nodiscard]] lb::HermesLb* hermes(int shard = 0) { return hermes_[shard]; }
  /// Null unless the fault plan touches a switch or link end this shard owns.
  [[nodiscard]] faults::FaultScheduler* fault_scheduler(int shard = 0) {
    return fault_scheds_[shard].get();
  }
  /// Non-null only when check_invariants was set.
  [[nodiscard]] faults::InvariantChecker* invariants() { return checker_.get(); }

  /// Non-null only when config.obs.enabled: the shard's flight recorder,
  /// wired into its ports, balancer and fault scheduler.
  [[nodiscard]] obs::FlightRecorder* recorder(int shard = 0) {
    return recorders_.empty() ? nullptr : recorders_[shard].get();
  }
  /// Always-on metrics registry: sim/net/transport/lb/faults counters are
  /// registered at construction (multi-shard runs sum each shard's series
  /// by name); snapshot in sorted-name order.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  /// Dump the flight recorders to a trace file readable by `hermestrace`
  /// (multi-shard: one merged trace sorted by (time, shard)). Returns
  /// false when observability is off or on I/O failure.
  [[nodiscard]] bool dump_trace(const std::string& path) const;

  /// Schedule a list of flows (e.g. from workload::generate_poisson_traffic);
  /// each is owned by (scheduled on, completed in) its source host's shard.
  void add_flows(const std::vector<transport::FlowSpec>& flows);
  /// Schedule a single flow; returns its id.
  std::uint64_t add_flow(std::int32_t src, std::int32_t dst, std::uint64_t size,
                         sim::SimTime start);

  /// Run until every scheduled flow finishes or max_sim_time is reached;
  /// returns FCT statistics (unfinished flows included as such).
  stats::FctCollector run();
  /// Run for a fixed simulated duration (microbenchmarks / traces).
  void run_for(sim::SimTime duration);

  /// Flows of a shard currently in flight, in ascending flow-id order, so
  /// anything that feeds results or reports can iterate it directly.
  [[nodiscard]] const std::map<std::uint64_t, transport::FlowSpec>& active_flows(
      int shard = 0) const {
    return shard_states_[static_cast<std::size_t>(shard)].live;
  }
  [[nodiscard]] std::uint64_t next_flow_id() { return next_flow_id_++; }

  /// Executor facts from the last run() (multi-shard runs only).
  [[nodiscard]] const sim::ShardedExecutor::Stats& executor_stats() const { return exec_stats_; }
  [[nodiscard]] unsigned threads_used() const { return threads_used_; }
  /// Events processed across every shard.
  [[nodiscard]] std::uint64_t events_processed() const;

 protected:
  /// A fat-tree run over clamp(num_shards, 1, k) shards; `threads` feeds
  /// the executor (0 = sim::resolve_threads, capped at the shard count).
  Scenario(const RunConfig& run, net::FatTreeConfig fabric, int num_shards, unsigned threads);

  /// Fat-tree runs: the fabric, for the executor (lookahead, boundary
  /// exchange) and the sharding.* metrics.
  net::FatTree* fat_tree_ = nullptr;

 private:
  /// One shard's flows: everything scheduled on it (in add order), which
  /// of those have started, the ones in flight, and their results.
  struct ShardState {
    std::size_t pending = 0;  ///< scheduled, not yet completed
    std::vector<transport::FlowSpec> scheduled;
    std::vector<bool> started;
    std::map<std::uint64_t, transport::FlowSpec> live;
    stats::FctCollector collector;  ///< completed, then harvested at the cap
  };

  /// Everything after the simulators and the fabric exist.
  void build();
  [[nodiscard]] std::unique_ptr<lb::LoadBalancer> make_balancer(int shard);
  void wire_faults();
  void wire_observability();
  /// Start flow `index` of `shard`: the shard in the high 32 bits.
  void start_flow(std::uint64_t shard_and_index);
  /// Run every shard to `t_end` (or the last completion).
  void advance(sim::SimTime t_end);
  /// Record the shard's unfinished flows at the time cap.
  void harvest(int shard);
  [[nodiscard]] int shard_of_host(int host_id) const;

  ScenarioConfig config_;
  unsigned threads_ = 1;  ///< executor threads requested by a fat-tree run
  // one Simulator per shard; index only by shard id
  std::vector<std::unique_ptr<sim::Simulator>> sims_;
  std::unique_ptr<net::Fabric> fabric_;
  net::Topology* topo_ = nullptr;  ///< leaf-spine runs: the fabric itself
  // one balancer per shard
  std::vector<std::unique_ptr<lb::LoadBalancer>> lbs_;
  // shard-local Hermes instances (owned by lbs_)
  std::vector<lb::HermesLb*> hermes_;
  std::vector<std::unique_ptr<transport::HostStack>> stacks_;  ///< per host
  std::unique_ptr<faults::InvariantChecker> checker_;
  // per-shard fault scheduler, may be null
  std::vector<std::unique_ptr<faults::FaultScheduler>> fault_scheds_;
  obs::StringTable trace_names_;  ///< shared by every shard recorder
  // per-shard flight recorder
  std::vector<std::unique_ptr<obs::FlightRecorder>> recorders_;
  sim::ShardedExecutor::Stats exec_stats_;
  unsigned threads_used_ = 1;
  // per-shard mutable run state; a wrong index here is
  // a cross-shard data race under the parallel executor
  std::vector<ShardState> shard_states_;
  // per-shard registries of a multi-shard run, summed
  // into metrics_ by name (a one-shard run registers into metrics_)
  std::vector<obs::MetricsRegistry> shard_metrics_;
  obs::MetricsRegistry metrics_;  ///< after everything its readers read
  std::uint64_t next_flow_id_ = 1'000'000;  // manual flows; workloads use small ids
};

}  // namespace hermes::harness
