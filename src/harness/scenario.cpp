#include "hermes/harness/scenario.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hermes/engine/rng.hpp"
#include "hermes/lb/ecmp.hpp"
#include "hermes/lb/spray.hpp"
#include "hermes/lb/wcmp.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/metrics.hpp"
#include "hermes/obs/trace_io.hpp"
#include "hermes/transport/tcp_sender.hpp"

namespace hermes::harness {

namespace {

/// Seed of shard `shard`'s simulator and balancer. A one-shard run uses
/// the scenario seed itself; shards of a multi-shard run take a splitmix64
/// of (seed, shard): fixed for a given (seed, shard), never dependent on
/// the thread count.
std::uint64_t shard_seed(std::uint64_t seed, int shard, int num_shards) {
  if (num_shards == 1) return seed;
  return engine::mix64(seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(shard));
}

/// The "transport.*" series: each sums one per-record quantity over a
/// shard's FlowRecords (completed, then harvested at the cap).
constexpr std::pair<const char*, std::uint64_t (*)(const transport::FlowRecord&)>
    kTransportSeries[] = {
        {"transport.flows_completed",
         [](const transport::FlowRecord& r) -> std::uint64_t { return r.finished; }},
        {"transport.flows_unfinished",
         [](const transport::FlowRecord& r) -> std::uint64_t { return !r.finished; }},
        {"transport.timeouts",
         [](const transport::FlowRecord& r) -> std::uint64_t { return r.timeouts; }},
        {"transport.fast_retransmits",
         [](const transport::FlowRecord& r) -> std::uint64_t { return r.fast_retransmits; }},
        {"transport.packets_sent",
         [](const transport::FlowRecord& r) -> std::uint64_t { return r.packets_sent; }},
        {"transport.packets_retransmitted",
         [](const transport::FlowRecord& r) -> std::uint64_t { return r.packets_retransmitted; }},
        {"transport.reroutes",
         [](const transport::FlowRecord& r) -> std::uint64_t { return r.reroutes; }},
};

}  // namespace

const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::kEcmp: return "ECMP";
    case Scheme::kDrb: return "DRB";
    case Scheme::kPrestoStar: return "Presto*";
    case Scheme::kLetFlow: return "LetFlow";
    case Scheme::kConga: return "CONGA";
    case Scheme::kCloveEcn: return "CLOVE-ECN";
    case Scheme::kHermes: return "Hermes";
    case Scheme::kFlowBender: return "FlowBender";
    case Scheme::kDrill: return "DRILL";
    case Scheme::kWcmp: return "WCMP";
  }
  return "?";
}

Scenario::Scenario(ScenarioConfig config) : config_{std::move(config)} {
  // Plain-TCP mode (§5.4): no ECN marking; switches drop at the buffer.
  if (!config_.tcp.dctcp) config_.topo.ecn_enabled = false;
  sims_.push_back(std::make_unique<sim::Simulator>(config_.seed));
  auto topo = std::make_unique<net::Topology>(*sims_.front(), config_.topo);
  topo_ = topo.get();
  fabric_ = std::move(topo);
  build();
}

Scenario::Scenario(const RunConfig& run, net::FatTreeConfig fabric, int num_shards,
                   unsigned threads)
    : threads_{threads} {
  static_cast<RunConfig&>(config_) = run;
  if (!config_.tcp.dctcp) fabric.ecn_enabled = false;
  const int shards = std::clamp(num_shards, 1, fabric.k);
  std::vector<sim::Simulator*> raw;
  for (int s = 0; s < shards; ++s) {
    sims_.push_back(std::make_unique<sim::Simulator>(shard_seed(config_.seed, s, shards)));
    raw.push_back(sims_.back().get());
  }
  auto tree = std::make_unique<net::FatTree>(std::move(raw), fabric);
  fat_tree_ = tree.get();
  fabric_ = std::move(tree);
  build();
}

Scenario::~Scenario() = default;

void Scenario::build() {
  if (topo_ == nullptr && (config_.scheme == Scheme::kConga || config_.scheme == Scheme::kDrill)) {
    throw std::invalid_argument(
        "Scenario: CONGA/DRILL read fabric-wide switch state and need a leaf-spine Topology");
  }
  // Spraying schemes are evaluated with the reordering mask, as the paper
  // does for Presto* ("we implement a reordering buffer to mask packet
  // reordering", §5.1).
  if (config_.scheme == Scheme::kPrestoStar || config_.scheme == Scheme::kDrb ||
      config_.scheme == Scheme::kDrill) {
    config_.tcp.reorder_buffer = true;
  }
  shard_states_.resize(sims_.size());

  for (int s = 0; s < num_shards(); ++s) {
    lbs_.push_back(make_balancer(s));
    hermes_.push_back(dynamic_cast<lb::HermesLb*>(lbs_.back().get()));
  }
  if (config_.wrap_balancer) {
    lbs_.front() = config_.wrap_balancer(*sims_.front(), *topo_, std::move(lbs_.front()));
  }

  // In-band congestion stamping costs a DRE read per fabric hop; only
  // CONGA consumes it.
  if (config_.scheme != Scheme::kConga) {
    for (const auto& sw : fabric_->switches()) sw->conga_stamping = false;
  }

  stacks_.reserve(static_cast<std::size_t>(fabric_->num_hosts()));
  for (int h = 0; h < fabric_->num_hosts(); ++h) {
    const int shard = shard_of_host(h);
    stacks_.push_back(std::make_unique<transport::HostStack>(*sims_[shard], *fabric_, h,
                                                             *lbs_[shard], config_.tcp));
  }

  // Hermes probing: each shard's instance probes only from the rack
  // agents that shard owns, and the replies return to those same agents —
  // probe traffic and probe state never cross a shard boundary except as
  // ordinary packets through the mailbox.
  for (int s = 0; s < num_shards(); ++s) {
    lb::HermesLb* h = hermes_[s];
    if (h == nullptr) continue;
    h->enable_probing([this](int src_host, net::Packet p) {
      stacks_[src_host]->send_raw(std::move(p));
    });
  }
  for (int l = 0; l < fabric_->num_leaves(); ++l) {
    const int agent = fabric_->first_host_of_leaf(l);
    lb::HermesLb* h = hermes_[shard_of_host(agent)];
    if (h != nullptr) {
      stacks_[agent]->on_probe_reply = [h](const net::Packet& p) { h->on_probe_reply(p); };
    }
  }

  // Invariant checking wraps the host/port observer hooks, so it must
  // come after the stacks installed theirs; the fault schedulers are
  // wired last so every transition triggers a checker pass.
  if (config_.check_invariants) {
    checker_ = std::make_unique<faults::InvariantChecker>(*sims_.front(), *fabric_,
                                                          config_.invariant_config);
    checker_->set_flow_snapshot([this] {
      std::vector<faults::FlowProgress> snap;
      snap.reserve(active_flows().size());
      for (const auto& [id, spec] : active_flows()) {
        if (transport::TcpSender* snd = stacks_[spec.src]->sender(id)) {
          snap.push_back({id, snd->snd_una()});
        }
      }
      return snap;
    });
  }
  wire_faults();
  wire_observability();
}

std::unique_ptr<lb::LoadBalancer> Scenario::make_balancer(int shard) {
  sim::Simulator& simulator = *sims_[shard];
  const std::uint64_t seed = shard_seed(config_.seed, shard, num_shards());
  switch (config_.scheme) {
    case Scheme::kEcmp:
      return std::make_unique<lb::EcmpLb>(*fabric_, seed);
    case Scheme::kDrb:
      return std::make_unique<lb::SprayLb>(
          *fabric_, lb::SprayConfig{.cell_bytes = 0, .weighted = false}, "drb");
    case Scheme::kPrestoStar:
      return std::make_unique<lb::SprayLb>(
          *fabric_,
          lb::SprayConfig{.cell_bytes = config_.presto_cell_bytes,
                          .weighted = config_.presto_weighted},
          "presto*");
    case Scheme::kLetFlow:
      return std::make_unique<lb::LetFlowLb>(simulator, *fabric_, config_.letflow);
    case Scheme::kConga:
      return std::make_unique<lb::CongaLb>(simulator, *topo_, config_.conga);
    case Scheme::kCloveEcn:
      return std::make_unique<lb::CloveLb>(simulator, *fabric_, config_.clove);
    case Scheme::kWcmp:
      return std::make_unique<lb::WcmpLb>(*fabric_, seed);
    case Scheme::kFlowBender:
      return std::make_unique<lb::FlowBenderLb>(simulator, *fabric_, config_.flowbender);
    case Scheme::kDrill:
      return std::make_unique<lb::DrillLb>(simulator, *topo_, config_.drill);
    case Scheme::kHermes: {
      lb::HermesConfig hc = config_.hermes;
      const lb::HermesConfig defaults = lb::HermesConfig::defaults_for(*fabric_);
      if (hc.t_rtt_low == sim::SimTime::zero()) hc.t_rtt_low = defaults.t_rtt_low;
      if (hc.t_rtt_high == sim::SimTime::zero()) hc.t_rtt_high = defaults.t_rtt_high;
      if (hc.delta_rtt == sim::SimTime::zero()) hc.delta_rtt = defaults.delta_rtt;
      return std::make_unique<lb::HermesLb>(simulator, *fabric_, hc,
                                            fabric_->leaves_of_shard(shard));
    }
  }
  return nullptr;
}

void Scenario::wire_faults() {
  // Each event goes to the shard owning its named switch, so every
  // mutation happens inside that shard's rounds; a link whose far end
  // lives in another shard (fat-tree agg<->core) also goes to that shard,
  // which mutates only its own port. A one-shard run keeps the plan whole.
  fault_scheds_.resize(sims_.size());
  if (config_.fault_plan.empty()) return;
  std::vector<faults::FaultPlan> sub(sims_.size());
  for (const faults::FaultEvent& e : config_.fault_plan.events()) {
    const net::FabricLink* link = faults::resolve_target(e, *fabric_);
    const int owner = fabric_->shard_of_switch(e.sw);
    sub[static_cast<std::size_t>(owner)].add(e);
    if (link != nullptr && fabric_->shard_of_switch(link->upper) != owner) {
      sub[static_cast<std::size_t>(fabric_->shard_of_switch(link->upper))].add(e);
    }
  }
  for (int s = 0; s < num_shards(); ++s) {
    if (sub[s].empty()) continue;
    fault_scheds_[s] = std::make_unique<faults::FaultScheduler>(*sims_[s], *fabric_, s);
    if (checker_) {
      fault_scheds_[s]->on_transition = [this](const faults::FaultEvent& e) {
        checker_->on_fault_transition(e);
      };
    }
    fault_scheds_[s]->install(sub[s]);
  }
}

int Scenario::shard_of_host(int host_id) const { return fabric_->shard_of_host(host_id); }

void Scenario::wire_observability() {
  if (config_.obs.enabled) {
    std::vector<obs::FlightRecorder*> raw;
    for (int s = 0; s < num_shards(); ++s) {
      recorders_.push_back(
          std::make_unique<obs::FlightRecorder>(kRingCapacity, &trace_names_));
      recorders_.back()->set_shard(static_cast<std::uint8_t>(s));
      raw.push_back(recorders_.back().get());
    }
    if (config_.obs.trace_packets) fabric_->set_recorders(raw);
    for (int s = 0; s < num_shards(); ++s) {
      if (hermes_[s] != nullptr) hermes_[s]->set_recorder(recorders_[s].get());
      if (fault_scheds_[s]) fault_scheds_[s]->set_recorder(recorders_[s].get());
    }
  }

  // The registry is always on: pull closures read counters the modules
  // maintain anyway, so there is no per-packet cost until snapshot time.
  // Each shard's modules register into the shard's own registry; a
  // multi-shard run then exposes their by-name sums.
  if (num_shards() > 1) shard_metrics_.resize(sims_.size());
  for (int s = 0; s < num_shards(); ++s) {
    obs::MetricsRegistry& reg = shard_metrics_.empty() ? metrics_ : shard_metrics_[s];
    reg.counter_fn("sim.events_processed",
                   [sim = sims_[s].get()] { return sim->events().events_processed(); });
    if (hermes_[s] != nullptr) hermes_[s]->register_metrics(reg);
    if (fault_scheds_[s]) fault_scheds_[s]->register_metrics(reg);
    for (const auto& [name, per_record] : kTransportSeries) {
      reg.counter_fn(name, [c = &shard_states_[s].collector, per_record] {
        std::uint64_t total = 0;
        for (const transport::FlowRecord& r : c->records()) total += per_record(r);
        return total;
      });
    }
  }
  metrics_.sum_of(shard_metrics_);
  fabric_->register_metrics(metrics_);
  if (checker_) checker_->register_metrics(metrics_);

  if (fat_tree_ == nullptr) return;
  metrics_.gauge_fn("sharding.shards", [this] { return static_cast<double>(num_shards()); });
  metrics_.gauge_fn("sharding.threads", [this] { return static_cast<double>(threads_used_); });
  metrics_.counter_fn("sharding.rounds", [this] { return exec_stats_.rounds; });
  metrics_.counter_fn("sharding.boundary_packets",
                      [this] { return fat_tree_->boundary_packets(); });
  metrics_.gauge_fn("sharding.horizon_mean_ns", [this] {
    return exec_stats_.rounds == 0
               ? 0.0
               : static_cast<double>(exec_stats_.horizon_ns_total) /
                     static_cast<double>(exec_stats_.rounds);
  });
  for (int s = 0; s < num_shards(); ++s) {
    metrics_.counter_fn("sharding.shard" + std::to_string(s) + ".events",
                        [sim = sims_[s].get()] { return sim->events().events_processed(); });
  }
}

bool Scenario::dump_trace(const std::string& path) const {
  if (recorders_.empty()) return false;
  if (recorders_.size() == 1) return obs::write_trace(path, *recorders_.front());
  std::vector<const obs::FlightRecorder*> raw;
  raw.reserve(recorders_.size());
  for (const auto& r : recorders_) raw.push_back(r.get());
  return obs::write_merged_trace(path, raw);
}

void Scenario::add_flows(const std::vector<transport::FlowSpec>& flows) {
  for (const auto& f : flows) {
    const int shard = shard_of_host(f.src);
    ShardState& st = shard_states_[static_cast<std::size_t>(shard)];
    const std::size_t index = st.scheduled.size();
    st.scheduled.push_back(f);
    st.started.push_back(false);
    ++st.pending;
    sims_[shard]->at<&Scenario::start_flow>(f.start, this,
                                            std::uint64_t{static_cast<std::uint32_t>(shard)} << 32 | index);
  }
}

void Scenario::start_flow(std::uint64_t shard_and_index) {
  const auto shard = static_cast<int>(shard_and_index >> 32);
  const auto index = static_cast<std::uint32_t>(shard_and_index);
  ShardState& st = shard_states_[static_cast<std::size_t>(shard)];
  st.started[index] = true;
  const transport::FlowSpec& f = st.scheduled[index];
  st.live.emplace(f.id, f);
  stacks_[f.src]->start_flow(f, [this, id = f.id, shard](const transport::FlowRecord& r) {
    ShardState& owner = shard_states_[static_cast<std::size_t>(shard)];
    owner.collector.add(r);
    owner.live.erase(id);
    // One shard ends its run here; shards of a multi-shard run end at the
    // executor barrier once none has flows pending.
    if (--owner.pending == 0 && num_shards() == 1) simulator().stop();
  });
}

std::uint64_t Scenario::add_flow(std::int32_t src, std::int32_t dst, std::uint64_t size,
                                 sim::SimTime start) {
  transport::FlowSpec f;
  f.id = next_flow_id();
  f.src = src;
  f.dst = dst;
  f.size = size;
  f.start = start;
  add_flows({f});
  return f.id;
}

std::uint64_t Scenario::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& s : sims_) total += s->events().events_processed();
  return total;
}

void Scenario::advance(sim::SimTime t_end) {
  if (num_shards() == 1) {
    simulator().run_until(t_end);
    return;
  }
  std::vector<sim::EventQueue*> queues;
  queues.reserve(sims_.size());
  for (auto& s : sims_) queues.push_back(&s->events());
  sim::ShardedExecutor exec{std::move(queues), fat_tree_->lookahead(), threads_};
  threads_used_ = exec.threads();
  exec.run_until(t_end, [this] {
    fat_tree_->exchange_boundary();
    return std::any_of(shard_states_.begin(), shard_states_.end(),
                       [](const ShardState& st) { return st.pending > 0; });
  });
  exec_stats_.rounds += exec.stats().rounds;
  exec_stats_.horizon_ns_total += exec.stats().horizon_ns_total;
}

stats::FctCollector Scenario::run() {
  advance(config_.max_sim_time);
  for (int s = 0; s < num_shards(); ++s) harvest(s);
  metrics_.sum_of(shard_metrics_);  // histograms are push: fold in the run's
  // The collectors stay behind: the transport.* metrics read them.
  if (num_shards() == 1) return shard_states_.front().collector;

  // Merge every shard's records into ascending flow-id order — flow ids
  // are unique, so the merged stream is one canonical sequence
  // independent of shard/thread interleaving.
  std::vector<transport::FlowRecord> all;
  for (const ShardState& st : shard_states_) {
    all.insert(all.end(), st.collector.records().begin(), st.collector.records().end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const transport::FlowRecord& a, const transport::FlowRecord& b) {
                     return a.id < b.id;
                   });
  stats::FctCollector merged;
  for (const transport::FlowRecord& r : all) merged.add(r);
  return merged;
}

void Scenario::harvest(int shard) {
  ShardState& st = shard_states_[static_cast<std::size_t>(shard)];
  // A one-shard run that reached the cap stands at it; multi-shard rounds
  // stop short of it.
  const sim::SimTime cap = std::max(sims_[shard]->now(), config_.max_sim_time);
  // Whatever is still active never finished within the time cap; pull the
  // live sender counters so unfinished records still carry timeout and
  // retransmission statistics, in flow-id order so the emitted record
  // stream is byte-stable across library versions.
  for (const auto& [id, spec] : st.live) {
    if (transport::TcpSender* snd = stacks_[spec.src]->sender(id)) {
      transport::FlowRecord r = snd->record();
      r.finished = false;
      r.end = cap;
      st.collector.add(r);
    } else {
      st.collector.add_unfinished(spec.size, spec.start, cap);
    }
  }
  // Flows scheduled but never started also count as unfinished.
  for (std::size_t i = 0; i < st.scheduled.size(); ++i) {
    const transport::FlowSpec& spec = st.scheduled[i];
    if (!st.started[i]) st.collector.add_unfinished(spec.size, spec.start, cap);
  }
}

void Scenario::run_for(sim::SimTime duration) { advance(simulator().now() + duration); }

}  // namespace hermes::harness
