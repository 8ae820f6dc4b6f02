#include "hermes/harness/fuzz_runner.hpp"

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hermes/engine/rng.hpp"
#include "hermes/faults/random_faults.hpp"
#include "hermes/faults/scenario_fuzzer.hpp"
#include "hermes/harness/sharded_scenario.hpp"
#include "hermes/stats/csv.hpp"
#include "hermes/stats/fct.hpp"
#include "hermes/workload/flow_gen.hpp"
#include "hermes/workload/size_dist.hpp"

namespace hermes::harness {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

ScenarioConfig to_scenario_config(const faults::fuzz::FuzzScenario& fs, Scheme scheme,
                                  bool triage) {
  ScenarioConfig cfg;
  cfg.topo = fs.topo;
  cfg.scheme = scheme;
  cfg.seed = fs.seed;
  cfg.max_sim_time = fs.max_sim_time;
  cfg.fault_plan = fs.plan;
  cfg.check_invariants = true;
  cfg.obs.enabled = triage;
  cfg.obs.dump_on_violation = triage;
  return cfg;
}

FuzzOutcome run_fuzz_scenario(const faults::fuzz::FuzzScenario& fs, Scheme scheme, bool triage,
                              const std::string& dump_dir) {
  ScenarioConfig cfg = to_scenario_config(fs, scheme, triage);
  if (!dump_dir.empty()) {
    cfg.obs.dump_path = dump_dir + "/FUZZ_" + std::to_string(fs.seed) + ".htrc";
  }
  Scenario s{std::move(cfg)};

  workload::SizeDist dist = (fs.workload == faults::fuzz::Workload::kDataMining
                                 ? workload::SizeDist::data_mining()
                                 : workload::SizeDist::web_search())
                                .scaled(fs.workload_scale);
  workload::TrafficConfig tc;
  tc.load = fs.load;
  tc.num_flows = fs.num_flows;
  tc.seed = fs.seed;
  s.add_flows(workload::generate_poisson_traffic(s.topology(), dist, tc));

  const stats::FctCollector fct = s.run();

  FuzzOutcome out;
  out.seed = fs.seed;
  out.scheme = scheme;
  out.unfinished_flows = fct.unfinished_flows();
  if (const faults::InvariantChecker* inv = s.invariants()) {
    out.violations = inv->violations().size();
    if (!inv->violations().empty()) out.first_violation = inv->violations().front().what;
  }
  if (!out.clean()) {
    out.trace_path = s.triage_path();
    out.repro = "hermesfuzz --seed=" + std::to_string(fs.seed) +
                " --scheme=" + to_string(scheme);
  }
  return out;
}

namespace {

/// splitmix64 step: cheap, stateless seed expansion for scenario
/// derivation (matches the per-shard seed derivation's generator family).
std::uint64_t mix(std::uint64_t& z) {
  const std::uint64_t x = engine::mix64(z);
  z += 0x9E3779B97F4A7C15ULL;  // the splitmix64 stream increment
  return x;
}

/// FNV-1a of the run's FCT csv and metrics; also reports how many flows
/// it stranded.
std::uint64_t run_hash(const ShardedScenarioConfig& cfg, std::size_t& unfinished) {
  ShardedScenario s{cfg};
  workload::SizeDist dist = (cfg.seed % 3 == 0 ? workload::SizeDist::data_mining()
                                               : workload::SizeDist::web_search())
                                .scaled(0.1);
  workload::TrafficConfig tc;
  tc.load = 0.3 + 0.05 * static_cast<double>(cfg.seed % 5);
  tc.num_flows = 40 + static_cast<int>(cfg.seed % 41);
  tc.seed = cfg.seed;
  s.add_flows(workload::generate_poisson_traffic(s.fabric(), dist, tc));
  const stats::FctCollector fct = s.run();
  unfinished = fct.unfinished_flows();
  // Hash the simulation results, not the execution facts: the
  // sharding.threads gauge reports the very knob this check varies.
  std::string metrics;
  std::istringstream in(s.metrics().snapshot_text());
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("sharding.threads ", 0) == 0) continue;
    metrics += line;
    metrics += '\n';
  }
  return stats::fnv1a64(stats::to_csv(fct) + metrics);
}

}  // namespace

ShardedFuzzOutcome run_sharded_fuzz_seed(std::uint64_t seed, Scheme scheme) {
  std::uint64_t z = seed;
  ShardedScenarioConfig cfg;
  cfg.fabric.k = 4;
  cfg.scheme = scheme;
  cfg.seed = seed;
  cfg.max_sim_time = sim::sec(2);
  cfg.num_shards = 2 + static_cast<int>(mix(z) % 3);  // 2..4 of the 4 pods

  // Faults on every tier: edge, agg and core switches, edge<->agg links
  // and the cross-shard agg<->core links. A run ends with its last flow,
  // often within a few ms, so onsets start with the traffic and come
  // every 0.5-2ms on average; each heals after ~5ms.
  faults::RandomFaultConfig fc;
  fc.start = sim::usec(200);
  fc.horizon = sim::msec(30);
  fc.mtbf = sim::usec(500 + static_cast<int>(mix(z) % 1501));
  fc.mttr = sim::msec(5);
  fc.half_pair_blackholes = mix(z) % 2 == 0;
  cfg.fault_plan =
      faults::RandomFaultGenerator(cfg.fabric.shape(), fc, engine::Rng{mix(z)}).generate();

  ShardedFuzzOutcome out;
  out.seed = seed;
  out.scheme = scheme;
  out.num_shards = cfg.num_shards;

  cfg.threads = 1;
  out.hash_t1 = run_hash(cfg, out.unfinished_flows);
  cfg.threads = 2;
  std::size_t unfinished_t2 = 0;
  out.hash_t2 = run_hash(cfg, unfinished_t2);

  if (!out.clean()) {
    out.repro = "hermesfuzz --sharded --seed=" + std::to_string(seed) +
                " --scheme=" + to_string(scheme);
  }
  return out;
}

std::optional<Scheme> parse_scheme(std::string_view name) {
  for (const Scheme s :
       {Scheme::kEcmp, Scheme::kDrb, Scheme::kPrestoStar, Scheme::kLetFlow, Scheme::kConga,
        Scheme::kCloveEcn, Scheme::kHermes, Scheme::kFlowBender, Scheme::kDrill,
        Scheme::kWcmp}) {
    if (iequals(name, to_string(s))) return s;
  }
  // Convenience aliases without punctuation, for shells and CI matrices.
  if (iequals(name, "presto")) return Scheme::kPrestoStar;
  if (iequals(name, "clove")) return Scheme::kCloveEcn;
  return std::nullopt;
}

}  // namespace hermes::harness
