// Extension: sharded parallel execution at fat-tree scale.
//
// The paper's simulations stop at an 8x8 leaf-spine (64 ports). This
// bench drives the sharded executor on 3-tier fat-trees — k=8 (128
// hosts) and k=16 (1024 hosts) — running web-search traffic under
// Hermes and ECMP, once with 1 worker thread and once with
// min(4, hardware) threads over the per-pod shards. Reported per
// configuration: completed/unfinished flows, events processed, wall
// time and events/s for both thread counts, the multi-thread speedup,
// FCT stats (which must not depend on the thread count at all — the
// sharded determinism contract; tests/sharded_test.cpp pins it) and
// Hermes' probe bytes as a fraction of flow bytes (the paper's ~3%).
//
// --smoke runs a k=4 fabric and doubles as a determinism self-check:
// the T=1 and T=2 runs must produce byte-identical FCT CSV, and the
// process exits nonzero if they do not. scripts/tier1.sh runs this as
// its sharded smoke stage; scripts/check_bench_regress.py gates the
// JSON (completion always; events/s floor against the committed
// baseline; the >=1.5x speedup claim only when the machine running the
// check has >=2 cores — see EXPERIMENTS.md for the single-core
// fallback methodology).
//
// Usage: bench_ext_fattree_scale [--smoke] [--scale=F] [--json=<path>]

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "hermes/harness/sharded_scenario.hpp"
#include "hermes/lb/hermes.hpp"
#include "hermes/stats/csv.hpp"
#include "hermes/transport/flow.hpp"

namespace {

using namespace hermes;

// hermeslint:allow(determinism.clock) wall-clock throughput is the bench's product; sim results never read this clock
using Clock = std::chrono::steady_clock;

struct RunResult {
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;
  unsigned threads_used = 0;
  std::size_t flows = 0;
  std::size_t unfinished = 0;
  stats::FctSummary fct;
  double probe_bytes_frac = 0;  ///< probe bytes / flow bytes; 0 without Hermes
  std::uint64_t csv_hash = 0;
};

struct Config {
  int k = 4;
  harness::Scheme scheme = harness::Scheme::kEcmp;
  int num_flows = 100;
  double load = 0.3;
  sim::SimTime max_sim_time = sim::msec(500);
};

RunResult run_once(const Config& c, unsigned threads) {
  harness::ShardedScenarioConfig cfg;
  cfg.fabric.k = c.k;
  cfg.scheme = c.scheme;
  cfg.seed = 1;
  cfg.max_sim_time = c.max_sim_time;
  cfg.num_shards = c.k;  // one shard per pod
  cfg.threads = threads;

  harness::ShardedScenario s{cfg};
  workload::TrafficConfig tc;
  tc.load = c.load;
  tc.num_flows = c.num_flows;
  tc.seed = 1;
  const std::vector<transport::FlowSpec> flows = workload::generate_poisson_traffic(
      s.fabric(), workload::SizeDist::web_search().scaled(0.1), tc);
  s.add_flows(flows);

  const Clock::time_point t0 = Clock::now();
  const stats::FctCollector fct = s.run();
  RunResult r;
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.events = s.events_processed();
  r.rounds = s.executor_stats().rounds;
  r.threads_used = s.threads_used();
  r.flows = fct.total_flows();
  r.unfinished = fct.unfinished_flows();
  r.fct = fct.overall_with_unfinished();
  r.csv_hash = stats::fnv1a64(stats::to_csv(fct));
  if (s.hermes() != nullptr) {
    double probe_bytes = 0;
    double flow_bytes = 0;
    for (int shard = 0; shard < s.num_shards(); ++shard) {
      probe_bytes += static_cast<double>(s.hermes(shard)->probe_stats().probe_bytes);
    }
    for (const transport::FlowSpec& f : flows) flow_bytes += static_cast<double>(f.size);
    r.probe_bytes_frac = probe_bytes / flow_bytes;
  }
  return r;
}

struct Entry {
  std::string key;
  int k = 0;
  RunResult t1;
  RunResult tn;
  bool deterministic = false;
};

void write_json(const std::string& path, bool smoke, const std::vector<Entry>& entries) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_ext_fattree_scale: cannot write %s\n", path.c_str());
    return;
  }
  const unsigned cores = std::thread::hardware_concurrency();
  std::fprintf(f, "{\n  \"bench\": \"bench_ext_fattree_scale\",\n");
  std::fprintf(f, "  \"build\": \"%s\",\n",
#ifdef NDEBUG
               "optimized"
#else
               "debug"
#endif
  );
  std::fprintf(f, "  \"smoke\": %s,\n  \"cores\": %u,\n  \"metrics\": {\n",
               smoke ? "true" : "false", cores);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    const double eps1 = e.t1.wall_s > 0 ? static_cast<double>(e.t1.events) / e.t1.wall_s : 0;
    const double epsn = e.tn.wall_s > 0 ? static_cast<double>(e.tn.events) / e.tn.wall_s : 0;
    std::fprintf(f,
                 "    \"%s\": {\n"
                 "      \"k\": %d,\n"
                 "      \"hosts\": %d,\n"
                 "      \"shards\": %d,\n"
                 "      \"flows\": %zu,\n"
                 "      \"unfinished_flows\": %zu,\n"
                 "      \"events\": %llu,\n"
                 "      \"rounds\": %llu,\n"
                 "      \"wall_s_t1\": %.3f,\n"
                 "      \"events_per_sec_t1\": %.0f,\n"
                 "      \"threads_n\": %u,\n"
                 "      \"wall_s_tn\": %.3f,\n"
                 "      \"events_per_sec_tn\": %.0f,\n"
                 "      \"speedup\": %.3f,\n"
                 "      \"fct_mean_us\": %.1f,\n"
                 "      \"fct_p99_us\": %.1f,\n"
                 "      \"probe_bytes_frac\": %.4f,\n"
                 "      \"deterministic\": %d\n"
                 "    }%s\n",
                 e.key.c_str(), e.k, e.k * e.k * e.k / 4, e.k, e.t1.flows, e.t1.unfinished,
                 static_cast<unsigned long long>(e.t1.events),
                 static_cast<unsigned long long>(e.t1.rounds), e.t1.wall_s, eps1,
                 e.tn.threads_used, e.tn.wall_s, epsn, eps1 > 0 ? epsn / eps1 : 0,
                 e.t1.fct.mean_us, e.t1.fct.p99_us, e.t1.probe_bytes_frac,
                 e.deterministic ? 1 : 0, i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("json: %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_fattree.json";
  const double scale = bench::parse_scale(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned tn = smoke ? 2 : (hw < 2 ? 2 : (hw > 4 ? 4 : hw));

  bench::print_header(
      "Fat-tree scaling: sharded parallel execution (per-pod shards, conservative lookahead)",
      "one scenario scales to 1024 hosts (k=16); for a fixed shard count the thread count "
      "is invisible in the results");

  std::vector<Config> configs;
  if (smoke) {
    configs.push_back({4, harness::Scheme::kEcmp, bench::scaled(60, scale), 0.3, sim::msec(500)});
    configs.push_back({4, harness::Scheme::kHermes, bench::scaled(60, scale), 0.3, sim::msec(500)});
  } else {
    configs.push_back({8, harness::Scheme::kEcmp, bench::scaled(400, scale), 0.3, sim::msec(500)});
    configs.push_back({8, harness::Scheme::kHermes, bench::scaled(400, scale), 0.3, sim::msec(500)});
    configs.push_back({16, harness::Scheme::kEcmp, bench::scaled(1000, scale), 0.25, sim::msec(200)});
    configs.push_back({16, harness::Scheme::kHermes, bench::scaled(1000, scale), 0.25, sim::msec(200)});
  }

  std::vector<Entry> entries;
  bool all_deterministic = true;
  for (const Config& c : configs) {
    Entry e;
    e.k = c.k;
    e.key = std::string(smoke ? "fattree_smoke_k" : "fattree_k") + std::to_string(c.k) + "_" +
            (c.scheme == harness::Scheme::kHermes ? "hermes" : "ecmp");
    std::printf("[%s] %d hosts, %d shards, %d flows...\n", e.key.c_str(), c.k * c.k * c.k / 4,
                c.k, c.num_flows);
    e.t1 = run_once(c, 1);
    e.tn = run_once(c, tn);
    e.deterministic = e.t1.csv_hash == e.tn.csv_hash;
    all_deterministic = all_deterministic && e.deterministic;
    const double eps1 = e.t1.wall_s > 0 ? static_cast<double>(e.t1.events) / e.t1.wall_s : 0;
    const double epsn = e.tn.wall_s > 0 ? static_cast<double>(e.tn.events) / e.tn.wall_s : 0;
    std::printf(
        "  T=1: %.2fs  %.0f ev/s | T=%u: %.2fs  %.0f ev/s | speedup %.2fx | "
        "flows %zu (%zu unfinished) | FCT mean %.0fus p99 %.0fus | probe bytes %.2f%% | %s\n",
        e.t1.wall_s, eps1, e.tn.threads_used, e.tn.wall_s, epsn, eps1 > 0 ? epsn / eps1 : 0,
        e.t1.flows, e.t1.unfinished, e.t1.fct.mean_us, e.t1.fct.p99_us,
        100 * e.t1.probe_bytes_frac, e.deterministic ? "deterministic" : "HASH MISMATCH");
    entries.push_back(e);
  }

  write_json(json_path, smoke, entries);

  if (!all_deterministic) {
    std::fprintf(stderr,
                 "bench_ext_fattree_scale: FCT output depends on the thread count — "
                 "sharded determinism contract broken\n");
    return 1;
  }
  return 0;
}
