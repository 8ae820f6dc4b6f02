// hermesfuzz: seeded scenario-fuzzing driver (DESIGN.md section 10).
//
// Expands each seed into a random scenario (topology x workload x fault
// plan), runs it with invariant checking on, and reports seeds whose run
// broke an invariant or stranded flows. Every failing seed auto-dumps
// its flight-recorder ring to FUZZ_<seed>.htrc with a repro command, so
// a nightly finding replays locally with a single flag.
//
//   hermesfuzz --seeds=1000                  # seeds 0..999, Hermes
//   hermesfuzz --seeds=500 --seed-base=1000  # seeds 1000..1499
//   hermesfuzz --seed=1693 --scheme=CONGA    # replay one finding
//   hermesfuzz --seed=1693 --describe        # print the scenario, no run
//
// Exit status: 0 all seeds clean, 1 at least one failing seed (each with
// a dumped trace + repro line), 2 usage error.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "hermes/faults/scenario_fuzzer.hpp"
#include "hermes/harness/fuzz_runner.hpp"
#include "hermes/sim/thread_pool.hpp"
#include "hermes/harness/scenario.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds=N] [--seed-base=B] [--seed=S] [--scheme=NAME]\n"
               "          [--threads=N] [--out=DIR] [--no-triage] [--describe] [--sharded]\n"
               "  --seeds=N      run seeds [seed-base, seed-base+N) (default 100)\n"
               "  --seed-base=B  first seed of the range (default 0)\n"
               "  --seed=S       run exactly one seed (overrides --seeds/--seed-base)\n"
               "  --scheme=NAME  load balancer under test (default Hermes)\n"
               "  --threads=N    worker threads (default HERMES_THREADS or hw)\n"
               "  --out=DIR      directory for FUZZ_<seed>.htrc triage dumps\n"
               "  --no-triage    skip flight recording and trace dumps (faster)\n"
               "  --describe     print each seed's generated scenario and exit\n"
               "  --sharded      per-seed sharded fat-tree with faults on every tier, run\n"
               "                 at 1 and 2 threads; FAIL on a hash mismatch or stranded flow\n",
               argv0);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

/// "--name=value" / "--name value" matcher; advances i for the two-token
/// form. Returns nullptr when argv[i] is not this option.
const char* opt_value(char** argv, int argc, int& i, const char* name) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(argv[i], name, n) != 0) return nullptr;
  if (argv[i][n] == '=') return argv[i] + n + 1;
  if (argv[i][n] == '\0' && i + 1 < argc) return argv[++i];
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hermes;

  std::uint64_t num_seeds = 100;
  std::uint64_t seed_base = 0;
  std::optional<std::uint64_t> single_seed;
  harness::Scheme scheme = harness::Scheme::kHermes;
  std::uint64_t threads = 0;
  std::string out_dir;
  bool triage = true;
  bool describe = false;
  bool sharded = false;

  for (int i = 1; i < argc; ++i) {
    if (const char* v = opt_value(argv, argc, i, "--seeds")) {
      if (!parse_u64(v, num_seeds)) return usage(argv[0]);
    } else if (const char* v2 = opt_value(argv, argc, i, "--seed-base")) {
      if (!parse_u64(v2, seed_base)) return usage(argv[0]);
    } else if (const char* v3 = opt_value(argv, argc, i, "--seed")) {
      std::uint64_t s = 0;
      if (!parse_u64(v3, s)) return usage(argv[0]);
      single_seed = s;
    } else if (const char* v4 = opt_value(argv, argc, i, "--scheme")) {
      const std::optional<harness::Scheme> parsed = harness::parse_scheme(v4);
      if (!parsed) {
        std::fprintf(stderr, "hermesfuzz: unknown scheme '%s'\n", v4);
        return 2;
      }
      scheme = *parsed;
    } else if (const char* v5 = opt_value(argv, argc, i, "--threads")) {
      if (!parse_u64(v5, threads)) return usage(argv[0]);
    } else if (const char* v6 = opt_value(argv, argc, i, "--out")) {
      out_dir = v6;
    } else if (std::strcmp(argv[i], "--no-triage") == 0) {
      triage = false;
    } else if (std::strcmp(argv[i], "--describe") == 0) {
      describe = true;
    } else if (std::strcmp(argv[i], "--sharded") == 0) {
      sharded = true;
    } else {
      return usage(argv[0]);
    }
  }

  std::vector<std::uint64_t> seeds;
  if (single_seed) {
    seeds.push_back(*single_seed);
  } else {
    seeds.reserve(num_seeds);
    for (std::uint64_t s = 0; s < num_seeds; ++s) seeds.push_back(seed_base + s);
  }

  const faults::fuzz::RandomScenarioGenerator gen;

  if (describe) {
    for (const std::uint64_t s : seeds) {
      std::fputs(gen.generate(s).describe().c_str(), stdout);
    }
    return 0;
  }

  const sim::ThreadPool runner{static_cast<unsigned>(threads)};

  if (sharded) {
    // Each seed already runs its scenario twice (1 and 2 executor
    // threads), so map seeds serially and let the executor own the
    // parallelism.
    std::size_t failing = 0;
    for (const std::uint64_t s : seeds) {
      const harness::ShardedFuzzOutcome o = harness::run_sharded_fuzz_seed(s, scheme);
      if (o.clean()) continue;
      ++failing;
      std::printf("FAIL seed=%llu shards=%d unfinished=%zu hash_t1=%016llx hash_t2=%016llx\n",
                  static_cast<unsigned long long>(o.seed), o.num_shards, o.unfinished_flows,
                  static_cast<unsigned long long>(o.hash_t1),
                  static_cast<unsigned long long>(o.hash_t2));
      if (!o.repro.empty()) std::printf("  repro: %s\n", o.repro.c_str());
    }
    std::printf("hermesfuzz: sharded scheme=%s seeds=%zu failing=%zu\n",
                harness::to_string(scheme), seeds.size(), failing);
    return failing == 0 ? 0 : 1;
  }

  const std::vector<harness::FuzzOutcome> outcomes =
      runner.map<harness::FuzzOutcome>(seeds.size(), [&](std::size_t i) {
        return harness::run_fuzz_scenario(gen.generate(seeds[i]), scheme, triage, out_dir);
      });

  std::size_t failing = 0;
  for (const harness::FuzzOutcome& o : outcomes) {
    if (o.clean()) continue;
    ++failing;
    std::printf("FAIL seed=%llu violations=%zu unfinished=%zu%s%s\n",
                static_cast<unsigned long long>(o.seed), o.violations, o.unfinished_flows,
                o.first_violation.empty() ? "" : " first: ", o.first_violation.c_str());
    if (!o.trace_path.empty()) std::printf("  trace: %s\n", o.trace_path.c_str());
    if (!o.repro.empty()) std::printf("  repro: %s\n", o.repro.c_str());
  }
  std::printf("hermesfuzz: scheme=%s seeds=%zu failing=%zu\n", harness::to_string(scheme),
              outcomes.size(), failing);
  return failing == 0 ? 0 : 1;
}
