// Command-line experiment runner: compose a fabric, scheme and workload
// from flags and print the FCT breakdown. The "swiss-army knife" entry
// point for ad-hoc studies without writing code.
//
//   $ ./run_experiment --scheme=hermes --load=0.7 --flows=500
//   $ ./run_experiment --scheme=conga --workload=datamining --leaves=4
//         --spines=4 --hosts=8 --degrade=0,1,2e9 --drop=3,0.02 --seed=7

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>

#include "hermes/harness/experiment.hpp"
#include "hermes/harness/fuzz_runner.hpp"
#include "hermes/stats/csv.hpp"
#include "hermes/stats/table.hpp"

namespace {

using namespace hermes;

const char* const kFlags[] = {"--scheme", "--workload", "--load",  "--flows",   "--seed",
                              "--leaves", "--spines",   "--hosts", "--gbps",    "--degrade",
                              "--cut",    "--drop",     "--csv"};

/// Bad input ends the run with status 2 and a message naming the flag.
[[noreturn]] void fail(const std::string& why) {
  std::fprintf(stderr, "run_experiment: %s (see --help)\n", why.c_str());
  std::exit(2);
}

/// `arg`'s value when it reads `key=value`, else null.
const char* value_of(const char* arg, const char* key) {
  const std::size_t n = std::strlen(key);
  return std::strncmp(arg, key, n) == 0 && arg[n] == '=' ? arg + n + 1 : nullptr;
}

const char* arg_value(int argc, char** argv, const char* key) {
  for (int i = 1; i < argc; ++i) {
    if (const char* v = value_of(argv[i], key)) return v;
  }
  return nullptr;
}

double arg_double(int argc, char** argv, const char* key, double def) {
  const char* v = arg_value(argc, argv, key);
  if (v == nullptr) return def;
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || !std::isfinite(x))
    fail(std::string(key) + "=" + v + ": not a number");
  return x;
}
int arg_int(int argc, char** argv, const char* key, int def) {
  const char* v = arg_value(argc, argv, key);
  if (v == nullptr) return def;
  char* end = nullptr;
  const long x = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || x < INT32_MIN || x > INT32_MAX)
    fail(std::string(key) + "=" + v + ": not an integer");
  return static_cast<int>(x);
}

/// " key=value" for each of `keys` given on the command line.
std::string given(int argc, char** argv, std::initializer_list<const char*> keys) {
  std::string out;
  for (const char* key : keys) {
    if (const char* v = arg_value(argc, argv, key)) out += std::string(" ") + key + "=" + v;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--help") == 0) {
    std::printf(
        "usage: run_experiment [--scheme=ecmp|wcmp|drb|presto|letflow|conga|clove|"
        "flowbender|drill|hermes]\n"
        "  [--workload=websearch|datamining] [--load=0.6] [--flows=500] [--seed=1]\n"
        "  [--leaves=8] [--spines=8] [--hosts=16] [--gbps=10]\n"
        "  [--degrade=leaf,spine,rate_bps]  (repeatable)\n"
        "  [--cut=leaf,spine]               (repeatable)\n"
        "  [--drop=spine,rate]              (silent random drops)\n"
        "  [--csv=path.csv]                 (per-flow records)\n");
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::none_of(std::begin(kFlags), std::end(kFlags),
                     [&](const char* key) { return value_of(argv[i], key) != nullptr; }))
      fail(std::string("unknown flag '") + argv[i] + "'");
  }

  harness::ScenarioConfig cfg;
  cfg.topo.num_leaves = arg_int(argc, argv, "--leaves", 8);
  cfg.topo.num_spines = arg_int(argc, argv, "--spines", 8);
  cfg.topo.hosts_per_leaf = arg_int(argc, argv, "--hosts", 16);
  cfg.topo.host_rate_bps = cfg.topo.fabric_rate_bps =
      arg_double(argc, argv, "--gbps", 10) * 1e9;
  const char* scheme = arg_value(argc, argv, "--scheme");
  const std::optional<harness::Scheme> parsed = harness::parse_scheme(scheme ? scheme : "hermes");
  if (!parsed) fail(std::string("--scheme=") + scheme + ": unknown scheme");
  cfg.scheme = *parsed;
  cfg.seed = static_cast<std::uint64_t>(arg_int(argc, argv, "--seed", 1));
  const char* wl_arg = arg_value(argc, argv, "--workload");
  const std::string wl = wl_arg != nullptr ? wl_arg : "websearch";
  if (wl != "websearch" && wl != "datamining")
    fail("--workload=" + wl + ": want websearch or datamining");
  const auto dist =
      wl == "datamining" ? workload::SizeDist::data_mining() : workload::SizeDist::web_search();

  int leaf = 0, spine = 0, used = 0;
  double rate = 0;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = value_of(argv[i], "--degrade")) {
      if (std::sscanf(v, "%d,%d,%lf%n", &leaf, &spine, &rate, &used) != 3 || v[used] != '\0')
        fail(std::string(argv[i]) + ": want leaf,spine,rate_bps");
      cfg.topo.fabric_overrides[{leaf, spine, 0}] = rate;
    } else if (const char* c = value_of(argv[i], "--cut")) {
      if (std::sscanf(c, "%d,%d%n", &leaf, &spine, &used) != 2 || c[used] != '\0')
        fail(std::string(argv[i]) + ": want leaf,spine");
      cfg.topo.fabric_overrides[{leaf, spine, 0}] = 0;
    }
  }

  // The library throws std::invalid_argument for what the flags describe
  // but cannot be built; name the flags that describe it.
  std::optional<harness::Scenario> built;
  try {
    built.emplace(cfg);
  } catch (const std::invalid_argument& e) {
    fail("fabric" +
         given(argc, argv, {"--leaves", "--spines", "--hosts", "--gbps", "--degrade", "--cut"}) +
         ": " + e.what());
  }
  harness::Scenario& s = *built;

  for (int i = 1; i < argc; ++i) {
    const char* v = value_of(argv[i], "--drop");
    if (v == nullptr) continue;
    if (std::sscanf(v, "%d,%lf%n", &spine, &rate, &used) != 2 || v[used] != '\0')
      fail(std::string(argv[i]) + ": want spine,rate");
    if (spine < 0 || spine >= cfg.topo.num_spines) fail(std::string(argv[i]) + ": no such spine");
    if (rate < 0 || rate > 1) fail(std::string(argv[i]) + ": rate must be in [0, 1]");
    s.topology().spine(spine).set_random_drop_rate(rate);
  }

  workload::TrafficConfig tc;
  tc.load = arg_double(argc, argv, "--load", 0.6);
  tc.num_flows = arg_int(argc, argv, "--flows", 500);
  tc.seed = cfg.seed;
  try {
    s.add_flows(workload::generate_poisson_traffic(s.topology(), dist, tc));
  } catch (const std::invalid_argument& e) {
    fail("traffic" + given(argc, argv, {"--load", "--flows"}) + ": " + e.what());
  }

  std::printf("scheme=%s workload=%s load=%.2f flows=%d fabric=%dx%dx%d\n",
              harness::to_string(cfg.scheme), dist.name().c_str(), tc.load, tc.num_flows,
              cfg.topo.num_leaves, cfg.topo.num_spines, cfg.topo.hosts_per_leaf);

  auto fct = s.run();
  const auto o = fct.overall();
  const auto sm = fct.small_flows();
  const auto lg = fct.large_flows();
  stats::Table t({"bin", "count", "mean", "p50", "p99"});
  auto row = [&](const char* name, const stats::FctSummary& x) {
    t.add_row({name, std::to_string(x.count), stats::Table::usec(x.mean_us),
               stats::Table::usec(x.p50_us), stats::Table::usec(x.p99_us)});
  };
  row("all", o);
  row("small (<100KB)", sm);
  row("large (>10MB)", lg);
  t.print();
  std::printf("unfinished: %zu (%.2f%%), timeouts: %llu, reroutes: %llu\n",
              fct.unfinished_flows(), 100 * fct.unfinished_fraction(),
              static_cast<unsigned long long>(fct.total_timeouts()),
              static_cast<unsigned long long>(fct.total_reroutes()));
  if (const char* csv = arg_value(argc, argv, "--csv")) {
    if (stats::write_file(csv, stats::to_csv(fct))) {
      std::printf("per-flow records written to %s\n", csv);
    } else {
      std::fprintf(stderr, "failed to write %s\n", csv);
      return 1;
    }
  }
  return 0;
}
