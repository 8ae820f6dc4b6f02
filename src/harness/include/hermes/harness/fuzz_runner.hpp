#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "hermes/faults/scenario_fuzzer.hpp"
#include "hermes/harness/scenario.hpp"

namespace hermes::harness {

/// Result of running one fuzz seed against one scheme. `clean()` is the
/// CI pass criterion; anything else comes with a dumped trace and a
/// copy-pasteable repro command.
struct FuzzOutcome {
  std::uint64_t seed = 0;
  Scheme scheme = Scheme::kHermes;
  std::size_t violations = 0;        ///< hard invariant violations
  std::size_t unfinished_flows = 0;  ///< flows stranded at the time cap
  std::string first_violation;       ///< first violation message, if any
  std::string trace_path;            ///< auto-dumped FUZZ_<seed>.htrc, if any
  std::string repro;                 ///< one-line replay command, if not clean

  [[nodiscard]] bool clean() const { return violations == 0 && unfinished_flows == 0; }
};

/// Expand a generated FuzzScenario into a runnable ScenarioConfig for the
/// given scheme: invariant checking on, and the flight recorder on when
/// `triage` is set. Lives here, not in faults — the fuzzer stays scheme-
/// and workload-agnostic, and the harness owns the composition.
[[nodiscard]] ScenarioConfig to_scenario_config(const faults::fuzz::FuzzScenario& fs,
                                                Scheme scheme, bool triage = true);

/// Run one fuzz scenario end to end: build the Scenario, generate the
/// seed's Poisson traffic from its workload mix, run to completion or the
/// time cap, and collect the triage verdict. A failing run with `triage`
/// set dumps its flight-recorder ring to FUZZ_<seed>.htrc (under
/// `dump_dir` when non-empty, else the CWD) and prints two `[triage]`
/// lines to stderr: what fired, and the trace path with the repro command.
[[nodiscard]] FuzzOutcome run_fuzz_scenario(const faults::fuzz::FuzzScenario& fs, Scheme scheme,
                                            bool triage = true,
                                            const std::string& dump_dir = {});

/// Parse a scheme name as printed by to_string(Scheme) ("Hermes",
/// "CONGA", "CLOVE-ECN", ...), case-insensitively.
[[nodiscard]] std::optional<Scheme> parse_scheme(std::string_view name);

/// Result of one sharded fuzz seed: the same derived fat-tree scenario
/// (topology shards, workload, faults on every tier) run twice, with 1
/// and 2 worker threads. The pass criterion is `clean()`: byte-identical
/// FCT records and metrics, and no stranded flow — every generated fault
/// heals, and the transport retries through any blackhole window.
struct ShardedFuzzOutcome {
  std::uint64_t seed = 0;
  Scheme scheme = Scheme::kHermes;
  int num_shards = 0;
  std::uint64_t hash_t1 = 0;  ///< FNV-1a of (FCT csv + metrics), 1 thread
  std::uint64_t hash_t2 = 0;  ///< same scenario, 2 threads
  std::size_t unfinished_flows = 0;  ///< flows stranded by the 1-thread run
  std::string repro;  ///< one-line replay command, set unless clean

  [[nodiscard]] bool deterministic() const { return hash_t1 == hash_t2; }
  [[nodiscard]] bool clean() const { return deterministic() && unfinished_flows == 0; }
};

/// Expand `seed` into a small sharded fat-tree scenario (k=4; 2..4
/// shards, load, workload mix and a RandomFaultGenerator plan over every
/// tier, all derived from the seed) and run it at 1 and 2 executor
/// threads. Throws std::invalid_argument for schemes the sharded harness
/// rejects (CONGA, DRILL).
[[nodiscard]] ShardedFuzzOutcome run_sharded_fuzz_seed(std::uint64_t seed, Scheme scheme);

}  // namespace hermes::harness
