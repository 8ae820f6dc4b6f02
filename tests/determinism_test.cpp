// Golden-seed determinism gate for the simulator core.
//
// The event queue's contract is a strict total order on (time,
// scheduling sequence); as long as that holds, a fixed-seed scenario
// produces byte-identical per-flow FCT output no matter how the queue
// is implemented (binary heap, time wheel, ...) or whether sweep cells
// run serially or on the ThreadPool. The golden hash below was
// recorded against the original binary-heap EventQueue; the time-wheel
// replacement must — and does — reproduce it exactly. If an intentional
// behaviour change (transport logic, RNG consumption order, CSV format)
// shifts the hash, re-record it and say so in the commit message;
// anything else reaching this assertion is a scheduling-order bug.

#include <cstddef>
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "hermes/sim/thread_pool.hpp"
#include "hermes/harness/scenario.hpp"
#include "hermes/stats/csv.hpp"
#include "hermes/workload/flow_gen.hpp"
#include "hermes/workload/size_dist.hpp"

namespace hermes {
namespace {

struct Cell {
  harness::Scheme scheme;
  double load;
};

const std::vector<Cell>& cells() {
  static const std::vector<Cell> c = {
      {harness::Scheme::kEcmp, 0.5},  {harness::Scheme::kEcmp, 0.8},
      {harness::Scheme::kConga, 0.5}, {harness::Scheme::kConga, 0.8},
      {harness::Scheme::kHermes, 0.5}, {harness::Scheme::kHermes, 0.8},
  };
  return c;
}

harness::ScenarioConfig small_fabric(harness::Scheme scheme) {
  harness::ScenarioConfig cfg;
  cfg.topo.num_leaves = 4;
  cfg.topo.num_spines = 4;
  cfg.topo.hosts_per_leaf = 8;
  cfg.scheme = scheme;
  cfg.seed = 7;
  cfg.max_sim_time = sim::sec(10);
  return cfg;
}

/// 80 web-search flows at `load`, seed 7; the per-flow FCT CSV.
std::string run_csv(const harness::ScenarioConfig& cfg, double load) {
  harness::Scenario s{cfg};
  workload::TrafficConfig tc;
  tc.load = load;
  tc.num_flows = 80;
  tc.seed = 7;
  s.add_flows(
      workload::generate_poisson_traffic(s.topology(), workload::SizeDist::web_search(), tc));
  return stats::to_csv(s.run());
}

std::string run_cell_csv(const Cell& cell, bool obs_enabled = false) {
  harness::ScenarioConfig cfg = small_fabric(cell.scheme);
  cfg.obs.enabled = obs_enabled;
  return run_csv(cfg, cell.load);
}

// Recorded with the pre-wheel binary-heap EventQueue (std::function
// callbacks, shared_ptr cancellation). 19856 bytes of per-flow CSV.
constexpr std::uint64_t kGoldenHash = 0xa490e4896445aaecull;

TEST(Determinism, GoldenSeedFctHashMatchesHeapBaseline) {
  std::string all;
  for (const Cell& c : cells()) all += run_cell_csv(c);
  EXPECT_EQ(stats::fnv1a64(all), kGoldenHash)
      << "fixed-seed per-flow FCT output changed (" << all.size()
      << " bytes) — scheduling-order regression, or an intentional "
         "change that must re-record the golden hash";
}

// Every scheme on an asymmetric fabric. Leaf 1's link to spine 0 is cut,
// so leaf 1's pairs list three paths and a path's index there is not its
// spine; leaf 2's link to spine 3 runs at 2G, so WCMP and weighted
// Presto* see unequal capacities. This pins each scheme's choices and the
// routes they name, which kGoldenHash (ECMP, CONGA, Hermes on a symmetric
// fabric) cannot tell apart from a path renumbering.
constexpr harness::Scheme kEveryScheme[] = {
    harness::Scheme::kEcmp,     harness::Scheme::kDrb,        harness::Scheme::kPrestoStar,
    harness::Scheme::kLetFlow,  harness::Scheme::kConga,      harness::Scheme::kCloveEcn,
    harness::Scheme::kHermes,   harness::Scheme::kFlowBender, harness::Scheme::kDrill,
    harness::Scheme::kWcmp,
};
constexpr std::uint64_t kEverySchemeGoldenHash = 0x5111d142ce5c326dull;

TEST(Determinism, EverySchemeOnAsymmetricFabricMatchesGolden) {
  std::string all;
  for (const harness::Scheme scheme : kEveryScheme) {
    harness::ScenarioConfig cfg = small_fabric(scheme);
    cfg.topo.fabric_overrides[{1, 0, 0}] = 0;    // cut
    cfg.topo.fabric_overrides[{2, 3, 0}] = 2e9;  // degraded
    all += run_csv(cfg, 0.6);
  }
  EXPECT_EQ(stats::fnv1a64(all), kEverySchemeGoldenHash)
      << "fixed-seed per-flow FCT output of the ten schemes changed (" << all.size()
      << " bytes)";
}

// The flight recorder must be a pure observer: record paths consume no
// RNG and read only const state, so turning observability ON cannot
// perturb a single scheduling decision. Same seed, same golden hash —
// this is what makes post-mortem tracing trustworthy (the traced run IS
// the run you were debugging, not a sibling).
TEST(Determinism, ObservabilityOnReproducesGoldenHash) {
  std::string all;
  for (const Cell& c : cells()) all += run_cell_csv(c, /*obs_enabled=*/true);
  EXPECT_EQ(stats::fnv1a64(all), kGoldenHash)
      << "enabling the flight recorder changed simulation results — an "
         "instrumentation site is consuming RNG or mutating model state";
}

// Unfinished flows are emitted from Scenario::active_flows(). When it was
// an unordered_map, the emission once inherited libstdc++'s hash order,
// so the record stream (and any CSV diff, golden hash, or downstream
// join on it) silently depended on the standard library; it is an
// ordered map now. This pins the order: cap the run so most flows never
// finish, and the unfinished tail must come out in ascending flow-id
// order with byte-identical CSV on a re-run.
TEST(Determinism, UnfinishedFlowEmissionIsFlowIdOrdered) {
  const auto run_truncated = [] {
    harness::ScenarioConfig cfg;
    cfg.topo.num_leaves = 4;
    cfg.topo.num_spines = 4;
    cfg.topo.hosts_per_leaf = 8;
    cfg.scheme = harness::Scheme::kHermes;
    cfg.seed = 11;
    cfg.max_sim_time = sim::msec(30);  // tight cap: the big flows stay active
    harness::Scenario s{cfg};
    // Mix finished and unfinished: 10KB mice complete in microseconds,
    // 100MB elephants cannot finish inside 30ms even at line rate.
    for (int h = 0; h < 24; ++h) {
      const std::int32_t src = s.topology().first_host_of_leaf(h % 4) + h % 8;
      const std::int32_t dst = s.topology().first_host_of_leaf((h + 1) % 4) + (h + 3) % 8;
      s.add_flow(src, dst, 10'000, sim::msec(1));
      s.add_flow(src, dst, 100'000'000, sim::msec(2));
    }
    return s.run();
  };

  const auto fct = run_truncated();
  ASSERT_GT(fct.unfinished_flows(), 10u) << "cap too generous to exercise the tail";

  // The unfinished suffix of the record stream is sorted by flow id.
  const auto& recs = fct.records();
  std::uint64_t prev_id = 0;
  bool in_tail = false;
  for (const auto& r : recs) {
    if (r.finished) {
      ASSERT_FALSE(in_tail) << "finished record after the unfinished tail began";
      continue;
    }
    if (in_tail) {
      EXPECT_LT(prev_id, r.id) << "unfinished records not in flow-id order";
    }
    in_tail = true;
    prev_id = r.id;
  }

  // And the whole stream is byte-stable across identical runs.
  EXPECT_EQ(stats::to_csv(fct), stats::to_csv(run_truncated()));
}

TEST(Determinism, ParallelSweepIsByteIdenticalToSerial) {
  std::string serial;
  for (const Cell& c : cells()) serial += run_cell_csv(c);

  const sim::ThreadPool runner{4};
  const auto parts = runner.map<std::string>(
      cells().size(), [](std::size_t i) { return run_cell_csv(cells()[i]); });
  std::string parallel;
  for (const auto& p : parts) parallel += p;

  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(stats::fnv1a64(parallel), kGoldenHash);
}

}  // namespace
}  // namespace hermes
