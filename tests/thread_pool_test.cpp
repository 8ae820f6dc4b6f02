// Tests for the ThreadPool: full index coverage, index-ordered map
// results, exception propagation, thread-count selection, and concurrent
// Scenario cells producing the same bytes as serial ones. This file is
// the target of the TSan configuration (HERMES_SANITIZE=thread): Scenario
// instances must share no mutable state, and the pool itself must be
// race-free.

#include <cstddef>
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "hermes/harness/scenario.hpp"
#include "hermes/sim/thread_pool.hpp"
#include "hermes/stats/csv.hpp"
#include "hermes/workload/flow_gen.hpp"
#include "hermes/workload/size_dist.hpp"

namespace hermes::harness {
namespace {

using sim::resolve_threads;
using sim::ThreadPool;

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  const ThreadPool runner{4};
  std::vector<std::atomic<int>> counts(1000);
  runner.for_each_index(counts.size(),
                        [&](std::size_t i) { counts[i].fetch_add(1, std::memory_order_relaxed); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, MapReturnsIndexOrderedResults) {
  const ThreadPool runner{3};
  const auto out =
      runner.map<std::size_t>(257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, PropagatesFirstException) {
  for (const unsigned threads : {1u, 4u}) {
    const ThreadPool runner{threads};
    EXPECT_THROW(runner.for_each_index(100,
                                       [](std::size_t i) {
                                         if (i == 37) throw std::runtime_error{"cell failed"};
                                       }),
                 std::runtime_error);
  }
}

TEST(ThreadPool, ZeroItemsIsANoop) {
  const ThreadPool runner{4};
  bool ran = false;
  runner.for_each_index(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ThreadSelection) {
  EXPECT_EQ(ThreadPool{7}.threads(), 7u);
  ASSERT_EQ(setenv("HERMES_THREADS", "3", 1), 0);
  EXPECT_EQ(resolve_threads(), 3u);
  EXPECT_EQ(ThreadPool{}.threads(), 3u);
  ASSERT_EQ(unsetenv("HERMES_THREADS"), 0);
  EXPECT_GE(resolve_threads(), 1u);
}

// The real use: independent Scenario cells running concurrently. Run a
// small sweep twice — serial and on four threads — and require the
// per-flow CSVs to be byte-identical (each cell owns its EventQueue,
// Topology and RNG streams; nothing is shared).
TEST(ThreadPool, ConcurrentScenarioCellsMatchSerial) {
  const auto run_cell = [](std::size_t i) {
    ScenarioConfig cfg;
    cfg.topo.num_leaves = 2;
    cfg.topo.num_spines = 2;
    cfg.topo.hosts_per_leaf = 4;
    cfg.scheme = i % 2 == 0 ? Scheme::kEcmp : Scheme::kHermes;
    cfg.seed = 11 + i;
    cfg.max_sim_time = sim::sec(2);
    Scenario s{cfg};
    workload::TrafficConfig tc;
    tc.load = 0.4 + 0.1 * static_cast<double>(i % 3);
    tc.num_flows = 30;
    tc.seed = 11 + i;
    s.add_flows(workload::generate_poisson_traffic(s.topology(),
                                                   workload::SizeDist::web_search(), tc));
    return stats::to_csv(s.run());
  };

  std::vector<std::string> serial;
  serial.reserve(6);
  for (std::size_t i = 0; i < 6; ++i) serial.push_back(run_cell(i));

  const ThreadPool runner{4};
  const auto parallel = runner.map<std::string>(6, run_cell);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) EXPECT_EQ(parallel[i], serial[i]);
}

}  // namespace
}  // namespace hermes::harness
