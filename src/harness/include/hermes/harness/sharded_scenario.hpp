#pragma once

#include "hermes/harness/scenario.hpp"
#include "hermes/net/fattree.hpp"

namespace hermes::harness {

/// A fat-tree run: the shared run settings plus the fabric and its shard
/// plan. The schemes that read fabric-wide congestion state through the
/// concrete Topology (CONGA, DRILL) are rejected at construction.
struct ShardedScenarioConfig : RunConfig {
  net::FatTreeConfig fabric;
  /// Topology partitions (clamped to [1, k pods]). This — not the thread
  /// count — is what determines simulation results: a fixed shard count
  /// produces byte-identical output for every thread count. One shard
  /// runs exactly like a leaf-spine Scenario (no executor, no rounds).
  int num_shards = 1;
  /// Worker threads for the executor; 0 resolves via
  /// sim::resolve_threads() (HERMES_THREADS, then hardware concurrency)
  /// and is additionally capped at num_shards.
  unsigned threads = 0;
};

/// The fat-tree front door of Scenario: builds the FatTree over one
/// Simulator per shard; everything else is the one composition root.
class ShardedScenario final : public Scenario {
 public:
  explicit ShardedScenario(const ShardedScenarioConfig& config)
      : Scenario{config, config.fabric, config.num_shards, config.threads} {}

  [[nodiscard]] net::FatTree& fabric() { return *fat_tree_; }
};

}  // namespace hermes::harness
