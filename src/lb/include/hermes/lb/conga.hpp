#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "hermes/lb/load_balancer.hpp"
#include "hermes/net/topology.hpp"
#include "hermes/engine/rng.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::lb {

/// CONGA (Alizadeh et al., SIGCOMM'14): leaf-switch based, globally
/// congestion-aware flowlet switching.
///
/// Faithful to the published design at the granularity the paper simulates:
///  * each fabric link runs a DRE; transiting packets carry the max
///    quantized metric of the path (stamped by Switch/Port);
///  * the destination leaf stores per-(source leaf, path) metrics and
///    piggybacks one (lbtag, metric) pair per reverse packet;
///  * the source leaf combines fed-back metrics with its local uplink DREs
///    and routes each new flowlet on the min-max path;
///  * fed-back metrics older than the aging interval are treated as zero
///    ("the path is assumed empty"), which is what produces the
///    hidden-terminal flip-flop of §2.2.2 Example 4.
struct CongaConfig {
  sim::SimTime flowlet_timeout = sim::usec(150);
  sim::SimTime metric_aging = sim::msec(10);
};

class CongaLb final : public LoadBalancer {
 public:
  CongaLb(sim::Simulator& simulator, net::Topology& topo, CongaConfig config = {});

  int select_path(FlowCtx& flow, const net::Packet& pkt) override;
  void on_data_arrival(const net::Packet& data) override;
  void decorate_ack(const net::Packet& data, net::Packet& ack) override;
  void on_ack(FlowCtx& flow, const net::Packet& ack) override;

  [[nodiscard]] std::string_view name() const override { return "conga"; }

  /// Test/trace hook: current combined metric of a path as seen by the
  /// source leaf (max of local DRE and fed-back remote metric).
  [[nodiscard]] std::uint8_t path_metric(int src_leaf, int dst_leaf, int local_index);

 private:
  struct Entry {
    std::uint8_t metric = 0;
    sim::SimTime last{};
    bool valid = false;
  };
  struct PairTable {
    std::vector<Entry> entries;  // indexed by local path index
    std::size_t fb_cursor = 0;   // round-robin feedback selector
  };

  [[nodiscard]] PairTable& to_leaf(int src_leaf, int dst_leaf) {
    return to_leaf_[static_cast<std::size_t>(src_leaf) * num_leaves_ + dst_leaf];
  }
  [[nodiscard]] PairTable& from_leaf(int dst_leaf, int src_leaf) {
    return from_leaf_[static_cast<std::size_t>(dst_leaf) * num_leaves_ + src_leaf];
  }
  [[nodiscard]] std::uint8_t remote_metric(const Entry& e) const;
  void ensure_size(PairTable& t, std::size_t n) {
    if (t.entries.size() < n) t.entries.resize(n);
  }

  sim::Simulator& simulator_;
  net::Topology& topo_;
  CongaConfig config_;
  engine::Rng rng_;
  int num_leaves_;
  std::vector<PairTable> to_leaf_;
  std::vector<PairTable> from_leaf_;
};

}  // namespace hermes::lb
