#pragma once

// Shared plumbing for the benchmark binaries that regenerate the paper's
// tables and figures. Every bench accepts --scale=<float> (or env
// HERMES_BENCH_SCALE) to multiply the number of flows per data point:
// the defaults are sized to finish in minutes while preserving each
// result's shape; larger scales tighten the statistics.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "hermes/harness/scenario.hpp"
#include "hermes/stats/fct.hpp"
#include "hermes/stats/table.hpp"
#include "hermes/workload/flow_gen.hpp"
#include "hermes/workload/size_dist.hpp"

namespace hermes::bench {

/// The value of the last `key` argument (e.g. "--json="), or `def`.
inline std::string flag(int argc, char** argv, const char* key, std::string def = {}) {
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], key, std::strlen(key)) == 0) def = argv[i] + std::strlen(key);
  return def;
}

/// --scale, else HERMES_BENCH_SCALE, else 1; anything but a positive
/// number exits with status 2.
inline double parse_scale(int argc, char** argv) {
  const char* env = std::getenv("HERMES_BENCH_SCALE");
  const std::string text = flag(argc, argv, "--scale=", env != nullptr ? env : "1");
  char* end = nullptr;
  const double scale = std::strtod(text.c_str(), &end);
  if (end != text.c_str() && *end == '\0' && scale > 0 && std::isfinite(scale)) return scale;
  std::fprintf(stderr, "%s: --scale must be a positive number, not '%s'\n", argv[0], text.c_str());
  std::exit(2);
}

inline int scaled(int base, double scale) {
  const int v = static_cast<int>(base * scale);
  return v < 1 ? 1 : v;
}

inline void print_header(const char* experiment, const char* paper_claim) {
  std::printf("\n=== %s ===\n", experiment);
  std::printf("paper: %s\n\n", paper_claim);
}

/// The paper's testbed fabric (§5.2): 2 leaves x 2 spines, 2 parallel
/// links per pair, 6 hosts per leaf, everything 1G, ECN mark at 30KB.
inline net::TopologyConfig testbed_topology() {
  net::TopologyConfig c;
  c.num_leaves = 2;
  c.num_spines = 2;
  c.hosts_per_leaf = 6;
  c.links_per_pair = 2;
  c.host_rate_bps = 1e9;
  c.fabric_rate_bps = 1e9;
  c.ecn_threshold_bytes = 30'000;
  // The testbed's Pronto 3295 has megabytes of shared buffer; give each
  // 1G port a realistic share instead of the rate-scaled default.
  c.queue_capacity_bytes = 400 * 1024;
  return c;
}

/// The paper's large-scale simulation fabric (§5.3): 8x8 leaf-spine,
/// 128 hosts at 10G, 2:1 oversubscription at the leaf.
inline net::TopologyConfig sim_topology() { return {}; }  // the defaults are this fabric

/// The data-mining cells' fabric. Data-mining's ~12.6MB mean flow (1GB
/// tail) needs thousands of in-flight gigabytes on the full 8x8 fabric, so
/// we keep its *shape* on 4x4 with sizes scaled 0.5 (see EXPERIMENTS.md).
inline net::TopologyConfig dm_sim_topology() {
  net::TopologyConfig c;
  c.num_leaves = 4;
  c.num_spines = 4;
  c.hosts_per_leaf = 8;
  return c;
}

/// `c` with 20% of its leaf-spine links degraded from 10G to 2G (§5.3.2),
/// chosen by a fixed seed so every scheme sees the identical asymmetry.
inline net::TopologyConfig degraded(net::TopologyConfig c, std::uint64_t seed = 99) {
  engine::Rng rng{seed};
  for (int l = 0; l < c.num_leaves; ++l)
    for (int s = 0; s < c.num_spines; ++s)
      if (rng.chance(0.2)) c.fabric_overrides[{l, s, 0}] = 2e9;
  return c;
}
inline net::TopologyConfig asym_sim_topology() { return degraded(sim_topology()); }
inline net::TopologyConfig dm_asym_sim_topology() { return degraded(dm_sim_topology()); }

inline workload::SizeDist dm_dist() { return workload::SizeDist::data_mining().scaled(0.5); }

/// Wrapper that pins each flow's FIRST path choice (reproducing the
/// paper's microbenchmark setups, e.g. Fig. 1 places two large flows on
/// one path) and delegates every later decision to the wrapped scheme —
/// so whether the flow can ever LEAVE that path is decided by the scheme
/// under test.
class PinnedFirstLb final : public lb::LoadBalancer {
 public:
  PinnedFirstLb(std::unique_ptr<lb::LoadBalancer> inner, std::map<std::uint64_t, int> pins)
      : inner_{std::move(inner)}, pins_{std::move(pins)} {}

  int select_path(lb::FlowCtx& flow, const net::Packet& pkt) override {
    if (!flow.has_sent) {
      auto it = pins_.find(flow.flow_id);
      if (it != pins_.end()) return it->second;
    }
    return inner_->select_path(flow, pkt);
  }
  void on_ack(lb::FlowCtx& f, const net::Packet& a) override { inner_->on_ack(f, a); }
  void on_data_arrival(const net::Packet& d) override { inner_->on_data_arrival(d); }
  void decorate_ack(const net::Packet& d, net::Packet& a) override {
    inner_->decorate_ack(d, a);
  }
  void on_timeout(lb::FlowCtx& f) override { inner_->on_timeout(f); }
  void on_retransmit(lb::FlowCtx& f, int p) override { inner_->on_retransmit(f, p); }
  void on_flow_complete(lb::FlowCtx& f) override { inner_->on_flow_complete(f); }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<lb::LoadBalancer> inner_;
  std::map<std::uint64_t, int> pins_;
};

}  // namespace hermes::bench
