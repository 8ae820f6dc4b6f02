#pragma once

// Shared plumbing for the benchmark binaries that regenerate the paper's
// tables and figures. Every bench accepts --scale=<float> (or env
// HERMES_BENCH_SCALE) to multiply the number of flows per data point:
// the defaults are sized to finish in minutes while preserving each
// result's shape; larger scales tighten the statistics.

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

inline double parse_scale(int argc, char** argv, double def = 1.0) {
  double scale = def;
  if (const char* env = std::getenv("HERMES_BENCH_SCALE")) scale = std::atof(env);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) scale = std::atof(argv[i] + 8);
  }
  if (scale <= 0) scale = def;
  return scale;
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
inline net::TopologyConfig sim_topology() {
  net::TopologyConfig c;  // defaults are exactly this fabric
  return c;
}

/// 20% of leaf-spine links degraded from 10G to 2G (§5.3.2), chosen by a
/// fixed seed so every scheme sees the identical asymmetry.
inline net::TopologyConfig asym_sim_topology(std::uint64_t seed = 99) {
  auto c = sim_topology();
  engine::Rng rng{seed};
  for (int l = 0; l < c.num_leaves; ++l)
    for (int s = 0; s < c.num_spines; ++s)
      if (rng.chance(0.2)) c.fabric_overrides[{l, s, 0}] = 2e9;
  return c;
}

/// Setup used for the data-mining cells. Data-mining's mean flow is
/// ~12.6MB with a 1GB tail, so steady state on the full 8x8/640G fabric
/// needs thousands of in-flight gigabytes — far beyond a tractable
/// single-core run. We preserve the *shape* (same CDF skew, same paths-
/// per-pair contention physics) on a 4x4 fabric with the distribution
/// scaled by 0.5; EXPERIMENTS.md documents this substitution.
inline net::TopologyConfig dm_sim_topology() {
  net::TopologyConfig c;
  c.num_leaves = 4;
  c.num_spines = 4;
  c.hosts_per_leaf = 8;
  return c;
}

inline net::TopologyConfig dm_asym_sim_topology(std::uint64_t seed = 99) {
  auto c = dm_sim_topology();
  engine::Rng rng{seed};
  for (int l = 0; l < c.num_leaves; ++l)
    for (int s = 0; s < c.num_spines; ++s)
      if (rng.chance(0.2)) c.fabric_overrides[{l, s, 0}] = 2e9;
  return c;
}

inline workload::SizeDist dm_dist() { return workload::SizeDist::data_mining().scaled(0.5); }

/// Drop the first `warmup` flows (by arrival order / id) from the
/// statistics so ramp-up arrivals into an empty fabric do not dilute the
/// steady-state comparison.
inline stats::FctCollector skip_warmup(const stats::FctCollector& in, std::uint64_t warmup) {
  stats::FctCollector out;
  for (const auto& r : in.records()) {
    if (r.id == 0 || r.id > warmup) out.add(r);
  }
  return out;
}

inline const char* short_name(harness::Scheme s) { return harness::to_string(s); }

/// Where a figure bench writes its machine-readable output
/// (--json=<path>, like bench_core_micro).
inline std::string parse_json_path(int argc, char** argv, const char* def) {
  std::string path = def;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) path = argv[i] + 7;
  }
  return path;
}

/// Accumulates one JSON object per (scheme, load) cell — each embedding
/// the scenario's MetricsRegistry snapshot (sorted-name order, so the
/// file is byte-stable at a fixed seed) — and writes the figure bench's
/// machine-readable companion to the stdout table.
class MetricsJson {
 public:
  explicit MetricsJson(std::string bench) : bench_{std::move(bench)} {}

  void add_cell(const char* scheme, double load, const std::string& metrics_json) {
    if (!cells_.empty()) cells_ += ",\n";
    char head[128];
    std::snprintf(head, sizeof head, "    {\"scheme\": \"%s\", \"load\": %.2f, \"metrics\": ",
                  scheme, load);
    cells_ += head;
    cells_ += metrics_json;
    cells_ += '}';
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"cells\": [\n%s\n  ]\n}\n", bench_.c_str(),
                 cells_.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string bench_;
  std::string cells_;
};

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
