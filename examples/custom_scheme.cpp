// Extending the library: implement a custom load balancer against the
// lb::LoadBalancer interface and race it against the built-in schemes.
//
//   $ ./custom_scheme
//
// The toy scheme below ("least-queued") reads the source leaf's uplink
// backlogs directly — something a deployable edge scheme could not do,
// but a minimal example of the extension point: implement select_path(),
// optionally tap the signal hooks, and install the instance through
// ScenarioConfig::wrap_balancer.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string_view>

#include "hermes/harness/experiment.hpp"
#include "hermes/stats/table.hpp"

namespace {

using namespace hermes;

/// Chooses, per packet, the path whose source-leaf uplink has the
/// smallest backlog. Omniscient about local queues, oblivious to the
/// rest of the path (compare DRILL's switch-local policy).
class LeastQueuedLb final : public lb::LoadBalancer {
 public:
  explicit LeastQueuedLb(net::Topology& topo) : topo_{topo} {}

  int select_path(lb::FlowCtx& flow, const net::Packet&) override {
    if (flow.intra_rack()) return -1;
    const auto& paths = topo_.paths_between_leaves(flow.src_leaf, flow.dst_leaf);
    int best = 0;
    std::uint32_t best_backlog = ~0u;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      const auto backlog =
          topo_.leaf_uplink(flow.src_leaf, paths[i].spine, paths[i].link_idx).backlog_bytes();
      if (backlog < best_backlog) {
        best_backlog = backlog;
        best = static_cast<int>(i);
      }
    }
    return best;
  }

  [[nodiscard]] std::string_view name() const override { return "least-queued"; }

 private:
  net::Topology& topo_;
};

}  // namespace

int main() {
  using harness::Scheme;

  harness::ScenarioConfig base;
  base.topo.num_leaves = 4;
  base.topo.num_spines = 4;
  base.topo.hosts_per_leaf = 8;
  const auto dist = workload::SizeDist::web_search();

  std::printf("custom scheme demo: per-packet least-queued-uplink vs built-ins\n\n");
  stats::Table t({"scheme", "overall avg FCT", "small p99"});

  for (Scheme scheme : {Scheme::kEcmp, Scheme::kHermes}) {
    auto cfg = base;
    cfg.scheme = scheme;
    auto fct = harness::run_workload_experiment(cfg, dist, 0.6, 500, 3);
    t.add_row({harness::to_string(scheme), stats::Table::usec(fct.overall().mean_us),
               stats::Table::usec(fct.small_flows().p99_us)});
  }

  {
    auto cfg = base;
    cfg.scheme = Scheme::kDrb;          // replaced entirely by the wrapper
    cfg.tcp.reorder_buffer = true;      // per-packet spraying needs the mask
    cfg.wrap_balancer = [](sim::Simulator&, net::Topology& topo,
                           std::unique_ptr<lb::LoadBalancer>) {
      return std::make_unique<LeastQueuedLb>(topo);
    };
    auto fct = harness::run_workload_experiment(cfg, dist, 0.6, 500, 3);
    t.add_row({"least-queued (custom)", stats::Table::usec(fct.overall().mean_us),
               stats::Table::usec(fct.small_flows().p99_us)});
  }

  t.print();
  std::printf("\nEvery scheme saw byte-identical flow arrivals (same seed).\n");
  return 0;
}
