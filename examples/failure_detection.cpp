// Failure-detection walkthrough: inject a packet blackhole and a silent
// random-drop switch into an 8x8 fabric *mid-run* via a timed FaultPlan,
// run traffic under Hermes, watch the sensing module identify the failed
// paths (§3.1.2) — and then watch it RELEASE them after the faults heal
// (the failure latch expires without fresh evidence).
//
//   $ ./failure_detection
//
// Demonstrates: FaultPlan with onset + recovery, FaultScheduler
// introspection (log / active_faults), HermesLb introspection
// (path_state / path_type / blackholed), per-reason switch drop
// counters, and the FCT consequences.

#include <cstddef>
#include <cstdint>
#include <cstdio>

#include "hermes/engine/path_state.hpp"
#include "hermes/faults/fault_plan.hpp"
#include "hermes/faults/fault_scheduler.hpp"
#include "hermes/harness/scenario.hpp"
#include "hermes/workload/flow_gen.hpp"

namespace {

using namespace hermes;

/// Prints what Hermes believes about the rack0 -> rack7 paths at `ms`.
struct PathReport {
  harness::Scenario& s;
  void print(std::uint64_t ms) {
    std::printf("t=%3dms  [%d fault(s) active]  rack0->rack7 path types:", static_cast<int>(ms),
                s.fault_scheduler()->active_faults());
    const auto& paths = s.topology().paths_between_leaves(0, 7);
    for (std::size_t i = 0; i < paths.size(); ++i) {
      std::printf(" s%d:%s", paths[i].spine,
                  to_string(s.hermes()->path_type(0, 7, static_cast<int>(i))));
    }
    std::printf("\n");
  }
};

}  // namespace

int main() {
  using sim::msec;

  harness::ScenarioConfig cfg;
  cfg.scheme = harness::Scheme::kHermes;
  cfg.max_sim_time = sim::sec(5);

  // Both faults onset at 5ms and heal at 250ms:
  //   spine 1 blackholes half the rack0 -> rack7 host pairs, like a
  //   TCAM-corrupted switch; spine 5 silently drops 2% of everything.
  const sim::SimTime onset = msec(5);
  const sim::SimTime heal = msec(250);
  const net::FabricShape shape = cfg.topo.shape();
  cfg.fault_plan
      .transient_blackhole(onset, heal, shape.spine(1),
                           faults::rack_pair_blackhole(cfg.topo.hosts_per_leaf, 0, 7,
                                                       /*half_pairs=*/true))
      .transient_random_drop(onset, heal, shape.spine(5), 0.02);
  cfg.check_invariants = true;

  harness::Scenario s{cfg};

  workload::TrafficConfig tc{.load = 0.5, .num_flows = 1500, .seed = 7};
  s.add_flows(workload::generate_poisson_traffic(s.topology(),
                                                 workload::SizeDist::web_search(), tc));

  // A chatty host pair crossing the blackhole: host 0 (rack0) repeatedly
  // talks to host 112 (rack7). Blackhole detection is per host pair, so
  // the pair's accumulated timeouts on the poisoned path latch it — and
  // the same pair's continued chatter past t=250ms gives the healed path
  // fresh samples, so we can watch the latch expire.
  for (int i = 0; i < 60; ++i) s.add_flow(0, 112, 80'000, msec(5 + 10 * i));

  // Periodically report what Hermes believes about rack0 -> rack7 paths:
  // detection while the faults are live, release after they heal.
  PathReport report{s};
  for (int ms : {5, 20, 80, 200, 300, 450}) {
    s.simulator().at<&PathReport::print>(msec(ms), &report, static_cast<std::uint64_t>(ms));
  }

  auto fct = s.run();

  std::printf("\nfault timeline as executed:\n");
  for (const auto& e : s.fault_scheduler()->log())
    std::printf("  t=%3lldms  %s\n",
                static_cast<long long>(e.at.to_usec() / 1000), e.what.c_str());

  std::printf("\nflows: %zu total, %zu unfinished (Hermes routes around both failures)\n",
              fct.total_flows(), fct.unfinished_flows());
  std::printf("overall mean FCT: %.0fus, timeouts: %llu\n", fct.overall().mean_us,
              static_cast<unsigned long long>(fct.total_timeouts()));

  // Post-run introspection. Both faults healed at 250ms and the latches
  // expire without fresh timeout evidence, so these counts are 0 again.
  int drop_latched = 0, hole_pairs = 0;
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      if (a == b) continue;
      const auto& paths = s.topology().paths_between_leaves(a, b);
      for (std::size_t i = 0; i < paths.size(); ++i) {
        // failed_active applies the latch expiry (the raw failed() flag
        // can linger on pairs that saw no traffic after the heal).
        if (paths[i].spine == 5 && s.hermes()
                                       ->path_state(a, b, static_cast<int>(i))
                                       .failed_active(s.simulator().now().ns(),
                                                      s.hermes()->engine().config()))
          ++drop_latched;
      }
    }
  }
  for (int src = 0; src < 16; ++src)
    for (int dst = 112; dst < 128; ++dst)
      for (int i = 0; i < 8; ++i)
        if (s.hermes()->blackholed(src, dst, i)) ++hole_pairs;

  std::printf("still latched after recovery: %d random-drop paths, %d blackhole entries\n",
              drop_latched, hole_pairs);
  std::printf("switch drop counters: spine1=%llu (blackhole), spine5=%llu (random)\n",
              static_cast<unsigned long long>(s.topology().spine(1).blackhole_drops()),
              static_cast<unsigned long long>(s.topology().spine(5).random_drops()));
  std::printf("invariants: %s after %llu checks\n",
              s.invariants()->ok() ? "PASS" : "FAIL",
              static_cast<unsigned long long>(s.invariants()->checks_run()));
  return s.invariants()->ok() ? 0 : 1;
}
