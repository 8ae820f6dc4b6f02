// Figure 4 (Example 4): the hidden-terminal scenario — suboptimal
// rerouting from stale congestion information.
//
// Flow B runs steadily L1 -> L2. Flow A sends bursts from L0 -> L2 with
// 3ms pauses between them (each pause exceeds the flowlet timeout, so
// every burst is a fresh routing decision). CONGA's source leaf only
// has fresh feedback for the path A itself just used (high metric); the
// alternative path's metric ages out to "assumed empty" after 10ms — so
// A deterministically flips to the other spine on every burst, and every
// other burst lands on B's spine and spikes its queue. Hermes does not
// suffer the stale-alternation pathology: choices among equally-sensed
// paths are randomized and collision evidence (ECN'd probes) steers
// bursts away while it is fresh.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "bench_util.hpp"

#include "hermes/harness/trace.hpp"
#include "hermes/transport/flow.hpp"

int main(int argc, char** argv) {
  using namespace hermes;
  using harness::Scheme;
  (void)bench::parse_scale(argc, argv);

  bench::print_header(
      "Figure 4 (Example 4): hidden terminal — flapping from stale information",
      "CONGA flips flow A's spine on (nearly) every burst with stale metrics; "
      "queue spikes whenever A lands on B's spine");

  constexpr int kBursts = 20;
  constexpr std::uint64_t kBurstBytes = 12'500'000;  // ~10ms at 10G
  const auto kPause = sim::msec(3);

  stats::Table t({"scheme", "A spine flips (of 19)", "bursts on B's spine",
                  "B-spine queue max", "B-spine queue mean"});
  for (Scheme scheme : {Scheme::kConga, Scheme::kHermes}) {
    harness::ScenarioConfig cfg;
    cfg.topo.num_leaves = 3;
    cfg.topo.num_spines = 2;
    cfg.topo.hosts_per_leaf = 2;
    cfg.scheme = scheme;
    cfg.max_sim_time = sim::sec(5);
    harness::Scenario s{cfg};

    // Flow B: long-running, from L1 (host 2) to L2 (host 4).
    const auto b_id = s.add_flow(2, 4, 2'000'000'000, sim::usec(0));
    s.run_for(sim::msec(1));
    const auto spine_of = [&s](int src, int dst, int path) {
      return s.topology().paths_between_hosts(src, dst)[static_cast<std::size_t>(path)].spine;
    };
    const int b_spine = spine_of(2, 4, s.stack(2).sender(b_id)->ctx().current_path);

    harness::QueueTrace trace{s.simulator(), s.topology().spine_downlink(b_spine, 2),
                              sim::usec(50)};
    trace.start(sim::msec(400));

    // Flow A: a serialized burst train L0 (host 0) -> L2 (host 5); the
    // next burst starts 3ms after the previous one completes.
    std::vector<int> burst_spines;
    int bursts_done = 0;
    std::function<void()> start_burst = [&] {
      transport::FlowSpec spec;
      spec.id = 100 + static_cast<std::uint64_t>(bursts_done);
      spec.src = 0;
      spec.dst = 5;
      spec.size = kBurstBytes;
      spec.start = s.simulator().now();
      auto& sender = s.stack(0).start_flow(spec, [&](const transport::FlowRecord&) {
        if (++bursts_done < kBursts) s.simulator().after(kPause, [&] { start_burst(); });
      });
      burst_spines.push_back(spine_of(0, 5, sender.ctx().current_path));
    };
    start_burst();
    s.run_for(sim::msec(800));

    int flips = 0, on_b_spine = 0;
    for (std::size_t i = 0; i < burst_spines.size(); ++i) {
      if (burst_spines[i] == b_spine) ++on_b_spine;
      if (i > 0 && burst_spines[i] != burst_spines[i - 1]) ++flips;
    }
    t.add_row({harness::to_string(scheme), std::to_string(flips), std::to_string(on_b_spine),
               stats::Table::num(trace.max_backlog() / 1e3, 1) + " KB",
               stats::Table::num(trace.mean_backlog() / 1e3, 1) + " KB"});
  }
  t.print();
  std::printf("\n(B alone queues only at its NIC; the spikes appear exactly when a burst "
              "of A shares B's spine downlink)\n");
  return 0;
}
