// Figure 3 (Example 3): congestion mismatch persists even with
// capacity-proportional weights on heterogeneous paths.
//
// Two paths between a host pair: one 1Gbps, one 10Gbps. Presto* sprays
// packets 1:10 to match capacities and "expects both paths to be fully
// utilized" — but the bursts sent while the window grew on the 10G path
// swamp the 1G path, ECN-marked ACKs from the 1G path then cut the
// window that the 10G path needed, and the flow ends up around half of
// the 11Gbps aggregate. Hermes simply rides the 10G path at ~10Gbps.

#include "bench_util.hpp"

#include "hermes/harness/trace.hpp"

int main(int argc, char** argv) {
  using namespace hermes;
  using harness::Scheme;
  (void)bench::parse_scale(argc, argv);

  bench::print_header(
      "Figure 3 (Example 3): heterogeneous paths (1G + 10G), weighted spraying",
      "Presto* with 1:10 weights reaches only ~5Gbps of the 11Gbps aggregate; "
      "the 1G bottleneck queue oscillates");

  const auto horizon = sim::msec(60);

  stats::Table t({"scheme", "flow A goodput", "1G-path queue mean", "1G-path queue max"});
  for (Scheme scheme : {Scheme::kPrestoStar, Scheme::kHermes}) {
    harness::ScenarioConfig cfg;
    cfg.topo.num_leaves = 2;
    cfg.topo.num_spines = 2;
    cfg.topo.hosts_per_leaf = 1;
    // The spine-0 path is 1G on its destination leg (as in Fig. 3a the
    // bottleneck sits at the spine's output toward the receiver).
    cfg.topo.fabric_overrides[{1, 0, 0}] = 1e9;
    cfg.scheme = scheme;
    cfg.presto_weighted = true;          // 1:10 capacity weights
    cfg.presto_cell_bytes = 64 * 1024;   // the example sprays flowcells
    cfg.max_sim_time = sim::sec(1);
    harness::Scenario s{cfg};

    const auto flow_id = s.add_flow(0, 1, 1'000'000'000, sim::usec(0));

    harness::QueueTrace trace{s.simulator(), s.topology().spine_downlink(0, 1), sim::usec(20)};
    trace.start(horizon);
    s.run_for(horizon);

    auto* recv = s.stack(1).receiver(flow_id);
    const double goodput_gbps =
        recv ? static_cast<double>(recv->rcv_nxt()) * 8 / horizon.to_seconds() / 1e9 : 0.0;
    t.add_row({harness::to_string(scheme), stats::Table::num(goodput_gbps, 2) + " Gbps",
               stats::Table::num(trace.mean_backlog() / 1e3, 1) + " KB",
               stats::Table::num(trace.max_backlog() / 1e3, 1) + " KB"});
  }
  t.print();
  std::printf("\n(available aggregate capacity: 11 Gbps; host NIC limits a single path "
              "to 10 Gbps)\n");
  return 0;
}
