// Figure 2 (Example 2): congestion mismatch under asymmetry with
// congestion-oblivious spraying (Presto).
//
// 3x2 leaf-spine with the L0-S1 link broken. Flow B is a 9Gbps UDP
// stream L0 -> L2 (it can only use S0), so the S0 -> L2 link has ~1Gbps
// to spare. Flow A is a DCTCP flow L1 -> L2 sprayed over both spines.
// ECN marks earned on the congested S0 subpath throttle A's single
// congestion window, so the idle S1 path is starved too: A ends up
// around 1-2Gbps instead of ~11Gbps of available capacity, and the
// S0 -> L2 queue oscillates. A congestion-aware single-path choice
// (Hermes) gets A ~10Gbps on S1.

#include "bench_util.hpp"

#include "hermes/harness/trace.hpp"
#include "hermes/transport/udp_source.hpp"

int main(int argc, char** argv) {
  using namespace hermes;
  using harness::Scheme;
  (void)bench::parse_scale(argc, argv);

  bench::print_header(
      "Figure 2 (Example 2): congestion mismatch (Presto spraying, broken link)",
      "flow A achieves only ~1-2Gbps despite ~11Gbps being reachable; the S0->L2 "
      "queue oscillates; Hermes gets ~10Gbps with a stable queue");

  const auto horizon = sim::msec(60);

  stats::Table t({"scheme", "flow A goodput", "S0->L2 queue mean", "S0->L2 queue max"});
  for (Scheme scheme : {Scheme::kPrestoStar, Scheme::kHermes}) {
    harness::ScenarioConfig cfg;
    cfg.topo.num_leaves = 3;
    cfg.topo.num_spines = 2;
    cfg.topo.hosts_per_leaf = 2;
    cfg.topo.fabric_overrides[{0, 1, 0}] = 0;  // break L0-S1
    cfg.scheme = scheme;
    cfg.presto_weighted = false;         // the example uses equal weights
    cfg.presto_cell_bytes = 64 * 1024;   // original Presto flowcells
    cfg.max_sim_time = sim::sec(1);
    harness::Scenario s{cfg};

    // Flow B: 9G UDP from L0 (host 0) to L2 (host 4).
    transport::UdpSource udp{s.simulator(),
                             s.topology(),
                             s.balancer(),
                             9999,
                             0,
                             4,
                             9e9,
                             1460,
                             [&s](net::Packet p) { s.stack(0).send_raw(std::move(p)); }};
    udp.start();

    // Flow A: long DCTCP flow from L1 (host 2) to L2 (host 5).
    const auto flow_id = s.add_flow(2, 5, 1'000'000'000, sim::usec(100));

    harness::QueueTrace trace{s.simulator(), s.topology().spine_downlink(0, 2), sim::usec(20)};
    trace.start(horizon);
    s.run_for(horizon);
    udp.stop();

    auto* recv = s.stack(5).receiver(flow_id);
    const double goodput_gbps =
        recv ? static_cast<double>(recv->rcv_nxt()) * 8 / horizon.to_seconds() / 1e9 : 0.0;
    t.add_row({harness::to_string(scheme), stats::Table::num(goodput_gbps, 2) + " Gbps",
               stats::Table::num(trace.mean_backlog() / 1e3, 1) + " KB",
               stats::Table::num(trace.max_backlog() / 1e3, 1) + " KB"});
  }
  t.print();
  return 0;
}
