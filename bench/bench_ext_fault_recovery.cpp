// Extension: resilience scorecard under a *transient* blackhole.
//
// The paper's failure experiments (Figs. 16/17) hold the fault for the
// whole run. Production faults heal — a flapping transceiver or a TCAM
// rewrite lasts well under a second (§2.1) — so what matters is the
// whole arc: how fast a scheme detects the fault, whether it strands
// flows while the fault is live, and whether it releases the path once
// the fault clears (Hermes's failure latch expires without fresh
// evidence; §3.1.2).
//
// Scorecard, per scheme, around a blackhole active on [t1, t2):
//   - avg FCT (incl. unfinished) and its degradation vs a no-fault run
//   - stalled flows at t2 (no ACK progress over the last 10ms of outage)
//   - unfinished flows at the end of the run
//   - detection latency after onset and un-latch latency after recovery
//     (Hermes only: per-pair blackhole latch introspection)
//   - per-reason injected-drop counters and the invariant verdict
//
// Expectation: Hermes latches within 3 timeouts (RTO backoff 10+20+40ms
// worst case), un-latches after recovery, and finishes every flow; ECMP
// has >0 stalled flows during the outage (its hash never escapes the
// failed spine); CONGA also strands flows (the blackholed path looks
// idle).

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "bench_util.hpp"
#include "hermes/faults/fault_plan.hpp"

int main(int argc, char** argv) {
  using namespace hermes;
  using harness::Scheme;
  using sim::msec;
  const double scale = bench::parse_scale(argc, argv);

  const auto topo = bench::sim_topology();
  const int src_leaf = 0;
  const int dst_leaf = topo.num_leaves - 1;
  const int failed_spine = 2;
  const sim::SimTime t1 = msec(20);
  const sim::SimTime t2 = msec(120);

  bench::print_header(
      "Resilience scorecard: transient blackhole (one spine, rack0->rack7, 20ms-120ms)",
      "Hermes latches within 3 timeouts, un-latches after recovery, finishes all flows; "
      "ECMP/CONGA strand flows while the fault is live");

  const Scheme schemes[] = {Scheme::kHermes, Scheme::kEcmp, Scheme::kConga};
  const int bg_flows = bench::scaled(300, scale);

  struct Row {
    double base_mean = 0, fault_mean = 0;
    std::size_t stalled_t2 = 0, unfinished = 0;
    double detect_ms = -1, unlatch_ms = -1;
    std::uint64_t bh_drops = 0;
    bool inv_ok = false;
    std::uint64_t checks = 0;
  };
  std::vector<Row> rows;
  bool all_invariants_ok = true;

  for (Scheme scheme : schemes) {
    Row row;
    for (bool faulted : {false, true}) {
      harness::ScenarioConfig cfg;
      cfg.topo = topo;
      cfg.scheme = scheme;
      cfg.seed = 1;
      cfg.max_sim_time = sim::sec(2);
      if (faulted) {
        cfg.fault_plan.transient_blackhole(
            t1, t2, topo.shape().spine(failed_spine),
            faults::rack_pair_blackhole(topo.hosts_per_leaf, src_leaf, dst_leaf));
        cfg.check_invariants = true;
      }
      harness::Scenario s{cfg};

      // The affected pair: one 100MB flow per rack0 host to its rack7
      // peer, all starting exactly at onset. That is the worst case for
      // detection: a fresh flow has no history, and the blackholed path
      // drops data but not probes, so it looks *idle* and attracts
      // placements — only the blackhole latch (3 consecutive timeouts,
      // §3.1.2) can rescue the flows that land on it. (Flows started
      // before onset escape via a different signal: the late ACKs of
      // their pre-onset in-flight tail mark the path congested, which
      // never demonstrates the latch.) At 2:1 leaf oversubscription each
      // flow gets ~5G, so they span the whole [t1, t2) fault window.
      std::vector<std::pair<std::int32_t, std::int32_t>> pairs;
      for (int h = 0; h < topo.hosts_per_leaf; ++h) {
        const std::int32_t src = s.topology().first_host_of_leaf(src_leaf) + h;
        const std::int32_t dst = s.topology().first_host_of_leaf(dst_leaf) + h;
        s.add_flow(src, dst, 100'000'000, t1);
        pairs.emplace_back(src, dst);
      }
      // Plus fabric-wide web-search background.
      workload::TrafficConfig tc;
      tc.load = 0.3;
      tc.num_flows = bg_flows;
      tc.seed = 1;
      s.add_flows(workload::generate_poisson_traffic(
          s.topology(), workload::SizeDist::web_search(), tc));

      if (faulted) {
        // The blackholed path's index for the affected leaf pair.
        int failed_local = -1;
        const auto paths = s.topology().paths_between_leaves(src_leaf, dst_leaf);
        for (std::size_t i = 0; i < paths.size(); ++i) {
          if (paths[i].spine == failed_spine) failed_local = static_cast<int>(i);
        }

        // Stalled flows at outage end: snapshot ACK progress 10ms before
        // t2 and count flows that made none by t2.
        auto una_of = [&s](std::uint64_t id, std::int32_t src) -> std::int64_t {
          if (transport::TcpSender* snd = s.stack(src).sender(id))
            return static_cast<std::int64_t>(snd->snd_una());
          return -1;
        };
        // Ordered maps: the t2 sweep below iterates them, and the stall
        // count must not depend on hash order if it ever turns into a
        // per-flow report.
        std::map<std::uint64_t, std::int64_t> una0;
        std::map<std::uint64_t, std::int32_t> srcs;
        s.simulator().at(t2 - msec(10), [&] {
          for (const auto& [id, spec] : s.active_flows()) {
            una0[id] = una_of(id, spec.src);
            srcs[id] = spec.src;
          }
        });
        s.simulator().at(t2, [&] {
          for (const auto& [id, prev] : una0) {
            if (prev < 0) continue;
            const auto it = s.active_flows().find(id);
            if (it == s.active_flows().end()) continue;  // finished: not stalled
            if (una_of(id, srcs[id]) == prev) ++row.stalled_t2;
          }
        });

        // Hermes latch introspection: poll every 500us for onset
        // detection and for release after recovery.
        if (s.hermes() && failed_local >= 0) {
          auto any_latched = [&, failed_local] {
            for (const auto& [src, dst] : pairs)
              if (s.hermes()->blackholed(src, dst, failed_local)) return true;
            return false;
          };
          for (sim::SimTime at = t1; at < sim::sec(1); at += sim::usec(500)) {
            s.simulator().at(at, [&, at] {
              const bool latched = any_latched();
              if (row.detect_ms < 0 && latched) row.detect_ms = (at - t1).to_usec() / 1000.0;
              if (at >= t2 && row.detect_ms >= 0 && row.unlatch_ms < 0 && !latched)
                row.unlatch_ms = (at - t2).to_usec() / 1000.0;
            });
          }
        }
      }

      const auto fct = s.run();
      const double mean = fct.overall_with_unfinished().mean_us;
      if (!faulted) {
        row.base_mean = mean;
      } else {
        row.fault_mean = mean;
        row.unfinished = fct.unfinished_flows();
        for (int sp = 0; sp < topo.num_spines; ++sp)
          row.bh_drops += s.topology().spine(sp).blackhole_drops();
        if (s.invariants() != nullptr) {
          s.invariants()->check_now("end of bench");
          row.inv_ok = s.invariants()->ok();
          row.checks = s.invariants()->checks_run();
          if (!row.inv_ok) {
            all_invariants_ok = false;
            std::printf("  INVARIANT VIOLATION (%s): %s\n", harness::to_string(scheme),
                        s.invariants()->violations().front().what.c_str());
          }
        }
      }
    }
    rows.push_back(row);
  }

  stats::Table t({"scheme", "avg FCT (fault)", "vs no-fault", "stalled@t2", "unfinished",
                  "detect (ms)", "un-latch (ms)", "bh drops", "invariants"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    t.add_row({harness::to_string(schemes[i]), stats::Table::usec(r.fault_mean),
               stats::Table::num(r.fault_mean / r.base_mean, 2) + "x",
               std::to_string(r.stalled_t2), std::to_string(r.unfinished),
               r.detect_ms >= 0 ? stats::Table::num(r.detect_ms, 1) : "-",
               r.unlatch_ms >= 0 ? stats::Table::num(r.unlatch_ms, 1) : "-",
               std::to_string(r.bh_drops),
               r.checks ? (r.inv_ok ? "PASS" : "FAIL") : "-"});
  }
  t.print();

  // Acceptance verdicts. The detection bound is 3 RTO-backoff windows
  // (10+20+40ms) plus polling slack; un-latch is the 100ms latch expiry
  // after the last confirming timeout, so anything finite counts.
  const Row& hermes = rows[0];
  const Row& ecmp = rows[1];
  const auto verdict = [](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
    return ok;
  };
  bool ok = true;
  ok &= verdict(hermes.detect_ms >= 0 && hermes.detect_ms <= 80.0,
                "Hermes latches the blackholed path within 3 timeouts (<=80ms)");
  ok &= verdict(hermes.unlatch_ms >= 0, "Hermes un-latches the path after recovery");
  ok &= verdict(hermes.unfinished == 0, "Hermes finishes every flow");
  ok &= verdict(ecmp.stalled_t2 > 0, "ECMP has stalled flows during the outage");
  ok &= verdict(all_invariants_ok, "byte conservation + queue bounds hold on every run");
  std::printf("\nresilience scorecard: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
