#!/usr/bin/env python3
"""Tier-1 perf-regression guard.

Compares a fresh bench_core_micro JSON against the committed baseline
(BENCH_core.json at the repo root) and hard-fails when the zero-alloc
packet pipeline regresses:

  * packet_pipeline_steady.allocs_per_packet must stay <= 0.01
    (the arena/ring pipeline's steady state allocates nothing per packet;
    bench_core_micro also asserts this internally — the check here catches
    a stale binary or a tampered JSON as well), and
  * engine_decide.allocs_per_decision_steady must stay <= 0.01 (the
    extracted decision engine's HERMES_HOT decide() path is
    allocation-free; the binary asserts literal zero internally), and
  * event_queue_lockstep.allocs_per_event_steady must be exactly 0 (the
    due run, the side run and the block pool keep their high water, so a
    long same-bucket run allocates nothing once warm; storage that stops
    being reused grows geometrically, which is O(log n) allocations, far
    below any per-event budget, so only zero sees it), and
  * event_queue_bursty.retained_heap_bytes_per_peak_event must stay
    <= 200 (wheel storage follows the peak number of stored events:
    86 bytes per 48-byte event at the bench's 2048-event peak, where
    per-bucket high-water storage of 112-byte events retained 29,129),
    and
  * engine_probe_feed.heap_bytes_per_sized_path must stay <= 80 and its
    allocs_per_sample_steady must be exactly 0 (each path of a sized rack
    pair holds one 72-byte PathState, ~73 bytes with its share of the
    PathSet table and the allocation header; a second copy of the state
    or slack capacity per path would exceed 80), and
  * packet_pipeline_10mb.packets_per_sec, event_queue_lockstep.events_per_sec
    and engine_decide.decisions_per_sec must not drop more than 50% below
    the committed baseline, judged on the better of the raw ratio and a
    machine-speed-normalized ratio.

The alloc budget is the hard invariant: allocation counts are
deterministic, so any nonzero drift there is a real regression. The
throughput gate is deliberately loose (50%): wall-clock on shared/
virtualized CI-class machines swings run to run (interleaved A/B runs
of identical binaries measured a 2x spread here), so a tight ratio
would flake. To keep the loose gate meaningful across machine states,
the current run is also scaled by the dre_add_read canary (a tiny
fixed-work loop whose ns/op tracks how fast the machine is *right
now*): normalized = pps * (cur_dre / base_dre). Passing either the raw
or the normalized ratio is enough; a genuine algorithmic regression —
the failure mode this guard exists for, which costs integer factors,
not percents — fails both.

When the current JSON comes from bench_ext_fattree_scale (its "bench"
field says so), the fat-tree gates apply instead:

  * every fattree_* entry must report deterministic == 1 (the T=1 and
    T=N runs hashed byte-identical FCT output) and 0 unfinished flows,
  * events_per_sec_t1 must not drop more than 50% below the committed
    baseline entry of the same key (skipped for keys the baseline does
    not carry, e.g. smoke-only configurations), and
  * speedup >= 1.5 for the k=16 entries — asserted only when the
    *current* run had >= 2 cores; on single-core machines the claim is
    untestable and EXPERIMENTS.md documents the fallback methodology.

Usage: check_bench_regress.py <baseline.json> <current.json>
"""

import json
import sys

ALLOC_BUDGET = 0.01
BURSTY_BYTES_BUDGET = 200
SIZED_PATH_BYTES_BUDGET = 80
MAX_REGRESSION = 0.50
MIN_SPEEDUP = 1.5


def metric(doc, bench, name):
    try:
        return float(doc["metrics"][bench][name])
    except (KeyError, TypeError, ValueError):
        return None


def throughput_gate(baseline, current, bench, name, unit, failures, required=True):
    """Holds bench.name within MAX_REGRESSION of the baseline on the better
    of the raw and the canary-normalized ratio (see the module docstring).
    Returns a status line when the gate passes; a missing metric fails it
    only when `required`."""
    base = metric(baseline, bench, name)
    cur = metric(current, bench, name)
    if base is None or cur is None:
        if required:
            side = "baseline" if base is None else "current run"
            failures.append(f"{side} lacks {bench}.{name}")
        return None
    raw = cur / base
    base_dre = metric(baseline, "dre_add_read", "ns_per_op")
    cur_dre = metric(current, "dre_add_read", "ns_per_op")
    normalized = raw * (cur_dre / base_dre) if base_dre and cur_dre else raw
    if max(raw, normalized) < 1.0 - MAX_REGRESSION:
        failures.append(
            f"{bench} throughput {cur:,.0f} {unit} is {100 * (1 - raw):.1f}% below the "
            f"committed baseline {base:,.0f} even after machine-speed normalization "
            f"({100 * (1 - normalized):.1f}% below; max allowed {100 * MAX_REGRESSION:.0f}%)"
        )
        return None
    return (
        f"{bench} {cur:,.0f} {unit} vs baseline {base:,.0f} "
        f"(raw {100 * (raw - 1):+.1f}%, normalized {100 * (normalized - 1):+.1f}%)"
    )


def check_fattree(baseline, current, failures):
    cores = int(current.get("cores") or 0)
    entries = {
        k: v for k, v in (current.get("metrics") or {}).items() if k.startswith("fattree")
    }
    if not entries:
        failures.append("current run reports no fattree_* metrics")
        return
    for key, m in sorted(entries.items()):
        if int(m.get("deterministic", 0)) != 1:
            failures.append(
                f"{key}: T=1 and T=N produced different FCT output — the "
                "sharded determinism contract is broken"
            )
        if int(m.get("unfinished_flows", 0)) != 0:
            failures.append(
                f"{key}: {m['unfinished_flows']} flows stranded at the time "
                "cap in a fault-free run — scenario no longer completes"
            )
        base_eps = metric(baseline, key, "events_per_sec_t1")
        cur_eps = metric(current, key, "events_per_sec_t1")
        if base_eps and cur_eps:
            if cur_eps / base_eps < 1.0 - MAX_REGRESSION:
                failures.append(
                    f"{key}: serial throughput {cur_eps:,.0f} ev/s is "
                    f"{100 * (1 - cur_eps / base_eps):.1f}% below the baseline "
                    f"{base_eps:,.0f} ev/s (max allowed {100 * MAX_REGRESSION:.0f}%)"
                )
            else:
                print(
                    f"perf guard: {key} {cur_eps:,.0f} ev/s vs baseline "
                    f"{base_eps:,.0f} ({100 * (cur_eps / base_eps - 1):+.1f}%)"
                )
        if key.startswith("fattree_k16") and cores >= 2:
            speedup = float(m.get("speedup") or 0)
            if speedup < MIN_SPEEDUP:
                failures.append(
                    f"{key}: multi-thread speedup {speedup:.2f}x below the "
                    f"{MIN_SPEEDUP}x floor on a {cores}-core machine"
                )
    if cores < 2:
        print(
            "perf guard: speedup gate skipped (single-core machine; "
            "see EXPERIMENTS.md fat-tree scaling methodology)"
        )


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)
    with open(argv[2]) as f:
        current = json.load(f)

    failures = []

    if current.get("bench") == "bench_ext_fattree_scale":
        check_fattree(baseline, current, failures)
        if failures:
            for msg in failures:
                print(f"perf guard FAIL: {msg}", file=sys.stderr)
            return 1
        return 0

    allocs = metric(current, "packet_pipeline_steady", "allocs_per_packet")
    if allocs is None:
        failures.append(
            "current run has no packet_pipeline_steady.allocs_per_packet "
            "metric — bench binary predates the arena pipeline?"
        )
    elif allocs > ALLOC_BUDGET:
        failures.append(
            f"steady-state pipeline allocates {allocs:.4f} per packet "
            f"(budget {ALLOC_BUDGET}) — the zero-alloc arena path regressed"
        )

    eng_allocs = metric(current, "engine_decide", "allocs_per_decision_steady")
    if eng_allocs is None:
        failures.append(
            "current run has no engine_decide.allocs_per_decision_steady "
            "metric — bench binary predates the engine extraction?"
        )
    elif eng_allocs > ALLOC_BUDGET:
        failures.append(
            f"engine decide() allocates {eng_allocs:.4f} per decision "
            f"(budget {ALLOC_BUDGET}) — the HERMES_HOT allocation-free "
            "decision path regressed"
        )

    lockstep_allocs = metric(current, "event_queue_lockstep", "allocs_per_event_steady")
    if lockstep_allocs is None:
        failures.append(
            "current run has no event_queue_lockstep.allocs_per_event_steady "
            "metric — bench binary predates the lockstep bench?"
        )
    elif lockstep_allocs != 0:
        failures.append(
            f"event queue allocates {lockstep_allocs:.6f} per event under lockstep "
            "ports (budget 0) — the due run, the side run or the block pool grows "
            "past its warm-up high water"
        )
    status = throughput_gate(baseline, current, "event_queue_lockstep", "events_per_sec",
                             "events/s", failures)
    if status and lockstep_allocs == 0:
        print(f"perf guard: {status}, steady allocs/event 0 (budget 0)")

    bursty = metric(current, "event_queue_bursty", "retained_heap_bytes_per_peak_event")
    if bursty is None:
        failures.append(
            "current run has no event_queue_bursty.retained_heap_bytes_per_peak_event "
            "metric — bench binary predates the pooled wheel storage?"
        )
    elif bursty > BURSTY_BYTES_BUDGET:
        failures.append(
            f"event queue retains {bursty:,.0f} heap bytes per peak stored event "
            f"under bursty probe ticks (budget {BURSTY_BYTES_BUDGET}) — wheel "
            "storage no longer follows the live events"
        )
    else:
        print(
            f"perf guard: event_queue_bursty retains {bursty:,.0f} heap bytes per "
            f"peak stored event (budget {BURSTY_BYTES_BUDGET})"
        )

    path_bytes = metric(current, "engine_probe_feed", "heap_bytes_per_sized_path")
    probe_allocs = metric(current, "engine_probe_feed", "allocs_per_sample_steady")
    if path_bytes is None or probe_allocs is None:
        failures.append(
            "current run has no engine_probe_feed.heap_bytes_per_sized_path or "
            "allocs_per_sample_steady metric — bench binary predates the one-layout PathSet?"
        )
    elif path_bytes > SIZED_PATH_BYTES_BUDGET or probe_allocs != 0:
        failures.append(
            f"engine holds {path_bytes:.1f} heap bytes per sized path (budget "
            f"{SIZED_PATH_BYTES_BUDGET}) and allocates {probe_allocs:.6f} per probe "
            "sample (budget 0) — a path must hold one PathState, and sampling a sized "
            "pair must not allocate"
        )
    else:
        print(
            f"perf guard: engine_probe_feed {path_bytes:.1f} heap bytes per sized "
            f"path (budget {SIZED_PATH_BYTES_BUDGET}), steady allocs/sample 0 (budget 0)"
        )

    status = throughput_gate(baseline, current, "engine_decide", "decisions_per_sec",
                             "decisions/s", failures, required=False)
    if status:
        print(
            f"perf guard: {status}, steady allocs/decision "
            f"{eng_allocs if eng_allocs is not None else float('nan'):.4f}"
        )

    status = throughput_gate(baseline, current, "packet_pipeline_10mb", "packets_per_sec",
                             "pkts/s", failures)
    if status:
        print(
            f"perf guard: {status}, steady allocs/pkt "
            f"{allocs if allocs is not None else float('nan'):.4f}"
        )

    if failures:
        for msg in failures:
            print(f"perf guard FAIL: {msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
