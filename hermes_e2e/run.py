#!/usr/bin/env python3
"""hermes_e2e: the repository benchmark.

Generates each workload's traffic from the seed, runs the hermes_e2e
binary once per repeat (each repeat its own process), checks the outputs,
and prints every metric by name with its unit. See README.md beside this
file for the workloads, the metrics and their bounds.

  python3 hermes_e2e/run.py --seed=1
      every workload, interleaved round-robin for 5 rounds, plus one
      1-thread and one traced run per workload; prints the tables and
      writes <build>/hermes_e2e_result.json
  python3 hermes_e2e/run.py --workload=NAME --seed=N --seconds=S --trace=0|1
      one workload, repeated within S seconds; --trace=1 first adds the
      1-thread and traced runs and reports the per-layer metrics instead
      of the end-to-end ones
  python3 hermes_e2e/run.py --smoke
      every workload at toy size, one round, every check

The last line of stdout is one JSON object:
  {"correct": bool, "attempted": flows, "failed": unfinished flows,
   "metrics": {name: {"value": v, "unit": u}}}
With several workloads the metric names carry a "<workload>." prefix.

The binary is configured and built on first use (cmake, Release) in the
--build directory, .bench_build by default. Exit status: 0 when every
check passed, 1 when a check failed or the build is unfit for timing.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Web-search flow-size CDF (bytes, cumulative probability): the same
# table as workload::SizeDist::web_search().
WEB_SEARCH = [(0, 0.0), (10e3, 0.15), (20e3, 0.20), (30e3, 0.30), (50e3, 0.40),
              (80e3, 0.53), (200e3, 0.60), (1e6, 0.70), (2e6, 0.80), (5e6, 0.90),
              (10e6, 0.97), (30e6, 1.00)]

# name -> (hosts, hosts per leaf, bisection bits/s); mirrors the fabrics
# hermes_e2e builds (net::TopologyConfig defaults, net::FatTree k).
FABRICS = {
    "leafspine": (128, 16, 8 * 8 * 10e9),
    "fattree16": (1024, 8, 128 * 8 * 10e9),
    "fattree4": (16, 2, 8 * 2 * 10e9),
}

WARMUP_FLOWS = 200
SIZE_BANDS = 100
ROUNDS = 5
MIN_REPEATS = 3
PROCESS_TIMEOUT_S = 120
# Fat-tree worker threads, at most nproc. Every round wakes each worker
# and waits for the slowest, so a worker that loses its core to anything
# else on the host stalls the round; two leave cores spare.
FAT_TREE_THREADS = 2


def workload(fabric, scheme, load, flows, cap_ms, size_scale, drop=None, hold_ms=None):
    return dict(fabric=fabric, scheme=scheme, load=load, flows=flows, cap_ms=cap_ms,
                size_scale=size_scale, drop=drop, hold_ms=hold_ms)


# Why each workload exists is in README.md and BENCHMARK.json. The
# leaf-spine ones run the paper's 8x8 fabric at 60% load with web-search
# sizes scaled x0.25: 2400 flows leave 22 measured flows beyond p99 while a
# repeat stays near 2 s, so a 30 s window holds a dozen repeats.
WORKLOADS = {
    "leafspine_web_ecmp": workload("leafspine", "ecmp", 0.6, 2400, 30000, 0.25),
    # Hermes on every packet plus probing, and spine 3 silently drops 2% of
    # the packets crossing it, as in fig16.
    "leafspine_drop_hermes": workload("leafspine", "hermes", 0.6, 2400, 10000, 0.25,
                                      drop=(3, 0.02)),
    # The arrivals span ~1 ms and the last flow ends at 4-7 ms, or ~12 ms
    # after a 10 ms RTO. A last one-packet flow at 8 ms holds every run open
    # to the same simulated time, so Hermes probes for the same number of
    # 500 us rounds whatever the seed.
    "fattree16_ecmp": workload("fattree16", "ecmp", 0.25, 2000, 200, 0.1, hold_ms=8),
    "fattree16_hermes": workload("fattree16", "hermes", 0.25, 2000, 200, 0.1, hold_ms=8),
}

# End-to-end metrics (untraced runs): name -> unit. All lower-is-better.
E2E_METRICS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fct_mean_us": "us",
    "fct_p50_us": "us",
    "fct_p99_us": "us",
}

# Per-layer metrics reported on every workload: name -> unit.
LAYER_METRICS = {
    "sim.events": "count",
    "sim.events_per_data_pkt": "ratio",
    "sim.ns_per_event": "ns",
    "sim.rounds": "count",
    "sim.shard_imbalance": "ratio",
    "sim.serial_run_s": "s",
    "sim.speedup": "ratio",
    "net.tx_packets": "count",
    "net.tx_per_data_pkt": "ratio",
    "net.tx_bytes": "bytes",
    "net.drop_frac": "ratio",
    "net.ecn_marks": "count",
    "net.boundary_packets": "count",
    "transport.packets_sent": "count",
    "transport.retx_frac": "ratio",
    "transport.timeouts": "count",
    "transport.rx_calls": "count",
    "transport.rx_self_s": "s",
    "transport.rx_ns_per_call": "ns",
    "lb.probes_sent": "count",
    "lb.probes_per_data_pkt": "ratio",
    "lb.probe_bytes_frac": "ratio",
    "lb.probe_reply_frac": "ratio",
    "engine.placements": "count",
    "engine.reroutes": "count",
    "engine.escapes": "count",
    "engine.latches": "count",
    "harness.setup_rss_mb": "MB",
    "harness.residual_s": "s",
    "harness.trace_overhead_frac": "ratio",
    "workload.gen_s": "s",
    "workload.flows": "count",
}

# Reported in the tables and the result file, but not on every workload:
# the balancer spans need ScenarioConfig::wrap_balancer (leaf-spine only),
# probe replies exist only under Hermes, executor rounds only sharded.
EXTRA_METRICS = {
    "lb.select_calls": "count",
    "lb.select_self_s": "s",
    "lb.ack_self_s": "s",
    "lb.loss_self_s": "s",
    "lb.probe_rx_self_s": "s",
    "sim.events_per_round": "ratio",
    "sim.horizon_mean_ns": "ns",
}


class CheckFailed(Exception):
    pass


def check(cond, workload_name, what):
    if not cond:
        raise CheckFailed(f"{workload_name}: {what}")


# --- traffic ---------------------------------------------------------------

def cdf_mean(points):
    """Mean of the piecewise-linear distribution (SizeDist's formula)."""
    mean = points[0][0] * points[0][1]
    for (x0, p0), (x1, p1) in zip(points, points[1:]):
        mean += (p1 - p0) * 0.5 * (x0 + x1)
    return mean


def inverse_cdf(points, u):
    """Flow size at quantile u, interpolated as SizeDist::sample does."""
    for i, (x1, p1) in enumerate(points):
        if p1 >= u:
            if i == 0:
                return max(1.0, x1)
            x0, p0 = points[i - 1]
            frac = (u - p0) / (p1 - p0) if p1 > p0 else 1.0
            return max(1.0, x0 + frac * (x1 - x0))
    return points[-1][0]


def generate_flows(w, seed):
    """Open-loop Poisson arrivals at `load` of bisection capacity, between
    hosts under different leaves, drawn so that seeds differ in detail but
    not in the work they offer:
      - the n arrival times are a Poisson process conditioned to span
        exactly n / rate, so every seed offers the stated load;
      - every SIZE_BANDS consecutive flows take one size from each
        percentile band of the CDF, in random order;
      - sources and destinations come from shuffled decks of all hosts,
        so every host sends and receives about equally often."""
    hosts, per_leaf, bisection = FABRICS[w["fabric"]]
    points = [(x * w["size_scale"], p) for x, p in WEB_SEARCH]
    rate = w["load"] * bisection / 8.0 / cdf_mean(points)  # flows per second
    rng = random.Random(seed)
    n = w["flows"]
    gaps = [rng.expovariate(1.0) for _ in range(n + 1)]
    span = n / rate / sum(gaps)
    bands, srcs, dsts = [], [], []
    flows = []
    t = 0.0
    for i in range(n):
        if not bands:
            bands = list(range(SIZE_BANDS))
            rng.shuffle(bands)
        t += gaps[i] * span
        size = int(inverse_cdf(points, (bands.pop() + rng.random()) / SIZE_BANDS))
        if not srcs:
            srcs = rng.sample(range(hosts), hosts)
        if len(dsts) < hosts:
            dsts = rng.sample(range(hosts), hosts) + dsts
        src = srcs.pop()
        dst = dsts.pop(next(j for j in reversed(range(len(dsts)))
                            if dsts[j] // per_leaf != src // per_leaf))
        flows.append((i + 1, src, dst, size, int(t * 1e9 + 0.5)))
    if w["hold_ms"]:
        flows.append((n + 1, 0, hosts - 1, 1000, int(w["hold_ms"] * 1e6)))
    return flows


# --- build and run ------------------------------------------------------------

def build(build_dir, jobs):
    """Builds hermes_e2e, configuring the build directory first when it
    does not build yet; returns the binary path."""
    out = sys.stderr
    make = ["cmake", "--build", build_dir, "--target", "hermes_e2e", "-j", str(jobs)]
    if subprocess.run(make, stdout=out, stderr=out).returncode != 0:
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=out, stderr=out)
        subprocess.run(make, check=True, stdout=out, stderr=out)
    return os.path.join(build_dir, "hermes_e2e")


def run_binary(binary, name, w, flows_path, threads, warmup, trace_path=None):
    cmd = [binary, f"--fabric={w['fabric']}", f"--scheme={w['scheme']}",
           f"--flows={flows_path}", f"--cap-ms={w['cap_ms']}", f"--threads={threads}",
           f"--warmup={warmup}"]
    if w["drop"]:
        cmd += [f"--drop-spine={w['drop'][0]}", f"--drop-rate={w['drop'][1]}"]
    if trace_path:
        cmd.append(f"--trace={trace_path}")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    check(proc.returncode == 0, name,
          f"hermes_e2e exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Case:
    """One workload at one seed: its flows, and every run made of it."""

    def __init__(self, name, w, seed, threads, warmup, work_dir):
        self.name, self.w, self.warmup = name, w, warmup
        self.threads = threads if w["fabric"].startswith("fattree") else 1
        t0 = time.perf_counter()
        flows = generate_flows(w, seed)
        self.gen_s = time.perf_counter() - t0
        self.n_flows = len(flows)
        self.flow_bytes = sum(f[3] for f in flows)
        self.flows_path = os.path.join(work_dir, f"flows_{name}_seed{seed}.txt")
        with open(self.flows_path, "w") as f:
            f.writelines(" ".join(map(str, fl)) + "\n" for fl in flows)
        self.trace_path = os.path.join(work_dir, f"spans_{name}_seed{seed}.json")
        self.runs = []
        self.serial = None
        self.traced = None

    def run(self, binary):
        self.runs.append(run_binary(binary, self.name, self.w, self.flows_path, self.threads,
                                    self.warmup))

    def run_layers(self, binary):
        """The 1-thread untraced run (fat-tree only; leaf-spine runs are
        1-thread already) and the traced run."""
        if self.threads > 1:
            self.serial = run_binary(binary, self.name, self.w, self.flows_path, 1, self.warmup)
        self.traced = run_binary(binary, self.name, self.w, self.flows_path, 1, self.warmup,
                                 self.trace_path)

    # --- checks --------------------------------------------------------------

    def check(self):
        for r in self.runs + [x for x in (self.serial, self.traced) if x]:
            check(r["build"]["ndebug"] and not r["build"]["sanitizer"], self.name,
                  "refusing to report from a non-NDEBUG or sanitizer build")
            check(r["records"] == self.n_flows and r["missing"] == 0, self.name,
                  f"{r['missing']} of {self.n_flows} flows have no record")
            check(r["unfinished"] == 0, self.name,
                  f"{r['unfinished']} flows unfinished at the {self.w['cap_ms']} ms cap")
        hashes = {r["fct_hash"] for r in self.runs}
        check(len(hashes) == 1, self.name, f"same-seed repeats differ: FCT hashes {hashes}")
        base = self.runs[0]["fct_hash"]
        if self.serial:
            check(self.serial["fct_hash"] == base, self.name,
                  f"1-thread FCT hash {self.serial['fct_hash']} != "
                  f"{self.threads}-thread hash {base}")
        if self.traced:
            check(self.traced["fct_hash"] == base, self.name,
                  f"traced FCT hash {self.traced['fct_hash']} != untraced hash {base}")
            spans = self.traced["spans"]
            check(all(s["self_s"] >= 0 for s in spans.values()), self.name,
                  "negative span self time")
            covered = sum(s["self_s"] for s in spans.values())
            check(covered <= self.traced["run_s"] * 1.01, self.name,
                  f"span self times {covered:.3f}s exceed traced run_s "
                  f"{self.traced['run_s']:.3f}s")

    # --- metrics -------------------------------------------------------------

    def e2e(self):
        """End-to-end metric -> its samples, one per untraced run."""
        runs = self.runs
        return {
            "run_s": [r["run_s"] for r in runs],
            "setup_s": [r["setup_s"] for r in runs],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
            "fct_mean_us": [r["fct"]["mean_us"] for r in runs],
            "fct_p50_us": [r["fct"]["p50_us"] for r in runs],
            "fct_p99_us": [r["fct"]["p99_us"] for r in runs],
            "unfinished_frac": [r["unfinished"] / r["flows"] for r in runs],
        }

    def layers(self):
        """Per-layer metrics: counts from the untraced run's registry (they
        repeat exactly), times from the serial and traced runs."""
        r = self.runs[0]
        c, g = r["metrics"]["counters"], r["metrics"]["gauges"]
        run_s = statistics.median(self.e2e()["run_s"])
        serial_s = self.serial["run_s"] if self.serial else run_s
        events = c["sim.events_processed"]
        data = c["transport.packets_sent"]
        drops = c["net.drops"] + c["net.link_down_drops"] + c["net.failure_drops"]
        shard_events = [v for k, v in c.items() if k.startswith("sharding.shard")]
        rounds = c.get("sharding.rounds", 0)
        probes = c.get("lb.probes_sent", 0)
        m = {
            "sim.events": events,
            "sim.events_per_data_pkt": events / data,
            "sim.ns_per_event": run_s * 1e9 / events,
            "sim.rounds": rounds,
            "sim.events_per_round": events / rounds if rounds else 0.0,
            "sim.horizon_mean_ns": g.get("sharding.horizon_mean_ns", 0.0),
            "sim.shard_imbalance": (max(shard_events) / statistics.mean(shard_events)
                                    if shard_events else 1.0),
            "sim.serial_run_s": serial_s,
            "sim.speedup": serial_s / run_s,
            "net.tx_packets": c["net.tx_packets"],
            "net.tx_per_data_pkt": c["net.tx_packets"] / data,
            "net.tx_bytes": c["net.tx_bytes"],
            "net.drop_frac": drops / (c["net.tx_packets"] + drops),
            "net.ecn_marks": c["net.ecn_marks"],
            "net.boundary_packets": c.get("sharding.boundary_packets", 0),
            "transport.packets_sent": data,
            "transport.retx_frac": c["transport.packets_retransmitted"] / data,
            "transport.timeouts": c["transport.timeouts"],
            "lb.probes_sent": probes,
            "lb.probes_per_data_pkt": probes / data,
            "lb.probe_bytes_frac": c.get("lb.probe_bytes", 0) / self.flow_bytes,
            "lb.probe_reply_frac": c.get("lb.probe_replies", 0) / probes if probes else 0.0,
            "engine.placements": c.get("lb.initial_placements", 0),
            "engine.reroutes": c.get("lb.congestion_reroutes", 0),
            "engine.escapes": c.get("lb.timeout_escapes", 0) + c.get("lb.failure_escapes", 0),
            "engine.latches": c.get("lb.blackhole_latches", 0),
            "harness.setup_rss_mb": statistics.median(x["setup_rss_mb"] for x in self.runs),
            "workload.gen_s": self.gen_s,
            "workload.flows": self.n_flows,
        }
        if self.traced:
            spans = self.traced["spans"]
            rx = spans["transport.rx"]
            traced_s = self.traced["run_s"]
            m.update({
                "transport.rx_calls": rx["calls"],
                "transport.rx_self_s": rx["self_s"],
                "transport.rx_ns_per_call": rx["self_s"] * 1e9 / max(rx["calls"], 1),
                "lb.select_calls": spans["lb.select"]["calls"],
                "lb.select_self_s": spans["lb.select"]["self_s"],
                "lb.ack_self_s": spans["lb.ack"]["self_s"],
                "lb.loss_self_s": spans["lb.loss"]["self_s"],
                "lb.probe_rx_self_s": spans["lb.probe_rx"]["self_s"],
                "harness.residual_s": traced_s - sum(s["self_s"] for s in spans.values()),
                "harness.trace_overhead_frac": traced_s / serial_s - 1.0,
            })
        return m


# --- reporting -------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(v):
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def print_tables(cases):
    print("\nend-to-end metrics: median [q1, q3] over n untraced runs; all lower-is-better")
    for case in cases:
        e = case.e2e()
        print(f"\n{case.name}  ({case.n_flows} flows, {case.threads} thread(s), "
              f"n={len(case.runs)})")
        for name, unit in list(E2E_METRICS.items()) + [("unfinished_frac", "ratio")]:
            q1, med, q3 = quartiles(e[name])
            print(f"  {name:<22} {fmt(med):>14} {unit:<6} [{fmt(q1)}, {fmt(q3)}]")
    print("\nper-layer metrics (counts: untraced run; *_self_s: traced 1-thread run)")
    names = list(LAYER_METRICS) + list(EXTRA_METRICS)
    units = {**LAYER_METRICS, **EXTRA_METRICS}
    for case in cases:
        m = case.layers()
        print(f"\n{case.name}")
        for name in names:
            print(f"  {name:<30} {fmt(m[name]):>14} {units[name]}")


def metric_entry(value, unit):
    check(isinstance(value, (int, float)) and math.isfinite(value), "output",
          f"metric value {value!r} is not a finite number")
    return {"value": value, "unit": unit}


def result_metrics(cases, traced, prefixed):
    """The metrics of the final JSON line: end-to-end medians untraced, or
    the per-layer set traced."""
    out = {}
    for case in cases:
        prefix = f"{case.name}." if prefixed else ""
        if traced:
            m = case.layers()
            for name, unit in LAYER_METRICS.items():
                out[prefix + name] = metric_entry(m[name], unit)
        else:
            e = case.e2e()
            for name, unit in E2E_METRICS.items():
                out[prefix + name] = metric_entry(statistics.median(e[name]), unit)
    return out


def validate_schema(result, cases, traced):
    """The final JSON carries exactly the declared keys, metrics and units,
    and matches BENCHMARK.json at the repo root when that file exists."""
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "output",
          f"result keys {sorted(result)}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, "output",
          "attempted must be a positive integer")
    declared = LAYER_METRICS if traced else E2E_METRICS
    for case in cases:
        for name, unit in declared.items():
            key = f"{case.name}.{name}" if len(cases) > 1 else name
            check(result["metrics"].get(key, {}).get("unit") == unit, "output",
                  f"metric {key} missing or not in {unit}")
    check(len(result["metrics"]) == len(declared) * len(cases), "output",
          "undeclared metrics in the result")
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench_json):
        with open(bench_json) as f:
            spec = json.load(f)
        check({m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_METRICS, "output",
              "BENCHMARK.json end_to_end differs from run.py")
        check({m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS, "output",
              "BENCHMARK.json per_layer differs from run.py")
        check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "output",
              "BENCHMARK.json workloads differ from run.py")


def machine_record(cases, seed):
    build = cases[0].runs[0]["build"]
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {c.name: c.runs[0]["threads"] for c in cases},
        "compiler": build["compiler"],
        "build_type": build["build_type"],
        "seed": seed,
        "commit": commit,
    }


# --- main ------------------------------------------------------------------

def measure(args, binary, work_dir):
    """Runs, checks and reports; returns the final JSON object."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    workloads = {n: dict(WORKLOADS[n]) for n in names}
    warmup = WARMUP_FLOWS
    if args.smoke:
        warmup = 10
        for w in workloads.values():
            w["flows"] = 60
            if w["fabric"] == "fattree16":
                w["fabric"] = "fattree4"
    threads = min(FAT_TREE_THREADS, len(os.sched_getaffinity(0)))
    cases = [Case(n, workloads[n], args.seed, threads, warmup, work_dir) for n in names]

    # A full or smoke run reports both views; a one-workload run reports
    # the view --trace selects.
    traced = bool(args.workload and args.trace)
    if args.workload:
        # The whole run fits the --seconds window: the layer runs first,
        # then untraced repeats while the next is expected to end in time.
        deadline = time.monotonic() + args.seconds
        case = cases[0]
        if traced:
            case.run_layers(binary)
        took = []
        while len(took) < MIN_REPEATS or time.monotonic() + statistics.median(took) <= deadline:
            t0 = time.monotonic()
            case.run(binary)
            took.append(time.monotonic() - t0)
    else:
        for _ in range(1 if args.smoke else ROUNDS):
            for case in cases:
                case.run(binary)
        for case in cases:
            case.run_layers(binary)
    for case in cases:
        case.check()

    record = machine_record(cases, args.seed)
    print(f"machine: {json.dumps(record)}")
    if not args.workload:
        print_tables(cases)
    result = {
        "correct": True,
        "attempted": sum(c.n_flows * len(c.runs) for c in cases),
        "failed": sum(r["unfinished"] for c in cases for r in c.runs),
        "metrics": result_metrics(cases, traced, prefixed=len(cases) > 1),
    }
    validate_schema(result, cases, traced)

    suffix = (f"_{args.workload}_seed{args.seed}_trace{int(traced)}" if args.workload
              else "_smoke" if args.smoke else "")
    out_path = os.path.join(args.build, f"hermes_e2e_result{suffix}.json")
    with open(out_path, "w") as f:
        json.dump({"machine": record,
                   "workloads": {c.name: {"config": c.w, "runs": c.runs, "serial": c.serial,
                                          "traced": c.traced,
                                          "layers": c.layers() if c.traced else None}
                                 for c in cases},
                   "result": result}, f, indent=1)
    print(f"wrote {out_path}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload for --seconds (default: all, 5 rounds)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring window of a one-workload run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="one-workload run: 1 adds the 1-thread and traced runs and "
                         "reports the per-layer metrics")
    ap.add_argument("--build", default=".bench_build", help="build directory")
    ap.add_argument("--smoke", action="store_true", help="toy sizes, one round")
    args = ap.parse_args()

    try:
        binary = build(args.build, min(4, len(os.sched_getaffinity(0))))
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"hermes_e2e: build failed: {e}", file=sys.stderr)
        return 1
    work_dir = os.path.join(args.build, "runs")
    os.makedirs(work_dir, exist_ok=True)
    try:
        result = measure(args, binary, work_dir)
    except (CheckFailed, subprocess.TimeoutExpired) as e:
        print(f"hermes_e2e: check failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
