#!/usr/bin/env python3
"""A/B of the repository benchmark: a parent tree against a change tree.

Builds each tree's hermes_e2e (Release) in its own directory, writes each
seed's flow file once with hermes_e2e/run.py's generator, and runs both
binaries on it with the flags run.py passes, alternating which side runs
first from pair to pair. In every pair it compares fct_hash, the FCT
summary and the whole metrics.counters object, and it reports the
medians, quartiles, wins and per-pair ratios of run_s, setup_s and
peak_rss_mb.

  python3 scripts/ab.py --parent=../parent --change=. --seeds=8401-8410
  python3 scripts/ab.py --parent=P --change=C --workloads=fattree16_ecmp \\
      --seeds=8401,8402 --pairs=3 --expect-moved=sim.events_processed

A pair is one run of each binary on one flow file; --pairs pairs are run
per seed and workload. Pairs alternate which side goes first across the
whole run. Exit status: 0 when every pair agrees on everything compared,
1 when a run fails, a build is unfit for timing, or a compared value
differs without being named by --expect-moved. Differences are named
"fct_hash", "fct.<field>" (mean_us, p50_us, p99_us, count) or the
counter's own name. Timing never sets the exit status: the table marks a
median ratio beyond BENCHMARK.json's bound "over", or "unresolved" when
the parent's own quartile spread is wider than the bound.

Writes a Markdown table to stdout and every run and statistic to --json.
Pinning each side to a CPU set, and a per-pair machine-speed canary, are
not done here.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave no __pycache__ beside run.py
sys.path.insert(0, os.path.join(ROOT, "hermes_e2e"))
import run  # noqa: E402  (hermes_e2e/run.py: the generator and the flags)

TIMED = ("run_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")


def parse_seeds(text):
    """"8401-8410" or "8401,8405,8409" (ranges and lists may mix)."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds")
    return seeds


def build(tree, build_dir, jobs):
    """Configures and builds `tree`'s hermes_e2e in `build_dir`."""
    out = sys.stderr
    subprocess.run(["cmake", "-S", os.path.join(tree, "hermes_e2e"), "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=out, stderr=out)
    subprocess.run(["cmake", "--build", build_dir, "--target", "hermes_e2e", "-j", str(jobs)],
                   check=True, stdout=out, stderr=out)
    return os.path.join(build_dir, "hermes_e2e")


def compared(result):
    """The values a pair must agree on, by name."""
    values = {"fct_hash": result["fct_hash"]}
    values.update({f"fct.{k}": v for k, v in result["fct"].items()})
    values.update(result["metrics"]["counters"])
    return values


def differences(a, b):
    va, vb = compared(a), compared(b)
    return sorted(k for k in va.keys() | vb.keys() if va.get(k) != vb.get(k))


def summary(parent, change, bound):
    """Statistics of one timed metric over the pairs of one workload."""
    p1, pm, p3 = run.quartiles(parent)
    c1, cm, c3 = run.quartiles(change)
    ratios = [c / p for p, c in zip(parent, change)]
    ratio = cm / pm
    if ratio - 1 <= bound:
        verdict = "ok"
    elif (p3 - p1) / pm > bound:
        verdict = "unresolved"
    else:
        verdict = "over"
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "median_ratio": ratio,
        "change_wins": sum(c < p for p, c in zip(parent, change)),
        "pair_ratios": ratios,
        "bound": bound,
        "verdict": verdict,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent source tree")
    ap.add_argument("--change", required=True, help="change source tree")
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS),
                    help="comma-separated workload names (default: all)")
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("8401-8410"),
                    help="seed range or list, e.g. 8401-8410 (default)")
    ap.add_argument("--pairs", type=int, default=1, help="pairs per seed and workload")
    ap.add_argument("--expect-moved", default="",
                    help="comma-separated names that may differ between the sides")
    ap.add_argument("--build-root", default="build-ab",
                    help="holds <root>/parent, <root>/change and <root>/flows")
    ap.add_argument("--json", help="result file (default: <build-root>/ab_result.json)")
    args = ap.parse_args()

    names = args.workloads.split(",")
    unknown = [n for n in names if n not in run.WORKLOADS]
    if unknown or args.pairs < 1:
        ap.error(f"unknown workloads {unknown}" if unknown else "--pairs must be >= 1")
    expected = {n for n in args.expect_moved.split(",") if n}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    jobs = min(4, len(os.sched_getaffinity(0)))
    try:
        binaries = {side: build(os.path.abspath(getattr(args, side)),
                                os.path.join(args.build_root, side), jobs)
                    for side in SIDES}
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"ab: build failed: {e}", file=sys.stderr)
        return 1
    flow_dir = os.path.join(args.build_root, "flows")
    os.makedirs(flow_dir, exist_ok=True)
    threads = min(run.FAT_TREE_THREADS, len(os.sched_getaffinity(0)))

    report = {"seeds": args.seeds, "pairs_per_seed": args.pairs, "workloads": {}}
    unexpected = []
    pair_index = 0
    try:
        for name in names:
            w = run.WORKLOADS[name]
            t = threads if w["fabric"].startswith("fattree") else 1
            runs = {side: [] for side in SIDES}
            pair_diffs = []
            for seed in args.seeds:
                path = os.path.join(flow_dir, f"flows_{name}_seed{seed}.txt")
                with open(path, "w") as f:
                    f.writelines(" ".join(map(str, fl)) + "\n"
                                 for fl in run.generate_flows(w, seed))
                for _ in range(args.pairs):
                    order = SIDES if pair_index % 2 == 0 else SIDES[::-1]
                    pair_index += 1
                    for side in order:
                        r = run.run_binary(binaries[side], name, w, path, t, run.WARMUP_FLOWS)
                        run.check(r["build"]["ndebug"] and not r["build"]["sanitizer"], name,
                                  "refusing to time a non-NDEBUG or sanitizer build")
                        runs[side].append(r)
                    diff = differences(runs["parent"][-1], runs["change"][-1])
                    pair_diffs.append({"seed": seed, "first": order[0], "differs": diff})
                    unexpected += [f"{name} seed {seed}: {d}" for d in diff if d not in expected]
            report["workloads"][name] = {
                "threads": t,
                "pairs": pair_diffs,
                "timed": {m: summary([r[m] for r in runs["parent"]],
                                     [r[m] for r in runs["change"]], bounds[m]) for m in TIMED},
                "runs": runs,
            }
    except (run.CheckFailed, subprocess.TimeoutExpired) as e:
        print(f"ab: run failed: {e}", file=sys.stderr)
        return 1

    print("| workload | metric | parent median [q1, q3] | change median [q1, q3] "
          "| median ratio | change wins | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for name, wr in report["workloads"].items():
        n = len(wr["pairs"])
        for m in TIMED:
            s = wr["timed"][m]
            p, c = s["parent"], s["change"]
            print(f"| `{name}` | `{m}` | {run.fmt(p['median'])} [{run.fmt(p['q1'])}, "
                  f"{run.fmt(p['q3'])}] | {run.fmt(c['median'])} [{run.fmt(c['q1'])}, "
                  f"{run.fmt(c['q3'])}] | {s['median_ratio']:.3f} | {s['change_wins']}/{n} "
                  f"| {s['bound']} | {s['verdict']} |")
    for name, wr in report["workloads"].items():
        moved = sorted({d for p in wr["pairs"] for d in p["differs"]})
        print(f"\n{name}: {len(wr['pairs'])} pairs, "
              + (f"differing: {', '.join(moved)}" if moved else "every compared value identical"))
        print("  run_s ratios: " + " ".join(f"{x:.3f}" for x in wr["timed"]["run_s"]["pair_ratios"]))

    out = args.json or os.path.join(args.build_root, "ab_result.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"\nwrote {out}")
    if unexpected:
        print("ab: unexpected differences:\n  " + "\n  ".join(unexpected), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
