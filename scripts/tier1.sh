#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it lands.
#
#   1. Default (RelWithDebInfo) build with -Werror + full ctest suite
#      (includes the hermeslint fixture tests and the tree-clean check,
#      every bench at toy scale as bench.smoke.*, and the paper_shape
#      label: figs 12, 14, 16, 17 and 18 at default scale, each of whose
#      paper verdicts must print PASS).
#   2. hermeslint over the whole tree — zero findings required; see
#      DESIGN.md "Static analysis & invariants" for the rules. The run
#      writes SARIF to build/hermeslint.sarif.
#   3. clang-tidy gated subset: the WarningsAsErrors checks curated in
#      .clang-tidy (seeded-rand CERT rules, use-after-move, cheap
#      modernize/performance wins) over src/ — any of them failing
#      fails the gate. Auto-skipped when the clang-tidy binary is
#      absent (most build containers; CI's lint job always has it);
#      opt out explicitly with HERMES_TIER1_TIDY=0.
#   4. Release (-O2, NDEBUG) build + `bench_core_micro --smoke`, proving
#      the perf-measurement path itself stays alive, followed by the
#      perf-regression guard: steady-state allocs/packet and engine
#      allocs/decision must stay <= 0.01, the event queue must retain
#      <= 200 heap bytes per peak stored event under bursty probe
#      ticks, and packet_pipeline_10mb /
#      engine_decide throughput within 50% of the committed
#      BENCH_core.json baseline (full numbers live there; see
#      EXPERIMENTS.md).
#   5. Sharded smoke: bench_ext_fattree_scale --smoke runs a k=4
#      fat-tree under the sharded executor at 1 and 2 threads, asserts
#      byte-identical FCT output internally, and the regression guard
#      re-checks determinism/completion from the emitted JSON.
#   6. Fuzz smoke: 25 seeds through hermesfuzz, then 5 sharded fat-tree
#      seeds (faults on every tier, 1 vs 2 threads, every flow must
#      finish). The nightly workflow (fuzz.yml) runs thousands; this is
#      the per-change canary that both fuzz loops still work and the
#      first seeds stay clean.
#   7. hermesd smoke: the standalone decision daemon (links only
#      hermes::engine) replays both shipped traces end-to-end — the
#      fig17 blackhole trace additionally paced at 10x wall-clock —
#      with every `expect` assertion holding.
#   8. TSan build (HERMES_SANITIZE=thread) running the thread-pool,
#      determinism, sharded-executor (ECMP, Hermes probing, and per-shard
#      recorders with a merged trace), and engine conformance/determinism
#      tests — every threaded path must be race-free. Skip with
#      HERMES_TIER1_TSAN=0 (e.g. on machines without TSan).
#
# Usage: scripts/tier1.sh  (from the repo root; build dirs are reused)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${HERMES_TIER1_JOBS:-$(nproc)}"

echo "== [1/8] build (-Werror) + ctest (RelWithDebInfo) =="
cmake -B build -S . -DHERMES_WERROR=ON >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

echo "== [2/8] hermeslint (SARIF) =="
./build/tools/hermeslint/hermeslint --root=. --sarif=build/hermeslint.sarif \
  src bench tests examples tools

if [[ "${HERMES_TIER1_TIDY:-1}" != "1" ]]; then
  echo "== [3/8] clang-tidy gated subset skipped (HERMES_TIER1_TIDY=0) =="
elif ! command -v clang-tidy >/dev/null 2>&1; then
  echo "== [3/8] clang-tidy gated subset skipped (binary not installed) =="
else
  echo "== [3/8] clang-tidy gated subset (WarningsAsErrors from .clang-tidy) =="
  git ls-files 'src/**/*.cpp' | xargs -P "$JOBS" -n 4 clang-tidy -p build --quiet
fi

echo "== [4/8] Release build + bench_core_micro --smoke =="
cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-rel -j "$JOBS" --target bench_core_micro
(cd build-rel && ./bench/bench_core_micro --smoke --json=BENCH_core_smoke.json)
python3 scripts/check_bench_regress.py BENCH_core.json build-rel/BENCH_core_smoke.json

echo "== [5/8] sharded smoke (k=4 fat-tree, 1 vs 2 threads) =="
cmake --build build-rel -j "$JOBS" --target bench_ext_fattree_scale
(cd build-rel && ./bench/bench_ext_fattree_scale --smoke --json=BENCH_fattree_smoke.json)
python3 scripts/check_bench_regress.py BENCH_core.json build-rel/BENCH_fattree_smoke.json

echo "== [6/8] fuzz smoke (25 seeds + 5 sharded) =="
FUZZ_OUT="$(mktemp -d)"
./build/tools/hermesfuzz/hermesfuzz --seeds=25 --out="$FUZZ_OUT"
rm -rf "$FUZZ_OUT"
./build/tools/hermesfuzz/hermesfuzz --sharded --seeds=5

echo "== [7/8] hermesd trace replay smoke =="
./build/tools/hermesd/hermesd tools/hermesd/traces/smoke.trace --speed=0
./build/tools/hermesd/hermesd tools/hermesd/traces/fig17_blackhole.trace --speed=10 \
  --json=build/hermesd_fig17.json

if [[ "${HERMES_TIER1_TSAN:-1}" == "1" ]]; then
  echo "== [8/8] TSan build + parallel/sharded/engine tests =="
  cmake -B build-tsan -S . -DHERMES_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target hermes_tests
  ./build-tsan/tests/hermes_tests \
    --gtest_filter='ThreadPool.*:Determinism.ParallelSweepIsByteIdenticalToSerial:Sharded.ThreadCountIsInvisible_Ecmp:Sharded.ThreadCountIsInvisible_Hermes:Sharded.ThreadCountIsInvisible_ObsOnWithMergedTrace:Sharded.FaultTrainIsThreadCountInvisible:EngineConformance.*:EngineDeterminism.*'
else
  echo "== [8/8] TSan stage skipped (HERMES_TIER1_TSAN=0) =="
fi

echo "tier-1: OK"
