#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it lands.
#
#   1. Default (RelWithDebInfo, assertions live) build with -Werror +
#      full ctest suite (includes every public header compiled alone
#      against its module's link list, the hermeslint fixture tests and
#      the tree-clean check — zero findings, see DESIGN.md "Static
#      analysis & invariants" — every bench at toy scale as
#      bench.smoke.*, every shipped hermesd trace replayed with its
#      `expect` assertions, the fig17 blackhole trace also paced at 10x
#      wall-clock, and the paper_shape label: figs 12, 14, 16, 17 and
#      18 at default scale, each of whose paper verdicts must print
#      PASS). A test case that runs past 120 s fails as a timeout.
#   2. clang-tidy gated subset: the WarningsAsErrors checks curated in
#      .clang-tidy (seeded-rand CERT rules, use-after-move, cheap
#      modernize/performance wins) over src/ — any of them failing
#      fails the gate. Auto-skipped when the clang-tidy binary is
#      absent (most build containers; CI's lint job always has it);
#      opt out explicitly with HERMES_TIER1_TIDY=0.
#   3. Release (-O2, NDEBUG) build + `bench_core_micro --smoke`, proving
#      the perf-measurement path itself stays alive, followed by the
#      perf-regression guard: steady-state allocs/packet and engine
#      allocs/decision must stay <= 0.01, the lockstep due run must
#      allocate nothing once warm, the event queue must retain
#      <= 200 heap bytes per peak stored event under bursty probe
#      ticks, the engine must hold <= 80 heap bytes per path of a sized
#      rack pair and allocate nothing per steady probe sample, and
#      packet_pipeline_10mb / event_queue_lockstep / engine_decide
#      throughput within 50% of the committed BENCH_core.json baseline
#      (full numbers live there; see EXPERIMENTS.md).
#   4. Sharded smoke: bench_ext_fattree_scale --smoke runs a k=4
#      fat-tree under the sharded executor at 1 and 2 threads, asserts
#      byte-identical FCT output internally, and the regression guard
#      re-checks determinism/completion from the emitted JSON.
#   5. Fuzz smoke under ASan+UBSan (build-asan, hermesfuzz only): 25
#      seeds through hermesfuzz, then 5 sharded fat-tree seeds (faults on
#      every tier, 1 vs 2 threads, every flow must finish). The packet
#      arena poisons free slots under ASan, so a packet reference kept
#      past its free reports here. The nightly workflow (fuzz.yml) runs
#      thousands; this is the per-change canary that both fuzz loops
#      still work and the first seeds stay clean.
#   6. Benchmark smoke: hermes_e2e/run.py --smoke builds the repo
#      benchmark (hermes_e2e/, its own CMake package over src/) in
#      build-bench and runs every workload at toy size with all of its
#      checks, so a src/ change that breaks the benchmark fails here
#      rather than only in a benchmark run.
#   7. TSan build (HERMES_SANITIZE=thread) running the thread-pool,
#      determinism, sharded-executor (ECMP, Hermes probing, and per-shard
#      recorders with a merged trace), and engine conformance/determinism
#      tests — every threaded path must be race-free. Skip with
#      HERMES_TIER1_TSAN=0 (e.g. on machines without TSan).
#
# Usage: scripts/tier1.sh  (from the repo root; build dirs are reused)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${HERMES_TIER1_JOBS:-$(nproc)}"

echo "== [1/7] build (-Werror) + ctest (RelWithDebInfo, assertions live) =="
cmake -B build -S . -DHERMES_WERROR=ON >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

if [[ "${HERMES_TIER1_TIDY:-1}" != "1" ]]; then
  echo "== [2/7] clang-tidy gated subset skipped (HERMES_TIER1_TIDY=0) =="
elif ! command -v clang-tidy >/dev/null 2>&1; then
  echo "== [2/7] clang-tidy gated subset skipped (binary not installed) =="
else
  echo "== [2/7] clang-tidy gated subset (WarningsAsErrors from .clang-tidy) =="
  git ls-files 'src/**/*.cpp' | xargs -P "$JOBS" -n 4 clang-tidy -p build --quiet
fi

echo "== [3/7] Release build + bench_core_micro --smoke =="
cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-rel -j "$JOBS" --target bench_core_micro
(cd build-rel && ./bench/bench_core_micro --smoke --json=BENCH_core_smoke.json)
python3 scripts/check_bench_regress.py BENCH_core.json build-rel/BENCH_core_smoke.json

echo "== [4/7] sharded smoke (k=4 fat-tree, 1 vs 2 threads) =="
cmake --build build-rel -j "$JOBS" --target bench_ext_fattree_scale
(cd build-rel && ./bench/bench_ext_fattree_scale --smoke --json=BENCH_fattree_smoke.json)
python3 scripts/check_bench_regress.py BENCH_core.json build-rel/BENCH_fattree_smoke.json

echo "== [5/7] fuzz smoke under ASan+UBSan (25 seeds + 5 sharded) =="
cmake -B build-asan -S . -DHERMES_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS" --target hermesfuzz
FUZZ_OUT="$(mktemp -d)"
./build-asan/tools/hermesfuzz/hermesfuzz --seeds=25 --out="$FUZZ_OUT"
rm -rf "$FUZZ_OUT"
./build-asan/tools/hermesfuzz/hermesfuzz --sharded --seeds=5

echo "== [6/7] benchmark build + smoke (hermes_e2e) =="
python3 hermes_e2e/run.py --smoke --build=build-bench

if [[ "${HERMES_TIER1_TSAN:-1}" == "1" ]]; then
  echo "== [7/7] TSan build + parallel/sharded/engine tests =="
  cmake -B build-tsan -S . -DHERMES_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target hermes_tests
  ./build-tsan/tests/hermes_tests \
    --gtest_filter='ThreadPool.*:Determinism.ParallelSweepIsByteIdenticalToSerial:Sharded.ThreadCountIsInvisible_Ecmp:Sharded.ThreadCountIsInvisible_Hermes:Sharded.ThreadCountIsInvisible_ObsOnWithMergedTrace:Sharded.FaultTrainIsThreadCountInvisible:EngineConformance.*:EngineDeterminism.*'
else
  echo "== [7/7] TSan stage skipped (HERMES_TIER1_TSAN=0) =="
fi

echo "tier-1: OK"
