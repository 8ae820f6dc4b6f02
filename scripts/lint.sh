#!/usr/bin/env bash
# Static-analysis gate: build and run hermeslint over the whole tree.
#
#   scripts/lint.sh                  human-readable findings, exit 1 if any
#   scripts/lint.sh --json           findings as JSON on stdout (schema_version 2,
#                                    includes a timing block: wall_ms)
#   scripts/lint.sh --sarif=F.sarif  also write SARIF 2.1.0 to F.sarif (for
#                                    GitHub code scanning upload)
#
# hermeslint enforces the project invariants that generic linters can't:
# determinism (no rand()/wall clocks/unordered iteration feeding results),
# allocation-freedom in `// HERMES_HOT` regions, shard-boundary index
# provenance and pointer escapes (sim.shard-race), packet-arena handle
# lifetimes (core.arena-lifetime), float accumulation order
# (sim.float-order), the module layering DAG (arch.layering), and header
# hygiene backed by a cross-file symbol index. See DESIGN.md "Static
# analysis & invariants" for the rule catalogue and the suppression
# syntax (`// hermeslint:allow(<rule>) <reason>[, expires(YYYY-MM-DD)]`).
#
# clang-tidy (config in .clang-tidy) runs as a second stage when the
# binary exists; here it is advisory — the curated WarningsAsErrors
# subset is gated by tier1.sh stage [3/7] and the CI lint job instead.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${HERMES_LINT_JOBS:-$(nproc)}"
BUILD_DIR="${HERMES_LINT_BUILD_DIR:-build}"
PATHS=(src bench tests examples tools)

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target hermeslint >/dev/null

ARGS=(--root=. "--threads=$JOBS")
for arg in "$@"; do
  case "$arg" in
    --json) ARGS+=(--json) ;;
    --sarif=*) ARGS+=("$arg") ;;
    *)
      echo "usage: scripts/lint.sh [--json] [--sarif=FILE]" >&2
      exit 2
      ;;
  esac
done

"$BUILD_DIR"/tools/hermeslint/hermeslint "${ARGS[@]}" "${PATHS[@]}"

if command -v clang-tidy >/dev/null 2>&1 && [[ -f "$BUILD_DIR/compile_commands.json" ]]; then
  echo "== clang-tidy (advisory) =="
  git ls-files 'src/**/*.cpp' | xargs -P "$JOBS" -n 4 clang-tidy -p "$BUILD_DIR" --quiet || true
fi
