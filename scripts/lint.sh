#!/usr/bin/env bash
# Static-analysis gate: build and run hermeslint over the whole tree.
#
#   scripts/lint.sh                  human-readable findings, exit 1 if any
#   scripts/lint.sh --sarif=F.sarif  also write SARIF 2.1.0 to F.sarif (for
#                                    GitHub code scanning upload)
#
# hermeslint enforces the project invariants that the compiler, the tests
# and the sanitizers can't see: determinism (no rand()/wall clocks/
# unordered iteration feeding results), allocation-freedom in
# `// HERMES_HOT` regions, and header hygiene backed by a cross-file
# symbol index. See DESIGN.md "Static analysis & invariants" for the rule
# catalogue and the suppression syntax
# (`// hermeslint:allow(<rule>) <reason>`).
#
# clang-tidy (config in .clang-tidy) runs as a second stage when the
# binary exists; here it is advisory — the curated WarningsAsErrors
# subset is gated by tier1.sh stage [2/7] and the CI lint job instead.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${HERMES_LINT_JOBS:-$(nproc)}"
BUILD_DIR="${HERMES_LINT_BUILD_DIR:-build}"
PATHS=(src bench tests examples tools)

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target hermeslint >/dev/null

ARGS=(--root=.)
for arg in "$@"; do
  case "$arg" in
    --sarif=*) ARGS+=("$arg") ;;
    *)
      echo "usage: scripts/lint.sh [--sarif=FILE]" >&2
      exit 2
      ;;
  esac
done

"$BUILD_DIR"/tools/hermeslint/hermeslint "${ARGS[@]}" "${PATHS[@]}"

if command -v clang-tidy >/dev/null 2>&1 && [[ -f "$BUILD_DIR/compile_commands.json" ]]; then
  echo "== clang-tidy (advisory) =="
  git ls-files 'src/**/*.cpp' | xargs -P "$JOBS" -n 4 clang-tidy -p "$BUILD_DIR" --quiet || true
fi
