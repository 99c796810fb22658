#!/usr/bin/env bash
# Paper-figure drift gate (CI job: build-and-test, after ctest).
#
# Usage:
#   tools/figures_check.sh            # verify, exit 1 on any drift
#   tools/figures_check.sh --update   # rewrite bench/golden/ from the binaries
#
# Runs every paper-figure bench in build/bench/ with no arguments and
# compares its stdout byte for byte with bench/golden/<bench>.txt. The
# benches print schedule costs, minimum memories and SRAM figures only (no
# timings), and their output is the same at any thread count, so any diff
# is a change to a figure: either a scheduler regression or an intended
# change that must be re-captured with --update and explained.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BENCH_DIR="${ROOT}/build/bench"
GOLDEN_DIR="${ROOT}/bench/golden"
MODE="${1:-}"

BENCHES=(
  bench_table1_minmem
  bench_fig5_io
  bench_fig6_minmem
  bench_fig7_synthesis
  bench_fig8_layouts
  bench_ablations
  bench_extensions
  bench_lint
)

OUT="$(mktemp -d)"
trap 'rm -rf "${OUT}"' EXIT

failures=0
for bench in "${BENCHES[@]}"; do
  if [[ ! -x "${BENCH_DIR}/${bench}" ]]; then
    echo "figures_check: ${BENCH_DIR}/${bench} not built" \
         "(cmake --build build --target ${bench})" >&2
    exit 1
  fi
  "${BENCH_DIR}/${bench}" > "${OUT}/${bench}.txt"
  golden="${GOLDEN_DIR}/${bench}.txt"
  if [[ "${MODE}" == "--update" ]]; then
    if ! cmp -s "${OUT}/${bench}.txt" "${golden}"; then
      cp "${OUT}/${bench}.txt" "${golden}"
      echo "figures_check: updated ${golden#"${ROOT}/"}"
    fi
  elif ! diff -u --label "golden/${bench}.txt" --label "${bench} (live)" \
         "${golden}" "${OUT}/${bench}.txt"; then
    failures=$((failures + 1))
  fi
done

if [[ "${failures}" -gt 0 ]]; then
  echo "figures_check: FAILED (${failures} of ${#BENCHES[@]} benches" \
       "differ from bench/golden; run tools/figures_check.sh --update" \
       "only for an intended change)" >&2
  exit 1
fi
echo "figures_check: ok (${#BENCHES[@]} benches match bench/golden)"
