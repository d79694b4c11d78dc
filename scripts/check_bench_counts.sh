#!/usr/bin/env bash
# Exact gate on the paper's reproduced counts. Runs the bench sweep at CI
# scale, writes every count it reproduces (Table 2 verdict bits, Table 3
# confusion cells, Table 4 / Figure 8 / ablation node counts, the Figure
# 10-12 races and drops, fastpath tree ops, hybrid and predictive
# verdict counts, the serve soak's totals) with `bench/main.exe
# --counts`, and diffs them against the checked-in bench/counts.txt. Any
# difference, including the header line naming scale, ranks and
# experiments, fails. Timings are not gated here; perfbench owns timing.
#
# Usage: scripts/check_bench_counts.sh [--update] [bench flags...]
#   scripts/check_bench_counts.sh --update     -- rewrite bench/counts.txt
# Extra flags follow the defaults, so `--scale 0.05` overrides the scale.
# DUNE overrides the dune command (e.g. DUNE="opam exec -- dune").

set -euo pipefail

cd "$(dirname "$0")/.."
DUNE=${DUNE:-dune}
BASELINE=bench/counts.txt

update=0
if [ "${1:-}" = "--update" ]; then
  update=1
  shift
fi

out=$(mktemp)
trap 'rm -f "$out"' EXIT

$DUNE exec bench/main.exe -- --scale 0.02 --ranks 8,16 "$@" --counts "$out" \
  table2 table3 table4 fig8 fig10 fig11 fig12 ablation fastpath hybrid predictive serve

if [ "$update" = 1 ]; then
  cp "$out" "$BASELINE"
  echo "check_bench_counts: rewrote $BASELINE ($(($(wc -l <"$BASELINE") - 1)) counts)"
elif diff -u "$BASELINE" "$out"; then
  echo "check_bench_counts: all $(($(wc -l <"$BASELINE") - 1)) counts match $BASELINE"
else
  echo "check_bench_counts: counts differ from $BASELINE (see diff above)" >&2
  exit 1
fi
