#!/usr/bin/env bash
# bench_compare.sh — the bench-regression gate: compare a fresh bench.sh run
# against the checked-in BENCH_*.json files and fail on regressions.
#
# For every benchmark recorded in the checked-in file's "current" section,
# the fresh run's min ns/op must be within (1 + THRESHOLD) of the recorded
# min; a recorded benchmark missing from the fresh run also fails (renames
# must update the baselines deliberately, not silently drop coverage).
#
# Usage:
#   scripts/bench.sh -o /tmp/bench
#   scripts/bench_compare.sh /tmp/bench            # vs the repo's files
#   scripts/bench_compare.sh /tmp/bench /other/dir # vs an explicit baseline
#
# Environment:
#   BENCH_REGRESSION_THRESHOLD  relative slack, default 0.25 (fail > +25%).
#   Baselines are updated only deliberately: run scripts/bench.sh at the
#   repo root and commit the refreshed files.
set -euo pipefail

THRESHOLD="${BENCH_REGRESSION_THRESHOLD:-0.25}"
NEW_DIR="${1:?usage: bench_compare.sh NEW_DIR [BASELINE_DIR]}"
BASE_DIR="${2:-$(cd "$(dirname "$0")/.." && pwd)}"

command -v jq >/dev/null || { echo "bench_compare.sh: jq is required" >&2; exit 1; }

fail=0
for f in BENCH_step.json BENCH_sweep.json BENCH_dynamic.json BENCH_topology.json BENCH_protocol.json BENCH_archive.json BENCH_spectral.json; do
  base="$BASE_DIR/$f" new="$NEW_DIR/$f"
  if [[ ! -f "$base" ]]; then
    echo "FAIL $f: baseline file missing ($base)" >&2
    fail=1
    continue
  fi
  if [[ ! -f "$new" ]]; then
    echo "FAIL $f: fresh results missing ($new) — did bench.sh -o run?" >&2
    fail=1
    continue
  fi
  # One row per recorded benchmark: name, baseline min ns/op, fresh min ns/op.
  if ! jq -r --slurpfile fresh "$new" '
        .current as $base
        | ($fresh[0].current // {}) as $new
        | $base | keys[] as $k
        | [$k, $base[$k].ns_op_min, ($new[$k].ns_op_min // "missing")]
        | @tsv' "$base" |
      awk -F'\t' -v thresh="$THRESHOLD" -v file="$f" '
        {
          name = $1; base = $2; new = $3
          if (new == "missing") {
            printf "FAIL %-38s recorded benchmark missing from the fresh run\n", file ": " name
            bad = 1
            next
          }
          delta = (new - base) / base
          status = (delta > thresh) ? "FAIL" : "ok  "
          if (delta > thresh) bad = 1
          printf "%s %-38s base %14.1f ns/op   new %14.1f ns/op   %+7.1f%%\n",
                 status, file ": " name, base, new, delta * 100
        }
        END { exit bad ? 1 : 0 }'; then
    fail=1
  fi
done

if [[ "$fail" -ne 0 ]]; then
  echo >&2
  echo "bench_compare.sh: regression beyond +$(awk -v t="$THRESHOLD" 'BEGIN{printf "%g", t*100}')% (or lost coverage)." >&2
  echo "If the change is intended, refresh the baselines deliberately: scripts/bench.sh (and commit)." >&2
  exit 1
fi
echo "bench_compare.sh: all recorded benchmarks within +$(awk -v t="$THRESHOLD" 'BEGIN{printf "%g", t*100}')% of the checked-in minima."
