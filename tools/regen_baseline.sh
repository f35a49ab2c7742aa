#!/usr/bin/env bash
# Regenerate the committed perf-gate baselines: BENCH_baseline.json (smoke
# grid) and BENCH_baseline_city.json (city grid, the component-sharding
# scale tier).
#
# Procedure (the only sanctioned one — CI's baseline-guard job rejects a
# baseline edit that does not come with the refreshed diff table):
#   1. Release build of bench/stress_scale (RelWithDebInfo or Debug numbers
#      would poison the wall-clock gate for everyone).
#   2. Run each grid $RUNS times (default 3) and merge with
#      `metrics_report.py --merge-min`: counters must agree bitwise across
#      runs, each timer keeps its minimum — the standard best-of-N filter
#      for scheduler noise.
#   3. Write the before/after tables (one section per grid) to
#      docs/BASELINE_DIFF.md and replace both baseline files. Commit all
#      three together.
#
# Env knobs: BUILD_DIR (default build-release), RUNS (default 3), GRIDS
# (default "smoke city" — set GRIDS=city to refresh only the city baseline
# when the smoke numbers are still representative), FEMTOCR_THREADS
# (default 1, the thread count the committed baselines were made at; a
# different count moves every timer row of the diff table).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-release}"
RUNS="${RUNS:-3}"
GRIDS="${GRIDS:-smoke city}"
export FEMTOCR_THREADS="${FEMTOCR_THREADS:-1}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$BUILD_DIR" -j"$(nproc)" --target stress_scale >&2

# grid -> committed baseline file. The smoke grid is the historical gate;
# the city grid exercises the sharded multi-component solve path.
declare -A baselines=(
  [smoke]=BENCH_baseline.json
  [city]=BENCH_baseline_city.json
)

diff_md="docs/BASELINE_DIFF.md"
{
  echo '# Baseline regeneration diff'
  echo
  echo "Produced by \`tools/regen_baseline.sh\` ($RUNS runs per grid, min"
  echo "per timer, FEMTOCR_THREADS=$FEMTOCR_THREADS) against the previously"
  echo 'committed baselines. This file must be refreshed in the same commit'
  echo 'as any `BENCH_baseline*.json` change — CI'"'"'s baseline-guard job'
  echo 'fails the PR otherwise — so every baseline bump carries its own'
  echo 'review evidence.'
} > "$diff_md"

for grid in $GRIDS; do
  baseline="${baselines[$grid]}"
  # Stable in-tree run paths: the bench records its CLI line in the dump's
  # manifest, and the merged manifest is committed — no mktemp paths here.
  out_dir="$BUILD_DIR/baseline-runs-$grid"
  rm -rf "$out_dir"
  mkdir -p "$out_dir"
  inputs=()
  for i in $(seq 1 "$RUNS"); do
    echo "regen_baseline[$grid]: run $i/$RUNS" >&2
    "$BUILD_DIR/bench/stress_scale" --grid="$grid" \
      --metrics-out="$out_dir/run$i.json" > "$out_dir/run$i.out"
    inputs+=("$out_dir/run$i.json")
  done

  python3 tools/metrics_report.py --merge-min "$out_dir/merged.json" \
    "${inputs[@]}" >&2
  python3 tools/metrics_report.py --check "$out_dir/merged.json" >&2

  {
    echo
    echo "## Grid \`$grid\` (\`$baseline\`)"
    echo
    echo '```'
    if [ -f "$baseline" ]; then
      python3 tools/metrics_report.py "$baseline" "$out_dir/merged.json"
    else
      echo "(no previous $baseline — first regeneration)"
    fi
    echo '```'
    echo
    echo 'Bench table (deterministic stdout, identical across runs and'
    echo 'thread counts — the `work` column is the summed component count,'
    echo 'the quantity slot-solve wall clock scales with):'
    echo
    echo '```'
    cat "$out_dir/run1.out"
    echo '```'
  } >> "$diff_md"

  mv "$out_dir/merged.json" "$baseline"
done

echo "regen_baseline: wrote baselines for [$GRIDS] + $diff_md" >&2
