#!/bin/bash
# Regenerates every paper artifact into results/*.txt (see README).
set -u
cd "$(dirname "$0")/.."
run() {
  name="$1"; shift
  suffix=""
  [ $# -gt 0 ] && suffix="_$1"
  echo "[$(date +%H:%M:%S)] running $name $*"
  cargo run --release -p neursc-bench --bin "$name" -- "$@" > "results/${name}${suffix}.txt" 2>&1 \
    || echo "FAILED: $name $*" >> results/failures.log
}
run table2_datasets
run table3_queries
run fig7_accuracy yeast
run fig8_count_ranges
run fig9_query_chars
run fig10_robustness
run fig11_extraction
run fig12_distance
run fig13_query_time yeast
run table4_training_time
run fig14_tradeoff
for ds in human hprd wordnet dblp eu2005 youtube; do
  run fig7_accuracy "$ds"
  run fig13_query_time "$ds"
done
echo "[$(date +%H:%M:%S)] all done"
