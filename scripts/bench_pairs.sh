#!/usr/bin/env bash
# Alternating parent/change runs of the BENCHMARK.json command on one
# workload: the protocol a perf claim is judged by (choosing-metrics §8).
#
# Usage: scripts/bench_pairs.sh <parent-checkout> <workload> [pairs=10]
#
#   <parent-checkout>  a second checkout of the repository at the parent
#                      commit (git clone or git archive, not a worktree)
#   <workload>         one of BENCHMARK.json's workloads
#
# Every pair runs both sides once, the side that goes first flipping from
# pair to pair; each checkout builds into its own CARGO_TARGET_DIR
# (<checkout>/.bench_build, git-ignored) because workspace members hash to
# the same artifact names in both trees. Run length is BENCHMARK.json's
# run_seconds. SEED (default 1) is passed on as --seed: re-run with a second
# value before claiming anything.
#
# Each side's benchmark binary is hashed after the warm-up build and checked
# before and after every measured run: a checkout edited mid-series makes
# `cargo run` rebuild it, and the series aborts naming that side instead of
# mixing two builds' runs.
#
# Prints, per end-to-end metric: both medians, both quartile ranges, the
# change's median over the parent's, and how many pairs the change won out
# of those that did not tie (0/0: every pair read exactly the same, which
# is what qerr_p50 and ok_share must do). A gain is claimed when the change
# wins at least nine tenths of the pairs and the medians differ by more
# than the parent's quartile distance. Every run's value follows the table.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
    sed -n '2,28p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
change=$(cd "$(dirname "$0")/.." && pwd)
parent=$(cd "$1" && pwd)
workload=$2
pairs=${3:-10}
seed=${SEED:-1}
command -v python3 >/dev/null || { echo "bench_pairs.sh needs python3 (JSON, quartiles)" >&2; exit 2; }
[[ -f $parent/BENCHMARK.json ]] || { echo "$parent is not a checkout of this repository" >&2; exit 2; }

# The command and the run length come from the change's BENCHMARK.json; a
# perf change may not edit it, so the parent's says the same.
mapfile -t cmd < <(python3 -c '
import json, sys
for word in json.load(open(sys.argv[1]))["command"]:
    print(word)' "$change/BENCHMARK.json")
seconds=$(python3 -c '
import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$change/BENCHMARK.json")

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

binary() { echo "$1/.bench_build/release/neursc-benchmarks"; }
digest() { sha256sum "$(binary "$1")" | cut -d' ' -f1; }
declare -A built
unchanged() { # unchanged <side> <checkout>: abort if the side's binary was rebuilt
    [[ $(digest "$2") == "${built[$1]}" ]] ||
        { echo "the $1 side's benchmark binary changed mid-series ($2 was rebuilt); aborting" >&2; exit 1; }
}

run() { # run <side> <checkout> <pair>: one run, its result line to $out/<side>.jsonl
    local side=$1 checkout=$2 pair=$3
    echo "pair $pair: $side" >&2
    unchanged "$side" "$checkout"
    (cd "$checkout" && CARGO_TARGET_DIR="$checkout/.bench_build" "${cmd[@]}" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
        2>"$out/stderr" | tail -n 1 >>"$out/$side.jsonl" || { cat "$out/stderr" >&2; exit 1; }
    unchanged "$side" "$checkout"
}

# Build both sides (and their fixtures, with a short first run) before any
# measured run, so that no build shares the machine with a measurement.
for side in parent change; do
    checkout=${!side}
    (cd "$checkout" && CARGO_TARGET_DIR="$checkout/.bench_build" "${cmd[@]}" \
        --workload "$workload" --seed "$seed" --seconds 1 --trace 0) >/dev/null 2>"$out/stderr" ||
        { cat "$out/stderr" >&2; exit 1; }
    built[$side]=$(digest "$checkout")
done

for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then
        run parent "$parent" "$pair"
        run change "$change" "$pair"
    else
        run change "$change" "$pair"
        run parent "$parent" "$pair"
    fi
done

python3 - "$change/BENCHMARK.json" "$out/parent.jsonl" "$out/change.jsonl" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
parent, change = ([json.loads(line) for line in open(path)] for path in sys.argv[2:4])

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"{len(parent)} pairs; parent correct in {sum(r['correct'] for r in parent)}, "
      f"change correct in {sum(r['correct'] for r in change)}")
print(f"{'metric':<18} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
      f"{'change/parent':>13} {'won':>7}")
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    won = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
    tied = sum(x == y for x, y in zip(p, c))
    (pm, (p1, p3)), (cm, (c1, c3)) = ((statistics.median(v), quartiles(v)) for v in (p, c))
    ratio = f"{cm / pm:.3f}" if pm else "-"
    cell = lambda med, lo, hi: f"{med:.6g} [{lo:.6g}, {hi:.6g}]"
    print(f"{name:<18} {cell(pm, p1, p3):>34} {cell(cm, c1, c3):>34} {ratio:>13} "
          f"{won:>3}/{len(p) - tied:<3}")
print("every run, (parent, change) per pair:")
for m in spec["end_to_end"]:
    value = lambda r: f"{r['metrics'][m['name']]['value']:.6g}"
    print(f"{m['name']:<18}", " ".join(f"({value(p)}, {value(c)})" for p, c in zip(parent, change)))
EOF

# A training workload's fixture holds the weights each checkout's own build
# trained: the one place the two builds' numerics meet.
ref() { echo "$1"/.bench_build/neursc-fixtures/*/"$workload"/reference.tsv; }
if [[ -f $(ref "$parent") && -f $(ref "$change") ]]; then
    if cmp -s "$(ref "$parent")" "$(ref "$change")"; then
        echo "reference.tsv: byte-equal between the two builds"
    else
        echo "reference.tsv: DIFFERS between the two builds"
    fi
fi
