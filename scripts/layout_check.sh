#!/usr/bin/env bash
# A/A across code placements: builds this tree, unchanged, in several
# differently named directories and runs one benchmark workload in each.
# The source is identical, so the builds can differ only in where the
# linker put each function — a checkout's path reaches the binary through
# crate hashes and panic-location strings, and that is enough to move a hot
# loop across a 32- or 64-byte boundary. If the builds disagree by more
# than run-to-run spread, the workload measures code placement, and no
# parent/change comparison on it means anything until the loop is found
# (KNOWN_ISSUES.md, "A tight loop can tie a build's speed to its code
# placement").
#
# Usage: scripts/layout_check.sh <workload> [builds=4] [functions=<the list below>]
#
#   <workload>   one of BENCHMARK.json's workloads
#   [builds]     how many copies to build; add builds until the addresses
#                printed cover the residues you care about
#   [functions]  comma-separated substrings of (mangled) symbol names whose
#                address mod 64 is printed per build; the default names the
#                two tight loops of filtering, refinement's pair test with
#                its Hopcroft–Karp search and local pruning's label-bucket
#                scan (global_refinement_metered, left_saturated,
#                local_pruning_metered), and the two
#                AVX-512 matmul kernels (quad_matmul_avx512,
#                row_matmul_avx512) with the function their zero-step
#                variants are inlined into (matmul_rows_listed_avx512),
#                and the loops of substructure preparation: the component
#                DFS and the CSR writer of graph::induced
#                (InducedComponents3new, InducedComponents5build), the
#                skip and localisation passes (extract_from_candidates),
#                the G_B connector (build_bipartite_edges) and Eq. 1's
#                ring pooling (pool_ring)
#
# Copies go under ${TMPDIR:-/tmp} (without target directories and .git),
# each with its own CARGO_TARGET_DIR, and are removed on exit. Every build
# runs the workload twice for 5 s with the BENCHMARK.json command. Prints
# per build: lat_p50_ms and cpu_ms_per_op of both runs and the address of
# each function; then the spread of lat_p50_ms (best run of each build)
# over the builds. Last, a warning for each blind spot of that spread: two
# builds with every printed function at the same address (they differ by
# host drift only, not by placement), and a build whose own two runs
# differ by more than the spread (the host moved more than the builds did).
set -euo pipefail

if [[ $# -lt 1 || $# -gt 3 ]]; then
    sed -n '2,42p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
workload=$1
builds=${2:-4}
functions=${3:-global_refinement_metered,left_saturated,local_pruning_metered,quad_matmul_avx512,row_matmul_avx512,matmul_rows_listed_avx512,InducedComponents3new,InducedComponents5build,extract_from_candidates,build_bipartite_edges,pool_ring}
command -v python3 >/dev/null || { echo "layout_check.sh needs python3 (JSON)" >&2; exit 2; }
command -v nm >/dev/null || { echo "layout_check.sh needs nm (binutils)" >&2; exit 2; }

mapfile -t cmd < <(python3 -c '
import json, sys
for word in json.load(open(sys.argv[1]))["command"]:
    print(word)' "$repo/BENCHMARK.json")

base=$(mktemp -d "${TMPDIR:-/tmp}/neursc-layout.XXXXXX")
trap 'rm -rf "$base"' EXIT

metric() { # metric <result line> <name>
    python3 -c '
import json, sys
print(json.loads(sys.argv[1])["metrics"][sys.argv[2]]["value"])' "$1" "$2"
}

runs=()
for ((i = 1; i <= builds; i++)); do
    # Names of different lengths: a one-character difference in the path
    # changes every crate hash and the length of every embedded file name.
    dir=$base/tree$(printf 'x%.0s' $(seq 1 "$i"))
    mkdir "$dir"
    tar -C "$repo" --exclude=target --exclude=.bench_build --exclude=.git -cf - . | tar -C "$dir" -xf -
    export CARGO_TARGET_DIR=$dir/.bench_build
    echo "build $i: $dir" >&2
    lat=() cpu=()
    for run in 1 2; do
        # The first run also builds the binary and the fixture, both
        # outside the measured child process.
        line=$(cd "$dir" && "${cmd[@]}" --workload "$workload" --seed 1 --seconds 5 --trace 0 \
            2>"$base/stderr" | tail -n 1) || { cat "$base/stderr" >&2; exit 1; }
        lat+=("$(metric "$line" lat_p50_ms)")
        cpu+=("$(metric "$line" cpu_ms_per_op)")
    done
    printf 'build %d  lat_p50_ms %s %s  cpu_ms_per_op %s %s\n' "$i" "${lat[@]}" "${cpu[@]}"
    # The addresses also go to $base/addrs.<build>, keyed by the symbol
    # without its hash (which differs between builds), for the warnings.
    nm "$CARGO_TARGET_DIR/release/neursc-benchmarks" | python3 -c '
import re, sys
wanted = sys.argv[1].split(",")
with open(sys.argv[2], "w") as out:
    for line in sys.stdin:
        fields = line.split()
        if len(fields) == 3 and any(name in fields[2] for name in wanted):
            addr = int(fields[0], 16)
            print(f"         {fields[2]}  {addr:#x}  mod 64 = {addr % 64}  mod 32 = {addr % 32}")
            out.write(re.sub(r"17h[0-9a-f]{16}E$", "", fields[2]) + f" {addr:#x}\n")' \
        "$functions" "$base/addrs.$i"
    runs+=("${lat[0]},${lat[1]}")
    rm -rf "$dir"
done

python3 -c '
import sys
base, runs = sys.argv[1], [tuple(map(float, r.split(","))) for r in sys.argv[2:]]
best = [min(r) for r in runs]
spread = 100 * (max(best) - min(best)) / min(best)
print(f"lat_p50_ms, best run of each build: min {min(best):.4g}  max {max(best):.4g}  "
      f"spread (max-min)/min {spread:.1f}%")
addrs = [sorted(open(f"{base}/addrs.{i}").read().splitlines()) for i in range(1, len(runs) + 1)]
for i in range(len(runs)):
    for j in range(i + 1, len(runs)):
        if addrs[i] and addrs[i] == addrs[j]:
            print(f"WARNING: builds {i + 1} and {j + 1} have every printed function at the "
                  f"same address: their difference is host drift, not placement")
for i, (a, b) in enumerate(runs):
    own = 100 * abs(a - b) / min(a, b)
    if own > spread:
        print(f"WARNING: build {i + 1}: its two runs differ by {own:.1f}%, more than the "
              f"{spread:.1f}% spread over the builds: the host moved more than the placement")' \
    "$base" "${runs[@]}"
