#!/usr/bin/env bash
# How much there is: lines, public functions, options, global state.
# ROADMAP item 6 asks every simplification for "LoC and `pub fn` count
# down"; this counts them, the same way on any commit, so a PR can print
# the parent's table next to its own. Information, not a gate.
#
# Usage: scripts/surface.sh [checkout=this repository]
#
# Per crate (and `src/` + `tests/` of the root package) and in total:
#   src      lines of every *.rs under src/
#   tests    lines of every *.rs under tests/ and benches/ (a line moved
#            from src to tests is not a reduction; the columns are apart)
#   pub fn   lines matching `pub fn ` under src/
# Then the lines of each vendored offline stand-in under vendor/ (outside
# crates/ and src/, so a dropped dependency shows here and nowhere above).
# Then the `pub` fields of every `*Config`, `Parallelism` and `*Budget`
# struct (each one is an independently settable value), and every `static`
# under crates/*/src that some code in its file stores to, swaps, locks or
# write-locks: process-global state a caller can set. Then the distinct
# `--flag` tokens of the CLI's USAGE text and the verbs the daemon's
# `proto::parse_request` accepts (the arms of its `match verb`) — the wire
# surface beside the command-line one — and the `pub fn` names under
# crates/*/src that no other file under crates/*/src, src/, examples/ or
# benchmarks/src names outside a comment (tests/ directories do not count
# as callers): candidates for deletion, by a word match — a method that
# shares its name with anything in another file never shows.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

lines() { # lines <dir>...: total lines of the *.rs files under the directories that exist
    local dirs=()
    for d in "$@"; do [[ -d $d ]] && dirs+=("$d"); done
    ((${#dirs[@]})) || { echo 0; return; }
    find "${dirs[@]}" -name '*.rs' -exec cat {} + | wc -l
}
pub_fns() { { grep -rE 'pub fn ' --include='*.rs' "$1" 2>/dev/null || true; } | wc -l; }

printf '%-12s %8s %8s %8s\n' crate src tests 'pub fn'
total_src=0 total_tests=0 total_fns=0
for root in crates/*/ ./; do
    name=$(basename "$root")
    [[ $root == ./ ]] && name='(root)'
    s=$(lines "${root}src") t=$(lines "${root}tests" "${root}benches") f=$(pub_fns "${root}src")
    printf '%-12s %8d %8d %8d\n' "$name" "$s" "$t" "$f"
    total_src=$((total_src + s)) total_tests=$((total_tests + t)) total_fns=$((total_fns + f))
done
printf '%-12s %8d %8d %8d\n' total "$total_src" "$total_tests" "$total_fns"
echo "Rust lines under crates/ + src/ (tests included): $(lines crates src)"

echo
echo "vendored stub crates (lines of *.rs):"
total_vendor=0 n_vendor=0
for d in vendor/*/; do
    [[ -d $d ]] || continue
    v=$(lines "$d")
    printf '  %-12s %8d\n' "$(basename "$d")" "$v"
    total_vendor=$((total_vendor + v)) n_vendor=$((n_vendor + 1))
done
printf '  %-12s %8d  (%d crates)\n' total "$total_vendor" "$n_vendor"

echo
echo "pub fields of *Config / Parallelism / *Budget structs:"
find crates/*/src src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    /^pub struct ([A-Za-z]*Config|Parallelism|[A-Za-z]*Budget)[ <{]/ { name = $3; sub(/[^A-Za-z].*/, "", name); n = 0; next }
    name != "" && /^    pub [a-z_0-9]+:/ { n++ }
    name != "" && /^}/ { printf "  %-24s %3d  %s\n", name, n, FILENAME; total += n; name = "" }
    END { printf "  %-24s %3d\n", "total", total }'

echo
echo "settable statics under crates/*/src:"
n=0
while IFS=: read -r file _ decl; do
    name=$(sed -E 's/.*static ([A-Z_0-9]+):.*/\1/' <<<"$decl")
    if grep -qE "\b$name\.(store|swap|lock|write)\(" "$file"; then
        echo "  $file: $(sed -E 's/^ +//' <<<"$decl")"
        n=$((n + 1))
    fi
done < <(grep -rnE '^\s*(pub(\([a-z]+\))? )?static [A-Z_0-9]+:' --include='*.rs' crates/*/src || true)
echo "  total $n"

echo
usage_flags=$(sed -n '/^const USAGE: &str = /,/";$/p' src/bin/neursc_cli.rs | grep -oE -- '--[a-z][a-z0-9-]*' | sort -u | wc -l)
echo "distinct --flags in the CLI's USAGE: $usage_flags"
verbs=$(sed -n '/match verb {/,/other =>/p' crates/serve/src/proto.rs 2>/dev/null |
    { grep -E '^ +"[a-z_]+"( \| "[a-z_]+")* =>' || true; } | grep -oE '"[a-z_]+"' | sort -u | wc -l)
echo "request verbs proto::parse_request accepts: $verbs"

echo
echo "pub fn under crates/*/src that no other source file names (candidates):"
dirs=()
for d in crates/*/src src examples benchmarks/src; do [[ -d $d ]] && dirs+=("$d"); done
find "${dirs[@]}" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    { line = $0; sub(/\/\/.*/, "", line) }
    FILENAME ~ /^crates\/[^\/]*\/src\// && match(line, /pub fn [A-Za-z_0-9]+/) {
        defs[FILENAME ": " substr(line, RSTART + 7, RLENGTH - 7)] = 1
    }
    {
        n = split(line, w, /[^A-Za-z_0-9]+/)
        for (i = 1; i <= n; i++)
            if (w[i] != "" && !((w[i], FILENAME) in seen)) { seen[w[i], FILENAME] = 1; files[w[i]]++ }
    }
    END { for (d in defs) { name = d; sub(/.*: /, "", name); if (files[name] == 1) print "  " d } }' | sort | awk '{ print } END { print "  total " NR }'
