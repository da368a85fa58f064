#!/usr/bin/env bash
# The root docs name only what exists. Every backticked repository path in
# README.md, DESIGN.md, KNOWN_ISSUES.md and EXPERIMENTS.md must exist in the
# tree (globs must match something), and every `--flag` they mention must be
# in the CLI's USAGE text (src/bin/neursc_cli.rs) or in ALLOWED_FLAGS below.
# Prints each dangling name as `doc:line: name` and exits 1 if there is one.
#
# A backticked span is a path if it has a `/`, no blank, and either starts
# with an entry of the repository root or ends in `name.ext` or `/`; a
# `:line` or `::item` suffix is dropped first. Absolute paths, URLs and
# build output under target/ are not repository paths. Fenced code blocks
# hold commands, not paths, so only the flag check reads them.
#
# Usage: scripts/doc_refs.sh [checkout=this repository]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

DOCS=(README.md DESIGN.md KNOWN_ISSUES.md EXPERIMENTS.md)
# Flags the CLI's USAGE does not list: cargo's and libtest's, the benchmark
# driver's (benchmarks/src/main.rs), and the two a serve supervisor passes
# to its worker (the `serve` row of COMMANDS in src/bin/neursc_cli.rs).
ALLOWED_FLAGS=(
    --bench --bin --doc --example --ignored --lib --manifest-path --nocapture
    --offline --release --test --workspace
    --repeat --seconds --smoke --trace --workload
    --quarantine --restart-count
)

bad=0
report() { echo "$1"; bad=$((bad + 1)); }

# doc:line:span for every inline code span outside fenced blocks; a span may
# run over a line break, never over a blank line.
spans() {
    awk '
        FNR == 1 { fence = 0; open = 0 }
        /^ *```/ { fence = !fence; open = 0; next }
        fence { next }
        /^[ \t]*$/ { open = 0; next }
        {
            n = split($0, part, "`")
            for (i = 1; i <= n; i++) {
                if (i > 1) {
                    if (open) { print FILENAME ":" at ":" buf; open = 0 }
                    else { open = 1; buf = ""; at = FNR }
                }
                if (open) buf = buf (i == 1 ? " " : "") part[i]
            }
        }' "${DOCS[@]}"
}

while IFS=: read -r doc line span; do
    [[ $span == */* && $span != *[[:space:]\<\$]* && $span != *://* ]] || continue
    path=${span%%::*}
    path=$(sed -E 's/:[0-9][0-9–-]*$//' <<<"$path")
    [[ $path =~ ^[A-Za-z0-9_.*/-]+$ && $path != /* ]] || continue
    first=${path%%/*}
    [[ $first != target ]] || continue # build output, not the tree
    [[ -e $first || $path =~ [A-Za-z0-9_]\.[a-z]+$ || $path == */ ]] || continue
    compgen -G "$path" >/dev/null || report "$doc:$line: $span"
done < <(spans)

usage=$(sed -n '/^const USAGE: &str = /,/";$/p' src/bin/neursc_cli.rs |
    grep -oE -- '--[a-z][a-z0-9-]*' | sort -u)
known=$(printf '%s\n' $usage "${ALLOWED_FLAGS[@]}")
while IFS=: read -r doc line flag; do
    grep -qxF -- "$flag" <<<"$known" || report "$doc:$line: $flag"
done < <(grep -noE -- '--[a-z][a-z0-9-]*' "${DOCS[@]}")

if ((bad)); then
    echo "doc_refs: $bad dangling name(s) in ${DOCS[*]}" >&2
    exit 1
fi
echo "doc_refs: every path and flag in ${DOCS[*]} exists"
