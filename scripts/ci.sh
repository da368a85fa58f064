#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the full test suite.
# Usage: scripts/ci.sh            (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== doc references (every path and --flag the root docs name exists) =="
scripts/doc_refs.sh

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy (no unwrap/expect in library code) =="
# Library code on input-dependent paths must return typed errors, never
# panic (DESIGN.md, "Failure semantics"). Tests/benches/bins are exempt.
cargo clippy -p neursc-graph -p neursc-match -p neursc-nn -p neursc-core \
    -p neursc-serve -p neursc-sample -p neursc-oracle -p neursc-workloads -p rand --lib -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used

OUR_CRATES=(-p neursc -p neursc-graph -p neursc-match -p neursc-nn -p neursc-gnn
            -p neursc-core -p neursc-baselines -p neursc-workloads -p neursc-bench
            -p neursc-serve -p neursc-sample -p neursc-oracle)

echo "== cargo doc (deny warnings, our crates only) =="
# Every first-party crate is held to the documentation bar, the generator
# under vendor/rand included; the proptest and criterion stand-ins are
# API-subset stubs and are not. `rand` sets `doctest = false`, so it is
# documented here but not in the doc-test run below.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${OUR_CRATES[@]}" -p rand

echo "== cargo test (unit + integration + doc-tests) =="
# One workspace run executes every suite once (the two #[ignore]d tests are
# the exhaustive sigmoid and value-parsing checks, run in release below);
# these used to be re-run as stages of their own:
#   fault-injection suite                  (--test fault_injection)
#   serve smoke (daemon over loopback via the real CLI binary)
#                                          (--test serve_smoke)
#   supervise smoke (kill -9 mid-traffic, restart, quarantine)
#                                          (--test supervise_smoke)
#   serve equivalence + protocol fuzz      (-p neursc-serve)
#   observability determinism suite        (-p neursc-core --test obs_determinism)
cargo test --workspace -q
cargo test -q --doc "${OUR_CRATES[@]}"

echo "== cargo test --release (SIMD tiers, equivalence suites, training golden, obs overhead) =="
# The run above is opt-level=0. The unsafe kernel tiers, the bit-identity
# suites (coarse_nodes: every coarse tape node against its primitive chain),
# refinement against its reference without the label test (neursc-match)
# and the golden weights must also hold at the level that ships and that
# the benchmark measures (~1 min).
cargo test -q --release -p neursc-nn -p neursc-gnn -p neursc-match
# The AVX-512 sigmoid against the scalar `stable_sigmoid` on all 2^32
# inputs (~25 s on 2 threads; KNOWN_ISSUES.md, "The vectorised sigmoid").
cargo test -q --release -p neursc-nn --lib -- --ignored sigmoid_tier_matches_stable_sigmoid_on_every_f32
# The model loader's value parsing against `f32::from_str` on the `Display`
# spelling of all 2^32 f32s (DESIGN.md, "Cold start").
cargo test -q --release -p neursc-nn --lib -- --ignored value_parsing_equals_from_str_on_every_f32
# The no-op sink's overhead bound (DESIGN.md §8: < 2%) bites at the
# opt-level that ships; in debug a query is slow enough to hide a costly span.
cargo test -q --release -p neursc-core --test train_golden --test parallel_determinism \
    --test obs_overhead
# The process-wide memory tests: a warm estimate allocates no tensor
# storage, a warm training step faults in no new pages, a component
# extraction skips allocates nothing. Allocation and page reuse must hold
# at the optimisation level the benchmark measures.
cargo test -q --release -p neursc-core --test warm_estimate_memory --test train_steady_memory \
    --test extraction_allocations
cargo test -q --release -p neursc-baselines --test train_golden

echo "== benchmark crate (builds against the public surface, smoke run) =="
# benchmarks/ is a workspace of its own that the steps above never compile;
# it calls one public door per pipeline stage, so a surface change that
# breaks it must fail here rather than in the benchmark pipeline. --smoke
# runs all four workloads briefly and exits non-zero unless ok_share is 1.
cargo build --release --offline --manifest-path benchmarks/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmarks/Cargo.toml -- --smoke

echo "== differential soundness oracle soak (DESIGN.md §11) =="
# Fixed seed: deterministic in CI; the corpus replay test (tests/
# corpus_replay.rs, part of the workspace test run above) covers the
# previously-found bugs, this soaks fresh cases.
cargo run --release -q --bin neursc_cli -- fuzz --cases 300 --seed 42

echo "== surface (information, not a gate) =="
scripts/surface.sh

echo "CI OK"
