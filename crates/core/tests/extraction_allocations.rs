//! A component extraction skips costs no allocation.
//!
//! After filtering, extraction splits the subgraph induced by the candidate
//! union into connected components and skips those smaller than the query.
//! The components are labelled and sized in scratch the thread keeps, so a
//! skipped component costs its share of one DFS and nothing on the heap;
//! only a kept one is written out. The allocations of one extraction's tail
//! are therefore at most `PER_KEPT · kept + FIXED`, the same however many
//! components it skips.
//!
//! The tail is counted as the allocations of `extract_substructures_with`
//! minus those of `filter_stage`, the filtering it starts with, on the same
//! warm inputs (both are deterministic).
//!
//! One test function in its own test binary: the allocation counter is
//! process-wide.

use neursc_core::{extract_substructures_with, filter_stage, GraphContext, NeurScConfig};
use neursc_graph::Graph;
use neursc_match::FilterBudget;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Counts the allocations and growths made while `ARMED` is set.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicUsize = AtomicUsize::new(0);

fn note() {
    if ARMED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note();
        }
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Per kept substructure: its graph's three arrays, its origin, its local
/// candidate sets (one per query vertex, plus the outer list) and a growth
/// of the result list.
const PER_KEPT: usize = 6 + QUERY_VERTICES;
/// Per call: the candidate union (built once, for the trivially-zero test
/// and the components both), the per-component row map and count table,
/// and the result list.
const FIXED: usize = 7;
const QUERY_VERTICES: usize = 4;

fn allocations(f: impl FnOnce()) -> usize {
    CALLS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    f();
    ARMED.store(false, Ordering::Relaxed);
    CALLS.load(Ordering::Relaxed)
}

/// `kept` 4-cycles and `skipped` triangles, every vertex labelled 0. Each
/// triangle vertex passes filtering for a 4-cycle query (degree 2, two
/// label-0 neighbours), so every triangle is a component of the candidate
/// union, and one the size rule skips (3 vertices < 4).
fn cycles(kept: usize, skipped: usize) -> Graph {
    let mut edges = Vec::new();
    let mut next = 0u32;
    for len in std::iter::repeat_n(4, kept).chain(std::iter::repeat_n(3, skipped)) {
        for i in 0..len {
            edges.push((next + i, next + (i + 1) % len));
        }
        next += len;
    }
    Graph::from_edges(next as usize, &vec![0; next as usize], &edges).unwrap()
}

/// The allocations of one extraction's tail, and how many substructures
/// it kept, on a warm context.
fn tail_allocations(q: &Graph, g: &Graph, cfg: &NeurScConfig) -> (usize, usize) {
    let ctx = GraphContext::new();
    // Warm-up: the profile cache and the thread's component scratch.
    let kept = extract_substructures_with(q, g, cfg, &ctx)
        .substructures
        .len();
    let mut both = 0;
    let whole = allocations(|| {
        both = extract_substructures_with(q, g, cfg, &ctx)
            .substructures
            .len()
    });
    assert_eq!(both, kept);
    let filtering = allocations(|| {
        filter_stage(q, g, &cfg.filter, &ctx, &FilterBudget::UNBOUNDED).unwrap();
    });
    (whole - filtering, kept)
}

#[test]
fn skipped_components_allocate_nothing() {
    let q = Graph::from_edges(
        QUERY_VERTICES,
        &[0; QUERY_VERTICES],
        &[(0, 1), (1, 2), (2, 3), (3, 0)],
    )
    .unwrap();
    let cfg = NeurScConfig::small();
    let mut counts = Vec::new();
    for skipped in [0, 16, 512] {
        for kept in [1, 3] {
            let (tail, n_kept) = tail_allocations(&q, &cycles(kept, skipped), &cfg);
            assert_eq!(
                n_kept, kept,
                "{skipped} triangles: the 4-cycles are the substructures"
            );
            let bound = PER_KEPT * kept + FIXED;
            assert!(
                tail <= bound,
                "{tail} allocations to keep {kept} and skip {skipped} components (bound {bound})"
            );
            counts.push((kept, skipped, tail));
        }
    }
    // Not merely bounded: the count does not move with the skipped ones.
    for &(kept, skipped, tail) in &counts {
        let (_, _, none_skipped) = counts.iter().find(|c| c.0 == kept && c.1 == 0).unwrap();
        assert_eq!(
            tail, *none_skipped,
            "keeping {kept}: {tail} allocations with {skipped} skipped, {none_skipped} with none"
        );
    }
}
