//! Refinement's pair test allocates nothing.
//!
//! Global refinement runs a semi-perfect matching test once per candidate
//! pair per round. Each test writes its bipartite graph into scratch that
//! the refinement call owns and matches it in buffers that call reuses, so
//! the heap is touched only for each round's survivor list per query vertex
//! and while the scratch grows to the largest pair: at most
//! `|V(q)| · rounds + SCRATCH_GROWTH` allocations for the whole call, however
//! many pairs it tests.
//!
//! One test function in its own test binary: the allocation counter is
//! process-wide.

use neursc_graph::generate::erdos_renyi;
use neursc_graph::sample::{sample_query, QuerySampler};
use neursc_match::budget::FilterBudget;
use neursc_match::candidates::{local_pruning, CandidateSets};
use neursc_match::refinement::global_refinement_metered;
use rand::SeedableRng;
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

/// Allocations the scratch may make while it grows: six buffers, each
/// doubling from empty to the largest pair's size (at most a few hundred
/// entries here) in fewer than eight steps.
const SCRATCH_GROWTH: usize = 48;

#[test]
fn pair_tests_allocate_nothing_once_the_scratch_has_grown() {
    let g = erdos_renyi(400, 1_600, 3, 11);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let q =
        sample_query(&g, &QuerySampler::induced(8), &mut rng).expect("a connected 8-vertex query");
    let local = local_pruning(&q, &g, 1);

    let mut cs = local.clone();
    let mut meter = FilterBudget::UNBOUNDED.meter();
    CALLS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let (rounds, exhausted) = global_refinement_metered(&q, &g, &mut cs, 8, &mut meter);
    ARMED.store(false, Ordering::Relaxed);
    let calls = CALLS.load(Ordering::Relaxed);

    assert!(!exhausted);
    let pair_tests = meter.spent();
    assert!(pair_tests >= 1_000, "only {pair_tests} pair tests");
    let bound = q.n_vertices() * rounds + SCRATCH_GROWTH;
    assert!(
        calls <= bound,
        "{calls} allocations for {pair_tests} pair tests in {rounds} rounds \
         over {} query vertices (bound {bound})",
        q.n_vertices()
    );
    // The refinement did refine: the counted run is not a trivial one.
    let size = |cs: &CandidateSets| cs.sets.iter().map(Vec::len).sum::<usize>();
    assert!(size(&cs) < size(&local), "refinement removed no candidate");
}
