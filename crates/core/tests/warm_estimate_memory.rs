//! A warm estimate takes every tensor from its lane's arena, not the heap.
//!
//! An estimate runs one fused forward per substructure, and the
//! substructures of one query differ in size by an order of magnitude. The
//! forward's intermediates come from a per-lane buffer arena
//! (`neursc_nn::infer::Arena`) that hands out pooled buffers best fit, and
//! every buffer goes back to an arena when the estimate ends. So once each
//! query has been estimated once, estimating them again — in any order —
//! must not allocate a buffer of tensor size: not a fresh one (a buffer
//! some estimate lost) and not a grown one (`realloc` of a pooled buffer
//! too small for its request while a large one sat idle).
//!
//! What the count leaves out: the `PreparedQuery` owns featurization's
//! matrices, and nothing here prepares a query after the warm-up.
//!
//! One test function in its own test binary: the allocation counter is
//! process-wide.

use neursc_core::train::PreparedQuery;
use neursc_core::{GraphContext, NeurSc, NeurScConfig};
use neursc_graph::induced::induced_subgraph;
use neursc_graph::Graph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Counts the allocations and growths of at least `THRESHOLD` bytes made
/// while `ARMED` is set, and remembers the largest.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) && bytes >= THRESHOLD.load(Ordering::Relaxed) {
        LARGE.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `n` vertices `base..base + n`, 2 labels: a ring with two chord
/// families (the shape `train_steady_memory.rs` uses), as edges.
fn component(base: u32, n: u32, edges: &mut Vec<(u32, u32)>) {
    for v in 0..n {
        let mut add = |w: u32| {
            if v != w {
                edges.push((base + v, base + w));
            }
        };
        add((v + 1) % n);
        if v % 2 == 0 {
            add((v + 7) % n);
        }
        if v % 3 == 0 {
            add((v * 5 + 11) % n);
        }
    }
}

/// Disjoint components of widely different sizes, so that one query's
/// substructures span a 20× range of vertex counts.
fn data_graph(sizes: &[u32]) -> Graph {
    let (mut labels, mut edges) = (Vec::new(), Vec::new());
    for &n in sizes {
        let base = labels.len() as u32;
        labels.extend((0..n).map(|v| (v * v + v / 5) % 2));
        component(base, n, &mut edges);
    }
    Graph::from_edges(labels.len(), &labels, &edges).expect("valid graph")
}

#[test]
fn a_warm_estimate_allocates_no_tensor_storage() {
    let sizes = [40, 700, 90, 300, 160];
    let g = data_graph(&sizes);
    let mut cfg = NeurScConfig::small();
    cfg.threads = 1;
    let model = NeurSc::new(cfg, 5);
    let labeled: Vec<(Graph, u64)> = [[12u32, 13, 14, 21], [6, 7, 13, 14], [0, 1, 2, 9]]
        .iter()
        .map(|vs| (induced_subgraph(&g, vs).graph, 1))
        .collect();
    let prepared: Vec<PreparedQuery> = model
        .prepare_batch(&g, &labeled, &GraphContext::new())
        .into_iter()
        .map(|p| p.expect("queries prepare"))
        .collect();

    let vertices: Vec<usize> = prepared
        .iter()
        .flat_map(|pq| pq.subs.iter().map(|s| s.x.rows()))
        .collect();
    let (min, max) = (
        *vertices.iter().min().expect("substructures"),
        *vertices.iter().max().expect("substructures"),
    );
    assert!(
        max >= 10 * min,
        "substructures span {min}..={max} vertices: too alike to test best fit"
    );
    // The smallest activation of any forward here: the smallest
    // substructure's rows at the narrowest layer width. Per-forward
    // bookkeeping stays below it (attention's `has_in`, one byte per `G_B`
    // vertex; the per-substructure results).
    let c = &model.config;
    let width = c
        .features
        .dim()
        .min(c.gin.hidden_dim)
        .min(c.attention.hidden_dim);
    THRESHOLD.store(min * width * std::mem::size_of::<f32>(), Ordering::Relaxed);

    let cold: Vec<f64> = prepared
        .iter()
        .map(|pq| model.estimate_prepared(pq).count)
        .collect();
    // Another order, each query twice: a lane that only works for the
    // order it was warmed in fails here.
    let order = [2, 0, 1, 1, 2, 0];
    ARMED.store(true, Ordering::Relaxed);
    let warm: Vec<f64> = order
        .iter()
        .map(|&i| model.estimate_prepared(&prepared[i]).count)
        .collect();
    ARMED.store(false, Ordering::Relaxed);
    for (&i, w) in order.iter().zip(&warm) {
        assert_eq!(
            w.to_bits(),
            cold[i].to_bits(),
            "query {i}: storage changed a value"
        );
    }
    let (large, largest) = (
        LARGE.load(Ordering::Relaxed),
        LARGEST.load(Ordering::Relaxed),
    );
    assert_eq!(
        large,
        0,
        "{} warm estimates made {large} allocations of ≥ {} bytes (the largest \
         {largest}): an arena buffer was lost or grown",
        order.len(),
        THRESHOLD.load(Ordering::Relaxed)
    );
}
