//! A warm training step takes its tape memory from the process, not from
//! the kernel.
//!
//! A step builds and drops one tape per query and epoch, and smaller ones
//! for the critic. Under glibc's default trim threshold every drop hands
//! the tape's pages back and the next tape faults them in again — a quarter
//! of the benchmark's `train_yeast` step time before `train::keep_freed_heap`
//! (DESIGN.md §16), at a cost per fault that is the host's. This test counts
//! the process's minor page faults: the first large step pays for its
//! tapes, a repeated one must not pay again.
//!
//! One test function in its own test binary: the fault counter is
//! process-wide.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use neursc_core::train::PreparedQuery;
use neursc_core::{GraphContext, NeurSc, NeurScConfig};
use neursc_graph::induced::induced_subgraph;
use neursc_graph::Graph;

/// Minor page faults of this process so far (`/proc/self/stat`, field 10).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 2..];
    after_comm
        .split(' ')
        .nth(7)
        .and_then(|f| f.parse().ok())
        .expect("minflt field")
}

/// `n` vertices, 2 labels: a ring with two chord families. At `n = 600` a
/// 4-vertex query's substructures span hundreds of vertices and a tape runs
/// to several MiB.
fn data_graph(n: u32) -> Graph {
    let labels: Vec<u32> = (0..n).map(|v| (v * v + v / 5) % 2).collect();
    let mut edges = Vec::new();
    for v in 0..n {
        edges.push((v, (v + 1) % n));
        if v % 2 == 0 {
            edges.push((v, (v + 7) % n));
        }
        if v % 3 == 0 {
            edges.push((v, (v * 5 + 11) % n));
        }
    }
    edges.retain(|&(a, b)| a != b);
    Graph::from_edges(n as usize, &labels, &edges).expect("valid graph")
}

#[test]
fn a_repeated_training_step_takes_no_new_pages() {
    let mut cfg = NeurScConfig::small();
    cfg.pretrain_epochs = 1;
    cfg.adversarial_epochs = 1;
    let mut model = NeurSc::new(cfg, 5);
    let prepare = |n: u32| -> Vec<PreparedQuery> {
        let g = data_graph(n);
        // The targets only have to be positive: nothing here reads the loss.
        let labeled: Vec<(Graph, u64)> = [[12u32, 13, 14, 21], [6, 7, 13, 14]]
            .iter()
            .map(|vs| (induced_subgraph(&g, vs).graph, 1000))
            .collect();
        model
            .prepare_batch(&g, &labeled, &GraphContext::new())
            .into_iter()
            .map(|p| p.expect("queries prepare"))
            .collect()
    };
    let (small, large) = (prepare(48), prepare(600));

    // What outlives a step (gradient buffers, optimizer-sized blocks) is
    // allocated during the first one. A small first step puts it low in
    // the heap, as in any run whose first step is not its largest; after a
    // large one it would sit above the tape's memory and pin it there.
    model.fit_prepared(&small).expect("small step");
    let before = minor_faults();
    model.fit_prepared(&large).expect("first step");
    let first = minor_faults() - before;
    // Not a vacuous pass: the step's tapes are far larger than the default
    // trim threshold (128 KiB = 32 pages).
    assert!(
        first > 512,
        "the first step faulted {first} pages: tapes too small to test anything"
    );
    // The heap's high-water mark settles within a step or two.
    for _ in 0..2 {
        model.fit_prepared(&large).expect("settling step");
    }
    let before = minor_faults();
    const STEPS: u64 = 4;
    for _ in 0..STEPS {
        model.fit_prepared(&large).expect("warm step");
    }
    let warm = (minor_faults() - before) / STEPS;
    assert!(
        warm * 20 < first,
        "a warm step still faults {warm} pages (the first one: {first}): \
         freed tape memory is going back to the kernel"
    );
}
