//! Table 4 — training time (seconds) for one epoch of LSS, NeurSC-I,
//! NeurSC-D and full NeurSC on each dataset's Q4 set.
//!
//! A NeurSC column is the mean wall time of one epoch — the run's
//! `train.epoch` spans, pre-training and adversarial alike — without the
//! query preparation (filtering, extraction, featurization) that happens
//! once per training set before the first epoch; the full model's
//! preparation is printed in a column of its own.

use neursc_bench::harness::{build_workload_sizes, HarnessConfig};
use neursc_bench::methods;
use neursc_core::obs::{ObsSink, Recorder};
use neursc_core::train::{run_training, PreparedQuery};
use neursc_core::{GraphContext, NeurSc, Variant};
use neursc_graph::Graph;
use neursc_workloads::datasets::DatasetId;
use neursc_workloads::split::{take, train_test_split};
use std::sync::Arc;
use std::time::Instant;

/// One NeurSC variant trained on `train`: the seconds its query
/// preparation took and the mean seconds of one of its training epochs.
fn neursc_times(
    cfg: &HarnessConfig,
    variant: Variant,
    g: &Graph,
    train: &[(Graph, u64)],
) -> (f64, f64) {
    let mut model = NeurSc::new(methods::neursc_config(cfg).with_variant(variant), cfg.seed);
    let t = Instant::now();
    let prepared: Vec<PreparedQuery> = model
        .prepare_batch(g, train, &GraphContext::new())
        .into_iter()
        .filter_map(Result::ok)
        .collect();
    let prepare_s = t.elapsed().as_secs_f64();
    let rec = Arc::new(Recorder::new());
    let sink: Arc<dyn ObsSink> = rec.clone();
    run_training(&mut model, &prepared, &sink);
    let epochs: Vec<u64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "train.epoch")
        .map(|s| s.dur_ns)
        .collect();
    let epoch_s = epochs.iter().sum::<u64>() as f64 / 1e9 / epochs.len().max(1) as f64;
    (prepare_s, epoch_s)
}

fn main() {
    // One allocator policy for every cell. NeurSC's training switches glibc
    // to keeping freed heap (KNOWN_ISSUES.md) the first time it runs, which
    // would leave the first LSS cell, and only that one, under the default.
    neursc_core::train::keep_freed_heap();
    // One epoch per phase: Table 4 measures a single epoch.
    let cfg = HarnessConfig {
        epochs: 1,
        ..HarnessConfig::default()
    };
    println!("=== Table 4: training time for one epoch (seconds), Q4 sets ===");
    println!(
        "{:<9} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "Dataset", "LSS", "NeurSC-I", "NeurSC-D", "NeurSC", "prepare"
    );
    for id in DatasetId::ALL {
        let w = build_workload_sizes(id, &[4], &cfg);
        let (_, labeled) = &w.query_sets[0];
        if labeled.len() < 5 {
            println!("{:<9} (insufficient solvable queries)", id.name());
            continue;
        }
        let (train_idx, _) = train_test_split(labeled.len(), cfg.test_frac, cfg.seed);
        let train = take(labeled, &train_idx);

        let mut lss = methods::lss(&cfg);
        let t = Instant::now();
        lss.fit(&w.graph, &train);
        let t_lss = t.elapsed().as_secs_f64();
        let (_, t_i) = neursc_times(&cfg, Variant::IntraOnly, &w.graph, &train);
        let (_, t_d) = neursc_times(&cfg, Variant::DualOnly, &w.graph, &train);
        let (prepare, t_full) = neursc_times(&cfg, Variant::Full, &w.graph, &train);
        println!(
            "{:<9} {:>9.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            id.name(),
            t_lss,
            t_i,
            t_d,
            t_full,
            prepare
        );
    }
    println!();
    println!("Expected shape (paper): LSS fastest; NeurSC-I < NeurSC-D < NeurSC;");
    println!("growth is sublinear in data-graph size. NeurSC columns: mean train.epoch");
    println!("span; `prepare`: the full model's query preparation, once per training set.");
}
