//! Table 4 — training time (seconds) for one epoch of LSS, NeurSC-I,
//! NeurSC-D and full NeurSC on each dataset's Q4 set.

use neursc_bench::harness::{build_workload_sizes, HarnessConfig};
use neursc_bench::methods;
use neursc_core::Variant;
use neursc_workloads::datasets::DatasetId;
use neursc_workloads::split::{take, train_test_split};
use std::time::Instant;

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
        "{:<9} {:>9} {:>10} {:>10} {:>10}",
        "Dataset", "LSS", "NeurSC-I", "NeurSC-D", "NeurSC"
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

        let time = |mut m: Box<dyn neursc_baselines::CountEstimator>| -> f64 {
            let t = Instant::now();
            m.fit(&w.graph, &train);
            t.elapsed().as_secs_f64()
        };
        let t_lss = time(methods::lss(&cfg));
        let t_i = time(methods::neursc_variant(
            &cfg,
            Variant::IntraOnly,
            "NeurSC-I",
        ));
        let t_d = time(methods::neursc_variant(&cfg, Variant::DualOnly, "NeurSC-D"));
        let t_full = time(methods::neursc(&cfg));
        println!(
            "{:<9} {:>9.3} {:>10.3} {:>10.3} {:>10.3}",
            id.name(),
            t_lss,
            t_i,
            t_d,
            t_full
        );
    }
    println!();
    println!("Expected shape (paper): LSS fastest; NeurSC-I < NeurSC-D < NeurSC;");
    println!("growth is sublinear in data-graph size.");
}
