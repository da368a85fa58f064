//! Figure 9 — q-error varying query characteristics on Yeast: label
//! entropy, degree entropy, density and diameter buckets, NeurSC vs. LSS.

use neursc_bench::boxplot::bucketed_stats;
use neursc_bench::harness::{build_workload, fit_and_evaluate, header, HarnessConfig};
use neursc_bench::methods;
use neursc_graph::{properties, traversal};
use neursc_workloads::datasets::DatasetId;

fn main() {
    let cfg = HarnessConfig::default();
    let w = build_workload(DatasetId::Yeast, &cfg);
    header(
        "Figure 9: q-error varying query characteristics (Yeast)",
        &w,
    );

    let all: Vec<(neursc_graph::Graph, u64)> = w
        .query_sets
        .iter()
        .flat_map(|(_, l)| l.iter().cloned())
        .collect();
    if all.len() < 10 {
        println!("not enough solvable queries ({})", all.len());
        return;
    }

    type KeyFn = (&'static str, fn(&neursc_graph::Graph) -> f64);
    let characteristics: [KeyFn; 4] = [
        ("label entropy", |q| properties::label_entropy(q)),
        ("degree entropy", |q| properties::degree_entropy(q)),
        ("density", |q| properties::density(q)),
        ("diameter", |q| {
            traversal::diameter(q).map_or(0.0, |d| d as f64)
        }),
    ];

    for maker in [methods::lss, methods::neursc] {
        let mut m = maker(&cfg);
        let (r, test) = fit_and_evaluate(m.as_mut(), &w.graph, &all, &cfg);
        println!("\n-- {} --", r.name);
        let rows: Vec<(&neursc_graph::Graph, f64)> = test
            .iter()
            .zip(&r.q_errors)
            .map(|((q, _), &e)| (q, e))
            .collect();
        for (label, keyf) in characteristics {
            println!("  by {label}:");
            for (bucket, s) in bucketed_stats(&rows, 3, |(q, _)| keyf(q), |&(_, e)| e) {
                println!("    {}", s.row(&bucket));
            }
        }
    }
    println!("\nExpected shape (paper): both methods do better on low degree entropy,");
    println!("high density, small diameter; NeurSC leads throughout, by more on");
    println!("high-entropy queries.");
}
