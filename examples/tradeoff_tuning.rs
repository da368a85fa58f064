//! The §5.8 efficiency/accuracy dial: estimate with a sampled subset of
//! candidate substructures (`r_s`) and watch error and latency trade off.
//!
//! ```text
//! cargo run --release --example tradeoff_tuning
//! ```

use neursc::core::train::prepare_query_with;
use neursc::prelude::*;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    // Wordnet-like: sparse with few labels → extraction yields *many*
    // connected candidate substructures, which is what the dial samples.
    let g = neursc::workloads::datasets::dataset(DatasetId::Wordnet);
    println!("data graph: |V|={} |E|={}", g.n_vertices(), g.n_edges());

    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let mut labeled = Vec::new();
    while labeled.len() < 40 {
        let q = sample_query(&g, &QuerySampler::induced(4), &mut rng).unwrap();
        if let Some(c) = count_embeddings(&q, &g, 1_000_000_000).exact() {
            labeled.push((q, c));
        }
    }
    let (train, test) = labeled.split_at(32);
    let mut model = NeurSc::new(NeurScConfig::small(), 9);
    model.fit(&g, train).unwrap();

    // Prepare test queries once (extraction is rate-independent).
    let ctx = GraphContext::new();
    let prepared: Vec<_> = test
        .iter()
        .map(|(q, c)| {
            let pq = prepare_query_with(q, &g, &model.config, *c, &ctx).unwrap();
            (pq, *c)
        })
        .collect();
    let avg_subs: f64 = prepared
        .iter()
        .map(|(p, _)| p.subs.len() as f64)
        .sum::<f64>()
        / prepared.len() as f64;
    println!(
        "trained on {} queries; test queries have {:.1} candidate substructures on average\n",
        train.len(),
        avg_subs
    );

    println!("{:>6} {:>12} {:>12}", "r_s", "mean q-err", "ms/query");
    for rate in [0.1, 0.25, 0.5, 0.75, 1.0] {
        let mut srng = rand::rngs::StdRng::seed_from_u64(1234);
        let t = Instant::now();
        let mut qerr = 0.0;
        for (pq, c) in &prepared {
            let e = neursc::core::sampling::estimate_with_sample_rate(&model, pq, rate, &mut srng);
            qerr += neursc::core::q_error(e, *c as f64);
        }
        let ms = t.elapsed().as_secs_f64() * 1e3 / prepared.len() as f64;
        println!(
            "{:>6.2} {:>12.2} {:>12.2}",
            rate,
            qerr / prepared.len() as f64,
            ms
        );
    }
    println!("\nEq. 12 makes every row an unbiased estimator; variance (and");
    println!("therefore q-error) shrinks as r_s grows, at linear time cost.");
}
