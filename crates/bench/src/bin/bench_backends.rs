//! Backend benchmark: WEst vs the filtering–sampling estimator, plus the
//! cost-based router's hit rates under `--backend auto`.
//!
//! A CI gate, not a report writer: three measurements, printed on stdout
//! with the verdict (timings and accuracy over time are `BENCHMARK.json`'s
//! job):
//!
//! 1. **west** — per-query latency percentiles and relative error of the
//!    learned Wasserstein estimator against exact counts from the
//!    enumerator.
//! 2. **sample** — the same workload through the Horvitz–Thompson
//!    sampling backend, plus the fraction of queries whose reported
//!    confidence interval actually covered the exact count.
//! 3. **router** — a resident daemon in `--backend auto` mode serving
//!    the same queries; reports how many landed on each backend
//!    (`router.backend.west` / `router.backend.sample` counters). The
//!    volume cap is set to the workload's median candidate volume so
//!    both backends see traffic.
//!
//! The acceptance target is that both backends stay within a mean
//! relative error of 10x on this seeded workload (loose by design — the
//! point of the run is the latency/accuracy *comparison*, which EXPERIMENTS.md
//! interprets; the assert only catches wholesale breakage).
//!
//! Usage: `bench_backends [--queries 24] [--trials 1024]`.

use neursc_core::{Estimator, GraphContext, NeurSc, NeurScConfig, Recorder};
use neursc_graph::generate::{generate, DegreeModel, GraphSpec};
use neursc_graph::sample::{sample_query, QuerySampler};
use neursc_graph::Graph;
use neursc_match::enumerate::count_embeddings;
use neursc_sample::{SampleConfig, SampleEstimator};
use neursc_serve::client::{self, Client};
use neursc_serve::{serve, BackendChoice, RouterConfig, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)] as f64 / 1e6
}

/// One backend's run over the labeled workload.
struct BackendRun {
    p50_ms: f64,
    p95_ms: f64,
    mean_ms: f64,
    mean_rel_err: f64,
    max_rel_err: f64,
    ci_covered: Option<usize>,
    ci_total: Option<usize>,
}

impl BackendRun {
    fn measure(
        est: &dyn Estimator,
        queries: &[(Graph, u64)],
        g: &Graph,
        track_ci: bool,
    ) -> BackendRun {
        let ctx = GraphContext::new();
        // One untimed pass so shared caches (data-graph profiles) are hot
        // for both backends alike; the comparison is steady-state cost.
        let _ = est.estimate_detailed_with(&queries[0].0, g, &ctx);
        let mut ns = Vec::with_capacity(queries.len());
        let mut rel_errs = Vec::with_capacity(queries.len());
        let (mut covered, mut with_ci) = (0usize, 0usize);
        for (q, exact) in queries {
            let t = Instant::now();
            let d = est.estimate_detailed_with(q, g, &ctx).expect("estimate");
            ns.push(t.elapsed().as_nanos() as u64);
            let exact = *exact as f64;
            rel_errs.push((d.count - exact).abs() / exact.max(1.0));
            if track_ci {
                if let Some(ci) = d.ci {
                    with_ci += 1;
                    if ci.low <= exact && exact <= ci.high {
                        covered += 1;
                    }
                }
            }
        }
        ns.sort_unstable();
        let mean_ms = ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64 / 1e6;
        let mean_rel_err = rel_errs.iter().sum::<f64>() / rel_errs.len().max(1) as f64;
        let max_rel_err = rel_errs.iter().cloned().fold(0.0, f64::max);
        BackendRun {
            p50_ms: percentile(&ns, 50.0),
            p95_ms: percentile(&ns, 95.0),
            mean_ms,
            mean_rel_err,
            max_rel_err,
            ci_covered: track_ci.then_some(covered),
            ci_total: track_ci.then_some(with_ci),
        }
    }

    fn print(&self, label: &str) {
        print!(
            "{label}: p50 {:.3} ms, p95 {:.3} ms, mean {:.3} ms, rel err mean {:.4} max {:.4}",
            self.p50_ms, self.p95_ms, self.mean_ms, self.mean_rel_err, self.max_rel_err
        );
        if let (Some(c), Some(t)) = (self.ci_covered, self.ci_total) {
            print!(", CI covered {c}/{t}");
        }
        println!();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n_queries: usize = flag(&args, "--queries")
        .and_then(|v| v.parse().ok())
        .unwrap_or(24);
    let trials: usize = flag(&args, "--trials")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024);

    // A graph small enough that the enumerator can label every query with
    // its exact count, so relative error is against ground truth.
    let g = generate(
        &GraphSpec {
            n_vertices: 1500,
            avg_degree: 6.0,
            n_labels: 4,
            label_zipf: 0.8,
            model: DegreeModel::Community {
                community_size: 30,
                intra_fraction: 0.8,
            },
        },
        23,
    );
    let mut cfg = NeurScConfig::small();
    cfg.filter.profile_radius = 3;
    let model = NeurSc::new(cfg, 23);
    let sampler = SampleEstimator::new(
        SampleConfig::from_model_config(&model.config)
            .with_trials(trials)
            .with_seed(23),
    );

    // Label induced 4-vertex queries with exact counts; drop any the
    // enumerator couldn't finish under budget.
    let mut rng = StdRng::seed_from_u64(23);
    let mut queries: Vec<(Graph, u64)> = Vec::new();
    while queries.len() < n_queries {
        let q = sample_query(&g, &QuerySampler::induced(4), &mut rng).expect("sample query");
        if let Some(exact) = count_embeddings(&q, &g, 50_000_000).exact() {
            queries.push((q, exact));
        }
    }
    println!(
        "bench_backends: |V(G)|={} |E(G)|={}, {} labeled queries, {} trials/query",
        g.n_vertices(),
        g.n_edges(),
        queries.len(),
        trials
    );

    // --- 1 & 2. offline backend comparison --------------------------------
    let west = BackendRun::measure(&model, &queries, &g, false);
    let sample = BackendRun::measure(&sampler, &queries, &g, true);
    west.print("west");
    sample.print("sample");

    // --- 3. router hit rates under a served --backend auto daemon ---------
    // Split the workload at its median candidate volume so the auto policy
    // has real decisions to make in both directions.
    let mut volumes: Vec<u64> = queries
        .iter()
        .map(|(q, _)| neursc_serve::router::candidate_volume(q, &g))
        .collect();
    volumes.sort_unstable();
    let volume_cap = volumes[volumes.len() / 2];
    let recorder = Arc::new(Recorder::new());
    let serve_cfg = ServeConfig {
        backend: BackendChoice::Auto,
        router: RouterConfig {
            volume_cap,
            ..RouterConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = serve(model, g.clone(), serve_cfg, recorder.clone()).expect("start daemon");
    let mut c = Client::connect_tcp(server.local_addr()).expect("connect");
    for (i, (q, _)) in queries.iter().enumerate() {
        let r = c
            .request(&client::estimate_request(i as u64, q))
            .expect("served estimate");
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    c.send_line(&client::shutdown_request(999_999))
        .expect("shutdown");
    let _ = c.recv_line();
    server.join().expect("drain");
    let snap = recorder.metrics().snapshot();
    let hits_west = snap.counter("router.backend.west");
    let hits_sample = snap.counter("router.backend.sample");
    assert_eq!(
        (hits_west + hits_sample) as usize,
        queries.len(),
        "every served query must be routed exactly once"
    );
    assert!(
        hits_west > 0 && hits_sample > 0,
        "median volume cap must split traffic across both backends \
         (west={hits_west}, sample={hits_sample})"
    );
    println!(
        "router: auto sent {hits_west} to west, {hits_sample} to sample \
         (volume cap {volume_cap})"
    );

    // Sanity floor, not a quality bar: both estimators run untrained /
    // lightly sampled here, so only wholesale breakage should trip it.
    assert!(
        sample.mean_rel_err <= 10.0,
        "sampling backend drifted far from exact counts (mean rel err {:.2})",
        sample.mean_rel_err
    );

    println!(
        "peak RSS {} bytes; PASS: sampling mean rel err {:.4} <= 10, router split both ways",
        neursc_core::obs::process_peak_rss_bytes(),
        sample.mean_rel_err
    );
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}
