//! The measured child: cold set-ups, a warm-up pass, measured passes over
//! the fixed op list, and the statistics that turn passes into metrics.
//!
//! Every workload executes the same op list in every pass; `--seed` fixes
//! the issue order. The warm-up pass is discarded. Every timing is built
//! from the best pass of each small piece of work (an op, or a chunk of
//! pipelined requests; see [`crate::stats`] for why): a stall in one pass
//! of one op does not become a tail sample, and a noisy minute on the host
//! does not become a regression. Timings are reported raw.

use crate::clock::{process_cpu_ns, process_cpu_resolution_ns};
use crate::report::{metric, Metric, RunResult};
use crate::spec::PER_LAYER;
use crate::stats::{median, min, pass_min, percentile, quartiles};
use crate::trace::Tracer;
use neursc_core::{GraphContext, NeurSc};
use neursc_graph::io::load_graph;
use neursc_graph::Graph;
use neursc_nn::infer::{InferWeights, QuantMode};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One per-layer metric as a workload reports it: name, value, samples.
pub type LayerValue = (&'static str, f64, usize);

/// Cold set-ups of an end-to-end run: at least [`SETUPS`], and one more
/// before every further measured pass until they have taken
/// [`SETUP_BUDGET_S`] together. `setup_s` is the fastest of them: a 10 ms
/// set-up needs more than seven samples to meet the machine at its best, a
/// 250 ms one cannot afford many more.
pub const SETUPS: usize = 7;
pub const SETUP_BUDGET_S: f64 = 2.0;

/// What one pass over the op list produced.
#[derive(Debug, Clone, Default)]
pub struct PassSample {
    /// Wall time of op `i`, nanoseconds, indexed by op id (not by issue
    /// position). Ops the pass did not issue read 0.
    pub op_ns: Vec<u64>,
    /// A digest of op `i`'s output, compared with the reference and with
    /// the first measured pass.
    pub out: Vec<u64>,
    /// Ops that returned an error or whose reply was not byte-identical to
    /// the expected reply. Output digests catch the rest.
    pub errors: u64,
    /// Ops executed in the whole pass (latency and throughput phases).
    pub attempted: u64,
    /// The throughput window, cut into chunks that hold the same work in
    /// every pass of a run: wall and process CPU nanoseconds per chunk.
    pub chunk_ns: Vec<u64>,
    pub chunk_cpu_ns: Vec<u64>,
    /// Ops inside the throughput window.
    pub tput_ops: u64,
}

impl PassSample {
    /// An empty sample for a pass over an op list of `n_ops` ops.
    pub fn new(n_ops: usize) -> PassSample {
        PassSample {
            op_ns: vec![0; n_ops],
            out: vec![0; n_ops],
            ..PassSample::default()
        }
    }

    /// Runs op `i` of a serial pass and records its wall and CPU time. In
    /// a serial pass every op is its own chunk of the throughput window.
    /// The CPU clock is read outside the wall-clock interval.
    pub fn time_op<R>(&mut self, i: usize, op: impl FnOnce() -> R) -> R {
        if self.chunk_cpu_ns.is_empty() {
            self.chunk_cpu_ns = vec![0; self.op_ns.len()];
        }
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let r = op();
        self.op_ns[i] = t0.elapsed().as_nanos() as u64;
        self.chunk_cpu_ns[i] = process_cpu_ns() - cpu0;
        self.attempted += 1;
        self.tput_ops += 1;
        r
    }

    /// Closes a serial pass: the throughput window is the ops' own time,
    /// without the harness's bookkeeping between them.
    pub fn close_serial(mut self) -> PassSample {
        self.chunk_ns = self.op_ns.clone();
        self
    }
}

/// A workload the harness can drive. One instance is one cold set-up.
pub trait Workload: Sized {
    /// Loads the fixture files, builds the system cold and runs the first
    /// op — everything a user waits for before the first answer.
    fn set_up(fixture: &Path) -> Self;

    /// Number of ops with a latency sample per pass.
    fn n_ops(&self) -> usize;

    /// Expected output digest of every op, from the fixture.
    fn reference(&self) -> &[u64];

    /// The discarded pass that fills caches and buffer pools before the
    /// measured ones: the whole op list in pool order.
    fn warm_up(&mut self) {
        let pool_order: Vec<usize> = (0..self.n_ops()).collect();
        self.pass(&pool_order, 0);
    }

    /// One pass, issuing ops in `order`. `pass_no` is unique per pass and
    /// at least 1.
    fn pass(&mut self, order: &[usize], pass_no: u64) -> PassSample;

    /// One pass in which every op runs as the explicit chain of public
    /// layer calls, each wrapped in a span, followed by the per-layer
    /// probes of that op. `op_ns` is the chain's wall time (probes
    /// excluded) and `out` the chain's result.
    fn traced_pass(&mut self, order: &[usize], pass_no: u64, tracer: &mut Tracer) -> PassSample;

    /// Median q-error of the workload's estimates against exact counts,
    /// and how many estimates it was taken over. `last` is the final
    /// measured pass, which issued the ops in `order`.
    fn qerr_p50(&mut self, order: &[usize], last: &PassSample) -> (f64, usize);

    /// Per-layer metrics of this workload from the traced passes, as
    /// `(name, value, sample count)`. Called once, after the last pass.
    /// Panics when a workload-character assertion does not hold.
    fn layer_metrics(
        &mut self,
        opts: &RunOpts,
        tracer: &Tracer,
        n_traced: usize,
        e2e: &EndToEndStats,
    ) -> Vec<LayerValue>;

    /// Stops everything the instance started and waits for it.
    fn shut_down(self);
}

/// How a run is made.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    pub fixture: PathBuf,
    pub out_dir: PathBuf,
    pub seed: u64,
    /// Measure until the passes have taken this much time, always
    /// finishing the pass. Set-ups and the warm-up pass are not counted.
    pub seconds: f64,
    /// Fewest measured passes, whatever `seconds` says.
    pub min_passes: usize,
    /// Fewest cold set-ups, and the time they may take together before no
    /// more are made; `setup_s` is the fastest of them.
    pub setups: usize,
    pub setup_budget_s: f64,
    /// Whether a discarded warm-up pass precedes the measured ones.
    pub warm_up: bool,
    /// Issue only the first `max_ops` ops of the issue order (`--smoke`).
    pub max_ops: usize,
    pub traced: bool,
    /// Seconds the parent spent building fixtures for this run.
    pub fixture_s: f64,
}

/// The issue order of a run: a seeded shuffle of the fixed op list.
pub fn issue_order(seed: u64, n_ops: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n_ops).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x6f72_6465_7200));
    order
}

/// The timing statistics shared by the end-to-end and the traced run.
#[derive(Debug, Clone)]
pub struct EndToEndStats {
    /// `l[k]`: minimum over passes of the wall time of the `k`-th op of
    /// the issue order, milliseconds.
    pub op_ms: Vec<f64>,
    pub lat_p50_ms: f64,
    pub lat_p90_ms: f64,
    pub throughput_ops_s: f64,
    pub cpu_ms_per_op: f64,
    pub passes: usize,
    /// p75 / p25 of the passes' throughput-window wall time.
    pub pass_spread: f64,
    /// Resolution of the CPU clock over the smallest CPU time it measured.
    pub cpu_clock_quantum_share: f64,
}

fn end_to_end_stats(samples: &[PassSample], order: &[usize]) -> EndToEndStats {
    let to_f64 = |ns: &[u64]| -> Vec<f64> { ns.iter().map(|&v| v as f64).collect() };
    let op_ns = pass_min(&samples.iter().map(|s| to_f64(&s.op_ns)).collect::<Vec<_>>());
    let op_ms: Vec<f64> = order.iter().map(|&i| op_ns[i] / 1e6).collect();
    // Every chunk holds the same work in every pass, so its best pass is
    // its cost without interference; the window is the sum of its chunks.
    let chunk_ns = pass_min(
        &samples
            .iter()
            .map(|s| to_f64(&s.chunk_ns))
            .collect::<Vec<_>>(),
    );
    let chunk_cpu_ns = pass_min(
        &samples
            .iter()
            .map(|s| to_f64(&s.chunk_cpu_ns))
            .collect::<Vec<_>>(),
    );
    let tput_ops = samples[0].tput_ops as f64;
    let window_s: Vec<f64> = samples
        .iter()
        .map(|s| s.chunk_ns.iter().sum::<u64>() as f64 / 1e9)
        .collect();
    let smallest_cpu_ns = chunk_cpu_ns
        .iter()
        .copied()
        .filter(|&c| c > 0.0)
        .fold(f64::INFINITY, f64::min);
    EndToEndStats {
        lat_p50_ms: median(&op_ms).expect("op list is not empty"),
        lat_p90_ms: percentile(&op_ms, 0.9)
            .expect("every op list has at least 100 ops, so 10 lie beyond p90"),
        throughput_ops_s: tput_ops / (chunk_ns.iter().sum::<f64>() / 1e9),
        cpu_ms_per_op: chunk_cpu_ns.iter().sum::<f64>() / 1e6 / tput_ops,
        passes: samples.len(),
        pass_spread: quartiles(&window_s).map_or(1.0, |[q1, _, q3]| q3 / q1),
        cpu_clock_quantum_share: process_cpu_resolution_ns() as f64 / smallest_cpu_ns,
        op_ms,
    }
}

/// Ops of `sample` that failed: errors, plus outputs of issued ops that
/// differ from the reference or from the first measured pass.
fn failed_ops(sample: &PassSample, order: &[usize], reference: &[u64], first: &PassSample) -> u64 {
    let mismatched = order
        .iter()
        .filter(|&&i| sample.out[i] != reference[i] || sample.out[i] != first.out[i])
        .count() as u64;
    sample.errors.max(mismatched)
}

/// Runs one workload and returns its result. Traced, it also writes the
/// Chrome trace into `opts.out_dir`.
pub fn run<W: Workload>(opts: &RunOpts) -> RunResult {
    // Cold set-ups: each builds the whole system from the fixture files
    // and answers one op. The first instance is the one measured; the
    // others are built one before each measured pass and dropped at once,
    // so the set-ups sample the whole run, not its first half second.
    let timed_set_up = || {
        let t0 = Instant::now();
        let instance = W::set_up(&opts.fixture);
        (instance, t0.elapsed().as_secs_f64())
    };
    let (mut w, first_set_up) = timed_set_up();
    let mut setup_s = vec![first_set_up];
    let extra_set_up = |setup_s: &mut Vec<f64>| {
        if setup_s.len() < opts.setups || setup_s.iter().sum::<f64>() < opts.setup_budget_s {
            let (instance, seconds) = timed_set_up();
            instance.shut_down();
            setup_s.push(seconds);
        }
    };
    let mut order = issue_order(opts.seed, w.n_ops());
    order.truncate(opts.max_ops);

    // The warm-up pass walks the pool in its own order, whatever the seed:
    // every run then starts measuring from the same cache and allocator
    // state, and the memory high-water mark read right after it does not
    // depend on the issue order (buffer pools ratchet up differently under
    // different orders: 36 to 42 MiB on `offline_gnn_youtube`).
    if opts.warm_up {
        w.warm_up();
    }
    let rss_after_warm_up = peak_rss_mib();

    let mut tracer = Tracer::new();
    let mut samples = Vec::new();
    let mut traced_samples = Vec::new();
    let mut pass_no = 0u64;
    // Only the passes count towards `--seconds`: the set-ups between them
    // do not shorten the measurement.
    let mut measured_s = 0.0;
    while samples.len() < opts.min_passes || measured_s < opts.seconds {
        extra_set_up(&mut setup_s);
        let t0 = Instant::now();
        pass_no += 1;
        let s = w.pass(&order, pass_no);
        if opts.traced {
            tracer.set_pass(traced_samples.len() as u32);
            pass_no += 1;
            traced_samples.push(w.traced_pass(&order, pass_no, &mut tracer));
        }
        measured_s += t0.elapsed().as_secs_f64();
        eprintln!(
            "pass {}: {} ops in {:.3} s, cpu {:.3} s",
            samples.len() + 1,
            s.tput_ops,
            s.chunk_ns.iter().sum::<u64>() as f64 / 1e9,
            s.chunk_cpu_ns.iter().sum::<u64>() as f64 / 1e9
        );
        samples.push(s);
    }
    while setup_s.len() < opts.setups {
        extra_set_up(&mut setup_s);
    }

    let reference = w.reference().to_vec();
    let attempted: u64 = samples
        .iter()
        .chain(&traced_samples)
        .map(|s| s.attempted)
        .sum();
    let failed: u64 = samples
        .iter()
        .map(|s| failed_ops(s, &order, &reference, &samples[0]))
        .chain(
            traced_samples
                .iter()
                .map(|s| failed_ops(s, &order, &reference, &traced_samples[0])),
        )
        .sum();
    let stats = end_to_end_stats(&samples, &order);
    assert!(
        stats.cpu_clock_quantum_share < 0.01,
        "the CPU clock's quantum is {:.4} of the smallest chunk; cpu_ms_per_op cannot be trusted",
        stats.cpu_clock_quantum_share
    );
    let n_ops = order.len();

    let metrics: Vec<Metric> = if opts.traced {
        let chain_ns: Vec<Vec<f64>> = traced_samples
            .iter()
            .map(|s| order.iter().map(|&i| s.op_ns[i] as f64).collect())
            .collect();
        let chain_mean_ms = mean(&pass_min(&chain_ns)) / 1e6;
        let mut values: Vec<LayerValue> = vec![
            ("harness.fixture_s", opts.fixture_s, 1),
            ("harness.passes", stats.passes as f64, stats.passes),
            ("harness.pass_spread", stats.pass_spread, stats.passes),
            (
                "harness.trace_overhead_share",
                chain_mean_ms / mean(&stats.op_ms) - 1.0,
                traced_samples.len(),
            ),
            ("harness.ops_per_pass", n_ops as f64, n_ops),
            (
                "harness.rss_growth_mb",
                peak_rss_mib() - rss_after_warm_up,
                1,
            ),
            (
                "harness.cpu_clock_quantum_share",
                stats.cpu_clock_quantum_share,
                1,
            ),
        ];
        values.extend(w.layer_metrics(opts, &tracer, traced_samples.len(), &stats));
        // The driver reads every declared layer metric from every traced
        // run, so a layer that is not on this workload's path is emitted
        // too: value 0 over 0 samples.
        PER_LAYER
            .iter()
            .map(|spec| {
                let (value, n) = values
                    .iter()
                    .find(|(name, _, _)| *name == spec.name)
                    .map_or((0.0, 0), |&(_, v, n)| (v, n));
                metric(spec.name, value, n)
            })
            .collect()
    } else {
        let (qerr, qerr_n) =
            w.qerr_p50(&order, samples.last().expect("at least one measured pass"));
        vec![
            metric("setup_s", min(&setup_s).expect("set-ups"), setup_s.len()),
            metric("lat_p50_ms", stats.lat_p50_ms, n_ops),
            metric("lat_p90_ms", stats.lat_p90_ms, n_ops),
            metric("throughput_ops_s", stats.throughput_ops_s, stats.passes),
            metric("cpu_ms_per_op", stats.cpu_ms_per_op, stats.passes),
            metric("peak_rss_mb", rss_after_warm_up, 1),
            metric("qerr_p50", qerr, qerr_n),
            metric(
                "ok_share",
                (attempted - failed) as f64 / attempted as f64,
                attempted as usize,
            ),
        ]
    };
    w.shut_down();

    if opts.traced {
        std::fs::create_dir_all(&opts.out_dir).expect("create the output directory");
        let file = format!("{}-seed{}.trace.json", opts.workload, opts.seed);
        std::fs::write(
            opts.out_dir.join(file),
            tracer.chrome_trace_json(&opts.workload),
        )
        .expect("write the trace");
    }
    RunResult {
        workload: opts.workload.clone(),
        seed: opts.seed,
        traced: opts.traced,
        attempted,
        failed,
        metrics,
    }
}

/// `VmHWM` of this process so far, in MiB.
fn peak_rss_mib() -> f64 {
    neursc_core::obs::process_peak_rss_bytes() as f64 / (1024.0 * 1024.0)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The layer's time per issued op, in milliseconds: the spans named `name`
/// summed per op, each op's best traced pass, averaged over the `issued`
/// ops of the run.
pub fn span_ms_per_op(
    tracer: &Tracer,
    name: &str,
    n_passes: usize,
    n_ops: usize,
    issued: usize,
) -> f64 {
    let per_pass = tracer.per_op_ns(name, n_passes, n_ops);
    pass_min(&per_pass).iter().sum::<f64>() / 1e6 / issued as f64
}

/// The cold-start layers every workload pays in its set-up, each timed on
/// its own: parsing the data graph, building the vertex profiles, taking
/// the inference weight snapshot.
pub fn cold_start_probes(fixture: &Path, g: &Graph, model: &NeurSc) -> Vec<LayerValue> {
    let load_ms = median_ms(3, || load_graph(&fixture.join("data.graph")).expect("load"));
    let r = model.config.filter.profile_radius;
    let profile_ms = median_ms(3, || GraphContext::new().profiles_for(g, r));
    let weights_ms = median_ms(5, || InferWeights::from_store(&model.store, QuantMode::F32));
    vec![
        ("graph.load_ms", load_ms, 3),
        ("match.profile_build_ms", profile_ms, 3),
        ("nn.infer_weights_build_ms", weights_ms, 5),
    ]
}

/// Median wall time of `reps` runs of `f`, in milliseconds.
pub fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples).expect("reps > 0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_order_is_a_seeded_permutation() {
        let a = issue_order(1, 256);
        assert_eq!(a, issue_order(1, 256));
        assert_ne!(a, issue_order(2, 256));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..256).collect::<Vec<_>>());
    }

    /// A serial pass: every op is its own chunk and costs as much CPU as
    /// wall time.
    fn sample(op_ns: Vec<u64>, out: Vec<u64>) -> PassSample {
        let n = op_ns.len() as u64;
        PassSample {
            chunk_ns: op_ns.clone(),
            chunk_cpu_ns: op_ns.clone(),
            op_ns,
            out,
            errors: 0,
            tput_ops: n,
            attempted: n,
        }
    }

    #[test]
    fn outputs_are_checked_against_reference_and_first_pass() {
        let order = [0, 1, 2];
        let first = sample(vec![1; 3], vec![7, 8, 9]);
        assert_eq!(failed_ops(&first, &order, &[7, 8, 9], &first), 0);
        // Differs from the reference.
        assert_eq!(failed_ops(&first, &order, &[7, 8, 0], &first), 1);
        // Matches the reference but not the first pass.
        let later = sample(vec![1; 3], vec![7, 8, 9]);
        let odd_first = sample(vec![1; 3], vec![7, 0, 9]);
        assert_eq!(failed_ops(&later, &order, &[7, 8, 9], &odd_first), 1);
        // An op the run does not issue is not compared.
        assert_eq!(failed_ops(&first, &[0, 1], &[7, 8, 0], &first), 0);
    }

    #[test]
    fn every_piece_of_work_counts_with_its_best_pass() {
        let n = 128usize;
        let base: Vec<u64> = (1..=n as u64).map(|i| i * 1_000_000).collect();
        // A 10 s stall on op 0 in one pass and on op 1 in the other: no
        // whole pass is free of interference, every op has a clean pass.
        let (mut a, mut b) = (base.clone(), base.clone());
        a[0] = 10_000_000_000;
        b[1] = 10_000_000_000;
        let samples = vec![sample(a, vec![0; n]), sample(b, vec![0; n])];
        let order: Vec<usize> = (0..n).rev().collect();
        let s = end_to_end_stats(&samples, &order);
        assert_eq!(s.op_ms[n - 1], 1.0); // op 0 is issued last
        assert!((s.lat_p50_ms - 64.5).abs() < 1e-9);
        assert!(s.lat_p90_ms < 128.0);
        assert_eq!(s.passes, 2);
        // 128 ops in 1 + 2 + ... + 128 ms = 8.256 s.
        assert!((s.throughput_ops_s - 128.0 / 8.256).abs() < 1e-9);
        assert!((s.cpu_ms_per_op - 8256.0 / 128.0).abs() < 1e-9);
    }
}
