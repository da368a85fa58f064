//! The benchmark's contract as data: workload names, the eight end-to-end
//! metrics with their regression bounds, and every per-layer metric with
//! the end-to-end metric it is expected to move. `BENCHMARK.json` at the
//! repository root lists the same names, units and bounds;
//! `tests/smoke.rs` fails when the two drift apart.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a caller of the estimator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// One per-layer metric (traced run only; no bound).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this layer number should move.
    pub moves: &'static str,
}

/// The four workloads, in the order a full set runs them.
pub const WORKLOADS: [&str; 4] = [
    "offline_refine_human",
    "offline_gnn_youtube",
    "serve_yeast",
    "train_yeast",
];

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "qerr_p50",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "ok_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.000_001,
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 42] = [
    // graph
    layer("graph.load_ms", "ms", Lower, "setup_s on all"),
    layer(
        "graph.induced_ms_per_op",
        "ms",
        Lower,
        "lat_p90_ms on offline_refine_human",
    ),
    // match
    layer("match.profile_build_ms", "ms", Lower, "setup_s on all"),
    layer(
        "match.profile_lookup_ms_per_op",
        "ms",
        Lower,
        "lat_p50_ms on serve_yeast and offline_gnn_youtube",
    ),
    layer(
        "match.local_prune_ms_per_op",
        "ms",
        Lower,
        "lat_p50_ms on offline_gnn_youtube",
    ),
    layer(
        "match.refine_ms_per_op",
        "ms",
        Lower,
        "lat_p50_ms, lat_p90_ms, throughput_ops_s on offline_refine_human",
    ),
    layer(
        "match.candidates_per_op",
        "count",
        Lower,
        "explains match.refine_ms_per_op (exact count)",
    ),
    layer(
        "match.refine_keep_ratio",
        "ratio",
        Lower,
        "explains match.refine_ms_per_op (exact ratio)",
    ),
    // core
    layer(
        "core.extract_ms_per_op",
        "ms",
        Lower,
        "lat_p90_ms on offline_refine_human",
    ),
    layer(
        "core.featurize_ms_per_op",
        "ms",
        Lower,
        "lat_p50_ms, throughput_ops_s on offline_gnn_youtube",
    ),
    layer(
        "core.forward_ms_per_op",
        "ms",
        Lower,
        "lat_p50_ms, throughput_ops_s on offline_gnn_youtube",
    ),
    layer(
        "core.substructures_per_op",
        "count",
        Lower,
        "explains core.forward_ms_per_op (exact count)",
    ),
    layer(
        "core.sub_vertices_per_op",
        "count",
        Lower,
        "explains core.forward_ms_per_op (exact count)",
    ),
    layer(
        "core.stage_coverage",
        "share",
        Higher,
        "share of an op the directly timed layer calls account for",
    ),
    layer(
        "core.train_prepare_ms_per_query",
        "ms",
        Lower,
        "setup_s on train_yeast",
    ),
    layer(
        "core.train_step_ms",
        "ms",
        Lower,
        "lat_p50_ms, throughput_ops_s on train_yeast",
    ),
    // gnn
    layer(
        "gnn.init_features_ms_per_op",
        "ms",
        Lower,
        "lat_p50_ms, cpu_ms_per_op on offline_gnn_youtube",
    ),
    layer(
        "gnn.intra_ms_per_op",
        "ms",
        Lower,
        "lat_p50_ms, cpu_ms_per_op on offline_gnn_youtube",
    ),
    layer(
        "gnn.inter_ms_per_op",
        "ms",
        Lower,
        "lat_p50_ms, cpu_ms_per_op on offline_gnn_youtube",
    ),
    layer(
        "gnn.readout_ms_per_op",
        "ms",
        Lower,
        "lat_p50_ms, cpu_ms_per_op on offline_gnn_youtube",
    ),
    // nn
    layer(
        "nn.forward_mflop_per_op",
        "Mflop",
        Lower,
        "core.forward_ms_per_op (computed from tensor shapes, not measured)",
    ),
    layer(
        "nn.forward_gflops",
        "Gflop/s",
        Higher,
        "core.forward_ms_per_op",
    ),
    layer("nn.infer_weights_build_ms", "ms", Lower, "setup_s on all"),
    layer(
        "nn.tape_forward_ms_per_step",
        "ms",
        Lower,
        "lat_p50_ms on train_yeast",
    ),
    layer(
        "nn.backward_optim_ms_per_step",
        "ms",
        Lower,
        "lat_p50_ms on train_yeast",
    ),
    // serve
    layer("serve.start_ms", "ms", Lower, "setup_s on serve_yeast"),
    layer(
        "serve.parse_us_per_req",
        "us",
        Lower,
        "lat_p50_ms on serve_yeast",
    ),
    layer(
        "serve.render_us_per_req",
        "us",
        Lower,
        "lat_p50_ms on serve_yeast",
    ),
    layer(
        "serve.request_bytes_per_req",
        "B",
        Lower,
        "lat_p50_ms on serve_yeast",
    ),
    layer(
        "serve.reply_bytes_per_req",
        "B",
        Lower,
        "lat_p50_ms on serve_yeast",
    ),
    layer(
        "serve.overhead_ms_per_req",
        "ms",
        Lower,
        "lat_p50_ms on serve_yeast",
    ),
    layer(
        "serve.cpu_overhead_ms_per_req",
        "ms",
        Lower,
        "cpu_ms_per_op on serve_yeast",
    ),
    layer(
        "serve.batch_size_mean",
        "count",
        Higher,
        "throughput_ops_s on serve_yeast",
    ),
    layer(
        "serve.batches_per_100_req",
        "count",
        Lower,
        "throughput_ops_s on serve_yeast",
    ),
    layer(
        "serve.refused_per_1000_req",
        "count",
        Lower,
        "ok_share on serve_yeast",
    ),
    // harness
    layer(
        "harness.fixture_s",
        "s",
        Lower,
        "none (generator cost, outside the measured child)",
    ),
    layer(
        "harness.passes",
        "count",
        Higher,
        "none (passes each best-pass statistic was taken over)",
    ),
    layer(
        "harness.pass_spread",
        "ratio",
        Lower,
        "none (p75/p25 of pass wall time: a noisy run is recognisable)",
    ),
    layer(
        "harness.trace_overhead_share",
        "share",
        Lower,
        "none (traced op time / untraced op time - 1)",
    ),
    layer(
        "harness.ops_per_pass",
        "count",
        Higher,
        "none (sample size behind lat_p50_ms and lat_p90_ms)",
    ),
    layer(
        "harness.rss_growth_mb",
        "MiB",
        Lower,
        "none (VmHWM at exit - peak_rss_mb: memory that keeps growing after the first pass)",
    ),
    layer(
        "harness.cpu_clock_quantum_share",
        "share",
        Lower,
        "none (CPU clock resolution / smallest CPU time measured; must stay < 0.01)",
    ),
];
