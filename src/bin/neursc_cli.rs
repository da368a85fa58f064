//! `neursc-cli` — command-line front end for the NeurSC library.
//!
//! Lets a downstream user run the full workflow on `.graph` files without
//! writing Rust:
//!
//! ```text
//! neursc-cli generate --dataset yeast --out data.graph
//! neursc-cli queries  --data data.graph --size 8 --count 20 --out-dir qs/
//! neursc-cli count    --data data.graph --query qs/q0.graph
//! neursc-cli train    --data data.graph --queries qs/ --out model.txt
//! neursc-cli estimate --model model.txt --data data.graph --query qs/q0.graph
//! neursc-cli evaluate --model model.txt --data data.graph --queries qs/
//! ```
//!
//! `queries` writes one `q<i>.graph` per query plus a `counts.csv`
//! (`file,count`) with exact ground truth; `train`/`evaluate` read that
//! layout back.

use neursc::core::persist::{load_model, save_model};
use neursc::core::{
    Estimator, FaultPlan, GraphContext, NeurSc, NeurScConfig, NeurScError, Recorder, TraceTime,
};
use neursc::graph::io::{load_graph, save_graph};
use neursc::graph::{Graph, GraphError};
use neursc::matching::count_embeddings;
use neursc::oracle::fuzz::{run_fuzz_with, FuzzConfig};
use neursc::serve::{serve, BackendChoice, Listen, RouterConfig, ServeConfig};
use neursc::workloads::datasets::{dataset, DatasetId};
use neursc::workloads::queries::{build_query_set, QuerySetConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Exit codes (documented in USAGE): 0 success, 1 other failure, 2 usage,
/// 3 input parse error, 4 I/O error, 5 model-file corruption, 6 resource
/// budget exhausted, 7 contained worker panic.
const EXIT_OTHER: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_PARSE: u8 = 3;
const EXIT_IO: u8 = 4;
const EXIT_CORRUPT: u8 = 5;
const EXIT_BUDGET: u8 = 6;
const EXIT_PANICKED: u8 = 7;

/// A classified CLI failure: what to print and which code to exit with.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn other(message: impl Into<String>) -> Self {
        CliError {
            code: EXIT_OTHER,
            message: message.into(),
        }
    }

    fn usage(message: impl Into<String>) -> Self {
        CliError {
            code: EXIT_USAGE,
            message: message.into(),
        }
    }

    fn parse(message: impl Into<String>) -> Self {
        CliError {
            code: EXIT_PARSE,
            message: message.into(),
        }
    }

    fn io(message: impl Into<String>) -> Self {
        CliError {
            code: EXIT_IO,
            message: message.into(),
        }
    }
}

/// Renders an error with its full `source()` chain, skipping links whose
/// text the parent already embeds (several library `Display` impls inline
/// their cause).
fn chain(e: &dyn std::error::Error) -> String {
    let mut s = e.to_string();
    let mut src = e.source();
    while let Some(cause) = src {
        let m = cause.to_string();
        if !s.contains(&m) {
            s.push_str(": ");
            s.push_str(&m);
        }
        src = cause.source();
    }
    s
}

impl From<GraphError> for CliError {
    fn from(e: GraphError) -> Self {
        let code = match &e {
            _ if e.is_parse() => EXIT_PARSE,
            GraphError::Io { .. } => EXIT_IO,
            _ => EXIT_OTHER,
        };
        CliError {
            code,
            message: chain(&e),
        }
    }
}

impl From<NeurScError> for CliError {
    fn from(e: NeurScError) -> Self {
        let code = if e.is_corruption() {
            EXIT_CORRUPT
        } else if e.is_parse() {
            EXIT_PARSE
        } else if e.is_io() {
            EXIT_IO
        } else {
            match &e {
                NeurScError::Budget { .. } => EXIT_BUDGET,
                NeurScError::Panicked { .. } => EXIT_PANICKED,
                _ => EXIT_OTHER,
            }
        };
        CliError {
            code,
            message: chain(&e),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let result = match COMMANDS.iter().find(|(name, ..)| *name == cmd) {
        // A flag the command does not read is refused before the command
        // touches a file or a socket: a typo must not silently become a
        // default (`serve --jounal FILE` would run without crash safety).
        // `min` makes the flag named independent of `HashMap` order.
        Some((_, flags, run)) => match opts
            .keys()
            .filter(|k| !flags.split(' ').any(|f| f == *k))
            .min()
        {
            Some(k) => Err(CliError::usage(format!("unknown flag --{k} for `{cmd}`"))),
            None => run(&opts),
        },
        None if matches!(cmd.as_str(), "help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(())
        }
        None => Err(CliError::usage(format!("unknown command {cmd:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}

const USAGE: &str = "\
neursc-cli — neural subgraph counting (NeurSC, SIGMOD 2022)

USAGE:
  neursc-cli generate --dataset <name>|--vertices N --degree D --labels L [--seed S] --out FILE
  neursc-cli queries  --data FILE --size N --count K [--seed S] [--budget B] --out-dir DIR
  neursc-cli count    --data FILE --query FILE [--budget B]
  neursc-cli train    --data FILE --queries DIR [--epochs N] [--seed S] [--threads T] [OBS] --out FILE
  neursc-cli estimate --model FILE --data FILE --query FILE [--threads T]
                      [--max-query-vertices V] [--inject-panic I] [OBS]
  neursc-cli evaluate --model FILE --data FILE --queries DIR [--threads T]
                      [--max-query-vertices V] [--inject-panic I] [OBS]
  neursc-cli serve    --model FILE --data FILE
                      [--listen ADDR | --unix PATH]
                      [--backend west|sample|auto] [--router-volume-cap N]
                      [--router-cands-per-ms N]
                      [--threads T] [--max-batch N] [--batch-wait-us U]
                      [--max-pending N] [--max-frame-bytes B]
                      [--max-query-vertices V]
                      [--journal FILE] [--supervise] [--max-restarts N]
                      [--backoff-base-ms MS] [--backoff-cap-ms MS]
                      [--stable-after-ms MS]
                      [--chaos-panic SEQS] [--chaos-starve SEQS]
                      [--chaos-abort DIGESTS] [OBS]
  neursc-cli fuzz     [--cases N] [--seed S] [--minimize] [--out-dir DIR]

  OBS: [--trace-json FILE] [--metrics-json FILE] [--trace-time canonical|wall]

Datasets: Yeast, Human, HPRD, Wordnet, DBLP, EU2005, Youtube (Table 2 presets).

--threads T fans query preparation and per-substructure forwards out over T
worker threads; results are bit-identical to --threads 1.

--trace-json writes a Chrome trace_event file (open in chrome://tracing or
Perfetto) covering filtering, extraction, GNN forwards and training epochs.
The default --trace-time canonical uses logical lanes and ticks so the trace
is byte-identical across --threads settings; wall uses real microseconds and
OS thread ids. --metrics-json writes counters (cache hits, query outcomes),
gauges (loss, grad norm) and log-scale histograms (per-stage ns).

serve runs a resident estimator daemon speaking line-delimited JSON over TCP
(or a Unix socket with --unix). It prints `listening on ADDR` once bound and
runs until a client sends the `shutdown` verb. --backend picks the estimator:
west (the trained GNN, default), sample (filtering–sampling with confidence
intervals, no training needed), or auto (cost-based per-request routing on
candidate-space volume and the declared deadline; tune with
--router-volume-cap / --router-cands-per-ms; decisions are counted under
router.backend.* in `stats`). --max-query-vertices rejects
over-sized queries at admission; --chaos-panic/--chaos-starve take
comma-separated admission sequence numbers whose requests get an injected
worker panic / starved filter budget (fault-injection testing);
--chaos-abort takes comma-separated hex request digests whose batch slot
aborts the process (crash-drill testing).

--supervise runs the daemon as a child worker under a watchdog: crashes
restart it with exponential backoff (--max-restarts, --backoff-base-ms,
--backoff-cap-ms, --stable-after-ms), and the fsync'd admission journal
(--journal, default neursc.journal) identifies requests in flight at death —
a request digest implicated in 2 consecutive crashes is quarantined (typed
crash_suspect rejection). A restarted worker rebuilds its caches from the
graph it loads. Typed worker exits (codes 1-7) propagate without
restarting; a clean drain exits 0.

--max-query-vertices on estimate/evaluate caps the resource budget (exit 6
when a query exceeds it); --inject-panic I trips a contained panic on item I
(exit 7 on estimate, a reported exclusion on evaluate).

fuzz runs the differential soundness oracle: N seeded random cases checked
against the exact enumerator (filter soundness, extraction count
preservation, metamorphic invariances — see DESIGN.md §11). --minimize
delta-debugs each violating case before reporting; --out-dir writes
violations as replayable .case files. Exit 0 iff every case passed.

Exit codes: 0 success, 1 other failure, 2 usage, 3 input parse error,
4 I/O error, 5 model-file corruption, 6 resource budget exhausted,
7 contained worker panic.";

type Opts = HashMap<String, String>;

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {:?}", args[i]))?;
        // Bare boolean flags carry no value; everything else requires one
        // (a value-less `--data` stays a usage error, not an empty path).
        const BOOL_FLAGS: &[&str] = &["minimize", "supervise"];
        if BOOL_FLAGS.contains(&key) {
            out.insert(key.to_string(), String::new());
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            out.insert(key.to_string(), value.clone());
            i += 2;
        }
    }
    Ok(out)
}

/// Every command: its name, the flags it reads, its entry point. `serve`
/// is one list for the supervisor and its worker: `--supervise` re-runs
/// the same argv minus itself, plus `--quarantine` / `--restart-count`,
/// which only the supervisor passes.
type Command = (
    &'static str,
    &'static str,
    fn(&Opts) -> Result<(), CliError>,
);
const COMMANDS: &[Command] = &[
    (
        "generate",
        "dataset vertices degree labels seed out",
        cmd_generate,
    ),
    (
        "queries",
        "data size count seed budget out-dir",
        cmd_queries,
    ),
    ("count", "data query budget", cmd_count),
    (
        "train",
        "data queries epochs seed threads out trace-json metrics-json trace-time",
        cmd_train,
    ),
    (
        "estimate",
        "model data query threads max-query-vertices inject-panic \
         trace-json metrics-json trace-time",
        cmd_estimate,
    ),
    (
        "evaluate",
        "model data queries threads max-query-vertices inject-panic \
         trace-json metrics-json trace-time",
        cmd_evaluate,
    ),
    (
        "serve",
        "model data listen unix backend router-volume-cap router-cands-per-ms \
         threads max-batch batch-wait-us max-pending max-frame-bytes max-query-vertices \
         journal supervise max-restarts \
         backoff-base-ms backoff-cap-ms stable-after-ms quarantine restart-count \
         chaos-panic chaos-starve chaos-abort \
         trace-json metrics-json trace-time",
        cmd_serve,
    ),
    ("fuzz", "cases seed minimize out-dir", cmd_fuzz),
];

fn req<'a>(opts: &'a Opts, key: &str) -> Result<&'a str, CliError> {
    opts.get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| CliError::usage(format!("missing required --{key}")))
}

fn num<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, CliError> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage(format!("bad value for --{key}: {v}"))),
    }
}

fn opt_num<T: std::str::FromStr>(opts: &Opts, key: &str) -> Result<Option<T>, CliError> {
    match opts.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| CliError::usage(format!("bad value for --{key}: {v}"))),
    }
}

/// Parses a comma-separated list of non-negative integers (e.g. `3,11`).
fn num_list(opts: &Opts, key: &str) -> Result<Vec<u64>, CliError> {
    let Some(v) = opts.get(key) else {
        return Ok(Vec::new());
    };
    v.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| CliError::usage(format!("bad value for --{key}: {v}")))
        })
        .collect()
}

/// Observability wiring parsed from `--trace-json` / `--metrics-json` /
/// `--trace-time`. When neither export path is given the context carries
/// the no-op sink and the pipeline pays (almost) nothing.
struct ObsSetup {
    ctx: GraphContext,
    recorder: Option<Arc<Recorder>>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    trace_time: TraceTime,
}

impl ObsSetup {
    fn from_opts(opts: &Opts) -> Result<Self, CliError> {
        let trace_out = opts.get("trace-json").map(PathBuf::from);
        let metrics_out = opts.get("metrics-json").map(PathBuf::from);
        let trace_time = match opts.get("trace-time") {
            None => TraceTime::Canonical,
            Some(s) => TraceTime::parse(s).ok_or_else(|| {
                CliError::usage(format!("bad --trace-time {s:?} (canonical|wall)"))
            })?,
        };
        let (ctx, recorder) = if trace_out.is_some() || metrics_out.is_some() {
            let rec = Arc::new(Recorder::new());
            let sink: Arc<dyn neursc::core::ObsSink> = rec.clone();
            (GraphContext::with_obs(sink), Some(rec))
        } else {
            (GraphContext::new(), None)
        };
        Ok(ObsSetup {
            ctx,
            recorder,
            trace_out,
            metrics_out,
            trace_time,
        })
    }

    /// Writes whichever exports were requested. Called after the command's
    /// pipeline work finishes (including on the success path only — a
    /// failed run exits through `CliError` before reaching this).
    fn export(&self) -> Result<(), CliError> {
        let Some(rec) = &self.recorder else {
            return Ok(());
        };
        if let Some(path) = &self.trace_out {
            std::fs::write(path, rec.chrome_trace_json(self.trace_time))
                .map_err(|e| CliError::io(format!("{}: {e}", path.display())))?;
            eprintln!("wrote trace to {}", path.display());
        }
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, rec.metrics().snapshot().to_json())
                .map_err(|e| CliError::io(format!("{}: {e}", path.display())))?;
            eprintln!("wrote metrics to {}", path.display());
        }
        Ok(())
    }
}

/// Applies `--threads` to a model's thread count. Defaults to
/// sequential execution.
fn apply_threads(model: &mut NeurSc, opts: &Opts) -> Result<(), CliError> {
    let threads: usize = num(opts, "threads", model.config.threads)?;
    if threads == 0 {
        return Err(CliError::usage("--threads must be at least 1"));
    }
    model.config.threads = threads;
    Ok(())
}

fn cmd_generate(opts: &Opts) -> Result<(), CliError> {
    let out = PathBuf::from(req(opts, "out")?);
    let g = if let Some(name) = opts.get("dataset") {
        let id = DatasetId::parse(name)
            .ok_or_else(|| CliError::usage(format!("unknown dataset {name}")))?;
        dataset(id)
    } else {
        let n: usize = num(opts, "vertices", 1000)?;
        let d: f64 = num(opts, "degree", 8.0)?;
        let l: usize = num(opts, "labels", 8)?;
        let seed: u64 = num(opts, "seed", 1)?;
        neursc::graph::generate::generate(
            &neursc::graph::generate::GraphSpec {
                n_vertices: n,
                avg_degree: d,
                n_labels: l,
                label_zipf: 0.8,
                model: neursc::graph::generate::DegreeModel::Community {
                    community_size: 25,
                    intra_fraction: 0.8,
                },
            },
            seed,
        )
    };
    save_graph(&g, &out)?;
    println!(
        "wrote {} (|V|={} |E|={} |L|={})",
        out.display(),
        g.n_vertices(),
        g.n_edges(),
        g.n_labels()
    );
    Ok(())
}

fn cmd_queries(opts: &Opts) -> Result<(), CliError> {
    let g = load_graph(Path::new(req(opts, "data")?))?;
    let size: usize = num(opts, "size", 8)?;
    let count: usize = num(opts, "count", 20)?;
    let seed: u64 = num(opts, "seed", 1)?;
    let budget: u64 = num(opts, "budget", 500_000_000)?;
    let dir = PathBuf::from(req(opts, "out-dir")?);
    std::fs::create_dir_all(&dir).map_err(|e| CliError::io(format!("{}: {e}", dir.display())))?;

    let queries = build_query_set(&g, &QuerySetConfig::new(size, count, seed));
    let mut csv = String::from("file,count\n");
    let mut kept = 0;
    for (i, q) in queries.iter().enumerate() {
        let r = count_embeddings(q, &g, budget);
        let Some(c) = r.exact() else {
            eprintln!("q{i}: over budget, dropped");
            continue;
        };
        let name = format!("q{i}.graph");
        save_graph(q, &dir.join(&name))?;
        csv.push_str(&format!("{name},{c}\n"));
        kept += 1;
    }
    std::fs::write(dir.join("counts.csv"), csv)
        .map_err(|e| CliError::io(format!("counts.csv: {e}")))?;
    println!("wrote {kept} labeled queries to {}", dir.display());
    Ok(())
}

fn cmd_count(opts: &Opts) -> Result<(), CliError> {
    let g = load_graph(Path::new(req(opts, "data")?))?;
    let q = load_graph(Path::new(req(opts, "query")?))?;
    let budget: u64 = num(opts, "budget", 2_000_000_000)?;
    let r = count_embeddings(&q, &g, budget);
    match r.exact() {
        Some(c) => println!("{c}"),
        None => {
            println!(
                "budget exhausted after {} expansions (≥ {})",
                r.expansions,
                r.lower_bound()
            );
            return Err(CliError::other("count exceeds budget"));
        }
    }
    Ok(())
}

fn load_labeled_dir(dir: &Path) -> Result<Vec<(Graph, u64)>, CliError> {
    let csv = std::fs::read_to_string(dir.join("counts.csv"))
        .map_err(|e| CliError::io(format!("{}: {e}", dir.join("counts.csv").display())))?;
    let mut out = Vec::new();
    for line in csv.lines().skip(1) {
        let (file, count) = line
            .split_once(',')
            .ok_or_else(|| CliError::parse(format!("bad counts.csv line: {line}")))?;
        let c: u64 = count
            .trim()
            .parse()
            .map_err(|_| CliError::parse(format!("bad count: {count}")))?;
        let q = load_graph(&dir.join(file.trim()))?;
        out.push((q, c));
    }
    Ok(out)
}

fn cmd_train(opts: &Opts) -> Result<(), CliError> {
    let g = load_graph(Path::new(req(opts, "data")?))?;
    let labeled = load_labeled_dir(Path::new(req(opts, "queries")?))?;
    let epochs: usize = num(opts, "epochs", 20)?;
    let seed: u64 = num(opts, "seed", 7)?;
    let out = PathBuf::from(req(opts, "out")?);

    let mut cfg = NeurScConfig::small();
    cfg.pretrain_epochs = epochs;
    cfg.adversarial_epochs = (epochs / 3).max(2);
    let mut model = NeurSc::new(cfg, seed);
    apply_threads(&mut model, opts)?;
    let obs = ObsSetup::from_opts(opts)?;
    let report = model.fit_with(&g, &labeled, &obs.ctx)?;
    obs.export()?;
    save_model(&model, &out)?;
    println!(
        "trained on {} queries ({} skipped, {} failed), final loss {:.3}; wrote {}",
        labeled.len(),
        report.skipped_queries,
        report.failed_queries,
        report.final_loss,
        out.display()
    );
    Ok(())
}

/// Applies `--max-query-vertices` (a runtime resource-budget override)
/// to a loaded model.
fn apply_budget_cap(model: &mut NeurSc, opts: &Opts) -> Result<(), CliError> {
    if let Some(cap) = opt_num::<usize>(opts, "max-query-vertices")? {
        model.config.budget.max_query_vertices = Some(cap);
    }
    Ok(())
}

fn cmd_estimate(opts: &Opts) -> Result<(), CliError> {
    let mut model = load_model(Path::new(req(opts, "model")?))?;
    apply_threads(&mut model, opts)?;
    apply_budget_cap(&mut model, opts)?;
    let g = load_graph(Path::new(req(opts, "data")?))?;
    let q = load_graph(Path::new(req(opts, "query")?))?;
    let mut obs = ObsSetup::from_opts(opts)?;
    // --inject-panic routes through the batch pipeline (fault plans are
    // keyed by batch slot), proving panic containment maps to exit 7.
    let d = match opt_num::<usize>(opts, "inject-panic")? {
        Some(slot) => {
            obs.ctx.faults = FaultPlan::new().panic_on(slot);
            model
                .estimate_batch(std::slice::from_ref(&q), &g, &obs.ctx)
                .pop()
                .expect("one result per query")?
        }
        None => model.estimate_detailed_with(&q, &g, &obs.ctx)?,
    };
    obs.export()?;
    println!("{:.1}", d.count);
    eprintln!(
        "({} substructures{})",
        d.n_substructures,
        if d.trivially_zero {
            ", trivially zero"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_evaluate(opts: &Opts) -> Result<(), CliError> {
    let mut model = load_model(Path::new(req(opts, "model")?))?;
    apply_threads(&mut model, opts)?;
    apply_budget_cap(&mut model, opts)?;
    let g = load_graph(Path::new(req(opts, "data")?))?;
    let labeled = load_labeled_dir(Path::new(req(opts, "queries")?))?;
    if labeled.is_empty() {
        return Err(CliError::other("no labeled queries found"));
    }
    // Batched path: one shared context caches the data-graph profiles and
    // fans the whole query set out over the configured workers. Failed
    // queries are isolated per item: they are reported to stderr and
    // excluded from aggregation instead of aborting the run.
    let queries: Vec<Graph> = labeled.iter().map(|(q, _)| q.clone()).collect();
    let mut obs = ObsSetup::from_opts(opts)?;
    if let Some(slot) = opt_num::<usize>(opts, "inject-panic")? {
        obs.ctx.faults = FaultPlan::new().panic_on(slot);
    }
    let details = model.estimate_batch(&queries, &g, &obs.ctx);
    obs.export()?;
    let mut errs: Vec<f64> = Vec::new();
    let (mut budget, mut panicked, mut invalid, mut other) = (0usize, 0usize, 0usize, 0usize);
    for (i, ((_, c), d)) in labeled.iter().zip(&details).enumerate() {
        match d {
            Ok(d) => errs.push(neursc::core::q_error(d.count, *c as f64)),
            Err(e) => {
                match e {
                    NeurScError::Budget { .. } => budget += 1,
                    NeurScError::Panicked { .. } => panicked += 1,
                    NeurScError::InvalidQuery { .. } => invalid += 1,
                    _ => other += 1,
                }
                eprintln!("q{i}: {}", chain(e));
            }
        }
    }
    let failed = budget + panicked + invalid + other;
    println!(
        "excluded {failed} of {} (budget {budget}, panicked {panicked}, \
         invalid_query {invalid}, other {other})",
        labeled.len()
    );
    if errs.is_empty() {
        return Err(CliError::other("every query failed"));
    }
    let mean = errs.iter().sum::<f64>() / errs.len() as f64;
    let gmean = (errs.iter().map(|e| e.ln()).sum::<f64>() / errs.len() as f64).exp();
    let max = errs.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "{} queries ({failed} failed): mean q-error {mean:.2}, geometric mean {gmean:.2}, max {max:.2}",
        errs.len()
    );
    Ok(())
}

/// Parses a comma-separated list of 16-hex-digit request digests
/// (`--quarantine`, `--chaos-abort`).
fn hex_list(opts: &Opts, key: &str) -> Result<Vec<u64>, CliError> {
    let Some(v) = opts.get(key) else {
        return Ok(Vec::new());
    };
    neursc::serve::supervise::parse_quarantine(v)
        .map_err(|e| CliError::usage(format!("bad value for --{key}: {e}")))
}

/// The supervision loop: respawn this executable as a worker (same argv
/// minus `--supervise`, plus an explicit `--journal` so both sides agree
/// on the path) and restart it per the crash policy. Never returns — the
/// supervisor's exit code is the worker's verdict.
fn cmd_supervise(opts: &Opts) -> Result<(), CliError> {
    let journal = PathBuf::from(
        opts.get("journal")
            .map(String::as_str)
            .unwrap_or("neursc.journal"),
    );
    let cfg = neursc::serve::supervise::SuperviseConfig {
        journal: journal.clone(),
        max_restarts: num(opts, "max-restarts", 5u32)?,
        backoff_base: std::time::Duration::from_millis(num(opts, "backoff-base-ms", 100u64)?),
        backoff_cap: std::time::Duration::from_millis(num(opts, "backoff-cap-ms", 5_000u64)?),
        stable_after: std::time::Duration::from_millis(num(opts, "stable-after-ms", 10_000u64)?),
    };
    // Reconstruct the worker's argv from our own, dropping --supervise
    // (a bare boolean flag) and pinning --journal explicitly.
    let mut worker_args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--supervise")
        .collect();
    if !opts.contains_key("journal") {
        worker_args.push("--journal".to_string());
        worker_args.push(journal.display().to_string());
    }
    let code = neursc::serve::supervise::supervise(&worker_args, &cfg);
    std::process::exit(code);
}

fn cmd_serve(opts: &Opts) -> Result<(), CliError> {
    if opts.contains_key("supervise") {
        return cmd_supervise(opts);
    }
    let mut model = load_model(Path::new(req(opts, "model")?))?;
    apply_threads(&mut model, opts)?;
    let g = load_graph(Path::new(req(opts, "data")?))?;

    let listen = match opts.get("unix") {
        Some(_) if opts.contains_key("listen") => {
            return Err(CliError::usage(
                "--listen and --unix are mutually exclusive",
            ));
        }
        #[cfg(unix)]
        Some(p) => Listen::Unix(PathBuf::from(p)),
        #[cfg(not(unix))]
        Some(_) => return Err(CliError::usage("--unix is not supported on this platform")),
        None => Listen::Tcp(
            opts.get("listen")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        ),
    };
    let backend = match opts.get("backend") {
        None => BackendChoice::West,
        Some(s) => BackendChoice::parse(s).ok_or_else(|| {
            CliError::usage(format!("bad value for --backend: {s:?} (west|sample|auto)"))
        })?,
    };
    let router = RouterConfig {
        volume_cap: num(
            opts,
            "router-volume-cap",
            RouterConfig::default().volume_cap,
        )?,
        cands_per_ms: num(
            opts,
            "router-cands-per-ms",
            RouterConfig::default().cands_per_ms,
        )?,
    };
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        listen,
        threads: model.config.threads,
        max_batch: num(opts, "max-batch", defaults.max_batch)?,
        batch_wait: std::time::Duration::from_micros(num(
            opts,
            "batch-wait-us",
            defaults.batch_wait.as_micros() as u64,
        )?),
        max_pending: num(opts, "max-pending", defaults.max_pending)?,
        max_frame_bytes: num(opts, "max-frame-bytes", defaults.max_frame_bytes)?,
        max_query_vertices: opt_num(opts, "max-query-vertices")?,
        chaos_panic: num_list(opts, "chaos-panic")?,
        chaos_starve: num_list(opts, "chaos-starve")?,
        chaos_abort: hex_list(opts, "chaos-abort")?,
        journal_path: opts.get("journal").map(PathBuf::from),
        quarantine: hex_list(opts, "quarantine")?,
        restarts: num(opts, "restart-count", 0u64)?,
        backend,
        router,
    };

    // The daemon always records: `stats` exports the metrics registry
    // over the wire, and --trace-json/--metrics-json dump it at drain.
    let obs = ObsSetup::from_opts(opts)?;
    let recorder = obs
        .recorder
        .clone()
        .unwrap_or_else(|| Arc::new(Recorder::new()));
    let server = serve(model, g, cfg, recorder).map_err(|e| CliError::io(format!("serve: {e}")))?;
    println!("listening on {}", server.local_addr());
    server
        .join()
        .map_err(|e| CliError::other(format!("serve: {e}")))?;
    obs.export()?;
    Ok(())
}

fn cmd_fuzz(opts: &Opts) -> Result<(), CliError> {
    let cfg = FuzzConfig {
        cases: num(opts, "cases", 100u64)?,
        seed: num(opts, "seed", 42u64)?,
        minimize: opts.contains_key("minimize"),
    };
    let out_dir = opts.get("out-dir").map(PathBuf::from);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::io(format!("create {}: {e}", dir.display())))?;
    }

    println!(
        "fuzzing {} cases (seed {}, minimize: {})",
        cfg.cases, cfg.seed, cfg.minimize
    );
    let report = run_fuzz_with(&cfg, &mut |i, violations| {
        if (i + 1) % 100 == 0 {
            println!(
                "  {} / {} cases, {} violations",
                i + 1,
                cfg.cases,
                violations
            );
        }
    });

    for (k, outcome) in report.outcomes.iter().enumerate() {
        eprintln!(
            "violation {} (case {}, seed {}): {}",
            k + 1,
            outcome.index,
            outcome.case_seed,
            outcome.violation
        );
        if let Some(dir) = &out_dir {
            let path = dir.join(format!(
                "{}-{}.case",
                outcome.violation.invariant, outcome.case_seed
            ));
            std::fs::write(&path, &outcome.case_text)
                .map_err(|e| CliError::io(format!("write {}: {e}", path.display())))?;
            eprintln!("  written to {}", path.display());
        }
    }
    if report.gen_failures > 0 {
        eprintln!("{} cases failed to generate", report.gen_failures);
    }
    println!(
        "{} cases checked: {} violations",
        report.cases_run,
        report.outcomes.len()
    );
    if report.clean() {
        Ok(())
    } else {
        Err(CliError::other(format!(
            "{} invariant violations (run `neursc-cli fuzz --seed {} --minimize` to shrink)",
            report.outcomes.len(),
            cfg.seed
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `USAGE` documents exactly the flags the `COMMANDS` table accepts,
    /// apart from `quarantine` and `restart-count`, which only the
    /// supervisor passes to its worker.
    #[test]
    fn usage_names_exactly_the_flags_commands_accept() {
        let accepted: BTreeSet<&str> = COMMANDS
            .iter()
            .flat_map(|(_, flags, _)| flags.split_whitespace())
            .filter(|f| !matches!(*f, "quarantine" | "restart-count"))
            .collect();
        let documented: BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|w| w.strip_prefix("--"))
            .filter(|f| f.starts_with(|c: char| c.is_ascii_lowercase()))
            .collect();
        assert_eq!(accepted, documented);
    }
}
