//! The repository's benchmark (see `BENCHMARK.json` and `README.md`).
//!
//! ```text
//! neursc-benchmarks --workload W --seed N --seconds S --trace 0|1   one run
//! neursc-benchmarks [--seed N] [--seconds S]                        all workloads, both modes
//! neursc-benchmarks --smoke                                         all workloads, 2 passes each
//! neursc-benchmarks --repeat N [--seconds S]                        A/A: N full sets, spread vs bound
//! ```
//!
//! A run is two processes: the parent builds (or finds) the workload's
//! fixture files, then re-executes itself as a child that loads them and
//! measures. The last line the child prints is the result as one JSON
//! object; the parent reads it from there.

mod clock;
mod fixtures;
mod harness;
mod offline;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;
mod train;

use harness::RunOpts;
use report::RunResult;
use spec::{END_TO_END, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Measured seconds of a run when `--seconds` is not given (the value
/// `BENCHMARK.json` passes).
const DEFAULT_SECONDS: f64 = 25.0;
/// Ops a `--smoke` pass issues: enough for a p90 with ten ops beyond it.
const SMOKE_OPS: usize = 128;
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
    /// Set by the parent when it re-executes itself.
    child: Option<ChildArgs>,
}

struct ChildArgs {
    fixture: PathBuf,
    out_dir: PathBuf,
    fixture_s: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: neursc-benchmarks [--workload {}] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      neursc-benchmarks --smoke | --repeat N [--seconds S] [--seed N]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeat: None,
        child: None,
    };
    let mut child = (None, None, 0.0);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        fn num<T: std::str::FromStr>(s: String) -> T {
            s.parse().unwrap_or_else(|_| usage())
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = num(value()),
            "--seconds" => args.seconds = num(value()),
            "--trace" => args.trace = num::<u8>(value()) != 0,
            "--repeat" => args.repeat = Some(num(value())),
            "--smoke" => args.smoke = true,
            "--child-fixture" => child.0 = Some(PathBuf::from(value())),
            "--child-out" => child.1 = Some(PathBuf::from(value())),
            "--child-fixture-s" => child.2 = num(value()),
            _ => usage(),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            usage();
        }
    }
    if let (Some(fixture), Some(out_dir)) = (child.0, child.1) {
        args.child = Some(ChildArgs {
            fixture,
            out_dir,
            fixture_s: child.2,
        });
    }
    args
}

/// Builds the fixture of `workload` unless it exists; returns its
/// directory and the seconds spent.
fn ensure_fixture(workload: &str) -> (PathBuf, f64) {
    let dir = fixtures::fixture_dir(&fixtures::default_root(), workload);
    let seconds = fixtures::ensure(&dir, |tmp| match workload {
        "offline_refine_human" => offline::build_fixture(&offline::REFINE_HUMAN, tmp),
        "offline_gnn_youtube" => offline::build_fixture(&offline::GNN_YOUTUBE, tmp),
        "serve_yeast" => offline::build_fixture(&serve::YEAST, tmp),
        "train_yeast" => train::build_fixture(tmp),
        other => unreachable!("workload {other} was validated"),
    });
    if seconds > 0.0 {
        eprintln!(
            "built the {workload} fixture in {seconds:.1} s: {}",
            dir.display()
        );
    }
    (dir, seconds)
}

/// Where the Chrome traces go: next to the fixtures, inside the cargo
/// target directory.
fn out_dir() -> PathBuf {
    fixtures::default_root().with_file_name("neursc-bench-out")
}

/// The measured child: loads the fixture and runs the workload.
fn child_main(args: &Args, child: &ChildArgs) -> ExitCode {
    let workload = args
        .workload
        .clone()
        .expect("the parent names the workload");
    let opts = RunOpts {
        workload: workload.clone(),
        fixture: child.fixture.clone(),
        out_dir: child.out_dir.clone(),
        seed: args.seed,
        // A smoke run checks that everything runs and is correct; its
        // numbers mean nothing, so it is short and skips the warm-up.
        seconds: if args.smoke { 0.0 } else { args.seconds },
        min_passes: match (args.smoke, args.trace) {
            (true, true) => 1,
            (true, false) => 2,
            (false, true) => 3,
            (false, false) => 5,
        },
        // The traced run reports no `setup_s`, so it sets up once.
        setups: if args.smoke || args.trace {
            1
        } else {
            harness::SETUPS
        },
        setup_budget_s: if args.smoke || args.trace {
            0.0
        } else {
            harness::SETUP_BUDGET_S
        },
        warm_up: !args.smoke,
        max_ops: if args.smoke { SMOKE_OPS } else { usize::MAX },
        traced: args.trace,
        fixture_s: child.fixture_s,
    };
    let result = match workload.as_str() {
        "offline_refine_human" | "offline_gnn_youtube" => harness::run::<offline::Offline>(&opts),
        "serve_yeast" => harness::run::<serve::Serve>(&opts),
        "train_yeast" => harness::run::<train::Train>(&opts),
        other => unreachable!("workload {other} was validated"),
    };
    print!("{}", result.table());
    println!("{}", result.result_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{workload}: {} of {} ops failed",
            result.failed, result.attempted
        );
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process and reads the result from the last
/// line of its output. Unless `quiet`, the child's output is passed on, so
/// that line is also the last one this process prints.
fn run_child(args: &Args, workload: &str, trace: bool, quiet: bool) -> Result<RunResult, String> {
    let (fixture, fixture_s) = ensure_fixture(workload);
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--child-fixture")
        .arg(&fixture)
        .arg("--child-out")
        .arg(out_dir())
        .args(["--child-fixture-s", &fixture_s.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start the child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !quiet {
        print!("{stdout}");
    }
    let result = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: the child printed no result"))
        .and_then(|line| RunResult::from_result_line(workload, args.seed, trace, line));
    match (out.status.success(), result) {
        (true, Ok(r)) => Ok(r),
        (false, Ok(r)) if !r.correct() => Err(format!(
            "{workload}: {} of {} ops failed",
            r.failed, r.attempted
        )),
        (false, _) => Err(format!("{workload}: the child exited with {}", out.status)),
        (true, Err(e)) => Err(e),
    }
}

/// Every workload once, end-to-end and traced: one command that prints
/// every metric by name with its unit and checks the outputs.
fn full_set(args: &Args) -> Result<(), String> {
    for workload in WORKLOADS {
        for trace in [false, true] {
            run_child(args, workload, trace, false)?;
        }
    }
    Ok(())
}

/// A/A mode: `sets` full end-to-end sets of the same code; for every
/// (workload, metric) the largest relative difference between any two
/// sets, `(max - min) / min`, next to the metric's bound. That is the most
/// a later change could appear to lose or gain without changing anything.
fn repeat(args: &Args, sets: usize) -> Result<bool, String> {
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    for set in 0..sets {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let r = run_child(args, workload, false, true)?;
            for (m, spec) in END_TO_END.iter().enumerate() {
                values[w][m].push(r.value(spec.name).ok_or("missing metric")?);
            }
            eprintln!("set {}/{sets}: {workload} done", set + 1);
        }
    }
    let mut ok = true;
    let mut rows = Vec::new();
    println!(
        "{:<22} {:<18} {:>12} {:>12} {:>10} {:>8}  verdict",
        "workload", "metric", "median", "max pair", "IQR/median", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, spec) in END_TO_END.iter().enumerate() {
            let v = &values[w][m];
            let mid = stats::median(v).expect("at least one set");
            let lo = stats::min(v).expect("at least one set");
            let hi = v.iter().copied().fold(lo, f64::max);
            let pair = (hi - lo) / lo;
            let within = pair <= spec.bound;
            ok &= within;
            let iqr = stats::relative_iqr(v).unwrap_or(0.0);
            println!(
                "{workload:<22} {:<18} {mid:>12.5} {:>11.2}% {:>9.2}% {:>8}  {}",
                spec.name,
                pair * 100.0,
                iqr * 100.0,
                spec.bound,
                if within { "ok" } else { "EXCEEDS ITS BOUND" }
            );
            rows.push(format!(
                "{{\"workload\":\"{workload}\",\"metric\":\"{}\",\"bound\":{},\"sets\":{sets},\
                 \"median\":{mid},\"max_pairwise_difference\":{pair},\"iqr_over_median\":{iqr}}}",
                spec.name, spec.bound
            ));
        }
    }
    // The observed spread is recorded beside the bounds: in the package
    // directory, because BENCHMARK.json admits no extra keys.
    let record = Path::new(env!("CARGO_MANIFEST_DIR")).join("OBSERVED_SPREAD.json");
    if record.parent().is_some_and(Path::is_dir) {
        std::fs::write(&record, format!("[\n{}\n]\n", rows.join(",\n")))
            .map_err(|e| format!("{}: {e}", record.display()))?;
        eprintln!("recorded in {}", record.display());
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(child) = &args.child {
        return child_main(&args, child);
    }
    let outcome = if let Some(sets) = args.repeat {
        repeat(&args, sets)
    } else if let Some(workload) = &args.workload {
        run_child(&args, workload, args.trace, false).map(|_| true)
    } else {
        full_set(&args).map(|_| true)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
