//! End-to-end test of the `neursc_cli` binary: generate → queries → count
//! → train → estimate → evaluate over real files in a temp directory.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_neursc_cli"))
}

fn run_ok(mut cmd: Command) -> String {
    let out = cmd.output().expect("spawn cli");
    assert!(
        out.status.success(),
        "cli failed: {}\nstdout: {}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn cli_full_workflow() {
    let dir = std::env::temp_dir().join("neursc_cli_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| -> PathBuf { dir.join(name) };

    // generate
    let out = run_ok({
        let mut c = cli();
        c.args([
            "generate",
            "--vertices",
            "300",
            "--degree",
            "8",
            "--labels",
            "5",
            "--seed",
            "3",
            "--out",
        ])
        .arg(p("data.graph"));
        c
    });
    assert!(out.contains("|V|=300"));

    // queries + ground truth
    let out = run_ok({
        let mut c = cli();
        c.args(["queries", "--data"])
            .arg(p("data.graph"))
            .args(["--size", "4", "--count", "10", "--seed", "2", "--out-dir"])
            .arg(p("qs"));
        c
    });
    assert!(out.contains("labeled queries"));
    assert!(p("qs").join("counts.csv").exists());

    // count one query — must match the counts.csv entry for q0
    let csv = std::fs::read_to_string(p("qs").join("counts.csv")).unwrap();
    let q0_count: u64 = csv
        .lines()
        .find(|l| l.starts_with("q0.graph"))
        .and_then(|l| l.split(',').nth(1))
        .and_then(|c| c.trim().parse().ok())
        .expect("q0 count in csv");
    let out = run_ok({
        let mut c = cli();
        c.args(["count", "--data"])
            .arg(p("data.graph"))
            .args(["--query"])
            .arg(p("qs").join("q0.graph"));
        c
    });
    assert_eq!(out.trim().parse::<u64>().unwrap(), q0_count);

    // train
    let out = run_ok({
        let mut c = cli();
        c.args(["train", "--data"])
            .arg(p("data.graph"))
            .args(["--queries"])
            .arg(p("qs"))
            .args(["--epochs", "6", "--out"])
            .arg(p("model.txt"));
        c
    });
    assert!(out.contains("trained on"));

    // estimate
    let out = run_ok({
        let mut c = cli();
        c.args(["estimate", "--model"])
            .arg(p("model.txt"))
            .args(["--data"])
            .arg(p("data.graph"))
            .args(["--query"])
            .arg(p("qs").join("q0.graph"));
        c
    });
    let est: f64 = out.trim().parse().unwrap();
    assert!(est.is_finite() && est >= 0.0);

    // evaluate
    let out = run_ok({
        let mut c = cli();
        c.args(["evaluate", "--model"])
            .arg(p("model.txt"))
            .args(["--data"])
            .arg(p("data.graph"))
            .args(["--queries"])
            .arg(p("qs"));
        c
    });
    assert!(out.contains("mean q-error"));
    assert!(
        out.contains("excluded 0 of"),
        "evaluate prints the exclusion breakdown: {out}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the CLI expecting failure; returns `(exit_code, stderr)`.
fn run_err(mut cmd: Command) -> (i32, String) {
    let out = cmd.output().expect("spawn cli");
    assert!(
        !out.status.success(),
        "cli unexpectedly succeeded\nstdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_rejects_bad_usage() {
    // Usage errors all exit with code 2.
    let (code, _) = run_err({
        let mut c = cli();
        c.arg("frobnicate");
        c
    });
    assert_eq!(code, 2);
    let (code, _) = run_err({
        let mut c = cli();
        c.args(["count", "--data"]);
        c
    });
    assert_eq!(code, 2);
    let (code, _) = run_err(cli());
    assert_eq!(code, 2);
    // `graph` is no command, with or without a subcommand after it.
    for line in [
        "graph",
        "graph pack --data x.graph --out x.nscs",
        "graph info --store x.nscs",
    ] {
        let (code, stderr) = run_err({
            let mut c = cli();
            c.args(line.split(' '));
            c
        });
        assert_eq!(code, 2, "{line}: {stderr}");
    }
    let (code, stderr) = run_err({
        let mut c = cli();
        c.args(["count", "--query", "x.graph"]); // missing required --data
        c
    });
    assert_eq!(code, 2);
    assert!(stderr.contains("--data"), "stderr: {stderr}");

    // A flag the command does not read is refused by name before anything
    // runs — a typo, a deleted flag, another command's flag — even when the
    // rest of the line is complete (the missing files would exit 4).
    let path = std::env::temp_dir().join("neursc_cli_unknown_flag.graph");
    let _ = std::fs::remove_file(&path);
    for (line, flag) in [
        ("generate --vertices 50 --sede 3 --out", "--sede"),
        (
            "serve --model no.model --quantize int8 --data",
            "--quantize",
        ),
        (
            "serve --model no.model --snapshot-interval-ms 1000 --data",
            "--snapshot-interval-ms",
        ),
        (
            "serve --supervise --model no.model --snapshot warm.snap --data",
            "--snapshot",
        ),
        (
            "serve --model no.model --cache-capacity 4 --data",
            "--cache-capacity",
        ),
        (
            "serve --model no.model --idem-cache-cap 8 --data",
            "--idem-cache-cap",
        ),
        (
            "serve --model no.model --graph-store x --data",
            "--graph-store",
        ),
        (
            "estimate --model no.model --query no.graph --max-batch 4 --data",
            "--max-batch",
        ),
    ] {
        let (code, stderr) = run_err({
            let mut c = cli();
            c.args(line.split(' ')).arg(&path);
            c
        });
        assert_eq!(code, 2, "{line}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: unknown flag {flag} ")),
            "{line}: {stderr}"
        );
    }
    assert!(!path.exists(), "generate ran despite --sede");
}

#[test]
fn cli_exit_codes_distinguish_parse_io_and_corruption() {
    let dir = std::env::temp_dir().join("neursc_cli_errcode_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // 4 = I/O: the data file does not exist. The message names the path.
    let missing = dir.join("nope.graph");
    let (code, stderr) = run_err({
        let mut c = cli();
        c.args(["count", "--data"])
            .arg(&missing)
            .args(["--query"])
            .arg(&missing);
        c
    });
    assert_eq!(code, 4, "stderr: {stderr}");
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");
    assert!(stderr.contains("nope.graph"), "stderr: {stderr}");

    // 3 = parse: a syntactically broken graph file, with the line number.
    let broken = dir.join("broken.graph");
    std::fs::write(&broken, "t 2 1\nv 0 0 1\nv 0 0 1\ne 0 1\n").unwrap(); // duplicate v 0
    let (code, stderr) = run_err({
        let mut c = cli();
        c.args(["count", "--data"])
            .arg(&broken)
            .args(["--query"])
            .arg(&broken);
        c
    });
    assert_eq!(code, 3, "stderr: {stderr}");
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");

    // 5 = corruption: a model file whose checksum no longer matches.
    let data = dir.join("data.graph");
    run_ok({
        let mut c = cli();
        c.args([
            "generate",
            "--vertices",
            "60",
            "--degree",
            "4",
            "--labels",
            "3",
            "--out",
        ])
        .arg(&data);
        c
    });
    let qdir = dir.join("qs");
    run_ok({
        let mut c = cli();
        c.args(["queries", "--data"])
            .arg(&data)
            .args(["--size", "3", "--count", "4", "--out-dir"])
            .arg(&qdir);
        c
    });
    let model = dir.join("model.txt");
    run_ok({
        let mut c = cli();
        c.args(["train", "--data"])
            .arg(&data)
            .args(["--queries"])
            .arg(&qdir)
            .args(["--epochs", "2", "--out"])
            .arg(&model);
        c
    });
    // 6 = budget: a runtime query-size cap no 3-vertex query fits under.
    let (code, stderr) = run_err({
        let mut c = cli();
        c.args(["estimate", "--model"])
            .arg(&model)
            .args(["--data"])
            .arg(&data)
            .args(["--query"])
            .arg(qdir.join("q0.graph"))
            .args(["--max-query-vertices", "1"]);
        c
    });
    assert_eq!(code, 6, "stderr: {stderr}");
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");

    // 7 = contained worker panic, surfaced as a typed error.
    let (code, stderr) = run_err({
        let mut c = cli();
        c.args(["estimate", "--model"])
            .arg(&model)
            .args(["--data"])
            .arg(&data)
            .args(["--query"])
            .arg(qdir.join("q0.graph"))
            .args(["--inject-panic", "0"]);
        c
    });
    assert_eq!(code, 7, "stderr: {stderr}");
    assert!(stderr.contains("panic"), "stderr: {stderr}");

    // evaluate isolates a panicked item: exit 0, breakdown names it.
    let out = run_ok({
        let mut c = cli();
        c.args(["evaluate", "--model"])
            .arg(&model)
            .args(["--data"])
            .arg(&data)
            .args(["--queries"])
            .arg(&qdir)
            .args(["--inject-panic", "1"]);
        c
    });
    assert!(
        out.contains("excluded 1 of 4 (budget 0, panicked 1, invalid_query 0, other 0)"),
        "stdout: {out}"
    );

    // Truncate the model file: the header checksum must catch it.
    let text = std::fs::read_to_string(&model).unwrap();
    std::fs::write(&model, &text[..text.len() - 25]).unwrap();
    let (code, stderr) = run_err({
        let mut c = cli();
        c.args(["estimate", "--model"])
            .arg(&model)
            .args(["--data"])
            .arg(&data)
            .args(["--query"])
            .arg(qdir.join("q0.graph"));
        c
    });
    assert_eq!(code, 5, "stderr: {stderr}");
    assert!(stderr.contains("model.txt"), "stderr: {stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_generate_dataset_preset() {
    let dir = std::env::temp_dir().join("neursc_cli_preset_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("yeast.graph");
    run_ok({
        let mut c = cli();
        c.args(["generate", "--dataset", "yeast", "--out"])
            .arg(&path);
        c
    });
    let g = neursc::graph::io::load_graph(&path).unwrap();
    assert_eq!(g.n_vertices(), 3112);
    std::fs::remove_dir_all(&dir).ok();
}
