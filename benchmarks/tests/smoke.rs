//! Runs every workload in `--smoke` mode (few passes, numbers meaningless)
//! and checks the benchmark's contract: what it prints is exactly what
//! `BENCHMARK.json` declares, and every output was correct.

use neursc_serve::json::{self, Json};
use std::collections::BTreeMap;
use std::process::Command;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `name -> unit` of one metric list of the manifest.
fn declared(manifest: &Json, list: &str) -> BTreeMap<String, String> {
    manifest
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{list}`"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("metric field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs one smoke run and returns the parsed last line of its stdout.
fn smoke_run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_neursc-benchmarks"))
        .args(["--workload", workload, "--seed", "3", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

#[test]
fn manifest_matches_the_spec_tables_in_the_code() {
    // `spec.rs` is private to the binary; the runs below prove the emitted
    // names equal the manifest's. Here: the manifest's own shape.
    let m = manifest();
    let workloads: Vec<&str> = m
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(
        workloads,
        [
            "offline_refine_human",
            "offline_gnn_youtube",
            "serve_yeast",
            "train_yeast"
        ]
    );
    let e2e = declared(&m, "end_to_end");
    assert_eq!(e2e.len(), 8);
    assert_eq!(e2e.get("setup_s").map(String::as_str), Some("s"));
    for (name, _) in e2e.iter().chain(&declared(&m, "per_layer")) {
        assert!(valid_name(name), "bad metric name `{name}`");
    }
    for metric in m
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
    {
        let bound = metric.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics_and_is_correct() {
    let m = manifest();
    for (list, trace) in [("end_to_end", false), ("per_layer", true)] {
        let want = declared(&m, list);
        for workload in [
            "offline_refine_human",
            "offline_gnn_youtube",
            "serve_yeast",
            "train_yeast",
        ] {
            let result = smoke_run(workload, trace);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload}"
            );
            assert!(result
                .get("attempted")
                .and_then(Json::as_u64)
                .is_some_and(|n| n >= 1));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: `metrics` is not an object");
            };
            let got: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(valid_name(name), "{workload}: bad metric name `{name}`");
                    let value = m.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload}/{name}: {value:?}"
                    );
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(
                got, want,
                "{workload} trace={trace}: emitted vs declared metrics"
            );
            if !trace {
                let ok = metrics
                    .iter()
                    .find(|(n, _)| n == "ok_share")
                    .expect("ok_share");
                assert_eq!(
                    ok.1.get("value").and_then(Json::as_f64),
                    Some(1.0),
                    "{workload}"
                );
            }
        }
    }
}
