//! Kill drill for `neursc_cli serve --supervise`: SIGKILL the worker
//! mid-traffic and assert the whole recovery story end to end —
//! supervised restart, bit-identical results across the crash, crash-loop
//! quarantine of a poison query after two consecutive aborts, and a clean
//! drain (exit 0) afterwards.
//!
//! Unix-only: the drill needs `kill -9` and a Unix socket (whose path,
//! unlike an ephemeral TCP port, survives the restart).
#![cfg(unix)]

use neursc::core::persist::save_model;
use neursc::core::{NeurSc, NeurScConfig};
use neursc::graph::generate::erdos_renyi;
use neursc::graph::io::save_graph;
use neursc::serve::client::{self, Client};
use neursc::serve::journal::digest_queries;
use neursc::serve::json::{self, Json};
use neursc::serve::{RetryClient, RetryPolicy};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Collects the supervisor's (and, via inherited stdio, the workers')
/// stdout lines on a background thread.
struct StdoutLines {
    rx: mpsc::Receiver<String>,
    seen: Vec<String>,
}

impl StdoutLines {
    fn spawn(child: &mut Child) -> StdoutLines {
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        StdoutLines {
            rx,
            seen: Vec::new(),
        }
    }

    /// Blocks until a line satisfying `pred` arrives (panics on timeout);
    /// returns it. Every line is also retained in `seen`.
    fn wait_for(&mut self, what: &str, pred: impl Fn(&str) -> bool) -> String {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .unwrap_or_else(|| panic!("timed out waiting for {what}; saw {:?}", self.seen));
            match self.rx.recv_timeout(remaining) {
                Ok(line) => {
                    self.seen.push(line.clone());
                    if pred(&line) {
                        return line;
                    }
                }
                Err(_) => panic!("stdout closed waiting for {what}; saw {:?}", self.seen),
            }
        }
    }
}

fn wait_for_exit(child: &mut Child, timeout: Duration) -> i32 {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status.code().expect("exit code");
        }
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("supervisor did not exit within {timeout:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn worker_pid(line: &str) -> u32 {
    line.trim()
        .strip_prefix("supervisor: worker pid ")
        .and_then(|p| p.parse().ok())
        .unwrap_or_else(|| panic!("unexpected pid line: {line:?}"))
}

fn estimate_bits(reply: &str) -> u64 {
    let v = json::parse(reply).expect("reply parses");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
    v.get("estimate")
        .and_then(Json::as_f64)
        .expect("estimate field")
        .to_bits()
}

/// Reads one `counters` entry out of a `stats` reply.
fn stats_counter(reply: &str, name: &str) -> u64 {
    let v = json::parse(reply).expect("stats parses");
    v.get("stats")
        .and_then(|s| s.get("metrics"))
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Connects a plain client, retrying while the worker is between
/// incarnations.
fn connect_patiently(sock: &Path) -> Client {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match Client::connect_unix(sock) {
            Ok(c) => return c,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("could not connect to {}: {e}", sock.display()),
        }
    }
}

#[test]
fn supervised_daemon_survives_sigkill_and_quarantines_poison() {
    let dir = std::env::temp_dir().join("neursc_supervise_smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let data = erdos_renyi(100, 300, 3, 7);
    let data_path = dir.join("data.graph");
    save_graph(&data, &data_path).unwrap();
    let model_path = dir.join("model.txt");
    save_model(&NeurSc::new(NeurScConfig::small(), 42), &model_path).unwrap();
    let sock = dir.join("daemon.sock");
    let journal = dir.join("admission.journal");

    // The poison query: its content digest is handed to --chaos-abort, so
    // serving it aborts the worker in *every* incarnation — exactly the
    // crash-loop shape the quarantine exists for.
    let q = erdos_renyi(4, 4, 3, 11);
    let poison = erdos_renyi(5, 6, 3, 13);
    let poison_digest = digest_queries(&[poison.content_fingerprint()]);

    let mut child = Command::new(env!("CARGO_BIN_EXE_neursc_cli"))
        .arg("serve")
        .arg("--supervise")
        .arg("--model")
        .arg(&model_path)
        .arg("--data")
        .arg(&data_path)
        .arg("--unix")
        .arg(&sock)
        .arg("--journal")
        .arg(&journal)
        .args(["--backoff-base-ms", "10"])
        .args(["--backoff-cap-ms", "50"])
        .args(["--stable-after-ms", "60000"])
        .args(["--max-restarts", "10"])
        .args(["--chaos-abort", &format!("{poison_digest:016x}")])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn supervised daemon");
    let mut lines = StdoutLines::spawn(&mut child);

    let pid_line = lines.wait_for("first worker pid", |l| {
        l.starts_with("supervisor: worker pid ")
    });
    let pid1 = worker_pid(&pid_line);
    lines.wait_for("first listen banner", |l| l.starts_with("listening on "));

    // --- Warm up, then SIGKILL the worker mid-traffic. ------------------
    let policy = RetryPolicy {
        max_attempts: 12,
        backoff_base: Duration::from_millis(20),
        backoff_cap: Duration::from_millis(200),
        jitter_seed: 7,
    };
    let mut rc = RetryClient::unix(&sock, policy);
    let before = estimate_bits(&rc.estimate(1, &q, None, None).unwrap());

    let killed = Command::new("kill")
        .args(["-9", &pid1.to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success(), "kill -9 {pid1}");

    // The supervisor restarts the worker; the retrying client rides out
    // the gap and the answer is bit-identical — the new worker rebuilds
    // its caches from the same graph, and the estimator is deterministic.
    let after = estimate_bits(&rc.estimate(3, &q, None, None).unwrap());
    assert_eq!(after, before, "estimate changed across SIGKILL + restart");
    let pid_line = lines.wait_for("second worker pid", |l| {
        l.starts_with("supervisor: worker pid ") && worker_pid(l) != pid1
    });
    assert_ne!(worker_pid(&pid_line), pid1);

    let mut admin = connect_patiently(&sock);
    let stats = admin.request(&client::stats_request(4)).unwrap();
    assert_eq!(
        stats_counter(&stats, "serve.restarts"),
        1,
        "restart count after the kill: {stats}"
    );
    drop(admin);

    // --- Crash-loop quarantine: the poison aborts two consecutive -------
    // workers, the third incarnation rejects it with a typed error.
    let reply = rc.estimate(5, &poison, None, None).unwrap();
    let v = json::parse(&reply).expect("poison reply parses");
    assert_eq!(
        v.get("kind").and_then(Json::as_str),
        Some("crash_suspect"),
        "poison query must end quarantined, got: {reply}"
    );
    lines.wait_for("quarantine notice", |l| {
        l.starts_with("supervisor: quarantined digest")
    });

    // Bystanders keep serving, still bit-identical.
    let again = estimate_bits(&rc.estimate(6, &q, None, None).unwrap());
    assert_eq!(again, before, "bystander result drifted after quarantine");

    // The quarantined digest stays rejected without crashing anything.
    let reply = rc.estimate(7, &poison, None, None).unwrap();
    assert!(reply.contains("crash_suspect"), "{reply}");

    let mut admin = connect_patiently(&sock);
    let stats = admin.request(&client::stats_request(8)).unwrap();
    assert!(
        stats_counter(&stats, "serve.restarts") >= 3,
        "kill + two aborts: {stats}"
    );
    assert!(
        stats_counter(&stats, "journal.quarantined") >= 1,
        "quarantined admissions counted: {stats}"
    );

    // --- Clean drain ends supervision with exit 0. ----------------------
    let bye = admin.request(&client::shutdown_request(9)).unwrap();
    assert!(bye.contains("\"draining\":true"), "{bye}");
    lines.wait_for("clean-drain notice", |l| {
        l.contains("worker drained cleanly")
    });
    let code = wait_for_exit(&mut child, Duration::from_secs(30));
    assert_eq!(code, 0, "supervisor exit code");

    std::fs::remove_dir_all(&dir).ok();
}
