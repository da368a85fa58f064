//! Smoke test of `neursc_cli serve`: spawns the real binary as a daemon
//! on loopback, runs a mixed script (valid estimates, chaos-poisoned
//! requests, an over-cap query, a malformed frame, `stats`), asserts the
//! per-request outcomes, and verifies a clean drain (exit code 0).

use neursc::core::persist::save_model;
use neursc::core::{NeurSc, NeurScConfig};
use neursc::graph::generate::erdos_renyi;
use neursc::graph::io::save_graph;
use neursc::graph::Graph;
use neursc::serve::client::{self, Client};
use neursc::serve::json::{self, Json};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Waits for the child to exit cleanly, killing it on timeout.
fn wait_for_exit(child: &mut Child, timeout: Duration) -> i32 {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status.code().expect("exit code");
        }
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("daemon did not drain within {timeout:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn expect_kind(reply: &str, kind: &str) {
    let v = json::parse(reply).expect("reply parses");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{reply}");
    assert_eq!(v.get("kind").and_then(Json::as_str), Some(kind), "{reply}");
}

fn expect_ok(reply: &str) -> f64 {
    let v = json::parse(reply).expect("reply parses");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
    v.get("estimate").and_then(Json::as_f64).expect("estimate")
}

#[test]
fn serve_daemon_smoke() {
    let dir = std::env::temp_dir().join("neursc_serve_smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Fixtures on disk, written through the library (same format the CLI
    // loads back).
    let data_path = dir.join("data.graph");
    save_graph(&erdos_renyi(100, 300, 3, 7), &data_path).unwrap();
    let model_path = dir.join("model.txt");
    save_model(&NeurSc::new(NeurScConfig::small(), 42), &model_path).unwrap();

    // Chaos seqs count admitted estimates only: seq 1 panics, seq 2 is
    // starved. The over-cap query and the malformed frame are rejected
    // before admission and consume no seq.
    let mut child = Command::new(env!("CARGO_BIN_EXE_neursc_cli"))
        .arg("serve")
        .arg("--model")
        .arg(&model_path)
        .arg("--data")
        .arg(&data_path)
        .args(["--listen", "127.0.0.1:0"])
        .args(["--max-query-vertices", "16"])
        .args(["--chaos-panic", "1"])
        .args(["--chaos-starve", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn neursc_cli serve");

    let stdout = child.stdout.take().expect("piped stdout");
    let mut first_line = String::new();
    BufReader::new(stdout)
        .read_line(&mut first_line)
        .expect("read listen line");
    let addr = first_line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {first_line:?}"))
        .to_string();

    let q = erdos_renyi(4, 4, 3, 11);
    let labels = vec![0u32; 20];
    let edges: Vec<(u32, u32)> = (0..19).map(|i| (i, i + 1)).collect();
    let oversized = Graph::from_edges(20, &labels, &edges).unwrap();

    let mut c = Client::connect_tcp(&addr).expect("connect");

    // seq 0: a clean estimate.
    let est = expect_ok(&c.request(&client::estimate_request(0, &q)).unwrap());
    assert!(est.is_finite() && est >= 0.0);
    // seq 1: the chaos-panicked slot — typed error, daemon survives.
    expect_kind(
        &c.request(&client::estimate_request(1, &q)).unwrap(),
        "panicked",
    );
    // seq 2: the starved slot degrades to a budget error.
    expect_kind(
        &c.request(&client::estimate_request(2, &q)).unwrap(),
        "budget",
    );
    // Over the admission cap: rejected without consuming a seq.
    expect_kind(
        &c.request(&client::estimate_request(3, &oversized)).unwrap(),
        "budget",
    );
    // A malformed frame gets a typed error and the connection survives.
    let bad = c.request("{not json").unwrap();
    let v = json::parse(&bad).expect("error frame parses");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
    assert!(v.get("kind").and_then(Json::as_str).is_some(), "{bad}");
    // seq 3: still serving after all of the above.
    expect_ok(&c.request(&client::estimate_request(5, &q)).unwrap());

    // stats reflects the four admitted requests.
    let stats = c.request(&client::stats_request(6)).unwrap();
    let v = json::parse(&stats).expect("stats parses");
    let s = v.get("stats").expect("stats object");
    assert_eq!(s.get("served").and_then(Json::as_u64), Some(4), "{stats}");
    assert!(s.get("model_checksum").and_then(Json::as_str).is_some());

    // Graceful drain: shutdown verb, then the process exits 0.
    let bye = c.request(&client::shutdown_request(7)).unwrap();
    assert!(bye.contains("\"draining\":true"), "{bye}");
    let code = wait_for_exit(&mut child, Duration::from_secs(30));
    assert_eq!(code, 0, "daemon exit code");

    std::fs::remove_dir_all(&dir).ok();
}

/// `--unix` transport end to end through the real binary.
#[cfg(unix)]
#[test]
fn serve_daemon_unix_socket() {
    let dir = std::env::temp_dir().join("neursc_serve_smoke_unix");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let data_path = dir.join("data.graph");
    save_graph(&erdos_renyi(60, 150, 3, 5), &data_path).unwrap();
    let model_path = dir.join("model.txt");
    save_model(&NeurSc::new(NeurScConfig::small(), 42), &model_path).unwrap();
    let sock = dir.join("daemon.sock");

    let mut child = Command::new(env!("CARGO_BIN_EXE_neursc_cli"))
        .arg("serve")
        .arg("--model")
        .arg(&model_path)
        .arg("--data")
        .arg(&data_path)
        .arg("--unix")
        .arg(&sock)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn neursc_cli serve --unix");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut banner = String::new();
    BufReader::new(stdout).read_line(&mut banner).unwrap();
    assert!(banner.contains("listening on "), "{banner:?}");

    let q = erdos_renyi(3, 3, 3, 9);
    let mut c = Client::connect_unix(Path::new(&sock)).expect("connect unix");
    expect_ok(&c.request(&client::estimate_request(1, &q)).unwrap());
    c.send_line(&client::shutdown_request(2)).unwrap();
    let _ = c.recv_line().unwrap();
    let code = wait_for_exit(&mut child, Duration::from_secs(30));
    assert_eq!(code, 0, "daemon exit code");
    assert!(!sock.exists(), "socket file removed on drain");

    std::fs::remove_dir_all(&dir).ok();
}
