//! Worker supervision: restart-on-crash with exponential backoff and
//! crash-loop quarantine.
//!
//! `neursc_cli serve --supervise` does not serve traffic itself — it
//! respawns the current executable as a **worker** child (same args minus
//! `--supervise`) and watches it. The split keeps the failure domains
//! honest: the worker holds all the mutable state and takes all the risk
//! (panics under `panic = "abort"`, OOM kills, operator `kill -9`); the
//! supervisor holds nothing but the restart policy and the
//! [`crate::journal::CrashTracker`], so it survives anything short of the
//! machine going down.
//!
//! Restart policy:
//!
//! * A **clean exit** (status 0 — graceful drain via the `shutdown` verb)
//!   ends supervision with exit 0.
//! * A **typed CLI error** (exit codes 1–7: bad flags, unreadable model …)
//!   is propagated without restarting — respawning cannot fix a config
//!   problem, and looping on one would mask it.
//! * Anything else — signals, aborts, panic exits — is a **crash**: the
//!   supervisor reads the admission journal for in-flight digests, feeds
//!   them to the crash tracker (≥2 consecutive implications ⇒ quarantine),
//!   sleeps an exponential backoff (doubling from `backoff_base` up to
//!   `backoff_cap`, reset after `stable_after` of uptime), and respawns
//!   with `--restart-count N` and the accumulated `--quarantine` list.
//! * More than `max_restarts` consecutive crashes without a stable run
//!   means restarts are not helping; the supervisor gives up with the
//!   worker's last status.

use crate::journal::{read_in_flight, CrashTracker};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Restart policy knobs. Defaults suit production; tests shrink the
/// timings via the hidden `--backoff-base-ms` CLI flag.
#[derive(Debug, Clone)]
pub struct SuperviseConfig {
    /// Admission journal the worker writes and the supervisor reads after
    /// each crash.
    pub journal: PathBuf,
    /// Give up after this many consecutive crashes without a stable run.
    pub max_restarts: u32,
    /// First backoff delay; doubles per consecutive crash.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// A worker that stays up this long resets the crash streak and the
    /// backoff.
    pub stable_after: Duration,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            journal: PathBuf::from("neursc.journal"),
            max_restarts: 5,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            stable_after: Duration::from_secs(10),
        }
    }
}

/// Backoff before restart number `attempt` (1-based): `base · 2^(attempt-1)`,
/// capped.
fn backoff_for(cfg: &SuperviseConfig, attempt: u32) -> Duration {
    let factor = 1u32
        .checked_shl(attempt.saturating_sub(1))
        .unwrap_or(u32::MAX);
    cfg.backoff_base
        .checked_mul(factor)
        .map_or(cfg.backoff_cap, |d| d.min(cfg.backoff_cap))
}

/// Exit codes 1–7 are the CLI's typed error vocabulary; a worker dying
/// with one of them made a deliberate decision that a restart cannot
/// change.
fn is_typed_cli_error(code: i32) -> bool {
    (1..=7).contains(&code)
}

/// Runs the supervision loop: spawn the current executable with
/// `worker_args`, restart per the policy above, return the exit code the
/// supervisor process should end with. Worker stdio is inherited, so the
/// worker's `listening on …` banner still reaches whoever started us.
pub fn supervise(worker_args: &[String], cfg: &SuperviseConfig) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("supervisor: cannot locate own executable: {e}");
            return 1;
        }
    };
    let mut tracker = CrashTracker::new();
    let mut restart_count: u64 = 0; // total restarts, exported by the worker
    let mut streak: u32 = 0; // consecutive crashes without a stable run
    loop {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(worker_args);
        cmd.arg("--restart-count").arg(restart_count.to_string());
        if !tracker.quarantined().is_empty() {
            let list: Vec<String> = tracker
                .quarantined()
                .iter()
                .map(|d| format!("{d:016x}"))
                .collect();
            cmd.arg("--quarantine").arg(list.join(","));
        }
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("supervisor: spawn failed: {e}");
                return 1;
            }
        };
        println!("supervisor: worker pid {}", child.id());
        let started = Instant::now();
        let status = match child.wait() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("supervisor: wait failed: {e}");
                return 1;
            }
        };
        let uptime = started.elapsed();

        if status.success() {
            println!("supervisor: worker drained cleanly, exiting");
            return 0;
        }
        if let Some(code) = status.code() {
            if is_typed_cli_error(code) {
                eprintln!("supervisor: worker exited with typed error {code}, not restarting");
                return code;
            }
        }

        // A crash. Who was in flight?
        let in_flight = read_in_flight(&cfg.journal);
        for d in tracker.record_crash(&in_flight) {
            println!("supervisor: quarantined digest {d:016x} (≥2 consecutive crashes)");
        }
        if uptime >= cfg.stable_after {
            streak = 0;
        }
        streak += 1;
        if streak > cfg.max_restarts {
            eprintln!(
                "supervisor: {streak} consecutive crashes (limit {}), giving up: {status}",
                cfg.max_restarts
            );
            return status.code().unwrap_or(1);
        }
        restart_count += 1;
        let delay = backoff_for(cfg, streak);
        eprintln!(
            "supervisor: worker died ({status}) after {:.1}s, {} in flight, restart {restart_count} in {} ms",
            uptime.as_secs_f64(),
            in_flight.len(),
            delay.as_millis()
        );
        std::thread::sleep(delay);
    }
}

/// Parses a `--quarantine` list (comma-separated 16-hex-digit digests)
/// handed to a worker by its supervisor. Unparsable items are an error:
/// silently dropping one would re-admit a poison request.
pub fn parse_quarantine(list: &str) -> Result<Vec<u64>, String> {
    list.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| u64::from_str_radix(s, 16).map_err(|_| format!("bad quarantine digest: {s:?}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = SuperviseConfig {
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(1),
            ..SuperviseConfig::default()
        };
        assert_eq!(backoff_for(&cfg, 1), Duration::from_millis(100));
        assert_eq!(backoff_for(&cfg, 2), Duration::from_millis(200));
        assert_eq!(backoff_for(&cfg, 4), Duration::from_millis(800));
        assert_eq!(backoff_for(&cfg, 5), Duration::from_secs(1));
        assert_eq!(backoff_for(&cfg, 40), Duration::from_secs(1), "no overflow");
    }

    #[test]
    fn quarantine_list_roundtrips() {
        let parsed = parse_quarantine("00000000000000aa,00000000000000bb").expect("parse");
        assert_eq!(parsed, vec![0xaa, 0xbb]);
        assert!(parse_quarantine("").expect("empty ok").is_empty());
        assert!(parse_quarantine("xyz").is_err());
    }

    #[test]
    fn typed_cli_errors_are_not_restartable() {
        assert!(is_typed_cli_error(2));
        assert!(is_typed_cli_error(7));
        assert!(!is_typed_cli_error(0));
        assert!(!is_typed_cli_error(101)); // rust panic exit
        assert!(!is_typed_cli_error(137)); // 128 + SIGKILL
    }
}
