//! Append-only admission journal + crash-loop quarantine policy.
//!
//! The daemon's worker process records every estimate request it admits
//! (`+ seq digest`, fsync'd **before** the request is enqueued) and every
//! request it finished replying to (`- seq`, buffered — losing a `-` line
//! can only make the supervisor over-suspect, never under-suspect). When
//! the worker dies, the supervisor replays the journal: requests with an
//! admission line but no completion line were **in flight at death** and
//! are the prime suspects for having killed the process.
//!
//! One implication proves nothing — the victim of an OOM kill is rarely
//! the culprit. So the [`CrashTracker`] quarantines a digest only after it
//! is implicated in **two or more consecutive crashes**; a digest absent
//! from a crash's in-flight set has its streak reset. Quarantined digests
//! are handed to the next worker, which rejects matching requests with a
//! typed `crash_suspect` error at admission — one poison query cannot
//! crash-loop the fleet, and an unlucky bystander is released as soon as
//! a crash happens without it.
//!
//! The digest is a content digest ([`digest_queries`] — FNV-1a over the
//! query graphs' content fingerprints), *not* the admission seqno: seqnos
//! reset when the worker restarts, but the same poison query resubmitted
//! by a retrying client hashes to the same digest in every incarnation.

use neursc_graph::hash::Fnv64;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

/// Format tag on the journal's first line. v2 switched [`digest_queries`]
/// to order-invariant folding; [`read_in_flight`] ignores journals
/// without the current tag so stale digests computed under an older
/// scheme are dropped rather than mismatched against fresh ones.
pub const JOURNAL_HEADER: &str = "neursc-journal v2";

/// Content digest of an admitted request: FNV-1a-64 over the query
/// graphs' content fingerprints, mixed with the verb arity so a
/// singleton `estimate` and a 1-element `estimate_batch` of the same
/// query still collide (they run identical work — that is the point).
///
/// Fingerprints are folded in **sorted** order, so a semantically
/// identical batch submitted with its queries reordered hashes to the
/// same digest — a reordering retry client cannot evade the crash-loop
/// quarantine.
pub fn digest_queries(fingerprints: &[u64]) -> u64 {
    let mut sorted = fingerprints.to_vec();
    sorted.sort_unstable();
    let mut h = Fnv64::new();
    for fp in sorted {
        h.update(&fp.to_le_bytes());
    }
    h.finish()
}

/// The worker-side journal writer. All methods take `&self`; the file
/// handle is internally locked so the per-connection reader threads and
/// the batcher can log without coordination.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<std::fs::File>,
}

impl Journal {
    /// Creates (truncating) the journal at `path` and stamps the format
    /// header. The worker truncates at startup — by then the supervisor
    /// has already read the previous incarnation's entries, and stale
    /// lines must not implicate anyone in the next crash.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let mut file = std::fs::File::create(path)?;
        writeln!(file, "{JOURNAL_HEADER}")?;
        Ok(Journal {
            file: Mutex::new(file),
        })
    }

    /// Records the admission of one request — a line per slot, seqnos
    /// `seqs`, all under the request's `digest` — durably: one fsync
    /// covers them and happens before this returns, so a request can never
    /// be running without being on disk. (The fsync costs ~a syscall +
    /// device flush per admitted request; see KNOWN_ISSUES for the
    /// throughput caveat and why `estimate` verbs only — not
    /// `stats`/`reload` — pay it.)
    pub fn admit(&self, seqs: std::ops::Range<u64>, digest: u64) -> std::io::Result<()> {
        let mut f = match self.file.lock() {
            Ok(f) => f,
            Err(p) => p.into_inner(),
        };
        for seq in seqs {
            writeln!(f, "+ {seq} {digest:016x}")?;
        }
        f.sync_data()
    }

    /// Records a completion. Deliberately *not* fsync'd: the reply has
    /// already been written to the socket, and a lost `-` line merely
    /// makes the supervisor consider one extra digest per crash.
    pub fn complete(&self, seq: u64) -> std::io::Result<()> {
        let mut f = match self.file.lock() {
            Ok(f) => f,
            Err(p) => p.into_inner(),
        };
        writeln!(f, "- {seq}")
    }
}

/// Parses a journal left by a dead worker and returns the digests of
/// requests that were admitted but never completed — in flight at death.
/// A torn final line (the crash can interrupt a buffered write) is
/// ignored; every fully-written line is well-formed by construction.
///
/// Journals whose first line is not the current [`JOURNAL_HEADER`] are
/// treated as empty: their digests were computed under an older scheme
/// and would never match freshly computed ones — silently ignoring them
/// beats quarantining digests that can no longer occur.
pub fn read_in_flight(path: &Path) -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    if text.lines().next() != Some(JOURNAL_HEADER) {
        return Vec::new();
    }
    let mut in_flight: HashMap<u64, u64> = HashMap::new(); // seq → digest
    for line in text.lines() {
        let mut parts = line.split_ascii_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            // The digest must be its full 16-hex-digit width: a torn write
            // can truncate it to a shorter string that would still parse
            // as hex, silently implicating the wrong digest.
            (Some("+"), Some(seq), Some(digest)) if digest.len() == 16 => {
                if let (Ok(seq), Ok(digest)) = (seq.parse(), u64::from_str_radix(digest, 16)) {
                    in_flight.insert(seq, digest);
                }
            }
            (Some("-"), Some(seq), None) => {
                if let Ok(seq) = seq.parse::<u64>() {
                    in_flight.remove(&seq);
                }
            }
            _ => {} // torn or foreign line — skip
        }
    }
    let mut digests: Vec<u64> = in_flight.into_values().collect();
    digests.sort_unstable();
    digests.dedup();
    digests
}

/// Supervisor-side crash-loop bookkeeping: which digests have been in
/// flight for how many *consecutive* crashes.
#[derive(Debug, Default)]
pub struct CrashTracker {
    streaks: HashMap<u64, u32>,
    quarantined: Vec<u64>,
}

/// A digest is quarantined once it is implicated in this many
/// consecutive crashes.
pub const QUARANTINE_THRESHOLD: u32 = 2;

impl CrashTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one crash with the given in-flight digests. Returns the
    /// digests *newly* quarantined by this crash.
    pub fn record_crash(&mut self, in_flight: &[u64]) -> Vec<u64> {
        // Absent digests lose their streak: implication must be consecutive.
        self.streaks.retain(|d, _| in_flight.contains(d));
        let mut newly = Vec::new();
        for &d in in_flight {
            let streak = self.streaks.entry(d).or_insert(0);
            *streak += 1;
            if *streak == QUARANTINE_THRESHOLD && !self.quarantined.contains(&d) {
                self.quarantined.push(d);
                newly.push(d);
            }
        }
        newly
    }

    /// Every digest quarantined so far (insertion order).
    pub fn quarantined(&self) -> &[u64] {
        &self.quarantined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("neursc_journal_{name}_{}", std::process::id()))
    }

    #[test]
    fn in_flight_is_admitted_minus_completed() {
        let path = temp_path("basic");
        let j = Journal::create(&path).expect("create");
        j.admit(1..2, 0xaaaa).expect("admit");
        j.admit(2..4, 0xbbbb).expect("admit a two-slot request");
        j.admit(4..5, 0xcccc).expect("admit");
        j.complete(2).expect("complete");
        j.complete(3).expect("complete");
        assert_eq!(read_in_flight(&path), vec![0xaaaa, 0xcccc]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_trailing_line_is_ignored() {
        let path = temp_path("torn");
        std::fs::write(
            &path,
            format!("{JOURNAL_HEADER}\n+ 1 00000000000000aa\n- 1\n+ 2 00000000000000bb\n+ 3 00000"),
        )
        .ok();
        assert_eq!(read_in_flight(&path), vec![0xbb]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_format_journal_is_ignored() {
        // A pre-v2 journal has no header line; its digests were computed
        // order-sensitively and must not be carried into quarantine.
        let path = temp_path("stale");
        std::fs::write(&path, "+ 1 00000000000000aa\n+ 2 00000000000000bb\n").ok();
        assert!(read_in_flight(&path).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_means_nothing_in_flight() {
        assert!(read_in_flight(Path::new("/no/such/journal")).is_empty());
    }

    #[test]
    fn quarantine_needs_consecutive_implication() {
        let mut t = CrashTracker::new();
        // Crash 1: A and B in flight — nobody quarantined yet.
        assert!(t.record_crash(&[10, 20]).is_empty());
        // Crash 2: only A in flight — A hits the threshold, B's streak resets.
        assert_eq!(t.record_crash(&[10]), vec![10]);
        // Crash 3: B again — its streak restarted at 1, so still free.
        assert!(t.record_crash(&[20]).is_empty());
        // Crash 4: B a second consecutive time — now quarantined too.
        assert_eq!(t.record_crash(&[20]), vec![20]);
        assert_eq!(t.quarantined(), &[10, 20]);
        // A digest is only reported as "newly quarantined" once.
        assert!(t.record_crash(&[10, 20]).is_empty());
    }

    #[test]
    fn same_queries_digest_identically_across_incarnations() {
        let a = digest_queries(&[1, 2, 3]);
        assert_eq!(a, digest_queries(&[1, 2, 3]));
        assert_eq!(a, digest_queries(&[3, 2, 1]), "order-invariant");
        assert_eq!(a, digest_queries(&[2, 3, 1]), "order-invariant");
        assert_ne!(a, digest_queries(&[1, 2]));
        assert_ne!(a, digest_queries(&[1, 2, 4]));
        // Multiplicity still matters: a duplicated query is different work.
        assert_ne!(a, digest_queries(&[1, 2, 3, 3]));
    }

    #[test]
    fn reordered_crash_batches_hit_the_same_quarantine_digest() {
        // A poison batch crashes the worker; the retry client resubmits it
        // with the queries shuffled. Both incarnations must implicate the
        // same digest so the second crash trips the quarantine threshold.
        let batch = [0xdead_u64, 0xbeef, 0xf00d];
        let shuffled = [0xf00d_u64, 0xdead, 0xbeef];
        let d1 = digest_queries(&batch);
        let d2 = digest_queries(&shuffled);
        assert_eq!(d1, d2, "reordered batch evaded the digest");
        let mut t = CrashTracker::new();
        assert!(t.record_crash(&[d1]).is_empty());
        assert_eq!(t.record_crash(&[d2]), vec![d1], "second crash quarantines");
    }
}
