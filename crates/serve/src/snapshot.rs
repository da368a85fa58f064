//! Durable warm-state snapshots (DESIGN.md §12).
//!
//! A snapshot captures the expensive part of a resident daemon's state —
//! the warm [`ProfileCache`] and [`FeatureCache`] contents — together
//! with the identity of the world they belong to (data-graph content
//! fingerprint, model checksum), so a restarted daemon can skip the
//! `all_profiles(G, r)` rebuild that dominates cold start. The model and
//! the graph themselves are deliberately **not** in the snapshot: both
//! already live in durable, checksummed files the daemon loads at boot,
//! and duplicating them here would only add ways for the copies to
//! disagree.
//!
//! ## Format
//!
//! Little-endian binary, one file:
//!
//! ```text
//! magic    8 B   "NSCSNAP\n"
//! version  4 B   u32 (currently 1)
//! checksum 8 B   FNV-1a-64 of every byte after this field
//! body:
//!   graph_fingerprint u64 · model_checksum u64 · created_unix_ms u64
//!   profile section: capacity u64 (0 = unbounded) · evicted u64 ·
//!     n u32 · n × (fingerprint u64 · radius u32 · n_vertices u32 ·
//!                  per vertex: len u32 · len × label u32)
//!   feature section: capacity u64 · evicted u64 ·
//!     n u32 · n × (fingerprint u64 · degree_bits u32 · label_bits u32 ·
//!                  k_hops u32 · rows u32 · cols u32 · rows·cols × f32)
//! ```
//!
//! The checksum sits in the header so truncation — the typical corruption
//! of an interrupted write — changes the covered bytes and fails
//! verification (same argument as the model-file format). Writes go
//! through [`neursc_graph::io::write_atomic`] (temp file + fsync + atomic
//! rename), so a crash mid-write leaves the previous snapshot intact,
//! never a half-written one.
//!
//! ## Failure semantics
//!
//! Restore never guesses: any mismatch (bad magic, unknown version,
//! checksum failure, wrong graph fingerprint, wrong model checksum)
//! yields a typed [`SnapshotError`], and the daemon falls back to a cold
//! rebuild — slower, never wrong. [`SnapshotError::outcome`] maps each
//! reason onto the `snapshot.restore_outcome.*` counter it is recorded
//! under.

use crate::server::{lock, Shared};
use neursc_core::{GraphContext, Recorder};
use neursc_gnn::{FeatureCache, FeatureConfig};
use neursc_graph::hash::fnv1a64;
use neursc_match::profile::Profile;
use neursc_match::ProfileCache;
use neursc_nn::Tensor;
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// File magic: identifies a NeurSC snapshot regardless of extension.
const MAGIC: &[u8; 8] = b"NSCSNAP\n";
/// Current format version; bumped on any layout change.
const VERSION: u32 = 1;

/// Why a snapshot could not be restored. Every variant degrades the
/// daemon to a cold rebuild — a bad snapshot can cost time, never
/// correctness.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read (missing, permissions, short read).
    Io(std::io::Error),
    /// Bad magic or a format version this build does not understand.
    Version {
        /// Human-readable explanation.
        detail: String,
    },
    /// Checksum mismatch or structurally malformed body.
    Corrupt {
        /// Human-readable explanation.
        detail: String,
    },
    /// The snapshot was taken against a different data graph.
    GraphMismatch {
        /// Fingerprint of the graph the daemon is serving.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// The snapshot was taken under a different model.
    ModelMismatch {
        /// Checksum of the model the daemon loaded.
        expected: u64,
        /// Checksum recorded in the snapshot.
        found: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O: {e}"),
            SnapshotError::Version { detail } => write!(f, "snapshot version: {detail}"),
            SnapshotError::Corrupt { detail } => write!(f, "snapshot corrupt: {detail}"),
            SnapshotError::GraphMismatch { expected, found } => write!(
                f,
                "snapshot graph mismatch: serving {expected:016x}, snapshot has {found:016x}"
            ),
            SnapshotError::ModelMismatch { expected, found } => write!(
                f,
                "snapshot model mismatch: loaded {expected:016x}, snapshot has {found:016x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl SnapshotError {
    /// The `snapshot.restore_outcome.*` counter suffix this failure is
    /// recorded under: `cold_missing` (no snapshot file), `cold_corrupt`
    /// (unreadable/damaged/unknown format) or `cold_mismatch` (valid
    /// snapshot for a different graph or model).
    pub fn outcome(&self) -> &'static str {
        match self {
            SnapshotError::Io(e) if e.kind() == std::io::ErrorKind::NotFound => "cold_missing",
            SnapshotError::Io(_)
            | SnapshotError::Version { .. }
            | SnapshotError::Corrupt { .. } => "cold_corrupt",
            SnapshotError::GraphMismatch { .. } | SnapshotError::ModelMismatch { .. } => {
                "cold_mismatch"
            }
        }
    }
}

/// A decoded snapshot: verified structure, not yet matched against a
/// live daemon's graph/model (that is [`Snapshot::verify`]).
#[derive(Debug)]
pub struct Snapshot {
    /// Content fingerprint of the data graph the caches were warmed on.
    pub graph_fingerprint: u64,
    /// Checksum of the model that was serving when the snapshot was taken.
    pub model_checksum: u64,
    /// Wall-clock creation time, milliseconds since the Unix epoch.
    pub created_unix_ms: u64,
    /// Profile-cache capacity bound at snapshot time (`None` = unbounded).
    pub profile_capacity: Option<usize>,
    /// Lifetime profile-cache evictions at snapshot time.
    pub profile_evicted: u64,
    /// Profile-cache entries, least recently used first.
    pub profile_entries: Vec<(u64, u32, Arc<Vec<Profile>>)>,
    /// Feature-cache capacity bound at snapshot time (`None` = unbounded).
    pub feature_capacity: Option<usize>,
    /// Lifetime feature-cache evictions at snapshot time.
    pub feature_evicted: u64,
    /// Feature-cache entries, least recently used first.
    pub feature_entries: Vec<(u64, FeatureConfig, Arc<Tensor>)>,
}

impl Snapshot {
    /// Checks the snapshot against the world the daemon actually loaded.
    /// A mismatch is a typed error, never a silent partial restore: stale
    /// profiles for a different graph would corrupt results.
    pub fn verify(&self, graph_fingerprint: u64, model_checksum: u64) -> Result<(), SnapshotError> {
        if self.graph_fingerprint != graph_fingerprint {
            return Err(SnapshotError::GraphMismatch {
                expected: graph_fingerprint,
                found: self.graph_fingerprint,
            });
        }
        if self.model_checksum != model_checksum {
            return Err(SnapshotError::ModelMismatch {
                expected: model_checksum,
                found: self.model_checksum,
            });
        }
        Ok(())
    }

    /// Imports every entry into the given caches (LRU order is preserved;
    /// a capacity bound on the target evicts as usual) and restores the
    /// lifetime eviction counters so metric series continue across the
    /// restart.
    pub fn install(&self, profiles: &ProfileCache, features: &FeatureCache) {
        for (fp, radius, p) in &self.profile_entries {
            profiles.import(*fp, *radius, Arc::clone(p));
        }
        profiles.restore_evicted_total(self.profile_evicted);
        for (fp, cfg, t) in &self.feature_entries {
            features.import(*fp, *cfg, Arc::clone(t));
        }
        features.restore_evicted_total(self.feature_evicted);
    }

    /// Snapshot age relative to `now_unix_ms` (saturating at 0 if clocks
    /// went backwards across the restart).
    pub fn age_ms(&self, now_unix_ms: u64) -> u64 {
        now_unix_ms.saturating_sub(self.created_unix_ms)
    }
}

/// Milliseconds since the Unix epoch (0 if the clock predates it).
pub fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------- encode

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serializes the warm state of the given caches. Pure function of its
/// inputs: two daemons with identical caches produce identical bytes
/// (modulo `created_unix_ms`).
pub fn encode(
    profiles: &ProfileCache,
    features: &FeatureCache,
    graph_fingerprint: u64,
    model_checksum: u64,
    created_unix_ms: u64,
) -> Vec<u8> {
    let mut body = Vec::new();
    put_u64(&mut body, graph_fingerprint);
    put_u64(&mut body, model_checksum);
    put_u64(&mut body, created_unix_ms);

    put_u64(&mut body, profiles.capacity().unwrap_or(0) as u64);
    put_u64(&mut body, profiles.evicted_total());
    let entries = profiles.export_entries();
    put_u32(&mut body, entries.len() as u32);
    for (fingerprint, radius, per_vertex) in &entries {
        put_u64(&mut body, *fingerprint);
        put_u32(&mut body, *radius);
        put_u32(&mut body, per_vertex.len() as u32);
        for p in per_vertex.iter() {
            put_u32(&mut body, p.len() as u32);
            for &label in p {
                put_u32(&mut body, label);
            }
        }
    }

    put_u64(&mut body, features.capacity().unwrap_or(0) as u64);
    put_u64(&mut body, features.evicted_total());
    let entries = features.export_entries();
    put_u32(&mut body, entries.len() as u32);
    for (fingerprint, config, features) in &entries {
        put_u64(&mut body, *fingerprint);
        put_u32(&mut body, config.degree_bits as u32);
        put_u32(&mut body, config.label_bits as u32);
        put_u32(&mut body, config.k_hops);
        put_u32(&mut body, features.rows() as u32);
        put_u32(&mut body, features.cols() as u32);
        for &v in features.data() {
            put_u32(&mut body, v.to_bits());
        }
    }

    let mut out = Vec::with_capacity(MAGIC.len() + 12 + body.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&fnv1a64(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

// ---------------------------------------------------------------- decode

/// Bounded little-endian reader over the snapshot body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(SnapshotError::Corrupt {
                detail: format!(
                    "truncated: needed {n} bytes at offset {}, body has {}",
                    self.pos,
                    self.bytes.len()
                ),
            });
        };
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// A length field bounded by the bytes that could plausibly back it:
    /// rejects absurd counts before any allocation, so a corrupt length
    /// cannot OOM the restore path.
    fn len(&mut self, per_item_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        let remaining = self.bytes.len() - self.pos;
        if n.saturating_mul(per_item_bytes.max(1)) > remaining {
            return Err(SnapshotError::Corrupt {
                detail: format!("length {n} exceeds remaining {remaining} bytes"),
            });
        }
        Ok(n)
    }
}

fn cap_of(raw: u64) -> Option<usize> {
    match raw {
        0 => None,
        c => Some(c as usize),
    }
}

/// Parses and checksum-verifies a snapshot from raw bytes.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    if bytes.len() < MAGIC.len() + 12 {
        return Err(SnapshotError::Corrupt {
            detail: format!("file too short ({} bytes) for the header", bytes.len()),
        });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::Version {
            detail: "bad magic — not a NeurSC snapshot".into(),
        });
    }
    let mut a4 = [0u8; 4];
    a4.copy_from_slice(&bytes[8..12]);
    let version = u32::from_le_bytes(a4);
    if version != VERSION {
        return Err(SnapshotError::Version {
            detail: format!("unsupported version {version} (this build reads {VERSION})"),
        });
    }
    let mut a8 = [0u8; 8];
    a8.copy_from_slice(&bytes[12..20]);
    let stored = u64::from_le_bytes(a8);
    let body = &bytes[20..];
    let actual = fnv1a64(body);
    if stored != actual {
        return Err(SnapshotError::Corrupt {
            detail: format!(
                "checksum mismatch: header says {stored:016x}, body hashes to {actual:016x} \
                 (truncated or bit-flipped?)"
            ),
        });
    }

    let mut c = Cursor {
        bytes: body,
        pos: 0,
    };
    let graph_fingerprint = c.u64()?;
    let model_checksum = c.u64()?;
    let created_unix_ms = c.u64()?;

    let profile_capacity = cap_of(c.u64()?);
    let profile_evicted = c.u64()?;
    let n = c.len(16)?;
    let mut profile_entries = Vec::with_capacity(n);
    for _ in 0..n {
        let fp = c.u64()?;
        let radius = c.u32()?;
        let n_vertices = c.len(4)?;
        let mut per_vertex = Vec::with_capacity(n_vertices);
        for _ in 0..n_vertices {
            let len = c.len(4)?;
            let mut labels = Vec::with_capacity(len);
            for _ in 0..len {
                labels.push(c.u32()?);
            }
            per_vertex.push(labels);
        }
        profile_entries.push((fp, radius, Arc::new(per_vertex)));
    }

    let feature_capacity = cap_of(c.u64()?);
    let feature_evicted = c.u64()?;
    let n = c.len(28)?;
    let mut feature_entries = Vec::with_capacity(n);
    for _ in 0..n {
        let fp = c.u64()?;
        let config = FeatureConfig {
            degree_bits: c.u32()? as usize,
            label_bits: c.u32()? as usize,
            k_hops: c.u32()?,
        };
        let rows = c.len(1)?;
        let cols = c.len(1)?;
        let cells = rows
            .checked_mul(cols)
            .ok_or_else(|| SnapshotError::Corrupt {
                detail: format!("tensor {rows}×{cols} overflows"),
            })?;
        if cells.saturating_mul(4) > c.bytes.len() - c.pos {
            return Err(SnapshotError::Corrupt {
                detail: format!("tensor {rows}×{cols} exceeds remaining bytes"),
            });
        }
        let mut data = Vec::with_capacity(cells);
        for _ in 0..cells {
            data.push(f32::from_bits(c.u32()?));
        }
        feature_entries.push((fp, config, Arc::new(Tensor::from_vec(rows, cols, data))));
    }
    if c.pos != body.len() {
        return Err(SnapshotError::Corrupt {
            detail: format!(
                "{} trailing bytes after the last section",
                body.len() - c.pos
            ),
        });
    }

    Ok(Snapshot {
        graph_fingerprint,
        model_checksum,
        created_unix_ms,
        profile_capacity,
        profile_evicted,
        profile_entries,
        feature_capacity,
        feature_evicted,
        feature_entries,
    })
}

// ------------------------------------------------------------------ file

/// Reads and decodes a snapshot file.
pub fn read_file(path: &Path) -> Result<Snapshot, SnapshotError> {
    let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
    decode(&bytes)
}

// ---------------------------------------------------------------- daemon

/// Attempts a warm restore at startup. Success imports every cached entry
/// and continues metric series; any failure is counted under its typed
/// `snapshot.restore_outcome.*` reason and the daemon starts cold — a bad
/// snapshot can cost time, never correctness.
pub(crate) fn restore(
    path: &Path,
    ctx: &GraphContext,
    graph_fp: u64,
    model_sum: u64,
    recorder: &Recorder,
) {
    let metrics = recorder.metrics();
    let restored = read_file(path).and_then(|snap| {
        snap.verify(graph_fp, model_sum)?;
        Ok(snap)
    });
    match restored {
        Ok(snap) => {
            snap.install(&ctx.profiles, &ctx.features);
            ctx.sync_eviction_baseline();
            metrics.counter_add("snapshot.restore_outcome.warm", 1);
            metrics.gauge_set("snapshot.age_ms", snap.age_ms(unix_ms_now()) as f64);
            eprintln!(
                "serve: warm restore from {} ({} profile entries, {} feature entries)",
                path.display(),
                snap.profile_entries.len(),
                snap.feature_entries.len(),
            );
        }
        Err(e) => {
            // The counter names must be `&'static str`; map the typed
            // outcome onto its static series.
            let counter = match e.outcome() {
                "cold_missing" => "snapshot.restore_outcome.cold_missing",
                "cold_corrupt" => "snapshot.restore_outcome.cold_corrupt",
                _ => "snapshot.restore_outcome.cold_mismatch",
            };
            metrics.counter_add(counter, 1);
            eprintln!("serve: cold start, snapshot not restored: {e}");
        }
    }
}

/// Encodes and durably writes the daemon's current warm state (the
/// `snapshot` verb, the timer and the end of a drain all come through
/// here). Returns the encoded size in bytes; a failure is counted under
/// `serve.snapshot.write_error`.
pub(crate) fn write_now(shared: &Shared) -> std::io::Result<usize> {
    let metrics = shared.recorder.metrics();
    let written = (|| {
        let Some(path) = &shared.cfg.snapshot_path else {
            return Err(std::io::Error::other("server has no snapshot path"));
        };
        // One writer at a time: concurrent callers share the same temp
        // file, and an interleaved write could atomically rename a torn
        // temp over a good snapshot.
        let _writer = lock(&shared.snap_write);
        let bytes = encode(
            &shared.profiles,
            &shared.features,
            shared.graph_fp,
            *shared.model_sum.read(),
            unix_ms_now(),
        );
        neursc_graph::io::write_atomic(path, &bytes)?;
        Ok(bytes.len())
    })();
    match written {
        Ok(_) => {
            metrics.counter_add("serve.snapshot.write", 1);
            metrics.gauge_set("snapshot.age_ms", 0.0);
        }
        Err(_) => metrics.counter_add("serve.snapshot.write_error", 1),
    }
    written
}

/// The snapshot timer thread: one write per interval while serving. The
/// *final* write happens on the batcher after the queue drains (so it
/// captures all served work); this thread just exits on drain.
pub(crate) fn timer_loop(shared: &Shared, interval: Duration) {
    loop {
        let gate = lock(&shared.snap_gate);
        let (gate, _) = shared
            .snap_cv
            .wait_timeout(gate, interval)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        drop(gate);
        if shared.draining() {
            return;
        }
        if let Err(e) = write_now(shared) {
            eprintln!("serve: periodic snapshot write failed: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neursc_gnn::init_features;
    use neursc_graph::generate::erdos_renyi;
    use neursc_match::profile::all_profiles;

    fn warm_caches() -> (ProfileCache, FeatureCache, u64) {
        let g = erdos_renyi(30, 60, 3, 7);
        let fp = g.content_fingerprint();
        let profiles = ProfileCache::with_capacity(4);
        let _ = profiles.get_or_build(&g, &1, || all_profiles(&g, 1));
        let _ = profiles.get_or_build(&g, &2, || all_profiles(&g, 2));
        let features = FeatureCache::new();
        let fcfg = FeatureConfig::default();
        let _ = features.get_or_build(&g, &fcfg, || init_features(&g, &fcfg));
        (profiles, features, fp)
    }

    #[test]
    fn roundtrip_restores_identical_warm_state() {
        let (profiles, features, fp) = warm_caches();
        let bytes = encode(&profiles, &features, fp, 0xdead_beef, 1234);
        let snap = decode(&bytes).expect("decode");
        snap.verify(fp, 0xdead_beef).expect("verify");
        assert_eq!(snap.created_unix_ms, 1234);
        assert_eq!(snap.profile_capacity, Some(4));
        assert_eq!(snap.feature_capacity, None);

        let p2 = ProfileCache::with_capacity(4);
        let f2 = FeatureCache::new();
        snap.install(&p2, &f2);
        let g = erdos_renyi(30, 60, 3, 7);
        // A restored hit serves the snapshot's allocation (no recompute).
        let (got, hit, _) = p2.get_or_build(&g, &2, || unreachable!("restored entry must hit"));
        assert!(hit, "restored entry must be a cache hit");
        assert_eq!(*got, all_profiles(&g, 2));
        let fcfg = FeatureConfig::default();
        let (feat, hit, _) = f2.get_or_build(&g, &fcfg, || unreachable!("restored entry must hit"));
        assert!(hit);
        assert_eq!(*feat, init_features(&g, &fcfg));
        // Re-encoding the restored caches reproduces the same bytes.
        assert_eq!(bytes, encode(&p2, &f2, fp, 0xdead_beef, 1234));
    }

    #[test]
    fn wrong_world_is_a_typed_mismatch() {
        let (profiles, features, fp) = warm_caches();
        let bytes = encode(&profiles, &features, fp, 77, 0);
        let snap = decode(&bytes).expect("decode");
        let e = snap.verify(fp ^ 1, 77).expect_err("graph mismatch");
        assert!(matches!(e, SnapshotError::GraphMismatch { .. }), "{e}");
        assert_eq!(e.outcome(), "cold_mismatch");
        let e = snap.verify(fp, 78).expect_err("model mismatch");
        assert!(matches!(e, SnapshotError::ModelMismatch { .. }), "{e}");
        assert_eq!(e.outcome(), "cold_mismatch");
    }

    #[test]
    fn truncation_and_bitflips_are_typed_corruption() {
        let (profiles, features, fp) = warm_caches();
        let bytes = encode(&profiles, &features, fp, 1, 0);
        for cut in [0, 7, 19, bytes.len() / 2, bytes.len() - 1] {
            let e = decode(&bytes[..cut]).expect_err("truncated");
            assert!(
                matches!(
                    e,
                    SnapshotError::Corrupt { .. } | SnapshotError::Version { .. }
                ),
                "cut {cut}: {e}"
            );
            assert_eq!(e.outcome(), "cold_corrupt", "cut {cut}");
        }
        let mut flipped = bytes.clone();
        let i = flipped.len() - 9;
        flipped[i] ^= 0x10;
        let e = decode(&flipped).expect_err("bit flip");
        assert!(matches!(e, SnapshotError::Corrupt { .. }), "{e}");
    }

    #[test]
    fn unknown_versions_and_missing_files_are_typed() {
        let mut bytes = encode(&ProfileCache::new(), &FeatureCache::new(), 0, 0, 0);
        bytes[8] = 0xff; // version field
                         // Version flips change covered bytes? No: version precedes the
                         // checksum and is not covered by it — exactly why it is checked
                         // explicitly first.
        let e = decode(&bytes).expect_err("future version");
        assert!(matches!(e, SnapshotError::Version { .. }), "{e}");
        assert_eq!(e.outcome(), "cold_corrupt");

        let missing = std::env::temp_dir().join("neursc_no_such_snapshot.bin");
        let e = read_file(&missing).expect_err("missing file");
        assert_eq!(e.outcome(), "cold_missing");
    }

    #[test]
    fn atomic_write_then_read_roundtrips() {
        let (profiles, features, fp) = warm_caches();
        let dir = std::env::temp_dir().join("neursc_snapshot_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("warm.snap");
        let bytes = encode(&profiles, &features, fp, 5, unix_ms_now());
        neursc_graph::io::write_atomic(&path, &bytes).expect("write");
        let snap = read_file(&path).expect("read");
        snap.verify(fp, 5).expect("verify");
        std::fs::remove_dir_all(&dir).ok();
    }
}
