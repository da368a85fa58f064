//! Structured observability: tracing spans, pipeline metrics, export.
//!
//! After the parallel pipeline (caches, fan-out) and the fault-isolation
//! layer (typed errors, budgets, degradation), the missing piece is
//! *seeing* either: per-stage wall time, cache hit rates, degraded and
//! budget-exhausted counts, training loss and divergence events. This
//! module provides them with zero external dependencies and near-zero cost
//! when disabled:
//!
//! * [`Span`] — a scoped RAII timer with parent linkage, recorded into a
//!   per-thread buffer and drained deterministically per *lane* (a logical
//!   thread id fixed by the work item, not by the OS scheduler), so the
//!   span tree is identical at any `--threads` value;
//! * [`Metrics`] — a registry of counters, gauges and log-scale histograms
//!   ([`Histogram`]) capturing stage timings, cache hits, degraded counts,
//!   per-epoch loss and gradient norms;
//! * [`ObsSink`] — the trait a [`crate::GraphContext`] carries (mirroring
//!   [`crate::FaultPlan`]): [`NoopSink`] compiles the whole layer down to
//!   one boolean test, [`Recorder`] captures everything in memory;
//! * export — [`Recorder::chrome_trace_json`] (Chrome `trace_event`
//!   format, loadable in `chrome://tracing` / Perfetto) and
//!   [`MetricsSnapshot::to_json`] (flat snapshot), both hand-rolled JSON;
//! * [`PipelineReport`] — per-query stage timings attached to
//!   [`crate::EstimateDetail`] and [`crate::TrainReport`].
//!
//! # Determinism
//!
//! Wall-clock timestamps can never be bit-identical across runs, so every
//! span carries **two** clocks: monotonic nanoseconds (for profiling) and a
//! per-lane logical *tick* incremented at every span open and close (for
//! determinism). The canonical trace export uses ticks only and is
//! bit-identical across `--threads 1/2/4`; [`TraceTime::Wall`] opts into
//! real timestamps. See DESIGN.md §8.
//!
//! ```
//! use neursc_core::obs::{self, Recorder, Span, ObsSink};
//! use std::sync::Arc;
//!
//! let rec = Arc::new(Recorder::new());
//! let sink: Arc<dyn ObsSink> = rec.clone();
//! obs::scope(&sink, obs::lane::ROOT, || {
//!     let _outer = Span::enter("pipeline.query");
//!     let _inner = Span::enter("filter.local_prune");
//! });
//! let spans = rec.spans();
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans[1].name, "filter.local_prune");
//! assert_eq!(spans[1].parent, Some(spans[0].seq));
//! ```

use crate::error::NeurScError;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

// Poison-free access: each critical section below is one map or vector
// update, so a lock poisoned by a panic still guards whole values and
// recording goes on.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

/// Process-wide monotonic epoch; all span timestamps are offsets from it.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Small dense per-OS-thread id (first use wins), for the wall-time trace
/// view only — never part of any determinism guarantee.
fn os_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

// ---------------------------------------------------------------------------
// Lanes
// ---------------------------------------------------------------------------

/// Deterministic logical thread ids (*lanes*) for the trace.
///
/// A span's lane is fixed by the **work item** it belongs to, not by the OS
/// thread that happened to execute it, which is what makes the span tree
/// thread-count invariant. The batched entry points put query `i` on
/// [`item(i)`](lane::item); the standalone estimator puts substructure
/// `i` on [`sub(i)`](lane::sub); everything on the caller's thread
/// (warm-up, training epochs) lives on [`ROOT`](lane::ROOT).
///
/// ```
/// use neursc_core::obs::lane;
/// assert_eq!(lane::ROOT, 0);
/// assert_eq!(lane::item(0), 1);
/// assert_ne!(lane::sub(0), lane::item(0));
/// ```
pub mod lane {
    /// The caller's own lane (batch warm-up, training loop, CLI driver).
    pub const ROOT: u64 = 0;

    /// Lane of batch item `i` (one per query in a batched call).
    pub const fn item(i: usize) -> u64 {
        1 + i as u64
    }

    /// Lane of substructure `i` in a standalone (non-batched) estimate.
    /// Offset into a separate id range so item and substructure lanes can
    /// never collide.
    pub const fn sub(i: usize) -> u64 {
        (1u64 << 32) + i as u64
    }
}

// ---------------------------------------------------------------------------
// Span records
// ---------------------------------------------------------------------------

/// One finished span, as drained from a lane buffer.
///
/// The pair (`open_tick`, `close_tick`) is the deterministic clock: ticks
/// count span opens *and* closes within the lane, so nesting is recoverable
/// without timestamps. `start_ns`/`dur_ns` are real monotonic time and vary
/// run to run.
///
/// ```
/// use neursc_core::obs::{self, Recorder, Span, ObsSink};
/// use std::sync::Arc;
///
/// let rec = Arc::new(Recorder::new());
/// let sink: Arc<dyn ObsSink> = rec.clone();
/// obs::scope(&sink, 7, || drop(Span::enter("gnn.readout")));
/// let s = &rec.spans()[0];
/// assert_eq!((s.lane, s.seq, s.parent), (7, 0, None));
/// assert_eq!((s.open_tick, s.close_tick), (0, 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, `stage.substage` by convention (DESIGN.md §8).
    pub name: &'static str,
    /// Deterministic logical thread id — see [`lane`].
    pub lane: u64,
    /// Per-lane creation index (0, 1, 2, … in open order).
    pub seq: u64,
    /// `seq` of the enclosing span in the same lane, if any.
    pub parent: Option<u64>,
    /// Per-lane logical tick at open.
    pub open_tick: u64,
    /// Per-lane logical tick at close (always > `open_tick`).
    pub close_tick: u64,
    /// Monotonic start, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Wall duration in nanoseconds.
    pub dur_ns: u64,
    /// Dense id of the OS thread that ran the span (wall view only).
    pub os_tid: u64,
    /// Outcome tag: `None` = ok, `"panic"`, or an `error:*` kind from
    /// [`error_tag`].
    pub tag: Option<&'static str>,
}

/// Resume point of a lane: the next `seq` and `tick` to hand out. Parked in
/// the sink between scopes so re-entering a lane (e.g. two batches back to
/// back) never reuses ids.
///
/// ```
/// let c = neursc_core::obs::LaneCursor::default();
/// assert_eq!((c.seq, c.tick), (0, 0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneCursor {
    /// Next span sequence number in this lane.
    pub seq: u64,
    /// Next logical tick in this lane.
    pub tick: u64,
}

// ---------------------------------------------------------------------------
// Sink trait
// ---------------------------------------------------------------------------

/// Destination for spans and metrics, carried by [`crate::GraphContext`].
///
/// Mirrors the [`crate::FaultPlan`] pattern: the production pipeline always
/// consults the sink, the default ([`NoopSink`]) makes every call a no-op,
/// and tests/benches swap in a [`Recorder`] (or their own impl) to assert
/// on what the real code path emitted. All methods have no-op defaults, so
/// a custom sink only overrides what it cares about.
///
/// ```
/// use neursc_core::obs::ObsSink;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// #[derive(Debug, Default)]
/// struct CountingSink(AtomicU64);
/// impl ObsSink for CountingSink {
///     fn enabled(&self) -> bool {
///         true
///     }
///     fn counter_add(&self, _name: &'static str, delta: u64) {
///         self.0.fetch_add(delta, Ordering::Relaxed);
///     }
/// }
///
/// let s = CountingSink::default();
/// s.counter_add("query.ok", 2);
/// assert_eq!(s.0.load(Ordering::Relaxed), 2);
/// ```
pub trait ObsSink: std::fmt::Debug + Send + Sync {
    /// Whether spans should be recorded at all. When `false`,
    /// [`scope`] skips frame bookkeeping entirely and [`Span::enter`]
    /// reduces to one thread-local read.
    fn enabled(&self) -> bool {
        false
    }

    /// Checks a lane out for a [`scope`], returning its resume cursor.
    fn lane_open(&self, lane: u64) -> LaneCursor {
        let _ = lane;
        LaneCursor::default()
    }

    /// Returns a lane's finished spans and its advanced cursor.
    fn lane_close(&self, lane: u64, cursor: LaneCursor, spans: Vec<SpanRecord>) {
        let _ = (lane, cursor, spans);
    }

    /// Adds `delta` to a named monotonic counter.
    fn counter_add(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets a named gauge to its latest value.
    fn gauge_set(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Records one observation into a named log-scale histogram.
    fn observe(&self, name: &'static str, value: u64) {
        let _ = (name, value);
    }
}

/// The disabled sink: every hook is a no-op and [`ObsSink::enabled`] is
/// `false`, so the instrumented pipeline pays only the `enabled()` test
/// (measured < 2% end to end — see `tests/obs_overhead.rs` in this crate
/// and DESIGN.md §8).
///
/// ```
/// use neursc_core::obs::{NoopSink, ObsSink};
/// let s = NoopSink;
/// assert!(!s.enabled());
/// s.counter_add("anything", 1); // goes nowhere
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl ObsSink for NoopSink {}

/// A shared no-op sink for entry points that have no [`crate::GraphContext`].
///
/// ```
/// use neursc_core::obs;
/// assert!(!obs::noop().enabled());
/// ```
pub fn noop() -> &'static Arc<dyn ObsSink> {
    static NOOP: OnceLock<Arc<dyn ObsSink>> = OnceLock::new();
    NOOP.get_or_init(|| Arc::new(NoopSink))
}

// ---------------------------------------------------------------------------
// Thread-local frames
// ---------------------------------------------------------------------------

struct Frame {
    sink: Arc<dyn ObsSink>,
    lane: u64,
    cursor: LaneCursor,
    /// Indices into `buf` of currently-open spans (innermost last).
    open: Vec<usize>,
    buf: Vec<SpanRecord>,
}

thread_local! {
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Flushes the top frame on exit — including panic unwinds, so a poisoned
/// batch item still delivers its (panic-tagged) spans.
struct FrameGuard;

impl Drop for FrameGuard {
    fn drop(&mut self) {
        FRAMES.with(|fs| {
            let Some(mut frame) = fs.borrow_mut().pop() else {
                return;
            };
            // Close any span left open by an unwind (outermost last).
            while let Some(idx) = frame.open.pop() {
                let tick = frame.cursor.tick;
                frame.cursor.tick += 1;
                let r = &mut frame.buf[idx];
                r.close_tick = tick;
                r.dur_ns = now_ns().saturating_sub(r.start_ns);
                if r.tag.is_none() && std::thread::panicking() {
                    r.tag = Some("panic");
                }
            }
            frame.sink.lane_close(frame.lane, frame.cursor, frame.buf);
        });
    }
}

/// Runs `f` with spans recorded to `sink` on the given [`lane`].
///
/// When the sink is disabled this is exactly `f()`. When the current
/// thread's innermost scope is already on `lane`, the existing frame is
/// reused (nested entry points such as `fit` → `prepare_batch` share the
/// root lane). The frame is flushed to the sink even if `f` panics.
///
/// ```
/// use neursc_core::obs::{self, Recorder, Span, ObsSink};
/// use std::sync::Arc;
///
/// let rec = Arc::new(Recorder::new());
/// let sink: Arc<dyn ObsSink> = rec.clone();
/// let out = obs::scope(&sink, obs::lane::item(0), || {
///     let _sp = Span::enter("pipeline.query");
///     21 * 2
/// });
/// assert_eq!(out, 42);
/// assert_eq!(rec.spans().len(), 1);
/// ```
pub fn scope<R>(sink: &Arc<dyn ObsSink>, lane: u64, f: impl FnOnce() -> R) -> R {
    if !sink.enabled() {
        return f();
    }
    let reuse = FRAMES.with(|fs| fs.borrow().last().is_some_and(|fr| fr.lane == lane));
    if reuse {
        return f();
    }
    let cursor = sink.lane_open(lane);
    FRAMES.with(|fs| {
        fs.borrow_mut().push(Frame {
            sink: Arc::clone(sink),
            lane,
            cursor,
            open: Vec::new(),
            buf: Vec::new(),
        })
    });
    let _guard = FrameGuard;
    f()
}

/// An RAII tracing span (`stage.substage` naming — DESIGN.md §8).
///
/// Inert (a single thread-local check) outside any [`scope`] or when the
/// scope's sink is disabled. On drop it records its wall duration, closes
/// its logical tick, and tags itself `"panic"` when dropped by an unwind.
///
/// ```
/// use neursc_core::obs::{self, Recorder, Span, ObsSink};
/// use std::sync::Arc;
///
/// // No scope → completely inert.
/// drop(Span::enter("filter.refine"));
///
/// let rec = Arc::new(Recorder::new());
/// let sink: Arc<dyn ObsSink> = rec.clone();
/// obs::scope(&sink, 0, || {
///     let mut sp = Span::enter("pipeline.query");
///     sp.set_tag("error:budget"); // explicit outcome tagging
/// });
/// assert_eq!(rec.spans()[0].tag, Some("error:budget"));
/// ```
#[derive(Debug)]
pub struct Span {
    /// Index into the owning frame's buffer; `usize::MAX` = inert.
    idx: usize,
}

impl Span {
    /// Opens a span on the current thread's innermost frame (if any).
    pub fn enter(name: &'static str) -> Span {
        FRAMES.with(|fs| {
            let mut frames = fs.borrow_mut();
            let Some(frame) = frames.last_mut() else {
                return Span { idx: usize::MAX };
            };
            let seq = frame.cursor.seq;
            frame.cursor.seq += 1;
            let open_tick = frame.cursor.tick;
            frame.cursor.tick += 1;
            let parent = frame.open.last().map(|&i| frame.buf[i].seq);
            let idx = frame.buf.len();
            frame.buf.push(SpanRecord {
                name,
                lane: frame.lane,
                seq,
                parent,
                open_tick,
                close_tick: 0,
                start_ns: now_ns(),
                dur_ns: 0,
                os_tid: os_tid(),
                tag: None,
            });
            frame.open.push(idx);
            Span { idx }
        })
    }

    /// Tags this span's outcome (e.g. `"error:budget"`, see [`error_tag`]).
    /// The tag survives into the trace export; a span dropped during a
    /// panic that has no explicit tag is tagged `"panic"` automatically.
    pub fn set_tag(&mut self, tag: &'static str) {
        if self.idx == usize::MAX {
            return;
        }
        let idx = self.idx;
        FRAMES.with(|fs| {
            if let Some(frame) = fs.borrow_mut().last_mut() {
                if let Some(r) = frame.buf.get_mut(idx) {
                    r.tag = Some(tag);
                }
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.idx == usize::MAX {
            return;
        }
        FRAMES.with(|fs| {
            let mut frames = fs.borrow_mut();
            let Some(frame) = frames.last_mut() else {
                return;
            };
            let Some(idx) = frame.open.pop() else {
                return;
            };
            let tick = frame.cursor.tick;
            frame.cursor.tick += 1;
            let r = &mut frame.buf[idx];
            r.close_tick = tick;
            r.dur_ns = now_ns().saturating_sub(r.start_ns);
            if r.tag.is_none() && std::thread::panicking() {
                r.tag = Some("panic");
            }
        });
    }
}

/// Emits an already-measured child span of the current open span: an
/// open+close pair with the given duration. Used where a lower-layer crate
/// (e.g. `neursc-match`, which cannot depend on this module) returns stage
/// timings as plain data and the core layer converts them to spans.
///
/// ```
/// use neursc_core::obs::{self, Recorder, Span, ObsSink};
/// use std::sync::Arc;
///
/// let rec = Arc::new(Recorder::new());
/// let sink: Arc<dyn ObsSink> = rec.clone();
/// obs::scope(&sink, 0, || {
///     let _sp = Span::enter("filter.candidates");
///     obs::span_with_ns("filter.local_prune", 1_500);
/// });
/// let spans = rec.spans();
/// assert_eq!(spans[1].dur_ns, 1_500);
/// assert_eq!(spans[1].parent, Some(spans[0].seq));
/// ```
pub fn span_with_ns(name: &'static str, dur_ns: u64) {
    FRAMES.with(|fs| {
        let mut frames = fs.borrow_mut();
        let Some(frame) = frames.last_mut() else {
            return;
        };
        let seq = frame.cursor.seq;
        frame.cursor.seq += 1;
        let open_tick = frame.cursor.tick;
        let close_tick = frame.cursor.tick + 1;
        frame.cursor.tick += 2;
        let parent = frame.open.last().map(|&i| frame.buf[i].seq);
        let end = now_ns();
        frame.buf.push(SpanRecord {
            name,
            lane: frame.lane,
            seq,
            parent,
            open_tick,
            close_tick,
            start_ns: end.saturating_sub(dur_ns),
            dur_ns,
            os_tid: os_tid(),
            tag: None,
        });
    });
}

/// Maps a [`NeurScError`] to a stable span/counter tag.
///
/// ```
/// use neursc_core::{obs::error_tag, NeurScError};
/// let e = NeurScError::Budget { detail: "starved".into() };
/// assert_eq!(error_tag(&e), "error:budget");
/// ```
pub fn error_tag(e: &NeurScError) -> &'static str {
    match e {
        NeurScError::Budget { .. } => "error:budget",
        NeurScError::InvalidQuery { .. } => "error:invalid_query",
        NeurScError::Panicked { .. } => "error:panicked",
        NeurScError::Divergence { .. } => "error:divergence",
        NeurScError::NoTrainingData => "error:no_training_data",
        _ => "error:other",
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// One log-scale histogram: bucket `k` counts values whose highest set bit
/// is `k − 1` (i.e. values in `[2^(k−1), 2^k)`), bucket 0 counts zeros.
/// Fixed power-of-two buckets keep merging and export trivial and make the
/// bucket layout independent of the observed data.
///
/// ```
/// use neursc_core::obs::Histogram;
/// let mut h = Histogram::default();
/// h.observe(0);
/// h.observe(1);
/// h.observe(1023);
/// assert_eq!(h.count, 3);
/// assert_eq!(h.sum, 1024);
/// assert_eq!(h.buckets(), vec![(0, 1), (1, 1), (10, 1)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    counts: Vec<u64>, // indexed by bucket, grown on demand (max 65)
}

impl Histogram {
    /// Records one value.
    pub fn observe(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        if self.counts.len() <= bucket {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Non-empty buckets as `(bucket_index, count)`, ascending. Bucket `k`
    /// covers `[2^(k−1), 2^k)`; bucket 0 is exactly zero.
    pub fn buckets(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Mean observed value (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

/// Registry of named counters, gauges and histograms.
///
/// Names are `&'static str` and sorted maps keep every snapshot and JSON
/// export in one deterministic order. Counter values are additive, so their
/// totals are independent of worker scheduling and thread count (the
/// determinism suite relies on this).
///
/// ```
/// use neursc_core::obs::Metrics;
/// let m = Metrics::new();
/// m.counter_add("cache.profile.hit", 3);
/// m.gauge_set("train.epoch_loss", 0.25);
/// m.observe("gnn.forward.ns", 1_000);
/// let snap = m.snapshot();
/// assert_eq!(snap.counter("cache.profile.hit"), 3);
/// assert_eq!(snap.gauges["train.epoch_loss"], 0.25);
/// assert_eq!(snap.histograms["gnn.forward.ns"].count, 1);
/// ```
#[derive(Debug, Default)]
pub struct Metrics {
    counters: RwLock<BTreeMap<&'static str, u64>>,
    gauges: RwLock<BTreeMap<&'static str, f64>>,
    histograms: RwLock<BTreeMap<&'static str, Histogram>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (created at 0).
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        *write(&self.counters).entry(name).or_insert(0) += delta;
    }

    /// Sets the named gauge (latest value wins).
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        write(&self.gauges).insert(name, value);
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &'static str, value: u64) {
        write(&self.histograms)
            .entry(name)
            .or_default()
            .observe(value);
    }

    /// A point-in-time copy of everything.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: read(&self.counters)
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            gauges: read(&self.gauges)
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            histograms: read(&self.histograms)
                .iter()
                .map(|(&k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }
}

/// Peak resident set size (high-water mark) of the current process, in
/// bytes — `VmHWM` from `/proc/self/status` on Linux, 0 on platforms
/// without procfs (a gauge of 0 means "unavailable", never "no memory").
///
/// The high-water mark is monotone over a process lifetime, so per-phase
/// attribution needs one process per phase. Record it with
/// `metrics.gauge_set("process.peak_rss_bytes", process_peak_rss_bytes() as f64)`.
pub fn process_peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// A point-in-time copy of a [`Metrics`] registry, with JSON export.
///
/// ```
/// use neursc_core::obs::Metrics;
/// let m = Metrics::new();
/// m.counter_add("query.ok", 31);
/// let json = m.snapshot().to_json();
/// assert!(json.contains("\"query.ok\": 31"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Latest gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Log-scale histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// The named counter, or 0 when it was never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Flat JSON: `{"counters": {...}, "gauges": {...}, "histograms":
    /// {name: {count, sum, buckets: [[k, n], ...]}}}`, keys sorted.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n    \"{}\": {v}", escape_json(k));
        }
        s.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n    \"{}\": {}", escape_json(k), fmt_f64(*v));
        }
        s.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                escape_json(k),
                h.count,
                h.sum
            );
            for (j, (bucket, n)) in h.buckets().into_iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(s, "{sep}[{bucket}, {n}]");
            }
            s.push_str("]}");
        }
        s.push_str("\n  }\n}\n");
        s
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// Spans beyond this cap are dropped (and counted in the
/// `obs.spans_dropped` counter) instead of growing without bound.
const SPAN_CAP: usize = 1 << 20;

/// The capturing [`ObsSink`]: collects every span and metric in memory and
/// exports Chrome traces and metrics snapshots.
///
/// One `Recorder` serves a whole batch/run; it is `Sync` and shared through
/// [`crate::GraphContext::with_obs`]. Lane cursors are parked between
/// scopes so sequence numbers and ticks never collide across consecutive
/// batches.
///
/// ```
/// use neursc_core::obs::{Recorder, ObsSink, TraceTime};
/// use std::sync::Arc;
///
/// let rec = Arc::new(Recorder::new());
/// rec.counter_add("query.ok", 1);
/// assert!(rec.enabled());
/// assert_eq!(rec.metrics().snapshot().counter("query.ok"), 1);
/// assert!(rec.chrome_trace_json(TraceTime::Canonical).contains("traceEvents"));
/// ```
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Mutex<Vec<SpanRecord>>,
    cursors: Mutex<BTreeMap<u64, LaneCursor>>,
    metrics: Metrics,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The metrics registry (counters/gauges/histograms).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// All finished spans so far, sorted by `(lane, seq)` — a deterministic
    /// order independent of which OS thread drained which lane first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = lock(&self.spans).clone();
        spans.sort_by_key(|s| (s.lane, s.seq));
        spans
    }

    /// Drops every recorded span while keeping lane cursors and metrics —
    /// separates a warm-up phase from the region a caller wants to trace.
    ///
    /// ```
    /// use neursc_core::obs::Recorder;
    /// let rec = Recorder::new();
    /// rec.reset_spans();
    /// assert!(rec.spans().is_empty());
    /// ```
    pub fn reset_spans(&self) {
        lock(&self.spans).clear();
    }

    /// Exports all spans in Chrome `trace_event` JSON (open the file in
    /// `chrome://tracing` or <https://ui.perfetto.dev>).
    ///
    /// [`TraceTime::Canonical`] timestamps events with per-lane logical
    /// ticks: the output is **bit-identical across thread counts** for the
    /// same inputs. [`TraceTime::Wall`] uses real monotonic microseconds
    /// and OS thread ids — the honest profile, different every run.
    pub fn chrome_trace_json(&self, time: TraceTime) -> String {
        let spans = self.spans();
        let mut out = String::from("{\"traceEvents\": [\n");
        match time {
            TraceTime::Canonical => {
                // B/E events at tick timestamps, one Chrome "thread" per lane.
                let mut events: Vec<(u64, u64, bool, &SpanRecord)> = Vec::new();
                for s in &spans {
                    events.push((s.lane, s.open_tick, false, s));
                    events.push((s.lane, s.close_tick, true, s));
                }
                events.sort_by_key(|&(lane, tick, is_end, s)| (lane, tick, is_end, s.seq));
                for (i, (lane, tick, is_end, s)) in events.iter().enumerate() {
                    let sep = if i + 1 < events.len() { "," } else { "" };
                    let ph = if *is_end { "E" } else { "B" };
                    let args = match (s.tag, is_end) {
                        (Some(tag), false) => {
                            format!(", \"args\": {{\"tag\": \"{}\"}}", escape_json(tag))
                        }
                        _ => String::new(),
                    };
                    let _ = writeln!(
                        out,
                        "{{\"name\": \"{}\", \"cat\": \"neursc\", \"ph\": \"{ph}\", \
                         \"pid\": 1, \"tid\": {lane}, \"ts\": {tick}{args}}}{sep}",
                        escape_json(s.name)
                    );
                }
            }
            TraceTime::Wall => {
                for (i, s) in spans.iter().enumerate() {
                    let sep = if i + 1 < spans.len() { "," } else { "" };
                    let args = match s.tag {
                        Some(tag) => format!(
                            ", \"args\": {{\"tag\": \"{}\", \"lane\": {}}}",
                            escape_json(tag),
                            s.lane
                        ),
                        None => format!(", \"args\": {{\"lane\": {}}}", s.lane),
                    };
                    let _ = writeln!(
                        out,
                        "{{\"name\": \"{}\", \"cat\": \"neursc\", \"ph\": \"X\", \
                         \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}{args}}}{sep}",
                        escape_json(s.name),
                        s.os_tid,
                        fmt_f64(s.start_ns as f64 / 1e3),
                        fmt_f64(s.dur_ns as f64 / 1e3),
                    );
                }
            }
        }
        out.push_str("], \"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

impl ObsSink for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn lane_open(&self, lane: u64) -> LaneCursor {
        lock(&self.cursors).remove(&lane).unwrap_or_default()
    }

    fn lane_close(&self, lane: u64, cursor: LaneCursor, spans: Vec<SpanRecord>) {
        lock(&self.cursors).insert(lane, cursor);
        let mut all = lock(&self.spans);
        let room = SPAN_CAP.saturating_sub(all.len());
        if spans.len() > room {
            self.metrics
                .counter_add("obs.spans_dropped", (spans.len() - room) as u64);
        }
        all.extend(spans.into_iter().take(room));
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.metrics.counter_add(name, delta);
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        self.metrics.gauge_set(name, value);
    }

    fn observe(&self, name: &'static str, value: u64) {
        self.metrics.observe(name, value);
    }
}

/// Timestamp source for [`Recorder::chrome_trace_json`].
///
/// ```
/// use neursc_core::obs::TraceTime;
/// assert_eq!(TraceTime::parse("wall"), Some(TraceTime::Wall));
/// assert_eq!(TraceTime::parse("canonical"), Some(TraceTime::Canonical));
/// assert_eq!(TraceTime::parse("nope"), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceTime {
    /// Deterministic per-lane logical ticks (bit-identical across thread
    /// counts; durations are span *counts*, not time).
    Canonical,
    /// Real monotonic microseconds and OS thread ids (profiling view).
    Wall,
}

impl TraceTime {
    /// Parses the CLI spelling (`"canonical"` / `"wall"`).
    pub fn parse(s: &str) -> Option<TraceTime> {
        match s {
            "canonical" => Some(TraceTime::Canonical),
            "wall" => Some(TraceTime::Wall),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Pipeline report
// ---------------------------------------------------------------------------

/// Per-query stage timings, filled in by the pipeline and attached to
/// [`crate::EstimateDetail`] and (aggregated) [`crate::TrainReport`].
///
/// Wall-clock fields vary run to run and are therefore **excluded from
/// equality** of the structs that carry a report — bit-determinism claims
/// never cover nanoseconds.
///
/// ```
/// use neursc_core::obs::PipelineReport;
/// let mut a = PipelineReport {
///     local_prune_ns: 10,
///     gnn_ns: 5,
///     ..PipelineReport::default()
/// };
/// let b = PipelineReport {
///     refine_ns: 7,
///     profile_cache_hit: true,
///     ..PipelineReport::default()
/// };
/// a.merge(&b);
/// assert_eq!((a.local_prune_ns, a.refine_ns, a.gnn_ns), (10, 7, 5));
/// assert!(a.profile_cache_hit);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Local pruning (candidate filtering phase 1).
    pub local_prune_ns: u64,
    /// Global refinement (candidate filtering phase 2).
    pub refine_ns: u64,
    /// Induced-subgraph extraction + component split.
    pub extract_ns: u64,
    /// Substructure featurization + bipartite-edge construction.
    pub featurize_ns: u64,
    /// All WEst forward passes (intra + inter GNN + readout).
    pub gnn_ns: u64,
    /// Candidate-pair tests spent by filtering (always metered).
    pub filter_steps: u64,
    /// Whether the data-graph profiles came from the [`crate::GraphContext`]
    /// cache.
    pub profile_cache_hit: bool,
}

impl PipelineReport {
    /// Accumulates another report (used to aggregate a training batch).
    pub fn merge(&mut self, other: &PipelineReport) {
        self.local_prune_ns += other.local_prune_ns;
        self.refine_ns += other.refine_ns;
        self.extract_ns += other.extract_ns;
        self.featurize_ns += other.featurize_ns;
        self.gnn_ns += other.gnn_ns;
        self.filter_steps += other.filter_steps;
        self.profile_cache_hit |= other.profile_cache_hit;
    }
}

// ---------------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------------

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// JSON-safe float formatting (`NaN`/`inf` are not valid JSON numbers).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> (Arc<Recorder>, Arc<dyn ObsSink>) {
        let rec = Arc::new(Recorder::new());
        let sink: Arc<dyn ObsSink> = rec.clone();
        (rec, sink)
    }

    #[test]
    fn spans_nest_and_link_parents() {
        let (rec, sink) = recorder();
        scope(&sink, lane::ROOT, || {
            let _a = Span::enter("a");
            {
                let _b = Span::enter("b");
                let _c = Span::enter("c");
            }
            let _d = Span::enter("d");
        });
        let spans = rec.spans();
        let by_name: BTreeMap<_, _> = spans.iter().map(|s| (s.name, s)).collect();
        assert_eq!(by_name["a"].parent, None);
        assert_eq!(by_name["b"].parent, Some(by_name["a"].seq));
        assert_eq!(by_name["c"].parent, Some(by_name["b"].seq));
        assert_eq!(by_name["d"].parent, Some(by_name["a"].seq));
        // Ticks: a-open b-open c-open c-close b-close d-open d-close a-close
        assert_eq!(by_name["a"].open_tick, 0);
        assert_eq!(by_name["a"].close_tick, 7);
        assert!(by_name["c"].close_tick < by_name["b"].close_tick);
    }

    #[test]
    fn spans_without_scope_are_inert() {
        let sp = Span::enter("orphan");
        assert_eq!(sp.idx, usize::MAX);
        drop(sp);
        span_with_ns("orphan2", 10); // must not panic either
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink: Arc<dyn ObsSink> = Arc::new(NoopSink);
        let out = scope(&sink, lane::ROOT, || {
            let _sp = Span::enter("a");
            5
        });
        assert_eq!(out, 5);
    }

    #[test]
    fn lane_cursor_resumes_across_scopes() {
        let (rec, sink) = recorder();
        scope(&sink, 3, || drop(Span::enter("first")));
        scope(&sink, 3, || drop(Span::enter("second")));
        let spans = rec.spans();
        assert_eq!(spans[0].seq, 0);
        assert_eq!(spans[1].seq, 1);
        assert_eq!(spans[1].open_tick, 2);
    }

    #[test]
    fn nested_scope_on_same_lane_reuses_frame() {
        let (rec, sink) = recorder();
        scope(&sink, lane::ROOT, || {
            let _outer = Span::enter("outer");
            scope(&sink, lane::ROOT, || {
                let _inner = Span::enter("inner");
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].seq), "inner must nest");
    }

    #[test]
    fn panicking_scope_flushes_tagged_spans() {
        let (rec, sink) = recorder();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scope(&sink, lane::item(0), || {
                let _sp = Span::enter("pipeline.query");
                panic!("boom");
            })
        }));
        assert!(r.is_err());
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].tag, Some("panic"));
        assert!(spans[0].close_tick > spans[0].open_tick);
    }

    #[test]
    fn canonical_trace_is_input_deterministic() {
        let run = || {
            let (rec, sink) = recorder();
            for i in 0..4 {
                scope(&sink, lane::item(i), || {
                    let _q = Span::enter("pipeline.query");
                    let _f = Span::enter("filter.local_prune");
                });
            }
            rec.chrome_trace_json(TraceTime::Canonical)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn canonical_trace_is_valid_chrome_json_shape() {
        let (rec, sink) = recorder();
        scope(&sink, lane::ROOT, || drop(Span::enter("a.b")));
        let json = rec.chrome_trace_json(TraceTime::Canonical);
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.contains("\"ph\": \"B\""));
        assert!(json.contains("\"ph\": \"E\""));
        assert!(json.trim_end().ends_with('}'));
        // Balanced B/E.
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 1);
    }

    #[test]
    fn wall_trace_uses_complete_events() {
        let (rec, sink) = recorder();
        scope(&sink, lane::ROOT, || drop(Span::enter("a")));
        let json = rec.chrome_trace_json(TraceTime::Wall);
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"dur\": "));
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(
            h.buckets(),
            vec![(0, 1), (1, 2), (2, 2), (3, 2), (4, 1), (64, 1)]
        );
        assert_eq!(h.count, 9);
    }

    #[test]
    fn metrics_json_is_sorted_and_parsable_shape() {
        let m = Metrics::new();
        m.counter_add("b.count", 2);
        m.counter_add("a.count", 1);
        m.gauge_set("loss", f64::NAN);
        m.observe("ns", 5);
        let json = m.snapshot().to_json();
        let a = json.find("a.count").unwrap();
        let b = json.find("b.count").unwrap();
        assert!(a < b, "keys must be sorted");
        assert!(json.contains("\"loss\": null"), "NaN must not leak: {json}");
        assert!(json.contains("\"buckets\": [[3, 1]]"));
    }

    #[test]
    fn span_cap_drops_and_counts() {
        let (rec, sink) = recorder();
        // Fill beyond the cap via one giant frame is too slow; emulate by
        // inserting directly through the sink interface.
        let make = |n: usize| {
            (0..n)
                .map(|i| SpanRecord {
                    name: "x",
                    lane: 0,
                    seq: i as u64,
                    parent: None,
                    open_tick: 0,
                    close_tick: 1,
                    start_ns: 0,
                    dur_ns: 0,
                    os_tid: 0,
                    tag: None,
                })
                .collect::<Vec<_>>()
        };
        sink.lane_close(0, LaneCursor::default(), make(SPAN_CAP));
        sink.lane_close(0, LaneCursor::default(), make(10));
        assert_eq!(rec.spans().len(), SPAN_CAP);
        assert_eq!(rec.metrics().snapshot().counter("obs.spans_dropped"), 10);
    }

    #[test]
    fn error_tags_are_stable() {
        assert_eq!(
            error_tag(&NeurScError::NoTrainingData),
            "error:no_training_data"
        );
        assert_eq!(
            error_tag(&NeurScError::InvalidQuery { reason: "r".into() }),
            "error:invalid_query"
        );
    }
}
