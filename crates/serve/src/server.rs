//! The resident estimator daemon.
//!
//! Thread architecture (DESIGN.md §10):
//!
//! ```text
//! acceptor ──spawns──▶ reader (per connection)
//!                        │  parse line → admission (deadline/step budget,
//!                        │  size cap, queue bound) → enqueue
//!                        ▼
//!                  request queue (Mutex + Condvar)
//!                        │
//!                        ▼
//!                  batcher (single thread)
//!                        │  coalesce ≤ max_batch within batch_wait,
//!                        │  snapshot Arc<NeurSc>, run
//!                        │  estimate_batch_budgeted over the shared warm
//!                        │  GraphContext, demux one frame per request
//!                        ▼
//!                  per-connection writer (Mutex<Stream>)
//! ```
//!
//! Control verbs (`stats`, `reload_model`, `snapshot`, `shutdown`) are
//! handled synchronously on the reader thread so they can never queue
//! behind a slow batch. Hot reload loads + checksum-verifies the new
//! file, carries the current runtime knobs (threads, budgets) over, then
//! atomically swaps the `Arc<NeurSc>`; a batch already running keeps its
//! old snapshot and finishes on it. Graceful drain (`shutdown`):
//! admission starts refusing with `draining` frames, the batcher finishes
//! the queue, writes the final warm-state snapshot, then shuts every
//! connection's socket down — which wakes blocked reader threads
//! *immediately*, so drain completes in milliseconds rather than a poll
//! interval — and [`Server::join`] returns.
//!
//! Crash safety (DESIGN.md §12) is layered on top: warm-state snapshots
//! ([`crate::snapshot`]) make restart cheap, the admission journal
//! ([`crate::journal`]) makes it accountable (in-flight requests are
//! identifiable after a crash; digests handed back via
//! [`ServeConfig::quarantine`] are refused with `crash_suspect`), and the
//! idempotency cache deduplicates client retries: a replayed
//! `(session, idem, replay-digest)` key is answered from the cached
//! reply frame instead of re-processed. The key is scoped by the
//! client's session token (or, when none is sent, a server-assigned
//! per-connection id) so distinct clients reusing the same seqno never
//! collide, and the replay digest covers the per-request budgets so a
//! resubmission with a different deadline is a fresh request. The dedup
//! is **best-effort**, bounded by a FIFO cache (`IDEM_CACHE_CAP`) —
//! sound here because estimate verbs are deterministic and read-only.

use crate::conn::Stream;
use crate::journal::{digest_queries, Journal};
use crate::json::Json;
use crate::proto::{self, Request};
use crate::router::{route, sampler_for_model, BackendChoice, Routed, RouterConfig};
use crate::snapshot;
use neursc_core::persist::{load_model, model_checksum};
use neursc_core::{
    EstimateDetail, Estimator, FaultPlan, GraphContext, NeurSc, NeurScError, ObsSink, QuantMode,
    Recorder,
};
use neursc_graph::hash::Fnv64;
use neursc_graph::Graph;
use neursc_match::FilterBudget;
use parking_lot::RwLock;
use std::collections::{HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Listen {
    /// A TCP address like `127.0.0.1:7878` (port 0 picks a free port).
    Tcp(String),
    /// A Unix-domain socket path (a stale file at the path is replaced).
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Daemon configuration. The defaults favour latency on small hosts:
/// tiny batch window, bounded queue, unbounded caches (one resident data
/// graph), no chaos.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address.
    pub listen: Listen,
    /// Worker threads per batch (estimates stay bit-identical at any
    /// setting).
    pub threads: usize,
    /// Largest batch handed to the estimator at once.
    pub max_batch: usize,
    /// How long the batcher waits for more requests to coalesce once it
    /// has at least one.
    pub batch_wait: Duration,
    /// Admission bound on queued requests; beyond it clients get
    /// `overloaded` frames instead of unbounded memory growth.
    pub max_pending: usize,
    /// Largest accepted request line, in bytes; longer frames get a
    /// `too_large` error and the connection resynchronizes at the next
    /// newline.
    pub max_frame_bytes: usize,
    /// Admission-level query-size cap (`None` = rely on the model's own
    /// `ResourceBudget::max_query_vertices`, identical to the offline
    /// path).
    pub max_query_vertices: Option<usize>,
    /// Capacity bound for the shared profile/feature caches (`None` =
    /// unbounded, the offline default).
    pub cache_capacity: Option<usize>,
    /// Admission sequence numbers whose requests get an injected worker
    /// panic (testing; mirrors [`FaultPlan::panic_on`]).
    pub chaos_panic: Vec<u64>,
    /// Admission sequence numbers whose requests get a starved filter
    /// budget (testing; mirrors [`FaultPlan::starve_budget_on`]).
    pub chaos_starve: Vec<u64>,
    /// Request digests whose batch slot calls `std::process::abort()`
    /// (testing: a deterministic "poison query" that kills the worker in
    /// every incarnation until the supervisor quarantines it). Digest-
    /// keyed, not seq-keyed — admission seqnos reset on restart, the
    /// query's content digest does not.
    pub chaos_abort: Vec<u64>,
    /// Warm-state snapshot file (`None` = snapshots disabled). Restored
    /// at startup if present and valid; written on the snapshot interval,
    /// on the `snapshot` verb, and at the end of a graceful drain.
    pub snapshot_path: Option<PathBuf>,
    /// Background snapshot cadence (`None` = only on drain / `snapshot`
    /// verb).
    pub snapshot_interval: Option<Duration>,
    /// Admission journal file (`None` = journaling disabled). Truncated
    /// at startup — the supervisor has read the previous incarnation's
    /// entries by the time the worker starts.
    pub journal_path: Option<PathBuf>,
    /// Request digests quarantined by the supervisor: admission refuses
    /// them with a typed `crash_suspect` error.
    pub quarantine: Vec<u64>,
    /// How many times the supervisor has restarted this worker (exported
    /// as the `serve.restarts` counter; 0 when unsupervised).
    pub restarts: u64,
    /// Which estimator backend answers requests (`--backend
    /// west|sample|auto`); see [`crate::router`].
    pub backend: BackendChoice,
    /// Cost-model thresholds for `--backend auto`.
    pub router: RouterConfig,
    /// Quantization of the served model's inference fast path
    /// (`--quantize f32|f16|int8`); applied at startup and re-applied on
    /// every `reload_model`. Non-f32 replies carry `"quantized":true` and
    /// `stats` reports the mode as `model_quantized`.
    pub quantize: QuantMode,
    /// Idempotency replay cache capacity (`--idem-cache-cap`, entries).
    /// Must be ≥ 1; evictions are counted under `idem.evicted` so
    /// eviction-caused re-processing of late retries is observable.
    pub idem_cache_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: Listen::Tcp("127.0.0.1:0".to_string()),
            threads: 1,
            max_batch: 8,
            batch_wait: Duration::from_micros(500),
            max_pending: 1024,
            max_frame_bytes: 1 << 20,
            max_query_vertices: None,
            cache_capacity: None,
            chaos_panic: Vec::new(),
            chaos_starve: Vec::new(),
            chaos_abort: Vec::new(),
            snapshot_path: None,
            snapshot_interval: None,
            journal_path: None,
            quarantine: Vec::new(),
            restarts: 0,
            backend: BackendChoice::West,
            router: RouterConfig::default(),
            quantize: QuantMode::F32,
            idem_cache_cap: DEFAULT_IDEM_CACHE_CAP,
        }
    }
}

/// Default bound on `idempotency key → reply frame` cache entries retained
/// for retry deduplication (`ServeConfig::idem_cache_cap` overrides it).
/// The bound makes the guarantee best-effort: under sustained load a
/// cached reply can be evicted before a very late retry arrives, and
/// that retry is then re-processed — observable via the `idem.evicted`
/// counter. This is harmless for every current verb (estimates are
/// deterministic and read-only — the re-processed reply is
/// bit-identical), but a future non-idempotent verb must NOT rely on
/// this cache for exactly-once semantics.
pub const DEFAULT_IDEM_CACHE_CAP: usize = 1024;

/// Retry-deduplication cache key:
/// `(session-scoped?, scope, idem seqno, replay digest)`.
///
/// `scope` is the client-supplied session token when the request carried
/// one (`true`) — stable across reconnects, so a post-reconnect retry
/// still replays — and the server-assigned connection id otherwise
/// (`false`). The boolean tag keeps the two namespaces disjoint, so a
/// client token can never collide with a connection id. The replay
/// digest folds the per-request budgets into the content digest (see
/// [`replay_digest`]): only a truly identical request replays.
type IdemKey = (bool, u64, u64, u64);

/// The replay-identity digest: the request's content digest mixed with
/// its `deadline_ms`/`max_filter_steps`, FNV-1a style. Unlike the
/// journal/quarantine digest (content only — a poison query is poison
/// under any budget), the idempotency cache must distinguish the same
/// query under different budgets: a tighter deadline can legitimately
/// produce a different (budget-exceeded) reply.
fn replay_digest(digest: u64, deadline_ms: Option<u64>, max_filter_steps: Option<u64>) -> u64 {
    let mut h = Fnv64::resume(digest);
    // +1 keeps `Some(0)` distinct from `None`.
    for word in [
        deadline_ms.map_or(0, |v| v.wrapping_add(1)),
        max_filter_steps.map_or(0, |v| v.wrapping_add(1)),
    ] {
        h.update(&word.to_le_bytes());
    }
    h.finish()
}

/// Poison-tolerant lock: a panicking holder already contained its panic
/// (or crashed its own thread); the protected data here (queues, socket
/// writers) stays structurally valid, so we keep serving.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Shared writer half of one client connection.
type Replier = Arc<Mutex<Stream>>;

/// Accumulator for an `estimate_batch` request: slots fill as the batcher
/// completes them (possibly across several micro-batches); the last slot
/// writes the combined frame.
#[derive(Debug)]
struct BatchAgg {
    id: Json,
    /// Client idempotency seqno, echoed in the combined frame.
    idem: Option<u64>,
    /// Full idempotency cache key (when the request carried a seqno).
    idem_key: Option<IdemKey>,
    conn: Replier,
    /// `(per-slot results, slots still outstanding)`.
    slots: Mutex<(Vec<Json>, usize)>,
    /// Set when any slot got a transient rejection (`overloaded`,
    /// `draining`): the combined frame must then not be cached for
    /// idempotent replay — the retry deserves a fresh attempt.
    transient: AtomicBool,
}

#[derive(Debug)]
enum ReplyTo {
    Direct {
        conn: Replier,
        id: Json,
        /// Client idempotency seqno, echoed in the reply frame.
        idem: Option<u64>,
        /// Full idempotency cache key (when the request carried a seqno).
        idem_key: Option<IdemKey>,
    },
    Slot {
        agg: Arc<BatchAgg>,
        slot: usize,
    },
}

#[derive(Debug)]
struct Pending {
    /// Admission sequence number (global arrival order; chaos hooks key
    /// on it).
    seq: u64,
    /// Content digest of the *request* this item belongs to (journal and
    /// `chaos_abort` key; shared by every slot of a batch).
    digest: u64,
    query: Graph,
    /// Per-request filtering budget from `deadline_ms`/`max_filter_steps`
    /// (`None` = the model's configured budget).
    budget: Option<FilterBudget>,
    /// The *declared* deadline, kept separately from the anchored
    /// [`FilterBudget`]: the `auto` router costs against the declaration,
    /// not wall-clock remaining, so routing is deterministic in the
    /// request.
    deadline_ms: Option<u64>,
    reply: ReplyTo,
}

#[derive(Debug, Default)]
struct QueueState {
    items: VecDeque<Pending>,
    next_seq: u64,
    served: u64,
}

/// Retry deduplication state, keyed on [`IdemKey`] so two clients
/// reusing the same seqno — or one client resubmitting the same query
/// under a different budget — never collide.
#[derive(Debug, Default)]
struct IdemCache {
    /// Keys admitted but not yet answered: a duplicate gets a transient
    /// `overloaded` frame (the client backs off; by its next attempt the
    /// original's reply is in `done`).
    in_flight: HashSet<IdemKey>,
    /// Completed keys with their exact reply frame, FIFO-bounded
    /// (best-effort; see [`IDEM_CACHE_CAP`]).
    done: VecDeque<(IdemKey, String)>,
}

/// What admission found for a request's idempotency key.
enum IdemState {
    /// Never seen (or no `idem` supplied): process normally.
    New,
    /// The original is still being processed.
    InFlight,
    /// Already answered: the cached frame to replay.
    Done(String),
}

/// Registry of the writer halves of every live connection. `closed` flips
/// exactly once, under the lock, when the drain shuts the registered
/// sockets down: a connection registered after that must be shut down by
/// its registrar (still under the same lock-hold's verdict) or its
/// blocked reader would never wake and [`Server::join`] would hang.
#[derive(Debug, Default)]
struct ConnTable {
    closed: bool,
    conns: Vec<Replier>,
}

struct Shared {
    model: RwLock<Arc<NeurSc>>,
    /// Checksum of the currently-served model, maintained alongside the
    /// `Arc` swap so snapshots and `stats` never re-serialize the model.
    model_sum: RwLock<u64>,
    graph: Graph,
    /// Content fingerprint of `graph` (snapshot identity).
    graph_fp: u64,
    /// Warm-state cache handles, shared with the batcher's `GraphContext`
    /// (the caches are internally thread-safe).
    profiles: Arc<neursc_match::ProfileCache>,
    features: Arc<neursc_gnn::FeatureCache>,
    recorder: Arc<Recorder>,
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    notify: Condvar,
    draining: AtomicBool,
    /// Admission journal (when configured).
    journal: Option<Journal>,
    idem: Mutex<IdemCache>,
    /// Writer halves of every live connection (a reader thread removes
    /// its entry on exit); drained by shutting the sockets down once the
    /// batcher finishes, which wakes blocked readers immediately.
    conns: Mutex<ConnTable>,
    /// Server-assigned connection ids (idempotency scope for clients
    /// that send no session token).
    next_conn: AtomicU64,
    /// Wakes the background snapshot thread (drain or forced write).
    snap_gate: Mutex<()>,
    snap_cv: Condvar,
    /// Serializes snapshot writes: the `snapshot` verb (any reader
    /// thread), the periodic snapshotter and the drain path all share one
    /// tmp file, and interleaved writes could rename a torn tmp over a
    /// good snapshot.
    snap_write: Mutex<()>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // Wake the batcher even if the queue is empty; taking the lock
        // orders the store before any subsequent wait.
        let _guard = lock(&self.queue);
        self.notify.notify_all();
        drop(_guard);
        let _gate = lock(&self.snap_gate);
        self.snap_cv.notify_all();
    }

    /// Admission-side idempotency check; registers `New` keys in flight.
    fn idem_admit(&self, key: Option<IdemKey>) -> IdemState {
        let Some(key) = key else {
            return IdemState::New;
        };
        let mut cache = lock(&self.idem);
        if let Some((_, frame)) = cache.done.iter().find(|(k, _)| *k == key) {
            return IdemState::Done(frame.clone());
        }
        if !cache.in_flight.insert(key) {
            return IdemState::InFlight;
        }
        IdemState::New
    }

    /// Completion-side idempotency bookkeeping. `frame` is the reply that
    /// was (attempted to be) written: `Some` caches it for replay, `None`
    /// (a transient rejection like `overloaded`) just releases the key so
    /// the retry is processed fresh.
    fn idem_finish(&self, key: Option<IdemKey>, frame: Option<&str>) {
        let Some(key) = key else {
            return;
        };
        let mut cache = lock(&self.idem);
        cache.in_flight.remove(&key);
        if let Some(frame) = frame {
            cache.done.push_back((key, frame.to_string()));
            while cache.done.len() > self.cfg.idem_cache_cap {
                cache.done.pop_front();
                self.recorder.metrics().counter_add("idem.evicted", 1);
            }
        }
    }

    /// Shuts down every accepted connection's socket: the drain wakeup.
    /// Also flips [`ConnTable::closed`] under the lock, so a connection
    /// the acceptor registers *after* this drain pass is shut down at
    /// registration instead of leaving its reader blocked forever.
    fn close_connections(&self) {
        let drained: Vec<Replier> = {
            let mut table = lock(&self.conns);
            table.closed = true;
            table.conns.drain(..).collect()
        };
        for conn in drained {
            let _ = lock(&conn).shutdown();
        }
    }
}

/// A running daemon. Dropping it does **not** stop the threads; call
/// [`Server::shutdown`] (or send the `shutdown` verb) and then
/// [`Server::join`].
pub struct Server {
    addr: String,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
    snapshotter: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// The bound listen address: `host:port` for TCP (with the real port
    /// when 0 was requested), the socket path for Unix.
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Begins a graceful drain, exactly like receiving the `shutdown`
    /// verb.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Waits for the drain to complete and all threads to exit.
    pub fn join(mut self) -> std::io::Result<()> {
        let mut panicked = false;
        for h in [
            self.acceptor.take(),
            self.batcher.take(),
            self.snapshotter.take(),
        ]
        .into_iter()
        .flatten()
        {
            panicked |= h.join().is_err();
        }
        loop {
            let Some(h) = lock(&self.readers).pop() else {
                break;
            };
            panicked |= h.join().is_err();
        }
        #[cfg(unix)]
        if let Listen::Unix(path) = &self.shared.cfg.listen {
            let _ = std::fs::remove_file(path);
        }
        if panicked {
            return Err(std::io::Error::other("a server thread panicked"));
        }
        Ok(())
    }
}

/// Starts the daemon: binds the listen address, spawns the batcher and
/// acceptor, and returns immediately. `recorder` receives every span and
/// metric the pipeline emits plus the `serve.*` counters; the `stats`
/// verb exports its registry.
pub fn serve(
    mut model: NeurSc,
    graph: Graph,
    cfg: ServeConfig,
    recorder: Arc<Recorder>,
) -> std::io::Result<Server> {
    if cfg.idem_cache_cap == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "idem-cache-cap must be at least 1",
        ));
    }
    model.config.parallelism.threads = cfg.threads.max(1);
    model.config.parallelism.apply_to_kernels();
    // Quantization is simulated on the inference snapshot only, so the
    // persisted weights — and hence the checksum — are mode-independent.
    model.set_quantization(cfg.quantize);
    let model_sum = model_checksum(&model);
    let (listener, addr) = bind(&cfg.listen)?;

    let mut ctx = match cfg.cache_capacity {
        Some(c) => GraphContext::with_bounded_caches(c),
        None => GraphContext::new(),
    };
    let sink: Arc<dyn ObsSink> = recorder.clone();
    ctx.obs = sink;

    let graph_fp = graph.content_fingerprint();
    if let Some(path) = &cfg.snapshot_path {
        restore_snapshot(path, &ctx, graph_fp, model_sum, &recorder);
    }
    let journal = match &cfg.journal_path {
        Some(path) => Some(Journal::create(path)?),
        None => None,
    };
    if cfg.restarts > 0 {
        recorder
            .metrics()
            .counter_add("serve.restarts", cfg.restarts);
    }

    let shared = Arc::new(Shared {
        model: RwLock::new(Arc::new(model)),
        model_sum: RwLock::new(model_sum),
        graph,
        graph_fp,
        profiles: Arc::clone(&ctx.profiles),
        features: Arc::clone(&ctx.features),
        recorder,
        cfg,
        queue: Mutex::new(QueueState::default()),
        notify: Condvar::new(),
        draining: AtomicBool::new(false),
        journal,
        idem: Mutex::new(IdemCache::default()),
        conns: Mutex::new(ConnTable::default()),
        next_conn: AtomicU64::new(1),
        snap_gate: Mutex::new(()),
        snap_cv: Condvar::new(),
        snap_write: Mutex::new(()),
    });

    let batcher = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || batcher_loop(&shared, ctx))
    };
    let snapshotter = match (
        shared.cfg.snapshot_path.is_some(),
        shared.cfg.snapshot_interval,
    ) {
        (true, Some(interval)) => {
            let shared = Arc::clone(&shared);
            Some(std::thread::spawn(move || {
                snapshotter_loop(&shared, interval)
            }))
        }
        _ => None,
    };
    let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let acceptor = {
        let shared = Arc::clone(&shared);
        let readers = Arc::clone(&readers);
        std::thread::spawn(move || acceptor_loop(&shared, listener, &readers))
    };

    Ok(Server {
        addr,
        shared,
        acceptor: Some(acceptor),
        batcher: Some(batcher),
        snapshotter,
        readers,
    })
}

/// Attempts a warm restore at startup. Success imports every cached entry
/// and continues metric series; any failure is counted under its typed
/// `snapshot.restore_outcome.*` reason and the daemon starts cold — a bad
/// snapshot can cost time, never correctness.
fn restore_snapshot(
    path: &Path,
    ctx: &GraphContext,
    graph_fp: u64,
    model_sum: u64,
    recorder: &Recorder,
) {
    let metrics = recorder.metrics();
    let restored = snapshot::read_file(path).and_then(|snap| {
        snap.verify(graph_fp, model_sum)?;
        Ok(snap)
    });
    match restored {
        Ok(snap) => {
            snap.install(&ctx.profiles, &ctx.features);
            ctx.sync_eviction_baseline();
            metrics.counter_add("snapshot.restore_outcome.warm", 1);
            metrics.gauge_set(
                "snapshot.age_ms",
                snap.age_ms(snapshot::unix_ms_now()) as f64,
            );
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

/// Background snapshot writer: one write per interval while serving. The
/// *final* write happens on the batcher after the queue drains (so it
/// captures all served work); this thread just exits on drain.
fn snapshotter_loop(shared: &Arc<Shared>, interval: Duration) {
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
        if let Err(e) = write_snapshot_now(shared) {
            shared
                .recorder
                .metrics()
                .counter_add("serve.snapshot.write_error", 1);
            eprintln!("serve: periodic snapshot write failed: {e}");
        }
    }
}

/// Encodes and durably writes the current warm state. Returns the encoded
/// size in bytes.
fn write_snapshot_now(shared: &Shared) -> std::io::Result<usize> {
    let Some(path) = &shared.cfg.snapshot_path else {
        return Err(std::io::Error::other("server has no snapshot path"));
    };
    // One writer at a time: concurrent callers (snapshot verb, periodic
    // snapshotter, drain) share the same tmp file, and an interleaved
    // write could atomically rename a torn tmp over a good snapshot.
    let _writer = lock(&shared.snap_write);
    let bytes = snapshot::encode(
        &shared.profiles,
        &shared.features,
        shared.graph_fp,
        *shared.model_sum.read(),
        snapshot::unix_ms_now(),
    );
    snapshot::write_atomic(path, &bytes)?;
    let metrics = shared.recorder.metrics();
    metrics.counter_add("serve.snapshot.write", 1);
    metrics.gauge_set("snapshot.age_ms", 0.0);
    Ok(bytes.len())
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

fn bind(listen: &Listen) -> std::io::Result<(Listener, String)> {
    match listen {
        Listen::Tcp(addr) => {
            let l = TcpListener::bind(addr.as_str())?;
            l.set_nonblocking(true)?;
            let bound = l.local_addr()?.to_string();
            Ok((Listener::Tcp(l), bound))
        }
        #[cfg(unix)]
        Listen::Unix(path) => {
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            Ok((Listener::Unix(l), path.display().to_string()))
        }
    }
}

fn acceptor_loop(
    shared: &Arc<Shared>,
    listener: Listener,
    readers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.draining() {
        let accepted = match &listener {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => Some(Stream::Tcp(s)),
                Err(e) if Stream::is_poll_timeout(&e) => None,
                Err(_) => None,
            },
            #[cfg(unix)]
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => Some(Stream::Unix(s)),
                Err(e) if Stream::is_poll_timeout(&e) => None,
                Err(_) => None,
            },
        };
        match accepted {
            Some(stream) => {
                shared.recorder.metrics().counter_add("serve.conn", 1);
                let _ = stream.set_nodelay();
                let Ok(writer) = stream.try_clone() else {
                    continue;
                };
                let conn: Replier = Arc::new(Mutex::new(writer));
                // Register under the lock that `close_connections` flips
                // `closed` under: either this connection is in the table
                // before the drain pass (and gets shut down by it), or the
                // drain already ran and we must not serve — a reader
                // spawned now would block in `read` with nothing left to
                // wake it, hanging `Server::join`.
                let registered = {
                    let mut table = lock(&shared.conns);
                    if table.closed {
                        false
                    } else {
                        table.conns.push(Arc::clone(&conn));
                        true
                    }
                };
                if !registered {
                    let _ = stream.shutdown();
                    continue;
                }
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                let handle =
                    std::thread::spawn(move || reader_loop(&shared, stream, &conn, conn_id));
                lock(readers).push(handle);
            }
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Writes one `\n`-terminated frame to a connection; a failed write means
/// the client is gone, which must never take the server down. Frame and
/// terminator go out in a single `write_all` so each reply is one TCP
/// segment (two would re-introduce Nagle/delayed-ACK stalls).
fn write_frame(shared: &Shared, conn: &Replier, frame: &str) {
    let mut line = String::with_capacity(frame.len() + 1);
    line.push_str(frame);
    line.push('\n');
    let mut s = lock(conn);
    let r = s.write_all(line.as_bytes()).and_then(|()| s.flush());
    if r.is_err() {
        shared
            .recorder
            .metrics()
            .counter_add("serve.write_error", 1);
    }
}

/// Blocks in `read` with no timeout: drain wakes this thread by shutting
/// the socket down (`Ok(0)` / error), not by letting a poll interval
/// expire — see [`Shared::close_connections`].
fn reader_loop(shared: &Arc<Shared>, mut stream: Stream, conn: &Replier, conn_id: u64) {
    let mut buf: Vec<u8> = Vec::new();
    let mut discarding = false;
    let mut chunk = [0u8; 8192];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                drain_lines(shared, conn, conn_id, &mut buf, &mut discarding);
            }
            Err(e) if Stream::is_poll_timeout(&e) => {
                // No timeout is set, but stay robust to spurious wakeups.
                if shared.draining() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    // Deregister: a long-running daemon must not accumulate one dead
    // writer handle (and its dup'd fd) per connection ever accepted.
    lock(&shared.conns).conns.retain(|c| !Arc::ptr_eq(c, conn));
}

/// Splits complete lines out of `buf` and dispatches each. Oversized
/// frames put the connection into discard mode: bytes are dropped until
/// the next newline, where the protocol resynchronizes.
fn drain_lines(
    shared: &Arc<Shared>,
    conn: &Replier,
    conn_id: u64,
    buf: &mut Vec<u8>,
    discarding: &mut bool,
) {
    loop {
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let line: Vec<u8> = buf.drain(..=pos).collect();
                if *discarding {
                    *discarding = false; // tail of the oversized frame
                    continue;
                }
                let line = trim_line(&line);
                if line.is_empty() {
                    continue;
                }
                handle_line(shared, conn, conn_id, line);
            }
            None => {
                if !*discarding && buf.len() > shared.cfg.max_frame_bytes {
                    *discarding = true;
                    buf.clear();
                    shared.recorder.metrics().counter_add("serve.too_large", 1);
                    write_frame(
                        shared,
                        conn,
                        &proto::render_error(
                            &Json::Null,
                            "too_large",
                            &format!("frame exceeds {} bytes", shared.cfg.max_frame_bytes),
                        ),
                    );
                }
                return;
            }
        }
    }
}

fn trim_line(line: &[u8]) -> &[u8] {
    let mut line = line;
    while let Some((&last, rest)) = line.split_last() {
        if last == b'\n' || last == b'\r' {
            line = rest;
        } else {
            break;
        }
    }
    line
}

fn handle_line(shared: &Arc<Shared>, conn: &Replier, conn_id: u64, line: &[u8]) {
    let Ok(text) = std::str::from_utf8(line) else {
        write_frame(
            shared,
            conn,
            &proto::render_error(&Json::Null, "parse", "frame is not valid UTF-8"),
        );
        return;
    };
    if text.len() > shared.cfg.max_frame_bytes {
        shared.recorder.metrics().counter_add("serve.too_large", 1);
        write_frame(
            shared,
            conn,
            &proto::render_error(
                &Json::Null,
                "too_large",
                &format!("frame exceeds {} bytes", shared.cfg.max_frame_bytes),
            ),
        );
        return;
    }
    match proto::parse_request(text) {
        Err(e) => {
            shared
                .recorder
                .metrics()
                .counter_add("serve.parse_error", 1);
            write_frame(shared, conn, &proto::render_error(&e.id, e.kind, &e.detail));
        }
        Ok(Request::Stats { id }) => write_frame(shared, conn, &stats_frame(shared, &id)),
        Ok(Request::Snapshot { id }) => match write_snapshot_now(shared) {
            Ok(bytes) => {
                let frame = Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("id".into(), id),
                    ("snapshot_bytes".into(), Json::Num(bytes as f64)),
                ])
                .render();
                write_frame(shared, conn, &frame);
            }
            Err(e) => {
                shared
                    .recorder
                    .metrics()
                    .counter_add("serve.snapshot.write_error", 1);
                write_frame(
                    shared,
                    conn,
                    &proto::render_error(&id, "io", &e.to_string()),
                );
            }
        },
        Ok(Request::Shutdown { id }) => {
            shared.recorder.metrics().counter_add("serve.shutdown", 1);
            let frame = Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("id".into(), id),
                ("draining".into(), Json::Bool(true)),
            ])
            .render();
            // Reply *before* raising the drain flag: once the batcher
            // finishes it shuts every socket down, and this acknowledgement
            // must already be on the wire by then.
            write_frame(shared, conn, &frame);
            shared.begin_drain();
        }
        Ok(Request::ReloadModel { id, path }) => match reload(shared, &path) {
            Ok(checksum) => {
                shared.recorder.metrics().counter_add("serve.reload", 1);
                let frame = Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("id".into(), id),
                    ("reloaded".into(), Json::Bool(true)),
                    (
                        "model_checksum".into(),
                        Json::Str(format!("{checksum:016x}")),
                    ),
                ])
                .render();
                write_frame(shared, conn, &frame);
            }
            Err(e) => {
                shared
                    .recorder
                    .metrics()
                    .counter_add("serve.reload_error", 1);
                write_frame(
                    shared,
                    conn,
                    &proto::render_error(&id, proto::error_kind(&e), &e.to_string()),
                );
            }
        },
        Ok(Request::Estimate {
            id,
            query,
            deadline_ms,
            max_filter_steps,
            idem,
            session,
        }) => admit(
            shared,
            conn,
            conn_id,
            id,
            vec![query],
            deadline_ms,
            max_filter_steps,
            false,
            idem,
            session,
        ),
        Ok(Request::EstimateBatch {
            id,
            queries,
            deadline_ms,
            max_filter_steps,
            idem,
            session,
        }) => admit(
            shared,
            conn,
            conn_id,
            id,
            queries,
            deadline_ms,
            max_filter_steps,
            true,
            idem,
            session,
        ),
    }
}

/// Checksum-verified hot reload. Runtime knobs (parallelism, budgets) are
/// not persisted in model files; carry the active ones over so a reload
/// swaps weights without silently resetting serving policy.
fn reload(shared: &Shared, path: &str) -> Result<u64, NeurScError> {
    let mut new_model = load_model(Path::new(path))?;
    {
        let current = shared.model.read();
        new_model.config.parallelism = current.config.parallelism;
        new_model.config.budget = current.config.budget;
    }
    new_model.set_quantization(shared.cfg.quantize);
    let checksum = model_checksum(&new_model);
    *shared.model.write() = Arc::new(new_model);
    *shared.model_sum.write() = checksum;
    Ok(checksum)
}

fn stats_frame(shared: &Shared, id: &Json) -> String {
    let (pending, served) = {
        let q = lock(&shared.queue);
        (q.items.len(), q.served)
    };
    let checksum = *shared.model_sum.read();
    // The registry export is pretty-printed (it is also written to files);
    // re-render it compactly so the frame stays a single line.
    let metrics = crate::json::parse(&shared.recorder.metrics_json())
        .map(|v| v.render())
        .unwrap_or_else(|_| "null".to_string());
    let mut frame = String::from("{\"ok\":true,\"id\":");
    id.write(&mut frame);
    frame.push_str(&format!(
        ",\"stats\":{{\"pending\":{pending},\"served\":{served},\"draining\":{},\
         \"backend\":\"{}\",\"model_checksum\":\"{checksum:016x}\",\
         \"model_quantized\":\"{}\",\"metrics\":{metrics}}}}}",
        shared.draining(),
        shared.cfg.backend.as_str(),
        shared.cfg.quantize,
    ));
    frame
}

/// Admission: maps the request's deadline/step cap onto a
/// [`FilterBudget`], enforces quarantine, idempotent-replay, the size cap
/// and the queue bound, assigns sequence numbers, and enqueues. Batch
/// requests admit per slot — an oversized slot gets its typed error in
/// place while its siblings run.
#[allow(clippy::too_many_arguments)]
fn admit(
    shared: &Arc<Shared>,
    conn: &Replier,
    conn_id: u64,
    id: Json,
    queries: Vec<Graph>,
    deadline_ms: Option<u64>,
    max_filter_steps: Option<u64>,
    batch: bool,
    idem: Option<u64>,
    session: Option<u64>,
) {
    let metrics = shared.recorder.metrics();
    metrics.counter_add("serve.request", queries.len() as u64);
    if shared.draining() {
        metrics.counter_add("serve.rejected", queries.len() as u64);
        write_frame(
            shared,
            conn,
            &proto::render_error_idem(&id, idem, "draining", "server is shutting down"),
        );
        return;
    }

    // Content digest of the whole request: the journal / quarantine /
    // idempotency identity. Stable across restarts and reconnects.
    let fps: Vec<u64> = queries.iter().map(Graph::content_fingerprint).collect();
    let digest = digest_queries(&fps);
    if shared.cfg.quarantine.contains(&digest) {
        metrics.counter_add("journal.quarantined", 1);
        metrics.counter_add("serve.rejected", queries.len() as u64);
        write_frame(
            shared,
            conn,
            &proto::render_error_idem(
                &id,
                idem,
                "crash_suspect",
                &format!(
                    "request digest {digest:016x} was in flight in ≥2 consecutive \
                     worker crashes and is quarantined"
                ),
            ),
        );
        return;
    }

    // Idempotency key: scoped by the client's session token (stable
    // across reconnects) or this connection's id, over the replay digest
    // (content + budgets) — see [`IdemKey`].
    let scope = session.map_or((false, conn_id), |s| (true, s));
    let idem_key = idem.map(|n| {
        (
            scope.0,
            scope.1,
            n,
            replay_digest(digest, deadline_ms, max_filter_steps),
        )
    });
    match shared.idem_admit(idem_key) {
        IdemState::New => {}
        IdemState::Done(frame) => {
            // A retry of an already-answered request: replay the exact
            // frame, process nothing.
            metrics.counter_add("serve.idem.replayed", 1);
            write_frame(shared, conn, &frame);
            return;
        }
        IdemState::InFlight => {
            // The original is still running; tell the client to back off
            // (its next retry hits the replay path above).
            metrics.counter_add("serve.idem.in_flight", 1);
            write_frame(
                shared,
                conn,
                &proto::render_error_idem(
                    &id,
                    idem,
                    "overloaded",
                    "idempotent request is still being processed; retry",
                ),
            );
            return;
        }
    }
    let budget = request_budget(deadline_ms, max_filter_steps);
    let over_cap = |q: &Graph| {
        shared
            .cfg
            .max_query_vertices
            .is_some_and(|cap| q.n_vertices() > cap)
    };
    let cap_error = |q: &Graph| -> NeurScError {
        NeurScError::Budget {
            detail: format!(
                "admission: query has {} vertices, server cap is {:?}",
                q.n_vertices(),
                shared.cfg.max_query_vertices
            ),
        }
    };

    if !batch {
        let Some(query) = queries.into_iter().next() else {
            shared.idem_finish(idem_key, None);
            write_frame(
                shared,
                conn,
                &proto::render_error_idem(&id, idem, "parse", "estimate needs a query"),
            );
            return;
        };
        if over_cap(&query) {
            metrics.counter_add("serve.rejected", 1);
            // A deterministic admission verdict: cacheable for replay
            // (cached before the write, same as the batcher's replies).
            let frame = proto::render_result_idem(&id, idem, &Err(cap_error(&query)));
            shared.idem_finish(idem_key, Some(&frame));
            write_frame(shared, conn, &frame);
            return;
        }
        let reply = ReplyTo::Direct {
            conn: Arc::clone(conn),
            id,
            idem,
            idem_key,
        };
        enqueue(shared, digest, deadline_ms, vec![(query, budget, reply)]);
        return;
    }

    // Batch: pre-fill over-cap slots, enqueue the rest under one shared
    // aggregator. An empty batch completes immediately.
    let total = queries.len();
    let agg = Arc::new(BatchAgg {
        id,
        idem,
        idem_key,
        conn: Arc::clone(conn),
        slots: Mutex::new((vec![Json::Null; total], total)),
        transient: AtomicBool::new(false),
    });
    let mut to_queue = Vec::new();
    for (slot, query) in queries.into_iter().enumerate() {
        if over_cap(&query) {
            metrics.counter_add("serve.rejected", 1);
            finish_slot(
                shared,
                &agg,
                slot,
                proto::result_to_json(&Err(cap_error(&query))),
            );
        } else {
            let reply = ReplyTo::Slot {
                agg: Arc::clone(&agg),
                slot,
            };
            to_queue.push((query, budget, reply));
        }
    }
    if to_queue.is_empty() {
        if total == 0 {
            let frame = proto::render_batch_idem(&agg.id, idem, Vec::new());
            shared.idem_finish(idem_key, Some(&frame));
            write_frame(shared, conn, &frame);
        }
        return;
    }
    enqueue(shared, digest, deadline_ms, to_queue);
}

/// Anchors the per-request deadline at admission time.
fn request_budget(deadline_ms: Option<u64>, max_filter_steps: Option<u64>) -> Option<FilterBudget> {
    match (deadline_ms, max_filter_steps) {
        (None, None) => None,
        (deadline, steps) => {
            let mut b = steps.map_or(FilterBudget::UNBOUNDED, FilterBudget::steps);
            if let Some(ms) = deadline {
                b = b.with_deadline(Instant::now() + Duration::from_millis(ms));
            }
            Some(b)
        }
    }
}

/// Pushes admitted work, or answers every item with an `overloaded` frame
/// when the queue bound would be exceeded. When a journal is configured,
/// the admission lines hit disk (one fsync for the whole request)
/// *before* the work becomes runnable, so any crash while it runs is
/// attributable to its digest.
fn enqueue(
    shared: &Arc<Shared>,
    digest: u64,
    deadline_ms: Option<u64>,
    items: Vec<(Graph, Option<FilterBudget>, ReplyTo)>,
) {
    let count = items.len();
    // Reserve seqnos under the bound check; the fsync below must not run
    // inside the queue lock.
    let first_seq = {
        let mut q = lock(&shared.queue);
        if q.items.len() + count > shared.cfg.max_pending {
            None
        } else {
            let first = q.next_seq;
            q.next_seq += count as u64;
            Some(first)
        }
    };
    let Some(first_seq) = first_seq else {
        shared
            .recorder
            .metrics()
            .counter_add("serve.rejected", count as u64);
        for (_, _, reply) in items {
            reject(shared, reply, "overloaded", "request queue is full");
        }
        return;
    };
    if let Some(j) = &shared.journal {
        let entries: Vec<(u64, u64)> = (0..count as u64).map(|i| (first_seq + i, digest)).collect();
        if j.admit_many(&entries).is_err() {
            shared
                .recorder
                .metrics()
                .counter_add("serve.journal.write_error", 1);
        }
    }
    let rejected = {
        let mut q = lock(&shared.queue);
        // Re-check under the lock: drain may have begun while we were
        // journaling, and the batcher may already be past its final pass.
        if shared.draining() {
            Some(items)
        } else {
            for (i, (query, budget, reply)) in items.into_iter().enumerate() {
                q.items.push_back(Pending {
                    seq: first_seq + i as u64,
                    digest,
                    query,
                    budget,
                    deadline_ms,
                    reply,
                });
            }
            shared.notify.notify_all();
            None
        }
    };
    let Some(items) = rejected else {
        return;
    };
    if let Some(j) = &shared.journal {
        for i in 0..count as u64 {
            let _ = j.complete(first_seq + i);
        }
    }
    shared
        .recorder
        .metrics()
        .counter_add("serve.rejected", count as u64);
    for (_, _, reply) in items {
        reject(shared, reply, "draining", "server is shutting down");
    }
}

/// Answers one admitted-but-unqueued item with a typed *transient* error
/// frame; the request's idempotency key (if any) is released uncached so
/// a retry is processed fresh.
fn reject(shared: &Shared, reply: ReplyTo, kind: &str, detail: &str) {
    match reply {
        ReplyTo::Direct {
            conn,
            id,
            idem,
            idem_key,
        } => {
            write_frame(
                shared,
                &conn,
                &proto::render_error_idem(&id, idem, kind, detail),
            );
            shared.idem_finish(idem_key, None);
        }
        ReplyTo::Slot { agg, slot } => {
            agg.transient.store(true, Ordering::Relaxed);
            let item = Json::Obj(vec![
                ("ok".into(), Json::Bool(false)),
                ("kind".into(), Json::Str(kind.into())),
                ("detail".into(), Json::Str(detail.into())),
            ]);
            finish_slot(shared, &agg, slot, item);
        }
    }
}

/// Records one finished slot of a batch aggregator and writes the combined
/// frame when it was the last, completing the request's idempotency key
/// (cached for replay unless any slot was transient).
fn finish_slot(shared: &Shared, agg: &Arc<BatchAgg>, slot: usize, result: Json) {
    let done = {
        let mut s = lock(&agg.slots);
        if let Some(cell) = s.0.get_mut(slot) {
            *cell = result;
        }
        s.1 = s.1.saturating_sub(1);
        s.1 == 0
    };
    if done {
        let items = std::mem::take(&mut lock(&agg.slots).0);
        let frame = proto::render_batch_idem(&agg.id, agg.idem, items);
        let key = agg.idem_key;
        // Complete the idempotency key before the write hits the wire: a
        // client retransmitting the instant it sees the reply must find
        // `Done(frame)`, not a still-`InFlight` key.
        if agg.transient.load(Ordering::Relaxed) {
            shared.idem_finish(key, None);
        } else {
            shared.idem_finish(key, Some(&frame));
        }
        write_frame(shared, &agg.conn, &frame);
    }
}

fn batcher_loop(shared: &Arc<Shared>, mut ctx: GraphContext) {
    loop {
        let batch = next_batch(shared);
        if batch.is_empty() {
            break; // drained
        }
        run_batch(shared, &mut ctx, batch);
    }
    // Drained: every queued reply has been written. Persist the final warm
    // state, then shut every connection down — which wakes each blocked
    // reader thread *now*, so drain completes in milliseconds instead of a
    // poll interval.
    if shared.cfg.snapshot_path.is_some() {
        if let Err(e) = write_snapshot_now(shared) {
            shared
                .recorder
                .metrics()
                .counter_add("serve.snapshot.write_error", 1);
            eprintln!("serve: final snapshot write failed: {e}");
        }
    }
    shared.close_connections();
}

/// Blocks until work is available, then coalesces up to `max_batch`
/// requests, waiting at most `batch_wait` for stragglers once it has one.
/// Returns an empty batch exactly when draining and the queue is empty.
fn next_batch(shared: &Arc<Shared>) -> Vec<Pending> {
    let mut q = lock(&shared.queue);
    loop {
        if !q.items.is_empty() {
            let deadline = Instant::now() + shared.cfg.batch_wait;
            while q.items.len() < shared.cfg.max_batch && !shared.draining() {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, timeout) = shared
                    .notify
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                q = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            let take = q.items.len().min(shared.cfg.max_batch);
            return q.items.drain(..take).collect();
        }
        if shared.draining() {
            return Vec::new();
        }
        q = shared
            .notify
            .wait(q)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

fn run_batch(shared: &Arc<Shared>, ctx: &mut GraphContext, batch: Vec<Pending>) {
    // Snapshot the model once per batch: a concurrent reload swaps the
    // Arc for the *next* batch; this one finishes on its snapshot.
    let model = shared.model.read().clone();
    for p in &batch {
        // Digest-keyed hard kill: unlike a contained panic this takes the
        // whole process down, deterministically, in every incarnation —
        // the supervised-restart drills depend on that repeatability. The
        // admission journal line is already durable, so the supervisor
        // will see this digest in flight.
        if shared.cfg.chaos_abort.contains(&p.digest) {
            eprintln!(
                "serve: chaos abort on digest {:016x} (seq {})",
                p.digest, p.seq
            );
            std::process::abort();
        }
    }

    // Route every slot, then run each backend's partition as one batch
    // call. Routing is deterministic in the request (see
    // [`crate::router`]); the default `west` choice produces a single
    // all-slots partition — the exact pre-router code path.
    let routes: Vec<Routed> = batch
        .iter()
        .map(|p| {
            route(
                shared.cfg.backend,
                &shared.cfg.router,
                &p.query,
                &shared.graph,
                p.deadline_ms,
            )
        })
        .collect();
    let sampler = sampler_for_model(&model.config);
    let metrics = shared.recorder.metrics();

    let t0 = Instant::now();
    let mut slotted: Vec<Option<Result<EstimateDetail, NeurScError>>> =
        batch.iter().map(|_| None).collect();
    for backend in [Routed::West, Routed::Sample] {
        let slots: Vec<usize> = (0..batch.len()).filter(|&i| routes[i] == backend).collect();
        if slots.is_empty() {
            continue;
        }
        let (counter, est): (_, &dyn Estimator) = match backend {
            Routed::West => ("router.backend.west", &*model),
            Routed::Sample => ("router.backend.sample", &sampler),
        };
        metrics.counter_add(counter, slots.len() as u64);
        let queries: Vec<Graph> = slots.iter().map(|&i| batch[i].query.clone()).collect();
        let budgets: Vec<Option<FilterBudget>> = slots.iter().map(|&i| batch[i].budget).collect();
        // Remap the seq-keyed chaos hooks onto partition-local slots.
        let mut plan = FaultPlan::new();
        for (part_slot, &i) in slots.iter().enumerate() {
            if shared.cfg.chaos_panic.contains(&batch[i].seq) {
                plan = plan.panic_on(part_slot);
            }
            if shared.cfg.chaos_starve.contains(&batch[i].seq) {
                plan = plan.starve_budget_on(part_slot);
            }
        }
        ctx.faults = plan;
        let part = est.estimate_batch_budgeted(&queries, &shared.graph, ctx, &budgets);
        for (&i, r) in slots.iter().zip(part) {
            slotted[i] = Some(r);
        }
    }
    ctx.faults = FaultPlan::new();
    // Every slot was routed to exactly one partition; the fallback arm is
    // unreachable but keeps library code panic-free.
    let results: Vec<Result<EstimateDetail, NeurScError>> = slotted
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| {
                Err(NeurScError::Panicked {
                    item: 0,
                    message: "router: slot left unrouted".into(),
                })
            })
        })
        .collect();
    metrics.counter_add("serve.batch", 1);
    metrics.observe("serve.batch.size", batch.len() as u64);
    metrics.observe("serve.batch.ns", t0.elapsed().as_nanos() as u64);

    // Count before replying: a client that pipelines `stats` right after
    // receiving its result must observe that result in `served`.
    lock(&shared.queue).served += results.len() as u64;
    for (p, r) in batch.iter().zip(&results) {
        match &p.reply {
            ReplyTo::Direct {
                conn,
                id,
                idem,
                idem_key,
            } => {
                let quantized = shared.cfg.quantize != QuantMode::F32;
                let frame = proto::render_result_idem_q(id, *idem, r, quantized);
                // Cache before the write hits the wire: a client that
                // retransmits the instant it sees the reply must find
                // `Done(frame)`, not a still-`InFlight` key.
                shared.idem_finish(*idem_key, Some(&frame));
                write_frame(shared, conn, &frame);
            }
            ReplyTo::Slot { agg, slot } => {
                let quantized = shared.cfg.quantize != QuantMode::F32;
                finish_slot(shared, agg, *slot, proto::result_to_json_q(r, quantized));
            }
        }
        // Completion is journaled *after* the reply write: a crash between
        // the two over-suspects (safe) rather than under-suspects.
        if let Some(j) = &shared.journal {
            let _ = j.complete(p.seq);
        }
    }
}
