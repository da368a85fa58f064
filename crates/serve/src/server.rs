//! The resident estimator daemon.
//!
//! One request path, one module per stage (DESIGN.md §10):
//!
//! ```text
//! accept   acceptor ──spawns──▶ reader (per connection): split lines,
//!             │                 parse, answer control verbs in place
//!             ▼
//! admit    size cap, quarantine, idempotent replay, deadline/step budget,
//!             │  journal (fsync) → enqueue one `Pending` per slot
//!             ▼
//! batcher  request queue (Mutex + Condvar) → single batcher thread:
//!             │  coalesce ≤ max_batch within batch_wait
//!             ▼
//! execute  snapshot Arc<NeurSc>, route each slot, fault plan,
//!             │  estimate_batch_budgeted over the shared warm GraphContext
//!             ▼
//! reply    one aggregator per request (a singleton is a batch of one):
//!                the last slot renders the one frame, completes the
//!                idempotency key, then writes to the connection's
//!                writer (Mutex<Stream>)
//! ```
//!
//! Control verbs (`stats`, `reload_model`, `shutdown`) are
//! handled synchronously on the reader thread so they can never queue
//! behind a slow batch. Hot reload loads + checksum-verifies the new
//! file, carries the current runtime knobs (threads, budgets) over, then
//! atomically swaps the `Arc<NeurSc>`; a batch already running keeps its
//! old snapshot and finishes on it. Graceful drain (`shutdown`):
//! admission starts refusing with `draining` frames, the batcher finishes
//! the queue, then shuts every connection's socket down — which wakes
//! blocked reader threads *immediately*, so drain completes in
//! milliseconds rather than a poll interval — and [`Server::join`]
//! returns.
//!
//! Crash safety (DESIGN.md §12) is layered on top: a restarted daemon
//! rebuilds its caches from the graph it just loaded, on the first
//! request that needs them; the admission journal ([`crate::journal`])
//! makes the restart accountable (in-flight requests are identifiable
//! after a crash; digests handed back via [`ServeConfig::quarantine`] are
//! refused with `crash_suspect`),
//! and the idempotency cache deduplicates client retries: a replayed
//! `(session, idem, replay-digest)` key is answered from the cached
//! reply frame instead of re-processed. The key is scoped by the
//! client's session token (or, when none is sent, a server-assigned
//! per-connection id) so distinct clients reusing the same seqno never
//! collide, and the replay digest covers the per-request budgets so a
//! resubmission with a different deadline is a fresh request. The dedup
//! is **best-effort**, bounded by a FIFO cache
//! (`IDEM_CACHE_CAP`, 1024 frames) — sound here because estimate verbs are
//! deterministic and read-only.

mod accept;
mod admit;
mod batcher;
mod execute;
mod reply;

use crate::conn::Stream;
use crate::journal::Journal;
use crate::json::Json;
use crate::router::{BackendChoice, RouterConfig};
use neursc_core::persist::{load_model, model_checksum};
use neursc_core::{GraphContext, NeurSc, NeurScError, Recorder};
use neursc_graph::Graph;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::thread::JoinHandle;
use std::time::Duration;

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
/// tiny batch window, bounded queue, no chaos. The daemon serves the one
/// data graph it was started on, so its profile/feature caches are plain
/// memos (one entry each; see `neursc_graph::cache`) with nothing to
/// configure.
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
    /// Admission sequence numbers whose requests get an injected worker
    /// panic (testing; mirrors [`neursc_core::FaultPlan::panic_on`]).
    pub chaos_panic: Vec<u64>,
    /// Admission sequence numbers whose requests get a starved filter
    /// budget (testing; mirrors [`neursc_core::FaultPlan::starve_budget_on`]).
    pub chaos_starve: Vec<u64>,
    /// Request digests whose batch slot calls `std::process::abort()`
    /// (testing: a deterministic "poison query" that kills the worker in
    /// every incarnation until the supervisor quarantines it). Digest-
    /// keyed, not seq-keyed — admission seqnos reset on restart, the
    /// query's content digest does not.
    pub chaos_abort: Vec<u64>,
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
            chaos_panic: Vec::new(),
            chaos_starve: Vec::new(),
            chaos_abort: Vec::new(),
            journal_path: None,
            quarantine: Vec::new(),
            restarts: 0,
            backend: BackendChoice::West,
            router: RouterConfig::default(),
        }
    }
}

/// Bound on `idempotency key → reply frame` cache entries retained for
/// retry deduplication (FIFO). The bound makes the guarantee best-effort:
/// under sustained load a cached reply can be evicted before a very late
/// retry arrives, and that retry is then re-processed — observable via
/// the `idem.evicted` counter. This is harmless for every current verb (estimates are
/// deterministic and read-only — the re-processed reply is
/// bit-identical), but a future non-idempotent verb must NOT rely on
/// this cache for exactly-once semantics.
pub(crate) const IDEM_CACHE_CAP: usize = 1024;

/// Poison-tolerant lock: a panicking holder already contained its panic
/// (or crashed its own thread); the protected data here (queues, socket
/// writers) stays structurally valid, so we keep serving.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] for the model/checksum `RwLock`s, shared access. Every write to
/// them is one assignment, so a poisoned lock still holds a whole value.
fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// [`read`], exclusive access.
fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Shared writer half of one client connection.
type Replier = Arc<Mutex<Stream>>;

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

/// Everything the daemon's threads share.
struct Shared {
    model: RwLock<Arc<NeurSc>>,
    /// Checksum of the currently-served model, maintained alongside the
    /// `Arc` swap so `stats` never re-serializes the model.
    model_sum: RwLock<u64>,
    graph: Graph,
    recorder: Arc<Recorder>,
    cfg: ServeConfig,
    queue: Mutex<batcher::QueueState>,
    notify: Condvar,
    draining: AtomicBool,
    /// Admission journal (when configured).
    journal: Option<Journal>,
    idem: Mutex<admit::IdemCache>,
    /// Writer halves of every live connection (a reader thread removes
    /// its entry on exit); drained by shutting the sockets down once the
    /// batcher finishes, which wakes blocked readers immediately.
    conns: Mutex<ConnTable>,
    /// Server-assigned connection ids (idempotency scope for clients
    /// that send no session token).
    next_conn: AtomicU64,
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
        for h in [self.acceptor.take(), self.batcher.take()]
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
    model.config.parallelism.threads = cfg.threads.max(1);
    let model_sum = model_checksum(&model);
    let (listener, addr) = accept::bind(&cfg.listen)?;

    let ctx = GraphContext::with_obs(recorder.clone());

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
        recorder,
        cfg,
        queue: Mutex::new(batcher::QueueState::default()),
        notify: Condvar::new(),
        draining: AtomicBool::new(false),
        journal,
        idem: Mutex::new(admit::IdemCache::default()),
        conns: Mutex::new(ConnTable::default()),
        next_conn: AtomicU64::new(1),
    });

    let batcher = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || batcher::batcher_loop(&shared, ctx))
    };
    let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let acceptor = {
        let shared = Arc::clone(&shared);
        let readers = Arc::clone(&readers);
        std::thread::spawn(move || accept::acceptor_loop(&shared, listener, &readers))
    };

    Ok(Server {
        addr,
        shared,
        acceptor: Some(acceptor),
        batcher: Some(batcher),
        readers,
    })
}

/// Checksum-verified hot reload. Runtime knobs (parallelism, budgets) are
/// not persisted in model files; carry the active ones over so a reload
/// swaps weights without silently resetting serving policy.
fn reload(shared: &Shared, path: &str) -> Result<u64, NeurScError> {
    let mut new_model = load_model(Path::new(path))?;
    {
        let current = read(&shared.model);
        new_model.config.parallelism = current.config.parallelism;
        new_model.config.budget = current.config.budget;
    }
    let checksum = model_checksum(&new_model);
    *write(&shared.model) = Arc::new(new_model);
    *write(&shared.model_sum) = checksum;
    Ok(checksum)
}

fn stats_frame(shared: &Shared, id: &Json) -> String {
    let (pending, served) = {
        let q = lock(&shared.queue);
        (q.items.len(), q.served)
    };
    let checksum = *read(&shared.model_sum);
    // The registry export is pretty-printed (it is also written to files);
    // re-render it compactly so the frame stays a single line.
    let metrics = crate::json::parse(&shared.recorder.metrics().snapshot().to_json())
        .map(|v| v.render())
        .unwrap_or_else(|_| "null".to_string());
    let mut frame = String::from("{\"ok\":true,\"id\":");
    id.write(&mut frame);
    frame.push_str(&format!(
        ",\"stats\":{{\"pending\":{pending},\"served\":{served},\"draining\":{},\
         \"backend\":\"{}\",\"model_checksum\":\"{checksum:016x}\",\
         \"metrics\":{metrics}}}}}",
        shared.draining(),
        shared.cfg.backend.as_str(),
    ));
    frame
}
