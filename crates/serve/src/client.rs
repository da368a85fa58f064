//! A small blocking client for the serve protocol.
//!
//! Used by the integration tests, the load generator and the CI smoke
//! script; it is also a reasonable starting point for embedding. One
//! request per [`Client::request`] call, or pipeline freely with
//! [`Client::send_line`] / [`Client::recv_line`] and match responses to
//! requests by `id`.
//!
//! [`RetryClient`] wraps a [`Client`] with reconnect + exponential
//! backoff (deterministic seeded jitter) on *transient* failures —
//! `overloaded` frames, connection reset/refused, EOF mid-reply — and
//! attaches a per-request idempotency seqno (`idem`) scoped by a random
//! per-client session token (`session`), which the server deduplicates
//! on: a retry after a reconnect is answered from the server's replay
//! cache rather than re-processed, and a reply is never mis-attributed.
//! The session token keeps concurrent clients (which all number their
//! requests from 1) from colliding in that cache. Dedup is best-effort —
//! the server's cache is bounded — which is sound for the deterministic,
//! read-only estimate verbs.

use crate::conn::Stream;
use crate::json::Json;
use crate::proto::graph_to_json;
use neursc_graph::Graph;
use std::io::{Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Read timeout applied when a request carries no deadline: long enough
/// for any sane batch, short enough that a wedged server fails a test
/// instead of hanging it.
const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Slack added on top of a request's `deadline_ms` when deriving the read
/// timeout: covers queueing, batching and the reply's round trip. A dead
/// server is then detected in `deadline + slack` rather than the old
/// fixed 30 s.
pub const DEADLINE_SLACK: Duration = Duration::from_secs(2);

/// A blocking line-protocol client.
#[derive(Debug)]
pub struct Client {
    stream: Stream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects over TCP (`host:port`). Reads time out after 30 s by
    /// default; [`RetryClient`] tightens this for deadline-carrying
    /// requests.
    pub fn connect_tcp(addr: &str) -> std::io::Result<Client> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        let c = Client {
            stream: Stream::Tcp(s),
            buf: Vec::new(),
        };
        c.stream.set_read_timeout(Some(DEFAULT_READ_TIMEOUT))?;
        Ok(c)
    }

    /// Connects to a Unix-domain socket path.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> std::io::Result<Client> {
        let s = UnixStream::connect(path)?;
        let c = Client {
            stream: Stream::Unix(s),
            buf: Vec::new(),
        };
        c.stream.set_read_timeout(Some(DEFAULT_READ_TIMEOUT))?;
        Ok(c)
    }

    /// Overrides how long a single read may block (`None` = forever).
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(dur)
    }

    /// Sends one frame (the newline is appended here).
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        // One write per frame: splitting the newline into a second write
        // would cost a Nagle/delayed-ACK round trip per request.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.stream.write_all(framed.as_bytes())?;
        self.stream.flush()
    }

    /// Receives one frame (without its newline). `UnexpectedEof` means the
    /// server closed the connection.
    pub fn recv_line(&mut self) -> std::io::Result<String> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return String::from_utf8(line).map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 frame")
                });
            }
            let mut chunk = [0u8; 8192];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Sends one frame and waits for the next response frame (only valid
    /// when no other requests are in flight on this connection).
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.send_line(line)?;
        self.recv_line()
    }

    /// [`Client::request`] with the read timeout derived from the
    /// request's own deadline (`deadline_ms` + [`DEADLINE_SLACK`]) instead
    /// of the fixed default — a dead server surfaces promptly for
    /// tight-deadline requests.
    fn request_deadline(
        &mut self,
        line: &str,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<String> {
        let timeout = deadline_ms
            .map(|ms| Duration::from_millis(ms) + DEADLINE_SLACK)
            .unwrap_or(DEFAULT_READ_TIMEOUT);
        self.stream.set_read_timeout(Some(timeout))?;
        self.request(line)
    }
}

/// Where a [`RetryClient`] (re)connects to.
#[derive(Debug, Clone)]
enum Target {
    Tcp(String),
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Retry knobs for [`RetryClient`]. Backoff is exponential from
/// `backoff_base` up to `backoff_cap`, with deterministic jitter seeded
/// by `jitter_seed` (up to +25% per delay) so a fleet of clients with
/// distinct seeds never reconnects in lockstep — and a test with a fixed
/// seed replays the exact same schedule.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per request before the last error is returned.
    pub max_attempts: u32,
    /// First backoff delay; doubles per failed attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            jitter_seed: 0x5eed_cafe,
        }
    }
}

/// A [`Client`] that survives server restarts: reconnects and retries on
/// transient failures, and stamps every estimate request with an
/// idempotency seqno so the server can deduplicate retries.
#[derive(Debug)]
pub struct RetryClient {
    target: Target,
    policy: RetryPolicy,
    conn: Option<Client>,
    /// xorshift64 state for the jitter stream.
    rng: u64,
    /// Next idempotency seqno to stamp.
    next_idem: u64,
    /// Session token scoping this client's idempotency seqnos on the
    /// server (random per client, stable across reconnects).
    session: u64,
}

/// Whether an I/O error is worth a reconnect + retry: the connection
/// dying (reset, EOF mid-reply, refused while the server restarts) or a
/// read timing out, as opposed to a protocol-level failure.
fn is_transient_io(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::NotFound
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// A random session token from OS entropy (`RandomState`'s per-instance
/// hash keys — std-only, no rand dependency). Deliberately independent of
/// the deterministic `jitter_seed`: two clients constructed with
/// identical policies must still occupy disjoint idempotency scopes on
/// the server, or one could be served the other's cached reply. Masked to
/// 53 bits so the token survives the protocol's f64 number encoding
/// exactly.
fn random_session_token() -> u64 {
    use std::hash::{BuildHasher as _, Hasher as _};
    let raw = std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish();
    raw & ((1u64 << 53) - 1)
}

impl RetryClient {
    /// A retrying client for a TCP address.
    pub fn tcp(addr: &str, policy: RetryPolicy) -> RetryClient {
        Self::new(Target::Tcp(addr.to_string()), policy)
    }

    /// A retrying client for a Unix-domain socket path.
    #[cfg(unix)]
    pub fn unix(path: &Path, policy: RetryPolicy) -> RetryClient {
        Self::new(Target::Unix(path.to_path_buf()), policy)
    }

    fn new(target: Target, policy: RetryPolicy) -> RetryClient {
        let rng = policy.jitter_seed.max(1); // xorshift must not be 0
        RetryClient {
            target,
            policy,
            conn: None,
            rng,
            next_idem: 1,
            session: random_session_token(),
        }
    }

    /// The session token stamped on this client's requests. Every client
    /// numbers its requests from 1; the token keeps those seqnos from
    /// colliding in the server's replay cache across clients.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Estimates one query with retries; `id` is the correlation id for
    /// the frame, budgets as in [`estimate_frame`]. Returns the
    /// reply frame (which may still be a typed *non-transient* error).
    pub fn estimate(
        &mut self,
        id: u64,
        query: &Graph,
        deadline_ms: Option<u64>,
        max_filter_steps: Option<u64>,
    ) -> std::io::Result<String> {
        let idem = self.next_idem;
        self.next_idem += 1;
        let frame = estimate_frame(
            id,
            Queries::Single(query),
            deadline_ms,
            max_filter_steps,
            Some(idem),
            Some(self.session),
        );
        self.request_idem(&frame, idem, deadline_ms)
    }

    /// Estimates a batch of queries with retries.
    pub fn estimate_batch(&mut self, id: u64, queries: &[Graph]) -> std::io::Result<String> {
        let idem = self.next_idem;
        self.next_idem += 1;
        let frame = estimate_frame(
            id,
            Queries::Batch(queries),
            None,
            None,
            Some(idem),
            Some(self.session),
        );
        self.request_idem(&frame, idem, None)
    }

    /// The retry loop: send the *same* frame (same `idem`) until a
    /// non-transient reply arrives or attempts run out. Replies carrying a
    /// different `idem` than ours are impossible on a fresh connection
    /// (strict request/reply per connection) and are treated as a hard
    /// protocol error rather than silently mis-attributed.
    fn request_idem(
        &mut self,
        frame: &str,
        idem: u64,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<String> {
        let mut last_err = std::io::Error::other("retry loop made no attempt");
        for attempt in 1..=self.policy.max_attempts {
            if attempt > 1 {
                std::thread::sleep(self.backoff(attempt - 1));
            }
            let conn = match self.connect() {
                Ok(c) => c,
                Err(e) if is_transient_io(&e) => {
                    last_err = e;
                    continue;
                }
                Err(e) => return Err(e),
            };
            match conn.request_deadline(frame, deadline_ms) {
                Ok(reply) => {
                    if let Ok(v) = crate::json::parse(&reply) {
                        if let Some(echo) = v.get("idem").and_then(Json::as_u64) {
                            if echo != idem {
                                self.conn = None;
                                return Err(std::io::Error::new(
                                    std::io::ErrorKind::InvalidData,
                                    format!("reply for idem {echo}, expected {idem}"),
                                ));
                            }
                        }
                        let kind = v.get("kind").and_then(Json::as_str);
                        if v.get("ok").and_then(Json::as_bool) == Some(false)
                            && matches!(kind, Some("overloaded") | Some("draining"))
                        {
                            // Typed transient rejection: back off and retry
                            // the same idem.
                            last_err = std::io::Error::other(format!(
                                "transient server rejection: {}",
                                kind.unwrap_or("?")
                            ));
                            continue;
                        }
                    }
                    return Ok(reply);
                }
                Err(e) if is_transient_io(&e) => {
                    // The connection is in an unknown state (a reply may
                    // be half-read): drop it and reconnect.
                    self.conn = None;
                    last_err = e;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    fn connect(&mut self) -> std::io::Result<&mut Client> {
        if self.conn.is_none() {
            let c = match &self.target {
                Target::Tcp(addr) => Client::connect_tcp(addr)?,
                #[cfg(unix)]
                Target::Unix(path) => Client::connect_unix(path)?,
            };
            self.conn = Some(c);
        }
        self.conn
            .as_mut()
            .ok_or_else(|| std::io::Error::other("unreachable: connection just set"))
    }

    /// Exponential backoff with deterministic jitter: `base · 2^(n-1)`
    /// capped, plus up to +25% from the seeded xorshift stream.
    fn backoff(&mut self, failures: u32) -> Duration {
        let factor = 1u32
            .checked_shl(failures.saturating_sub(1))
            .unwrap_or(u32::MAX);
        let base = self
            .policy
            .backoff_base
            .checked_mul(factor)
            .map_or(self.policy.backoff_cap, |d| d.min(self.policy.backoff_cap));
        // xorshift64
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        base + base.mul_f64((x % 256) as f64 / 1024.0)
    }
}

/// The queries of an estimate frame, in the shape they travel in.
#[derive(Debug, Clone, Copy)]
pub enum Queries<'a> {
    /// An `estimate` frame: one `query`, answered by one unwrapped result.
    Single(&'a Graph),
    /// An `estimate_batch` frame: a `queries` array, answered by one
    /// result per slot.
    Batch(&'a [Graph]),
}

/// Builds an `estimate` request frame without budgets or idempotency.
pub fn estimate_request(id: u64, query: &Graph) -> String {
    estimate_frame(id, Queries::Single(query), None, None, None, None)
}

/// Builds an `estimate` / `estimate_batch` request frame: per-request
/// budgets, and an idempotency seqno with the session token scoping it
/// (see the module docs), each sent only when given.
pub fn estimate_frame(
    id: u64,
    queries: Queries<'_>,
    deadline_ms: Option<u64>,
    max_filter_steps: Option<u64>,
    idem: Option<u64>,
    session: Option<u64>,
) -> String {
    let (verb, key, payload) = match queries {
        Queries::Single(q) => ("estimate", "query", graph_to_json(q)),
        Queries::Batch(qs) => (
            "estimate_batch",
            "queries",
            Json::Arr(qs.iter().map(graph_to_json).collect()),
        ),
    };
    let mut fields = vec![
        ("verb".to_string(), Json::Str(verb.into())),
        ("id".to_string(), Json::Num(id as f64)),
        (key.to_string(), payload),
    ];
    for (key, value) in [
        ("deadline_ms", deadline_ms),
        ("max_filter_steps", max_filter_steps),
        ("idem", idem),
        ("session", session),
    ] {
        if let Some(n) = value {
            fields.push((key.into(), Json::Num(n as f64)));
        }
    }
    Json::Obj(fields).render()
}

/// Builds a `reload_model` request frame.
pub fn reload_request(id: u64, path: &Path) -> String {
    Json::Obj(vec![
        ("verb".into(), Json::Str("reload_model".into())),
        ("id".into(), Json::Num(id as f64)),
        ("path".into(), Json::Str(path.display().to_string())),
    ])
    .render()
}

/// Builds a `stats` request frame.
pub fn stats_request(id: u64) -> String {
    Json::Obj(vec![
        ("verb".into(), Json::Str("stats".into())),
        ("id".into(), Json::Num(id as f64)),
    ])
    .render()
}

/// Builds a `shutdown` request frame.
pub fn shutdown_request(id: u64) -> String {
    Json::Obj(vec![
        ("verb".into(), Json::Str("shutdown".into())),
        ("id".into(), Json::Num(id as f64)),
    ])
    .render()
}
