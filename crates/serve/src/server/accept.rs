//! Accept/read stage: the acceptor thread, one reader thread per
//! connection, line splitting with the frame-size cap, and the control
//! verbs — answered here, on the reader thread, so they never queue behind
//! a batch. Estimate verbs go on to [`super::admit`].

use super::reply::write_frame;
use super::{admit, lock, reload, stats_frame, Listen, Replier, Shared};
use crate::conn::Stream;
use crate::json::Json;
use crate::proto::{self, Request};
use std::io::Read;
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

pub(super) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

pub(super) fn bind(listen: &Listen) -> std::io::Result<(Listener, String)> {
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

pub(super) fn acceptor_loop(
    shared: &Arc<Shared>,
    listener: Listener,
    readers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.draining() {
        let accepted = match &listener {
            Listener::Tcp(l) => l.accept().ok().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().ok().map(|(s, _)| Stream::Unix(s)),
        };
        // The listener is nonblocking: no connection (or a failed accept)
        // is a short sleep, so the drain flag is polled every 2 ms.
        let Some(stream) = accepted else {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        shared.recorder.metrics().counter_add("serve.conn", 1);
        let _ = stream.set_nodelay();
        let Ok(writer) = stream.try_clone() else {
            continue;
        };
        let conn: Replier = Arc::new(Mutex::new(writer));
        // Register under the lock that `close_connections` flips `closed`
        // under: either this connection is in the table before the drain
        // pass (and gets shut down by it), or the drain already ran and we
        // must not serve — a reader spawned now would block in `read` with
        // nothing left to wake it, hanging `Server::join`.
        let registered = {
            let mut table = lock(&shared.conns);
            if !table.closed {
                table.conns.push(Arc::clone(&conn));
            }
            !table.closed
        };
        if !registered {
            let _ = stream.shutdown();
            continue;
        }
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || reader_loop(&shared, stream, &conn, conn_id));
        lock(readers).push(handle);
    }
}

/// Blocks in `read` with no timeout: drain wakes this thread by shutting
/// the socket down (`Ok(0)` / error), not by letting a poll interval
/// expire — see [`Shared::close_connections`].
fn reader_loop(shared: &Shared, mut stream: Stream, conn: &Replier, conn_id: u64) {
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
    shared: &Shared,
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
                    too_large(shared, conn);
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

fn too_large(shared: &Shared, conn: &Replier) {
    shared.recorder.metrics().counter_add("serve.too_large", 1);
    let detail = format!("frame exceeds {} bytes", shared.cfg.max_frame_bytes);
    let frame = proto::render_error(&Json::Null, None, "too_large", &detail);
    write_frame(shared, conn, &frame);
}

/// An `{"ok":true,"id":…,…}` control-verb acknowledgement.
fn ok_frame(id: Json, extra: Vec<(&str, Json)>) -> String {
    let mut fields = vec![("ok".to_string(), Json::Bool(true)), ("id".into(), id)];
    fields.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(fields).render()
}

fn handle_line(shared: &Shared, conn: &Replier, conn_id: u64, line: &[u8]) {
    let metrics = shared.recorder.metrics();
    let Ok(text) = std::str::from_utf8(line) else {
        let frame = proto::render_error(&Json::Null, None, "parse", "frame is not valid UTF-8");
        return write_frame(shared, conn, &frame);
    };
    if text.len() > shared.cfg.max_frame_bytes {
        return too_large(shared, conn);
    }
    let frame = match proto::parse_request(text) {
        Ok(Request::Estimate(req)) => return admit::admit(shared, conn, conn_id, req),
        Err(e) => {
            metrics.counter_add("serve.parse_error", 1);
            proto::render_error(&e.id, None, e.kind, &e.detail)
        }
        Ok(Request::Stats { id }) => stats_frame(shared, &id),
        Ok(Request::Shutdown { id }) => {
            metrics.counter_add("serve.shutdown", 1);
            // Reply *before* raising the drain flag: once the batcher
            // finishes it shuts every socket down, and this acknowledgement
            // must already be on the wire by then.
            let frame = ok_frame(id, vec![("draining", Json::Bool(true))]);
            write_frame(shared, conn, &frame);
            return shared.begin_drain();
        }
        Ok(Request::ReloadModel { id, path }) => match reload(shared, &path) {
            Ok(checksum) => {
                metrics.counter_add("serve.reload", 1);
                let checksum = Json::Str(format!("{checksum:016x}"));
                ok_frame(
                    id,
                    vec![("reloaded", Json::Bool(true)), ("model_checksum", checksum)],
                )
            }
            Err(e) => {
                metrics.counter_add("serve.reload_error", 1);
                proto::render_error(&id, None, proto::error_kind(&e), &e.to_string())
            }
        },
    };
    write_frame(shared, conn, &frame);
}
