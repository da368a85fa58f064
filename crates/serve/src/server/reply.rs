//! Reply/write stage: one aggregator per admitted request, one frame per
//! request, one `write_all` per frame.

use super::admit::IdemKey;
use super::{lock, Replier, Shared};
use crate::json::Json;
use crate::proto::{self, Shape};
use neursc_match::FilterBudget;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// One admitted estimate request: what its slots run under, and the
/// aggregator that answers it. A singleton is a batch of one — the only
/// thing [`Shape`] decides is how the finished frame is rendered. Slots
/// fill as the batcher completes them (possibly across several
/// micro-batches); the last one sends the reply.
#[derive(Debug)]
pub(super) struct Admitted {
    pub(super) id: Json,
    pub(super) shape: Shape,
    /// Client idempotency seqno, echoed in the reply frame.
    pub(super) idem: Option<u64>,
    /// Full idempotency cache key (when the request carried a seqno).
    pub(super) idem_key: Option<IdemKey>,
    pub(super) conn: Replier,
    /// Content digest of the request (journal and `chaos_abort` key;
    /// shared by every slot).
    pub(super) digest: u64,
    /// Per-request filtering budget from `deadline_ms`/`max_filter_steps`
    /// (`None` = the model's configured budget).
    pub(super) budget: Option<FilterBudget>,
    /// The *declared* deadline, kept separately from the anchored
    /// [`FilterBudget`]: the `auto` router costs against the declaration,
    /// not wall-clock remaining, so routing is deterministic in the
    /// request.
    pub(super) deadline_ms: Option<u64>,
    /// `(per-slot results, slots still outstanding)`.
    pub(super) slots: Mutex<(Vec<Json>, usize)>,
    /// Set when any slot got a transient rejection (`overloaded`,
    /// `draining`): the frame must then not be cached for idempotent
    /// replay — the retry deserves a fresh attempt.
    pub(super) transient: AtomicBool,
}

/// Writes one `\n`-terminated frame to a connection; a failed write means
/// the client is gone, which must never take the server down. Frame and
/// terminator go out in a single `write_all` so each reply is one TCP
/// segment (two would re-introduce Nagle/delayed-ACK stalls).
pub(super) fn write_frame(shared: &Shared, conn: &Replier, frame: &str) {
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

/// Records one finished slot and, when it was the last, sends the reply.
pub(super) fn finish_slot(shared: &Shared, req: &Admitted, slot: usize, result: Json) {
    let items = {
        let mut s = lock(&req.slots);
        if let Some(cell) = s.0.get_mut(slot) {
            *cell = result;
        }
        s.1 = s.1.saturating_sub(1);
        (s.1 == 0).then(|| std::mem::take(&mut s.0))
    };
    if let Some(items) = items {
        send_reply(shared, req, items);
    }
}

/// Renders the request's one frame from its finished slots, completes its
/// idempotency key (cached for replay unless any slot was transient) and
/// writes the frame.
pub(super) fn send_reply(shared: &Shared, req: &Admitted, mut items: Vec<Json>) {
    let frame = match req.shape {
        Shape::Single => proto::render_single(&req.id, req.idem, items.pop().unwrap_or(Json::Null)),
        Shape::Batch => proto::render_batch(&req.id, req.idem, items),
    };
    // Complete the idempotency key before the write hits the wire: a
    // client retransmitting the instant it sees the reply must find
    // `Done(frame)`, not a still-`InFlight` key.
    let cacheable = !req.transient.load(Ordering::Relaxed);
    shared.idem_finish(req.idem_key, cacheable.then_some(frame.as_str()));
    write_frame(shared, &req.conn, &frame);
}

/// Answers one admitted-but-unqueued slot with a typed *transient* error;
/// the request's idempotency key (if any) is then released uncached so a
/// retry is processed fresh.
pub(super) fn reject(shared: &Shared, req: &Admitted, slot: usize, kind: &str, detail: &str) {
    req.transient.store(true, Ordering::Relaxed);
    finish_slot(shared, req, slot, proto::error_item(kind, detail));
}
