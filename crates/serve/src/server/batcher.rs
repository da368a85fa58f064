//! Queue + batcher stage: the bounded request queue and the single thread
//! that coalesces it into micro-batches for [`super::execute`].

use super::execute::run_batch;
use super::reply::Admitted;
use super::{lock, Shared};
use neursc_core::GraphContext;
use neursc_graph::Graph;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// One queued slot of an admitted request.
#[derive(Debug)]
pub(super) struct Pending {
    /// Admission sequence number (global arrival order; chaos hooks key
    /// on it).
    pub(super) seq: u64,
    /// Which slot of `req` this query fills.
    pub(super) slot: usize,
    pub(super) query: Graph,
    pub(super) req: Arc<Admitted>,
}

#[derive(Debug, Default)]
pub(super) struct QueueState {
    pub(super) items: VecDeque<Pending>,
    pub(super) next_seq: u64,
    pub(super) served: u64,
}

pub(super) fn batcher_loop(shared: &Shared, mut ctx: GraphContext) {
    loop {
        let batch = next_batch(shared);
        if batch.is_empty() {
            break; // drained
        }
        run_batch(shared, &mut ctx, batch);
    }
    // Drained: every queued reply has been written. Shut every connection
    // down — which wakes each blocked reader thread *now*, so drain
    // completes in milliseconds instead of a poll interval.
    shared.close_connections();
}

/// Blocks until work is available, then coalesces up to `max_batch`
/// requests, waiting at most `batch_wait` for stragglers once it has one.
/// Returns an empty batch exactly when draining and the queue is empty.
fn next_batch(shared: &Shared) -> Vec<Pending> {
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
