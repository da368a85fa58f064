//! Deterministic work-stealing fan-out for the estimation pipeline.
//!
//! One primitive covers both fan-out axes (queries within a batch,
//! substructures within a query): map `f` over `0..n` with a fixed number
//! of scoped worker threads pulling indices from a shared atomic counter,
//! and return results **in index order**. Scheduling is nondeterministic;
//! the result vector is not — every downstream reduction (summing
//! per-substructure counts, concatenating per-query estimates) consumes
//! the indexed vector, so a fixed seed produces bit-identical output at any
//! thread count. `neursc_workloads::ground_truth` calls it for exact
//! counting too.
//!
//! **Panic containment.** [`parallel_map_caught`] wraps each item in
//! `catch_unwind`, so one poisoned item yields an [`ItemPanic`] in its slot
//! while every other item completes normally — on the inline path *and* the
//! threaded path, making containment semantics thread-count-invariant.
//! Caveat: `catch_unwind` cannot intercept anything under
//! `panic = "abort"` (see KNOWN_ISSUES.md); no profile in this workspace
//! sets it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A contained panic from one work item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemPanic {
    /// Index of the item that panicked.
    pub index: usize,
    /// The panic payload when it was a `&str`/`String`, else a placeholder.
    pub message: String,
}

impl std::fmt::Display for ItemPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work item {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for ItemPanic {}

fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Maps `f` over `0..n` with up to `threads` workers, returning results in
/// index order. `threads <= 1` (or `n <= 1`) runs inline on the caller's
/// stack with no spawning or locking.
///
/// A panicking item re-panics on the caller's stack (after all other items
/// finish); use [`parallel_map_caught`] to contain panics per item instead.
pub fn parallel_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(n);
    for r in parallel_map_caught(n, threads, f) {
        match r {
            Ok(v) => out.push(v),
            Err(p) => std::panic::panic_any(p.message),
        }
    }
    out
}

/// [`parallel_map_indexed`] with per-item panic containment: item `i`'s
/// slot holds `Err(ItemPanic)` if `f(i)` panicked, and every other slot is
/// computed normally. Results are in index order at any thread count.
///
/// `f` is wrapped in [`AssertUnwindSafe`]: the closures passed here read
/// shared immutable state (`&self`, prepared inputs) and build their
/// results from scratch, so a unwound item cannot leave broken invariants
/// behind for other items to observe.
pub fn parallel_map_caught<T, F>(n: usize, threads: usize, f: F) -> Vec<Result<T, ItemPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run = |i: usize| -> Result<T, ItemPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| ItemPanic {
            index: i,
            message: payload_message(payload),
        })
    };
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        return (0..n).map(run).collect();
    }
    // One slot per item: workers never contend on a slot, and `Mutex` keeps
    // the API safe without `unsafe` scatter-writes. No item panics while it
    // holds its slot (`run` has caught it), so poisoning cannot occur.
    let slots: Vec<Mutex<Option<Result<T, ItemPanic>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(run(i));
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| unreachable!("work item {i} skipped by the index counter"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 4, 9] {
            let out = parallel_map_indexed(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_items_yield_empty() {
        assert!(parallel_map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn every_index_is_processed_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        let calls = AtomicUsize::new(0);
        let out = parallel_map_indexed(257, 4, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
    }

    #[test]
    fn caught_map_isolates_panicking_items() {
        for threads in [1, 2, 4] {
            let out = parallel_map_caught(10, threads, |i| {
                if i == 3 {
                    panic!("poisoned item {i}");
                }
                i * 2
            });
            assert_eq!(out.len(), 10);
            for (i, r) in out.iter().enumerate() {
                if i == 3 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.index, 3);
                    assert!(p.message.contains("poisoned item 3"), "{p}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 2, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn caught_map_handles_non_string_payloads() {
        let out = parallel_map_caught(1, 1, |_| -> usize { std::panic::panic_any(42u64) });
        let p = out[0].as_ref().unwrap_err();
        assert_eq!(p.message, "non-string panic payload");
    }

    #[test]
    fn all_items_panicking_still_returns_all_slots() {
        let out = parallel_map_caught(5, 2, |i| -> usize { panic!("item {i}") });
        assert_eq!(out.len(), 5);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap_err().index, i);
        }
    }

    #[test]
    fn uncaught_map_repanics_on_poisoned_item() {
        let r = std::panic::catch_unwind(|| {
            parallel_map_indexed(4, 2, |i| {
                if i == 2 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(r.is_err());
    }
}
