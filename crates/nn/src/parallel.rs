//! Process-wide kernel-parallelism settings and the row-blocked fan-out
//! primitive the tensor kernels are built on.
//!
//! Parallel kernels must be **bit-deterministic**: a fixed seed has to
//! produce identical estimates at any thread count. The primitive here
//! guarantees that by construction — the output is split into contiguous
//! row blocks, each row is computed by exactly one closure invocation with
//! an unchanged sequential inner loop, and no reduction ever crosses rows.
//! Changing the thread count only changes *which worker* computes a row,
//! never the floating-point operation order within it.
//!
//! Settings are process-wide atomics rather than per-call parameters so the
//! kernels stay drop-in (`Tensor::matmul` keeps its signature and every
//! existing call site gains the parallel path). Configure them once at
//! startup from `NeurScConfig::parallelism` / `--threads`.

use std::sync::atomic::{AtomicUsize, Ordering};

static THREADS: AtomicUsize = AtomicUsize::new(1);
static MIN_PARALLEL_ROWS: AtomicUsize = AtomicUsize::new(256);

/// Sets the kernel thread count and the minimum number of output rows a
/// kernel needs before it fans out (below the threshold, thread spawn
/// overhead dwarfs the work). `threads` is clamped to at least 1.
pub fn configure(threads: usize, min_parallel_rows: usize) {
    THREADS.store(threads.max(1), Ordering::Relaxed);
    MIN_PARALLEL_ROWS.store(min_parallel_rows.max(1), Ordering::Relaxed);
}

/// Current kernel thread count.
pub fn threads() -> usize {
    THREADS.load(Ordering::Relaxed)
}

/// Current row threshold below which kernels stay sequential.
pub fn min_parallel_rows() -> usize {
    MIN_PARALLEL_ROWS.load(Ordering::Relaxed)
}

/// Runs `f(first_row_index, group_slice)` for every contiguous group of up
/// to `chunk` `cols`-wide rows of `out`, fanning out over contiguous row
/// blocks when the configured thread count and the row count warrant it.
/// Each row is written by exactly one call. Kernels that process several
/// independent output rows per inner-loop sweep (the multi-row matmul) use
/// `chunk > 1` to amortize weight loads and hide add latency. Thread
/// blocks are aligned to `chunk`, so only the trailing group can be short.
/// Grouping never affects values — every row's arithmetic is
/// self-contained — so results stay bit-identical at any thread count.
pub(crate) fn for_each_row_chunk(
    rows: usize,
    cols: usize,
    chunk: usize,
    out: &mut [f32],
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    debug_assert_eq!(out.len(), rows * cols);
    debug_assert!(chunk > 0);
    if rows == 0 || cols == 0 {
        return;
    }
    let t = threads().min(rows);
    if t <= 1 || rows < min_parallel_rows() {
        for (g, block) in out.chunks_mut(chunk * cols).enumerate() {
            f(g * chunk, block);
        }
        return;
    }
    let rows_per_block = rows.div_ceil(t).div_ceil(chunk) * chunk;
    // A worker panic propagates out of `scope` itself (std scoped threads
    // re-raise on join), so the outer Result is always Ok.
    let _ = crossbeam::thread::scope(|scope| {
        for (b, tblock) in out.chunks_mut(rows_per_block * cols).enumerate() {
            let f = &f;
            scope.spawn(move |_| {
                for (g, block) in tblock.chunks_mut(chunk * cols).enumerate() {
                    f(b * rows_per_block + g * chunk, block);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(threads: usize, min_rows: usize, rows: usize, cols: usize) -> Vec<f32> {
        let (old_t, old_m) = (super::threads(), super::min_parallel_rows());
        configure(threads, min_rows);
        let mut out = vec![0.0f32; rows * cols];
        for_each_row_chunk(rows, cols, 1, &mut out, |i, row| {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = (i * cols + c) as f32;
            }
        });
        configure(old_t, old_m);
        out
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let seq = run_with(1, 1, 37, 5);
        for t in [2, 3, 4, 8] {
            assert_eq!(run_with(t, 1, 37, 5), seq, "thread count {t} diverged");
        }
    }

    fn run_chunked(threads: usize, chunk: usize, rows: usize, cols: usize) -> Vec<f32> {
        let (old_t, old_m) = (super::threads(), super::min_parallel_rows());
        configure(threads, 1);
        let mut out = vec![0.0f32; rows * cols];
        for_each_row_chunk(rows, cols, chunk, &mut out, |i0, block| {
            for (r, row) in block.chunks_exact_mut(cols).enumerate() {
                for (c, slot) in row.iter_mut().enumerate() {
                    *slot = ((i0 + r) * cols + c) as f32;
                }
            }
        });
        configure(old_t, old_m);
        out
    }

    #[test]
    fn chunked_covers_every_row_once_at_any_thread_count() {
        let seq = run_chunked(1, 4, 37, 5);
        assert_eq!(seq[36 * 5 + 4], (36 * 5 + 4) as f32, "last row written");
        for t in [2, 3, 4, 8] {
            for chunk in [1, 3, 4, 7] {
                assert_eq!(
                    run_chunked(t, chunk, 37, 5),
                    seq,
                    "threads={t} chunk={chunk} diverged"
                );
            }
        }
    }

    #[test]
    fn threshold_keeps_small_work_sequential() {
        // Just exercises the sequential path; correctness is the same.
        let out = run_with(4, 1000, 10, 3);
        assert_eq!(out[29], 29.0);
    }

    #[test]
    fn empty_shapes_are_noops() {
        let mut out: Vec<f32> = Vec::new();
        for_each_row_chunk(0, 4, 1, &mut out, |_, _| unreachable!());
        for_each_row_chunk(4, 0, 1, &mut out, |_, _| unreachable!());
    }

    #[test]
    fn configure_clamps_to_one() {
        let (old_t, old_m) = (threads(), min_parallel_rows());
        configure(0, 0);
        assert_eq!(threads(), 1);
        assert_eq!(min_parallel_rows(), 1);
        configure(old_t, old_m);
    }
}
