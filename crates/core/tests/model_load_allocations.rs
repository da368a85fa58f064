//! A corrupt model file costs no allocation larger than itself.
//!
//! The loader parses a model's body while a second thread hashes it, so the
//! parser reads text whose checksum has not been compared yet. No count in
//! that text may size a buffer before it is checked: a tensor header that
//! claims ≈ 2^40 values, or a layer width that would take all memory to
//! build, must come back as a typed error after allocating no more than
//! the file's own bytes (which the read itself takes).
//!
//! One test function in its own test binary: the allocation counter is
//! process-wide.

use neursc_core::persist::{load_model, model_to_string};
use neursc_core::{NeurSc, NeurScConfig};
use neursc_graph::hash::fnv1a64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Records the largest allocation or growth made while `ARMED` is set.
struct Largest;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// atomics and allocate nothing.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// `text` with the first `from` replaced by `to` in its body, under the
/// edited body's own checksum when `rehash`, else under the original's.
fn edited(text: &str, from: &str, to: &str, rehash: bool) -> String {
    let body = text.splitn(3, '\n').nth(2).unwrap();
    assert!(body.contains(from), "{from:?} not in the body");
    let new_body = body.replacen(from, to, 1);
    let sum = fnv1a64(if rehash { &new_body } else { body }.as_bytes());
    format!("neursc-model v1\nchecksum {sum:016x}\n{new_body}")
}

#[test]
fn corrupt_counts_allocate_no_more_than_the_file() {
    let dir = std::env::temp_dir().join(format!("neursc_load_alloc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.txt");
    let text = model_to_string(&NeurSc::new(NeurScConfig::small(), 3));
    let shape = text.lines().find(|l| l.starts_with("tensor ")).unwrap();
    let cases = [
        // ≈ 2^40 values claimed for a line that holds a few hundred.
        (shape, "tensor 1048576 1048576", false),
        (shape, "tensor 1048576 1048576", true),
        // A layer ≈ 10^10 wide: building it would take all memory.
        ("gin_hidden = ", "gin_hidden = 99999999", false),
    ];
    for (from, to, rehash) in cases {
        let file = edited(&text, from, to, rehash);
        std::fs::write(&path, &file).unwrap();
        LARGEST.store(0, Ordering::Relaxed);
        ARMED.store(true, Ordering::Relaxed);
        let err = load_model(&path).err();
        ARMED.store(false, Ordering::Relaxed);
        let err = err.unwrap_or_else(|| panic!("{to} (rehashed: {rehash}) loaded"));
        if rehash {
            assert!(err.is_parse(), "{to}: expected a parse error, got: {err}");
        } else {
            assert!(err.is_corruption(), "{to}: expected corruption, got: {err}");
        }
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(
            largest <= file.len(),
            "{to} (rehashed: {rehash}): an allocation of {largest} bytes for a {}-byte file",
            file.len()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
