//! Process CPU time at nanosecond resolution.
//!
//! `/proc/self/stat` counts CPU time in 10 ms ticks, which is several
//! percent of a one-second pass; the POSIX per-process CPU clock reports
//! the same quantity (user + system, all threads) in nanoseconds.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPU_CLOCK: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn clock_getres(clock: i32, ts: *mut Timespec) -> i32;
}

fn read(f: unsafe extern "C" fn(i32, *mut Timespec) -> i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: both functions only write one `timespec` through the pointer,
    // which points at a live, correctly laid out (two C longs on 64-bit
    // Linux) local; the clock id is a constant the kernel defines.
    let rc = unsafe { f(PROCESS_CPU_CLOCK, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time this process has consumed so far (user + system, every
/// thread), in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    read(clock_gettime)
}

/// Resolution of [`process_cpu_ns`], in nanoseconds.
pub fn process_cpu_resolution_ns() -> u64 {
    read(clock_getres)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_is_fine_grained_and_monotone() {
        assert!(process_cpu_resolution_ns() <= 1_000_000);
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        let b = process_cpu_ns();
        assert!(b > a, "{a} {b} {x}");
    }
}
