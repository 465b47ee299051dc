//! The thread's own CPU clock, which the end-to-end timings use.
//!
//! The benchmark is one thread that never sleeps, blocks or does I/O,
//! so on a dedicated core its CPU time equals wall time. On a shared
//! VM, wall time also counts the moments the hypervisor runs someone
//! else on this vCPU (steal): a few such stalls per second are enough
//! to move `pkt_p99_us` by half between otherwise identical runs. CPU
//! time leaves them out and keeps everything the program itself does.

use std::ffi::c_long;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Nanoseconds of CPU time the calling thread has used.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (64-bit Linux
    // layout) for the whole call, and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "Linux always provides CLOCK_THREAD_CPUTIME_ID");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}
