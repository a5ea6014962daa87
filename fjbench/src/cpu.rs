//! CPU time consumed by this process, all threads, living and exited.

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Seconds of CPU time this process has used so far. The kernel charges a
/// thread only while it runs on a virtual CPU, so time the hypervisor gave
/// to other guests is not in it — which is what makes it repeatable on a
/// shared host where wall-clock time is not.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which points at a live, correctly laid out local; the clock id is a
    // constant every Linux kernel since 2.6.12 accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}
