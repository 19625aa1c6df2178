//! The few libc calls the benchmark needs, declared directly (`std`
//! already links libc): process CPU time and peak RSS from
//! `getrusage(2)`, and `poll(2)` for the load generator's event loop.

use std::os::raw::{c_int, c_long, c_short, c_ulong};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    /// File descriptor.
    pub fd: c_int,
    /// Requested events.
    pub events: c_short,
    /// Returned events.
    pub revents: c_short,
}

/// Readable.
pub const POLLIN: c_short = 0x001;
/// Writable.
pub const POLLOUT: c_short = 0x004;
/// Error condition.
pub const POLLERR: c_short = 0x008;
/// Hung up.
pub const POLLHUP: c_short = 0x010;

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

fn rusage() -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a valid, writable `struct rusage` for the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage failed");
    r
}

/// User + system CPU time of the whole process (every thread, live or
/// exited), seconds.
pub fn cpu_seconds() -> f64 {
    let r = rusage();
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    t(&r.utime) + t(&r.stime)
}

/// Peak resident set size of the process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss as f64 / 1024.0
}

/// Waits up to `timeout_ms` (−1 = forever) for readiness on `fds`,
/// filling each `revents`. Interrupted waits report no readiness.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> usize {
    // SAFETY: `fds` is a valid, exclusively borrowed `pollfd` array of
    // the given length for the duration of the call.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    n.max(0) as usize
}
