//! The few operating-system facilities the standard library lacks: waiting
//! on several sockets at once with a nanosecond timeout (`ppoll`), tighter
//! timer slack for the load generator's thread, and resident-set sizes.
//! Linux only, declared by hand because the workspace builds offline with
//! no external crates.

use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readable data is waiting.
pub const POLLIN: c_short = 0x1;
/// Writing will not block.
pub const POLLOUT: c_short = 0x4;

const PR_SET_TIMERSLACK: c_int = 29;

/// `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// File descriptor.
    pub fd: c_int,
    /// Requested events.
    pub events: c_short,
    /// Returned events.
    pub revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

impl PollFd {
    /// Interest in `events` on `fd`.
    pub fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

/// Waits until one of `fds` is ready or `timeout` passes. Interrupted and
/// failed waits simply return; the caller re-checks its sockets either way.
pub fn poll(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is a valid, exclusively borrowed array of `fds.len()`
    // `pollfd` structs with the C layout, `ts` lives across the call, and a
    // null signal mask means "leave the mask unchanged".
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}

/// Sets the calling thread's timer slack to 1 ns so poll timeouts fire on
/// schedule instead of up to 50 µs late (the Linux default slack).
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // changes a scheduling attribute of the calling thread.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim()
            .trim_end_matches("kB")
            .trim()
            .parse::<f64>()
            .ok()
    })
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Current resident set size of this process in KiB.
pub fn rss_kb() -> f64 {
    status_kb("VmRSS").unwrap_or(f64::NAN)
}

/// `(all, steal)` CPU ticks since boot, summed over CPUs. Steal is time the
/// hypervisor ran something else while this machine wanted the CPU.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// CPU time this process has run, all threads, in seconds. Unlike wall
/// time it leaves out the time the hypervisor ran other guests while this
/// one waited (steal), which on a shared host can exceed 30%.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`, and
    // CLOCK_PROCESS_CPUTIME_ID is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
