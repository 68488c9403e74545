//! Process-wide counters read from `/proc`, and the allocation counter.
//! Readings cover every thread of the process, so on `remote_walk` they
//! include the in-process server. The network counters cover the whole
//! network namespace, which on a benchmark host carries only the
//! loopback traffic of this process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// Counter stripes: threads mostly update their own cache line.
pub const STRIPES: usize = 16;

/// The calling thread's stripe, from its stack address: thread stacks
/// lie at least 2 MiB apart. Allocation-free, so the allocator may call
/// it.
#[must_use]
pub fn stripe() -> usize {
    let marker = 0u8;
    (std::ptr::addr_of!(marker) as usize >> 21) % STRIPES
}

/// A counter on its own cache line.
#[repr(align(64))]
struct Padded(AtomicU64);

/// Heap allocations counted while [`count_allocations`] is on.
static ALLOCS: [Padded; STRIPES] = [const { Padded(AtomicU64::new(0)) }; STRIPES];
static COUNTING: AtomicBool = AtomicBool::new(false);

/// The system allocator, counting allocations while enabled. The binary
/// installs it as the global allocator; without it the count stays 0.
pub struct CountingAlloc;

impl CountingAlloc {
    fn tally() {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS[stripe()].0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::tally();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::tally();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::tally();
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation goes through this type), as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off (a relaxed flag: the count is a
/// statistic and publishes no other data).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Whether allocations are being counted.
#[must_use]
pub fn counting_allocations() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

/// Allocations counted so far.
#[must_use]
pub fn allocations() -> u64 {
    ALLOCS.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
}

/// A reading of the process's CPU time and I/O counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// User plus system CPU seconds of all threads.
    pub cpu_s: f64,
    /// `read`-family syscalls (`syscr`). Socket I/O through `send` and
    /// `recv`, which `std::net` uses, is not counted.
    pub syscr: u64,
    /// `write`-family syscalls (`syscw`), with the same exclusion.
    pub syscw: u64,
    /// Heap allocations (see [`CountingAlloc`]).
    pub allocs: u64,
    /// Voluntary context switches of the live threads.
    pub switches: u64,
    /// TCP segments sent (`OutSegs`, whole namespace).
    pub tcp_segments: u64,
    /// Bytes sent on the loopback interface.
    pub loopback_bytes: u64,
}

impl ProcSample {
    /// Reads the counters now.
    ///
    /// # Errors
    /// When `/proc/self` cannot be read or parsed.
    pub fn now() -> Result<Self, String> {
        let cpu_s = cpu_seconds()?;
        let io = std::fs::read_to_string("/proc/self/io")
            .map_err(|e| format!("reading /proc/self/io: {e}"))?;
        let field = |name: &str| -> Result<u64, String> {
            io.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(": ")?.trim().parse().ok())
                .ok_or_else(|| format!("missing {name} in /proc/self/io"))
        };
        let mut switches = 0;
        let tasks =
            std::fs::read_dir("/proc/self/task").map_err(|e| format!("listing threads: {e}"))?;
        for task in tasks.flatten() {
            // A thread that exits between listing and reading is skipped.
            if let Ok(status) = std::fs::read_to_string(task.path().join("status")) {
                switches += voluntary_switches(&status)?;
            }
        }
        let snmp = std::fs::read_to_string("/proc/net/snmp")
            .map_err(|e| format!("reading /proc/net/snmp: {e}"))?;
        let mut tcp = snmp.lines().filter(|l| l.starts_with("Tcp:"));
        let (names, values) = (tcp.next(), tcp.next());
        let tcp_segments = names
            .zip(values)
            .and_then(|(n, v)| {
                let i = n.split_whitespace().position(|f| f == "OutSegs")?;
                v.split_whitespace().nth(i)?.parse().ok()
            })
            .ok_or("missing Tcp OutSegs in /proc/net/snmp")?;
        let dev = std::fs::read_to_string("/proc/net/dev")
            .map_err(|e| format!("reading /proc/net/dev: {e}"))?;
        // `lo: rx_bytes rx_packets … (8 receive fields) tx_bytes …`
        let loopback_bytes = dev
            .lines()
            .find_map(|l| {
                l.trim_start().strip_prefix("lo:")?.split_whitespace().nth(8)?.parse().ok()
            })
            .ok_or("missing lo in /proc/net/dev")?;
        Ok(Self {
            cpu_s,
            syscr: field("syscr")?,
            syscw: field("syscw")?,
            allocs: allocations(),
            switches,
            tcp_segments,
            loopback_bytes,
        })
    }

    /// Counter growth from `earlier` to `self`.
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            cpu_s: self.cpu_s - earlier.cpu_s,
            syscr: self.syscr - earlier.syscr,
            syscw: self.syscw - earlier.syscw,
            allocs: self.allocs - earlier.allocs,
            switches: self.switches.saturating_sub(earlier.switches),
            tcp_segments: self.tcp_segments - earlier.tcp_segments,
            loopback_bytes: self.loopback_bytes - earlier.loopback_bytes,
        }
    }
}

/// User plus system CPU seconds of all threads so far.
///
/// # Errors
/// When `/proc/self/stat` cannot be read or parsed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let tail = stat.rsplit_once(')').map(|(_, t)| t).ok_or("malformed /proc/self/stat")?;
    let ticks: Option<Vec<u64>> =
        tail.split_whitespace().skip(11).take(2).map(|f| f.parse().ok()).collect();
    match ticks.as_deref() {
        Some([utime, stime]) => Ok((utime + stime) as f64 / USER_HZ),
        _ => Err("missing utime/stime in /proc/self/stat".into()),
    }
}

fn voluntary_switches(status: &str) -> Result<u64, String> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:")?.trim().parse().ok())
        .ok_or_else(|| "missing voluntary_ctxt_switches in a thread status".to_string())
}

/// Voluntary context switches of the calling thread so far. A thread
/// that starts and ends inside a window adds its own growth, which the
/// process-wide reading at the window's end no longer sees.
///
/// # Errors
/// When `/proc/thread-self/status` cannot be read.
pub fn thread_switches() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/thread-self/status")
        .map_err(|e| format!("reading /proc/thread-self/status: {e}"))?;
    voluntary_switches(&status)
}

/// CPU nanoseconds the calling thread has run (`/proc/thread-self/schedstat`).
///
/// # Errors
/// When the file cannot be read or parsed.
pub fn thread_cpu_ns() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .map_err(|e| format!("reading /proc/thread-self/schedstat: {e}"))?;
    stat.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| "malformed /proc/thread-self/schedstat".to_string())
}

/// Peak resident set size of the process so far, in MiB (`VmHWM`).
///
/// # Errors
/// When `/proc/self/status` cannot be read or lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse().ok())
        .ok_or("missing VmHWM in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}
