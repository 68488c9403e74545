//! Readiness notification for the serving layer: a thin, std-only
//! abstraction over `epoll` (Linux) with a portable `poll(2)` fallback,
//! plus a self-pipe-based [`TerminationSignal`] for graceful shutdown.
//!
//! # Why this exists
//!
//! The paper's estimators are query-budget-bound, so a hidden-DB
//! front-end lives or dies on how cheaply it moves probes. A serving
//! loop that re-reads every connection on a 2 ms read timeout — a *poll
//! sweep* — costs every idle connection ~500 timed `read` syscalls per
//! second and caps the server at dozens of connections. This module
//! inverts that: connections are registered with the OS readiness
//! facility and cost **zero** syscalls until bytes actually arrive.
//!
//! # Design
//!
//! * **One-shot semantics.** Registration and re-arming use
//!   `EPOLLONESHOT` (emulated in the `poll` backend by disarming an
//!   entry when it fires): once a readiness event for a token is
//!   delivered, the fd stays silent until [`Reactor::rearm`] is called.
//!   That makes serving race-free with several threads waiting at once —
//!   a connection one thread woke for cannot fire again until that
//!   thread has finished its turn and re-armed it.
//! * **One event per wait.** [`Reactor::wait`] returns at most one event,
//!   so a thread serves what it woke for while the other ready fds stay
//!   queued for the other waiters.
//! * **No `libc` dependency.** The workspace is offline and std-only, so
//!   the handful of syscalls used here are hand-declared `extern "C"`
//!   items. This is the only FFI surface in the workspace; hdb-lint's
//!   `HDB-U03` rule pins `extern` declarations to this file.
//! * **Portability.** [`Reactor::new`] picks `epoll` on Linux and the
//!   `poll` backend elsewhere; [`Reactor::with_kind`] forces the
//!   portable backend so tests exercise both paths on any host.
//!
//! Errors are surfaced as [`std::io::Error`]; callers in the serving
//! layer translate them into typed `HdbError`s. `EINTR` never escapes
//! [`Reactor::wait`] — it is reported as no event so callers re-check
//! their shutdown flags.

use std::collections::BTreeMap;
use std::ffi::{c_int, c_ulong, c_void};
use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::Mutex;
use std::time::Duration;

// ---------------------------------------------------------------------------
// FFI surface (the only one in the workspace; see HDB-U03)

#[cfg(target_os = "linux")]
mod linux_ffi {
    use super::{c_int, EpollEvent};

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(
            epfd: c_int,
            op: c_int,
            fd: c_int,
            event: *mut EpollEvent,
        ) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }
}

mod unix_ffi {
    use super::{c_int, c_ulong, c_void, PollFd};

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    }
}

#[cfg(test)]
mod test_ffi {
    use super::c_int;

    extern "C" {
        pub fn raise(sig: c_int) -> c_int;
    }
}

// epoll constants (asm-generic ABI; stable since Linux 2.6).
#[cfg(target_os = "linux")]
mod epoll_consts {
    use super::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLONESHOT: u32 = 1 << 30;
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

const F_SETFL: c_int = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: c_int = 0o4000;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: c_int = 0x0004; // BSD family (macOS, FreeBSD, …)

const SIGINT: c_int = 2;
const SIGTERM: c_int = 15;
/// `SIG_ERR` — `signal(2)`'s failure return, a pointer-sized all-ones.
const SIG_ERR: usize = usize::MAX;

/// Kernel-facing `struct epoll_event`. On x86-64 the kernel ABI packs it
/// (12 bytes, alignment 1); every other architecture uses the natural
/// layout.
#[cfg(target_os = "linux")]
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
pub(crate) struct EpollEvent {
    events: u32,
    data: u64,
}

/// Kernel-facing `struct pollfd` (identical layout on every unix).
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

/// Converts a `-1`-on-error syscall return into an [`io::Result`].
fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Milliseconds argument for `epoll_wait`/`poll`: `None` blocks forever.
/// Non-zero sub-millisecond durations round up so a caller-requested
/// bounded wait never degenerates into a busy spin.
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis();
            if ms == 0 && !d.is_zero() {
                1
            } else {
                c_int::try_from(ms).unwrap_or(c_int::MAX)
            }
        }
    }
}

/// Marks `fd` non-blocking. Pipes carry no other status flags, so a
/// plain `F_SETFL O_NONBLOCK` is exact here.
fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl with F_SETFL only mutates the open-file status flags
    // of `fd`, which the caller owns; no memory is passed.
    cvt(unsafe { unix_ffi::fcntl(fd, F_SETFL, O_NONBLOCK) }).map(|_| ())
}

/// Creates a pipe; each end is made non-blocking as requested.
fn new_pipe(nonblocking_rx: bool, nonblocking_tx: bool) -> io::Result<(RawFd, RawFd)> {
    let mut fds: [c_int; 2] = [-1, -1];
    // SAFETY: pipe(2) writes exactly two fds into the provided array,
    // which is live for the duration of the call.
    cvt(unsafe { unix_ffi::pipe(fds.as_mut_ptr()) })?;
    let (rx, tx) = (fds[0], fds[1]);
    let setup = || -> io::Result<()> {
        if nonblocking_rx {
            set_nonblocking(rx)?;
        }
        if nonblocking_tx {
            set_nonblocking(tx)?;
        }
        Ok(())
    };
    if let Err(e) = setup() {
        close_fd(rx);
        close_fd(tx);
        return Err(e);
    }
    Ok((rx, tx))
}

/// Best-effort close (errors on close are unrecoverable anyway).
fn close_fd(fd: RawFd) {
    // SAFETY: close(2) takes the descriptor by value; the callers only
    // pass fds they own and never use them again afterwards.
    let _ = unsafe { unix_ffi::close(fd) };
}

// ---------------------------------------------------------------------------
// Public API

/// Which readiness conditions a registration watches for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd becomes readable (or hits EOF / an error).
    pub readable: bool,
    /// Wake when the fd becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Self = Self { readable: true, writable: false };
    /// Writable only.
    pub const WRITE: Self = Self { readable: false, writable: true };
    /// Readable or writable.
    pub const READ_WRITE: Self = Self { readable: true, writable: true };
}

/// One delivered readiness event.
///
/// Error and hang-up conditions are folded into `readable` (and
/// `writable` for errors): the handler's next `read`/`write` on the fd
/// then surfaces the concrete `io::Error`, which is the only place the
/// error detail is available anyway.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The token supplied at registration.
    pub token: u64,
    /// The fd is readable, at EOF, hung up, or errored.
    pub readable: bool,
    /// The fd is writable or errored.
    pub writable: bool,
}

/// Backend selection for [`Reactor::with_kind`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReactorKind {
    /// `epoll` on Linux, the portable `poll` backend elsewhere.
    #[default]
    Auto,
    /// Force the portable `poll` backend (tests exercise it everywhere).
    Portable,
}

/// A one-shot readiness notifier over raw fds.
///
/// All methods take `&self`. Any number of threads may block in
/// [`Reactor::wait`] at once, each event going to exactly one of them,
/// while others register and re-arm.
pub struct Reactor {
    backend: BackendImpl,
}

enum BackendImpl {
    #[cfg(target_os = "linux")]
    Epoll(Epoll),
    Poll(PortablePoll),
}

impl Reactor {
    /// Opens the platform-preferred backend.
    ///
    /// # Errors
    /// The underlying `epoll_create1`/`pipe` failure.
    pub fn new() -> io::Result<Self> {
        Self::with_kind(ReactorKind::Auto)
    }

    /// Opens a specific backend (see [`ReactorKind`]).
    ///
    /// # Errors
    /// The underlying `epoll_create1`/`pipe` failure.
    pub fn with_kind(kind: ReactorKind) -> io::Result<Self> {
        let backend = match kind {
            #[cfg(target_os = "linux")]
            ReactorKind::Auto => BackendImpl::Epoll(Epoll::new()?),
            #[cfg(not(target_os = "linux"))]
            ReactorKind::Auto => BackendImpl::Poll(PortablePoll::new()?),
            ReactorKind::Portable => BackendImpl::Poll(PortablePoll::new()?),
        };
        Ok(Self { backend })
    }

    /// The backend actually in use, for diagnostics (`"epoll"`/`"poll"`).
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(_) => "epoll",
            BackendImpl::Poll(_) => "poll",
        }
    }

    /// Registers `fd` with a caller-chosen `token`, armed once.
    ///
    /// The next matching readiness change delivers one [`Event`] carrying
    /// `token`, after which the fd is disarmed until [`Self::rearm`].
    ///
    /// # Errors
    /// The underlying `epoll_ctl` failure (e.g. the fd is already
    /// registered, or is not pollable).
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(e) => e.register(fd, token, interest),
            BackendImpl::Poll(p) => p.arm(fd, token, interest),
        }
    }

    /// Re-arms a previously registered fd for one more event.
    ///
    /// # Errors
    /// The underlying `epoll_ctl` failure (e.g. the fd was deregistered
    /// or closed in the meantime).
    pub fn rearm(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(e) => e.rearm(fd, token, interest),
            BackendImpl::Poll(p) => p.arm(fd, token, interest),
        }
    }

    /// Removes `fd` from the watch set. Must be called before the fd is
    /// closed; harmless if the fd was never registered.
    pub fn deregister(&self, fd: RawFd) {
        match &self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(e) => e.deregister(fd),
            BackendImpl::Poll(p) => p.deregister(fd),
        }
    }

    /// Blocks until an armed fd is ready (or `timeout` elapses; `None`
    /// waits forever) and returns one event, disarming its fd. Other
    /// ready fds stay armed for the next wait, on this thread or another.
    ///
    /// Returns `None` on timeout **and** on `EINTR`, so a caller's loop
    /// re-checks its shutdown condition either way.
    ///
    /// # Errors
    /// Unrecoverable `epoll_wait`/`poll` failures (never `EINTR`).
    pub fn wait(&self, timeout: Option<Duration>) -> io::Result<Option<Event>> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(e) => e.wait(timeout),
            BackendImpl::Poll(p) => p.wait(timeout),
        }
    }
}

// ---------------------------------------------------------------------------
// epoll backend (Linux)

#[cfg(target_os = "linux")]
struct Epoll {
    epfd: RawFd,
}

#[cfg(target_os = "linux")]
impl Epoll {
    fn new() -> io::Result<Self> {
        use epoll_consts::EPOLL_CLOEXEC;
        // SAFETY: epoll_create1 takes no pointers; the returned fd is
        // owned by this struct and closed exactly once in Drop.
        let epfd = cvt(unsafe { linux_ffi::epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Self { epfd })
    }

    fn events_bits(interest: Interest) -> u32 {
        use epoll_consts::{EPOLLIN, EPOLLONESHOT, EPOLLOUT, EPOLLRDHUP};
        let mut bits = EPOLLONESHOT;
        if interest.readable {
            bits |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.writable {
            bits |= EPOLLOUT;
        }
        bits
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        // SAFETY: `ev` is a live, correctly laid out epoll_event for the
        // duration of the call; epoll_ctl only reads it.
        cvt(unsafe { linux_ffi::epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
    }

    fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(epoll_consts::EPOLL_CTL_ADD, fd, Self::events_bits(interest), token)
    }

    fn rearm(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(epoll_consts::EPOLL_CTL_MOD, fd, Self::events_bits(interest), token)
    }

    fn deregister(&self, fd: RawFd) {
        // A non-null event pointer keeps pre-2.6.9 kernel semantics happy.
        let _ = self.ctl(epoll_consts::EPOLL_CTL_DEL, fd, 0, 0);
    }

    fn wait(&self, timeout: Option<Duration>) -> io::Result<Option<Event>> {
        use epoll_consts::{EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: `ev` is one live epoll_event; with maxevents = 1,
        // epoll_wait writes at most that one entry.
        let n = unsafe { linux_ffi::epoll_wait(self.epfd, &mut ev, 1, timeout_ms(timeout)) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(None);
            }
            return Err(err);
        }
        if n == 0 {
            return Ok(None);
        }
        // Copy out of the (possibly packed) struct before using.
        let bits = ev.events;
        Ok(Some(Event {
            token: ev.data,
            readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
            writable: bits & (EPOLLOUT | EPOLLERR) != 0,
        }))
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        close_fd(self.epfd);
    }
}

// ---------------------------------------------------------------------------
// Portable poll(2) backend

/// One watched fd in the portable backend. `armed` emulates
/// `EPOLLONESHOT`: cleared when an event is delivered, set again by
/// `arm`.
struct PollEntry {
    token: u64,
    interest: Interest,
    armed: bool,
}

/// `poll(2)`-based backend. A self-pipe wakes a blocked `wait` whenever
/// the watch set changes from another thread, so `arm` from another
/// thread is picked up immediately rather than after the current `poll`
/// returns.
struct PortablePoll {
    entries: Mutex<BTreeMap<RawFd, PollEntry>>,
    /// Held across snapshot, `poll(2)` and harvest, so one waiter polls
    /// at a time: two pollers could each drain a wake byte the other's
    /// stale snapshot needed. (The other waiters queue here, so their
    /// timeout starts once they hold it.) Holds the fd delivered last,
    /// where the next delivery starts looking, so one busy fd cannot
    /// starve the rest.
    poller: Mutex<RawFd>,
    wake_rx: RawFd,
    wake_tx: RawFd,
}

impl PortablePoll {
    fn new() -> io::Result<Self> {
        let (wake_rx, wake_tx) = new_pipe(true, true)?;
        Ok(Self {
            entries: Mutex::new(BTreeMap::new()),
            poller: Mutex::new(-1),
            wake_rx,
            wake_tx,
        })
    }

    /// Registers or re-arms — the portable backend does not distinguish.
    fn arm(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self.entries.lock() {
            Ok(mut map) => {
                map.insert(fd, PollEntry { token, interest, armed: true });
            }
            Err(_) => return Err(io::Error::other("reactor watch set poisoned")),
        }
        self.wake();
        Ok(())
    }

    fn deregister(&self, fd: RawFd) {
        if let Ok(mut map) = self.entries.lock() {
            map.remove(&fd);
        }
        self.wake();
    }

    /// Nudges a blocked `wait`. A full pipe is fine — the byte already in
    /// flight wakes it just the same.
    fn wake(&self) {
        let byte = 1u8;
        // SAFETY: the write end is a live non-blocking pipe fd owned by
        // this struct; the 1-byte buffer is live for the call.
        let _ = unsafe { unix_ffi::write(self.wake_tx, (&raw const byte).cast(), 1) };
    }

    /// Drains any pending wake bytes (non-blocking read end).
    fn drain_wake(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: the read end is a live non-blocking pipe fd owned
            // by this struct; the buffer is live for the call.
            let n = unsafe {
                unix_ffi::read(self.wake_rx, buf.as_mut_ptr().cast(), buf.len())
            };
            if n <= 0 {
                return;
            }
        }
    }

    fn wait(&self, timeout: Option<Duration>) -> io::Result<Option<Event>> {
        let Ok(mut last) = self.poller.lock() else {
            return Err(io::Error::other("reactor poller poisoned"));
        };
        // Snapshot the armed set: (fd, token) parallel to the pollfd vec.
        let mut fds: Vec<PollFd> =
            vec![PollFd { fd: self.wake_rx, events: POLLIN, revents: 0 }];
        let mut snapshot: Vec<(RawFd, u64)> = Vec::new();
        match self.entries.lock() {
            Ok(map) => {
                for (&fd, entry) in map.iter().filter(|(_, e)| e.armed) {
                    let mut events = 0i16;
                    if entry.interest.readable {
                        events |= POLLIN;
                    }
                    if entry.interest.writable {
                        events |= POLLOUT;
                    }
                    fds.push(PollFd { fd, events, revents: 0 });
                    snapshot.push((fd, entry.token));
                }
            }
            Err(_) => return Err(io::Error::other("reactor watch set poisoned")),
        }
        let nfds = c_ulong::try_from(fds.len()).unwrap_or(c_ulong::MAX);
        // SAFETY: `fds` is a live Vec of pollfd entries; poll reads and
        // writes only within its fds.len() elements.
        let n = unsafe { unix_ffi::poll(fds.as_mut_ptr(), nfds, timeout_ms(timeout)) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(None);
            }
            return Err(err);
        }
        if n == 0 {
            return Ok(None);
        }
        if fds.first().is_some_and(|w| w.revents != 0) {
            self.drain_wake();
        }
        let Ok(mut map) = self.entries.lock() else {
            return Err(io::Error::other("reactor watch set poisoned"));
        };
        // The snapshot is in fd order: deliver the first ready fd after
        // the one delivered last, wrapping around. Entries deregistered
        // or re-registered mid-wait are skipped.
        let pick = fds
            .iter()
            .skip(1)
            .zip(&snapshot)
            .filter(|&(pfd, &(fd, token))| {
                pfd.revents != 0 && map.get(&fd).is_some_and(|e| e.token == token && e.armed)
            })
            .min_by_key(|&(_, &(fd, _))| (fd <= *last, fd));
        let Some((pfd, &(fd, token))) = pick else { return Ok(None) };
        if let Some(entry) = map.get_mut(&fd) {
            entry.armed = false;
        }
        *last = fd;
        let r = pfd.revents;
        Ok(Some(Event {
            token,
            readable: r & (POLLIN | POLLERR | POLLHUP) != 0,
            writable: r & (POLLOUT | POLLERR) != 0,
        }))
    }
}

impl Drop for PortablePoll {
    fn drop(&mut self) {
        close_fd(self.wake_rx);
        close_fd(self.wake_tx);
    }
}

// ---------------------------------------------------------------------------
// Termination signal (SIGINT / SIGTERM) via the self-pipe trick

/// Set by the signal handler; read by [`TerminationSignal::fired`].
static TERM_FIRED: AtomicBool = AtomicBool::new(false);
/// Write end of the self-pipe, published for the handler. `-1` until
/// [`TerminationSignal::install`] runs.
static TERM_WAKE_TX: AtomicI32 = AtomicI32::new(-1);
/// Guards against double installation.
static TERM_INSTALLED: AtomicBool = AtomicBool::new(false);

/// The actual signal handler. Signal handlers may only call
/// async-signal-safe functions; atomics and `write(2)` both qualify.
extern "C" fn on_termination(_sig: c_int) {
    TERM_FIRED.store(true, Ordering::SeqCst);
    let fd = TERM_WAKE_TX.load(Ordering::SeqCst);
    if fd >= 0 {
        let byte = 1u8;
        // SAFETY: write(2) is async-signal-safe; `fd` is the live,
        // non-blocking write end of the self-pipe (published before the
        // handlers were installed and intentionally never closed).
        let _ = unsafe { unix_ffi::write(fd, (&raw const byte).cast(), 1) };
    }
}

/// Process-wide SIGINT/SIGTERM notification, installable once.
///
/// The handler does the minimum that is async-signal-safe: set a flag
/// and write one byte to a pipe. [`TerminationSignal::wait`] blocks the
/// calling thread on the pipe's read end, so a server's main thread can
/// park without polling and still wake instantly on Ctrl-C or a
/// `kill -TERM` (the graceful-shutdown path the `hdb-server` binary
/// uses).
pub struct TerminationSignal {
    rx: RawFd,
}

impl TerminationSignal {
    /// Installs the SIGINT/SIGTERM handlers and returns the waiter.
    ///
    /// The pipe's write end is intentionally leaked: the handler stays
    /// installed for the life of the process and must always have a live
    /// fd to write to.
    ///
    /// # Errors
    /// `AlreadyExists` on a second call; otherwise the underlying
    /// `pipe`/`signal` failure.
    pub fn install() -> io::Result<Self> {
        if TERM_INSTALLED.swap(true, Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "termination handler already installed",
            ));
        }
        // Blocking read end (wait() parks on it), non-blocking write end
        // (the handler must never block).
        let (rx, tx) = new_pipe(false, true)?;
        TERM_WAKE_TX.store(tx, Ordering::SeqCst);
        for sig in [SIGINT, SIGTERM] {
            // SAFETY: installing a handler that only touches atomics and
            // write(2) (both async-signal-safe); `on_termination` has the
            // exact sighandler_t ABI.
            let prev = unsafe { unix_ffi::signal(sig, on_termination) };
            if prev == SIG_ERR {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(Self { rx })
    }

    /// Whether SIGINT or SIGTERM has been received.
    #[must_use]
    pub fn fired(&self) -> bool {
        TERM_FIRED.load(Ordering::SeqCst)
    }

    /// Blocks the calling thread until a termination signal arrives.
    /// Returns immediately if one already has.
    pub fn wait(&self) {
        loop {
            if self.fired() {
                return;
            }
            let mut buf = [0u8; 8];
            // SAFETY: the read end is a live blocking pipe fd owned by
            // this struct; the buffer is live for the call.
            let n = unsafe { unix_ffi::read(self.rx, buf.as_mut_ptr().cast(), buf.len()) };
            if n >= 0 {
                return; // woken by the handler (or the pipe vanished)
            }
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue; // EINTR: the flag check at the top decides
            }
            return; // unrecoverable read error: treat as woken
        }
    }
}

impl Drop for TerminationSignal {
    fn drop(&mut self) {
        // Only the read end: the write end must outlive us for the
        // still-installed handler (see install()).
        close_fd(self.rx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn both_kinds() -> Vec<Reactor> {
        vec![
            Reactor::with_kind(ReactorKind::Auto).unwrap(),
            Reactor::with_kind(ReactorKind::Portable).unwrap(),
        ]
    }

    const TICK: Duration = Duration::from_millis(10);
    const PATIENCE: Duration = Duration::from_secs(5);

    /// Waits until an event for `token` arrives (readiness can be
    /// delivered across several wakeups).
    fn wait_for(r: &Reactor, token: u64) -> Event {
        for _ in 0..500 {
            if let Some(ev) = r.wait(Some(TICK)).unwrap().filter(|e| e.token == token) {
                return ev;
            }
        }
        panic!("no event for token {token} within {PATIENCE:?}");
    }

    #[test]
    fn accept_readiness_is_delivered_on_both_backends() {
        for r in both_kinds() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            let addr = listener.local_addr().unwrap();
            r.register(listener.as_raw_fd(), 7, Interest::READ).unwrap();

            let _client = TcpStream::connect(addr).unwrap();
            let ev = wait_for(&r, 7);
            assert!(ev.readable, "{}: accept readiness must read", r.backend_name());
            let _ = listener.accept().unwrap();
            r.deregister(listener.as_raw_fd());
        }
    }

    #[test]
    fn oneshot_disarms_until_rearm() {
        for r in both_kinds() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            let addr = listener.local_addr().unwrap();
            r.register(listener.as_raw_fd(), 1, Interest::READ).unwrap();

            let _c1 = TcpStream::connect(addr).unwrap();
            wait_for(&r, 1);
            // Event delivered, fd disarmed: a second connection must stay
            // silent until rearm — even though the fd is still readable.
            let _c2 = TcpStream::connect(addr).unwrap();
            for _ in 0..5 {
                let ev = r.wait(Some(TICK)).unwrap();
                assert!(ev.is_none_or(|e| e.token != 1), "{}: disarmed fd fired", r.backend_name());
            }
            r.rearm(listener.as_raw_fd(), 1, Interest::READ).unwrap();
            let ev = wait_for(&r, 1);
            assert!(ev.readable);
            r.deregister(listener.as_raw_fd());
        }
    }

    #[test]
    fn writable_interest_and_peer_hangup_read_as_events() {
        for r in both_kinds() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let client = TcpStream::connect(addr).unwrap();
            let (server_side, _) = listener.accept().unwrap();
            server_side.set_nonblocking(true).unwrap();

            // A fresh socket with an empty send buffer is writable.
            r.register(server_side.as_raw_fd(), 3, Interest::WRITE).unwrap();
            let ev = wait_for(&r, 3);
            assert!(ev.writable, "{}", r.backend_name());

            // Peer hangup surfaces as readable (read then returns 0).
            r.rearm(server_side.as_raw_fd(), 3, Interest::READ).unwrap();
            drop(client);
            let ev = wait_for(&r, 3);
            assert!(ev.readable, "{}", r.backend_name());
            r.deregister(server_side.as_raw_fd());
        }
    }

    #[test]
    fn data_readiness_carries_the_registration_token() {
        for r in both_kinds() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let mut client = TcpStream::connect(addr).unwrap();
            let (server_side, _) = listener.accept().unwrap();
            server_side.set_nonblocking(true).unwrap();
            r.register(server_side.as_raw_fd(), 42, Interest::READ).unwrap();

            client.write_all(b"ping").unwrap();
            let ev = wait_for(&r, 42);
            assert!(ev.readable);
            assert_eq!(ev.token, 42);
            r.deregister(server_side.as_raw_fd());
        }
    }

    #[test]
    fn wait_times_out_empty_when_nothing_is_ready() {
        for r in both_kinds() {
            let ev = r.wait(Some(Duration::from_millis(5))).unwrap();
            assert!(ev.is_none(), "{}", r.backend_name());
        }
    }

    #[test]
    fn termination_signal_installs_once_and_wakes_on_sigterm() {
        let sig = TerminationSignal::install().unwrap();
        assert!(!sig.fired());
        // A second installation must be refused, not double-installed.
        let second = TerminationSignal::install();
        assert_eq!(second.err().map(|e| e.kind()), Some(io::ErrorKind::AlreadyExists));

        // SAFETY: raising SIGTERM in-process with our no-op-beyond-flag
        // handler installed above; the default action is replaced.
        let rc = unsafe { test_ffi::raise(SIGTERM) };
        assert_eq!(rc, 0);
        sig.wait(); // must return rather than hang
        assert!(sig.fired());
    }
}
