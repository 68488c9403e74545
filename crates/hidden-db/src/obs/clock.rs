//! Clock confinement: the one reviewed module where wall-clock time may
//! be read.
//!
//! The determinism contract (ARCHITECTURE.md, lint rule HDB-O01) bans
//! `Instant` / `SystemTime` everywhere except benches and this file.
//! Timing telemetry still wants real durations, so the two are reconciled
//! through the [`Clock`] trait: components that time things hold an
//! `Option<Arc<dyn Clock>>`, record `now_nanos()` deltas when one is
//! installed, and record nothing (or zeros) when not. Production wires in
//! [`WallClock`]; deterministic tests wire in [`ManualClock`] and advance
//! it by hand — same code path, reproducible numbers.
//!
//! A clock reading may only ever flow into *telemetry* (histograms, span
//! timestamps); never into a query result. That is an invariant of the
//! call sites, kept reviewable by confining the raw reads here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond source for telemetry.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds since the clock's origin. Only the deltas between two
    /// readings are meaningful.
    fn now_nanos(&self) -> u64;
}

/// The real wall clock, as nanoseconds since construction. This is the
/// only production `Instant` read in the workspace (HDB-O01).
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose origin is now.
    #[must_use]
    pub fn new() -> Self {
        Self { origin: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-advanced clock for deterministic tests: `now_nanos` returns
/// exactly what the test last set, on every run.
#[derive(Debug, Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    /// A manual clock at nanosecond 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the absolute reading.
    pub fn set(&self, nanos: u64) {
        self.0.store(nanos, Ordering::Relaxed);
    }

    /// Advances the reading by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.0.fetch_add(nanos, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn manual_clock_is_deterministic() {
        let c = ManualClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance(5);
        c.advance(7);
        assert_eq!(c.now_nanos(), 12);
        c.set(3);
        assert_eq!(c.now_nanos(), 3);
        // Usable behind the trait object components hold.
        let dyn_clock: Arc<dyn Clock> = Arc::new(c);
        assert_eq!(dyn_clock.now_nanos(), 3);
    }

    #[test]
    fn wall_clock_is_monotonic_from_its_origin() {
        let c = WallClock::default();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }
}
