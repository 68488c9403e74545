//! The durability layer: crash-safe persistence for a hidden database.
//!
//! Three pieces, each injectable and separately testable:
//!
//! * [`io`] — the [`StorageIo`] byte surface ([`StdIo`] for the real
//!   filesystem, [`MemIo`] for tests; `testkit::FaultyStorageIo` wraps
//!   either with deterministic disk faults);
//! * [`wal`] — the length-prefixed, checksummed append log for tuple
//!   ingest, with total scan/tail-classification;
//! * [`snapshot`] — versioned, checksummed point-in-time images of the
//!   corpus.
//!
//! [`PersistentBackend`] composes them into a [`SearchBackend`] whose
//! recovery (newest valid snapshot + WAL-tail replay + torn-tail
//! truncation) is bit-identical to an uninterrupted in-memory run, and
//! which degrades to typed read-only — never a panic — when it finds
//! corruption past the last checkpoint. See the "Durability & recovery"
//! section of `docs/ARCHITECTURE.md` for the full state machine.
//!
//! [`SearchBackend`]: crate::SearchBackend

pub mod io;
pub mod persistent;
pub mod snapshot;
pub mod wal;

pub use io::{MemIo, StdIo, StorageIo, SyncPolicy};
pub use persistent::{PersistentBackend, RecoveryReport};
pub use snapshot::SnapshotData;
pub use wal::{WalRecord, WalScan, WalTail};
