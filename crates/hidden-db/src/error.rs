//! Error types for the hidden-database substrate.

use std::fmt;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, HdbError>;

/// Errors surfaced by the hidden-database substrate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HdbError {
    /// A schema was structurally invalid (empty, duplicate names, fanout
    /// bounds, mismatched numeric interpretation, …).
    InvalidSchema(String),
    /// A tuple did not conform to the schema (wrong arity or value out of
    /// domain) or duplicated an existing tuple.
    InvalidTuple(String),
    /// A query referenced an attribute or value outside the schema, or
    /// specified the same attribute twice.
    InvalidQuery(String),
    /// The query budget configured on the interface is exhausted; no
    /// further queries may be issued (models per-user/IP limits such as
    /// Yahoo! Auto's 1,000 queries/day, paper §1).
    BudgetExhausted {
        /// The configured limit that was hit.
        limit: u64,
    },
    /// A networked backend failed to answer: the connection dropped, a
    /// wire frame was malformed, or the server reported a protocol-level
    /// problem. Never raised by in-process substrates. Whether a failed
    /// request is sent again is decided where it is known whether a reply
    /// came back — the retry loop in [`remote`](crate::remote) — not by
    /// this variant: a `Transport` error the server sent as an error
    /// frame is an answer and is never retried.
    Transport(String),
    /// A durable-storage operation (WAL append, fsync, snapshot write)
    /// failed at the I/O layer. The store's durability is no longer
    /// known, so the persistent backend degrades to read-only after
    /// raising this.
    Storage(String),
    /// On-disk state failed validation beyond the recoverable tail: a
    /// checksum mismatch mid-log, a record that decodes to an impossible
    /// tuple, or a snapshot no valid older sibling can stand in for.
    Corrupt(String),
    /// The store is serving reads only — recovery found corruption past
    /// the last checkpoint, or a previous write/fsync failure poisoned
    /// it. Carries the reason the store went read-only.
    ReadOnly(String),
}

impl fmt::Display for HdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidSchema(msg) => write!(f, "invalid schema: {msg}"),
            Self::InvalidTuple(msg) => write!(f, "invalid tuple: {msg}"),
            Self::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            Self::BudgetExhausted { limit } => {
                write!(f, "query budget exhausted (limit {limit})")
            }
            Self::Transport(msg) => write!(f, "transport error: {msg}"),
            Self::Storage(msg) => write!(f, "storage error: {msg}"),
            Self::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            Self::ReadOnly(msg) => write!(f, "store is read-only: {msg}"),
        }
    }
}

impl std::error::Error for HdbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(
            HdbError::BudgetExhausted { limit: 10 }.to_string(),
            "query budget exhausted (limit 10)"
        );
        assert_eq!(HdbError::InvalidSchema("x".into()).to_string(), "invalid schema: x");
        assert_eq!(
            HdbError::Transport("connection reset".into()).to_string(),
            "transport error: connection reset"
        );
        assert_eq!(
            HdbError::Storage("fsync failed".into()).to_string(),
            "storage error: fsync failed"
        );
        assert_eq!(
            HdbError::Corrupt("wal crc mismatch".into()).to_string(),
            "corrupt store: wal crc mismatch"
        );
        assert_eq!(
            HdbError::ReadOnly("poisoned".into()).to_string(),
            "store is read-only: poisoned"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&HdbError::InvalidTuple("t".into()));
    }
}
