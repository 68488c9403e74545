//! Versioned snapshots of a persistent store: the full corpus plus the
//! server's walk-session table, checksummed, written atomically
//! (tmp-file → fsync → rename → dir-fsync).
//!
//! ## On-disk format (version 1)
//!
//! ```text
//! magic "HDBSNAP1" (8) ‖ body ‖ crc32(body) u32 LE
//! body = version u32
//!      ‖ next_seq u64            — WAL records < next_seq are included
//!      ‖ schema                  — wire codec
//!      ‖ tuple count u64 ‖ tuples
//!      ‖ next_sid u64 ‖ clock u64
//!      ‖ session count u32
//!      ‖ per session: sid u64 ‖ touched u64 ‖ root query
//!                   ‖ step count u32 ‖ per step: predicate ‖ child query
//! ```
//!
//! Snapshot files are named `snapshot-<next_seq, zero-padded to 20>.hdbs`
//! so a lexicographic sort is a recency sort. Decoding is total: any
//! structural damage surfaces as [`HdbError::Corrupt`], and recovery
//! falls back to the next-newest candidate.

use crate::error::{HdbError, Result};
use crate::query::{Predicate, Query};
use crate::table::Table;
use crate::tuple::Tuple;
use crate::wire::{Dec, Enc};

use super::wal::crc32;

/// Magic prefix of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"HDBSNAP1";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Name of the temporary file a snapshot is staged in before its atomic
/// rename.
pub const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// The file name for a snapshot covering WAL records `< next_seq`.
#[must_use]
pub fn snapshot_file_name(next_seq: u64) -> String {
    format!("snapshot-{next_seq:020}.hdbs")
}

/// Parses a snapshot file name back to its `next_seq`; `None` for
/// anything that is not a well-formed snapshot name.
#[must_use]
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snapshot-")?.strip_suffix(".hdbs")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// One walk step of a snapshotted session: the predicate committed and
/// the resulting child query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalkStep {
    /// The predicate the walk committed at this level.
    pub pred: Predicate,
    /// The full query of the level this step pushed.
    pub child: Query,
}

/// One snapshotted walk session: enough to rebuild its state stack
/// deterministically via `walk_state(root)` + `extend_state` per step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionRecord {
    /// The session id (preserved so clients holding it keep working).
    pub sid: u64,
    /// The session's LRU recency stamp.
    pub touched: u64,
    /// The root query the session was opened with.
    pub root: Query,
    /// The committed walk steps, shallowest first.
    pub steps: Vec<WalkStep>,
}

/// A snapshot of the server's whole session table plus its counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionDump {
    /// The next session id the server would allocate.
    pub next_sid: u64,
    /// The LRU clock value.
    pub clock: u64,
    /// Every live session.
    pub sessions: Vec<SessionRecord>,
}

/// A decoded snapshot: the corpus and session state as of `next_seq`.
#[derive(Clone, Debug)]
pub struct SnapshotData {
    /// WAL records with `seq < next_seq` are already included here.
    pub next_seq: u64,
    /// The corpus at snapshot time.
    pub table: Table,
    /// The server's session table at snapshot time.
    pub sessions: SessionDump,
}

fn corrupt(what: impl std::fmt::Display) -> HdbError {
    HdbError::Corrupt(format!("snapshot: {what}"))
}

/// Encodes a snapshot ready to write (magic + body + checksum).
///
/// # Errors
/// [`HdbError::Storage`] if a length exceeds the codec's `u32` bounds —
/// practically impossible for conforming state.
pub fn encode_snapshot(next_seq: u64, table: &Table, sessions: &SessionDump) -> Result<Vec<u8>> {
    let mut e = Enc::new();
    e.u32(SNAPSHOT_VERSION);
    e.u64(next_seq);
    let enc = |r: crate::error::Result<()>| {
        r.map_err(|e| HdbError::Storage(format!("unencodable snapshot: {e}")))
    };
    enc(crate::wire::enc_schema(&mut e, table.schema()))?;
    enc(e.usize(table.tuples().len(), "snapshot tuple count"))?;
    for t in table.tuples() {
        enc(crate::wire::enc_tuple(&mut e, t))?;
    }
    e.u64(sessions.next_sid);
    e.u64(sessions.clock);
    enc(e.seq(sessions.sessions.len(), "snapshot session count"))?;
    for s in &sessions.sessions {
        e.u64(s.sid);
        e.u64(s.touched);
        enc(crate::wire::enc_query(&mut e, &s.root))?;
        enc(e.seq(s.steps.len(), "snapshot step count"))?;
        for step in &s.steps {
            enc(crate::wire::enc_step(&mut e, step))?;
        }
    }
    let body = e.into_bytes();
    let mut out = SNAPSHOT_MAGIC.to_vec();
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    Ok(out)
}

/// Decodes and fully validates a snapshot file.
///
/// Validation covers the checksum, the format version, the wire-level
/// structure, table invariants (conformance, no duplicates — re-checked
/// by [`Table::new`]) and that every session query is valid against the
/// snapshotted schema. A snapshot that decodes is safe to serve.
///
/// # Errors
/// [`HdbError::Corrupt`] describing the first failed check.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotData> {
    let magic_len = SNAPSHOT_MAGIC.len();
    if bytes.len() < magic_len + 4 {
        return Err(corrupt("file shorter than magic + checksum"));
    }
    if bytes.get(..magic_len) != Some(&SNAPSHOT_MAGIC) {
        return Err(corrupt("bad magic"));
    }
    let crc_at = bytes.len() - 4;
    let Some(body) = bytes.get(magic_len..crc_at) else {
        return Err(corrupt("file shorter than magic + checksum"));
    };
    let stored = bytes
        .get(crc_at..)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .map(u32::from_le_bytes);
    if stored != Some(crc32(body)) {
        return Err(corrupt("checksum mismatch"));
    }
    let mut d = Dec::new(body);
    let inner = (|d: &mut Dec<'_>| -> Result<SnapshotData> {
        let version = d.u32("snapshot version")?;
        if version != SNAPSHOT_VERSION {
            return Err(corrupt(format!("unsupported format version {version}")));
        }
        let next_seq = d.u64("snapshot next_seq")?;
        let schema = crate::wire::dec_schema(d)?;
        let count = d.usize("snapshot tuple count")?;
        let mut tuples: Vec<Tuple> = Vec::new();
        for _ in 0..count {
            tuples.push(crate::wire::dec_tuple(d)?);
        }
        let table = Table::new(schema, tuples)?;
        let next_sid = d.u64("snapshot next_sid")?;
        let clock = d.u64("snapshot clock")?;
        let n = d.seq_len("snapshot session count")?;
        let mut sessions = Vec::with_capacity(n);
        for _ in 0..n {
            let sid = d.u64("session sid")?;
            let touched = d.u64("session touched")?;
            let root = crate::wire::dec_query(d)?;
            root.validate(table.schema())?;
            let steps_n = d.seq_len("session step count")?;
            let mut steps = Vec::with_capacity(steps_n);
            for _ in 0..steps_n {
                let step = crate::wire::dec_step(d)?;
                step.child.validate(table.schema())?;
                steps.push(step);
            }
            sessions.push(SessionRecord { sid, touched, root, steps });
        }
        Ok(SnapshotData {
            next_seq,
            table,
            sessions: SessionDump { next_sid, clock, sessions },
        })
    })(&mut d);
    match inner {
        Ok(data) => {
            d.finish().map_err(corrupt)?;
            Ok(data)
        }
        // A checksum-valid snapshot should never fail structurally, but
        // decoding stays total: re-type any inner error as corruption.
        Err(HdbError::Corrupt(m)) => Err(HdbError::Corrupt(m)),
        Err(e) => Err(corrupt(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn sample() -> (Table, SessionDump) {
        let schema = Schema::boolean(3);
        let table = Table::new(
            schema,
            vec![Tuple::new(vec![0, 0, 1]), Tuple::new(vec![1, 0, 1]), Tuple::new(vec![1, 1, 0])],
        )
        .unwrap();
        let root = Query::all();
        let child = root.and(1, 1).unwrap();
        let dump = SessionDump {
            next_sid: 7,
            clock: 42,
            sessions: vec![SessionRecord {
                sid: 3,
                touched: 40,
                root,
                steps: vec![WalkStep { pred: Predicate::new(1, 1), child }],
            }],
        };
        (table, dump)
    }

    #[test]
    fn snapshot_names_sort_by_recency() {
        let a = snapshot_file_name(5);
        let b = snapshot_file_name(1_000_000);
        assert!(a < b);
        assert_eq!(parse_snapshot_name(&a), Some(5));
        assert_eq!(parse_snapshot_name(&b), Some(1_000_000));
        assert_eq!(parse_snapshot_name("snapshot.tmp"), None);
        assert_eq!(parse_snapshot_name("wal.log"), None);
        assert_eq!(parse_snapshot_name("snapshot--.hdbs"), None);
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (table, dump) = sample();
        let bytes = encode_snapshot(9, &table, &dump).unwrap();
        let got = decode_snapshot(&bytes).unwrap();
        assert_eq!(got.next_seq, 9);
        assert_eq!(got.table.tuples(), table.tuples());
        assert_eq!(got.sessions, dump);
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let (table, dump) = sample();
        let bytes = encode_snapshot(9, &table, &dump).unwrap();
        for i in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= 0x01;
            assert!(
                matches!(decode_snapshot(&evil), Err(HdbError::Corrupt(_))),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let (table, dump) = sample();
        let bytes = encode_snapshot(9, &table, &dump).unwrap();
        for cut in 0..bytes.len() {
            assert!(matches!(decode_snapshot(&bytes[..cut]), Err(HdbError::Corrupt(_))));
        }
    }

    #[test]
    fn unsupported_version_is_typed() {
        let (table, dump) = sample();
        let mut e = Enc::new();
        e.u32(SNAPSHOT_VERSION + 1);
        let mut body = e.into_bytes();
        let real = encode_snapshot(3, &table, &dump).unwrap();
        body.extend_from_slice(&real[SNAPSHOT_MAGIC.len() + 4..real.len() - 4]);
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        let err = decode_snapshot(&bytes).unwrap_err();
        assert!(matches!(err, HdbError::Corrupt(m) if m.contains("version")));
    }
}
