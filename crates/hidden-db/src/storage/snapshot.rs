//! Versioned snapshots of a persistent store: the full corpus,
//! checksummed, written atomically (tmp-file → fsync → rename →
//! dir-fsync).
//!
//! ## On-disk format (version 2)
//!
//! ```text
//! magic "HDBSNAP1" (8) ‖ body ‖ crc32(body) u32 LE
//! body = version u32
//!      ‖ next_seq u64            — WAL records < next_seq are included
//!      ‖ schema                  — wire codec
//!      ‖ tuple count u64 ‖ tuples
//! ```
//!
//! Snapshot files are named `snapshot-<next_seq, zero-padded to 20>.hdbs`
//! so a lexicographic sort is a recency sort. Decoding is total: any
//! structural damage surfaces as [`HdbError::Corrupt`], and recovery
//! falls back to the next-newest candidate.
//!
//! Version 1 also carried the server's walk-session table. Sessions are
//! soft state (a probe naming a session the server lacks is answered
//! bit-identically, fresh or after a client re-root), so version 2 holds
//! only the corpus. A version-1 file is refused as [`HdbError::Corrupt`]
//! ("unsupported format version 1"), not read: recovery skips it like
//! any damaged candidate, and a store holding only version-1 snapshots
//! fails to open.

use crate::error::{HdbError, Result};
use crate::table::Table;
use crate::tuple::Tuple;
use crate::wire::{Dec, Enc};

use super::wal::crc32;

/// Magic prefix of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"HDBSNAP1";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 2;

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

/// A decoded snapshot: the corpus as of `next_seq`.
#[derive(Clone, Debug)]
pub struct SnapshotData {
    /// WAL records with `seq < next_seq` are already included here.
    pub next_seq: u64,
    /// The corpus at snapshot time.
    pub table: Table,
}

fn corrupt(what: impl std::fmt::Display) -> HdbError {
    HdbError::Corrupt(format!("snapshot: {what}"))
}

/// Encodes a snapshot ready to write (magic + body + checksum).
///
/// # Errors
/// [`HdbError::Storage`] if a length exceeds the codec's `u32` bounds —
/// practically impossible for conforming state.
pub fn encode_snapshot(next_seq: u64, table: &Table) -> Result<Vec<u8>> {
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
    let body = e.into_bytes();
    let mut out = SNAPSHOT_MAGIC.to_vec();
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    Ok(out)
}

/// Decodes and fully validates a snapshot file.
///
/// Validation covers the checksum, the format version, the wire-level
/// structure and table invariants (conformance, no duplicates —
/// re-checked by [`Table::new`]). A snapshot that decodes is safe to
/// serve.
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
        Ok(SnapshotData { next_seq, table: Table::new(schema, tuples)? })
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

    fn sample() -> Table {
        let schema = Schema::boolean(3);
        Table::new(
            schema,
            vec![Tuple::new(vec![0, 0, 1]), Tuple::new(vec![1, 0, 1]), Tuple::new(vec![1, 1, 0])],
        )
        .unwrap()
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
        let table = sample();
        let bytes = encode_snapshot(9, &table).unwrap();
        let got = decode_snapshot(&bytes).unwrap();
        assert_eq!(got.next_seq, 9);
        assert_eq!(got.table.tuples(), table.tuples());
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let bytes = encode_snapshot(9, &sample()).unwrap();
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
        let bytes = encode_snapshot(9, &sample()).unwrap();
        for cut in 0..bytes.len() {
            assert!(matches!(decode_snapshot(&bytes[..cut]), Err(HdbError::Corrupt(_))));
        }
    }

    /// A newer version and the retired version 1 are both refused
    /// typed, naming the version.
    #[test]
    fn unsupported_version_is_typed() {
        let real = encode_snapshot(3, &sample()).unwrap();
        for version in [1, SNAPSHOT_VERSION + 1] {
            let mut e = Enc::new();
            e.u32(version);
            let mut body = e.into_bytes();
            body.extend_from_slice(&real[SNAPSHOT_MAGIC.len() + 4..real.len() - 4]);
            let mut bytes = SNAPSHOT_MAGIC.to_vec();
            bytes.extend_from_slice(&body);
            bytes.extend_from_slice(&crc32(&body).to_le_bytes());
            let err = decode_snapshot(&bytes).unwrap_err();
            let want = format!("unsupported format version {version}");
            assert!(matches!(err, HdbError::Corrupt(m) if m.contains(&want)), "v{version}");
        }
    }
}
