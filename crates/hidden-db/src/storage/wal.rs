//! The append-only write-ahead log for tuple ingest.
//!
//! ## On-disk format
//!
//! A WAL file is the 8-byte magic [`WAL_MAGIC`] followed by records:
//!
//! ```text
//! ┌────────────┬──────────┬──────────┬──────────┬─────────────┐
//! │ marker u16 │ len u32  │ seq u64  │ crc u32  │ payload …   │
//! │ 0x57A1 LE  │ payload  │ absolute │ IEEE     │ len bytes   │
//! └────────────┴──────────┴──────────┴──────────┴─────────────┘
//! ```
//!
//! all little-endian; `crc` covers `seq ‖ payload`. The payload is a tag
//! byte (`0` = ingest) followed by the wire codec's tuple encoding.
//! Sequence numbers are absolute and strictly sequential within a file;
//! the first record fixes the file's base (a WAL reset after a snapshot
//! starts at that snapshot's `next_seq`, not at zero).
//!
//! ## Tail classification
//!
//! [`scan`] is total: it never errors and never panics; it parses the
//! longest valid prefix and classifies whatever follows.
//!
//! * nothing follows → [`WalTail::Clean`];
//! * the suffix contains **no** later valid record (checked by scanning
//!   forward for a marker that starts a CRC-valid record with a later
//!   sequence number) → a **torn tail**: the final append was cut short
//!   by a crash. Recovery truncates it and stays read-write — this is
//!   the expected shape of a crash, not corruption. A corrupted *final*
//!   record is indistinguishable from a torn write and is truncated the
//!   same way; its ingest was never acknowledged durable unless fsync
//!   completed, which a corrupted record contradicts.
//! * the suffix **does** resync to a later valid record → bytes in the
//!   *middle* of the log are damaged ([`WalTail::Corrupt`]): acknowledged
//!   records can no longer be trusted, so recovery applies the valid
//!   prefix and degrades the store to typed read-only.

use crate::error::{HdbError, Result};
use crate::tuple::Tuple;
use crate::wire::{Dec, Enc};

/// The WAL's file name inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// First 8 bytes of every WAL file (format + version).
pub const WAL_MAGIC: [u8; 8] = *b"HDBWAL01";

/// Per-record resync marker (little-endian on disk).
pub const RECORD_MARKER: u16 = 0x57A1;

/// Fixed byte length of a record header (marker + len + seq + crc).
pub const RECORD_HEADER_LEN: usize = 18;

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0][b]` is the CRC of byte `b`, and
/// `CRC_TABLES[s][b]` advances that remainder through `s` more zero
/// bytes, so eight table lookups consume eight input bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[s - 1][b];
            t[s][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        s += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`, eight bytes per step
/// through the slicing-by-8 tables; the tail of fewer than eight bytes
/// goes one byte per step.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let lane = |x: u32, shift: u32| usize::from((x >> shift) as u8);
    let mut c: u32 = !0;
    let (blocks, tail) = bytes.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in blocks {
        let lo = c ^ u32::from_le_bytes([b0, b1, b2, b3]);
        c = t[7][lane(lo, 0)]
            ^ t[6][lane(lo, 8)]
            ^ t[5][lane(lo, 16)]
            ^ t[4][lane(lo, 24)]
            ^ t[3][usize::from(b4)]
            ^ t[2][usize::from(b5)]
            ^ t[1][usize::from(b6)]
            ^ t[0][usize::from(b7)];
    }
    for &b in tail {
        c = (c >> 8) ^ t[0][lane(c ^ u32::from(b), 0)];
    }
    !c
}

/// One decoded WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Absolute sequence number.
    pub seq: u64,
    /// The logged operation.
    pub op: WalOp,
}

/// Operations the WAL can log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// One ingested tuple.
    Ingest(Tuple),
}

/// How a WAL file ends, as classified by [`scan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalTail {
    /// The file ends exactly at a record boundary.
    Clean,
    /// The bytes past the valid prefix are a torn final write; safe to
    /// truncate and keep appending.
    Torn,
    /// The bytes past the valid prefix damage acknowledged records (a
    /// later valid record follows them); the store must degrade to
    /// read-only.
    Corrupt {
        /// What failed to parse at the corruption point.
        reason: String,
    },
}

/// The result of scanning a WAL file: the longest valid record prefix
/// plus the tail classification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalScan {
    /// Every record in the valid prefix, in order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (magic included); a torn tail is
    /// truncated to this length.
    pub valid_len: u64,
    /// What follows the valid prefix.
    pub tail: WalTail,
}

impl WalScan {
    /// The sequence number the next appended record must carry.
    #[must_use]
    pub fn next_seq(&self) -> Option<u64> {
        self.records.last().map(|r| r.seq + 1)
    }
}

/// Encodes one ingest record (header + payload) ready to append.
///
/// # Errors
/// [`HdbError::Storage`] if the tuple exceeds the codec's `u32` bounds —
/// practically impossible for conforming tuples.
pub fn encode_record(seq: u64, tuple: &Tuple) -> Result<Vec<u8>> {
    let mut e = Enc::new();
    e.u8(0);
    crate::wire::enc_tuple(&mut e, tuple)
        .map_err(|e| HdbError::Storage(format!("unencodable WAL record: {e}")))?;
    let payload = e.into_bytes();
    let len = u32::try_from(payload.len())
        .map_err(|_| HdbError::Storage("WAL record payload exceeds u32".to_string()))?;
    let mut crc_input = seq.to_le_bytes().to_vec();
    crc_input.extend_from_slice(&payload);
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&RECORD_MARKER.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Reads `N` bytes at `at` as a fixed array, if in bounds.
fn arr<const N: usize>(bytes: &[u8], at: usize) -> Option<[u8; N]> {
    let end = at.checked_add(N)?;
    bytes.get(at..end).and_then(|s| <[u8; N]>::try_from(s).ok())
}

/// Attempts to parse one record at `at`; when `expected_seq` is given
/// the record must carry exactly that sequence number. Returns the
/// record and the offset just past it.
fn parse_record_at(
    bytes: &[u8],
    at: usize,
    expected_seq: Option<u64>,
) -> std::result::Result<(WalRecord, usize), String> {
    let marker = u16::from_le_bytes(arr::<2>(bytes, at).ok_or("truncated record header")?);
    if marker != RECORD_MARKER {
        return Err(format!("bad record marker {marker:#06x}"));
    }
    let len = u32::from_le_bytes(arr::<4>(bytes, at + 2).ok_or("truncated record header")?);
    let seq = u64::from_le_bytes(arr::<8>(bytes, at + 6).ok_or("truncated record header")?);
    let crc = u32::from_le_bytes(arr::<4>(bytes, at + 14).ok_or("truncated record header")?);
    let len = usize::try_from(len).map_err(|_| "record length overflows usize".to_string())?;
    let start = at + RECORD_HEADER_LEN;
    let end = start.checked_add(len).ok_or("record length overflows usize")?;
    let payload = bytes.get(start..end).ok_or("truncated record payload")?;
    if let Some(want) = expected_seq {
        if seq != want {
            return Err(format!("out-of-sequence record (seq {seq}, expected {want})"));
        }
    }
    let mut crc_input = seq.to_le_bytes().to_vec();
    crc_input.extend_from_slice(payload);
    if crc32(&crc_input) != crc {
        return Err(format!("crc mismatch on record seq {seq}"));
    }
    let mut d = Dec::new(payload);
    let op = match d.u8("wal op tag") {
        Ok(0) => match crate::wire::dec_tuple(&mut d).and_then(|t| d.finish().map(|()| t)) {
            Ok(tuple) => WalOp::Ingest(tuple),
            Err(e) => return Err(format!("undecodable record payload: {e}")),
        },
        Ok(t) => return Err(format!("unknown wal op tag {t}")),
        Err(e) => return Err(format!("undecodable record payload: {e}")),
    };
    Ok((WalRecord { seq, op }, end))
}

/// Whether any later valid record (seq strictly greater than
/// `after_seq`) can be parsed from `bytes` at or after `from` — the
/// resync probe distinguishing a torn tail from mid-log corruption.
fn resyncs(bytes: &[u8], from: usize, after_seq: Option<u64>) -> bool {
    let mut at = from;
    while at + RECORD_HEADER_LEN <= bytes.len() {
        if let Ok((rec, _)) = parse_record_at(bytes, at, None) {
            if after_seq.is_none_or(|s| rec.seq > s) {
                return true;
            }
        }
        at += 1;
    }
    false
}

/// Scans a whole WAL file (total — classifies rather than errors).
#[must_use]
pub fn scan(bytes: &[u8]) -> WalScan {
    if bytes.len() < WAL_MAGIC.len() {
        // Even the magic is incomplete: a torn initial write. Recovery
        // truncates to zero and rewrites the magic.
        return WalScan { records: Vec::new(), valid_len: 0, tail: WalTail::Torn };
    }
    if arr::<8>(bytes, 0) != Some(WAL_MAGIC) {
        return WalScan {
            records: Vec::new(),
            valid_len: 0,
            tail: WalTail::Corrupt { reason: "bad WAL magic".to_string() },
        };
    }
    let mut records: Vec<WalRecord> = Vec::new();
    let mut at = WAL_MAGIC.len();
    while at < bytes.len() {
        let expected = records.last().map(|r| r.seq + 1);
        match parse_record_at(bytes, at, expected) {
            Ok((rec, end)) => {
                records.push(rec);
                at = end;
            }
            Err(reason) => {
                let last_seq = records.last().map(|r| r.seq);
                let tail = if resyncs(bytes, at + 1, last_seq) {
                    WalTail::Corrupt { reason }
                } else {
                    WalTail::Torn
                };
                return WalScan { records, valid_len: at as u64, tail };
            }
        }
    }
    WalScan { records, valid_len: at as u64, tail: WalTail::Clean }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The bitwise CRC-32, one shift-xor step per bit: the oracle for the
    /// table-driven [`crc32`].
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c: u32 = !0;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 == 1 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    fn wal_with(seqs: std::ops::Range<u64>) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        for seq in seqs {
            let t = Tuple::new(vec![u16::try_from(seq % 7).unwrap(), 1]);
            bytes.extend_from_slice(&encode_record(seq, &t).unwrap());
        }
        bytes
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sliced CRC equals the bitwise one at every length around
        /// the 8-byte block (so every tail length) and at every start
        /// offset within a word.
        #[test]
        fn crc32_matches_the_bitwise_oracle(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let buf: Vec<u8> = (0..80).map(|_| rng.random_range(0..=255u8)).collect();
            for start in 0..8 {
                for len in 0..=70 {
                    let bytes = &buf[start..start + len];
                    let (got, want) = (crc32(bytes), crc32_bitwise(bytes));
                    prop_assert_eq!(got, want, "start {} len {}", start, len);
                }
            }
        }
    }

    #[test]
    fn clean_round_trip() {
        let bytes = wal_with(0..5);
        let s = scan(&bytes);
        assert_eq!(s.tail, WalTail::Clean);
        assert_eq!(s.records.len(), 5);
        assert_eq!(s.valid_len, bytes.len() as u64);
        assert_eq!(s.next_seq(), Some(5));
    }

    #[test]
    fn base_is_the_first_records_seq_not_zero() {
        let mut bytes = WAL_MAGIC.to_vec();
        for seq in 40..43 {
            bytes
                .extend_from_slice(&encode_record(seq, &Tuple::new(vec![0, 0])).unwrap());
        }
        let s = scan(&bytes);
        assert_eq!(s.tail, WalTail::Clean);
        assert_eq!(s.records.first().unwrap().seq, 40);
        assert_eq!(s.next_seq(), Some(43));
    }

    #[test]
    fn truncation_anywhere_is_torn_never_corrupt() {
        let bytes = wal_with(0..4);
        for cut in 0..bytes.len() {
            let s = scan(&bytes[..cut]);
            match s.tail {
                WalTail::Clean => assert_eq!(s.valid_len as usize, cut),
                WalTail::Torn => assert!(s.valid_len as usize <= cut),
                WalTail::Corrupt { ref reason } => {
                    panic!("cut at {cut} classified as corruption: {reason}")
                }
            }
        }
    }

    #[test]
    fn mid_log_bit_flip_is_corruption_not_torn() {
        let bytes = wal_with(0..6);
        // Flip one byte inside the *second* record's payload: records
        // 2..6 still follow intact, so the resync probe must find them.
        let second_start = WAL_MAGIC.len()
            + encode_record(0, &Tuple::new(vec![0, 1])).unwrap().len();
        let mut evil = bytes.clone();
        evil[second_start + RECORD_HEADER_LEN] ^= 0xFF;
        let s = scan(&evil);
        assert_eq!(s.records.len(), 1, "only the first record survives");
        assert!(matches!(s.tail, WalTail::Corrupt { .. }), "got {:?}", s.tail);
    }

    #[test]
    fn corrupted_final_record_is_torn() {
        let mut bytes = wal_with(0..3);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let s = scan(&bytes);
        assert_eq!(s.records.len(), 2);
        assert_eq!(s.tail, WalTail::Torn);
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let mut bytes = wal_with(0..2);
        bytes[0] = b'X';
        let s = scan(&bytes);
        assert!(s.records.is_empty());
        assert!(matches!(s.tail, WalTail::Corrupt { .. }));
    }

    #[test]
    fn empty_and_magic_only_files() {
        assert_eq!(scan(&[]).tail, WalTail::Torn);
        let s = scan(&WAL_MAGIC);
        assert_eq!(s.tail, WalTail::Clean);
        assert!(s.records.is_empty());
        assert_eq!(s.next_seq(), None);
    }
}
