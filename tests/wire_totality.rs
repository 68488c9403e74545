//! Totality of the wire decoders (proptest): every decoder in
//! `hdb_interface::wire` must return `Ok` or a typed [`HdbError`] on
//! *arbitrary* input bytes — random garbage, bit-flipped frames, and
//! truncated frames alike. A panic anywhere in this file is a protocol
//! bug: the server must survive garbage input and the client must
//! survive a lying server. This is the executable counterpart of the
//! `HDB-P01`/`HDB-P02` lint rules (see `docs/ARCHITECTURE.md`).

use std::io::Read as _;

use hdb_interface::wire::{read_frame, write_frame, FrameBuf, Request, Response, MAX_FRAME_LEN};
use hdb_interface::{Evaluation, Query, RankingSpec, ReturnedTuple, Tuple};
use proptest::prelude::*;

/// A corpus of valid encoded requests, parameterised so proptest can
/// drive the varying-width fields (session ids, levels, k, seeds).
fn encoded_requests(sid: u64, level: u32, k: u64, seed: u64) -> Vec<Vec<u8>> {
    let q = Query::all().and(1, (seed % 7) as u16).expect("fresh attr");
    // A walk probe's query: `q`, then `n` extends down attributes 2, 3,
    // …, then the probed predicate on attribute 0.
    let probe = |n: usize| {
        let path = (0..n).try_fold(q.clone(), |below, i| below.and(2 + i, ((sid >> i) % 4) as u16));
        path.and_then(|p| p.and(0, (seed % 3) as u16)).expect("fresh attrs")
    };
    let k1 = k.max(1);
    let reqs = vec![
        Request::Hello { version: (k as u32) ^ 1 },
        Request::Schema,
        Request::Len,
        Request::Evaluate {
            query: q.clone(),
            k: k.max(1),
            ranking: RankingSpec::Attribute {
                attr: (level as usize) % 4,
                descending: sid.is_multiple_of(2),
            },
        },
        Request::Evaluate { query: q.clone(), k, ranking: RankingSpec::RowId },
        Request::Evaluate {
            query: Query::all(),
            k: k.max(1),
            ranking: RankingSpec::SeededRandom { seed },
        },
        Request::ExactCount { query: q.clone() },
        Request::ExactSum { attr: sid % 5, query: q.clone() },
        Request::WalkOpen { root: Query::all() },
        Request::WalkClassify { sid, parent_level: level, extends: 0, child: probe(0), k: k1 },
        Request::WalkClassify { sid, parent_level: level, extends: 1, child: probe(1), k },
        Request::WalkClassify { sid, parent_level: level, extends: 3, child: probe(3), k: k1 },
        // A count that leaves no probed predicate decodes; the server
        // refuses it.
        Request::WalkClassify { sid, parent_level: level, extends: 3, child: probe(1), k },
        Request::WalkClose { sid },
        Request::Stats,
    ];
    reqs.iter().map(|r| r.encode().expect("valid request encodes")).collect()
}

/// A synthetic page of `n` tuples for large-reply tests.
fn page_of(n: usize) -> Vec<ReturnedTuple> {
    (0..n)
        .map(|i| ReturnedTuple {
            id: u32::try_from(i).unwrap_or(u32::MAX),
            tuple: Tuple::new(vec![(i % 7) as u16, ((i * 31) % 5) as u16]),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random bytes into both message decoders: any result is fine,
    /// panicking is not. The first byte doubles as the message tag, so
    /// constraining it to the tag range exercises the deep paths too.
    #[test]
    fn decoders_are_total_on_garbage(
        mut bytes in prop::collection::vec(any::<u8>(), 0..=96),
        tag in 0u8..=20,
        force_tag in any::<bool>(),
    ) {
        if force_tag {
            if let Some(first) = bytes.first_mut() {
                *first = tag;
            }
        }
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// A bit-flipped valid frame decodes to *something* or a typed
    /// error — never a panic — for every message shape in the protocol.
    #[test]
    fn decoders_survive_bit_flips(
        sid in any::<u64>(),
        level in 0u32..=8,
        k in 1u64..=32,
        seed in any::<u64>(),
        flip_bit in 0u8..8,
        pos_salt in any::<usize>(),
    ) {
        for payload in encoded_requests(sid, level, k, seed) {
            let mut corrupt = payload.clone();
            let pos = pos_salt % corrupt.len().max(1);
            if let Some(byte) = corrupt.get_mut(pos) {
                *byte ^= 1 << flip_bit;
            }
            let _ = Request::decode(&corrupt);
            // A request payload is garbage to the response decoder; it
            // must shrug that off just the same.
            let _ = Response::decode(&corrupt);
        }
    }

    /// Every truncation prefix of a valid frame is rejected cleanly
    /// (or, for prefixes that happen to form a complete shorter
    /// message, decoded); nothing in between panics.
    #[test]
    fn decoders_survive_truncation(
        sid in any::<u64>(),
        level in 0u32..=8,
        k in 1u64..=32,
        seed in any::<u64>(),
    ) {
        for payload in encoded_requests(sid, level, k, seed) {
            for cut in 0..payload.len() {
                let prefix = &payload[..cut];
                let _ = Request::decode(prefix);
                let _ = Response::decode(prefix);
            }
            // The untruncated frame must still round-trip.
            prop_assert!(Request::decode(&payload).is_ok());
        }
    }

    /// `FrameBuf` fed arbitrary bytes in arbitrary chunk sizes never
    /// panics, and a corrupt length prefix beyond `MAX_FRAME_LEN`
    /// surfaces as a typed error rather than an allocation attempt.
    #[test]
    fn frame_reassembly_is_total(
        stream in prop::collection::vec(any::<u8>(), 0..=64),
        chunk in 1usize..=9,
    ) {
        let mut buf = FrameBuf::new();
        for piece in stream.chunks(chunk) {
            buf.extend(piece);
            // Drain as a real connection loop would; stop on the first
            // typed error (the connection would be dropped there).
            loop {
                match buf.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => return Ok(()),
                }
            }
        }
    }

    /// `read_frame` over an arbitrary byte stream returns `Ok(None)`
    /// (clean EOF), `Ok(Some(_))`, or a typed error — never a panic.
    #[test]
    fn read_frame_is_total(stream in prop::collection::vec(any::<u8>(), 0..=64)) {
        let mut cursor = std::io::Cursor::new(stream);
        while let Ok(Some(_)) = read_frame(&mut cursor) {}
    }

    /// A reply carrying a large page is exactly one frame and decodes
    /// bit-identically, for pages from empty to a few thousand tuples.
    #[test]
    fn large_pages_cross_in_one_frame_bitwise(extra in 0usize..=2051) {
        let page = page_of(extra);
        let resp = Response::Evaluation(Evaluation { count: page.len(), top: page });
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &resp.encode().expect("reply encodes")).expect("frames");
        let mut cursor = std::io::Cursor::new(bytes);
        let payload = read_frame(&mut cursor).expect("well-formed frame").expect("not EOF");
        prop_assert_eq!(Response::decode(&payload).expect("decodes"), resp);
        prop_assert!(read_frame(&mut cursor).expect("clean EOF").is_none(), "one frame per reply");
    }

    /// Truncating a large reply frame anywhere — mid-header or
    /// mid-page — yields a clean EOF (nothing sent) or a typed error,
    /// never a panic and never a silently short page.
    #[test]
    fn reply_frame_truncation_is_total(
        extra in 1usize..=512,
        cut_salt in any::<usize>(),
    ) {
        let page = page_of(1024 + extra);
        let resp = Response::Evaluation(Evaluation { count: page.len(), top: page });
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &resp.encode().expect("reply encodes")).expect("frames");
        let cut = cut_salt % bytes.len();
        let got = read_frame(&mut std::io::Cursor::new(&bytes[..cut]));
        match got {
            Ok(None) => prop_assert_eq!(cut, 0),
            Ok(Some(_)) => prop_assert!(false, "a {cut}-byte prefix read as a whole frame"),
            Err(_) => {}
        }
    }

    /// A large reply read through a socket that hands over a few bytes
    /// at a time, with garbage after it, decodes whole; whatever trails
    /// it stays total.
    #[test]
    fn piecewise_stream_reads_are_total(
        extra in 0usize..=64,
        piece in 1usize..=9,
        garbage in prop::collection::vec(any::<u8>(), 0..=32),
    ) {
        /// A reader that returns at most `.1` bytes per read.
        struct Trickle<R>(R, usize);
        impl<R: std::io::Read> std::io::Read for Trickle<R> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = buf.len().min(self.1);
                self.0.read(&mut buf[..n])
            }
        }
        let page = page_of(1024 + extra);
        let resp = Response::Evaluation(Evaluation { count: page.len(), top: page });
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &resp.encode().expect("reply encodes")).expect("frames");
        bytes.extend_from_slice(&garbage);
        let mut slow = Trickle(std::io::Cursor::new(bytes), piece);
        let payload = read_frame(&mut slow).expect("whole frame").expect("not EOF");
        prop_assert_eq!(Response::decode(&payload).expect("decodes"), resp);
        // Whatever trails the reply is someone else's frame: total.
        while let Ok(Some(p)) = read_frame(&mut slow) {
            let _ = Response::decode(&p);
        }
    }
}

/// A `Stats` response carrying a populated [`MetricsSnapshot`] round-trips
/// bitwise, and every truncation prefix of its frame decodes to a typed
/// error or a complete shorter message — never a panic. (The request side
/// of `Stats` rides the proptest corpus above.)
#[test]
fn stats_snapshot_round_trips_and_truncates_cleanly() {
    use hdb_interface::{HistogramSnapshot, MetricsSnapshot};
    let mut snap = MetricsSnapshot::default();
    snap.counters.insert("hdb_queries_issued_total".to_string(), 42);
    snap.counters.insert("hdb_server_frames_total".to_string(), 7);
    snap.gauges.insert("hdb_server_sessions".to_string(), 3);
    snap.histograms.insert(
        "hdb_probe_nanos".to_string(),
        HistogramSnapshot { buckets: vec![0, 2, 5, 0, 1], count: 8, sum: 91 },
    );
    let resp = Response::Stats(snap);
    let payload = resp.encode().expect("stats encodes");
    assert_eq!(Response::decode(&payload).expect("stats decodes"), resp);
    for cut in 0..payload.len() {
        let _ = Response::decode(&payload[..cut]);
        let _ = Request::decode(&payload[..cut]);
    }
}

/// A length prefix past [`MAX_FRAME_LEN`] is a corrupt frame, rejected
/// before any payload allocation, and a payload past it cannot be
/// written; a frame of exactly the cap passes the writer and both
/// readers.
#[test]
fn oversized_length_prefix_is_a_typed_error() {
    let mut buf = FrameBuf::new();
    let bad_len = (MAX_FRAME_LEN as u32).saturating_add(1);
    buf.extend(&bad_len.to_le_bytes());
    buf.extend(&[0u8; 8]);
    assert!(buf.next_frame().is_err(), "oversize prefix must be rejected");

    let mut stream = Vec::from(bad_len.to_le_bytes());
    stream.extend_from_slice(&[0u8; 8]);
    let mut cursor = std::io::Cursor::new(stream);
    assert!(read_frame(&mut cursor).is_err(), "oversize prefix must be rejected");
    let over = vec![0u8; MAX_FRAME_LEN + 1];
    assert!(write_frame(&mut std::io::sink(), &over).is_err(), "oversize payload must be refused");
    drop(over);

    // Exactly at the cap. The zeroed payload is never written to and
    // the writer's output goes to a sink, so only the readers allocate
    // the frame.
    let at_cap = vec![0u8; MAX_FRAME_LEN];
    let header = u32::try_from(MAX_FRAME_LEN).expect("the cap fits a u32").to_le_bytes();
    write_frame(&mut std::io::sink(), &at_cap).expect("a frame at the cap is written");
    let mut framed = header.as_slice().chain(at_cap.as_slice());
    let read = read_frame(&mut framed).expect("a frame at the cap is read");
    assert_eq!(read.map(|p| p.len()), Some(MAX_FRAME_LEN));
    let mut buf = FrameBuf::new();
    buf.extend(&header);
    buf.extend(&at_cap);
    let popped = buf.next_frame().expect("a frame at the cap is reassembled");
    assert_eq!(popped.map(|p| p.len()), Some(MAX_FRAME_LEN));
}
