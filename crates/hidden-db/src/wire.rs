//! The hidden-DB wire protocol: length-prefixed binary frames carrying
//! [`Request`]/[`Response`] messages between a
//! [`RemoteBackend`](crate::RemoteBackend) client and an `hdb-server`.
//!
//! One frame is a little-endian `u32` payload length followed by the
//! payload; the payload's first byte is the message tag. Every message
//! covers exactly one [`SearchBackend`](crate::SearchBackend) operation —
//! `schema` / `len` / `evaluate` / `exact_count` / `exact_sum` plus the
//! incremental walk fast path (`WalkOpen` / `WalkClassify` /
//! `WalkClose`), whose server-side state is keyed by a session id so a
//! drill-down probe stays one AND (and one round trip) across the
//! network. The one walk probe is count-only: a drill-down reads a
//! branch's outcome class and a valid node's tuples, never an overflow
//! page.
//!
//! Each exchange is one request frame and one reply frame, and
//! [`MAX_FRAME_LEN`] bounds both. Walk probes carry their extends as a
//! count: a drill-down query is its parent plus one predicate, so a
//! [`Request::WalkClassify`]'s query already spells out its path from the
//! level it names. Its last predicate is the probed one, and the
//! `extends` predicates before that are the branch commitments the client
//! made since its last probe. The server pushes them onto the session's
//! stack, each level the next prefix of the query, and probes the level
//! the last one pushed, all under one lock, so a drill-down step (commit
//! a branch, probe a child) costs one round trip however many commitments
//! it carries. A reply too large for one frame is answered with a typed
//! [`Response::Error`] instead; the paper's interface returns at most `k`
//! tuples per query, so only an owner-side read of a whole corpus (such
//! as a federated exact sum) comes near the cap.
//!
//! The protocol is deliberately *static*-schema: values are fixed-width
//! little-endian integers, strings are `u32`-length-prefixed UTF-8, and
//! every decoder is total — malformed bytes surface as
//! [`HdbError::Transport`], never as a panic, so a server survives
//! garbage input and a client survives a lying server. Nothing here is
//! `unsafe` and nothing allocates beyond the decoded values themselves.

use crate::backend::{Classified, Evaluation};
use crate::error::{HdbError, Result};
use crate::interface::ReturnedTuple;
use crate::obs::{HistogramSnapshot, MetricsSnapshot};
use crate::query::{Predicate, Query};
use crate::ranking::RankingSpec;
use crate::schema::{Attribute, Schema};
use crate::tuple::Tuple;

/// Protocol version; [`Request::Hello`] / [`Response::Hello`] exchange it
/// and a mismatch is a connect-time [`HdbError::Transport`]. Version 3
/// made a walk probe carry its pending extends; version 4 retired the
/// full-page walk probe (tag `0x09`), leaving [`Request::WalkClassify`]
/// the only one; version 5 retired chunked page streaming (tags `0x90`
/// and `0x91`), so every reply is one frame; version 6 sends a walk
/// probe's extends as a count over its query (tag `0x0C`), retiring the
/// layout that listed each extend's predicate and query (tag `0x0A`).
pub const PROTOCOL_VERSION: u32 = 6;

/// Upper bound on a frame payload (64 MiB), and so on any one request or
/// reply: a larger length prefix is treated as corrupt and rejected
/// before allocation, and [`write_frame`] refuses a larger payload.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// One client → server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Version handshake; the first message on every new connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// The public schema of the served corpus.
    Schema,
    /// The corpus size `m`.
    Len,
    /// Full top-k evaluation of a query.
    Evaluate {
        /// The (client-validated, server-revalidated) query.
        query: Query,
        /// The interface constant `k` (must be ≥ 1).
        k: u64,
        /// The ranking to select the top `k` under.
        ranking: RankingSpec,
    },
    /// Owner-side exact `COUNT(*) WHERE q`.
    ExactCount {
        /// The query.
        query: Query,
    },
    /// Owner-side exact `SUM(attr) WHERE q`.
    ExactSum {
        /// The attribute to sum.
        attr: u64,
        /// The query.
        query: Query,
    },
    /// Opens a walk session rooted at `root`; the server materialises the
    /// root's match-set state and returns a session id.
    WalkOpen {
        /// The session root query.
        root: Query,
    },
    /// Count-only classification of `child` against session state — the
    /// drill-down probe fast path: one AND on the server, one round trip
    /// on the wire. `child` is the query of level `parent_level`, then
    /// `extends` predicates that commit pending levels, then the probed
    /// predicate. The extends are pushed first, above `parent_level` and
    /// after truncating deeper levels (the walk is stack-disciplined),
    /// each level the next prefix of `child`; the probe then reads the
    /// level the last one pushed. A chain that cannot commit answers
    /// [`Response::SessionGone`].
    WalkClassify {
        /// The session id.
        sid: u64,
        /// Index of the level whose query `child` extends.
        parent_level: u32,
        /// How many of `child`'s predicates before its last commit
        /// pending levels.
        extends: u32,
        /// The probed query, named once (also the fallback path).
        child: Query,
        /// The interface constant `k` (must be ≥ 1).
        k: u64,
    },
    /// Evicts a walk session (sent when the client session drops).
    WalkClose {
        /// The session id.
        sid: u64,
    },
    /// Asks the server for its own metrics snapshot — the same series the
    /// Prometheus endpoint renders, delivered over the query wire so a
    /// client can audit the server-side ledger without a second port.
    /// A pure read: issues no corpus query and mutates no session state.
    Stats,
}

/// One server → client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Version handshake reply.
    Hello {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// The served schema.
    Schema(Schema),
    /// The corpus size.
    Len(u64),
    /// A full evaluation.
    Evaluation(Evaluation),
    /// An exact count.
    Count(u64),
    /// An exact sum.
    Sum(f64),
    /// A newly opened walk session.
    Session {
        /// Key for subsequent walk requests.
        sid: u64,
    },
    /// A count-only classification.
    Classified(Classified),
    /// Acknowledges a [`Request::WalkClose`].
    Closed,
    /// The referenced session/level was evicted or never existed, so a
    /// probe's extends could not commit; the client re-roots or falls
    /// back to fresh evaluation (bit-identical, just slower). Not an
    /// error.
    SessionGone,
    /// Reply to [`Request::Stats`]: the server's metrics snapshot at the
    /// moment the request was dispatched.
    Stats(MetricsSnapshot),
    /// A typed error (invalid query, unsupported request, a reply too
    /// large for one frame, …).
    Error(HdbError),
}

// ---------------------------------------------------------------------------
// Byte-level codec

/// Append-only payload encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh, empty payload.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded payload.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize, what: &str) -> Result<()> {
        self.u64(u64::try_from(v).map_err(|_| oversize(what))?);
        Ok(())
    }

    /// A `u32` sequence-length prefix for `n` elements.
    pub(crate) fn seq(&mut self, n: usize, what: &str) -> Result<()> {
        self.u32(u32::try_from(n).map_err(|_| oversize(what))?);
        Ok(())
    }

    pub(crate) fn str(&mut self, s: &str) -> Result<()> {
        self.u32(u32::try_from(s.len()).map_err(|_| oversize("string"))?);
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Cursor-based payload decoder; every method is total and reports
/// malformed input as [`HdbError::Transport`].
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn truncated(what: &str) -> HdbError {
    HdbError::Transport(format!("malformed frame: truncated {what}"))
}

fn oversize(what: &str) -> HdbError {
    HdbError::Transport(format!("unencodable message: {what} exceeds the wire's u32 range"))
}

impl<'a> Dec<'a> {
    /// Starts decoding `buf` from its first byte.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else { return Err(truncated(what)) };
        let Some(s) = self.buf.get(self.pos..end) else { return Err(truncated(what)) };
        self.pos = end;
        Ok(s)
    }

    fn take_array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        <[u8; N]>::try_from(self.take(N, what)?).map_err(|_| truncated(what))
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8> {
        self.take(1, what)?.first().copied().ok_or_else(|| truncated(what))
    }

    pub(crate) fn u16(&mut self, what: &str) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take_array(what)?))
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take_array(what)?))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take_array(what)?))
    }

    pub(crate) fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    pub(crate) fn usize(&mut self, what: &str) -> Result<usize> {
        usize::try_from(self.u64(what)?)
            .map_err(|_| HdbError::Transport(format!("malformed frame: {what} overflows usize")))
    }

    /// A `u32` length prefix that cannot plausibly exceed the remaining
    /// payload (each element is ≥ 1 byte) — rejects absurd lengths before
    /// any allocation.
    pub(crate) fn seq_len(&mut self, what: &str) -> Result<usize> {
        let n = usize::try_from(self.u32(what)?)
            .map_err(|_| HdbError::Transport(format!("malformed frame: {what} overflows usize")))?;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(HdbError::Transport(format!(
                "malformed frame: {what} claims {n} elements with {} bytes left",
                self.buf.len() - self.pos
            )));
        }
        Ok(n)
    }

    pub(crate) fn str(&mut self, what: &str) -> Result<String> {
        let n = usize::try_from(self.u32(what)?)
            .map_err(|_| HdbError::Transport(format!("malformed frame: {what} overflows usize")))?;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| HdbError::Transport(format!("malformed frame: {what} is not UTF-8")))
    }

    /// Fails unless the whole payload was consumed (trailing garbage is a
    /// framing bug worth surfacing, not ignoring).
    pub(crate) fn finish(self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(HdbError::Transport(format!(
                "malformed frame: {} trailing bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Domain-type codecs

fn enc_predicate(e: &mut Enc, p: Predicate) -> Result<()> {
    e.usize(p.attr, "predicate attr")?;
    e.u16(p.value);
    Ok(())
}

fn dec_predicate(d: &mut Dec<'_>) -> Result<Predicate> {
    let attr = d.usize("predicate attr")?;
    let value = d.u16("predicate value")?;
    Ok(Predicate::new(attr, value))
}

fn enc_query(e: &mut Enc, q: &Query) -> Result<()> {
    e.seq(q.predicates().len(), "query predicate count")?;
    for &p in q.predicates() {
        enc_predicate(e, p)?;
    }
    Ok(())
}

fn dec_query(d: &mut Dec<'_>) -> Result<Query> {
    let n = d.seq_len("query predicate count")?;
    let mut preds = Vec::with_capacity(n);
    for _ in 0..n {
        preds.push(dec_predicate(d)?);
    }
    // `Query::new` re-checks the no-duplicate-attribute invariant, so a
    // hostile frame cannot construct a query the type forbids.
    Query::new(preds)
}

pub(crate) fn enc_tuple(e: &mut Enc, t: &Tuple) -> Result<()> {
    e.seq(t.arity(), "tuple arity")?;
    for &v in t.values() {
        e.u16(v);
    }
    Ok(())
}

pub(crate) fn dec_tuple(d: &mut Dec<'_>) -> Result<Tuple> {
    let n = d.seq_len("tuple arity")?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(d.u16("tuple value")?);
    }
    Ok(Tuple::new(values))
}

fn enc_page(e: &mut Enc, page: &[ReturnedTuple]) -> Result<()> {
    e.seq(page.len(), "page length")?;
    for t in page {
        e.u32(t.id);
        enc_tuple(e, &t.tuple)?;
    }
    Ok(())
}

fn dec_page(d: &mut Dec<'_>) -> Result<Vec<ReturnedTuple>> {
    let n = d.seq_len("page length")?;
    let mut page = Vec::with_capacity(n);
    for _ in 0..n {
        let id = d.u32("tuple id")?;
        let tuple = dec_tuple(d)?;
        page.push(ReturnedTuple { id, tuple });
    }
    Ok(page)
}

pub(crate) fn enc_schema(e: &mut Enc, s: &Schema) -> Result<()> {
    e.seq(s.len(), "schema attribute count")?;
    for a in s.attributes() {
        e.str(a.name())?;
        e.seq(a.fanout(), "attribute fanout")?;
        for v in 0..a.fanout() {
            let vid = crate::schema::ValueId::try_from(v)
                .map_err(|_| oversize("attribute fanout"))?;
            e.str(a.value_label(vid))?;
        }
        match a.is_numeric() {
            false => e.u8(0),
            true => {
                e.u8(1);
                for v in 0..a.fanout() {
                    let vid = crate::schema::ValueId::try_from(v)
                        .map_err(|_| oversize("attribute fanout"))?;
                    let Some(x) = a.numeric_value(vid) else {
                        return Err(HdbError::Transport(format!(
                            "unencodable message: numeric attribute `{}` lacks a value for {v}",
                            a.name()
                        )));
                    };
                    e.f64(x);
                }
            }
        }
    }
    Ok(())
}

pub(crate) fn dec_schema(d: &mut Dec<'_>) -> Result<Schema> {
    let n = d.seq_len("schema attribute count")?;
    let mut attrs = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str("attribute name")?;
        let fanout = d.seq_len("attribute fanout")?;
        let mut values = Vec::with_capacity(fanout);
        for _ in 0..fanout {
            values.push(d.str("value label")?);
        }
        let mut attr = Attribute::categorical(name, values)?;
        if d.u8("numeric flag")? != 0 {
            let mut numeric = Vec::with_capacity(fanout);
            for _ in 0..fanout {
                numeric.push(d.f64("numeric value")?);
            }
            attr = attr.with_numeric(numeric)?;
        }
        attrs.push(attr);
    }
    Schema::new(attrs)
}

fn enc_ranking(e: &mut Enc, r: RankingSpec) -> Result<()> {
    match r {
        RankingSpec::RowId => e.u8(0),
        RankingSpec::Attribute { attr, descending } => {
            e.u8(1);
            e.usize(attr, "ranking attr")?;
            e.u8(u8::from(descending));
        }
        RankingSpec::SeededRandom { seed } => {
            e.u8(2);
            e.u64(seed);
        }
    }
    Ok(())
}

fn dec_ranking(d: &mut Dec<'_>) -> Result<RankingSpec> {
    match d.u8("ranking tag")? {
        0 => Ok(RankingSpec::RowId),
        1 => Ok(RankingSpec::Attribute {
            attr: d.usize("ranking attr")?,
            descending: d.u8("ranking direction")? != 0,
        }),
        2 => Ok(RankingSpec::SeededRandom { seed: d.u64("ranking seed")? }),
        t => Err(HdbError::Transport(format!("malformed frame: unknown ranking tag {t}"))),
    }
}

fn enc_error(e: &mut Enc, err: &HdbError) -> Result<()> {
    match err {
        HdbError::InvalidSchema(m) => {
            e.u8(0);
            e.str(m)?;
        }
        HdbError::InvalidTuple(m) => {
            e.u8(1);
            e.str(m)?;
        }
        HdbError::InvalidQuery(m) => {
            e.u8(2);
            e.str(m)?;
        }
        HdbError::BudgetExhausted { limit } => {
            e.u8(3);
            e.u64(*limit);
        }
        HdbError::Transport(m) => {
            e.u8(4);
            e.str(m)?;
        }
        HdbError::Storage(m) => {
            e.u8(5);
            e.str(m)?;
        }
        HdbError::Corrupt(m) => {
            e.u8(6);
            e.str(m)?;
        }
        HdbError::ReadOnly(m) => {
            e.u8(7);
            e.str(m)?;
        }
    }
    Ok(())
}

fn dec_error(d: &mut Dec<'_>) -> Result<HdbError> {
    Ok(match d.u8("error tag")? {
        0 => HdbError::InvalidSchema(d.str("error message")?),
        1 => HdbError::InvalidTuple(d.str("error message")?),
        2 => HdbError::InvalidQuery(d.str("error message")?),
        3 => HdbError::BudgetExhausted { limit: d.u64("budget limit")? },
        4 => HdbError::Transport(d.str("error message")?),
        5 => HdbError::Storage(d.str("error message")?),
        6 => HdbError::Corrupt(d.str("error message")?),
        7 => HdbError::ReadOnly(d.str("error message")?),
        t => return Err(HdbError::Transport(format!("malformed frame: unknown error tag {t}"))),
    })
}

fn enc_snapshot(e: &mut Enc, snap: &MetricsSnapshot) -> Result<()> {
    e.seq(snap.counters.len(), "counter count")?;
    for (name, v) in &snap.counters {
        e.str(name)?;
        e.u64(*v);
    }
    e.seq(snap.gauges.len(), "gauge count")?;
    for (name, v) in &snap.gauges {
        e.str(name)?;
        e.u64(*v);
    }
    e.seq(snap.histograms.len(), "histogram count")?;
    for (name, h) in &snap.histograms {
        e.str(name)?;
        e.seq(h.buckets.len(), "histogram bucket count")?;
        for b in &h.buckets {
            e.u64(*b);
        }
        e.u64(h.count);
        e.u64(h.sum);
    }
    Ok(())
}

fn dec_snapshot(d: &mut Dec<'_>) -> Result<MetricsSnapshot> {
    let mut snap = MetricsSnapshot::default();
    for _ in 0..d.seq_len("counter count")? {
        let name = d.str("counter name")?;
        let value = d.u64("counter value")?;
        snap.counters.insert(name, value);
    }
    for _ in 0..d.seq_len("gauge count")? {
        let name = d.str("gauge name")?;
        let value = d.u64("gauge value")?;
        snap.gauges.insert(name, value);
    }
    for _ in 0..d.seq_len("histogram count")? {
        let name = d.str("histogram name")?;
        let n_buckets = d.seq_len("histogram bucket count")?;
        let mut buckets = Vec::with_capacity(n_buckets);
        for _ in 0..n_buckets {
            buckets.push(d.u64("histogram bucket")?);
        }
        let count = d.u64("histogram observation count")?;
        let sum = d.u64("histogram sum")?;
        snap.histograms.insert(name, HistogramSnapshot { buckets, count, sum });
    }
    Ok(snap)
}

// ---------------------------------------------------------------------------
// Message codecs

impl Request {
    /// Whether this request may be sent **again** after a failed exchange
    /// without changing server state beyond what a single send would.
    ///
    /// Reads ([`Request::Schema`], [`Request::Len`], evaluations, exact
    /// aggregates) are trivially replayable. A walk probe's extends are
    /// replayable **by construction**: the server truncates the state
    /// stack to `parent_level + 1` before pushing them, so re-sending the
    /// same probe converges to the same stack no matter how much of the
    /// first attempt the server executed before the connection died.
    /// [`Request::WalkClose`] is an idempotent evict.
    ///
    /// The one exception is [`Request::WalkOpen`]: every send allocates a
    /// **fresh** session id, so a blind replay leaks a session and — far
    /// worse — leaves the client unsure *which* sid its later messages
    /// commit into. The retry loop in `remote` consults this method and
    /// never sends such a request again once it was written.
    #[must_use]
    pub fn replayable(&self) -> bool {
        !matches!(self, Self::WalkOpen { .. })
    }

    /// Encodes this request as a frame payload.
    ///
    /// # Errors
    /// [`HdbError::Transport`] if a length in the message does not fit
    /// the wire's `u32` ranges (a message that big could never be framed).
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut e = Enc::new();
        match self {
            Self::Hello { version } => {
                e.u8(0x01);
                e.u32(*version);
            }
            Self::Schema => e.u8(0x02),
            Self::Len => e.u8(0x03),
            Self::Evaluate { query, k, ranking } => {
                e.u8(0x04);
                enc_query(&mut e, query)?;
                e.u64(*k);
                enc_ranking(&mut e, *ranking)?;
            }
            Self::ExactCount { query } => {
                e.u8(0x05);
                enc_query(&mut e, query)?;
            }
            Self::ExactSum { attr, query } => {
                e.u8(0x06);
                e.u64(*attr);
                enc_query(&mut e, query)?;
            }
            Self::WalkOpen { root } => {
                e.u8(0x07);
                enc_query(&mut e, root)?;
            }
            Self::WalkClassify { sid, parent_level, extends, child, k } => {
                e.u8(0x0C);
                e.u64(*sid);
                e.u32(*parent_level);
                e.u32(*extends);
                enc_query(&mut e, child)?;
                e.u64(*k);
            }
            Self::WalkClose { sid } => {
                e.u8(0x0B);
                e.u64(*sid);
            }
            Self::Stats => e.u8(0x0F),
        }
        Ok(e.into_bytes())
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    /// [`HdbError::Transport`] for any malformed payload.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        let mut d = Dec::new(payload);
        let req = match d.u8("request tag")? {
            0x01 => Self::Hello { version: d.u32("hello version")? },
            0x02 => Self::Schema,
            0x03 => Self::Len,
            0x04 => Self::Evaluate {
                query: dec_query(&mut d)?,
                k: d.u64("k")?,
                ranking: dec_ranking(&mut d)?,
            },
            0x05 => Self::ExactCount { query: dec_query(&mut d)? },
            0x06 => Self::ExactSum { attr: d.u64("sum attr")?, query: dec_query(&mut d)? },
            0x07 => Self::WalkOpen { root: dec_query(&mut d)? },
            0x0C => Self::WalkClassify {
                sid: d.u64("sid")?,
                parent_level: d.u32("parent level")?,
                extends: d.u32("extend count")?,
                child: dec_query(&mut d)?,
                k: d.u64("k")?,
            },
            0x0B => Self::WalkClose { sid: d.u64("sid")? },
            0x0F => Self::Stats,
            t => {
                return Err(HdbError::Transport(format!(
                    "malformed frame: unknown request tag {t:#04x}"
                )))
            }
        };
        d.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes this response as a frame payload.
    ///
    /// # Errors
    /// [`HdbError::Transport`] if a length in the message does not fit
    /// the wire's `u32` ranges (a message that big could never be framed).
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut e = Enc::new();
        match self {
            Self::Hello { version } => {
                e.u8(0x81);
                e.u32(*version);
            }
            Self::Schema(s) => {
                e.u8(0x82);
                enc_schema(&mut e, s)?;
            }
            Self::Len(n) => {
                e.u8(0x83);
                e.u64(*n);
            }
            Self::Evaluation(ev) => {
                e.u8(0x84);
                e.usize(ev.count, "evaluation count")?;
                enc_page(&mut e, &ev.top)?;
            }
            Self::Count(n) => {
                e.u8(0x85);
                e.u64(*n);
            }
            Self::Sum(x) => {
                e.u8(0x86);
                e.f64(*x);
            }
            Self::Session { sid } => {
                e.u8(0x87);
                e.u64(*sid);
            }
            Self::Classified(c) => {
                e.u8(0x89);
                e.usize(c.count, "classified count")?;
                enc_page(&mut e, &c.page)?;
            }
            Self::Closed => e.u8(0x8A),
            Self::SessionGone => e.u8(0x8B),
            Self::Error(err) => {
                e.u8(0x8F);
                enc_error(&mut e, err)?;
            }
            Self::Stats(snap) => {
                e.u8(0x8C);
                enc_snapshot(&mut e, snap)?;
            }
        }
        Ok(e.into_bytes())
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    /// [`HdbError::Transport`] for any malformed payload.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        let mut d = Dec::new(payload);
        let resp = match d.u8("response tag")? {
            0x81 => Self::Hello { version: d.u32("hello version")? },
            0x82 => Self::Schema(dec_schema(&mut d)?),
            0x83 => Self::Len(d.u64("len")?),
            0x84 => {
                let count = d.usize("evaluation count")?;
                Self::Evaluation(Evaluation { count, top: dec_page(&mut d)? })
            }
            0x85 => Self::Count(d.u64("count")?),
            0x86 => Self::Sum(d.f64("sum")?),
            0x87 => Self::Session { sid: d.u64("sid")? },
            0x89 => {
                let count = d.usize("classified count")?;
                Self::Classified(Classified { count, page: dec_page(&mut d)? })
            }
            0x8A => Self::Closed,
            0x8B => Self::SessionGone,
            0x8C => Self::Stats(dec_snapshot(&mut d)?),
            0x8F => Self::Error(dec_error(&mut d)?),
            t => {
                return Err(HdbError::Transport(format!(
                    "malformed frame: unknown response tag {t:#04x}"
                )))
            }
        };
        d.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Framing

/// Writes one frame (length prefix + payload) to `w`.
///
/// # Errors
/// [`HdbError::Transport`] on any I/O failure or an over-long payload.
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(HdbError::Transport(format!(
            "frame payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
            payload.len()
        )));
    }
    let len = u32::try_from(payload.len()).map_err(|_| oversize("frame payload"))?;
    let io = w
        .write_all(&len.to_le_bytes())
        .and_then(|()| w.write_all(payload))
        .and_then(|()| w.flush());
    io.map_err(|e| HdbError::Transport(format!("write failed: {e}")))
}

/// Reads one frame from `r` (blocking). Returns `Ok(None)` on a clean
/// end-of-stream *before* any header byte — the peer closed between
/// frames.
///
/// # Errors
/// [`HdbError::Transport`] on I/O failure, a mid-frame disconnect, or a
/// corrupt length prefix.
pub fn read_frame(r: &mut impl std::io::Read) -> Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while let Some(rest) = header.get_mut(filled..).filter(|r| !r.is_empty()) {
        match r.read(rest) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(HdbError::Transport("connection closed mid-frame".into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HdbError::Transport(format!("read failed: {e}"))),
        }
    }
    let len = usize::try_from(u32::from_le_bytes(header))
        .map_err(|_| HdbError::Transport("frame length overflows usize".into()))?;
    if len > MAX_FRAME_LEN {
        return Err(HdbError::Transport(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while let Some(rest) = payload.get_mut(filled..).filter(|r| !r.is_empty()) {
        match r.read(rest) {
            Ok(0) => return Err(HdbError::Transport("connection closed mid-frame".into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HdbError::Transport(format!("read failed: {e}"))),
        }
    }
    Ok(Some(payload))
}

/// Incremental frame accumulator for a nonblocking reader, such as a
/// server connection read whenever its reactor reports it readable:
/// bytes arrive in arbitrary chunks via [`FrameBuf::extend`], complete
/// frames come out of [`FrameBuf::next_frame`], and a partial frame
/// persists until the rest of it arrives.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame payload, if one is buffered.
    ///
    /// # Errors
    /// [`HdbError::Transport`] if the buffered length prefix is corrupt
    /// (over the [`MAX_FRAME_LEN`] cap) — the connection should be
    /// dropped, as the byte stream can never resynchronise.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        let Some(prefix) = self.buf.get(..4) else { return Ok(None) };
        let header =
            <[u8; 4]>::try_from(prefix).map_err(|_| truncated("frame header"))?;
        let len = usize::try_from(u32::from_le_bytes(header))
            .map_err(|_| HdbError::Transport("frame length overflows usize".into()))?;
        if len > MAX_FRAME_LEN {
            return Err(HdbError::Transport(format!(
                "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
            )));
        }
        let total = len.saturating_add(4);
        let Some(frame) = self.buf.get(4..total) else { return Ok(None) };
        let payload = frame.to_vec();
        self.buf.drain(..total);
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ValueId;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::boolean("a"),
            Attribute::categorical("c", ["x", "y", "z"])
                .unwrap()
                .with_numeric(vec![1.5, -2.0, 0.25])
                .unwrap(),
            Attribute::categorical("plain", ["p", "q"]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn requests_roundtrip() {
        let q = Query::all().and(0, 1).unwrap().and(1, 2).unwrap();
        let requests = vec![
            Request::Hello { version: PROTOCOL_VERSION },
            Request::Schema,
            Request::Len,
            Request::Evaluate { query: q.clone(), k: 7, ranking: RankingSpec::RowId },
            Request::Evaluate {
                query: Query::all(),
                k: 1,
                ranking: RankingSpec::Attribute { attr: 3, descending: true },
            },
            Request::Evaluate {
                query: q.clone(),
                k: 3,
                ranking: RankingSpec::SeededRandom { seed: 42 },
            },
            Request::ExactCount { query: q.clone() },
            Request::ExactSum { attr: 2, query: q.clone() },
            Request::WalkOpen { root: Query::all() },
            Request::WalkClassify { sid: 9, parent_level: 0, extends: 0, child: q.clone(), k: 3 },
            Request::WalkClassify {
                sid: u64::MAX,
                parent_level: 1,
                extends: 0,
                child: q.clone(),
                k: 10,
            },
            Request::WalkClose { sid: 5 },
            Request::WalkClassify {
                sid: 11,
                parent_level: 3,
                extends: 1,
                child: q.clone().and(2, 1).unwrap(),
                k: 4,
            },
            Request::WalkClassify {
                sid: 12,
                parent_level: 0,
                extends: 2,
                child: q.clone().and(2, 0).unwrap(),
                k: 9,
            },
            // A count that leaves no probed predicate still decodes; the
            // server refuses it.
            Request::WalkClassify { sid: 13, parent_level: 0, extends: 2, child: q.clone(), k: 1 },
            Request::Stats,
        ];
        for req in requests {
            let bytes = req.encode().unwrap();
            assert_eq!(Request::decode(&bytes).unwrap(), req);
        }
        // A walk probe names its query once: with no extends or with
        // three, it is the same 29 + 10·|child| bytes, laid out as tag,
        // sid, parent level, extend count, query, k.
        let child = q.and(2, 0).unwrap().and(3, 1).unwrap();
        let len = 29 + 10 * child.len();
        for extends in [0u32, 3] {
            let child = child.clone();
            let req = Request::WalkClassify { sid: 7, parent_level: 1, extends, child, k: 10 };
            let bytes = req.encode().unwrap();
            assert_eq!(bytes.len(), len, "extends={extends}");
            let mut head = vec![0x0C];
            head.extend(7u64.to_le_bytes());
            head.extend(1u32.to_le_bytes());
            head.extend(extends.to_le_bytes());
            head.extend(4u32.to_le_bytes());
            assert!(bytes.starts_with(&head), "extends={extends}");
            assert!(bytes.ends_with(&10u64.to_le_bytes()), "extends={extends}");
            assert_eq!(Request::decode(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let page = vec![
            ReturnedTuple { id: 0, tuple: Tuple::new(vec![0, 2, 1]) },
            ReturnedTuple { id: 41, tuple: Tuple::new(vec![1, 0, 0]) },
        ];
        let responses = vec![
            Response::Hello { version: PROTOCOL_VERSION },
            Response::Schema(schema()),
            Response::Len(123_456),
            Response::Evaluation(Evaluation { count: 99, top: page.clone() }),
            Response::Count(7),
            Response::Sum(-1234.5),
            Response::Session { sid: 3 },
            Response::Classified(Classified { count: 2, page: page.clone() }),
            Response::Closed,
            Response::SessionGone,
            Response::Error(HdbError::InvalidQuery("nope".into())),
            Response::Error(HdbError::BudgetExhausted { limit: 1000 }),
            Response::Error(HdbError::Transport("boom".into())),
            Response::Stats(MetricsSnapshot::default()),
            Response::Stats(sample_snapshot()),
        ];
        for resp in responses {
            let bytes = resp.encode().unwrap();
            assert_eq!(Response::decode(&bytes).unwrap(), resp);
        }
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("hdb_queries_issued_total".into(), 42);
        snap.counters.insert("hdb_queries_valid_total".into(), 40);
        snap.gauges.insert("hdb_server_sessions".into(), 3);
        snap.gauges.insert("hdb_walk_scratch_high_water".into(), u64::MAX);
        snap.histograms.insert(
            "hdb_wal_append_nanos".into(),
            HistogramSnapshot { buckets: vec![0, 1, 2, 0, 7], count: 10, sum: 123_456 },
        );
        snap.histograms.insert(
            "hdb_engine_pass_nanos".into(),
            HistogramSnapshot { buckets: Vec::new(), count: 0, sum: 0 },
        );
        snap
    }

    #[test]
    fn stats_frames_are_total_under_truncation() {
        // A Stats request is a single tag byte; anything appended is
        // trailing garbage and anything removed is an empty payload.
        let req = Request::Stats.encode().unwrap();
        assert_eq!(req, vec![0x0F]);
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0x0F, 0x00]).is_err());
        // Every proper prefix of an encoded Stats response is rejected
        // with a typed transport error, never a panic or a short read.
        let bytes = Response::Stats(sample_snapshot()).encode().unwrap();
        for cut in 0..bytes.len() {
            assert!(
                Response::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded cleanly"
            );
        }
        assert!(Response::decode(&bytes).is_ok());
    }

    fn big_page(n: usize) -> Vec<ReturnedTuple> {
        (0..n)
            .map(|i| ReturnedTuple {
                id: u32::try_from(i).unwrap(),
                tuple: Tuple::new(vec![u16::try_from(i % 7).unwrap(), 1]),
            })
            .collect()
    }

    #[test]
    fn large_pages_cross_in_one_frame() {
        let responses = [
            Response::Evaluation(Evaluation { count: 0, top: Vec::new() }),
            Response::Evaluation(Evaluation { count: 100_000, top: big_page(3089) }),
            Response::Classified(Classified { count: 5000, page: big_page(5000) }),
        ];
        for resp in responses {
            let mut stream = Vec::new();
            write_frame(&mut stream, &resp.encode().unwrap()).unwrap();
            let mut cursor = std::io::Cursor::new(stream.clone());
            let payload = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(Response::decode(&payload).unwrap(), resp);
            assert_eq!(read_frame(&mut cursor).unwrap(), None, "one frame per reply");
            // Cut anywhere past the first byte: a typed error, never a
            // short page silently returned.
            for cut in [1, 4, 7, stream.len() - 1] {
                let mut c = std::io::Cursor::new(stream[..cut].to_vec());
                assert!(matches!(read_frame(&mut c), Err(HdbError::Transport(_))), "cut={cut}");
            }
        }
    }

    #[test]
    fn schema_roundtrip_preserves_numeric_interpretation() {
        let s = schema();
        let mut e = Enc::new();
        enc_schema(&mut e, &s).unwrap();
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = dec_schema(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back, s);
        assert_eq!(back.attribute(1).numeric_value(2 as ValueId), Some(0.25));
        assert!(!back.attribute(2).is_numeric());
    }

    #[test]
    fn malformed_payloads_are_typed_errors_not_panics() {
        // every prefix of a valid message must fail cleanly, a chained
        // probe included
        let child = Query::all().and(0, 1).unwrap().and(1, 0).unwrap().and(2, 1).unwrap();
        let full = Request::WalkClassify { sid: 1, parent_level: 0, extends: 2, child, k: 2 }
            .encode()
            .unwrap();
        for cut in 0..full.len() {
            let err = Request::decode(&full[..cut]).unwrap_err();
            assert!(matches!(err, HdbError::Transport(_)), "cut={cut}");
        }
        // unknown tags
        assert!(Request::decode(&[0x7F]).is_err());
        assert!(Response::decode(&[0x00]).is_err());
        // the retired page-stream head (0x90, wrapping a page carrier) and
        // page chunk (0x91, terminator byte plus page) are unknown tags
        let classified = Response::Classified(Classified { count: 9, page: big_page(2) });
        let mut head = vec![0x90];
        head.extend(classified.encode().unwrap());
        let mut chunk = vec![0x91, 1];
        chunk.extend(&classified.encode().unwrap()[9..]);
        for (tag, retired) in [(0x90, head), (0x91, chunk)] {
            match Response::decode(&retired) {
                Err(HdbError::Transport(msg)) => {
                    assert!(msg.contains(&format!("unknown response tag {tag:#04x}")), "{msg}");
                }
                other => panic!("retired tag {tag:#04x} decoded as {other:?}"),
            }
        }
        // the retired walk probes are unknown tags: a well-formed version-5
        // body under 0x0A (sid, parent level, two steps each a predicate
        // and its query, then the probe's query, predicate and k), and
        // the same body under 0x09 with a ranking byte, the full-page
        // probe version 4 retired
        let mut e = Enc::new();
        e.u8(0x0A);
        e.u64(1);
        e.u32(0);
        e.u32(2);
        let mut level = Query::all();
        for p in [Predicate::new(0, 1), Predicate::new(1, 0)] {
            level = level.and(p.attr, p.value).unwrap();
            enc_predicate(&mut e, p).unwrap();
            enc_query(&mut e, &level).unwrap();
        }
        enc_query(&mut e, &level.and(2, 1).unwrap()).unwrap();
        enc_predicate(&mut e, Predicate::new(2, 1)).unwrap();
        e.u64(2);
        let v5 = e.into_bytes();
        let mut v4 = v5.clone();
        v4[0] = 0x09;
        v4.push(0x00);
        for (tag, retired) in [(0x0Au8, v5), (0x09, v4)] {
            match Request::decode(&retired) {
                Err(HdbError::Transport(msg)) => {
                    assert!(msg.contains(&format!("unknown request tag {tag:#04x}")), "{msg}");
                }
                other => panic!("retired tag {tag:#04x} decoded as {other:?}"),
            }
        }
        // trailing garbage
        let mut bytes = Request::Len.encode().unwrap();
        bytes.push(9);
        assert!(Request::decode(&bytes).is_err());
        // absurd sequence length: claims 4 billion predicates
        let mut e = Enc::new();
        e.u8(0x05);
        e.u32(u32::MAX);
        assert!(Request::decode(&e.into_bytes()).is_err());
        // duplicate-attribute query rejected at decode
        let mut e = Enc::new();
        e.u8(0x05);
        e.u32(2);
        e.usize(0, "attr").unwrap();
        e.u16(0);
        e.usize(0, "attr").unwrap();
        e.u16(1);
        assert!(matches!(
            Request::decode(&e.into_bytes()),
            Err(HdbError::InvalidQuery(_))
        ));
    }

    #[test]
    fn frames_roundtrip_over_a_byte_stream() {
        let payloads: Vec<Vec<u8>> =
            vec![Request::Len.encode().unwrap(), Request::Schema.encode().unwrap(), vec![], vec![0u8; 4096]];
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p).unwrap();
        }
        let mut cursor = std::io::Cursor::new(stream.clone());
        for p in &payloads {
            assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(p.as_slice()));
        }
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF between frames");

        // a truncated stream is a mid-frame disconnect
        let mut cut = std::io::Cursor::new(stream[..stream.len() - 1].to_vec());
        for _ in 0..payloads.len() - 1 {
            read_frame(&mut cut).unwrap();
        }
        assert!(matches!(read_frame(&mut cut), Err(HdbError::Transport(_))));

        // an oversized length prefix is rejected before allocation
        let mut evil = std::io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        assert!(matches!(read_frame(&mut evil), Err(HdbError::Transport(_))));
    }

    #[test]
    fn frame_buf_reassembles_arbitrary_chunks() {
        let payloads = [Request::Len.encode().unwrap(), Request::Schema.encode().unwrap()];
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p).unwrap();
        }
        for chunk in [1usize, 2, 3, 5, stream.len()] {
            let mut fb = FrameBuf::new();
            let mut got = Vec::new();
            for bytes in stream.chunks(chunk) {
                fb.extend(bytes);
                while let Some(p) = fb.next_frame().unwrap() {
                    got.push(p);
                }
            }
            assert_eq!(got.len(), payloads.len(), "chunk={chunk}");
            assert_eq!(got[0], payloads[0]);
            assert_eq!(got[1], payloads[1]);
        }
        // corrupt prefix surfaces as an error
        let mut fb = FrameBuf::new();
        fb.extend(&u32::MAX.to_le_bytes());
        assert!(fb.next_frame().is_err());
    }
}
