//! Traced-mode instruments: a forwarding [`SearchBackend`] wrapper that
//! times every call into the layer below it, lock-free latency
//! histograms, and in-memory spans written out when the run ends.

use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::sys;
use hdb_interface::obs::{SpanPhase, TraceRing};
use hdb_interface::{
    AttrId, Classified, Evaluation, MetricsSnapshot, Predicate, Query, RankingFunction, Result,
    Schema, SearchBackend, WalkState,
};

/// Sub-buckets per power of two: values are resolved to 1/32 (about 3%).
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = 64 * SUB;

/// Span events kept per run (open and close): the newest 65,536 spans.
const SPAN_EVENTS: usize = 1 << 17;

/// A log-linear histogram of nanosecond durations, safe to record from
/// many threads without locks.
pub struct LogHist {
    buckets: Box<[AtomicU64]>,
}

impl Default for LogHist {
    fn default() -> Self {
        Self { buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect() }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) as usize - SUB;
    (e - SUB_BITS + 1) as usize * SUB + sub
}

/// The midpoint of bucket `idx`.
fn bucket_mid(idx: usize) -> f64 {
    if idx < SUB {
        return idx as f64;
    }
    let shift = (idx / SUB - 1) as u32;
    let lower = ((SUB + idx % SUB) as u64) << shift;
    lower as f64 + 2f64.powi(shift as i32) / 2.0
}

impl LogHist {
    /// Records one duration.
    pub fn observe(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile in microseconds (0 when empty).
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> f64 {
        Self::merged_quantile_us(&[self], q)
    }

    /// The `q`-quantile of the union of `hists`, in microseconds.
    #[must_use]
    pub fn merged_quantile_us(hists: &[&LogHist], q: f64) -> f64 {
        let n: u64 = hists.iter().map(|h| h.count()).sum();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for idx in 0..BUCKETS {
            seen += hists.iter().map(|h| h.buckets[idx].load(Ordering::Relaxed)).sum::<u64>();
            if seen >= rank {
                return bucket_mid(idx) / 1e3;
            }
        }
        0.0
    }
}

/// The [`SearchBackend`] methods that do a layer's work, timed one by one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    ClassifyFrom,
    EvaluateFrom,
    ExtendState,
    WalkState,
    Evaluate,
}

impl Method {
    /// Every timed method, in report order.
    pub const ALL: [Method; 5] = [
        Method::ClassifyFrom,
        Method::EvaluateFrom,
        Method::ExtendState,
        Method::WalkState,
        Method::Evaluate,
    ];

    /// The method's name in metric keys.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Method::ClassifyFrom => "classify_from",
            Method::EvaluateFrom => "evaluate_from",
            Method::ExtendState => "extend_state",
            Method::WalkState => "walk_state",
            Method::Evaluate => "evaluate",
        }
    }

    /// The span label of this method called on `layer`.
    #[must_use]
    pub fn label(self, layer: Layer) -> &'static str {
        const LABELS: [[&str; 5]; 2] = [
            [
                "backend.classify_from",
                "backend.evaluate_from",
                "backend.extend_state",
                "backend.walk_state",
                "backend.evaluate",
            ],
            [
                "remote.classify_from",
                "remote.evaluate_from",
                "remote.extend_state",
                "remote.walk_state",
                "remote.evaluate",
            ],
        ];
        LABELS[layer as usize][self as usize]
    }

    /// Whether a remote client sends a request for this method
    /// (`extend_state` only records a pending branch).
    #[must_use]
    pub fn crosses_wire(self) -> bool {
        self != Method::ExtendState
    }
}

/// Calls, busy time and latency of one method.
#[derive(Default)]
struct MethodStats {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    hist: LogHist,
}

/// The layer a [`LayerProbe`] times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The layer that evaluates queries.
    Backend,
    /// The `RemoteBackend` client.
    Remote,
}

thread_local! {
    /// The span id of the pass the current thread is running (0: none).
    static CURRENT_PASS: Cell<u64> = const { Cell::new(0) };
}

/// The spans of one traced run: a [`TraceRing`] whose timestamps are
/// nanoseconds since the run began. Clones share the ring.
#[derive(Clone)]
pub struct Spans {
    ring: TraceRing,
    epoch: Instant,
}

impl Default for Spans {
    fn default() -> Self {
        Self { ring: TraceRing::new(SPAN_EVENTS), epoch: Instant::now() }
    }
}

impl Spans {
    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span of `label` from `start` to `end`, under the pass
    /// the calling thread is running (none on the server side, where no
    /// trace id crosses the wire).
    pub fn record(&self, label: &'static str, start: Instant, end: Instant) {
        let id = self.ring.open(label, CURRENT_PASS.with(Cell::get), self.at(start));
        self.ring.close(id, label, self.at(end));
    }

    /// Runs one estimator pass as a span; spans recorded inside it on
    /// this thread name it as their parent. Returns the pass's result and
    /// duration.
    pub fn pass<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let id = self.ring.open("engine.pass", 0, self.at(start));
        CURRENT_PASS.with(|c| c.set(id));
        let out = f();
        let end = Instant::now();
        CURRENT_PASS.with(|c| c.set(0));
        self.ring.close(id, "engine.pass", self.at(end));
        (out, (end - start).as_nanos() as u64)
    }

    /// Spans recorded so far, including evicted ones.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        (self.ring.len() as u64 + self.ring.dropped()) / 2
    }

    /// Writes the retained events as tab-separated lines.
    ///
    /// # Errors
    /// When the file cannot be written.
    pub fn write_tsv(&self, path: &Path) -> std::result::Result<(), String> {
        let mut out = String::from("id\tparent\tlabel\tphase\tat_ns\n");
        for e in self.ring.events() {
            let phase = if e.phase == SpanPhase::Open { "open" } else { "close" };
            out.push_str(&format!(
                "{}\t{}\t{}\t{phase}\t{}\n",
                e.id, e.parent, e.label, e.at_nanos
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// Per-method statistics of one layer, plus the index-rebuild probe.
/// Each thread records into its own stripe, so threads calling the same
/// layer do not contend on its counters.
pub struct LayerProbe {
    layer: Layer,
    stripes: Box<[[MethodStats; 5]]>,
    /// Armed after a write; the next call is the first read.
    first_read_armed: AtomicBool,
    first_read: LogHist,
}

impl LayerProbe {
    #[must_use]
    pub fn new(layer: Layer) -> Self {
        Self {
            layer,
            stripes: (0..sys::STRIPES).map(|_| Default::default()).collect(),
            first_read_armed: AtomicBool::new(false),
            first_read: LogHist::default(),
        }
    }

    fn sum(&self, m: Method, field: impl Fn(&MethodStats) -> &AtomicU64) -> u64 {
        self.stripes.iter().map(|s| field(&s[m as usize]).load(Ordering::Relaxed)).sum()
    }

    /// Calls of `m`.
    #[must_use]
    pub fn calls(&self, m: Method) -> u64 {
        self.sum(m, |s| &s.calls)
    }

    /// Time spent inside `m`.
    #[must_use]
    pub fn busy_ns(&self, m: Method) -> u64 {
        self.sum(m, |s| &s.busy_ns)
    }

    /// Time spent inside every method.
    #[must_use]
    pub fn total_busy_ns(&self) -> u64 {
        Method::ALL.into_iter().map(|m| self.busy_ns(m)).sum()
    }

    /// The latency histograms of `m`, one per stripe.
    #[must_use]
    pub fn hists(&self, m: Method) -> Vec<&LogHist> {
        self.stripes.iter().map(|s| &s[m as usize].hist).collect()
    }

    /// Marks that the corpus was written: the next call's duration is
    /// recorded as a first read after a write.
    pub fn arm_first_read(&self) {
        self.first_read_armed.store(true, Ordering::Relaxed);
    }

    /// Durations of first reads after writes.
    #[must_use]
    pub fn first_read(&self) -> &LogHist {
        &self.first_read
    }

    fn time<T>(&self, spans: &Spans, m: Method, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = (end - start).as_nanos() as u64;
        let stats = &self.stripes[sys::stripe()][m as usize];
        stats.calls.fetch_add(1, Ordering::Relaxed);
        stats.busy_ns.fetch_add(ns, Ordering::Relaxed);
        stats.hist.observe(ns);
        if self.first_read_armed.load(Ordering::Relaxed)
            && self.first_read_armed.swap(false, Ordering::Relaxed)
        {
            self.first_read.observe(ns);
        }
        spans.record(m.label(self.layer), start, end);
        out
    }
}

/// Forwards every [`SearchBackend`] method to `inner`, timing the ones
/// that do the layer's work. Methods with a default body are forwarded
/// too: a missed one would silently disable the incremental path.
pub struct Traced<B> {
    inner: B,
    probe: Arc<LayerProbe>,
    spans: Spans,
}

impl<B> Traced<B> {
    /// Wraps `inner`, recording into `probe` and `spans`.
    pub fn new(inner: B, probe: &Arc<LayerProbe>, spans: &Spans) -> Self {
        Self { inner, probe: Arc::clone(probe), spans: spans.clone() }
    }
}

impl<B: SearchBackend> SearchBackend for Traced<B> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn evaluate(&self, q: &Query, k: usize, ranking: &dyn RankingFunction) -> Result<Evaluation> {
        self.probe.time(&self.spans, Method::Evaluate, || self.inner.evaluate(q, k, ranking))
    }

    fn round_trip(&self) {
        self.inner.round_trip();
    }

    fn fill_metrics(&self, snap: &mut MetricsSnapshot) {
        self.inner.fill_metrics(snap);
    }

    fn exact_count(&self, q: &Query) -> Result<usize> {
        self.inner.exact_count(q)
    }

    fn exact_sum(&self, attr: AttrId, q: &Query) -> Result<f64> {
        self.inner.exact_sum(attr, q)
    }

    fn walk_state(&self, q: &Query) -> WalkState {
        self.probe.time(&self.spans, Method::WalkState, || self.inner.walk_state(q))
    }

    fn extend_state(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        recycled: WalkState,
    ) -> WalkState {
        self.probe.time(&self.spans, Method::ExtendState, || {
            self.inner.extend_state(parent, child, pred, recycled)
        })
    }

    fn evaluate_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
        ranking: &dyn RankingFunction,
    ) -> Result<Evaluation> {
        self.probe.time(&self.spans, Method::EvaluateFrom, || {
            self.inner.evaluate_from(parent, child, pred, k, ranking)
        })
    }

    fn classify_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
    ) -> Result<Classified> {
        self.probe.time(&self.spans, Method::ClassifyFrom, || {
            self.inner.classify_from(parent, child, pred, k)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for v in (0..4096u64).chain([1 << 20, (1 << 20) + 1, u64::MAX / 2]) {
            let b = bucket_of(v);
            assert!(b >= last && b < BUCKETS, "v={v} b={b}");
            last = b;
            let mid = bucket_mid(b);
            assert!((mid - v as f64).abs() <= v as f64 / SUB as f64 + 0.5, "v={v} mid={mid}");
        }
    }

    #[test]
    fn quantiles_pick_the_ranked_bucket() {
        let h = LogHist::default();
        for ns in 1..=100u64 {
            h.observe(ns * 1000);
        }
        assert!((h.quantile_us(0.5) - 50.0).abs() < 2.0);
        assert!((h.quantile_us(0.99) - 99.0).abs() < 4.0);
    }
}
