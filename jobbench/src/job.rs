//! The closed-loop estimation job shared by every workload, the window
//! that repeats it for the measured time, and the metrics computed from
//! a window.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdb_core::UnbiasedSizeEstimator;
use hdb_interface::{HiddenDb, MetricsSnapshot, SearchBackend, TableBackend, TopKInterface};

use crate::probe::{Layer, LayerProbe, LogHist, Method, Spans, Traced};
use crate::sys::{self, ProcSample};
use crate::{job_seed, Report, K};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Longest time slice a window is cut into for its medians.
const MAX_SLICE_S: f64 = 1.0;

/// Fewest slices a window needs before its medians replace its means.
const MIN_SLICES: usize = 5;

/// Queries issued by finished passes, over every client: what the
/// sampler cuts into slices.
static PROBES_DONE: AtomicU64 = AtomicU64::new(0);

/// Whether work kept off the clock is running: the sampler cuts no slice
/// while it is.
static OFF_CLOCK_NOW: AtomicBool = AtomicBool::new(false);
/// Calls, wall and CPU nanoseconds of work kept off the clock so far.
static OFF_CALLS: AtomicU64 = AtomicU64::new(0);
static OFF_WALL_NS: AtomicU64 = AtomicU64::new(0);
static OFF_CPU_NS: AtomicU64 = AtomicU64::new(0);

/// One timed `pass()` call.
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    pub end: Instant,
    pub ns: u64,
}

/// What a job returned: the estimate's bits and the queries it issued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobResult {
    pub bits: u64,
    pub issued: u64,
}

/// Interface-layer counts read from `HiddenDb::metrics`.
#[derive(Clone, Copy, Debug, Default)]
pub struct IfaceCounts {
    pub issued: u64,
    pub errored: u64,
    pub memo_hits: u64,
    pub extends: u64,
    pub retracts: u64,
}

impl IfaceCounts {
    pub fn add(&mut self, o: &IfaceCounts) {
        self.issued += o.issued;
        self.errored += o.errored;
        self.memo_hits += o.memo_hits;
        self.extends += o.extends;
        self.retracts += o.retracts;
    }
}

/// A counter of `snap`, 0 when absent.
pub fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Checks that `issued == underflow + valid + overflow + errored` in
/// `snap` and returns the issued count.
///
/// # Errors
/// When the ledger does not balance.
pub fn balanced_ledger(snap: &MetricsSnapshot, side: &str) -> Result<u64, String> {
    let issued = counter(snap, "hdb_queries_issued_total");
    let parts = counter(snap, "hdb_queries_underflow_total")
        + counter(snap, "hdb_queries_valid_total")
        + counter(snap, "hdb_queries_overflow_total")
        + counter(snap, "hdb_queries_errored_total");
    if issued != parts {
        return Err(format!("{side} ledger does not balance: issued {issued} != outcomes {parts}"));
    }
    Ok(issued)
}

/// Reads the interface counts of `db`, checking its ledger.
///
/// # Errors
/// When the ledger does not balance.
pub fn iface_counts<B: SearchBackend>(db: &HiddenDb<B>) -> Result<IfaceCounts, String> {
    let snap = db.metrics();
    Ok(IfaceCounts {
        issued: balanced_ledger(&snap, "client")?,
        errored: counter(&snap, "hdb_queries_errored_total"),
        memo_hits: counter(&snap, "hdb_memo_count_hits_total")
            + counter(&snap, "hdb_memo_response_hits_total"),
        extends: counter(&snap, "hdb_walk_extends_total"),
        retracts: counter(&snap, "hdb_walk_retracts_total"),
    })
}

/// Runs one job: a fresh estimator seeded with `seed` makes `passes`
/// passes over `db`. The timed passes are appended to `timed`; with
/// `spans`, each pass is recorded as a span.
///
/// # Errors
/// When a pass fails.
pub fn run_job<B: SearchBackend>(
    db: &HiddenDb<B>,
    seed: u64,
    passes: u64,
    spans: Option<&Spans>,
    timed: &mut Vec<Pass>,
) -> Result<JobResult, String> {
    let mut est = UnbiasedSizeEstimator::hd(seed).map_err(|e| e.to_string())?;
    let mut issued = db.queries_issued();
    for _ in 0..passes {
        let (result, ns) = match spans {
            Some(log) => log.pass(|| est.pass(db)),
            None => {
                let start = Instant::now();
                let result = est.pass(db);
                (result, start.elapsed().as_nanos() as u64)
            }
        };
        result.map_err(|e| format!("pass failed: {e}"))?;
        timed.push(Pass { end: Instant::now(), ns });
        let now = db.queries_issued();
        PROBES_DONE.fetch_add(now - issued, Ordering::Relaxed);
        issued = now;
    }
    let estimate = est.summary().ok_or("job completed no pass")?.estimate;
    Ok(JobResult { bits: estimate.to_bits(), issued: db.queries_issued() })
}

/// Re-runs the first and last job of each client (client `c`'s jobs are
/// `jobs[c]`) on a fresh `HiddenDb` over the in-process `reference`, and
/// compares estimate bits and issued queries.
///
/// # Errors
/// On the first job that differs.
pub fn check_jobs(
    reference: &Arc<TableBackend>,
    run_seed: u64,
    passes: u64,
    jobs: &[Vec<JobResult>],
) -> Result<(), String> {
    for (c, client_jobs) in jobs.iter().enumerate() {
        for j in [0, client_jobs.len() - 1] {
            let db = HiddenDb::over(Arc::clone(reference), K);
            let seed = job_seed(run_seed, c as u64, j as u64);
            let expected = run_job(&db, seed, passes, None, &mut Vec::new())?;
            if expected != client_jobs[j] {
                return Err(format!(
                    "client {c} job {j}: measured {:?}, in-process reference {expected:?}",
                    client_jobs[j]
                ));
            }
        }
    }
    Ok(())
}

/// What one client did in a window.
#[derive(Debug, Default)]
pub struct ClientRun {
    pub jobs: Vec<JobResult>,
    pub passes: Vec<Pass>,
    pub counts: IfaceCounts,
}

/// Repeats jobs `0, 1, …` of one client until `deadline`, each on a
/// fresh `HiddenDb` from `make_db` (at least one job runs).
///
/// # Errors
/// When a job fails or a ledger does not balance.
pub fn client_loop<B: SearchBackend>(
    make_db: impl Fn() -> HiddenDb<B>,
    job_seed: impl Fn(u64) -> u64,
    passes: u64,
    deadline: Instant,
    spans: Option<&Spans>,
) -> Result<ClientRun, String> {
    let mut run = ClientRun::default();
    loop {
        let db = make_db();
        let job = run.jobs.len() as u64;
        run.jobs.push(run_job(&db, job_seed(job), passes, spans, &mut run.passes)?);
        run.counts.add(&iface_counts(&db)?);
        if Instant::now() >= deadline {
            return Ok(run);
        }
    }
}

/// Throughput and CPU time of one slice of a window.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// When the slice ended.
    pub end: Instant,
    /// Seconds on the clock: wall time less work kept off it.
    pub secs: f64,
    pub probes: u64,
    /// CPU seconds less those of work kept off the clock.
    pub cpu_s: f64,
}

impl Slice {
    fn rate(&self) -> f64 {
        self.probes as f64 / self.secs
    }
}

/// Work done inside a window but kept off its clock (see [`off_clock`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct OffClock {
    pub calls: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl OffClock {
    fn now() -> Self {
        Self {
            calls: OFF_CALLS.load(Ordering::Acquire),
            wall_s: OFF_WALL_NS.load(Ordering::Acquire) as f64 / 1e9,
            cpu_s: OFF_CPU_NS.load(Ordering::Acquire) as f64 / 1e9,
        }
    }

    fn since(&self, e: &Self) -> Self {
        Self {
            calls: self.calls - e.calls,
            wall_s: self.wall_s - e.wall_s,
            cpu_s: self.cpu_s - e.cpu_s,
        }
    }
}

/// Runs `f`, single-threaded work that a window must not count, off the
/// clock: the sampler cuts no slice while it runs, and its wall time and
/// CPU time (the calling thread's) are taken out of the slice it ends in
/// and out of the window. Its allocations are not counted.
///
/// # Errors
/// When the thread's CPU time cannot be read.
pub fn off_clock<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    let counting = sys::counting_allocations();
    sys::count_allocations(false);
    OFF_CLOCK_NOW.store(true, Ordering::SeqCst);
    let (start, cpu) = (Instant::now(), sys::thread_cpu_ns()?);
    let out = f();
    OFF_CPU_NS.fetch_add(sys::thread_cpu_ns()? - cpu, Ordering::Release);
    OFF_WALL_NS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Release);
    OFF_CALLS.fetch_add(1, Ordering::Release);
    OFF_CLOCK_NOW.store(false, Ordering::Release);
    sys::count_allocations(counting);
    Ok(out)
}

/// The clock of one window, from [`sliced`].
#[derive(Debug, Default)]
pub struct Clocked {
    /// The window cut into time slices.
    pub slices: Vec<Slice>,
    /// Seconds on the clock.
    pub active_s: f64,
    /// Work kept off the clock.
    pub off: OffClock,
}

/// Runs `work` while a sampler thread cuts its run time into slices of
/// at most [`MAX_SLICE_S`] (about a sixteenth of `seconds`), recording
/// the probes finished and CPU time spent in each. The last, partial
/// slice is dropped.
///
/// # Errors
/// When the sampler cannot read the CPU time.
pub fn sliced<T>(seconds: f64, work: impl FnOnce() -> T) -> Result<(T, Clocked), String> {
    let slice = Duration::from_secs_f64((seconds / 16.0).min(MAX_SLICE_S));
    let stop = AtomicBool::new(false);
    let (start, off_start) = (Instant::now(), OffClock::now());
    std::thread::scope(|s| {
        let sampler = s.spawn(|| -> Result<Vec<Slice>, String> {
            let mut slices = Vec::new();
            let (mut t0, mut p0, mut c0, mut off0) = (
                Instant::now(),
                PROBES_DONE.load(Ordering::Relaxed),
                sys::cpu_seconds()?,
                OffClock::now(),
            );
            loop {
                let due = t0 + slice;
                loop {
                    let now = Instant::now();
                    if stop.load(Ordering::Relaxed)
                        || (now >= due && !OFF_CLOCK_NOW.load(Ordering::Acquire))
                    {
                        break;
                    }
                    let wait = due.saturating_duration_since(now).max(Duration::from_micros(200));
                    std::thread::park_timeout(wait);
                }
                if stop.load(Ordering::Relaxed) {
                    return Ok(slices);
                }
                let (t, p, c, off) = (
                    Instant::now(),
                    PROBES_DONE.load(Ordering::Relaxed),
                    sys::cpu_seconds()?,
                    OffClock::now(),
                );
                let o = off.since(&off0);
                slices.push(Slice {
                    end: t,
                    secs: (t - t0).as_secs_f64() - o.wall_s,
                    probes: p - p0,
                    cpu_s: c - c0 - o.cpu_s,
                });
                (t0, p0, c0, off0) = (t, p, c, off);
            }
        });
        let out = work();
        stop.store(true, Ordering::Relaxed);
        sampler.thread().unpark();
        let slices = sampler.join().map_err(|_| "sampler thread panicked".to_string())??;
        let off = OffClock::now().since(&off_start);
        Ok((out, Clocked { slices, active_s: start.elapsed().as_secs_f64() - off.wall_s, off }))
    })
}

/// Everything measured over one window.
#[derive(Debug, Default)]
pub struct Window {
    /// Seconds on the clock of the measured work.
    pub elapsed_s: f64,
    /// The window cut into time slices.
    pub slices: Vec<Slice>,
    /// Work kept off the clock.
    pub off: OffClock,
    pub passes: Vec<Pass>,
    pub counts: IfaceCounts,
    /// Process counter growth over the window, CPU time on the clock.
    pub proc: ProcSample,
    /// Ingests attempted (ingest workload only).
    pub ingests: u64,
}

impl Window {
    /// A window with the clock of `clocked` and the process counter
    /// growth `proc` measured around it.
    #[must_use]
    pub fn new(clocked: Clocked, mut proc: ProcSample) -> Self {
        proc.cpu_s -= clocked.off.cpu_s;
        Self {
            elapsed_s: clocked.active_s,
            slices: clocked.slices,
            off: clocked.off,
            proc,
            ..Self::default()
        }
    }

    /// Median probe rate over slices.
    fn median_rate(&self) -> f64 {
        median(&self.slices.iter().map(Slice::rate).collect::<Vec<_>>())
    }

    /// Whether the window has enough slices for medians over them.
    fn has_slices(&self) -> bool {
        self.slices.len() >= MIN_SLICES
    }

    /// The `q`-quantile of pass time in ms: the median over slices of
    /// each slice's `q`-quantile, which a stall of the shared host in a
    /// few slices does not move, or over all passes when the window has
    /// too few slices. A pass belongs to the slice it ended in; passes
    /// after the last slice are left out.
    #[must_use]
    pub fn pass_ms(&self, q: f64) -> f64 {
        if !self.has_slices() {
            let mut all: Vec<u64> = self.passes.iter().map(|p| p.ns).collect();
            return quantile(&mut all, q) as f64 / 1e6;
        }
        let mut per_slice = vec![Vec::new(); self.slices.len()];
        for p in &self.passes {
            if let Some(v) = per_slice.get_mut(self.slices.partition_point(|s| s.end < p.end)) {
                v.push(p.ns);
            }
        }
        let quantiles: Vec<f64> = per_slice
            .iter_mut()
            .filter(|v| !v.is_empty())
            .map(|v| quantile(v, q) as f64 / 1e6)
            .collect();
        median(&quantiles)
    }

    /// Issued queries per second: the median over slices, which a
    /// short stall on a shared host does not move, or the mean when the
    /// window has too few slices.
    #[must_use]
    pub fn probes_per_s(&self) -> f64 {
        if !self.has_slices() {
            return self.counts.issued as f64 / self.elapsed_s;
        }
        self.median_rate()
    }

    /// CPU microseconds per issued query, as a median over slices like
    /// [`Window::probes_per_s`].
    #[must_use]
    pub fn cpu_us_per_probe(&self) -> f64 {
        if !self.has_slices() {
            return self.per_probe(self.proc.cpu_s * 1e6);
        }
        let per_slice: Vec<f64> =
            self.slices.iter().map(|s| ratio(s.cpu_s * 1e6, s.probes as f64)).collect();
        median(&per_slice)
    }

    /// Adds a client's passes and counts.
    pub fn absorb(&mut self, run: ClientRun) {
        self.passes.extend(run.passes);
        self.counts.add(&run.counts);
    }

    /// Per-probe ratio of `x`.
    #[must_use]
    pub fn per_probe(&self, x: f64) -> f64 {
        ratio(x, self.counts.issued as f64)
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload bypasses).
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `q`-quantile of `samples` (nearest rank; 0 when empty).
#[must_use]
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// The median of `xs` (0 when empty).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Runs `build` [`SETUPS`] times, keeping the last result; returns it
/// with the median set-up time in seconds. Earlier results are dropped
/// before the next build starts.
///
/// # Errors
/// When a build fails.
pub fn timed_setups<T>(
    mut build: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(build(i)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((kept.ok_or("no set-up ran")?, median(&times)))
}

/// Deadline `seconds` from now.
#[must_use]
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// Adds the end-to-end metrics of `w` to `report` (the untraced run's
/// result), and notes the sample counts behind the percentiles.
///
/// # Errors
/// When `/proc/self/status` cannot be read.
pub fn end_to_end(report: &mut Report, setup_s: f64, w: &Window) -> Result<(), String> {
    report.metric("setup_s", "s", setup_s);
    report.metric("probes_per_s", "1/s", w.probes_per_s());
    report.metric("pass_ms_p50", "ms", w.pass_ms(0.50));
    report.metric("cpu_us_per_probe", "us", w.cpu_us_per_probe());
    report.metric("peak_rss_mb", "MB", sys::peak_rss_mb()?);
    let per_slice = w.passes.len() as f64 / w.slices.len().max(1) as f64;
    report.note(format!(
        "{} passes, {} probes in {:.3} s ({} slices, mean {:.0} probes/s, {:.3} cpu us/probe); \
         pass percentiles are medians over slices of about {per_slice:.0} passes each; \
         pass_ms_p99 {}",
        w.passes.len(),
        w.counts.issued,
        w.elapsed_s,
        w.slices.len(),
        w.counts.issued as f64 / w.elapsed_s,
        w.per_probe(w.proc.cpu_s * 1e6),
        w.pass_ms(0.99),
    ));
    if w.off.calls > 0 {
        report.note(format!(
            "kept off the clock: {} store creations, {:.3} s wall, {:.3} s cpu",
            w.off.calls, w.off.wall_s, w.off.cpu_s
        ));
    }
    let mut rates: Vec<u64> = w.slices.iter().map(|s| s.rate() as u64).collect();
    report.note(format!(
        "slice probes/s p10 {} p50 {} p90 {}",
        quantile(&mut rates, 0.1),
        quantile(&mut rates, 0.5),
        quantile(&mut rates, 0.9)
    ));
    tally_operations(report, w);
    Ok(())
}

/// Adds the window's operations to the result line's `attempted` and
/// `failed`, and notes their ratio.
pub fn tally_operations(report: &mut Report, w: &Window) {
    let attempted = w.counts.issued + w.ingests;
    report.attempted += attempted;
    report.failed += w.counts.errored;
    report.note(format!("failed_frac {}", ratio(w.counts.errored as f64, attempted as f64)));
}

/// Adds the per-layer metrics every workload shares. `w` is the traced
/// window and `plain` the untraced one of the same run. `client` is the
/// probe around the client's backend; `backend` the probe around the
/// layer that evaluates queries (the same probe, except on the server).
pub fn shared_layer_metrics(
    report: &mut Report,
    w: &Window,
    plain: &Window,
    client: &LayerProbe,
    backend: &LayerProbe,
    probes_per_pass: f64,
) {
    let pass_ns: u64 = w.passes.iter().map(|p| p.ns).sum();
    let self_ns = pass_ns as f64 - client.total_busy_ns() as f64;
    report.metric("engine_iface.self_us_per_probe", "us", w.per_probe(self_ns / 1e3));
    report.metric("engine.probes_per_pass", "count", probes_per_pass);
    report.metric("engine.pass_samples", "count", w.passes.len() as f64);
    report.metric("engine.pass_ms_p99", "ms", plain.pass_ms(0.99));
    let c = &w.counts;
    report.metric("interface.memo_hit_ratio", "ratio", w.per_probe(c.memo_hits as f64));
    report.metric("interface.extends_per_probe", "count", w.per_probe(c.extends as f64));
    report.metric("interface.retracts_per_probe", "count", w.per_probe(c.retracts as f64));
    for m in Method::ALL {
        let key = format!("backend.{}", m.name());
        let hists = backend.hists(m);
        report.metric(
            format!("{key}.calls_per_probe"),
            "count",
            w.per_probe(backend.calls(m) as f64),
        );
        report.metric(format!("{key}.us_p50"), "us", LogHist::merged_quantile_us(&hists, 0.50));
        report.metric(format!("{key}.us_p99"), "us", LogHist::merged_quantile_us(&hists, 0.99));
        let busy_s = backend.busy_ns(m) as f64 / 1e9;
        report.metric(format!("{key}.busy_frac"), "ratio", ratio(busy_s, w.elapsed_s));
    }
    let first_read = backend.first_read().quantile_us(0.5);
    report.metric("backend.first_read_after_write_us", "us", first_read);
    report.metric("wire.segments_per_query", "count", w.per_probe(w.proc.tcp_segments as f64));
    report.metric("wire.bytes_per_query", "bytes", w.per_probe(w.proc.loopback_bytes as f64));
    report.metric("process.read_syscalls_per_probe", "count", w.per_probe(w.proc.syscr as f64));
    report.metric("process.write_syscalls_per_probe", "count", w.per_probe(w.proc.syscw as f64));
    report.metric("process.ctx_switches_per_probe", "count", w.per_probe(w.proc.switches as f64));
    report.metric("process.allocs_per_probe", "count", w.per_probe(w.proc.allocs as f64));
    report.metric(
        "trace.overhead_frac",
        "ratio",
        ratio(plain.probes_per_s(), w.probes_per_s()) - 1.0,
    );
}

/// Zero-valued metrics of a layer the workload bypasses.
pub fn bypassed(report: &mut Report, names: &[(&str, &'static str)]) {
    for &(name, unit) in names {
        report.metric(name, unit, 0.0);
    }
}

/// The remote-layer metric names with their units.
pub const REMOTE_METRICS: [(&str, &str); 12] = [
    ("remote.exchanges_per_query", "count"),
    ("remote.retries", "count"),
    ("remote.call_us_p50", "us"),
    ("remote.call_us_p99", "us"),
    ("remote.residual_us_per_exchange", "us"),
    ("remote.solo_call_us_per_exchange", "us"),
    ("remote.solo_residual_us_per_exchange", "us"),
    ("server.solo_backend_us_per_exchange", "us"),
    ("server.frames_per_query", "count"),
    ("server.dispatches_per_frame", "count"),
    ("server.batch_size_mean", "count"),
    ("server.backend_us_per_query", "us"),
];

/// The storage-layer metric names with their units.
pub const STORAGE_METRICS: [(&str, &str); 8] = [
    ("storage.fsyncs_per_ingest", "count"),
    ("storage.wal_bytes_per_tuple", "bytes"),
    ("storage.snapshot_ms", "ms"),
    ("storage.snapshot_bytes_per_tuple", "bytes"),
    ("storage.recovery_replayed", "count"),
    ("storage.ingest_us_p50", "us"),
    ("storage.ingest_us_p99", "us"),
    ("storage.recover_ms", "ms"),
];

/// Traced-mode instruments of one run.
pub struct Tracer {
    pub spans: Spans,
    pub client: Arc<LayerProbe>,
}

impl Tracer {
    #[must_use]
    pub fn new(client_layer: Layer) -> Self {
        Self { spans: Spans::default(), client: Arc::new(LayerProbe::new(client_layer)) }
    }

    /// Wraps the client's backend in the client probe.
    pub fn wrap<B>(&self, inner: B) -> Traced<B> {
        Traced::new(inner, &self.client, &self.spans)
    }

    /// Writes the span log under `.bench_out/` and notes where.
    pub fn write_spans(&self, report: &mut Report, workload: &str, seed: u64) {
        let path =
            std::path::PathBuf::from(".bench_out").join(format!("{workload}-seed{seed}.spans.tsv"));
        match self.spans.write_tsv(&path) {
            Ok(()) => report.note(format!(
                "{} spans written to {}",
                self.spans.recorded(),
                path.display()
            )),
            Err(e) => report.note(format!("span log not written: {e}")),
        }
    }
}
