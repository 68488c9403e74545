//! `ingest_walk`: writes beside reads on a `PersistentBackend` over
//! `StdIo`, fsync policy `every=64`. An episode starts from a fresh store
//! holding the base corpus; each of its rounds ingests a batch of tuples,
//! snapshots on a fixed cadence, then runs one job through a fresh
//! `HiddenDb::over(Arc<store>)`. The store is not a memo-aware backend:
//! `HiddenDb`'s hot memo is not invalidated by `PersistentBackend::ingest`,
//! hence one fresh `HiddenDb` per read phase.
//!
//! Every ingest drops the whole `TableIndex`, so the first read after a
//! write pays a full index rebuild. Episodes repeat until the measured
//! time is up; every episode replays the same inputs, so the corpus size
//! a round sees does not depend on how fast the program is. Creating the
//! next episode's store is kept off the clock. After the last episode
//! the store is dropped and reopened, timing recovery.
//!
//! The ingested tuples are the tail of one `bool_iid` draw whose head is
//! the base corpus, so every ingest is unique by construction and no
//! duplicate rejection can count as a failure.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hdb_datagen::bool_iid;
use hdb_interface::{
    HiddenDb, MetricsSnapshot, PersistentBackend, SearchBackend, SyncPolicy, Table, Tuple,
};

use crate::job::{
    self, median, quantile, ratio, run_job, JobResult, Tracer, Window, REMOTE_METRICS,
};
use crate::probe::Layer;
use crate::sys::{self, ProcSample};
use crate::{corpus_seed, job_seed, Args, Report, Size, K};

/// WAL fsync policy of every store.
const POLICY: SyncPolicy = SyncPolicy::EveryN(64);
/// Bytes of the WAL header (`WAL_MAGIC`).
const WAL_HEADER: u64 = 8;
/// Reopens timed after the run; `storage.recover_ms` is their median.
const REOPENS: usize = 3;

struct Sizes {
    base_rows: usize,
    attrs: usize,
    rounds: usize,
    batch: usize,
    snapshot_every: usize,
    passes_per_round: u64,
}

fn sizes(size: Size) -> Sizes {
    match size {
        Size::Full => Sizes {
            base_rows: 50_000,
            attrs: 40,
            rounds: 12,
            batch: 256,
            snapshot_every: 4,
            passes_per_round: 20,
        },
        Size::Tiny => Sizes {
            base_rows: 1_500,
            attrs: 16,
            rounds: 4,
            batch: 16,
            snapshot_every: 2,
            passes_per_round: 4,
        },
    }
}

impl Sizes {
    /// Whether a snapshot follows round `round` (never after the last
    /// round, so recovery replays a WAL tail).
    fn snapshot_after(&self, round: usize) -> bool {
        (round + 1).is_multiple_of(self.snapshot_every) && round + 1 < self.rounds
    }

    /// Ingests after the last snapshot: what recovery replays.
    fn wal_tail(&self) -> usize {
        let last_snapshot = (0..self.rounds).rev().find(|&r| self.snapshot_after(r));
        (self.rounds - last_snapshot.map_or(0, |r| r + 1)) * self.batch
    }
}

/// A scratch directory inside the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Self, String> {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(".bench_tmp").join(format!("ingest-{}-{run}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The generated inputs: base corpus and ingest stream.
struct Inputs {
    base: Table,
    stream: Vec<Tuple>,
}

fn store_err(e: hdb_interface::HdbError) -> String {
    e.to_string()
}

fn create(dir: &Path, base: &Table) -> Result<Arc<PersistentBackend>, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(Arc::new(PersistentBackend::create(dir, POLICY, base.clone()).map_err(store_err)?))
}

/// Storage counters of one window.
#[derive(Default)]
struct StorageStats {
    ingest_ns: Vec<u64>,
    snapshot_ms: Vec<f64>,
    snapshot_bytes_per_tuple: Vec<f64>,
    fsyncs: u64,
    wal_bytes: u64,
}

/// What one window measured, and the store its last episode left.
struct Phase {
    w: Window,
    st: StorageStats,
    /// Each episode's round results.
    episodes: Vec<Vec<JobResult>>,
    store: Arc<PersistentBackend>,
    dir: PathBuf,
}

/// One window: episodes until `seconds` are up, the first on `first`,
/// each later one on a store created inside the window, off its clock.
#[allow(clippy::too_many_arguments)]
fn window(
    sz: &Sizes,
    inputs: &Inputs,
    args: &Args,
    scratch: &Scratch,
    tag: &str,
    first: (Arc<PersistentBackend>, PathBuf),
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<Phase, String> {
    let deadline = job::deadline(seconds);
    let before = ProcSample::now()?;
    let (phase, clocked) = job::sliced(seconds, || -> Result<Phase, String> {
        let (store, dir) = first;
        let mut p = Phase {
            w: Window::default(),
            st: StorageStats::default(),
            episodes: Vec::new(),
            store,
            dir,
        };
        loop {
            let rounds = episode(sz, inputs, args, &mut p, tracer)?;
            p.episodes.push(rounds);
            if Instant::now() >= deadline {
                return Ok(p);
            }
            p.dir = scratch.0.join(format!("{tag}-ep{}", p.episodes.len()));
            p.store = job::off_clock(|| create(&p.dir, &inputs.base))??;
        }
    })?;
    let mut p = phase?;
    let Window { passes, counts, ingests, .. } = std::mem::take(&mut p.w);
    p.w = Window {
        passes,
        counts,
        ingests,
        ..Window::new(clocked, ProcSample::now()?.since(&before))
    };
    Ok(p)
}

/// One episode on `p.store`: every round's ingest batch, snapshot and
/// job. Returns the rounds' job results.
fn episode(
    sz: &Sizes,
    inputs: &Inputs,
    args: &Args,
    p: &mut Phase,
    tracer: Option<&Tracer>,
) -> Result<Vec<JobResult>, String> {
    let (w, st, store) = (&mut p.w, &mut p.st, &p.store);
    let mut rounds = Vec::with_capacity(sz.rounds);
    for (round, batch) in inputs.stream.chunks(sz.batch).enumerate() {
        for tuple in batch {
            let t = Instant::now();
            store.ingest(tuple.clone()).map_err(|e| format!("ingest failed: {e}"))?;
            let end = Instant::now();
            st.ingest_ns.push((end - t).as_nanos() as u64);
            if let Some(tr) = tracer {
                tr.spans.record("storage.ingest", t, end);
            }
        }
        w.ingests += batch.len() as u64;
        if sz.snapshot_after(round) {
            let t = Instant::now();
            let name = store.snapshot().map_err(store_err)?;
            let end = Instant::now();
            st.snapshot_ms.push((end - t).as_secs_f64() * 1e3);
            if let Some(tr) = tracer {
                tr.spans.record("storage.snapshot", t, end);
            }
            let bytes = std::fs::metadata(p.dir.join(&name)).map_err(|e| e.to_string())?.len();
            st.snapshot_bytes_per_tuple.push(bytes as f64 / store.len() as f64);
        }
        let seed = job_seed(args.seed, 0, round as u64);
        let result = match tracer {
            None => {
                let db = HiddenDb::over(Arc::clone(store), K);
                let r = run_job(&db, seed, sz.passes_per_round, None, &mut w.passes)?;
                w.counts.add(&job::iface_counts(&db)?);
                r
            }
            Some(t) => {
                t.client.arm_first_read();
                let db = HiddenDb::over(t.wrap(Arc::clone(store)), K);
                let r = run_job(&db, seed, sz.passes_per_round, Some(&t.spans), &mut w.passes)?;
                w.counts.add(&job::iface_counts(&db)?);
                r
            }
        };
        rounds.push(result);
    }
    let mut snap = MetricsSnapshot::default();
    store.fill_metrics(&mut snap);
    st.fsyncs += job::counter(&snap, "hdb_wal_fsyncs_total");
    let wal_len = std::fs::metadata(p.dir.join("wal.log")).map_err(|e| e.to_string())?.len();
    st.wal_bytes += job::counter(&snap, "hdb_wal_reclaimed_bytes_total") + wal_len - WAL_HEADER;
    Ok(rounds)
}

/// A table of the base corpus plus the first `ingested` stream tuples.
fn reference_table(inputs: &Inputs, ingested: usize) -> Result<Table, String> {
    let mut tuples = inputs.base.tuples().to_vec();
    tuples.extend_from_slice(&inputs.stream[..ingested]);
    Table::new(inputs.base.schema().clone(), tuples).map_err(|e| e.to_string())
}

/// Correctness of a window: every episode repeats the first, whose first
/// and last rounds equal an in-process `TableBackend` reference.
fn check_episodes(
    sz: &Sizes,
    inputs: &Inputs,
    args: &Args,
    episodes: &[Vec<JobResult>],
) -> Result<(), String> {
    let first = &episodes[0];
    if let Some(e) = episodes.iter().position(|ep| ep != first) {
        return Err(format!("episode {e} differs from episode 0 on the same inputs"));
    }
    for round in [0, sz.rounds - 1] {
        let db = HiddenDb::new(reference_table(inputs, (round + 1) * sz.batch)?, K);
        let seed = job_seed(args.seed, 0, round as u64);
        let reference = run_job(&db, seed, sz.passes_per_round, None, &mut Vec::new())?;
        if reference != first[round] {
            return Err(format!(
                "round {round}: store gives {:?}, in-process reference {reference:?}",
                first[round]
            ));
        }
    }
    Ok(())
}

/// Drops `store`, reopens it [`REOPENS`] times, and checks the
/// recovered store: length, writability, and the last round's job bits.
/// Returns the median reopen time in ms and the records replayed.
fn recover(
    sz: &Sizes,
    inputs: &Inputs,
    args: &Args,
    store: Arc<PersistentBackend>,
    dir: &Path,
    last_round: JobResult,
) -> Result<(f64, u64), String> {
    store.sync().map_err(store_err)?;
    let len = store.len();
    drop(store);
    let mut times = Vec::with_capacity(REOPENS);
    let mut reopened = None;
    for _ in 0..REOPENS {
        drop(reopened.take());
        let t = Instant::now();
        reopened = Some(PersistentBackend::open(dir, POLICY).map_err(store_err)?);
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let store = reopened.ok_or("no reopen ran")?;
    let expected = inputs.base.len() + sz.rounds * sz.batch;
    if store.len() != len || len != expected {
        return Err(format!("reopened store holds {} rows, expected {expected}", store.len()));
    }
    if let Some(reason) = store.read_only() {
        return Err(format!("reopened store is read-only: {reason}"));
    }
    let replayed = store.recovery().wal_records_applied;
    if replayed != sz.wal_tail() as u64 {
        return Err(format!("recovery replayed {replayed} records, expected {}", sz.wal_tail()));
    }
    let db = HiddenDb::over(store, K);
    let seed = job_seed(args.seed, 0, sz.rounds as u64 - 1);
    let after = run_job(&db, seed, sz.passes_per_round, None, &mut Vec::new())?;
    if after != last_round {
        return Err(format!(
            "after recovery the job gives {after:?}, before the drop {last_round:?}"
        ));
    }
    Ok((median(&times), replayed))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let sz = sizes(args.size);
    let scratch = Scratch::new()?;
    let stream_len = sz.rounds * sz.batch;
    let ((inputs, first), setup_s) = job::timed_setups(|i| {
        let all = bool_iid(sz.base_rows + stream_len, sz.attrs, corpus_seed(args.seed))
            .map_err(|e| e.to_string())?;
        let mut tuples = all.tuples().to_vec();
        let stream = tuples.split_off(sz.base_rows);
        let base = Table::new(all.schema().clone(), tuples).map_err(|e| e.to_string())?;
        let dir = scratch.0.join(format!("setup{i}"));
        let store = create(&dir, &base)?;
        Ok((Inputs { base, stream }, (store, dir)))
    })?;
    let mut report = Report::default();
    report.note(format!(
        "ingest_walk: bool_iid base {} rows x {} attrs, k={K}; per episode {} rounds of {} \
         ingests + {} passes, snapshot every {} rounds, fsync every=64",
        sz.base_rows, sz.attrs, sz.rounds, sz.batch, sz.passes_per_round, sz.snapshot_every
    ));

    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let plain = window(&sz, &inputs, args, &scratch, "plain", first, seconds, None)?;
    check_episodes(&sz, &inputs, args, &plain.episodes)?;
    let mut ingest_ns = plain.st.ingest_ns.clone();
    report.note(format!(
        "ingest_us_p50 {} ingest_us_p99 {} over {} ingests",
        quantile(&mut ingest_ns, 0.50) as f64 / 1e3,
        quantile(&mut ingest_ns, 0.99) as f64 / 1e3,
        plain.st.ingest_ns.len()
    ));

    if !args.trace {
        let last = plain.episodes[0][sz.rounds - 1];
        let (recover_ms, replayed) = recover(&sz, &inputs, args, plain.store, &plain.dir, last)?;
        report.note(format!("recover_ms {recover_ms} ({replayed} WAL records replayed)"));
        job::end_to_end(&mut report, setup_s, &plain.w)?;
        return Ok(report);
    }

    drop(plain.store);
    let tracer = Tracer::new(Layer::Backend);
    let dir = scratch.0.join("traced-ep0");
    let first = (create(&dir, &inputs.base)?, dir);
    sys::count_allocations(true);
    let traced =
        window(&sz, &inputs, args, &scratch, "traced", first, args.seconds / 2.0, Some(&tracer));
    sys::count_allocations(false);
    let Phase { w, st, episodes: eps, store, dir } = traced?;
    check_episodes(&sz, &inputs, args, &eps)?;
    if eps[0] != plain.episodes[0] {
        return Err("traced rounds differ from untraced rounds on the same inputs".into());
    }
    let probes_per_pass = eps[0].iter().map(|r| r.issued).sum::<u64>() as f64
        / (sz.rounds as u64 * sz.passes_per_round) as f64;
    job::shared_layer_metrics(
        &mut report,
        &w,
        &plain.w,
        &tracer.client,
        &tracer.client,
        probes_per_pass,
    );
    job::bypassed(&mut report, &REMOTE_METRICS);
    let (recover_ms, replayed) = recover(&sz, &inputs, args, store, &dir, eps[0][sz.rounds - 1])?;
    let mut ingest_ns = st.ingest_ns.clone();
    let ingests = st.ingest_ns.len() as f64;
    report.metric("storage.fsyncs_per_ingest", "count", ratio(st.fsyncs as f64, ingests));
    report.metric("storage.wal_bytes_per_tuple", "bytes", ratio(st.wal_bytes as f64, ingests));
    report.metric("storage.snapshot_ms", "ms", median(&st.snapshot_ms));
    report.metric(
        "storage.snapshot_bytes_per_tuple",
        "bytes",
        median(&st.snapshot_bytes_per_tuple),
    );
    report.metric("storage.recovery_replayed", "count", replayed as f64);
    report.metric("storage.ingest_us_p50", "us", quantile(&mut ingest_ns, 0.50) as f64 / 1e3);
    report.metric("storage.ingest_us_p99", "us", quantile(&mut ingest_ns, 0.99) as f64 / 1e3);
    report.metric("storage.recover_ms", "ms", recover_ms);
    job::tally_operations(&mut report, &plain.w);
    job::tally_operations(&mut report, &w);
    tracer.write_spans(&mut report, "ingest_walk", args.seed);
    Ok(report)
}
