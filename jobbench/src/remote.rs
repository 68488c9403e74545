//! `remote_walk`: the HD size estimator through `RemoteBackend` to an
//! in-process loopback `hdb-server` with two pool threads. Two
//! closed-loop clients with different estimator seeds share one
//! `RemoteBackend`, so two connections carry the load. At full size the
//! corpus is 30k rows × 40 attributes; its postings (about 300 KB) fit
//! in L2, so wire, server and client dominate the cost of a probe and a
//! change to the AND-count kernel should barely move this workload.

use std::sync::Arc;

use hdb_datagen::bool_iid;
use hdb_interface::{HiddenDb, RemoteBackend, SearchBackend, TableBackend};
use hdb_server::{RunningServer, Server, ServerConfig};

use crate::job::{
    self, balanced_ledger, client_loop, ratio, run_job, JobResult, Tracer, Window, STORAGE_METRICS,
};
use crate::probe::{Layer, LayerProbe, LogHist, Method, Traced};
use crate::sys::{self, ProcSample};
use crate::{corpus_seed, job_seed, Args, Report, Size, K};

/// Closed-loop clients.
const CLIENTS: u64 = 2;
/// Server worker-pool threads.
const POOL_THREADS: usize = 2;

struct Sizes {
    rows: usize,
    attrs: usize,
    passes_per_job: u64,
}

fn sizes(size: Size) -> Sizes {
    match size {
        Size::Full => Sizes { rows: 30_000, attrs: 40, passes_per_job: 20 },
        Size::Tiny => Sizes { rows: 2_000, attrs: 16, passes_per_job: 6 },
    }
}

/// A loopback server and a client connected to it.
struct Stack {
    server: RunningServer,
    remote: Arc<RemoteBackend>,
}

fn serve<B: SearchBackend + 'static>(backend: B) -> Result<Stack, String> {
    let config = ServerConfig { pool_threads: POOL_THREADS, ..ServerConfig::default() };
    let server = Server::bind_with(backend, "127.0.0.1:0", config).map_err(|e| e.to_string())?;
    let remote =
        Arc::new(RemoteBackend::connect(server.addr().to_string()).map_err(|e| e.to_string())?);
    Ok(Stack { server, remote })
}

/// Server-side counters read at a window's edges.
#[derive(Clone, Copy, Default)]
struct ServerSample {
    frames: u64,
    dispatches: u64,
    batches: u64,
    batch_members: u64,
    requests: u64,
    retries: u64,
}

impl ServerSample {
    fn read(stack: &Stack) -> Result<Self, String> {
        let snap = stack.server.metrics();
        balanced_ledger(&snap, "server")?;
        let batch = snap.histograms.get("hdb_server_batch_size");
        Ok(Self {
            frames: stack.server.frame_count(),
            dispatches: stack.server.dispatch_count(),
            batches: batch.map_or(0, |h| h.count),
            batch_members: batch.map_or(0, |h| h.sum),
            requests: stack.remote.requests_sent(),
            retries: stack.remote.retries_sent(),
        })
    }

    fn since(&self, e: &Self) -> Self {
        Self {
            frames: self.frames - e.frames,
            dispatches: self.dispatches - e.dispatches,
            batches: self.batches - e.batches,
            batch_members: self.batch_members - e.batch_members,
            requests: self.requests - e.requests,
            retries: self.retries - e.retries,
        }
    }
}

/// Runs both clients for `seconds` against `stack`; client calls are
/// traced when `tracer` is given. Returns the window, the server-side
/// growth and each client's jobs.
fn window(
    stack: &Stack,
    args: &Args,
    passes: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<(Window, ServerSample, Vec<Vec<JobResult>>), String> {
    let deadline = job::deadline(seconds);
    let server_before = ServerSample::read(stack)?;
    let before = ProcSample::now()?;
    let (runs, clocked) = job::sliced(seconds, || {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    s.spawn(move || {
                        let seed = |j| job_seed(args.seed, c, j);
                        let switches = sys::thread_switches()?;
                        let run = match tracer {
                            None => client_loop(
                                || HiddenDb::over(Arc::clone(&stack.remote), K),
                                seed,
                                passes,
                                deadline,
                                None,
                            ),
                            Some(t) => client_loop(
                                || HiddenDb::over(t.wrap(Arc::clone(&stack.remote)), K),
                                seed,
                                passes,
                                deadline,
                                Some(&t.spans),
                            ),
                        }?;
                        Ok((run, sys::thread_switches()? - switches))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
                .collect::<Result<Vec<_>, String>>()
        })
    })?;
    let runs = runs?;
    let mut w = Window::new(clocked, ProcSample::now()?.since(&before));
    let server = ServerSample::read(stack)?.since(&server_before);
    let mut jobs = Vec::new();
    for (mut run, switches) in runs {
        // The client threads have exited: add the switches they saw.
        w.proc.switches += switches;
        jobs.push(std::mem::take(&mut run.jobs));
        w.absorb(run);
    }
    Ok((w, server, jobs))
}

/// The latency histograms of the client calls that send a request.
fn wire_hists(probe: &LayerProbe) -> Vec<&LogHist> {
    Method::ALL.into_iter().filter(|m| m.crosses_wire()).flat_map(|m| probe.hists(m)).collect()
}

/// Time spent in client calls that send a request.
fn wire_busy_ns(probe: &LayerProbe) -> u64 {
    Method::ALL.into_iter().filter(|m| m.crosses_wire()).map(|m| probe.busy_ns(m)).sum()
}

/// Exact counts of one job run alone: the audit behind the count
/// metrics, identical in traced and untraced runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Audit {
    result: JobResult,
    exchanges: u64,
    frames: u64,
}

fn audit<B: SearchBackend>(
    stack: &Stack,
    db: &HiddenDb<B>,
    seed: u64,
    passes: u64,
) -> Result<Audit, String> {
    let before = ServerSample::read(stack)?;
    let result = run_job(db, seed, passes, None, &mut Vec::new())?;
    let grew = ServerSample::read(stack)?.since(&before);
    Ok(Audit { result, exchanges: grew.requests, frames: grew.frames })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let sz = sizes(args.size);
    let passes = sz.passes_per_job;
    let ((backend, stack), setup_s) = job::timed_setups(|_| {
        let table =
            bool_iid(sz.rows, sz.attrs, corpus_seed(args.seed)).map_err(|e| e.to_string())?;
        let backend = Arc::new(TableBackend::new(table));
        let _ = backend.table().index();
        let stack = serve(Arc::clone(&backend))?;
        Ok((backend, stack))
    })?;
    let mut report = Report::default();
    report.note(format!(
        "remote_walk: bool_iid {} rows x {} attrs, k={K}, {passes} passes per job, \
         {CLIENTS} clients on one RemoteBackend, {POOL_THREADS} server pool threads",
        sz.rows, sz.attrs
    ));

    let (plain, plain_server, plain_jobs) = window(
        &stack,
        args,
        passes,
        if args.trace { args.seconds / 2.0 } else { args.seconds },
        None,
    )?;
    job::check_jobs(&backend, args.seed, passes, &plain_jobs)?;
    let audit_seed = job_seed(args.seed, 0, 0);
    let plain_audit =
        audit(&stack, &HiddenDb::over(Arc::clone(&stack.remote), K), audit_seed, passes)?;
    if plain_audit.result != plain_jobs[0][0] {
        return Err(format!(
            "audit job {:?} differs from measured job 0 {:?}",
            plain_audit.result, plain_jobs[0][0]
        ));
    }
    let issued = plain_audit.result.issued as f64;
    report.note(format!(
        "audit job: {} probes per pass, {} exchanges per query, {} frames per query",
        issued / passes as f64,
        plain_audit.exchanges as f64 / issued,
        plain_audit.frames as f64 / issued
    ));
    report.note(format!("{} stale-connection retries", plain_server.retries));

    if !args.trace {
        job::end_to_end(&mut report, setup_s, &plain)?;
        return Ok(report);
    }

    // Traced mode: a second server whose backend is wrapped, and a
    // traced client; the untraced window above sets the overhead base.
    let tracer = Tracer::new(Layer::Remote);
    let server_probe = Arc::new(LayerProbe::new(Layer::Backend));
    let traced_stack = serve(Traced::new(Arc::clone(&backend), &server_probe, &tracer.spans))?;
    sys::count_allocations(true);
    let traced = window(&traced_stack, args, passes, args.seconds / 2.0, Some(&tracer));
    sys::count_allocations(false);
    let (w, server, jobs) = traced?;
    job::check_jobs(&backend, args.seed, passes, &jobs)?;
    job::shared_layer_metrics(
        &mut report,
        &w,
        &plain,
        &tracer.client,
        &server_probe,
        issued / passes as f64,
    );
    let client = &tracer.client;
    let call_hists = wire_hists(client);
    let call_ns = wire_busy_ns(client);
    let server_ns = server_probe.total_busy_ns();
    report.metric("remote.exchanges_per_query", "count", plain_audit.exchanges as f64 / issued);
    report.metric("remote.retries", "count", server.retries as f64);
    report.metric("remote.call_us_p50", "us", LogHist::merged_quantile_us(&call_hists, 0.50));
    report.metric("remote.call_us_p99", "us", LogHist::merged_quantile_us(&call_hists, 0.99));
    report.metric(
        "remote.residual_us_per_exchange",
        "us",
        ratio((call_ns as f64 - server_ns as f64) / 1e3, server.requests as f64),
    );
    report.metric("server.frames_per_query", "count", plain_audit.frames as f64 / issued);
    report.metric(
        "server.dispatches_per_frame",
        "count",
        ratio(server.dispatches as f64, server.frames as f64),
    );
    report.metric(
        "server.batch_size_mean",
        "count",
        ratio(server.batch_members as f64, server.batches as f64),
    );
    report.metric("server.backend_us_per_query", "us", w.per_probe(server_ns as f64 / 1e3));
    job::bypassed(&mut report, &STORAGE_METRICS);
    report.note(format!(
        "traced window: {} exchanges, {} frames, {} client wire calls ({:.1} us), \
         server backend {:.1} us per exchange",
        server.requests,
        server.frames,
        call_hists.iter().map(|h| h.count()).sum::<u64>(),
        ratio(call_ns as f64 / 1e3, server.requests as f64),
        ratio(server_ns as f64 / 1e3, server.requests as f64)
    ));
    // Audit last, so its calls stay out of the window's layer times. Run
    // alone, it also gives the uncontended decomposition of an exchange.
    let solo = Arc::new(LayerProbe::new(Layer::Remote));
    let traced_db =
        HiddenDb::over(Traced::new(Arc::clone(&traced_stack.remote), &solo, &tracer.spans), K);
    let server_before = server_probe.total_busy_ns();
    let traced_audit = audit(&traced_stack, &traced_db, audit_seed, passes)?;
    if traced_audit != plain_audit {
        return Err(format!(
            "traced counts {traced_audit:?} differ from untraced {plain_audit:?}: \
             the forwarding wrapper changed the probe path"
        ));
    }
    let exchanges = traced_audit.exchanges as f64;
    let solo_call_us = ratio(wire_busy_ns(&solo) as f64 / 1e3, exchanges);
    let solo_server_us =
        ratio((server_probe.total_busy_ns() - server_before) as f64 / 1e3, exchanges);
    report.metric("remote.solo_call_us_per_exchange", "us", solo_call_us);
    report.metric("remote.solo_residual_us_per_exchange", "us", solo_call_us - solo_server_us);
    report.metric("server.solo_backend_us_per_exchange", "us", solo_server_us);

    job::tally_operations(&mut report, &plain);
    job::tally_operations(&mut report, &w);
    tracer.write_spans(&mut report, "remote_walk", args.seed);
    Ok(report)
}
