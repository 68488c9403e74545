//! `local_walk`: the HD size estimator over an in-process
//! `HiddenDb<TableBackend>`, one client. At full size the corpus is
//! 500k rows × 40 Boolean attributes, whose postings (about 10 bytes per
//! row, 5 MB) exceed a 2 MiB L2, so the AND-count kernel, the engine and
//! the interface do almost all the work. Nothing touches the wire or the
//! disk: this is the bypass workload for remote, wire, server and
//! storage changes.

use std::sync::Arc;

use hdb_datagen::bool_iid;
use hdb_interface::{HiddenDb, TableBackend};

use crate::job::{self, client_loop, JobResult, Tracer, Window, REMOTE_METRICS, STORAGE_METRICS};
use crate::probe::Layer;
use crate::sys::{self, ProcSample};
use crate::{corpus_seed, job_seed, Args, Report, Size, K};

struct Sizes {
    rows: usize,
    attrs: usize,
    passes_per_job: u64,
}

fn sizes(size: Size) -> Sizes {
    match size {
        Size::Full => Sizes { rows: 500_000, attrs: 40, passes_per_job: 10 },
        Size::Tiny => Sizes { rows: 3_000, attrs: 16, passes_per_job: 8 },
    }
}

/// Runs jobs over `backend` for `seconds`; traced when `tracer` is given.
fn window(
    backend: &Arc<TableBackend>,
    args: &Args,
    passes: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<(Window, Vec<JobResult>), String> {
    let deadline = job::deadline(seconds);
    let seed = |j| job_seed(args.seed, 0, j);
    let before = ProcSample::now()?;
    let (run, clocked) = job::sliced(seconds, || match tracer {
        None => {
            client_loop(|| HiddenDb::over(Arc::clone(backend), K), seed, passes, deadline, None)
        }
        Some(t) => client_loop(
            || HiddenDb::over(t.wrap(Arc::clone(backend)), K),
            seed,
            passes,
            deadline,
            Some(&t.spans),
        ),
    })?;
    let mut run = run?;
    let mut w = Window::new(clocked, ProcSample::now()?.since(&before));
    let jobs = std::mem::take(&mut run.jobs);
    w.absorb(run);
    Ok((w, jobs))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let sz = sizes(args.size);
    let passes = sz.passes_per_job;
    let (backend, setup_s) = job::timed_setups(|_| {
        let table =
            bool_iid(sz.rows, sz.attrs, corpus_seed(args.seed)).map_err(|e| e.to_string())?;
        let backend = Arc::new(TableBackend::new(table));
        let _ = backend.table().index();
        Ok(backend)
    })?;
    let mut report = Report::default();
    report.note(format!(
        "local_walk: bool_iid {} rows x {} attrs, k={K}, {passes} passes per job, 1 client",
        sz.rows, sz.attrs
    ));

    if !args.trace {
        let (w, jobs) = window(&backend, args, passes, args.seconds, None)?;
        job::check_jobs(&backend, args.seed, passes, std::slice::from_ref(&jobs))?;
        report.note(format!("job 0: {} probes per pass", jobs[0].issued as f64 / passes as f64));
        job::end_to_end(&mut report, setup_s, &w)?;
        return Ok(report);
    }

    // Traced mode: an untraced half then a traced half over the same
    // jobs; their throughput ratio is the tracing overhead.
    let half = args.seconds / 2.0;
    let (plain, plain_jobs) = window(&backend, args, passes, half, None)?;
    let tracer = Tracer::new(Layer::Backend);
    sys::count_allocations(true);
    let traced = window(&backend, args, passes, half, Some(&tracer));
    sys::count_allocations(false);
    let (w, jobs) = traced?;
    job::check_jobs(&backend, args.seed, passes, std::slice::from_ref(&jobs))?;
    if jobs.iter().zip(&plain_jobs).any(|(a, b)| a != b) {
        return Err("traced jobs differ from untraced jobs with the same seeds".into());
    }
    let probes_per_pass = jobs[0].issued as f64 / passes as f64;
    job::shared_layer_metrics(
        &mut report,
        &w,
        &plain,
        &tracer.client,
        &tracer.client,
        probes_per_pass,
    );
    job::bypassed(&mut report, &REMOTE_METRICS);
    job::bypassed(&mut report, &STORAGE_METRICS);
    job::tally_operations(&mut report, &plain);
    job::tally_operations(&mut report, &w);
    tracer.write_spans(&mut report, "local_walk", args.seed);
    Ok(report)
}
