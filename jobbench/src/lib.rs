//! A closed-loop benchmark of estimation jobs: an analyst's job runs the
//! paper's `HD-UNBIASED-SIZE` estimator for a fixed number of passes and
//! waits for every reply before sending the next probe. Three workloads
//! put different layers under that job:
//!
//! * `local_walk`: an in-process `HiddenDb<TableBackend>` whose postings
//!   exceed L2, so the AND-count kernel, the engine and the interface do
//!   the work;
//! * `remote_walk`: the same estimator through `RemoteBackend` to a
//!   loopback `hdb-server`, two clients, where wire, server and client
//!   dominate;
//! * `ingest_walk`: ingest batches on a `PersistentBackend` between read
//!   phases, exercising the WAL, snapshots, index rebuilds and recovery.
//!
//! The untraced run (`--trace 0`) reports the end-to-end metrics; the
//! traced run (`--trace 1`) times the calls into each layer from this
//! package's own code and reports the per-layer metrics plus the tracing
//! overhead. Every run checks its results against an in-process
//! reference outside the timed region and reports a failure instead of
//! numbers when a check fails.

pub mod probe;
pub mod sys;

mod ingest;
mod job;
mod local;
mod remote;

use std::fmt::Write as _;

/// Interface constant of every workload.
pub const K: usize = 10;

/// A workload the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LocalWalk,
    RemoteWalk,
    IngestWalk,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] =
        [Workload::LocalWalk, Workload::RemoteWalk, Workload::IngestWalk];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalWalk => "local_walk",
            Workload::RemoteWalk => "remote_walk",
            Workload::IngestWalk => "ingest_walk",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: `Full` is the benchmark; `Tiny` is for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Parsed command line, or a library caller's choice of run.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Always `Full` from the command line.
    pub size: Size,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    /// On a missing, unknown or malformed argument.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    };
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace,
            size: Size::Full,
        })
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// The result of one run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted: issued queries plus ingests.
    pub attempted: u64,
    /// Attempted operations that errored.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable context printed to standard error.
    pub notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit, value });
    }

    fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result line: `{"correct": …, "attempted": …, "failed": …,
    /// "metrics": {name: {"value": …, "unit": …}}}`.
    #[must_use]
    pub fn to_json(&self, correct: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs one workload. A failed correctness check is an `Err`.
///
/// # Errors
/// When set-up, the run or a correctness check fails.
pub fn run(args: &Args) -> Result<Report, String> {
    let report = match args.workload {
        Workload::LocalWalk => local::run(args)?,
        Workload::RemoteWalk => remote::run(args)?,
        Workload::IngestWalk => ingest::run(args)?,
    };
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite: {}", bad.name, bad.value));
    }
    if report.failed > 0 {
        return Err(format!("{} of {} operations failed", report.failed, report.attempted));
    }
    Ok(report)
}

/// SplitMix64 finaliser: derives independent seeds from the run seed.
fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the generated corpus.
fn corpus_seed(seed: u64) -> u64 {
    mix(seed, 1, 0)
}

/// Estimator seed of job `job` of client `client`.
fn job_seed(seed: u64, client: u64, job: u64) -> u64 {
    mix(seed, 2 + client, job)
}
