//! `jobbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`:
//! runs a workload and prints its result as a line of standard output
//! (the last line for one workload; one line each, in order, for `all`).
//! Context and a readable table go to standard error. Exits 1 when a
//! correctness check fails and 2 on a bad command line.

use std::process::{Command, Stdio};

use hdb_jobbench::sys::CountingAlloc;
use hdb_jobbench::{run, Args, Report, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = argv.windows(2).position(|w| w[0] == "--workload" && w[1] == "all") {
        std::process::exit(run_all(argv, i + 1));
    }
    let args = Args::parse(argv.into_iter()).unwrap_or_else(|e| {
        eprintln!("jobbench: {e}");
        std::process::exit(2);
    });
    eprintln!("## {}", args.workload.name());
    match run(&args) {
        Ok(report) => {
            for line in &report.notes {
                eprintln!("# {line}");
            }
            for m in &report.metrics {
                eprintln!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.to_json(true));
        }
        Err(e) => {
            eprintln!("jobbench: {} failed its check: {e}", args.workload.name());
            println!("{}", Report::default().to_json(false));
            std::process::exit(1);
        }
    }
}

/// Runs every workload in a child process of its own, so that each
/// reports its own peak RSS and process counters, and prints their result
/// lines in order. `argv[at]` is the workload name. Returns the exit code.
fn run_all(mut argv: Vec<String>, at: usize) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("jobbench: locating this program: {e}");
            return 1;
        }
    };
    let mut lines = Vec::new();
    for w in Workload::ALL {
        argv[at] = w.name().to_string();
        if let Err(e) = Args::parse(argv.clone().into_iter()) {
            eprintln!("jobbench: {e}");
            return 2;
        }
        let out = Command::new(&exe).args(&argv).stderr(Stdio::inherit()).output();
        let line = match out {
            Ok(out) if out.status.success() => {
                String::from_utf8_lossy(&out.stdout).lines().last().map(str::to_string)
            }
            Ok(_) => None,
            Err(e) => {
                eprintln!("jobbench: running {}: {e}", w.name());
                None
            }
        };
        lines.push((w, line));
    }
    if let Err(e) = peaks_are_per_workload(&lines) {
        eprintln!("jobbench: {e}");
        lines.iter_mut().for_each(|(_, line)| *line = None);
    }
    let mut code = 0;
    for (_, line) in lines {
        if line.is_none() {
            code = 1;
        }
        println!("{}", line.unwrap_or_else(|| Report::default().to_json(false)));
    }
    code
}

/// The `peak_rss_mb` value of a result line.
fn peak_rss_mb(line: &str) -> Option<f64> {
    line.split("\"peak_rss_mb\": {\"value\": ").nth(1)?.split(',').next()?.parse().ok()
}

/// Checks that every other workload reports a peak RSS below
/// `local_walk`'s, the largest corpus: a peak carried over from another
/// workload would not be the workload's own.
fn peaks_are_per_workload(lines: &[(Workload, Option<String>)]) -> Result<(), String> {
    let peak = |w: Workload| {
        lines.iter().find(|(l, _)| *l == w).and_then(|(_, line)| peak_rss_mb(line.as_deref()?))
    };
    let Some(local) = peak(Workload::LocalWalk) else {
        return Ok(());
    };
    for w in Workload::ALL.into_iter().filter(|&w| w != Workload::LocalWalk) {
        if let Some(p) = peak(w).filter(|&p| p >= local) {
            return Err(format!(
                "{} reports peak RSS {p:.1} MB, not below local_walk's {local:.1} MB",
                w.name()
            ));
        }
    }
    Ok(())
}
