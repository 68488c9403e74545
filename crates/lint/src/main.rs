//! The `hdb-lint` binary: `cargo run -p hdb-lint -- --workspace`.
//!
//! Prints rustc-style `file:line:col: deny[RULE-ID]: message`
//! diagnostics and exits nonzero when any violation is found, so it
//! gates CI the same way `cargo clippy -- -D warnings` does.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use hdb_lint::{lint_workspace, Config};

struct Opts {
    root: PathBuf,
    config: Option<PathBuf>,
    workspace: bool,
}

fn parse_opts() -> Opts {
    let mut opts = Opts { root: PathBuf::from("."), config: None, workspace: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--workspace" => opts.workspace = true,
            "--root" => opts.root = PathBuf::from(value("--root")),
            "--config" => opts.config = Some(PathBuf::from(value("--config"))),
            "--help" | "-h" => {
                println!(
                    "usage: hdb-lint --workspace [--root DIR] [--config lint.toml]\n\n\
                     Lints every .rs file under DIR (default: the nearest ancestor\n\
                     containing lint.toml, else the current directory) against the\n\
                     HDB-* contract rules. Exits 1 on violations."
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Walks up from the current directory to a `lint.toml`, so the tool
/// works from any crate subdirectory (like `cargo` finds its workspace).
fn find_root(start: &Path) -> PathBuf {
    let mut dir = match start.canonicalize() {
        Ok(d) => d,
        Err(_) => return start.to_path_buf(),
    };
    loop {
        if dir.join("lint.toml").exists() {
            return dir;
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}

fn main() {
    let opts = parse_opts();
    if !opts.workspace {
        eprintln!("hdb-lint: pass --workspace to lint the tree (see --help)");
        std::process::exit(2);
    }
    let root = find_root(&opts.root);
    let config_path = opts.config.clone().unwrap_or_else(|| root.join("lint.toml"));
    let config = match std::fs::read_to_string(&config_path) {
        Ok(text) => match Config::parse(&text) {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("hdb-lint: {e}");
                std::process::exit(2);
            }
        },
        // No allowlist file at all: deny-by-default with zero escapes.
        Err(_) => Config::default(),
    };
    // L01 points at the allowlist by its path as given, relative to the
    // root when it lives there.
    let shown = config_path.strip_prefix(&root).unwrap_or(&config_path).display().to_string();
    match lint_workspace(&root, &config, &shown) {
        Ok(diags) if diags.is_empty() => {
            println!("hdb-lint: clean ({} allowlist file)", config_path.display());
        }
        Ok(diags) => {
            for d in &diags {
                println!("{d}");
            }
            eprintln!("hdb-lint: {} violation(s)", diags.len());
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("hdb-lint: {e}");
            std::process::exit(2);
        }
    }
}
