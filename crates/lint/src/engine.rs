//! Workspace walking: find `.rs` files, attribute them to crates, run
//! the per-file rules, run the per-crate U02 census, and flag allowlist
//! entries that suppress nothing.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::lexer;
use crate::rules::{self, CrateSummary, Diagnostic, FileContext};

/// Lints one file's source text under its workspace-relative `path`,
/// dropping the findings `cfg` allowlists — the same filter
/// [`lint_workspace`] applies.
#[must_use]
pub fn lint_file(path: &str, source: &str, cfg: &Config) -> Vec<Diagnostic> {
    let tokens = lexer::lex(source);
    let ctx = FileContext::new(path, &tokens);
    let mut out = rules::check_file(&ctx);
    out.retain(|d| !cfg.is_allowed(d.rule, &d.path));
    out
}

/// Lints the whole workspace rooted at `root` against the allowlist
/// `cfg`, which was read from `cfg_path`.
///
/// Every file (and the U02 census) is linted with no allowlist, and `cfg`
/// then sorts each finding into reported or suppressed. An entry that
/// suppressed nothing — its rule fires nowhere under its path, or the
/// path is gone — is reported as `HDB-L01` at its line of `cfg_path`, so
/// the allowlist shrinks as the code it excuses is deleted.
///
/// # Errors
/// I/O failures walking the tree or reading sources.
pub fn lint_workspace(
    root: &Path,
    cfg: &Config,
    cfg_path: &str,
) -> Result<Vec<Diagnostic>, String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut diagnostics = Vec::new();
    // crate root dir (workspace-relative) → unsafe census across src/.
    let mut crates: BTreeMap<String, CrateState> = BTreeMap::new();
    // (rule, path) of every finding an allowlist entry suppressed.
    let mut suppressed: BTreeSet<(&str, String)> = BTreeSet::new();

    for rel in &files {
        let abs = root.join(rel);
        let source = std::fs::read_to_string(&abs)
            .map_err(|e| format!("read {}: {e}", abs.display()))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let tokens = lexer::lex(&source);
        let ctx = FileContext::new(&rel_str, &tokens);
        for d in rules::check_file(&ctx) {
            route(d, cfg, &mut suppressed, &mut diagnostics);
        }

        // U02 census: only `src/` files count toward a crate's unsafe
        // total (tests/benches/examples are separate compilation units
        // and cannot be forbidden from the library root).
        if let Some(crate_dir) = crate_src_owner(root, rel) {
            let state = crates.entry(crate_dir.clone()).or_default();
            state.unsafe_tokens += rules::count_unsafe(&tokens);
            let is_root = rel_str == format!("{crate_dir}/src/lib.rs")
                || (crate_dir.is_empty() && rel_str == "src/lib.rs");
            if is_root {
                state.root_file = Some(rel_str.clone());
                state.has_forbid = rules::has_forbid_unsafe(&tokens);
            }
        }
    }

    for state in crates.values() {
        let Some(root_file) = &state.root_file else { continue };
        let summary = CrateSummary {
            root_file: root_file.clone(),
            unsafe_tokens: state.unsafe_tokens,
            has_forbid: state.has_forbid,
        };
        if let Some(d) = rules::check_crate(&summary) {
            route(d, cfg, &mut suppressed, &mut diagnostics);
        }
    }

    for (rule, path, line) in cfg.entries() {
        if !suppressed.contains(&(rule, path.to_string())) {
            diagnostics.push(Diagnostic {
                path: cfg_path.to_string(),
                line,
                col: 1,
                rule: "HDB-L01",
                message: format!(
                    "[allow.{rule}] \"{path}\" suppresses nothing: {rule} fires nowhere under \
                     that path; delete the entry"
                ),
            });
        }
    }

    diagnostics.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule))
    });
    Ok(diagnostics)
}

/// Reports an unfiltered finding, or records it as suppressed when `cfg`
/// allowlists its rule at its path.
fn route(
    d: Diagnostic,
    cfg: &Config,
    suppressed: &mut BTreeSet<(&str, String)>,
    out: &mut Vec<Diagnostic>,
) {
    if cfg.is_allowed(d.rule, &d.path) {
        suppressed.insert((d.rule, d.path));
    } else {
        out.push(d);
    }
}

/// Per-crate running state for the U02 census.
#[derive(Default)]
struct CrateState {
    unsafe_tokens: usize,
    root_file: Option<String>,
    has_forbid: bool,
}

/// If `rel` is a `src/` file of some crate, returns that crate's
/// workspace-relative directory ("" for the umbrella crate at the root).
fn crate_src_owner(root: &Path, rel: &Path) -> Option<String> {
    // Walk ancestors of the file looking for dir/Cargo.toml with the
    // file under dir/src/.
    let mut dir = rel.parent()?;
    loop {
        let candidate = dir.parent();
        if dir.file_name().is_some_and(|n| n == "src") {
            let crate_dir = candidate.unwrap_or(Path::new(""));
            if root.join(crate_dir).join("Cargo.toml").exists() {
                return Some(crate_dir.to_string_lossy().replace('\\', "/"));
            }
        }
        dir = candidate?;
        if dir.as_os_str().is_empty() {
            // Root-level: the umbrella crate's src/ is handled above when
            // dir == "src" and candidate == "".
            return None;
        }
    }
}

/// Recursively collects workspace-relative `.rs` paths, skipping build
/// output and VCS metadata.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == ".github" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip_prefix {}: {e}", path.display()))?;
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}
