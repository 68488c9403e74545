//! The rule set: machine-checked statements of the workspace's
//! determinism, panic-safety, unsafe-hygiene, and accounting contracts.
//!
//! Every rule is deny-by-default inside its scope; the only escape hatch
//! is a reasoned entry in `lint.toml` (see [`crate::config`]). Rule IDs
//! are stable — they appear in diagnostics, in the allowlist, and in
//! `docs/ARCHITECTURE.md` §Correctness tooling:
//!
//! | id        | contract |
//! |-----------|----------|
//! | `HDB-D01` | no `HashMap`/`HashSet` in result-affecting crates |
//! | `HDB-D03` | no entropy-seeded RNG construction anywhere |
//! | `HDB-O01` | wall-clock reads confined to `obs/clock.rs` + timing crates |
//! | `HDB-P01` | no panic paths in wire decoders / server connection code |
//! | `HDB-P02` | no `as` numeric casts in wire framing |
//! | `HDB-U01` | every `unsafe` needs an adjacent `// SAFETY:` comment |
//! | `HDB-U02` | crates with zero `unsafe` must `#![forbid(unsafe_code)]` |
//! | `HDB-U03` | no `extern` FFI declarations outside the reactor module |
//! | `HDB-A01` | backend `evaluate*` calls only on the charge path |
//! | `HDB-S01` | no discarded `Result`s (`let _ =`, `.ok();`) in storage code |
//! | `HDB-L01` | every `lint.toml` entry suppresses a finding (checked by the workspace walk) |

use crate::lexer::{Token, TokenKind};

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Stable rule id (`HDB-D01`, …).
    pub rule: &'static str,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: deny[{}]: {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// A lexed file plus the precomputed views the rules need.
pub struct FileContext<'a> {
    /// Workspace-relative `/`-separated path.
    pub path: &'a str,
    /// All tokens, comments included.
    pub tokens: &'a [Token],
    /// Indices into `tokens` of non-comment tokens (code view).
    pub code: Vec<usize>,
    /// Line ranges (1-based, inclusive) covered by `#[cfg(test)]` items.
    pub test_ranges: Vec<(u32, u32)>,
}

impl<'a> FileContext<'a> {
    /// Builds the context for one lexed file.
    #[must_use]
    pub fn new(path: &'a str, tokens: &'a [Token]) -> Self {
        let code: Vec<usize> =
            (0..tokens.len()).filter(|&i| !tokens[i].is_comment()).collect();
        let test_ranges = find_test_ranges(tokens, &code);
        Self { path, tokens, code, test_ranges }
    }

    /// Whether `line` falls inside a `#[cfg(test)]` item.
    #[must_use]
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// The code token at code-index `ci`.
    fn code_tok(&self, ci: usize) -> Option<&Token> {
        self.code.get(ci).map(|&i| &self.tokens[i])
    }

    /// Whether the code token at `ci` has the given punct text.
    fn punct_at(&self, ci: usize, p: &str) -> bool {
        self.code_tok(ci)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == p)
    }
}

/// Scans `#[cfg(test)]`-attributed items and returns their line spans.
///
/// The pattern matched is the attribute token run `# [ cfg ( test ) ]`
/// followed (possibly after more attributes) by an item whose body is the
/// next `{ … }` block; the span covers attribute through closing brace.
/// This intentionally over-approximates (any `cfg(test)` item, not just
/// `mod tests`) — over-approximation only *relaxes* rules that skip test
/// code, never tightens them.
fn find_test_ranges(tokens: &[Token], code: &[usize]) -> Vec<(u32, u32)> {
    let tok = |ci: usize| -> Option<&Token> { code.get(ci).map(|&i| &tokens[i]) };
    let is = |ci: usize, kind: TokenKind, text: &str| {
        tok(ci).is_some_and(|t| t.kind == kind && t.text == text)
    };
    let mut ranges = Vec::new();
    let mut ci = 0;
    while ci < code.len() {
        let is_cfg_test = is(ci, TokenKind::Punct, "#")
            && is(ci + 1, TokenKind::Punct, "[")
            && is(ci + 2, TokenKind::Ident, "cfg")
            && is(ci + 3, TokenKind::Punct, "(")
            && is(ci + 4, TokenKind::Ident, "test")
            && is(ci + 5, TokenKind::Punct, ")")
            && is(ci + 6, TokenKind::Punct, "]");
        if !is_cfg_test {
            ci += 1;
            continue;
        }
        let start_line = tok(ci).map_or(1, |t| t.line);
        // Find the item's opening brace, skipping anything that is not a
        // brace or a statement terminator (`#[cfg(test)] use x;` has no
        // body — then the span is just that line).
        let mut j = ci + 7;
        let mut open = None;
        while let Some(t) = tok(j) {
            if t.kind == TokenKind::Punct && t.text == "{" {
                open = Some(j);
                break;
            }
            if t.kind == TokenKind::Punct && t.text == ";" {
                break;
            }
            j += 1;
        }
        let Some(open) = open else {
            let end = tok(j).or_else(|| tok(ci)).map_or(start_line, |t| t.line);
            ranges.push((start_line, end));
            ci = j.max(ci + 7);
            continue;
        };
        // Match braces to the item's end.
        let mut depth = 0usize;
        let mut end_line = start_line;
        let mut k = open;
        while let Some(t) = tok(k) {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            end_line = t.line;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            end_line = t.line;
            k += 1;
        }
        ranges.push((start_line, end_line));
        ci = k + 1;
    }
    ranges
}

/// Records a `rule` finding at `tok`.
fn emit(
    out: &mut Vec<Diagnostic>,
    ctx: &FileContext<'_>,
    rule: &'static str,
    tok: &Token,
    message: String,
) {
    out.push(Diagnostic {
        path: ctx.path.to_string(),
        line: tok.line,
        col: tok.col,
        rule,
        message,
    });
}

// ---------------------------------------------------------------------------
// Scopes

/// Result-affecting crates: estimator maths, statistics, and the
/// hidden-DB evaluation substrate. Randomized iteration order here can
/// change emitted bits across *runs* (std's `RandomState` reseeds per
/// process), which the bit-identicality contract forbids.
fn in_determinism_scope(path: &str) -> bool {
    ["crates/core/", "crates/stats/", "crates/hidden-db/", "crates/server/"]
        .iter()
        .any(|p| path.starts_with(p))
}

/// Files allowed to read wall clocks: the bench harness, the criterion
/// shim, and the one reviewed adapter behind the `Clock` trait
/// (`obs/clock.rs` — everything observability times flows through it,
/// so determinism suites can substitute `ManualClock`). Everything else
/// must stay clock-free so seeded runs reproduce bit-for-bit.
fn in_timing_scope(path: &str) -> bool {
    path.starts_with("crates/bench/")
        || path.starts_with("crates/shims/criterion/")
        || path == "crates/hidden-db/src/obs/clock.rs"
}

/// Wire decoders and server connection paths: code fed by untrusted
/// bytes, where a panic is a remote crash vector. The storage layer is
/// in scope too — it decodes untrusted *disk* bytes (a torn tail or a
/// flipped bit must degrade typed, never crash recovery).
fn in_panic_scope(path: &str) -> bool {
    [
        "crates/hidden-db/src/wire.rs",
        "crates/hidden-db/src/remote.rs",
        "crates/hidden-db/src/federated.rs",
        "crates/hidden-db/src/reactor.rs",
        "crates/server/src/lib.rs",
        "crates/server/src/main.rs",
    ]
    .contains(&path)
        || in_storage_scope(path)
}

/// The durability layer: every write/fsync result decides whether the
/// store may keep accepting writes, so none may be discarded.
fn in_storage_scope(path: &str) -> bool {
    path.starts_with("crates/hidden-db/src/storage/")
}

/// Wire framing: where every numeric narrowing must be a checked
/// `try_from` (a silent `as` truncation corrupts frames).
fn in_cast_scope(path: &str) -> bool {
    path == "crates/hidden-db/src/wire.rs"
}

// ---------------------------------------------------------------------------
// Per-file rules

/// Runs every per-file rule over one lexed file. Findings are
/// unfiltered: the caller applies the `lint.toml` allowlist.
#[must_use]
pub fn check_file(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    rule_d01_hash_collections(ctx, &mut out);
    rule_o01_wall_clock(ctx, &mut out);
    rule_d03_entropy_rng(ctx, &mut out);
    rule_p01_panic_paths(ctx, &mut out);
    rule_p02_wire_casts(ctx, &mut out);
    rule_u01_safety_comments(ctx, &mut out);
    rule_u03_ffi_confinement(ctx, &mut out);
    rule_a01_accounting(ctx, &mut out);
    rule_s01_discarded_results(ctx, &mut out);
    out
}

/// HDB-D01: `HashMap`/`HashSet` are banned in result-affecting crates.
/// `RandomState` gives every map instance its own iteration order; any
/// fold, merge, or RNG-consuming loop over it diverges across runs.
/// Applies to test code too — pinned test values must also reproduce.
fn rule_d01_hash_collections(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !in_determinism_scope(ctx.path) {
        return;
    }
    for &i in &ctx.code {
        let t = &ctx.tokens[i];
        if t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            emit(
                out,
                ctx,
                "HDB-D01",
                t,
                format!(
                    "{} has randomized iteration order; use BTreeMap/BTreeSet or a sorted \
                     structure in result-affecting code",
                    t.text
                ),
            );
        }
    }
}

/// HDB-O01 (supersedes HDB-D02): wall-clock reads (`Instant`,
/// `SystemTime`) outside the bench harness, the criterion shim, and the
/// observability clock adapter (`obs/clock.rs`). Clocks in estimator
/// code leak scheduling into results; production timing must flow
/// through the `Clock` trait so tests can substitute `ManualClock` and
/// stay deterministic.
fn rule_o01_wall_clock(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if in_timing_scope(ctx.path) {
        return;
    }
    for &i in &ctx.code {
        let t = &ctx.tokens[i];
        if t.kind == TokenKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
            emit(
                out,
                ctx,
                "HDB-O01",
                t,
                format!(
                    "{} is a wall-clock read; only crates/bench, the criterion shim, and \
                     obs/clock.rs may touch wall clocks — take an Arc<dyn Clock> instead \
                     (allowlist a reviewed timing site otherwise)",
                    t.text
                ),
            );
        }
    }
}

/// HDB-D03: entropy-seeded RNG construction. All randomness flows from
/// `StdRng::seed_from_u64` so every run is replayable from its seed.
fn rule_d03_entropy_rng(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    const BANNED: &[&str] =
        &["thread_rng", "from_entropy", "from_os_rng", "OsRng", "ThreadRng", "getrandom"];
    if ctx.path.starts_with("crates/shims/") {
        return; // the shims define the RNG surface itself
    }
    for &i in &ctx.code {
        let t = &ctx.tokens[i];
        if t.kind == TokenKind::Ident && BANNED.contains(&t.text.as_str()) {
            emit(
                out,
                ctx,
                "HDB-D03",
                t,
                format!(
                    "{} draws OS entropy; construct RNGs with StdRng::seed_from_u64 so runs \
                     replay from their seed",
                    t.text
                ),
            );
        }
    }
}

/// HDB-P01: panic paths in wire decoders and server connection code:
/// `unwrap()` / `expect()` / `panic!` / `unreachable!` / `todo!` /
/// `unimplemented!` / `assert*!` and range-indexing `buf[a..b]` (a typed
/// `HdbError` or a checked `.get(..)` is required — these functions eat
/// untrusted bytes). Test code is exempt.
fn rule_p01_panic_paths(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    const PANIC_MACROS: &[&str] =
        &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];
    if !in_panic_scope(ctx.path) {
        return;
    }
    let mut bracket_stack: Vec<&'static str> = Vec::new();
    for (ci, &i) in ctx.code.iter().enumerate() {
        let t = &ctx.tokens[i];
        if ctx.in_test_code(t.line) {
            continue;
        }
        match t.kind {
            TokenKind::Ident => {
                let next_is = |p: &str| ctx.punct_at(ci + 1, p);
                if (t.text == "unwrap" || t.text == "expect")
                    && ctx.punct_at(ci.wrapping_sub(1), ".")
                    && next_is("(")
                {
                    emit(
                        out,
                        ctx,
                        "HDB-P01",
                        t,
                        format!(
                            ".{}() panics on the error path; return a typed HdbError instead",
                            t.text
                        ),
                    );
                } else if PANIC_MACROS.contains(&t.text.as_str()) && next_is("!") {
                    // `debug_assert!` is a distinct ident and stays legal:
                    // it vanishes in release builds and pins invariants in
                    // debug CI.
                    emit(
                        out,
                        ctx,
                        "HDB-P01",
                        t,
                        format!("{}! panics; surface a typed HdbError instead", t.text),
                    );
                }
            }
            TokenKind::Punct => match t.text.as_str() {
                "[" => bracket_stack.push("["),
                "]" => {
                    bracket_stack.pop();
                }
                // `..` inside `[ ]`: range indexing, which panics when
                // out of bounds. (The last guard reports only on the
                // first dot of the pair.)
                "." if !bracket_stack.is_empty()
                    && ctx.punct_at(ci + 1, ".")
                    && !ctx.punct_at(ci.wrapping_sub(1), ".") =>
                {
                    emit(
                        out,
                        ctx,
                        "HDB-P01",
                        t,
                        "range indexing `[a..b]` panics out of bounds; use \
                         `.get(a..b)` with a typed error"
                            .to_string(),
                    );
                }
                _ => {}
            },
            _ => {}
        }
    }
}

/// HDB-P02: `as` numeric casts in wire framing. `as` silently truncates;
/// a length that does not fit must be a typed error, so framing uses
/// checked `try_from` exclusively.
fn rule_p02_wire_casts(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    const NUMERIC: &[&str] = &[
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
        "isize", "f32", "f64",
    ];
    if !in_cast_scope(ctx.path) {
        return;
    }
    for (ci, &i) in ctx.code.iter().enumerate() {
        let t = &ctx.tokens[i];
        if ctx.in_test_code(t.line) || t.kind != TokenKind::Ident || t.text != "as" {
            continue;
        }
        if ctx
            .code_tok(ci + 1)
            .is_some_and(|n| n.kind == TokenKind::Ident && NUMERIC.contains(&n.text.as_str()))
        {
            emit(
                out,
                ctx,
                "HDB-P02",
                t,
                "`as` numeric casts silently truncate; wire framing must use checked \
                 try_from with a typed error"
                    .to_string(),
            );
        }
    }
}

/// HDB-U01: every `unsafe` token needs a comment containing `SAFETY`
/// within the six preceding lines (doc comments count). Applies
/// everywhere, tests included — a test's unsafe is no safer.
fn rule_u01_safety_comments(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    /// How far above an `unsafe` token its SAFETY comment may sit.
    const WINDOW: u32 = 6;
    for &i in &ctx.code {
        let t = &ctx.tokens[i];
        if t.kind != TokenKind::Ident || t.text != "unsafe" {
            continue;
        }
        let covered = ctx.tokens[..i]
            .iter()
            .rev()
            .take_while(|c| t.line - c.line.min(t.line) <= WINDOW)
            .any(|c| c.is_comment() && c.text.contains("SAFETY"));
        if !covered {
            emit(
                out,
                ctx,
                "HDB-U01",
                t,
                format!(
                    "unsafe without an adjacent `// SAFETY:` comment (within {WINDOW} lines \
                     above); document why this is sound"
                ),
            );
        }
    }
}

/// HDB-U03: `extern` declarations (FFI blocks, `extern "C"` fns) are
/// confined to the reactor module, the one reviewed place the workspace
/// touches the OS below std. Applies everywhere, tests included — a
/// stray binding elsewhere would scatter platform surface the
/// determinism contract cannot see. The only legitimate site is
/// enumerated in `lint.toml`.
fn rule_u03_ffi_confinement(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for &i in &ctx.code {
        let t = &ctx.tokens[i];
        if t.kind == TokenKind::Ident && t.text == "extern" {
            emit(
                out,
                ctx,
                "HDB-U03",
                t,
                "`extern` FFI declarations are confined to the reactor module; \
                 route OS access through hdb_interface::reactor"
                    .to_string(),
            );
        }
    }
}

/// HDB-A01: backend `evaluate` / `evaluate_from` / `classify_from` method
/// calls outside the accounting charge path. Every probe must flow
/// through `HiddenDb`'s validate → charge → round-trip → memo → tally
/// pipeline or the query-cost numbers lie; the legitimate call sites
/// (the charge path itself, backend delegation, the server's owner-side
/// execution) are enumerated in `lint.toml`. Test code is exempt (tests
/// legitimately compute ground truth directly).
fn rule_a01_accounting(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    const CHARGED: &[&str] = &["evaluate", "evaluate_from", "classify_from"];
    for (ci, &i) in ctx.code.iter().enumerate() {
        let t = &ctx.tokens[i];
        if t.kind != TokenKind::Ident
            || !CHARGED.contains(&t.text.as_str())
            || ctx.in_test_code(t.line)
        {
            continue;
        }
        if ctx.punct_at(ci.wrapping_sub(1), ".") && ctx.punct_at(ci + 1, "(") {
            emit(
                out,
                ctx,
                "HDB-A01",
                t,
                format!(
                    ".{}() bypasses HiddenDb's query accounting; go through the TopKInterface \
                     charge path (or allowlist a backend-internal delegation site)",
                    t.text
                ),
            );
        }
    }
}

/// HDB-S01: discarded `Result`s in the storage layer. A swallowed write
/// or fsync error means the store keeps acknowledging ingests whose
/// bytes may not be durable — the one lie a durability layer must never
/// tell. Two shapes are banned outside test code: the `let _ = …;`
/// binding and the terminal `.ok();` call (both compile away the
/// `#[must_use]` on `Result`). Handle the error or poison the store
/// read-only; a reviewed exception goes in `lint.toml`.
fn rule_s01_discarded_results(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !in_storage_scope(ctx.path) {
        return;
    }
    for (ci, &i) in ctx.code.iter().enumerate() {
        let t = &ctx.tokens[i];
        if ctx.in_test_code(t.line) || t.kind != TokenKind::Ident {
            continue;
        }
        let is_let_discard = t.text == "let"
            && ctx.code_tok(ci + 1).is_some_and(|n| n.kind == TokenKind::Ident && n.text == "_")
            && ctx.punct_at(ci + 2, "=");
        let is_terminal_ok = t.text == "ok"
            && ctx.punct_at(ci.wrapping_sub(1), ".")
            && ctx.punct_at(ci + 1, "(")
            && ctx.punct_at(ci + 2, ")")
            && ctx.punct_at(ci + 3, ";");
        if is_let_discard {
            emit(
                out,
                ctx,
                "HDB-S01",
                t,
                "`let _ =` discards a Result in storage code; a swallowed write/fsync \
                 error breaks the durability contract — handle it or poison read-only"
                    .to_string(),
            );
        } else if is_terminal_ok {
            emit(
                out,
                ctx,
                "HDB-S01",
                t,
                "terminal `.ok();` discards a Result in storage code; a swallowed \
                 write/fsync error breaks the durability contract — handle it or poison \
                 read-only"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Crate-level rule

/// HDB-U02 input: one crate's root file and the unsafe census across its
/// `src/` files.
pub struct CrateSummary {
    /// Workspace-relative path of `src/lib.rs` (or `src/main.rs`).
    pub root_file: String,
    /// Number of `unsafe` tokens across the crate's `src/` code.
    pub unsafe_tokens: usize,
    /// Whether the root file carries `#![forbid(unsafe_code)]`.
    pub has_forbid: bool,
}

/// HDB-U02: a crate whose `src/` has zero `unsafe` must pin that with
/// `#![forbid(unsafe_code)]` in its root file, so unsafe cannot creep in
/// without a reviewed lint change.
#[must_use]
pub fn check_crate(summary: &CrateSummary) -> Option<Diagnostic> {
    if summary.unsafe_tokens > 0 || summary.has_forbid {
        return None;
    }
    Some(Diagnostic {
        path: summary.root_file.clone(),
        line: 1,
        col: 1,
        rule: "HDB-U02",
        message: "crate has no unsafe code; add #![forbid(unsafe_code)] so it stays that way"
            .to_string(),
    })
}

/// Scans a token stream for the `# ! [ forbid ( unsafe_code ) ]`
/// attribute.
#[must_use]
pub fn has_forbid_unsafe(tokens: &[Token]) -> bool {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    code.windows(8).any(|w| {
        w[0].text == "#"
            && w[1].text == "!"
            && w[2].text == "["
            && w[3].text == "forbid"
            && w[4].text == "("
            && w[5].text == "unsafe_code"
            && w[6].text == ")"
            && w[7].text == "]"
    })
}

/// Counts `unsafe` identifier tokens (the U02 census).
#[must_use]
pub fn count_unsafe(tokens: &[Token]) -> usize {
    tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident && t.text == "unsafe")
        .count()
}
