//! Rule-level tests: each fixture below is modelled on a real pre-fix
//! violation this lint surfaced in the workspace (see the PR that
//! introduced `hdb-lint`), plus lexer-correctness pins — banned names
//! inside strings and comments must never be flagged.

use hdb_lint::rules::{check_crate, CrateSummary};
use hdb_lint::{lint_file, Config};

fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
    let cfg = Config::default();
    let mut rules: Vec<&'static str> =
        lint_file(path, src, &cfg).into_iter().map(|d| d.rule).collect();
    rules.dedup();
    rules
}

// ---------------------------------------------------------------------------
// Determinism

#[test]
fn d01_flags_hashmap_in_estimator_code() {
    // Pre-fix weight.rs: f64 fold over HashMap::values() — iteration
    // order (per-instance RandomState) reached the estimate bits.
    let src = r#"
        use std::collections::HashMap;
        struct Node { stats: HashMap<u16, f64> }
        fn total(n: &Node) -> f64 { n.stats.values().sum() }
    "#;
    assert_eq!(rules_hit("crates/core/src/weight.rs", src), vec!["HDB-D01"]);
}

#[test]
fn d01_is_scoped_to_result_affecting_crates() {
    let src = "use std::collections::HashMap; fn f() -> HashMap<u8, u8> { HashMap::new() }";
    assert!(rules_hit("crates/lint/src/engine.rs", src).is_empty());
}

#[test]
fn d01_respects_the_allowlist() {
    let cfg = Config::parse(
        "[allow.HDB-D01]\n\"crates/hidden-db/src/cache.rs\" = \"keyed lookups only\"",
    )
    .unwrap();
    let src = "use std::collections::HashMap; struct M { m: HashMap<u64, u64> }";
    assert!(lint_file("crates/hidden-db/src/cache.rs", src, &cfg).is_empty());
    assert!(!lint_file("crates/hidden-db/src/index.rs", src, &cfg).is_empty());
}

#[test]
fn o01_flags_wall_clock_outside_timing_scope() {
    let src = "fn now() -> std::time::Instant { std::time::Instant::now() }";
    assert_eq!(rules_hit("crates/core/src/engine.rs", src), vec!["HDB-O01"]);
    assert!(rules_hit("crates/bench/src/runner.rs", src).is_empty());
    assert!(rules_hit("crates/shims/criterion/src/lib.rs", src).is_empty());
}

#[test]
fn o01_exempts_only_the_clock_module_of_obs() {
    // obs/clock.rs is the one production wall-clock site (WallClock);
    // the rest of the obs module records pre-measured nanos and must
    // stay clock-free like any estimator code.
    let src = "fn f() { let _t = std::time::SystemTime::now(); }";
    assert!(rules_hit("crates/hidden-db/src/obs/clock.rs", src).is_empty());
    assert_eq!(rules_hit("crates/hidden-db/src/obs/registry.rs", src), vec!["HDB-O01"]);
    assert_eq!(rules_hit("crates/hidden-db/src/remote.rs", src), vec!["HDB-O01"]);
}

#[test]
fn o01_respects_the_allowlist() {
    let cfg = Config::parse(
        "[allow.HDB-O01]\n\"examples/parallel_engine.rs\" = \"demo prints wall-clock speedups\"",
    )
    .unwrap();
    let src = "fn f() { let _t = std::time::Instant::now(); }";
    assert!(lint_file("examples/parallel_engine.rs", src, &cfg).is_empty());
    assert!(!lint_file("examples/other.rs", src, &cfg).is_empty());
}

#[test]
fn d03_flags_entropy_rng_everywhere_but_shims() {
    let src = "fn mk() { let _r = rand::thread_rng(); }";
    assert_eq!(rules_hit("crates/core/src/size.rs", src), vec!["HDB-D03"]);
    assert_eq!(rules_hit("crates/bench/src/runner.rs", src), vec!["HDB-D03"]);
    assert!(rules_hit("crates/shims/rand/src/lib.rs", src).is_empty());
    let seeded = "fn mk() { let _r = StdRng::seed_from_u64(42); }";
    assert!(rules_hit("crates/core/src/size.rs", seeded).is_empty());
}

// ---------------------------------------------------------------------------
// Panic-safety

#[test]
fn p01_flags_expect_in_wire_decoder() {
    // Pre-fix wire.rs Dec::u32: a length-4 slice "cannot fail" — until a
    // truncated frame arrives over the socket.
    let src = r#"
        fn u32_at(buf: &[u8]) -> u32 {
            u32::from_le_bytes(buf[0..4].try_into().expect("len 4"))
        }
    "#;
    let hits = rules_hit("crates/hidden-db/src/wire.rs", src);
    assert!(hits.contains(&"HDB-P01"), "expect + range indexing must flag: {hits:?}");
}

#[test]
fn p01_flags_panic_macros_but_not_debug_assert() {
    let src = "fn f(x: u8) { if x > 7 { panic!(\"bad\") } }";
    assert_eq!(rules_hit("crates/server/src/lib.rs", src), vec!["HDB-P01"]);
    let dbg = "fn f(x: u8) { debug_assert!(x <= 7); }";
    assert!(rules_hit("crates/server/src/lib.rs", dbg).is_empty());
}

#[test]
fn p01_skips_test_code_and_other_paths() {
    let src = r#"
        fn ok() -> u8 { 1 }
        #[cfg(test)]
        mod tests {
            #[test]
            fn t() { assert_eq!(super::ok(), 1); Some(3).unwrap(); }
        }
    "#;
    assert!(rules_hit("crates/hidden-db/src/wire.rs", src).is_empty());
    // unwrap in a crate outside the panic scope is not P01's business.
    let elsewhere = "fn f() { Some(1).unwrap(); }";
    assert!(rules_hit("crates/core/src/agg.rs", elsewhere).is_empty());
}

#[test]
fn p01_range_indexing_only_inside_brackets() {
    let src = "fn f(b: &[u8], n: usize) -> &[u8] { &b[..n] }";
    assert_eq!(rules_hit("crates/hidden-db/src/wire.rs", src), vec!["HDB-P01"]);
    // A plain range expression (no indexing) is fine.
    let loop_src = "fn f(n: usize) { for _i in 0..n {} }";
    assert!(rules_hit("crates/hidden-db/src/wire.rs", loop_src).is_empty());
}

#[test]
fn p02_flags_as_casts_in_wire_framing_only() {
    // Pre-fix read_frame: `u32::from_le_bytes(header) as usize`.
    let src = "fn f(x: u32) -> usize { x as usize }";
    assert_eq!(rules_hit("crates/hidden-db/src/wire.rs", src), vec!["HDB-P02"]);
    assert!(rules_hit("crates/hidden-db/src/table.rs", src).is_empty());
    // Non-numeric `as` (imports, trait casts) is not a truncation risk.
    let import = "use std::collections::BTreeMap as Map; fn f(m: Map<u8, u8>) {}";
    assert!(rules_hit("crates/hidden-db/src/wire.rs", import).is_empty());
}

// ---------------------------------------------------------------------------
// Unsafe hygiene

#[test]
fn u01_requires_adjacent_safety_comment() {
    // Pre-fix par.rs: a raw-pointer deref whose justification lived only
    // in the function docs, not at the unsafe block.
    let bad = r#"
        fn run(ptr: *mut u8) {
            unsafe { *ptr = 1 };
        }
    "#;
    assert_eq!(rules_hit("crates/hidden-db/src/par.rs", bad), vec!["HDB-U01"]);
    let good = r#"
        fn run(ptr: *mut u8) {
            // SAFETY: caller guarantees ptr is valid and exclusively owned.
            unsafe { *ptr = 1 };
        }
    "#;
    assert!(rules_hit("crates/hidden-db/src/par.rs", good).is_empty());
}

#[test]
fn u01_comment_must_be_close() {
    let far = r#"
        // SAFETY: way up here.
        fn a() {}
        fn b() {}
        fn c() {}
        fn d() {}
        fn e() {}
        fn run(ptr: *mut u8) {
            unsafe { *ptr = 1 };
        }
    "#;
    assert_eq!(rules_hit("crates/hidden-db/src/par.rs", far), vec!["HDB-U01"]);
}

#[test]
fn u02_census_demands_forbid_when_no_unsafe() {
    let clean = CrateSummary {
        root_file: "crates/datagen/src/lib.rs".to_string(),
        unsafe_tokens: 0,
        has_forbid: false,
    };
    let diag = check_crate(&clean).expect("must flag");
    assert_eq!(diag.rule, "HDB-U02");
    let pinned = CrateSummary { has_forbid: true, ..clean };
    assert!(check_crate(&pinned).is_none());
    let has_unsafe = CrateSummary {
        root_file: "crates/hidden-db/src/lib.rs".to_string(),
        unsafe_tokens: 3,
        has_forbid: false,
    };
    assert!(check_crate(&has_unsafe).is_none());
}

#[test]
fn u02_recognises_the_forbid_attribute_in_tokens() {
    use hdb_lint::lexer::lex;
    use hdb_lint::rules::has_forbid_unsafe;
    assert!(has_forbid_unsafe(&lex("//! docs\n#![forbid(unsafe_code)]\npub fn f() {}")));
    assert!(!has_forbid_unsafe(&lex("// #![forbid(unsafe_code)] in a comment only")));
    assert!(!has_forbid_unsafe(&lex("#![deny(unsafe_code)]")));
}

#[test]
fn u03_confines_extern_to_the_reactor_module() {
    // A raw FFI binding anywhere else scatters platform surface the
    // determinism contract cannot see.
    let src = r#"
        extern "C" {
            fn epoll_create1(flags: i32) -> i32;
        }
    "#;
    assert_eq!(rules_hit("crates/hidden-db/src/par.rs", src), vec!["HDB-U03"]);
    assert_eq!(rules_hit("crates/server/src/lib.rs", src), vec!["HDB-U03"]);
    // Tests are NOT exempt: FFI in a test is still FFI.
    let test_src = r#"
        #[cfg(test)]
        mod tests {
            extern "C" { fn getpid() -> i32; }
        }
    "#;
    assert_eq!(rules_hit("crates/core/src/size.rs", test_src), vec!["HDB-U03"]);
}

#[test]
fn u03_respects_the_reactor_allowlist() {
    let cfg = Config::parse(
        "[allow.HDB-U03]\n\"crates/hidden-db/src/reactor.rs\" = \"the reviewed FFI boundary\"",
    )
    .unwrap();
    let src = "extern \"C\" { fn poll(fds: *mut PollFd, n: u64, timeout: i32) -> i32; }";
    assert!(lint_file("crates/hidden-db/src/reactor.rs", src, &cfg).is_empty());
    assert!(!lint_file("crates/hidden-db/src/remote.rs", src, &cfg).is_empty());
}

#[test]
fn p01_scope_covers_the_reactor() {
    // The reactor sits on the server's event path; a panic there takes
    // the whole process down, so unwrap is banned like in wire code.
    let src = "fn f() { Some(1).unwrap(); }";
    assert_eq!(rules_hit("crates/hidden-db/src/reactor.rs", src), vec!["HDB-P01"]);
}

// ---------------------------------------------------------------------------
// Accounting

#[test]
fn a01_flags_backend_calls_off_the_charge_path() {
    // Pre-fix shape: an estimator probing the backend directly would
    // silently skip the query-cost ledger.
    let src = r#"
        fn sneak(b: &dyn Backend, q: &Query) -> usize {
            b.evaluate(q).len()
        }
    "#;
    assert_eq!(rules_hit("crates/core/src/size.rs", src), vec!["HDB-A01"]);
}

#[test]
fn a01_spares_tests_and_allowlisted_delegation() {
    let test_src = r#"
        #[cfg(test)]
        mod tests {
            fn ground_truth(b: &B, q: &Q) -> usize { b.evaluate(q).len() }
        }
    "#;
    assert!(rules_hit("crates/core/src/size.rs", test_src).is_empty());
    let cfg = Config::parse(
        "[allow.HDB-A01]\n\"crates/hidden-db/src/interface.rs\" = \"the charge path\"",
    )
    .unwrap();
    let src = "fn charge(b: &B, q: &Q) -> R { b.evaluate(q) }";
    assert!(lint_file("crates/hidden-db/src/interface.rs", src, &cfg).is_empty());
    // A fn *named* evaluate (definition, not `.call()`) is fine anywhere.
    let def = "fn evaluate(q: &Q) -> R { todo() }";
    assert!(rules_hit("crates/core/src/size.rs", def).is_empty());
}

// ---------------------------------------------------------------------------
// Lexer correctness: banned names in non-code positions never flag.

// ---------------------------------------------------------------------------
// Storage durability contract

#[test]
fn s01_flags_discarded_results_in_storage_code() {
    // The two swallow shapes a durability layer must never use on a
    // write/fsync result.
    let let_discard = "fn f(io: &dyn StorageIo) { let _ = io.sync(\"wal.log\"); }";
    let terminal_ok = "fn f(io: &dyn StorageIo) { io.append(\"wal.log\", b\"x\").ok(); }";
    assert_eq!(rules_hit("crates/hidden-db/src/storage/wal.rs", let_discard), vec!["HDB-S01"]);
    assert_eq!(
        rules_hit("crates/hidden-db/src/storage/persistent.rs", terminal_ok),
        vec!["HDB-S01"]
    );
    // Out of storage scope the same shapes are legal…
    assert!(rules_hit("crates/hidden-db/src/cache.rs", let_discard).is_empty());
    // …and non-terminal `.ok()` (a conversion feeding `?` or a match) is
    // legal even inside it.
    let converted = "fn f(s: &str) -> Option<u64> { s.parse().ok() }";
    assert!(rules_hit("crates/hidden-db/src/storage/snapshot.rs", converted).is_empty());
}

#[test]
fn s01_exempts_test_code_and_respects_the_allowlist() {
    let src = r#"
        #[cfg(test)]
        mod tests {
            #[test]
            fn t() { let _ = std::fs::remove_file("scratch"); }
        }
    "#;
    assert!(rules_hit("crates/hidden-db/src/storage/io.rs", src).is_empty());
    let cfg = Config::parse(
        "[allow.HDB-S01]\n\"crates/hidden-db/src/storage/io.rs\" = \"reviewed best-effort\"",
    )
    .unwrap();
    let live = "fn f(io: &dyn StorageIo) { let _ = io.sync(\"wal.log\"); }";
    assert!(lint_file("crates/hidden-db/src/storage/io.rs", live, &cfg).is_empty());
}

#[test]
fn p01_scope_covers_the_storage_layer() {
    // Disk bytes are untrusted input: a decoder unwrap in storage code
    // is the same crash vector as one in the wire decoders.
    let src = "fn f(b: &[u8]) -> u8 { b.first().copied().unwrap() }";
    assert_eq!(rules_hit("crates/hidden-db/src/storage/wal.rs", src), vec!["HDB-P01"]);
}

#[test]
fn banned_names_in_strings_and_comments_are_invisible() {
    let src = r###"
        // HashMap, Instant::now, unwrap(), thread_rng — just a comment.
        /* nested /* HashSet */ still a comment: b.evaluate(q) */
        fn f() -> &'static str {
            let _c = 'x';
            let _raw = r#"HashMap::new().unwrap() as usize"#;
            "SystemTime thread_rng panic! b[0..4] evaluate("
        }
    "###;
    assert!(rules_hit("crates/core/src/weight.rs", src).is_empty());
    assert!(rules_hit("crates/hidden-db/src/wire.rs", src).is_empty());
}

#[test]
fn diagnostics_carry_position_and_rule_id() {
    let src = "use std::collections::HashMap;\n";
    let diags = lint_file("crates/core/src/weight.rs", src, &Config::default());
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!((d.line, d.rule), (1, "HDB-D01"));
    assert!(d.col > 1);
    let shown = format!("{d}");
    assert!(
        shown.starts_with("crates/core/src/weight.rs:1:") && shown.contains("deny[HDB-D01]"),
        "rustc-style rendering, got: {shown}"
    );
}

#[test]
fn l01_reports_allowlist_entries_that_suppress_nothing() {
    // Fixture tree: one live HashMap site, one clean file, and crates `a`
    // (no forbid attribute, so U02 fires) and `b` (pinned).
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("l01_fixture");
    let _ = std::fs::remove_dir_all(&root);
    for (path, src) in [
        ("crates/hidden-db/src/cache.rs", "use std::collections::HashMap;"),
        ("crates/hidden-db/src/index.rs", "pub fn f() {}"),
        ("crates/a/Cargo.toml", ""),
        ("crates/a/src/lib.rs", "pub fn a() {}"),
        ("crates/b/Cargo.toml", ""),
        ("crates/b/src/lib.rs", "#![forbid(unsafe_code)]"),
    ] {
        std::fs::create_dir_all(root.join(path).parent().unwrap()).unwrap();
        std::fs::write(root.join(path), src).unwrap();
    }
    let live = "[allow.HDB-D01]\n\"crates/hidden-db/src/cache.rs\" = \"live\"\n\
                [allow.HDB-U02]\n\"crates/a/src/lib.rs\" = \"live\"\n";
    let stale = "[allow.HDB-D01]\n\"crates/hidden-db/src/index.rs\" = \"no HashMap there\"\n\
                 \"crates/hidden-db/src/gone.rs\" = \"no such file\"\n\
                 \"crates/hidden-db/src\" = \"entries name files\"\n\
                 [allow.HDB-U02]\n\"crates/b/src/lib.rs\" = \"b pins forbid\"\n";
    let lint = |toml: &str| {
        let cfg = Config::parse(toml).unwrap();
        let diags = hdb_lint::lint_workspace(&root, &cfg, "ci/allow.toml").unwrap();
        diags.into_iter().map(|d| (d.path, d.line, d.rule)).collect::<Vec<_>>()
    };
    assert!(lint(live).is_empty());
    // Each stale entry is reported at its own line of the allowlist,
    // under the path the allowlist was read from.
    let at = |line| ("ci/allow.toml".to_string(), line, "HDB-L01");
    assert_eq!(lint(&format!("{live}{stale}")), vec![at(6), at(7), at(8), at(10)]);
    // Without the live entries their findings come back.
    let bare: Vec<&str> = lint("").iter().map(|d| d.2).collect();
    assert_eq!(bare, vec!["HDB-U02", "HDB-D01"]);
    std::fs::remove_dir_all(&root).unwrap();
}
