//! `hdb-lint`: the workspace's static-analysis pass.
//!
//! The acceptance bar for every PR in this repro is *bit-identical
//! results* across backends, shard counts, and worker counts, plus a
//! server that cannot be crashed by a malformed frame. Those are
//! dynamic properties; this crate makes the underlying coding contracts
//! static. It ships its own small Rust lexer (the workspace has no
//! crates.io access) so rules match on real tokens — a `"HashMap"`
//! inside a string literal or a comment is never flagged.
//!
//! Layers:
//! - [`lexer`] — tokens out of Rust source, skipping strings, raw
//!   strings, char literals, and nested block comments;
//! - [`config`] — the `lint.toml` allowlist (minimal TOML subset);
//! - [`rules`] — the `HDB-*` rules over token streams;
//! - [`engine`] — workspace walking, per-crate aggregation, and the
//!   `HDB-L01` check that every allowlist entry still suppresses a finding.
//!
//! Run it as `cargo run -p hdb-lint -- --workspace`.

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod lexer;
pub mod rules;

pub use config::Config;
pub use engine::{lint_file, lint_workspace};
pub use rules::Diagnostic;
