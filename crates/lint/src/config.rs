//! `lint.toml`: per-rule allowlists with mandatory reasons.
//!
//! The rules are deny-by-default; the only way to quiet one is an
//! explicit entry here, and every entry must say *why* — the allowlist
//! is the audit trail of every place the contracts are intentionally
//! relaxed (see `docs/ARCHITECTURE.md` §Correctness tooling).
//!
//! The format is a hand-rolled subset of TOML (the workspace has no
//! crates.io access): `[allow.<RULE-ID>]` tables whose entries map a
//! workspace-relative path to a reason string:
//!
//! ```toml
//! [allow.HDB-D01]
//! "crates/hidden-db/src/cache.rs" = "memo shards are keyed lookups only"
//! ```
//!
//! Supported syntax: table headers in `[…]` (dotted, possibly quoted
//! segments), `key = "value"` pairs with plain or quoted keys, basic
//! strings with `\"`/`\\`/`\n`/`\t` escapes, `#` comments, and blank
//! lines. Anything else is a hard error — a config that does not parse
//! must fail the lint run loudly, not silently allow everything.

use std::collections::BTreeMap;

/// Parsed allowlists: rule id → (path → the entry's 1-based line). The
/// reason is checked to be a string and not kept: it is for the reader
/// of `lint.toml`, not for the lint.
#[derive(Clone, Debug, Default)]
pub struct Config {
    allow: BTreeMap<String, BTreeMap<String, u32>>,
}

impl Config {
    /// Whether `path` (workspace-relative, `/`-separated) is allowlisted
    /// for `rule`.
    #[must_use]
    pub fn is_allowed(&self, rule: &str, path: &str) -> bool {
        self.allow.get(rule).is_some_and(|paths| paths.contains_key(path))
    }

    /// Every entry as `(rule, path, line)`, ordered by rule then path;
    /// `line` is the entry's 1-based line in `lint.toml`.
    #[must_use]
    pub fn entries(&self) -> Vec<(&str, &str, u32)> {
        self.allow
            .iter()
            .flat_map(|(rule, m)| {
                m.iter().map(move |(path, line)| (rule.as_str(), path.as_str(), *line))
            })
            .collect()
    }

    /// Parses the `lint.toml` subset described in the module docs.
    ///
    /// # Errors
    /// A human-readable message naming the offending line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut config = Self::default();
        // Current table path, e.g. ["allow", "HDB-D01"].
        let mut table: Vec<String> = Vec::new();
        for (lineno, raw) in (1u32..).zip(text.lines()) {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(inner) = rest.strip_suffix(']') else {
                    return Err(format!("lint.toml:{lineno}: unterminated table header"));
                };
                table = parse_dotted_key(inner)
                    .map_err(|e| format!("lint.toml:{lineno}: {e}"))?;
                continue;
            }
            let Some(eq) = find_unquoted(line, '=') else {
                return Err(format!("lint.toml:{lineno}: expected `key = \"value\"`"));
            };
            let key = parse_key(line[..eq].trim())
                .map_err(|e| format!("lint.toml:{lineno}: {e}"))?;
            parse_string(line[eq + 1..].trim())
                .map_err(|e| format!("lint.toml:{lineno}: {e}"))?;
            match table.as_slice() {
                [allow, rule] if allow == "allow" => {
                    config
                        .allow
                        .entry(rule.clone())
                        .or_default()
                        .insert(key, lineno);
                }
                _ => {
                    return Err(format!(
                        "lint.toml:{lineno}: entries must live under an [allow.<RULE-ID>] table, \
                         found table {table:?}"
                    ));
                }
            }
        }
        Ok(config)
    }
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    match find_unquoted(line, '#') {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Position of the first `needle` outside any `"…"` string.
fn find_unquoted(line: &str, needle: char) -> Option<usize> {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            c if c == needle && !in_str => return Some(i),
            _ => {}
        }
    }
    None
}

/// A dotted table path: `allow.HDB-D01` or `allow."odd.id"`.
fn parse_dotted_key(s: &str) -> Result<Vec<String>, String> {
    s.split('.').map(|seg| parse_key(seg.trim())).collect()
}

/// A single key: bare (`A-Za-z0-9_-`) or quoted.
fn parse_key(s: &str) -> Result<String, String> {
    if s.starts_with('"') {
        return parse_string(s);
    }
    if !s.is_empty()
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Ok(s.to_string());
    }
    Err(format!("invalid key `{s}` (bare keys are [A-Za-z0-9_-]+; quote anything else)"))
}

/// A basic `"…"` string with a small escape set.
fn parse_string(s: &str) -> Result<String, String> {
    let Some(body) = s.strip_prefix('"').and_then(|r| r.strip_suffix('"')) else {
        return Err(format!("expected a \"quoted string\", found `{s}`"));
    };
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            other => return Err(format!("unsupported escape `\\{}`", other.unwrap_or(' '))),
        }
    }
    // A lone interior quote means the strip_suffix above matched an
    // escaped quote; reject rather than silently mis-parse.
    if body.ends_with('\\') && !body.ends_with("\\\\") {
        return Err("string ends in an unfinished escape".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_allow_tables() {
        let cfg = Config::parse(
            r##"
# comment
[allow.HDB-D01]
"crates/hidden-db/src/cache.rs" = "keyed lookups only" # trailing comment

[allow.HDB-P01]
"crates/server/src/main.rs" = "self-test binary: panics are the failure report"
"##,
        )
        .unwrap();
        assert!(cfg.is_allowed("HDB-D01", "crates/hidden-db/src/cache.rs"));
        assert!(!cfg.is_allowed("HDB-D01", "crates/server/src/main.rs"));
        assert!(cfg.is_allowed("HDB-P01", "crates/server/src/main.rs"));
        assert_eq!(
            cfg.entries(),
            vec![
                ("HDB-D01", "crates/hidden-db/src/cache.rs", 4),
                ("HDB-P01", "crates/server/src/main.rs", 7),
            ]
        );
    }

    #[test]
    fn rejects_entries_outside_allow_tables() {
        assert!(Config::parse("x = \"y\"").is_err());
        assert!(Config::parse("[other]\nx = \"y\"").is_err());
        assert!(Config::parse("[allow.A.B]\nx = \"y\"").is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Config::parse("[allow.R\n").is_err());
        assert!(Config::parse("[allow.R]\nkey value").is_err());
        assert!(Config::parse("[allow.R]\nkey = unquoted").is_err());
        assert!(Config::parse("[allow.R]\nbad key! = \"v\"").is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = Config::parse("[allow.R]\n\"a#b.rs\" = \"uses # in name\"").unwrap();
        assert!(cfg.is_allowed("R", "a#b.rs"));
    }

    #[test]
    fn escapes_round_trip() {
        let cfg = Config::parse("[allow.R]\n\"say \\\"hi\\\" and \\\\ back.rs\" = \"reason\"")
            .unwrap();
        assert!(cfg.is_allowed("R", "say \"hi\" and \\ back.rs"));
        assert!(Config::parse("[allow.R]\n\"p.rs\" = \"bad \\q escape\"").is_err());
    }

    #[test]
    fn empty_config_allows_nothing() {
        let cfg = Config::parse("").unwrap();
        assert!(!cfg.is_allowed("HDB-D01", "anything.rs"));
    }
}
