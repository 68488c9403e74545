//! Each workload at a tiny size, untraced and traced, passes its
//! correctness checks and emits exactly the metrics `BENCHMARK.json`
//! declares for that mode, each with its declared unit and a finite
//! value.

use hdb_jobbench::{run, Args, Size, Workload};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

#[test]
fn every_workload_emits_every_declared_metric() {
    for trace in [false, true] {
        let mut want = declared(if trace { "per_layer" } else { "end_to_end" });
        want.sort();
        assert!(!want.is_empty());
        for workload in Workload::ALL {
            let args = Args { workload, seed: 7, seconds: 0.4, trace, size: Size::Tiny };
            let report = run(&args)
                .unwrap_or_else(|e| panic!("{} (trace {trace}) failed: {e}", workload.name()));
            let mut got: Vec<(String, String)> =
                report.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
            got.sort();
            assert_eq!(got, want, "{} (trace {trace}) metric set", workload.name());
            for m in &report.metrics {
                assert!(m.value.is_finite(), "{} {}: {}", workload.name(), m.name, m.value);
            }
            assert!(report.attempted > 0);
            assert_eq!(report.failed, 0);
            let line = report.to_json(true);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
        }
    }
}
