//! The benchmark's own tests, at smoke size. Run them optimized:
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;

use perfbench::workload::{Sizes, Workload};
use perfbench::{result_json, run, LoadShape, Options, Outcome};

fn smoke(w: Workload, trace: bool, tamper: bool) -> Outcome {
    let mut opts = Options::new(w, 11, 0.0, trace);
    opts.sizes = Sizes::smoke(w);
    opts.tamper_reference = tamper;
    opts.workdir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{}-{}",
        w.name(),
        u8::from(trace),
        u8::from(tamper)
    ));
    run(&opts)
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

fn assert_reports(w: Workload, trace: bool) {
    let out = smoke(w, trace, false);
    assert!(out.correct, "{} trace={trace}: output check failed", w.name());
    assert_eq!(out.failed, 0);
    assert!(out.attempted >= 1);
    let want = listed(if trace { "per_layer" } else { "end_to_end" });
    let got: Vec<(String, String)> =
        out.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
    assert_eq!(got, want, "{} trace={trace}: metric names and units", w.name());
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{} {}: {} is not finite", w.name(), m.name, m.value);
    }
    let json = result_json(&out);
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
    assert!(!json.contains("null"), "{json}");

    if trace {
        let budget = out.slot_budget.expect("traced runs report slot use");
        assert!(budget.busy_s > 0.0);
        assert!(
            budget.busy_s <= budget.capacity_s,
            "{}: activity busy {} s exceeds slots x tet_s = {} s",
            w.name(),
            budget.busy_s,
            budget.capacity_s
        );
        assert!(out.lines.iter().any(|l| l.starts_with("unattributed_s")));
    }
}

#[test]
fn screen_kernel_reports_every_metric() {
    assert_reports(Workload::ScreenKernel, false);
    assert_reports(Workload::ScreenKernel, true);
}

#[test]
fn ingest_durable_reports_every_metric() {
    assert_reports(Workload::IngestDurable, false);
    assert_reports(Workload::IngestDurable, true);
}

#[test]
fn dist_wire_reports_every_metric() {
    assert_reports(Workload::DistWire, false);
    assert_reports(Workload::DistWire, true);
}

#[test]
fn serve_tenants_reports_every_metric() {
    assert_reports(Workload::ServeTenants, false);
    assert_reports(Workload::ServeTenants, true);
}

#[test]
fn tampered_reference_fails_the_run() {
    for w in [Workload::IngestDurable, Workload::ServeTenants] {
        let out = smoke(w, false, true);
        assert!(!out.correct, "{}: a wrong reference must fail the check", w.name());
        assert!(out.failed > 0);
        assert!(result_json(&out).starts_with("{\"correct\": false,"));
    }
}

#[test]
fn load_stays_within_nproc() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    for w in Workload::ALL {
        let load = LoadShape::of(w);
        assert!(load.generator_threads <= nproc, "{}: generator threads", w.name());
        assert!(load.connections <= nproc, "{}: connections", w.name());
    }
}

#[test]
fn workloads_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let section = &text[text.find("\"workloads\"").expect("workloads")..];
    let section = &section[..section.find(']').expect("closes")];
    for w in Workload::ALL {
        assert!(section.contains(&format!("\"name\": \"{}\"", w.name())), "{} listed", w.name());
    }
}
