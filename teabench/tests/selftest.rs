//! Self-tests of the benchmark: its metric table against
//! `BENCHMARK.json`, the output check, and the traced run.
//!
//! Run with `cargo test --release --manifest-path teabench/Cargo.toml`.

use std::path::Path;

use tea_exp::json::{self, Json};
use tea_workloads::{all_workloads, Size};
use teabench::check::{cell_key, cell_outputs, Expected};
use teabench::e2e::ACCURACY_SET;
use teabench::layers;
use teabench::metrics::{END_TO_END, PER_LAYER};
use teabench::span::Spans;
use teabench::workload::{Workload, SUITE_SEED};

const MAX_END_TO_END: usize = 16;
const MAX_PER_LAYER: usize = 128;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn recorded() -> Expected {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
    let text = std::fs::read_to_string(path).expect("expected.json sits beside the benchmark");
    Expected::parse(&text).expect("expected.json parses")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn names(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn metric_names_are_valid_and_within_limits() {
    let doc = benchmark_json();
    let e2e = names(&doc, "end_to_end");
    let layers = names(&doc, "per_layer");
    assert!(!e2e.is_empty() && e2e.len() <= MAX_END_TO_END);
    assert!(!layers.is_empty() && layers.len() <= MAX_PER_LAYER);
    assert!(END_TO_END.len() <= MAX_END_TO_END && PER_LAYER.len() <= MAX_PER_LAYER);
    for (name, _, _) in e2e.iter().chain(&layers) {
        assert!(valid_name(name), "metric name {name:?}");
    }
    for m in &END_TO_END {
        assert!(valid_name(m.name), "metric name {:?}", m.name);
    }
    for m in &PER_LAYER {
        assert!(valid_name(m.name), "metric name {:?}", m.name);
    }
    assert!(!valid_name("bad name") && !valid_name("a/b") && !valid_name(""));
}

#[test]
fn benchmark_json_lists_what_the_benchmark_reports() {
    let doc = benchmark_json();
    let listed: Vec<_> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.name().to_string(),
            )
        })
        .collect();
    assert_eq!(names(&doc, "end_to_end"), listed);
    let listed: Vec<_> = PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.name().to_string(),
            )
        })
        .collect();
    assert_eq!(names(&doc, "per_layer"), listed);
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_per_layer_metric_names_what_it_moves() {
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    for m in &PER_LAYER {
        assert!(
            !m.moves.is_empty() && !m.on.is_empty(),
            "{} maps to nothing",
            m.name
        );
        for target in m.moves {
            assert!(
                END_TO_END.iter().any(|e| e.name == *target),
                "{} moves unknown metric {target}",
                m.name
            );
        }
        for w in m.on {
            assert!(
                workloads.contains(w),
                "{} names unknown workload {w}",
                m.name
            );
        }
    }
}

#[test]
fn recorded_outputs_cover_every_cell_set() {
    let expected = recorded();
    for (set, cells) in [
        ("suite-ref", 18),
        ("seed-matrix", 36),
        ("sim-only", 18),
        (ACCURACY_SET, 18),
    ] {
        let kernels = all_workloads(Size::Test);
        let present = kernels
            .iter()
            .flat_map(|k| [format!("{}/{SUITE_SEED}", k.name), format!("{}/97", k.name)])
            .filter(|key| expected.cell(set, key).is_some())
            .count();
        assert_eq!(present, cells, "{set}");
    }
}

#[test]
fn a_recorded_cell_matches_the_current_tree() {
    // The cheapest ref-size cell: one check that expected.json was
    // recorded from this tree's simulator.
    let kernels: Vec<_> = all_workloads(Size::Ref)
        .into_iter()
        .filter(|k| k.name == "mcf")
        .collect();
    let run = Workload::SuiteRef
        .engine()
        .run("selftest", Workload::SuiteRef.cells(&kernels));
    let want = recorded()
        .cell("suite-ref", &format!("mcf/{SUITE_SEED}"))
        .expect("mcf is recorded")
        .render();
    assert_eq!(cell_outputs(&run.cells[0]), want);
}

#[test]
fn output_check_reports_a_perturbed_expected_value() {
    let kernels: Vec<_> = all_workloads(Size::Test).into_iter().take(3).collect();
    let w = Workload::SeedMatrix;
    let run = w.engine().run("selftest", w.cells(&kernels));
    let mut expected = Expected::default();
    expected.record(w.name(), &run);
    assert!(expected.check(w.name(), &run).is_empty());

    let key = cell_key(&run.cells[1]);
    for (field, perturbed) in [("cycles", "cycles\":1"), ("TEA", "TEA\":0.5")] {
        let mut bad = expected.clone();
        let cell = bad.cell_mut(w.name(), &key).expect("cell recorded");
        let at = cell.find(&format!("\"{field}\":")).expect("field recorded") + 1;
        let end = at + cell[at..].find([',', '}']).expect("value ends");
        cell.replace_range(at..end, perturbed);
        let failures = bad.check(w.name(), &run);
        assert_eq!(failures.len(), 1, "{field}: {failures:?}");
        assert!(failures[0].starts_with(&key), "{failures:?}");
    }

    let mut short = run.clone();
    short.cells.pop();
    assert_eq!(
        expected.check(w.name(), &short).len(),
        1,
        "a missing cell fails"
    );
    assert!(!expected.check("no-such-set", &run).is_empty());
}

#[test]
fn traced_layer_times_are_finite_and_non_negative() {
    let kernels = all_workloads(Size::Test);
    let mut expected = Expected::default();
    for w in [Workload::SuiteRef, Workload::SimOnly] {
        let run = w.engine().run("selftest", w.cells(&kernels));
        expected.record(w.name(), &run);
    }
    for w in [Workload::SuiteRef, Workload::SimOnly] {
        let mut spans = Spans::new();
        let (out, _) = layers::run(w, 7, Size::Test, &expected, &mut spans);
        assert!(out.failures.is_empty(), "{}: {:?}", w.name(), out.failures);
        let reported: Vec<(&str, f64)> = out.report.values().collect();
        let names: Vec<&str> = reported.iter().map(|&(n, _)| n).collect();
        let listed: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, listed, "{} reports every per-layer metric", w.name());
        for (name, value) in reported {
            assert!(value.is_finite(), "{name} = {value}");
            let is_time = PER_LAYER.iter().any(|m| m.name == name && m.unit == "s");
            assert!(!is_time || value >= 0.0, "{name} = {value}");
        }
        assert!(spans.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
