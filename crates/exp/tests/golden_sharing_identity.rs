//! The golden memo's cardinal guarantee: a cell that reuses another
//! cell's finished golden reference is bit-identical to one that
//! computes its own. The reference depends only on program and config,
//! never on the sampling seed or interval — so no artifact byte may
//! change when sharing is on, off, or pre-warmed, or when cells run in
//! parallel.

use tea_core::pics::Granularity;
use tea_exp::{Engine, GoldenMemo, Matrix, RunResult, ALL_SCHEMES};
use tea_obs::metrics::MetricValue;
use tea_workloads::{deepsjeng, lbm, xz, Size};

/// Two seeds per workload, so the second cell of each program reuses
/// the first cell's reference.
fn matrix() -> Matrix {
    Matrix::new()
        .workloads(vec![
            lbm::workload(Size::Test),
            xz::workload(Size::Test),
            deepsjeng::workload(Size::Test),
        ])
        .seeds(&[42, 97])
}

/// Everything measurement-like about a run, excluding wall-clock
/// timing (the only field allowed to differ between runs).
fn fingerprint(run: &RunResult) -> Vec<String> {
    run.cells
        .iter()
        .map(|c| {
            let c = c.result().expect("cell completed");
            let golden = c.golden.as_ref().expect("golden attached");
            let mut s = format!(
                "{} seed={} stats={:?} golden={:016x}",
                c.spec.workload,
                c.spec.seed,
                c.stats,
                golden.pics().total().to_bits(),
            );
            for &scheme in &ALL_SCHEMES {
                let e = c.error(scheme, Granularity::Instruction).unwrap();
                s.push_str(&format!(
                    " {}:{}:{:016x}",
                    scheme.name(),
                    c.samples[&scheme],
                    e.to_bits(),
                ));
            }
            s
        })
        .collect()
}

fn det_json(run: &RunResult) -> String {
    run.deterministic_json().render_pretty()
}

#[test]
fn shared_golden_matches_per_cell_golden_bit_for_bit() {
    let computed = Engine::serial()
        .quiet()
        .trace_cache(false)
        .run("identity", matrix().cells());
    let shared = Engine::serial().quiet().run("identity", matrix().cells());

    assert_eq!(computed.cells.len(), 6);
    assert_eq!(
        fingerprint(&computed),
        fingerprint(&shared),
        "golden sharing must not perturb any measurement"
    );
    assert_eq!(
        det_json(&computed),
        det_json(&shared),
        "the deterministic artifact projection must be byte-identical"
    );
}

#[test]
fn prewarmed_shared_memo_is_also_bit_identical() {
    let engine = Engine::serial().quiet();
    let memo = GoldenMemo::new();
    // The first run publishes every golden reference; in the second,
    // every cell reuses one.
    let cold = engine.run_with_cache("identity", matrix().cells(), &memo);
    let warm = engine.run_with_cache("identity", matrix().cells(), &memo);
    assert!(cold.all_ok() && warm.all_ok());
    assert_eq!(fingerprint(&cold), fingerprint(&warm));
    assert_eq!(det_json(&cold), det_json(&warm));
}

#[test]
fn parallel_sharing_matches_serial_sharing() {
    let serial = Engine::new(1).quiet().run("identity", matrix().cells());
    let parallel = Engine::new(4).quiet().run("identity", matrix().cells());
    assert_eq!(parallel.threads, 4);
    assert_eq!(fingerprint(&serial), fingerprint(&parallel));
    assert_eq!(det_json(&serial), det_json(&parallel));
}

/// The engine runs every cell live: a sharing run captures no trace,
/// so no `trace_cache.*` counter is published and the resident-bytes
/// gauge stays at 0.
#[test]
fn sharing_runs_capture_no_traces() {
    let run = Engine::new(2).quiet().run("identity", matrix().cells());
    assert!(run.all_ok());
    let snapshot = tea_obs::metrics::global().snapshot();
    for (name, value) in snapshot.metrics() {
        if !name.starts_with("trace_cache.") {
            continue;
        }
        assert!(
            matches!(value, MetricValue::Gauge(0)),
            "{name} = {value:?}: the engine must not capture traces"
        );
    }
}
