//! The chaos harness's terminal guarantee: every seeded chaos run
//! terminates with a valid, parseable `tea-experiment/v2` artifact
//! whose per-cell statuses accurately reflect what was injected — no
//! wedged engine, no torn artifact, no silently-wrong cell.
//!
//! The tests *recompute* the injector's decisions (it is a pure
//! function of the seed) to predict each cell's status, then assert
//! the run matches the prediction.

use std::sync::Arc;
use std::time::Duration;

use tea_exp::artifact::read_artifact;
use tea_exp::{CellSpec, CellStatus, ChaosInjector, Engine};
use tea_workloads::{lbm, xz, Size};

/// The matrix every chaos test runs: two workloads, two seeds each, so
/// one golden reference per workload is shared by a sibling.
fn matrix() -> Vec<CellSpec> {
    vec![
        CellSpec::for_workload(&lbm::workload(Size::Test)).seed(11),
        CellSpec::for_workload(&lbm::workload(Size::Test)).seed(29),
        CellSpec::for_workload(&xz::workload(Size::Test)).seed(11),
        CellSpec::for_workload(&xz::workload(Size::Test)).seed(29),
    ]
}

/// An engine that retries without sleeping.
fn eager(threads: usize) -> Engine {
    Engine::new(threads)
        .quiet()
        .backoff(Duration::ZERO, Duration::ZERO)
        .max_retries(1)
}

#[test]
fn chaos_runs_terminate_with_accurate_statuses_and_valid_artifacts() {
    // A chaos-free control: per-cell cycle counts, used to decide
    // whether an injected observer fault's cycle is even reachable.
    let control = eager(2).run("chaos-control", matrix());
    assert!(control.all_ok(), "the control run must be clean");
    let cycles: Vec<u64> = control
        .cells
        .iter()
        .map(|c| c.result().expect("ok cell").stats.cycles)
        .collect();

    for seed in [1u64, 2, 3, 7, 13] {
        let injector = ChaosInjector::new(seed);
        let run = eager(2).chaos_seed(seed).run("chaos-suite", matrix());

        // Predict each cell's status from the injector's decisions:
        // only a *persistent* observer fault whose cycle the cell
        // actually reaches survives the retry; a transient panic must
        // degrade gracefully to an ok cell.
        for (i, cell) in run.cells.iter().enumerate() {
            let fault = injector.observer_fault(i);
            let expect_failed = fault.is_some_and(|f| f.persistent && f.cycle < cycles[i]);
            let expected = if expect_failed {
                CellStatus::Failed
            } else {
                CellStatus::Ok
            };
            assert_eq!(
                cell.status, expected,
                "seed {seed} cell {i}: fault {fault:?}, control cycles {}",
                cycles[i]
            );
        }

        // The artifact renders, parses, and reports the same statuses.
        let summary = read_artifact(&run.to_json().render_pretty())
            .expect("every chaos run must leave a readable artifact");
        assert_eq!(summary.schema, "tea-experiment/v2");
        assert_eq!(summary.cells.len(), run.cells.len());
        for (cell, read_back) in run.cells.iter().zip(&summary.cells) {
            assert_eq!(cell.status, read_back.status);
        }
    }
}

#[test]
fn torn_journal_lines_are_skipped_and_resume_merges_bit_identical() {
    // A seed that tears at least one cell's journal record but injects
    // no observer faults: a retried cell would restore with its real
    // `attempts: 2`, which is correct but not bit-identical to an
    // uninterrupted clean run — this test isolates the tear seam.
    let seed = (1..200u64)
        .find(|&s| {
            let c = ChaosInjector::new(s);
            (0..4).any(|i| c.tear_journal(i)) && (0..4).all(|i| c.observer_fault(i).is_none())
        })
        .expect("some small seed tears a journal line without observer faults");
    let injector = ChaosInjector::new(seed);
    let torn: Vec<usize> = (0..4).filter(|&i| injector.tear_journal(i)).collect();

    // Same run name (deterministic_json carries it), but unjournaled
    // so the baseline never touches the journal under test.
    let clean = eager(2).run("chaos-journal", matrix());
    assert!(clean.all_ok());

    let chaotic = eager(2)
        .chaos_seed(seed)
        .run_journaled("chaos-journal", matrix())
        .expect("journal creates");
    // The torn cells' outcomes are intact in-process; only their
    // journal lines are wreckage.
    drop(chaotic);

    // Resume chaos-free: torn (and failed) cells re-run, intact `ok`
    // entries restore verbatim, and the merged artifact is
    // bit-identical to an uninterrupted clean run.
    let resumed = eager(2)
        .resume("chaos-journal", matrix())
        .expect("journal reopens");
    assert!(resumed.all_ok(), "torn cells {torn:?} must re-run cleanly");
    assert_eq!(
        resumed.deterministic_json().render_pretty(),
        clean.deterministic_json().render_pretty(),
    );
    // At least one cell actually exercised the tear: it cannot have
    // been restored from the journal (its line was wreckage), so it
    // re-ran fresh.
    for &i in &torn {
        if resumed.cells[i].status == CellStatus::Ok {
            assert!(
                resumed.cells[i].result().is_some() || resumed.cells[i].attempts > 0,
                "torn cell {i} must have re-run, not restored"
            );
        }
    }
}

#[test]
fn failed_first_artifact_write_retries_and_lands_a_valid_file() {
    // A seed whose artifact seam fails the first write attempt.
    let seed = (1..64u64)
        .find(|&s| ChaosInjector::new(s).fail_artifact_write(0))
        .expect("half of all seeds fail the first write");
    let injector = Arc::new(ChaosInjector::new(seed));

    let run = eager(1).run(
        "chaos-artifact-write",
        vec![CellSpec::for_workload(&lbm::workload(Size::Test))],
    );
    let path = run
        .write_artifact_with(Some(&injector))
        .expect("the retry must land the artifact");
    let text = std::fs::read_to_string(&path).expect("artifact exists");
    let summary = read_artifact(&text).expect("artifact is whole, not torn");
    assert!(summary.all_ok());

    // No torn temp wreckage left beside it.
    let dir = path.parent().expect("artifact has a directory");
    let leftovers: Vec<String> = std::fs::read_dir(dir)
        .expect("results dir lists")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains("chaos-artifact-write") && n.contains(".tmp."))
        .collect();
    assert!(
        leftovers.is_empty(),
        "torn temp files left behind: {leftovers:?}"
    );
}
