//! The untraced run: the end-to-end metrics of one workload.

use std::time::{Duration, Instant};

use tea_core::pics::Granularity;
use tea_core::schemes::Scheme;
use tea_exp::{CellSpec, Engine, RunResult};

use crate::check::Expected;
use crate::metrics::median;
use crate::workload::{set_up, Setup, Workload, INTERVAL, SUITE_SEED};
use crate::Outcome;

/// Timed set-ups before each pass and after the last, following one
/// untimed warm-up. A set-up takes milliseconds and its time drifts
/// with the host's memory load, so `setup_s` is the median of batches
/// spread over the whole run rather than one sample or one burst.
const SETUP_BATCH: usize = 15;

/// The name of the recorded cell set sim-only's accuracy pass checks.
pub const ACCURACY_SET: &str = "sim-only.accuracy";

/// Runs `workload` for about `seconds` seconds with tracing off and
/// reports every end-to-end metric.
///
/// `wall_s` is the median over passes of the time spent in
/// `Engine::run` for all of the workload's cells; passes repeat while
/// another one fits in `seconds` (there is always at least one).
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: u64, expected: &Expected) -> Outcome {
    let mut out = Outcome::default();
    drop(set_up(workload, seed));
    let mut setup_secs = Vec::new();
    let mut setup = timed_setups(workload, seed, &mut setup_secs);

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut cycles: u64;
    let mut tea_error = None;
    let mut peak_rss_mb = None;
    loop {
        let cells = std::mem::take(&mut setup.cells);
        let t0 = Instant::now();
        let run = setup.engine.run(workload.name(), cells);
        walls.push(t0.elapsed().as_secs_f64());
        out.attempted += run.cells.len() as u64;
        out.failures.extend(expected.check(workload.name(), &run));
        cycles = run.ok_cells().map(|c| c.stats.cycles).sum();
        if workload.profiled() {
            tea_error = mean_tea_error_pct(&run);
        }
        drop(run);
        // Read after the first pass, before later set-ups and passes
        // reuse a heap the first one fragmented.
        peak_rss_mb.get_or_insert_with(peak_rss_mb_now);
        drop(setup);
        setup = timed_setups(workload, seed, &mut setup_secs);
        let typical = Duration::from_secs_f64(median(&walls));
        if start.elapsed() + typical > budget {
            break;
        }
    }
    if !workload.profiled() {
        // sim-only runs no observers; its accuracy figure comes from an
        // untimed pass over the same kernels with golden and TEA attached,
        // taken after the workload's own peak memory has been read.
        let run = accuracy_pass(&setup.kernels);
        out.attempted += run.cells.len() as u64;
        out.failures.extend(expected.check(ACCURACY_SET, &run));
        tea_error = mean_tea_error_pct(&run);
    }

    eprintln!(
        "teabench: {} passes of {}: {:?} s",
        walls.len(),
        workload.name(),
        walls
    );
    let wall_s = median(&walls);
    let r = &mut out.report;
    r.end_to_end("wall_s", wall_s);
    r.end_to_end("cycles_per_s", cycles as f64 / wall_s);
    r.end_to_end("setup_s", median(&setup_secs));
    match peak_rss_mb.expect("at least one pass") {
        Ok(mb) => r.end_to_end("peak_rss_mb", mb),
        Err(e) => out.failures.push(e),
    }
    match tea_error {
        Some(pct) => r.end_to_end("tea_error_pct", pct),
        None => out
            .failures
            .push("no TEA error: no cell completed".to_string()),
    }
    out
}

/// [`SETUP_BATCH`] timed set-ups, each dropped before the next starts;
/// returns the last.
fn timed_setups(workload: Workload, seed: u64, secs: &mut Vec<f64>) -> Setup {
    let mut last = None;
    for _ in 0..SETUP_BATCH {
        drop(last.take());
        let (s, t) = set_up(workload, seed);
        secs.push(t);
        last = Some(s);
    }
    last.expect("a batch holds at least one set-up")
}

/// The 18 kernels with golden and TEA attached, trace cache off: the
/// cells sim-only's `tea_error_pct` is taken from.
#[must_use]
pub fn accuracy_pass(kernels: &[tea_workloads::Workload]) -> RunResult {
    let cells = kernels
        .iter()
        .map(|k| {
            CellSpec::for_workload(k)
                .interval(INTERVAL)
                .seed(SUITE_SEED)
                .schemes(&[Scheme::Tea])
        })
        .collect();
    Engine::new(1)
        .quiet()
        .trace_cache(false)
        .run(ACCURACY_SET, cells)
}

/// Mean over completed cells of TEA's instruction-level error against
/// golden, in percent; `None` when no cell carries one.
#[must_use]
pub fn mean_tea_error_pct(run: &RunResult) -> Option<f64> {
    let mut errors: Vec<f64> = run
        .ok_cells()
        .filter_map(|c| c.error(Scheme::Tea, Granularity::Instruction))
        .collect();
    // Sum in a fixed order, so the figure is exact whatever order the
    // seed ran the cells in.
    errors.sort_by(f64::total_cmp);
    if errors.is_empty() {
        return None;
    }
    Some(errors.iter().sum::<f64>() / errors.len() as f64 * 100.0)
}

/// The process's peak resident set (`VmHWM`) in MiB. Each run measures
/// one workload in its own process, so the peak is that workload's.
///
/// # Errors
///
/// A message when `/proc/self/status` cannot be read or parsed.
pub fn peak_rss_mb_now() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}
