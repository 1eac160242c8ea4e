//! `tea-cli` — run the TEA reproduction from the command line.
//!
//! ```text
//! tea-cli list
//! tea-cli simulate <workload> [--size test|ref]
//! tea-cli profile <workload> [--size test|ref] [--interval N] [--top N]
//! tea-cli compare <workload> [--size test|ref] [--interval N]
//! tea-cli suite [workload...] [--size test|ref] [--interval N] [--threads N] [--json out.json]
//!               [--det-json out.json] [--resume] [--max-retries N] [--cell-timeout CYCLES] [--fail-fast]
//!               [--inject-panic <workload>] [--inject-diverge <workload>]
//!               [--chaos-seed N] [--no-fast-forward]
//! tea-cli bench [workload...] [--size test|ref] [--interval N] [--iters N] [--json out.json]
//!               [--set-baseline] [--no-fast-forward]
//! tea-cli disasm <workload> [--lines N]
//! tea-cli record <workload> <out.teas> [--size test|ref] [--interval N]
//! tea-cli report <in.teas> <workload> [--top N]
//! tea-cli casestudy <lbm|nab> [--size test|ref]
//! tea-cli functions <workload> [--size test|ref] [--top N]
//! ```
//!
//! Observability flags, valid on every command:
//! `--log-level trace|debug|info|warn|error|off` tunes the stderr log
//! (default `info`: `suite` prints a live per-cell start/finish line);
//! `--trace-out FILE` writes a Chrome trace-event JSON (load it at
//! <https://ui.perfetto.dev>) with one lane per engine worker;
//! `--metrics-out FILE` writes the `tea-metrics/v1` counters artifact.
//!
//! Flight-recorder flags (also any command): `--series-out FILE`
//! writes the `tea-metrics-series/v1` JSON-lines time series sampled
//! every `--series-interval-ms` (ring bounded by `--series-capacity`);
//! `--profile-out FILE` writes sampled span stacks in collapsed/
//! inferno format; `--report-out FILE` writes a self-contained HTML
//! run report; `suite --progress-stream <path|->` streams
//! `tea-progress/v1` cell lifecycle events and heartbeats as JSON
//! lines. `tea-cli report <run.json> --report-out FILE` renders the
//! HTML report from a previously saved experiment artifact.

use std::process::ExitCode;
use std::sync::Arc;

use tea_core::diff::{diff_pics, render_diff};
use tea_core::golden::GoldenReference;
use tea_core::pics::{Granularity, UnitMap};
use tea_core::pics_error;
use tea_core::render::{render_cpi_stack, render_functions, render_top_instructions};
use tea_core::samples::{pics_from_samples, read_samples, write_samples, SampleRecorder};
use tea_core::sampling::SampleTimer;
use tea_core::schemes::Scheme;
use tea_core::tea::TeaProfiler;
use tea_exp::json::Json;
use tea_exp::{CellSpec, CellStatus, Engine, Fault, ProgressRecorder, ProgressStream};
use tea_obs::chrome::ChromeTraceSink;
use tea_obs::report::{Chart, Lane, Report, Slice};
use tea_obs::series::{Sampler, SamplerConfig, SeriesData};
use tea_sim::core::Core;
use tea_sim::psv::CommitState;
use tea_sim::SimConfig;
use tea_workloads::{all_workloads, Size, Workload};

struct Args {
    positional: Vec<String>,
    size: Size,
    interval: u64,
    top: usize,
    lines: usize,
    threads: usize,
    json: Option<String>,
    det_json: Option<String>,
    chaos_seed: Option<u64>,
    resume: bool,
    max_retries: u32,
    cell_timeout: Option<u64>,
    fail_fast: bool,
    inject_panic: Option<String>,
    inject_diverge: Option<String>,
    iters: u32,
    set_baseline: bool,
    no_fast_forward: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    log_level: Option<String>,
    series_out: Option<String>,
    series_interval_ms: u64,
    series_capacity: usize,
    profile_out: Option<String>,
    progress_stream: Option<String>,
    report_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        size: Size::Test,
        interval: 512,
        top: 5,
        lines: 40,
        threads: 0,
        json: None,
        det_json: None,
        chaos_seed: None,
        resume: false,
        max_retries: 1,
        cell_timeout: None,
        fail_fast: false,
        inject_panic: None,
        inject_diverge: None,
        iters: 3,
        set_baseline: false,
        no_fast_forward: false,
        trace_out: None,
        metrics_out: None,
        log_level: None,
        series_out: None,
        series_interval_ms: tea_obs::series::DEFAULT_INTERVAL_MS,
        series_capacity: tea_obs::series::DEFAULT_CAPACITY,
        profile_out: None,
        progress_stream: None,
        report_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut grab = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--size" => {
                args.size = match grab("--size")?.as_str() {
                    "test" => Size::Test,
                    "ref" => Size::Ref,
                    other => return Err(format!("unknown size {other}")),
                }
            }
            "--interval" => {
                // A sampling timer needs a nonzero period.
                args.interval = grab("--interval")?
                    .parse::<std::num::NonZeroU64>()
                    .map_err(|e| format!("bad interval: {e}"))?
                    .get()
            }
            "--top" => {
                args.top = grab("--top")?
                    .parse()
                    .map_err(|e| format!("bad top: {e}"))?
            }
            "--lines" => {
                args.lines = grab("--lines")?
                    .parse()
                    .map_err(|e| format!("bad lines: {e}"))?
            }
            "--threads" => {
                args.threads = grab("--threads")?
                    .parse()
                    .map_err(|e| format!("bad threads: {e}"))?
            }
            "--json" => args.json = Some(grab("--json")?),
            "--det-json" => args.det_json = Some(grab("--det-json")?),
            "--chaos-seed" => {
                args.chaos_seed = Some(
                    grab("--chaos-seed")?
                        .parse()
                        .map_err(|e| format!("bad chaos-seed: {e}"))?,
                )
            }
            "--resume" => args.resume = true,
            "--max-retries" => {
                args.max_retries = grab("--max-retries")?
                    .parse()
                    .map_err(|e| format!("bad max-retries: {e}"))?
            }
            "--cell-timeout" => {
                args.cell_timeout = Some(
                    grab("--cell-timeout")?
                        .parse()
                        .map_err(|e| format!("bad cell-timeout: {e}"))?,
                )
            }
            "--fail-fast" => args.fail_fast = true,
            "--iters" => {
                args.iters = grab("--iters")?
                    .parse()
                    .map_err(|e| format!("bad iters: {e}"))?
            }
            "--set-baseline" => args.set_baseline = true,
            "--no-fast-forward" => args.no_fast_forward = true,
            "--trace-out" => args.trace_out = Some(grab("--trace-out")?),
            "--metrics-out" => args.metrics_out = Some(grab("--metrics-out")?),
            "--log-level" => args.log_level = Some(grab("--log-level")?),
            "--series-out" => args.series_out = Some(grab("--series-out")?),
            "--series-interval-ms" => {
                args.series_interval_ms = grab("--series-interval-ms")?
                    .parse()
                    .map_err(|e| format!("bad series-interval-ms: {e}"))?
            }
            "--series-capacity" => {
                args.series_capacity = grab("--series-capacity")?
                    .parse()
                    .map_err(|e| format!("bad series-capacity: {e}"))?
            }
            "--profile-out" => args.profile_out = Some(grab("--profile-out")?),
            "--progress-stream" => args.progress_stream = Some(grab("--progress-stream")?),
            "--report-out" => args.report_out = Some(grab("--report-out")?),
            "--inject-panic" => args.inject_panic = Some(grab("--inject-panic")?),
            "--inject-diverge" => args.inject_diverge = Some(grab("--inject-diverge")?),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => args.positional.push(other.to_string()),
        }
    }
    Ok(args)
}

/// The core configuration the CLI's commands run under:
/// [`SimConfig::default`] with stall fast-forward switched off when
/// `--no-fast-forward` was given. The two settings produce bit-identical
/// artifacts (CI's fast-forward-identity job holds them to that);
/// disabling exists for cross-checks and debugging.
fn sim_config(args: &Args) -> SimConfig {
    SimConfig {
        fast_forward: !args.no_fast_forward,
        ..SimConfig::default()
    }
}

fn find_workload(name: &str, size: Size) -> Result<Workload, String> {
    all_workloads(size)
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}; run `tea-cli list`"))
}

fn cmd_list() {
    println!("{:<12} description", "workload");
    for w in all_workloads(Size::Test) {
        println!("{:<12} {}", w.name, w.description);
    }
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .get(1)
        .ok_or("simulate needs a workload name")?;
    let w = find_workload(name, args.size)?;
    let stats = Core::new(&w.program, sim_config(args)).run(&mut []);
    println!(
        "{}: {} instructions, {} cycles, IPC {:.3}",
        w.name,
        stats.retired,
        stats.cycles,
        stats.ipc()
    );
    for state in CommitState::ALL {
        println!(
            "  {:<8} {:>10} cycles ({:>5.1}%)",
            state.name(),
            stats.cycles_in(state),
            stats.cycles_in(state) as f64 / stats.cycles as f64 * 100.0
        );
    }
    println!(
        "  mispredicts {} | commit flushes {} | MO violations {} | L1D misses {} | LLC misses {}",
        stats.branch.mispredicted,
        stats.commit_flushes,
        stats.mo_violations,
        stats.hier.l1d_misses,
        stats.hier.llc_misses
    );
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .get(1)
        .ok_or("profile needs a workload name")?;
    let w = find_workload(name, args.size)?;
    let mut tea = TeaProfiler::new(SampleTimer::with_jitter(
        args.interval,
        args.interval / 8,
        42,
    ));
    let mut golden = GoldenReference::new();
    let stats = Core::new(&w.program, sim_config(args)).run(&mut [&mut tea, &mut golden]);
    println!(
        "{}: {} cycles, {} TEA samples (interval {})\n",
        w.name,
        stats.cycles,
        tea.samples(),
        args.interval
    );
    let scaled = tea.pics().scaled_to(golden.pics().total());
    println!("TEA PICS, top {} instructions:", args.top);
    print!("{}", render_top_instructions(&scaled, &w.program, args.top));
    let units = UnitMap::new(&w.program, Granularity::Instruction);
    println!(
        "error vs golden reference: {:.2}%",
        pics_error(tea.pics(), golden.pics(), Scheme::Tea.event_set(), &units) * 100.0
    );
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .get(1)
        .ok_or("compare needs a workload name")?;
    let w = find_workload(name, args.size)?;
    let schemes = [
        Scheme::Tea,
        Scheme::NciTea,
        Scheme::Ibs,
        Scheme::Spe,
        Scheme::Ris,
    ];
    let spec = CellSpec::for_workload(&w)
        .interval(args.interval)
        .config("default", sim_config(args))
        .schemes(&schemes);
    let run = Engine::serial().quiet().run("compare", vec![spec]);
    let cell = run.cells[0]
        .result()
        .ok_or_else(|| format!("{name} did not complete: {}", describe_error(&run.cells[0])))?;
    println!("{}: PICS error vs golden (instruction granularity)", w.name);
    for scheme in schemes {
        let e = cell
            .error(scheme, Granularity::Instruction)
            .expect("golden attached");
        println!("  {:<8} {:>6.1}%", scheme.name(), e * 100.0);
    }
    Ok(())
}

/// One line describing why a cell did not complete.
fn describe_error(cell: &tea_exp::CellOutcome) -> String {
    cell.error()
        .map_or_else(|| "unknown error".to_string(), ToString::to_string)
}

/// Runs a workload set through the experiment engine in parallel and
/// prints the Figure 5-style error matrix plus run timing; `--json`
/// writes the `tea-experiment/v2` artifact to an explicit path.
///
/// Cells run under panic isolation with retry (`--max-retries`, one by
/// default) and an optional cycle budget (`--cell-timeout`); each run journals
/// to `target/experiments/suite.journal.jsonl`, and `--resume` re-runs
/// only the cells the journal does not already hold as `ok`. The
/// `--inject-*` flags deliberately break one cell (for exercising the
/// fault-tolerance path end to end). Exits non-zero if any cell does
/// not complete.
///
/// `--chaos-seed N` arms deterministic chaos injection (observer
/// panics, torn journal lines, a failed first artifact write) across
/// the run — see EXPERIMENTS.md for the chaos-suite procedure.
fn cmd_suite(args: &Args, capture: &mut RunCapture) -> Result<(), String> {
    let selected: Vec<String> = args.positional[1..].to_vec();
    let mut workloads = all_workloads(args.size);
    if !selected.is_empty() {
        workloads.retain(|w| selected.iter().any(|s| s == w.name));
        if workloads.len() != selected.len() {
            return Err("unknown workload in selection; run `tea-cli list`".to_string());
        }
    }
    let mut engine = if args.threads == 0 {
        Engine::from_env()
    } else {
        Engine::new(args.threads)
    };
    engine = engine.max_retries(args.max_retries);
    if let Some(budget) = args.cell_timeout {
        engine = engine.cell_budget(budget);
    }
    if let Some(path) = &args.progress_stream {
        let stream = if path == "-" {
            ProgressStream::stdout()
        } else {
            ProgressStream::create(path).map_err(|e| format!("create {path}: {e}"))?
        };
        engine = engine.progress_sink(Arc::new(stream));
    }
    if args.report_out.is_some() {
        // The recorder feeds the HTML report's per-worker timeline;
        // main reads it back out of `capture` after the run.
        let recorder = Arc::new(ProgressRecorder::new());
        engine = engine.progress_sink(Arc::clone(&recorder) as _);
        capture.recorder = Some(recorder);
    }
    // One injector shared between the engine seams and the artifact
    // write below, so every decision derives from the one seed.
    let chaos = args
        .chaos_seed
        .map(|seed| Arc::new(tea_exp::ChaosInjector::new(seed)));
    if let Some(c) = &chaos {
        engine = engine.chaos(Arc::clone(c));
    }
    if args.fail_fast {
        engine = engine.fail_fast();
    }
    if let Some(name) = &args.inject_diverge {
        if args.cell_timeout.is_none() {
            return Err("--inject-diverge needs --cell-timeout (the cell never halts)".to_string());
        }
        if !workloads.iter().any(|w| w.name == name.as_str()) {
            return Err(format!("--inject-diverge: unknown workload {name}"));
        }
    }
    if let Some(name) = &args.inject_panic {
        if !workloads.iter().any(|w| w.name == name.as_str()) {
            return Err(format!("--inject-panic: unknown workload {name}"));
        }
    }
    let cells = workloads
        .iter()
        .map(|w| {
            let mut spec = if args.inject_diverge.as_deref() == Some(w.name) {
                // Swap in the diverging kernel under the workload's
                // name: the cell burns its whole cycle budget and times
                // out.
                CellSpec::new(
                    w.name,
                    tea_workloads::faulty::program(
                        args.size,
                        tea_workloads::faulty::FaultMode::Diverge,
                    ),
                )
            } else {
                CellSpec::for_workload(w)
            };
            spec = spec
                .interval(args.interval)
                .config("default", sim_config(args));
            if args.inject_panic.as_deref() == Some(w.name) {
                spec = spec.fault(Fault::PanicUntilAttempt(u32::MAX));
            }
            spec
        })
        .collect();
    let run = if args.resume {
        engine.resume("suite", cells)
    } else {
        engine.run_journaled("suite", cells)
    }
    .map_err(|e| format!("suite journal: {e}"))?;

    let schemes = [
        Scheme::Ibs,
        Scheme::Spe,
        Scheme::Ris,
        Scheme::NciTea,
        Scheme::Tea,
    ];
    println!(
        "{:<12} {:<9} {:>7} {:>7} {:>7} {:>7} {:>7}   {:>9} {:>7}",
        "benchmark", "status", "IBS", "SPE", "RIS", "NCI-TEA", "TEA", "cycles", "wall(s)"
    );
    for cell in &run.cells {
        match cell.result() {
            Some(r) => {
                let e = |s| {
                    r.error(s, Granularity::Instruction)
                        .expect("golden attached")
                        * 100.0
                };
                println!(
                    "{:<12} {:<9} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1}   {:>9} {:>7.2}",
                    r.spec.workload,
                    cell.status.name(),
                    e(schemes[0]),
                    e(schemes[1]),
                    e(schemes[2]),
                    e(schemes[3]),
                    e(schemes[4]),
                    r.stats.cycles,
                    cell.wall.as_secs_f64()
                );
            }
            None if cell.is_ok() => println!(
                "{:<12} {:<9} (restored from journal, {} instructions)",
                cell.spec.workload,
                cell.status.name(),
                cell.instructions(),
            ),
            None => println!(
                "{:<12} {:<9} attempts {}: {}",
                cell.spec.workload,
                cell.status.name(),
                cell.attempts,
                describe_error(cell),
            ),
        }
    }
    let retried = run.cells.iter().filter(|c| c.attempts > 1).count();
    println!(
        "{} cells ({} ok, {} retried, {} failed, {} timed out, {} skipped) on {} threads \
         in {:.2}s ({:.2} Msim-inst/s aggregate)",
        run.cells.len(),
        run.count(CellStatus::Ok),
        retried,
        run.count(CellStatus::Failed),
        run.count(CellStatus::TimedOut),
        run.count(CellStatus::Skipped),
        run.threads,
        run.wall.as_secs_f64(),
        run.sim_mips()
    );
    capture.summary = vec![
        ("run".to_string(), "suite".to_string()),
        ("cells".to_string(), run.cells.len().to_string()),
        ("ok".to_string(), run.count(CellStatus::Ok).to_string()),
        (
            "failed".to_string(),
            run.count(CellStatus::Failed).to_string(),
        ),
        (
            "timed out".to_string(),
            run.count(CellStatus::TimedOut).to_string(),
        ),
        (
            "skipped".to_string(),
            run.count(CellStatus::Skipped).to_string(),
        ),
        ("retried".to_string(), retried.to_string()),
        ("threads".to_string(), run.threads.to_string()),
        (
            "wall".to_string(),
            format!("{:.2}s", run.wall.as_secs_f64()),
        ),
        (
            "throughput".to_string(),
            format!("{:.2} Msim-inst/s", run.sim_mips()),
        ),
    ];
    if let Some(path) = &args.det_json {
        // The deterministic projection (wall-clock fields stripped):
        // byte-for-byte comparable across thread counts, resumes, and
        // fast-forward settings. CI's identity jobs diff two of these.
        std::fs::write(path, run.deterministic_json().render_pretty())
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("deterministic artifact: {path}");
    }
    if let Some(path) = &args.json {
        std::fs::write(path, run.to_json().render_pretty())
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("results artifact: {path}");
    } else {
        match run.write_artifact_with(chaos.as_deref()) {
            Ok(path) => println!("results artifact: {}", path.display()),
            Err(e) => eprintln!("could not write results artifact: {e}"),
        }
    }
    if !run.all_ok() {
        let n = run.cells.len() as u64 - run.count(CellStatus::Ok);
        return Err(format!(
            "{n} cell(s) did not complete; re-run with `suite --resume` after fixing"
        ));
    }
    Ok(())
}

/// Measures simulator throughput (bare and under the full profiler
/// set) over a workload selection and updates the tracked
/// `BENCH_sim_throughput.json` artifact at the workspace root. The
/// artifact's `before` baseline is preserved across reruns so the
/// release-to-release speedup stays visible; `--set-baseline` resets it
/// to the current measurement.
fn cmd_bench(args: &Args) -> Result<(), String> {
    use tea_bench::throughput::{existing_baseline, measure_suite, render_artifact};

    let selected: Vec<String> = args.positional[1..].to_vec();
    let mut workloads = all_workloads(args.size);
    if !selected.is_empty() {
        workloads.retain(|w| selected.iter().any(|s| s == w.name));
        if workloads.len() != selected.len() {
            return Err("unknown workload in selection; run `tea-cli list`".to_string());
        }
    }
    let size_name = match args.size {
        Size::Test => "test",
        Size::Ref => "ref",
    };
    eprintln!(
        "benchmarking {} workloads at size {size_name}, interval {}, best of {} runs...",
        workloads.len(),
        args.interval,
        args.iters
    );
    let report = measure_suite(
        &workloads,
        size_name,
        args.interval,
        args.iters,
        &sim_config(args),
    );
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>10} {:>16} {:>16} {:>14} {:>14}",
        "workload",
        "cycles",
        "active",
        "skipped",
        "samples",
        "sim cyc/s",
        "profiled cyc/s",
        "replay cyc/s",
        "samples/s"
    );
    for w in &report.workloads {
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>10} {:>16.0} {:>16.0} {:>14.0} {:>14.0}",
            w.name,
            w.cycles,
            w.active_cycles,
            w.skipped_cycles,
            w.samples,
            w.sim_cycles_per_second(),
            w.profiled_cycles_per_second(),
            w.replay_cycles_per_second(),
            w.samples_per_second()
        );
    }
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>10} {:>16.0} {:>16.0} {:>14.0} {:>14.0}",
        "total",
        report.total_cycles(),
        report.total_active_cycles(),
        report.total_skipped_cycles(),
        report.total_samples(),
        report.sim_cycles_per_second(),
        report.profiled_cycles_per_second(),
        report.replay_cycles_per_second(),
        report.samples_per_second()
    );
    println!(
        "\n{:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "phase walls", "sim(s)", "profiled", "golden", "capture", "decode", "replay"
    );
    for w in &report.workloads {
        println!(
            "{:<12} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            w.name,
            w.sim_wall,
            w.profiled_wall,
            w.golden_wall,
            w.capture_wall,
            w.decode_wall,
            w.replay_wall
        );
    }
    let path = args.json.clone().unwrap_or_else(|| {
        tea_exp::workspace_root()
            .join("BENCH_sim_throughput.json")
            .to_string_lossy()
            .into_owned()
    });
    let baseline = if args.set_baseline {
        None
    } else {
        std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| existing_baseline(&text))
    };
    let doc = render_artifact(&report, baseline);
    if let Some(v) = doc
        .get("speedup")
        .and_then(|s| s.get("profiled_cycles_per_second"))
        .and_then(tea_exp::json::Json::as_f64)
    {
        println!("speedup vs baseline (profiled cycles/s): {v:.2}x");
    }
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("write {path}: {e}"))?;
    println!("throughput artifact: {path}");
    Ok(())
}

/// Measures every functional-unit latency and initiation interval with
/// dependent/independent instruction chains and compares them against
/// the pinned Table 2 configuration. Exits non-zero on any drift so CI
/// catches a silently changed latency table or issue-path regression.
fn cmd_calibrate(args: &Args) -> Result<(), String> {
    let report = tea_bench::calibration::calibrate();
    print!("{}", report.render_table());
    if let Some(path) = &args.json {
        std::fs::write(path, report.to_json().render_pretty())
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("calibration artifact: {path}");
    }
    if report.passed() {
        println!("calibration ok: every unit matches the pinned latency table");
        Ok(())
    } else {
        Err("latency calibration drift detected; see table above".to_string())
    }
}

fn cmd_record(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .get(1)
        .ok_or("record needs a workload name")?;
    let path = args
        .positional
        .get(2)
        .ok_or("record needs an output path")?;
    let w = find_workload(name, args.size)?;
    let mut recorder = SampleRecorder::new(
        SampleTimer::with_jitter(args.interval, args.interval / 8, 42),
        std::process::id(),
    );
    let stats = Core::new(&w.program, sim_config(args)).run(&mut [&mut recorder]);
    let mut file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    write_samples(&mut file, recorder.samples()).map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "recorded {} samples over {} cycles of {} into {path}",
        recorder.samples().len(),
        stats.cycles,
        w.name
    );
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("report needs a sample file (.teas) or experiment artifact (.json)")?;
    if !path.ends_with(".teas") {
        return cmd_report_html(args, path);
    }
    let name = args
        .positional
        .get(2)
        .ok_or("report needs the workload name")?;
    let w = find_workload(name, args.size)?;
    let mut file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let samples = read_samples(&mut file).map_err(|e| format!("read {path}: {e}"))?;
    let pics = pics_from_samples(&samples, None);
    println!(
        "{}: {} samples -> PICS, top {} instructions:",
        w.name,
        samples.len(),
        args.top
    );
    print!("{}", render_top_instructions(&pics, &w.program, args.top));
    Ok(())
}

/// Renders the self-contained HTML run report from a saved
/// `tea-experiment` artifact (the `suite --json` output). Cells become
/// one timeline lane laid end to end by their recorded wall time, and
/// per-cell cycles/IPC become charts. Output goes to `--report-out`,
/// defaulting to the input path with an `.html` extension.
fn cmd_report_html(args: &Args, path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = tea_exp::json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if !schema.starts_with("tea-experiment/") {
        return Err(format!(
            "{path}: schema {schema:?} is not a tea-experiment artifact; \
             pass a suite --json artifact or a .teas sample file"
        ));
    }
    let name = doc.get("name").and_then(Json::as_str).unwrap_or("run");
    let mut report = Report {
        title: format!("TEA run report — {name}"),
        ..Report::default()
    };
    for key in [
        "cells_total",
        "cells_ok",
        "cells_failed",
        "cells_timed_out",
        "cells_skipped",
        "threads",
    ] {
        if let Some(v) = doc.get(key).and_then(Json::as_u64) {
            report.summary.push((key.replace('_', " "), v.to_string()));
        }
    }
    if let Some(v) = doc.get("wall_seconds").and_then(Json::as_f64) {
        report
            .summary
            .push(("wall".to_string(), format!("{v:.2}s")));
    }
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: artifact has no cells array"))?;
    let mut lane = Lane {
        name: "cells (artifact order)".to_string(),
        slices: Vec::new(),
    };
    let mut cycles = Chart {
        name: "cycles per cell".to_string(),
        points: Vec::new(),
    };
    let mut ipc = Chart {
        name: "ipc per cell".to_string(),
        points: Vec::new(),
    };
    let mut clock_ns = 0u64;
    for (i, cell) in cells.iter().enumerate() {
        let workload = cell.get("workload").and_then(Json::as_str).unwrap_or("?");
        let status = cell.get("status").and_then(Json::as_str).unwrap_or("ok");
        let wall_ns = cell
            .get("wall_seconds")
            .and_then(Json::as_f64)
            .map_or(1, |s| (s * 1e9).max(1.0) as u64);
        lane.slices.push(Slice {
            label: workload.to_string(),
            start_ns: clock_ns,
            end_ns: clock_ns + wall_ns,
            status: status.to_string(),
        });
        clock_ns += wall_ns;
        if let Some(c) = cell.get("cycles").and_then(Json::as_f64) {
            cycles.points.push((i as u64, c));
        }
        if let Some(v) = cell.get("ipc").and_then(Json::as_f64) {
            ipc.points.push((i as u64, v));
        }
    }
    report.lanes.push(lane);
    for chart in [cycles, ipc] {
        if chart.points.len() >= 2 {
            report.charts.push(chart);
        }
    }
    let out = args
        .report_out
        .clone()
        .unwrap_or_else(|| format!("{}.html", path.trim_end_matches(".json")));
    report
        .write_to(&out)
        .map_err(|e| format!("write {out}: {e}"))?;
    println!("html report: {out}");
    Ok(())
}

fn golden_pics(program: &tea_isa::Program) -> tea_core::pics::Pics {
    let mut golden = GoldenReference::new();
    Core::new(program, SimConfig::default()).run(&mut [&mut golden]);
    golden.into_pics()
}

fn cmd_functions(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .get(1)
        .ok_or("functions needs a workload name")?;
    let w = find_workload(name, args.size)?;
    let pics = golden_pics(&w.program);
    println!("{}: time by function (exact golden reference)", w.name);
    print!("{}", render_functions(&pics, &w.program, args.top));
    Ok(())
}

fn cmd_cpi(args: &Args) -> Result<(), String> {
    let name = args.positional.get(1).ok_or("cpi needs a workload name")?;
    let w = find_workload(name, args.size)?;
    let mut golden = GoldenReference::new();
    let stats = Core::new(&w.program, SimConfig::default()).run(&mut [&mut golden]);
    println!("{}: application-level CPI stack (exact)", w.name);
    print!("{}", render_cpi_stack(golden.pics(), stats.retired));
    Ok(())
}

fn cmd_casestudy(args: &Args) -> Result<(), String> {
    let which = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("casestudy needs lbm or nab")?;
    match which {
        "lbm" => {
            use tea_workloads::lbm;
            let before_p = lbm::program(args.size);
            let after_p = lbm::program_with_prefetch(args.size, 3);
            let before = golden_pics(&before_p);
            let after = golden_pics(&after_p);
            println!(
                "lbm: prefetch distance 0 -> 3: {:.0} -> {:.0} cycles (speedup {:.2}x)
",
                before.total(),
                after.total(),
                before.total() / after.total()
            );
            println!("largest per-instruction changes (cycles, after - before):");
            // The two programs differ by the three prefetch instructions,
            // shifting addresses; diff by order is not meaningful, so show
            // each profile's top movers side by side instead.
            print!(
                "{}",
                render_diff(
                    &diff_pics(&before, &before.scaled_to(after.total()), 3),
                    &before_p
                )
            );
            println!(
                "
before, top 3:"
            );
            print!(
                "{}",
                tea_core::render::render_top_instructions(&before, &before_p, 3)
            );
            println!("after (distance 3), top 3:");
            print!(
                "{}",
                tea_core::render::render_top_instructions(&after, &after_p, 3)
            );
            // Distances 1 and 3 share a layout, so a true per-instruction
            // diff applies: where did the remaining time move?
            let d1 = golden_pics(&lbm::program_with_prefetch(args.size, 1));
            println!("\nper-instruction diff, distance 1 -> 3 (same layout):");
            let d1_p = lbm::program_with_prefetch(args.size, 1);
            print!("{}", render_diff(&diff_pics(&d1, &after, 4), &d1_p));
            println!("-> the load's ST-LLC stack collapses; DR-SQ store stacks grow.");
        }
        "nab" => {
            use tea_workloads::nab::{self, MathMode};
            let before_p = nab::program(args.size);
            let after_p = nab::program_with_mode(args.size, MathMode::FiniteMath);
            let before = golden_pics(&before_p);
            let after = golden_pics(&after_p);
            println!(
                "nab: ieee -> finite-math: {:.0} -> {:.0} cycles (speedup {:.2}x)
",
                before.total(),
                after.total(),
                before.total() / after.total()
            );
            println!("before, top 4:");
            print!(
                "{}",
                tea_core::render::render_top_instructions(&before, &before_p, 4)
            );
            println!("after, top 4:");
            print!(
                "{}",
                tea_core::render::render_top_instructions(&after, &after_p, 4)
            );
            println!("-> the FL-EX flush stacks disappear with the flag CSRs; the fsqrt");
            println!("   remains but its latency now overlaps across iterations.");
        }
        other => return Err(format!("unknown case study {other}; use lbm or nab")),
    }
    Ok(())
}

fn cmd_disasm(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .get(1)
        .ok_or("disasm needs a workload name")?;
    let w = find_workload(name, args.size)?;
    let listing = w.program.disassemble();
    for line in listing.lines().take(args.lines) {
        println!("{line}");
    }
    let total = listing.lines().count();
    if total > args.lines {
        println!("... ({} more lines; use --lines)", total - args.lines);
    }
    Ok(())
}

/// Applies `--log-level` and installs the Chrome trace collector when
/// `--trace-out` was given. Returns the collector so [`main`] can save
/// it after the command finishes.
fn init_observability(args: &Args) -> Result<Option<Arc<ChromeTraceSink>>, String> {
    if let Some(level) = &args.log_level {
        let parsed = match level.as_str() {
            "off" => None,
            other => Some(tea_obs::Level::parse(other).ok_or_else(|| {
                format!("bad --log-level {other}; use trace|debug|info|warn|error|off")
            })?),
        };
        tea_obs::set_stderr_level(parsed);
    }
    Ok(args.trace_out.as_ref().map(|_| {
        let sink = Arc::new(ChromeTraceSink::new());
        tea_obs::add_sink(sink.clone());
        tea_obs::set_thread_name("tea-cli main");
        sink
    }))
}

/// What a `suite` run leaves behind for the flight-recorder artifacts
/// written in [`main`]: the progress recorder backing the HTML
/// timeline and the summary table rows.
#[derive(Default)]
struct RunCapture {
    recorder: Option<Arc<ProgressRecorder>>,
    summary: Vec<(String, String)>,
}

/// Builds the live HTML run report from this process's own recording:
/// the progress recorder's per-worker cell timeline, the sampler's
/// metric time series, and the span self-time table.
fn build_live_report(series: Option<&SeriesData>, capture: &RunCapture) -> Report {
    let mut report = Report {
        title: "TEA run report".to_string(),
        summary: capture.summary.clone(),
        ..Report::default()
    };
    if let Some(recorder) = &capture.recorder {
        let mut lanes: std::collections::BTreeMap<usize, Lane> = std::collections::BTreeMap::new();
        for cell in recorder.cells() {
            let lane = lanes.entry(cell.worker).or_insert_with(|| Lane {
                name: format!("worker-{}", cell.worker),
                slices: Vec::new(),
            });
            lane.slices.push(Slice {
                label: cell.workload.clone(),
                start_ns: cell.start_ns,
                end_ns: cell.end_ns,
                status: cell.status.clone(),
            });
        }
        report.lanes = lanes.into_values().collect();
    }
    if let Some(series) = series {
        // Chart every metric that actually moved during the run, up to
        // a cap that keeps the report readable.
        const MAX_CHARTS: usize = 12;
        for name in series.metric_names() {
            if report.charts.len() >= MAX_CHARTS {
                break;
            }
            let points = series.points(&name);
            let moved = points.windows(2).any(|w| w[0].1 != w[1].1);
            if moved {
                report.charts.push(Chart { name, points });
            }
        }
    }
    report.spans = tea_obs::profiler::span_stats();
    report
}

/// Writes the `--trace-out` / `--metrics-out` artifacts plus the
/// flight-recorder outputs (`--series-out`, `--profile-out`,
/// `--report-out`), validating that each JSON artifact renders
/// well-formed before it lands on disk. Runs even when the command
/// failed — that is when a trace is most interesting — and never turns
/// a succeeded command into a failure.
fn write_observability_artifacts(
    args: &Args,
    trace: Option<&ChromeTraceSink>,
    series: Option<&SeriesData>,
    capture: &RunCapture,
    live_report: bool,
) {
    if let (Some(path), Some(sink)) = (&args.trace_out, trace) {
        let json = sink.to_json();
        debug_assert!(
            tea_exp::json::validate(&json).is_ok(),
            "chrome trace must render as valid JSON"
        );
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!("trace written to {path} (load at https://ui.perfetto.dev)"),
            Err(e) => eprintln!("could not write trace {path}: {e}"),
        }
    }
    if let Some(path) = &args.metrics_out {
        let spans = tea_obs::profiler::span_stats();
        let json = tea_obs::metrics::global()
            .snapshot()
            .to_json_with_spans(&spans);
        debug_assert!(
            tea_exp::json::validate(&json).is_ok(),
            "metrics snapshot must render as valid JSON"
        );
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!("metrics written to {path}"),
            Err(e) => eprintln!("could not write metrics {path}: {e}"),
        }
    }
    if let (Some(path), Some(series)) = (&args.series_out, series) {
        match series.write_series(path) {
            Ok(()) => eprintln!(
                "metrics series written to {path} ({} samples, {} dropped)",
                series.samples.len(),
                series.dropped
            ),
            Err(e) => eprintln!("could not write series {path}: {e}"),
        }
    }
    if let (Some(path), Some(series)) = (&args.profile_out, series) {
        match series.write_folded(path) {
            Ok(()) => eprintln!("folded span profile written to {path}"),
            Err(e) => eprintln!("could not write profile {path}: {e}"),
        }
    }
    if live_report {
        if let Some(path) = &args.report_out {
            match build_live_report(series, capture).write_to(path) {
                Ok(()) => eprintln!("html report written to {path}"),
                Err(e) => eprintln!("could not write report {path}: {e}"),
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace_sink = match init_observability(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cmd = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("help");
    // The `report` subcommand renders from a saved artifact; there is
    // nothing live to sample, and its `--report-out` names that
    // render's destination rather than a live report.
    let live_report = args.report_out.is_some() && cmd != "report";
    let sampler = if args.series_out.is_some() || args.profile_out.is_some() || live_report {
        Some(Sampler::start(SamplerConfig {
            interval_ms: args.series_interval_ms,
            capacity: args.series_capacity,
            profile_spans: args.profile_out.is_some(),
        }))
    } else {
        None
    };
    let mut capture = RunCapture::default();
    let result = match cmd {
        "list" => {
            cmd_list();
            Ok(())
        }
        "simulate" => cmd_simulate(&args),
        "profile" => cmd_profile(&args),
        "compare" => cmd_compare(&args),
        "suite" => cmd_suite(&args, &mut capture),
        "bench" => cmd_bench(&args),
        "calibrate" => cmd_calibrate(&args),
        "record" => cmd_record(&args),
        "casestudy" => cmd_casestudy(&args),
        "functions" => cmd_functions(&args),
        "cpi" => cmd_cpi(&args),
        "report" => cmd_report(&args),
        "disasm" => cmd_disasm(&args),
        _ => {
            println!(
                "tea-cli — TEA (ISCA 2023) reproduction\n\n\
                 usage:\n  tea-cli list\n  tea-cli simulate <workload> [--size test|ref]\n  \
                 tea-cli profile <workload> [--size test|ref] [--interval N] [--top N]\n  \
                 tea-cli compare <workload> [--size test|ref] [--interval N]\n  \
                 tea-cli suite [workload...] [--size test|ref] [--interval N] [--threads N] [--json out.json]\n  \
                 \u{20}             [--det-json out.json] [--resume] [--max-retries N] [--cell-timeout CYCLES] [--fail-fast]\n  \
                 \u{20}             [--inject-panic <workload>] [--inject-diverge <workload>]\n  \
                 \u{20}             [--chaos-seed N] [--no-fast-forward] [--progress-stream <path|->]\n  \
                 tea-cli bench [workload...] [--size test|ref] [--interval N] [--iters N]\n  \
                 \u{20}             [--json out.json] [--set-baseline] [--no-fast-forward]\n  \
                 tea-cli calibrate [--json out.json]\n  \
                 tea-cli record <workload> <out.teas> [--size test|ref] [--interval N]\n  \
                 tea-cli report <in.teas> <workload> [--top N]\n  \
                 tea-cli report <run.json> [--report-out out.html]\n  \
                 tea-cli casestudy <lbm|nab> [--size test|ref]\n  \
                 tea-cli functions <workload> [--size test|ref] [--top N]\n  \
                 tea-cli cpi <workload> [--size test|ref]\n  \
                 tea-cli disasm <workload> [--lines N]\n\n\
                 observability (any command):\n  \
                 --log-level trace|debug|info|warn|error|off\n  \
                 --trace-out FILE   Chrome trace-event JSON (Perfetto-loadable)\n  \
                 --metrics-out FILE tea-metrics/v1 counters artifact\n  \
                 --series-out FILE  tea-metrics-series/v1 JSON-lines time series\n  \
                 \u{20}                  [--series-interval-ms N] [--series-capacity N]\n  \
                 --profile-out FILE collapsed span stacks (inferno/speedscope-loadable)\n  \
                 --report-out FILE  self-contained HTML run report"
            );
            Ok(())
        }
    };
    let series = sampler.map(Sampler::stop);
    write_observability_artifacts(
        &args,
        trace_sink.as_deref(),
        series.as_ref(),
        &capture,
        live_report,
    );
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
