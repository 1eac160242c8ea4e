//! # tea-exp
//!
//! The shared experiment engine behind every TEA harness.
//!
//! A run is a matrix of *cells* — one `(workload, core config, scheme
//! set, sampling interval, seed)` point each. Cells are shared-nothing:
//! each one owns its program, its core, and its observers, so the
//! engine fans them out across a scoped thread pool with no
//! synchronization beyond handing out indices — except one shared
//! structure: a per-run [`GoldenMemo`] lets every cell of one `(program,
//! config)` pair reuse the first cell's finished golden reference
//! (bit-identically; disable with [`Engine::trace_cache`]). Every cell
//! interprets its program live. All observers of a cell
//! ride one [`tea_sim::core::Core::run`] pass (the paper's out-of-band
//! TraceDoctor methodology: every scheme samples the exact same
//! cycles).
//!
//! Results come back in cell order regardless of completion order, so
//! a parallel run is bit-identical to a serial one — the simulator and
//! profilers are deterministic, and nothing about scheduling leaks into
//! the numbers. [`RunResult::to_json`] serializes a machine-readable
//! artifact (schema `tea-experiment/v2`, see docs/INTERNALS.md);
//! [`RunResult::write_artifact`] drops it under `target/experiments/`
//! atomically (temp file + rename).
//!
//! The engine is fault-tolerant: each cell body runs under
//! `catch_unwind`, so a panicking cell becomes a [`CellStatus::Failed`]
//! outcome carrying a structured [`ExpError`] instead of tearing down
//! the pool; transient failures are retried with capped deterministic
//! backoff ([`Engine::max_retries`]); a per-cell cycle budget turns
//! runaway simulations into [`CellStatus::TimedOut`]
//! ([`Engine::cell_budget`]); and [`Engine::run_journaled`] +
//! [`Engine::resume`] checkpoint completed cells to a
//! `target/experiments/<name>.journal.jsonl` journal so an interrupted
//! sweep re-runs only missing or failed cells — the merged artifact is
//! bit-identical (over [`RunResult::deterministic_json`]) to an
//! uninterrupted run.
//!
//! Thread count: `RAYON_NUM_THREADS` (the conventional knob), then
//! `TEA_THREADS`, then the machine's available parallelism.

#![warn(missing_docs)]

pub mod artifact;
pub mod chaos;
pub mod error;
pub mod golden_memo;
pub mod journal;
pub mod json;
pub mod progress;

use std::collections::HashMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tea_core::golden::GoldenReference;
use tea_core::observers::{AnyObserver, ObserverSet};
use tea_core::pics::{Granularity, Pics, UnitMap};
use tea_core::pics_error;
use tea_core::sampling::SampleTimer;
use tea_core::schemes::Scheme;
use tea_core::tip::{TipProfile, TipProfiler};
use tea_isa::program::Program;
use tea_obs::{Level, Value};
use tea_sim::core::{Core, SimStats};
use tea_sim::psv::CommitState;
use tea_sim::{SimConfig, SimError};
use tea_workloads::Workload;

pub use chaos::{ChaosInjector, ObserverFault};
pub use error::ExpError;
pub use golden_memo::{GoldenMemo, TraceCache};
pub use progress::{ProgressEvent, ProgressRecorder, ProgressSink, ProgressStream};

use chaos::ChaosObserver;

use golden_memo::{lock_recover, GoldenCheckout};

use journal::{spec_fingerprint, Journal, JournalEntry};
use json::Json;

/// Every sampling scheme the engine can attach to a cell.
pub const ALL_SCHEMES: [Scheme; 6] = [
    Scheme::Tea,
    Scheme::NciTea,
    Scheme::Ibs,
    Scheme::Spe,
    Scheme::Ris,
    Scheme::TeaDispatchTagged,
];

/// The harnesses' default sampling interval (cycles). The paper samples
/// every 800 000 cycles over 10^11+-cycle runs; our runs are ~10^6–10^7
/// cycles, so the interval is scaled to keep the samples-per-instruction
/// density comparable (see DESIGN.md).
pub const DEFAULT_INTERVAL: u64 = 512;

/// Deterministic jitter seed shared by the harnesses.
pub const DEFAULT_SEED: u64 = 42;

/// One point of an experiment matrix: a program simulated under one
/// core configuration with one set of observers.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Workload (or ad-hoc program) name, used in reports and JSON.
    pub workload: String,
    /// The program to simulate.
    pub program: Program,
    /// Human-readable name of the core configuration.
    pub config_name: String,
    /// The core configuration.
    pub config: SimConfig,
    /// Sampling interval in cycles (all schemes share one jittered
    /// timer sequence, so they fire in the same cycles).
    pub interval: u64,
    /// Jitter seed of the sampling timers.
    pub seed: u64,
    /// Sampling schemes to attach.
    pub schemes: Vec<Scheme>,
    /// Attach the exact golden reference (needed for error metrics).
    pub golden: bool,
    /// Attach the TIP baseline profiler.
    pub tip: bool,
    /// Per-cell cycle budget; a cell still running after this many
    /// simulated cycles is cut off as [`CellStatus::TimedOut`].
    /// Overrides [`Engine::cell_budget`] when set.
    pub budget: Option<u64>,
    /// Injected failure, for exercising the engine's fault tolerance.
    pub fault: Option<Fault>,
}

/// An injected cell failure, used by the fault-injection tests and the
/// CLI's `--inject-panic` smoke path. Faults fire before the simulation
/// pass, keyed on the engine's 1-based attempt counter, so a fault
/// injected "until attempt N" exercises the retry path deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Panic while the attempt number is below `n`
    /// (`PanicUntilAttempt(u32::MAX)` panics on every attempt).
    PanicUntilAttempt(u32),
    /// Fail with [`ExpError::Injected`] while the attempt number is
    /// below `n`.
    ErrorUntilAttempt(u32),
}

/// Terminal status of one cell in a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell completed and carries measurements.
    Ok,
    /// The cell failed (panic, rejected config, program fault, injected
    /// fault) after exhausting its retries.
    Failed,
    /// The cell exceeded its cycle budget.
    TimedOut,
    /// The cell never ran (fail-fast abort after an earlier failure).
    Skipped,
}

impl CellStatus {
    /// The status name used in artifacts and journals.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Failed => "failed",
            CellStatus::TimedOut => "timed-out",
            CellStatus::Skipped => "skipped",
        }
    }

    /// Parses an artifact/journal status name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "ok" => Some(CellStatus::Ok),
            "failed" => Some(CellStatus::Failed),
            "timed-out" => Some(CellStatus::TimedOut),
            "skipped" => Some(CellStatus::Skipped),
            _ => None,
        }
    }
}

impl CellSpec {
    /// A cell with the default config, interval, seed and all schemes.
    #[must_use]
    pub fn new(workload: impl Into<String>, program: Program) -> Self {
        CellSpec {
            workload: workload.into(),
            program,
            config_name: "default".to_string(),
            config: SimConfig::default(),
            interval: DEFAULT_INTERVAL,
            seed: DEFAULT_SEED,
            schemes: ALL_SCHEMES.to_vec(),
            golden: true,
            tip: false,
            budget: None,
            fault: None,
        }
    }

    /// A cell for a named workload (clones its program).
    #[must_use]
    pub fn for_workload(w: &Workload) -> Self {
        CellSpec::new(w.name, w.program.clone())
    }

    /// Sets the core configuration (with a name for reports).
    #[must_use]
    pub fn config(mut self, name: impl Into<String>, config: SimConfig) -> Self {
        self.config_name = name.into();
        self.config = config;
        self
    }

    /// Sets the sampling interval.
    #[must_use]
    pub fn interval(mut self, interval: u64) -> Self {
        self.interval = interval;
        self
    }

    /// Sets the sampling jitter seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the scheme set.
    #[must_use]
    pub fn schemes(mut self, schemes: &[Scheme]) -> Self {
        self.schemes = schemes.to_vec();
        self
    }

    /// Attaches the TIP baseline.
    #[must_use]
    pub fn with_tip(mut self) -> Self {
        self.tip = true;
        self
    }

    /// Drops all observers: simulate for [`SimStats`] only.
    #[must_use]
    pub fn stats_only(mut self) -> Self {
        self.schemes.clear();
        self.golden = false;
        self.tip = false;
        self
    }

    /// Sets a per-cell cycle budget (see [`CellSpec::budget`]).
    #[must_use]
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Injects a failure (see [`Fault`]).
    #[must_use]
    pub fn fault(mut self, fault: Fault) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// The measured outcome of one cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Position of the cell in the run's matrix.
    pub index: usize,
    /// The spec that produced this result (owns the program, so error
    /// metrics can build unit maps without reaching back to the caller).
    pub spec: CellSpec,
    /// Core statistics of the simulation pass.
    pub stats: SimStats,
    /// The exact reference, when `spec.golden` was set. Behind an
    /// `Arc`: cells of one `(program, config)` pair share one finished
    /// reference through the engine's golden memo, so a cell may hold
    /// the same allocation as its siblings.
    pub golden: Option<Arc<GoldenReference>>,
    /// The TIP baseline profile, when `spec.tip` was set.
    pub tip: Option<TipProfile>,
    /// Sampled PICS per scheme (in sample units).
    pub pics: HashMap<Scheme, Pics>,
    /// Samples taken per scheme.
    pub samples: HashMap<Scheme, u64>,
    /// Wall-clock time of the simulation pass.
    pub wall: Duration,
}

impl CellResult {
    /// The Section 4 error of `scheme` at `granularity`, or `None` if
    /// the cell ran without the golden reference or without the scheme.
    #[must_use]
    pub fn error(&self, scheme: Scheme, granularity: Granularity) -> Option<f64> {
        let golden = self.golden.as_ref()?;
        let pics = self.pics.get(&scheme)?;
        let units = UnitMap::new(&self.spec.program, granularity);
        Some(pics_error(pics, golden.pics(), scheme.event_set(), &units))
    }

    /// Simulated instructions per wall-clock second, in millions.
    #[must_use]
    pub fn sim_mips(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.stats.retired as f64 / secs / 1e6
        } else {
            0.0
        }
    }

    /// Samples taken across all schemes.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.samples.values().sum()
    }

    /// The measurement fields of the cell's artifact object (everything
    /// after the identity and status fields, which [`CellOutcome`]
    /// contributes).
    fn measurement_fields(&self) -> Vec<(&'static str, Json)> {
        let mut fields = vec![
            ("cycles", Json::UInt(self.stats.cycles)),
            ("instructions", Json::UInt(self.stats.retired)),
            ("ipc", Json::Num(self.stats.ipc())),
            (
                "state_cycles",
                Json::Obj(
                    CommitState::ALL
                        .iter()
                        .enumerate()
                        .map(|(i, s)| {
                            (s.name().to_string(), Json::UInt(self.stats.state_cycles[i]))
                        })
                        .collect(),
                ),
            ),
            ("squashes", Json::UInt(self.stats.squashes)),
            ("commit_flushes", Json::UInt(self.stats.commit_flushes)),
            ("mo_violations", Json::UInt(self.stats.mo_violations)),
            ("wall_seconds", Json::Num(self.wall.as_secs_f64())),
            ("sim_mips", Json::Num(self.sim_mips())),
        ];
        fields.push((
            "golden_total_cycles",
            self.golden
                .as_ref()
                .map_or(Json::Null, |g| Json::Num(g.pics().total())),
        ));
        // Iterate spec.schemes (not the HashMaps) so field order is
        // deterministic.
        fields.push((
            "samples",
            Json::Obj(
                self.spec
                    .schemes
                    .iter()
                    .map(|s| (s.name().to_string(), Json::UInt(self.samples[s])))
                    .collect(),
            ),
        ));
        if self.golden.is_some() {
            fields.push((
                "error_instruction",
                Json::Obj(
                    self.spec
                        .schemes
                        .iter()
                        .map(|s| {
                            let e = self.error(*s, Granularity::Instruction).unwrap_or(f64::NAN);
                            (s.name().to_string(), Json::Num(e))
                        })
                        .collect(),
                ),
            ));
        }
        fields
    }
}

/// Resolves the worker count: `RAYON_NUM_THREADS`, then `TEA_THREADS`,
/// then the machine's available parallelism.
#[must_use]
pub fn threads_from_env() -> usize {
    for var in ["RAYON_NUM_THREADS", "TEA_THREADS"] {
        if let Ok(v) = std::env::var(var) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The experiment engine: a fault-tolerant worker-pool executor for
/// cell matrices.
#[derive(Clone, Debug)]
pub struct Engine {
    threads: usize,
    progress: bool,
    max_retries: u32,
    backoff: Duration,
    backoff_cap: Duration,
    cell_budget: Option<u64>,
    fail_fast: bool,
    golden_sharing: bool,
    chaos: Option<Arc<ChaosInjector>>,
    progress_sinks: ProgressSinks,
    heartbeat: Duration,
}

/// The engine's installed progress sinks ([`Engine::progress_sink`]).
/// Newtype so `Engine` keeps deriving `Debug`.
#[derive(Clone, Default)]
struct ProgressSinks(Vec<Arc<dyn ProgressSink>>);

impl std::fmt::Debug for ProgressSinks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ProgressSinks({})", self.0.len())
    }
}

/// A unit of work handed to the pool: a spec to run, or an outcome
/// restored from the resume journal.
enum CellWork {
    Run(Box<CellSpec>),
    Restored(Box<CellOutcome>),
}

impl CellWork {
    fn run(spec: CellSpec) -> Self {
        CellWork::Run(Box::new(spec))
    }
}

impl Engine {
    fn with_threads(threads: usize) -> Self {
        Engine {
            threads,
            progress: true,
            max_retries: 0,
            backoff: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            cell_budget: None,
            fail_fast: false,
            golden_sharing: true,
            chaos: None,
            progress_sinks: ProgressSinks::default(),
            heartbeat: Duration::from_millis(250),
        }
    }

    /// An engine sized by [`threads_from_env`], with progress reporting.
    #[must_use]
    pub fn from_env() -> Self {
        Engine::with_threads(threads_from_env())
    }

    /// A single-threaded engine (cells run in matrix order).
    #[must_use]
    pub fn serial() -> Self {
        Engine::with_threads(1)
    }

    /// An engine with an explicit worker count.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Engine::with_threads(threads.max(1))
    }

    /// Disables the per-cell progress line on stderr.
    #[must_use]
    pub fn quiet(mut self) -> Self {
        self.progress = false;
        self
    }

    /// Retries transient cell failures (panics, injected faults) up to
    /// `n` additional times. Deterministic failures — rejected configs,
    /// architectural program faults, exceeded cycle budgets — are never
    /// retried.
    #[must_use]
    pub fn max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Sets the deterministic retry backoff: attempt `k` waits
    /// `min(base << (k-1), cap)`. The default is 50 ms doubling up to
    /// 2 s; tests pass `Duration::ZERO` to retry immediately.
    #[must_use]
    pub fn backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff = base;
        self.backoff_cap = cap;
        self
    }

    /// Caps every cell at `budget` simulated cycles (a deterministic
    /// watchdog: the simulator's own clock, not wall time). Cells still
    /// running at the budget become [`CellStatus::TimedOut`]. A cell's
    /// own [`CellSpec::budget`] takes precedence.
    #[must_use]
    pub fn cell_budget(mut self, budget: u64) -> Self {
        self.cell_budget = Some(budget);
        self
    }

    /// Stops claiming new cells after the first failure; unclaimed
    /// cells finish as [`CellStatus::Skipped`]. Cells already in flight
    /// run to completion.
    #[must_use]
    pub fn fail_fast(mut self) -> Self {
        self.fail_fast = true;
        self
    }

    /// Toggles the per-run [`GoldenMemo`] (default **on**): the first
    /// cell of each `(program, config)` pair publishes its finished
    /// golden reference and later cells reuse it instead of attaching
    /// the golden observer. Sharing is bit-identical to computing per
    /// cell; turning it off exists for the identity tests. (The name
    /// predates the removal of trace capture; the repository benchmark
    /// still calls it.)
    #[must_use]
    pub fn trace_cache(mut self, enabled: bool) -> Self {
        self.golden_sharing = enabled;
        self
    }

    /// Arms deterministic chaos injection from `seed` (`tea-cli suite
    /// --chaos-seed`): observer panics inside cells, torn journal
    /// records, and a failed first artifact write. Every decision is a
    /// pure function of the seed, so a chaos run is exactly
    /// reproducible. See [`ChaosInjector`].
    #[must_use]
    pub fn chaos_seed(self, seed: u64) -> Self {
        self.chaos(Arc::new(ChaosInjector::new(seed)))
    }

    /// [`Engine::chaos_seed`] with the injector built by the caller,
    /// so one injector can be shared with other seams (e.g.
    /// [`RunResult::write_artifact_with`]).
    #[must_use]
    pub fn chaos(mut self, injector: Arc<ChaosInjector>) -> Self {
        self.chaos = Some(injector);
        self
    }

    /// Installs a [`ProgressSink`] receiving the run's live lifecycle
    /// events (queued/start/retry/finish), periodic
    /// heartbeats, and the final per-cell status roll-up. Multiple
    /// sinks may be installed; each sees every event. See
    /// [`ProgressStream`] (`tea-cli --progress-stream`) and
    /// [`ProgressRecorder`] (the HTML report's data source).
    #[must_use]
    pub fn progress_sink(mut self, sink: Arc<dyn ProgressSink>) -> Self {
        self.progress_sinks.0.push(sink);
        self
    }

    /// Sets the heartbeat cadence for installed progress sinks
    /// (default 250 ms). Heartbeats only flow while at least one sink
    /// is installed.
    #[must_use]
    pub fn heartbeat_interval(mut self, interval: Duration) -> Self {
        self.heartbeat = interval.max(Duration::from_millis(1));
        self
    }

    /// The worker count this engine will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every cell and returns the outcomes **in cell order** —
    /// results do not depend on which worker ran which cell, so a
    /// parallel run is bit-identical to [`Engine::serial`] (over
    /// [`RunResult::deterministic_json`]).
    ///
    /// A failing cell never tears down the run: its panic or error is
    /// captured as a [`CellStatus::Failed`] / [`CellStatus::TimedOut`]
    /// outcome and every other cell completes normally.
    #[must_use]
    pub fn run(&self, name: &str, cells: Vec<CellSpec>) -> RunResult {
        let work = cells.into_iter().map(CellWork::run).collect();
        self.run_inner(name, work, None)
    }

    /// [`Engine::run`] drawing shared golden references from a
    /// caller-owned [`GoldenMemo`] instead of a fresh per-run one, so
    /// sweeps split across several [`Engine::run`] calls (interval
    /// scans, repeated measurements) compute each `(program, config)`
    /// pair's reference once. Results are bit-identical to
    /// [`Engine::run`] with sharing on or off (see the golden-sharing
    /// identity tests).
    #[must_use]
    pub fn run_with_cache(&self, name: &str, cells: Vec<CellSpec>, memo: &GoldenMemo) -> RunResult {
        let work = cells.into_iter().map(CellWork::run).collect();
        self.run_inner_with(name, work, None, Some(memo))
    }

    /// Like [`Engine::run`], journaling every completed cell to
    /// `target/experiments/<name>.journal.jsonl` (truncating any
    /// previous journal) so an interrupted run can be picked up by
    /// [`Engine::resume`].
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the journal file cannot be created.
    pub fn run_journaled(&self, name: &str, cells: Vec<CellSpec>) -> std::io::Result<RunResult> {
        let journal = Journal::create(name)?;
        let work = cells.into_iter().map(CellWork::run).collect();
        Ok(self.run_inner(name, work, Some(&journal)))
    }

    /// Resumes an interrupted [`Engine::run_journaled`] run: cells whose
    /// journal entry is `ok` and whose spec fingerprint still matches
    /// are restored verbatim; missing, failed, timed-out and skipped
    /// cells are re-run (and journaled). Because the simulator is
    /// deterministic, the merged result is bit-identical (over
    /// [`RunResult::deterministic_json`]) to an uninterrupted run.
    ///
    /// A missing journal is not an error — every cell simply re-runs.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the journal file cannot be opened for
    /// appending.
    pub fn resume(&self, name: &str, cells: Vec<CellSpec>) -> std::io::Result<RunResult> {
        let entries = Journal::load(name);
        let journal = Journal::append_to(name)?;
        let work = cells
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let fingerprint = spec_fingerprint(&spec);
                match entries.get(&i) {
                    Some(e) if e.status == CellStatus::Ok && e.fingerprint == fingerprint => {
                        CellWork::Restored(Box::new(CellOutcome {
                            index: i,
                            spec,
                            status: CellStatus::Ok,
                            attempts: e.attempts,
                            wall: Duration::ZERO,
                            data: CellData::Restored(e.cell.clone()),
                        }))
                    }
                    _ => CellWork::run(spec),
                }
            })
            .collect();
        Ok(self.run_inner(name, work, Some(&journal)))
    }

    /// The level engine progress events are emitted at: `Info` for a
    /// reporting engine, `Debug` (hidden at default stderr verbosity)
    /// for a [`Engine::quiet`] one. Trace sinks capture both.
    fn event_level(&self) -> Level {
        if self.progress {
            Level::Info
        } else {
            Level::Debug
        }
    }

    fn run_inner(&self, name: &str, work: Vec<CellWork>, journal: Option<&Journal>) -> RunResult {
        self.run_inner_with(name, work, journal, None)
    }

    fn run_inner_with(
        &self,
        name: &str,
        work: Vec<CellWork>,
        journal: Option<&Journal>,
        shared_memo: Option<&GoldenMemo>,
    ) -> RunResult {
        let t0 = Instant::now();
        let total = work.len();
        let workers = self.threads.min(total.max(1));
        let mut run_span = tea_obs::span(
            Level::Debug,
            ENGINE_TARGET,
            "run",
            &[
                ("name", Value::str(name)),
                ("cells", Value::from(total)),
                ("workers", Value::from(workers)),
            ],
        );
        // The queue-depth gauge is add-based (never `set`) so
        // concurrent runs in one process each retire exactly the
        // depth they added and the gauge deterministically reads 0 at
        // every run boundary — which keeps serial and parallel
        // metric snapshots equal.
        let queue_depth = metrics().gauge("engine.queue_depth");
        queue_depth.add(i64::try_from(total).unwrap_or(i64::MAX));
        self.emit_progress(&ProgressEvent::RunStart {
            ts_ns: tea_obs::now_ns(),
            name: name.to_string(),
            total,
            workers,
        });
        for (i, w) in work.iter().enumerate() {
            if let CellWork::Run(spec) = w {
                tea_obs::debug(ENGINE_TARGET, "cell queued", &cell_fields(i, spec));
                self.emit_progress(&ProgressEvent::CellQueued {
                    ts_ns: tea_obs::now_ns(),
                    index: i,
                    workload: spec.workload.to_string(),
                    config: spec.config_name.to_string(),
                });
            }
        }
        // One golden memo serves the whole run. A caller-owned memo
        // (Engine::run_with_cache) takes priority and survives the run.
        let own_memo = (shared_memo.is_none() && self.golden_sharing).then(GoldenMemo::new);
        let memo = shared_memo.or(own_memo.as_ref());
        // Cells are handed to exactly one worker each (shared-nothing);
        // the slot Mutexes only guard the ownership transfer.
        let slots: Vec<Mutex<Option<CellWork>>> =
            work.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let results: Vec<Mutex<Option<CellOutcome>>> =
            (0..total).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        // Heartbeat inputs: cells currently executing, and finished
        // fresh-cell wall times feeding the ETA estimate.
        let running = AtomicUsize::new(0);
        let finished_walls: Mutex<Vec<f64>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            if !self.progress_sinks.0.is_empty() && total > 0 {
                let (done, running, walls) = (&done, &running, &finished_walls);
                s.spawn(move || self.heartbeat_loop(total, workers, done, running, walls));
            }
            for worker in 0..workers {
                let (slots, results) = (&slots, &results);
                let (next, done, abort) = (&next, &done, &abort);
                let (running, finished_walls, queue_depth) =
                    (&running, &finished_walls, &queue_depth);
                s.spawn(move || {
                    tea_obs::set_thread_name(&format!("engine-worker-{worker}"));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        queue_depth.add(-1);
                        // Slot locks only transfer ownership of complete
                        // values; recover from poisoning (a panicking
                        // sibling worker) rather than cascade the wedge.
                        let work = lock_recover(&slots[i])
                            .take()
                            .expect("each cell is claimed exactly once");
                        let outcome = match work {
                            CellWork::Restored(outcome) => *outcome,
                            CellWork::Run(spec) => {
                                if self.fail_fast && abort.load(Ordering::Relaxed) {
                                    CellOutcome::skipped(i, *spec)
                                } else {
                                    self.emit_progress(&ProgressEvent::CellStart {
                                        ts_ns: tea_obs::now_ns(),
                                        index: i,
                                        workload: spec.workload.to_string(),
                                        config: spec.config_name.to_string(),
                                        worker,
                                    });
                                    running.fetch_add(1, Ordering::Relaxed);
                                    let outcome = self.run_cell_traced(i, *spec, memo);
                                    running.fetch_sub(1, Ordering::Relaxed);
                                    outcome
                                }
                            }
                        };
                        if self.fail_fast && outcome.status != CellStatus::Ok {
                            abort.store(true, Ordering::Relaxed);
                        }
                        if let Some(j) = journal {
                            if !matches!(outcome.data, CellData::Restored(_)) {
                                let entry = JournalEntry::of(&outcome);
                                if self.chaos.as_ref().is_some_and(|c| c.tear_journal(i)) {
                                    tea_obs::warn(
                                        ENGINE_TARGET,
                                        "chaos: tearing the cell's journal record mid-line",
                                        &[("index", Value::from(i))],
                                    );
                                    j.record_torn(&entry);
                                } else {
                                    j.record(&entry);
                                }
                            }
                        }
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        self.progress_line(name, finished, total, &outcome);
                        if matches!(outcome.data, CellData::Fresh(_)) {
                            lock_recover(finished_walls).push(outcome.wall.as_secs_f64());
                        }
                        self.emit_progress(&ProgressEvent::CellFinish {
                            ts_ns: tea_obs::now_ns(),
                            index: i,
                            status: outcome.status.name().to_string(),
                            attempts: outcome.attempts,
                            wall_ms: outcome.wall.as_secs_f64() * 1e3,
                            done: finished,
                            total,
                        });
                        *lock_recover(&results[i]) = Some(outcome);
                    }
                });
            }
        });
        let cells: Vec<CellOutcome> = results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("every cell produces an outcome")
            })
            .collect();
        record_run_metrics(&cells);
        let wall = t0.elapsed();
        run_span.record("wall_ms", wall.as_millis() as u64);
        drop(run_span);
        self.emit_progress(&ProgressEvent::RunFinish {
            ts_ns: tea_obs::now_ns(),
            name: name.to_string(),
            wall_ms: wall.as_secs_f64() * 1e3,
            statuses: cells.iter().map(|c| c.status.name().to_string()).collect(),
        });
        RunResult {
            name: name.to_string(),
            threads: workers,
            wall,
            cells,
        }
    }

    /// Fans one event out to every installed progress sink.
    fn emit_progress(&self, event: &ProgressEvent) {
        for sink in &self.progress_sinks.0 {
            sink.emit(event);
        }
    }

    /// Emits a heartbeat every [`Engine::heartbeat_interval`] until
    /// every cell is done. Sleeps in short slices so run completion is
    /// never held up by a pending interval.
    fn heartbeat_loop(
        &self,
        total: usize,
        workers: usize,
        done: &AtomicUsize,
        running: &AtomicUsize,
        finished_walls: &Mutex<Vec<f64>>,
    ) {
        let slice = Duration::from_millis(10).min(self.heartbeat);
        let mut elapsed = Duration::ZERO;
        loop {
            if done.load(Ordering::Relaxed) >= total {
                return;
            }
            std::thread::sleep(slice);
            elapsed += slice;
            if elapsed < self.heartbeat {
                continue;
            }
            elapsed = Duration::ZERO;
            let finished = done.load(Ordering::Relaxed);
            if finished >= total {
                return;
            }
            let in_flight = running.load(Ordering::Relaxed);
            let walls = lock_recover(finished_walls);
            let eta_s = (!walls.is_empty()).then(|| {
                let mean = walls.iter().sum::<f64>() / walls.len() as f64;
                let remaining = (total - finished) as f64;
                mean * remaining / workers.max(1) as f64
            });
            drop(walls);
            self.emit_progress(&ProgressEvent::Heartbeat {
                ts_ns: tea_obs::now_ns(),
                done: finished,
                total,
                running: in_flight,
                workers,
                utilization: in_flight as f64 / workers.max(1) as f64,
                eta_s,
            });
        }
    }

    /// Wraps one fresh cell in its tracing span (the cell's lane entry
    /// in a Chrome trace, on the executing worker's thread) and start
    /// event, then runs it.
    fn run_cell_traced(
        &self,
        index: usize,
        spec: CellSpec,
        memo: Option<&GoldenMemo>,
    ) -> CellOutcome {
        let fields = cell_fields(index, &spec);
        let mut span = tea_obs::span(Level::Debug, ENGINE_TARGET, "cell", &fields);
        tea_obs::event(self.event_level(), ENGINE_TARGET, "cell start", &fields);
        let outcome = self.execute_cell(index, spec, memo);
        span.record("status", outcome.status.name());
        span.record("attempts", u64::from(outcome.attempts));
        if let CellData::Failed(e) = &outcome.data {
            span.record("cause", e.kind());
        }
        outcome
    }

    /// Emits the per-cell finish event carrying the old stderr progress
    /// line as its message plus structured outcome fields.
    fn progress_line(&self, name: &str, finished: usize, total: usize, outcome: &CellOutcome) {
        let message = match &outcome.data {
            CellData::Fresh(r) => format!(
                "[{name}] {finished:>3}/{total} {:<14} {:<10} {:>8} cycles  \
                 {:>6.2}s  {:>7.2} Msim-inst/s",
                r.spec.workload,
                r.spec.config_name,
                r.stats.cycles,
                r.wall.as_secs_f64(),
                r.sim_mips(),
            ),
            CellData::Restored(_) => format!(
                "[{name}] {finished:>3}/{total} {:<14} {:<10} restored from journal",
                outcome.spec.workload, outcome.spec.config_name,
            ),
            CellData::Failed(e) => format!(
                "[{name}] {finished:>3}/{total} {:<14} {:<10} {}: {e}",
                outcome.spec.workload,
                outcome.spec.config_name,
                outcome.status.name(),
            ),
        };
        tea_obs::event(
            self.event_level(),
            ENGINE_TARGET,
            &message,
            &[
                ("index", Value::from(outcome.index)),
                ("status", Value::str(outcome.status.name())),
                ("attempts", Value::from(u64::from(outcome.attempts))),
            ],
        );
    }

    /// Runs one cell under `catch_unwind` with retry and backoff.
    fn execute_cell(&self, index: usize, spec: CellSpec, memo: Option<&GoldenMemo>) -> CellOutcome {
        let t0 = Instant::now();
        let budget = spec.budget.or(self.cell_budget);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match run_cell_guarded(index, &spec, attempt, budget, memo, self.chaos.as_deref()) {
                Ok(result) => {
                    return CellOutcome {
                        index,
                        spec,
                        status: CellStatus::Ok,
                        attempts: attempt,
                        wall: t0.elapsed(),
                        data: CellData::Fresh(Box::new(result)),
                    }
                }
                Err(e) => {
                    if e.is_transient() && attempt <= self.max_retries {
                        let delay = backoff_delay(self.backoff, self.backoff_cap, attempt);
                        tea_obs::warn(
                            ENGINE_TARGET,
                            "cell retrying",
                            &[
                                ("index", Value::from(index)),
                                ("workload", Value::str(&*spec.workload)),
                                ("attempt", Value::from(u64::from(attempt))),
                                ("cause", Value::str(e.kind())),
                                ("message", Value::str(e.to_string())),
                                ("backoff_ms", Value::from(delay.as_millis() as u64)),
                            ],
                        );
                        metrics().counter("engine.retries").inc();
                        self.emit_progress(&ProgressEvent::CellRetry {
                            ts_ns: tea_obs::now_ns(),
                            index,
                            attempt,
                            cause: e.kind().to_string(),
                        });
                        if delay > Duration::ZERO {
                            std::thread::sleep(delay);
                        }
                        continue;
                    }
                    let status = match e {
                        ExpError::Timeout { .. } => CellStatus::TimedOut,
                        _ => CellStatus::Failed,
                    };
                    return CellOutcome {
                        index,
                        spec,
                        status,
                        attempts: attempt,
                        wall: t0.elapsed(),
                        data: CellData::Failed(e),
                    };
                }
            }
        }
    }
}

/// Tracing target of every engine-emitted record.
const ENGINE_TARGET: &str = "tea_exp::engine";

/// Shorthand for the process-global metrics registry.
fn metrics() -> &'static tea_obs::metrics::Registry {
    tea_obs::metrics::global()
}

/// The identifying fields stamped on a cell's queued/start/span records.
fn cell_fields(index: usize, spec: &CellSpec) -> [(&'static str, Value); 3] {
    [
        ("index", Value::from(index)),
        ("workload", Value::str(&*spec.workload)),
        ("config", Value::str(&*spec.config_name)),
    ]
}

/// Publishes a finished run's per-status cell counts and attempt
/// histogram into the metrics registry. Counter adds commute, so the
/// totals are independent of worker count and scheduling.
fn record_run_metrics(cells: &[CellOutcome]) {
    let m = metrics();
    let attempts = m.histogram("engine.cell_attempts", &[1, 2, 3, 4, 8]);
    for outcome in cells {
        let status = match outcome.status {
            CellStatus::Ok => {
                if matches!(outcome.data, CellData::Restored(_)) {
                    "restored"
                } else {
                    "ok"
                }
            }
            CellStatus::Failed => "failed",
            CellStatus::TimedOut => "timed_out",
            CellStatus::Skipped => "skipped",
        };
        m.counter(&format!("engine.cells_{status}")).inc();
        if outcome.attempts > 0 {
            attempts.observe(u64::from(outcome.attempts));
        }
        if let CellData::Failed(ExpError::Panic { .. }) = &outcome.data {
            m.counter("engine.panics").inc();
        }
    }
}

/// The deterministic capped exponential backoff before retry `attempt+1`:
/// `min(base << (attempt-1), cap)`.
fn backoff_delay(base: Duration, cap: Duration, attempt: u32) -> Duration {
    let shift = (attempt - 1).min(16);
    base.saturating_mul(1u32 << shift).min(cap)
}

/// Runs one cell attempt with panics captured as [`ExpError::Panic`].
fn run_cell_guarded(
    index: usize,
    spec: &CellSpec,
    attempt: u32,
    budget: Option<u64>,
    memo: Option<&GoldenMemo>,
    chaos: Option<&ChaosInjector>,
) -> Result<CellResult, ExpError> {
    quiet_panics::install();
    let spec = spec.clone();
    quiet_panics::with_quiet(|| {
        match catch_unwind(AssertUnwindSafe(|| {
            run_cell_attempt(index, spec, attempt, budget, memo, chaos)
        })) {
            Ok(inner) => inner,
            Err(payload) => Err(ExpError::Panic {
                // `&*payload`, not `&payload`: coercing `&Box<dyn Any>`
                // would downcast against the Box itself and never match.
                message: panic_message(&*payload),
            }),
        }
    })
}

/// Downcasts a `catch_unwind` payload to its message where possible.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Suppression of the default panic hook's stderr backtrace while a
/// cell body runs under `catch_unwind`: a cell failure is an expected,
/// captured outcome, not a crash worth a traceback per retry.
mod quiet_panics {
    use std::cell::Cell;
    use std::sync::Once;

    thread_local! {
        static QUIET: Cell<bool> = const { Cell::new(false) };
    }
    static INSTALL: Once = Once::new();

    /// Installs (once, process-wide) a panic hook that stays silent on
    /// threads currently inside [`with_quiet`] and delegates to the
    /// previous hook everywhere else.
    pub fn install() {
        INSTALL.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if !QUIET.with(Cell::get) {
                    prev(info);
                }
            }));
        });
    }

    /// Runs `f` with this thread's panics silenced.
    pub fn with_quiet<T>(f: impl FnOnce() -> T) -> T {
        QUIET.with(|q| q.set(true));
        let r = f();
        QUIET.with(|q| q.set(false));
        r
    }
}

/// Runs one cell: builds its observers, performs the single simulation
/// pass, and packages the measurements.
///
/// This is the engine's single-cell entry point for harnesses that run
/// one spec without a pool: no `catch_unwind`, no retry; the cell's own
/// [`CellSpec::budget`] applies.
///
/// # Errors
///
/// Returns [`ExpError::Config`] for a rejected configuration,
/// [`ExpError::Sim`] for an architectural program fault,
/// [`ExpError::Timeout`] for an exceeded cycle budget, and
/// [`ExpError::Injected`] for an injected fault.
pub fn run_cell(index: usize, spec: CellSpec) -> Result<CellResult, ExpError> {
    let budget = spec.budget;
    run_cell_attempt(index, spec, 1, budget, None, None)
}

/// One attempt of one cell. `attempt` is 1-based and keys injected
/// faults; `budget` caps the simulation in simulated cycles; `memo`
/// shares finished golden references across cells when the engine's
/// golden sharing is on; `chaos` injects deterministic faults at the
/// attempt's seams.
fn run_cell_attempt(
    index: usize,
    spec: CellSpec,
    attempt: u32,
    budget: Option<u64>,
    memo: Option<&GoldenMemo>,
    chaos: Option<&ChaosInjector>,
) -> Result<CellResult, ExpError> {
    let t0 = Instant::now();
    // A sampling timer needs a nonzero interval. Reject it here, as a
    // deterministic config error, before an observer constructor's
    // assert turns it into a panic the engine would retry.
    if spec.interval == 0 && (spec.tip || !spec.schemes.is_empty()) {
        return Err(ExpError::Config(SimError::InvalidConfig {
            field: "interval",
            reason: "sampling interval must be nonzero".to_string(),
        }));
    }
    match spec.fault {
        Some(Fault::PanicUntilAttempt(n)) if attempt < n => {
            panic!("injected panic on attempt {attempt} (cell {index})")
        }
        Some(Fault::ErrorUntilAttempt(n)) if attempt < n => {
            return Err(ExpError::Injected { attempt });
        }
        _ => {}
    }
    // Transient observer faults fire only on the first attempt (the
    // retry loop recovers them); persistent ones fire on every attempt
    // and surface as a failed cell.
    let observer_fault = chaos
        .and_then(|c| c.observer_fault(index))
        .filter(|f| f.persistent || attempt == 1);
    let timer = || SampleTimer::with_jitter(spec.interval, spec.interval / 8, spec.seed);
    // The golden reference is seed- and interval-independent, so cells
    // of one (program, config) pair share one finished reference: the
    // claim winner computes and publishes it, later cells skip the
    // observer entirely, and claim-race losers compute locally.
    let mut golden_shared = None;
    let mut golden_ticket = None;
    let golden = if spec.golden {
        match memo.map(|m| m.golden_checkout(&spec.program, &spec.config)) {
            Some(GoldenCheckout::Shared(g)) => {
                golden_shared = Some(g);
                None
            }
            Some(GoldenCheckout::Compute(ticket)) => {
                golden_ticket = ticket;
                Some(GoldenReference::new())
            }
            None => Some(GoldenReference::new()),
        }
    } else {
        None
    };
    // One statically dispatched set (ISSUE 10): every known profiler is
    // an `AnyObserver` variant, so the run loop delivers notifications
    // through enum matches instead of a `&mut dyn Observer` slice. Each
    // push index is remembered so the observers can be taken back out
    // after the run.
    let mut set = ObserverSet::new();
    let golden_at = golden.map(|g| set.push(AnyObserver::Golden(g)));
    let tip_at = if spec.tip {
        Some(set.push(AnyObserver::Tip(TipProfiler::new(timer()))))
    } else {
        None
    };
    let scheme_at: Vec<(Scheme, usize)> = spec
        .schemes
        .iter()
        .map(|&s| (s, set.push(AnyObserver::for_scheme(s, timer()))))
        .collect();
    // Last, so the injected panic never masks real observer work in
    // the same cycle. Chaos is the one observer outside the known set;
    // it rides the `Dyn` escape hatch at the old virtual-call cost.
    if let Some(fault) = observer_fault {
        set.push(AnyObserver::Dyn(Box::new(ChaosObserver::new(fault))));
    }
    let stats = {
        let mut core =
            Core::try_new(&spec.program, spec.config.clone()).map_err(ExpError::Config)?;
        match budget {
            Some(max) => {
                let stats = core
                    .try_run_for_with(max, &mut set)
                    .map_err(ExpError::Sim)?;
                if !core.is_halted() {
                    return Err(ExpError::Timeout { budget: max });
                }
                stats
            }
            None => core.try_run_with(&mut set).map_err(ExpError::Sim)?,
        }
    };
    let wall = t0.elapsed();
    // Disassemble the set back into its typed members.
    let mut items: Vec<Option<AnyObserver>> = set.into_items().into_iter().map(Some).collect();
    let golden = golden_at.map(|at| match items[at].take() {
        Some(AnyObserver::Golden(g)) => g,
        _ => unreachable!("golden observer keeps its slot"),
    });
    let tip = tip_at.map(|at| match items[at].take() {
        Some(AnyObserver::Tip(t)) => t,
        _ => unreachable!("tip observer keeps its slot"),
    });
    let scheme_obs: Vec<(Scheme, AnyObserver)> = scheme_at
        .into_iter()
        .map(|(s, at)| (s, items[at].take().expect("scheme observer keeps its slot")))
        .collect();
    // The run succeeded: publish a claimed reference for later cells of
    // the pair, or adopt the shared one so the cell's artifact (and the
    // profiler.golden.* counters) are identical to a computed run's.
    let golden = match golden.map(Arc::new) {
        Some(g) => {
            if let Some(ticket) = golden_ticket {
                ticket.publish(Arc::clone(&g));
            }
            Some(g)
        }
        None => golden_shared,
    };
    record_profiler_metrics(golden.as_deref(), tip.as_ref(), &scheme_obs);
    let mut pics = HashMap::new();
    let mut samples = HashMap::new();
    for (scheme, obs) in scheme_obs {
        samples.insert(
            scheme,
            obs.samples().expect("scheme observers count samples"),
        );
        pics.insert(
            scheme,
            obs.into_pics().expect("scheme observers produce PICS"),
        );
    }
    Ok(CellResult {
        index,
        spec,
        stats,
        golden,
        tip: tip.map(|t| t.profile().clone()),
        pics,
        samples,
        wall,
    })
}

/// Publishes one finished cell attempt's profiler measurements:
/// samples taken, samples dropped (still pending — never attributed to
/// a retired instruction — when the run finished) per scheme, and the
/// golden reference's attribution totals. One batch of relaxed atomic
/// adds per cell, off the simulation hot path.
fn record_profiler_metrics(
    golden: Option<&GoldenReference>,
    tip: Option<&TipProfiler>,
    scheme_obs: &[(Scheme, AnyObserver)],
) {
    let m = metrics();
    for (scheme, obs) in scheme_obs {
        let name = scheme.name();
        m.counter(&format!("profiler.{name}.samples_taken"))
            .add(obs.samples().unwrap_or(0));
        m.counter(&format!("profiler.{name}.samples_dropped"))
            .add(obs.pending_samples().unwrap_or(0) as u64);
    }
    if let Some(t) = tip {
        m.counter("profiler.TIP.samples_taken").add(t.samples());
        m.counter("profiler.TIP.samples_dropped")
            .add(t.pending_samples() as u64);
    }
    if let Some(g) = golden {
        m.counter("profiler.golden.attributed_cycles")
            .add(g.total_cycles());
        m.counter("profiler.golden.pending_map_size")
            .add(g.pending_cycles() as u64);
        m.counter("profiler.golden.unattributed_compute_cycles")
            .add(g.unattributed_compute_cycles());
    }
}

/// What a finished cell carries.
#[derive(Clone, Debug)]
pub enum CellData {
    /// Measurements from a cell simulated in this process (boxed: a
    /// result dwarfs the error variants).
    Fresh(Box<CellResult>),
    /// The rendered artifact object of a cell restored from a resume
    /// journal. The in-memory measurement structures (PICS, golden
    /// reference) are not re-materialized; the stored JSON is spliced
    /// into the merged artifact verbatim.
    Restored(Json),
    /// The structured error of a failed, timed-out or skipped cell.
    Failed(ExpError),
}

/// The terminal outcome of one cell: its status, how many attempts it
/// took, and either its measurements or its structured error.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Position of the cell in the run's matrix.
    pub index: usize,
    /// The spec the cell ran under.
    pub spec: CellSpec,
    /// Terminal status.
    pub status: CellStatus,
    /// Attempts consumed (1 for a first-try success; 0 for a skipped
    /// cell that never ran).
    pub attempts: u32,
    /// Wall-clock time spent on the cell across all attempts.
    pub wall: Duration,
    /// The measurements or the error.
    pub data: CellData,
}

impl CellOutcome {
    fn skipped(index: usize, spec: CellSpec) -> Self {
        CellOutcome {
            index,
            spec,
            status: CellStatus::Skipped,
            attempts: 0,
            wall: Duration::ZERO,
            data: CellData::Failed(ExpError::Skipped),
        }
    }

    /// The cell's measurements, when it completed in this process.
    /// `None` for failed cells and for cells restored from a journal.
    #[must_use]
    pub fn result(&self) -> Option<&CellResult> {
        match &self.data {
            CellData::Fresh(r) => Some(r),
            _ => None,
        }
    }

    /// The cell's structured error, when it failed.
    #[must_use]
    pub fn error(&self) -> Option<&ExpError> {
        match &self.data {
            CellData::Failed(e) => Some(e),
            _ => None,
        }
    }

    /// Whether the cell completed.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.status == CellStatus::Ok
    }

    /// Unwraps into the cell's measurements.
    ///
    /// # Errors
    ///
    /// The cell's [`ExpError`] if it failed, or [`ExpError::Journal`]
    /// for a journal-restored cell (which carries no in-memory
    /// measurements).
    pub fn into_result(self) -> Result<CellResult, ExpError> {
        match self.data {
            CellData::Fresh(r) => Ok(*r),
            CellData::Failed(e) => Err(e),
            CellData::Restored(_) => Err(ExpError::Journal {
                reason: "restored cells carry no in-memory measurements".to_string(),
            }),
        }
    }

    /// Instructions the cell retired (0 when it failed; read back from
    /// the stored JSON for restored cells).
    #[must_use]
    pub fn instructions(&self) -> u64 {
        match &self.data {
            CellData::Fresh(r) => r.stats.retired,
            CellData::Restored(doc) => doc.get("instructions").and_then(Json::as_u64).unwrap_or(0),
            CellData::Failed(_) => 0,
        }
    }

    /// The cell as its `tea-experiment/v2` artifact object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        if let CellData::Restored(doc) = &self.data {
            return doc.clone();
        }
        let mut fields = vec![
            ("workload", Json::Str(self.spec.workload.clone())),
            ("config", Json::Str(self.spec.config_name.clone())),
            ("interval", Json::UInt(self.spec.interval)),
            ("seed", Json::UInt(self.spec.seed)),
            ("status", Json::Str(self.status.name().to_string())),
            ("attempts", Json::UInt(u64::from(self.attempts))),
        ];
        match &self.data {
            CellData::Fresh(r) => fields.extend(r.measurement_fields()),
            CellData::Failed(e) => fields.push((
                "error",
                Json::obj(vec![
                    ("kind", Json::Str(e.kind().to_string())),
                    ("message", Json::Str(e.to_string())),
                ]),
            )),
            CellData::Restored(_) => unreachable!("handled above"),
        }
        Json::obj(fields)
    }
}

/// The outcome of an [`Engine::run`]: all cell outcomes plus run-level
/// timing.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Run name (used for the artifact filename).
    pub name: String,
    /// Workers the engine actually used.
    pub threads: usize,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Per-cell outcomes, in matrix order.
    pub cells: Vec<CellOutcome>,
}

impl RunResult {
    /// Instructions simulated across all completed cells.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.cells.iter().map(CellOutcome::instructions).sum()
    }

    /// Aggregate simulated instructions per wall-second, in millions.
    #[must_use]
    pub fn sim_mips(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.total_instructions() as f64 / secs / 1e6
        } else {
            0.0
        }
    }

    /// Cells with the given status.
    #[must_use]
    pub fn count(&self, status: CellStatus) -> u64 {
        self.cells.iter().filter(|c| c.status == status).count() as u64
    }

    /// Whether every cell completed.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.cells.iter().all(CellOutcome::is_ok)
    }

    /// The completed cells' measurements (journal-restored cells are
    /// not included — they carry only their stored JSON).
    pub fn ok_cells(&self) -> impl Iterator<Item = &CellResult> {
        self.cells.iter().filter_map(CellOutcome::result)
    }

    /// The run as a `tea-experiment/v2` JSON document. Use
    /// [`artifact::read_artifact`] to read both v2 and the status-less
    /// v1 schema back.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str("tea-experiment/v2".to_string())),
            ("name", Json::Str(self.name.clone())),
            ("threads", Json::UInt(self.threads as u64)),
            ("cells_total", Json::UInt(self.cells.len() as u64)),
            ("cells_ok", Json::UInt(self.count(CellStatus::Ok))),
            ("cells_failed", Json::UInt(self.count(CellStatus::Failed))),
            (
                "cells_timed_out",
                Json::UInt(self.count(CellStatus::TimedOut)),
            ),
            ("cells_skipped", Json::UInt(self.count(CellStatus::Skipped))),
            ("wall_seconds", Json::Num(self.wall.as_secs_f64())),
            ("sim_mips", Json::Num(self.sim_mips())),
            (
                "cells",
                Json::Arr(self.cells.iter().map(CellOutcome::to_json).collect()),
            ),
        ])
    }

    /// The artifact with its wall-clock-dependent fields
    /// (`wall_seconds`, `sim_mips`, `threads`) stripped at every depth:
    /// the projection over which a parallel run, a serial run, and a
    /// resumed run of the same matrix are bit-identical.
    #[must_use]
    pub fn deterministic_json(&self) -> Json {
        self.to_json()
            .without_keys(&["wall_seconds", "sim_mips", "threads"])
    }

    /// Writes the JSON artifact to `$TEA_RESULTS_DIR` (default
    /// `target/experiments/` under the workspace root) as
    /// `<name>.json`, returning its path.
    ///
    /// The write is atomic — the document lands in a temp file in the
    /// same directory which is then renamed over the target — so a
    /// crash mid-write never leaves a truncated artifact.
    ///
    /// Cargo runs test and bench binaries with the package directory
    /// as the working directory, so the default anchors to the
    /// outermost ancestor holding a `Cargo.lock` rather than to the
    /// CWD; every harness then writes to the same place.
    pub fn write_artifact(&self) -> std::io::Result<PathBuf> {
        self.write_artifact_with(None)
    }

    /// [`RunResult::write_artifact`] with the artifact-write chaos seam
    /// armed: when the injector decides to fail the first write
    /// attempt, the temp file is abandoned half-written (emulating a
    /// crash or full disk mid-write), cleaned up, and the write
    /// retried — the retry always lands a complete, valid artifact,
    /// and the target path is never exposed to a torn document.
    pub fn write_artifact_with(&self, chaos: Option<&ChaosInjector>) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let safe = safe_name(&self.name);
        let path = dir.join(format!("{safe}.json"));
        let rendered = self.to_json().render_pretty();
        let mut last_err = None;
        for attempt in 0..2u32 {
            // A per-attempt temp name: a failed attempt's leftover can
            // never be renamed over the target by a later one.
            let tmp = dir.join(format!(".{safe}.json.tmp.{}.{attempt}", std::process::id()));
            let wrote = (|| -> std::io::Result<()> {
                let mut file = std::fs::File::create(&tmp)?;
                if chaos.is_some_and(|c| c.fail_artifact_write(attempt)) {
                    file.write_all(&rendered.as_bytes()[..rendered.len() / 2])?;
                    return Err(std::io::Error::other(
                        "chaos: injected artifact write failure after a partial temp write",
                    ));
                }
                file.write_all(rendered.as_bytes())?;
                file.sync_all()
            })();
            match wrote {
                Ok(()) => {
                    std::fs::rename(&tmp, &path)?;
                    return Ok(path);
                }
                Err(e) => {
                    let _ = std::fs::remove_file(&tmp);
                    tea_obs::warn(
                        ENGINE_TARGET,
                        "artifact write failed; torn temp file removed",
                        &[
                            ("attempt", Value::from(u64::from(attempt))),
                            ("path", Value::str(path.display().to_string())),
                            ("error", Value::str(e.to_string())),
                        ],
                    );
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("loop ran at least once"))
    }
}

/// The directory run artifacts and journals land in:
/// `$TEA_RESULTS_DIR`, defaulting to `target/experiments/` under the
/// workspace root.
#[must_use]
pub fn results_dir() -> PathBuf {
    std::env::var("TEA_RESULTS_DIR").map_or_else(
        |_| workspace_root().join("target/experiments"),
        PathBuf::from,
    )
}

/// A run name reduced to filename-safe characters.
#[must_use]
pub fn safe_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// The outermost ancestor of the current directory that holds a
/// `Cargo.lock` — the workspace root when run under cargo — or the
/// current directory itself when no lockfile is in sight.
#[must_use]
pub fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    cwd.ancestors()
        .filter(|dir| dir.join("Cargo.lock").is_file())
        .last()
        .map_or(cwd.clone(), PathBuf::from)
}

/// Builder for the cross product of workloads × configs × intervals ×
/// seeds, each cell carrying one scheme set.
///
/// Cell order is deterministic: workload-major, then config, then
/// interval, then seed — the same order a hand-rolled nested loop
/// would produce.
#[derive(Clone, Debug)]
pub struct Matrix {
    workloads: Vec<Workload>,
    configs: Vec<(String, SimConfig)>,
    intervals: Vec<u64>,
    seeds: Vec<u64>,
    schemes: Vec<Scheme>,
    golden: bool,
    tip: bool,
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::new()
    }
}

impl Matrix {
    /// An empty matrix with the default config, interval, seed and all
    /// schemes (plus the golden reference).
    #[must_use]
    pub fn new() -> Self {
        Matrix {
            workloads: Vec::new(),
            configs: vec![("default".to_string(), SimConfig::default())],
            intervals: vec![DEFAULT_INTERVAL],
            seeds: vec![DEFAULT_SEED],
            schemes: ALL_SCHEMES.to_vec(),
            golden: true,
            tip: false,
        }
    }

    /// Sets the workloads axis.
    #[must_use]
    pub fn workloads(mut self, workloads: Vec<Workload>) -> Self {
        self.workloads = workloads;
        self
    }

    /// Sets the core-configuration axis.
    #[must_use]
    pub fn configs(mut self, configs: Vec<(&str, SimConfig)>) -> Self {
        self.configs = configs
            .into_iter()
            .map(|(n, c)| (n.to_string(), c))
            .collect();
        self
    }

    /// Sets the sampling-interval axis.
    #[must_use]
    pub fn intervals(mut self, intervals: &[u64]) -> Self {
        self.intervals = intervals.to_vec();
        self
    }

    /// Sets the jitter-seed axis.
    #[must_use]
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Sets the scheme set attached to every cell.
    #[must_use]
    pub fn schemes(mut self, schemes: &[Scheme]) -> Self {
        self.schemes = schemes.to_vec();
        self
    }

    /// Toggles the golden reference on every cell.
    #[must_use]
    pub fn golden(mut self, golden: bool) -> Self {
        self.golden = golden;
        self
    }

    /// Toggles the TIP baseline on every cell.
    #[must_use]
    pub fn tip(mut self, tip: bool) -> Self {
        self.tip = tip;
        self
    }

    /// Expands the cross product into cell specs.
    #[must_use]
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut cells = Vec::with_capacity(
            self.workloads.len() * self.configs.len() * self.intervals.len() * self.seeds.len(),
        );
        for w in &self.workloads {
            for (cfg_name, cfg) in &self.configs {
                for &interval in &self.intervals {
                    for &seed in &self.seeds {
                        let mut spec = CellSpec::for_workload(w)
                            .config(cfg_name.clone(), cfg.clone())
                            .interval(interval)
                            .seed(seed)
                            .schemes(&self.schemes);
                        spec.golden = self.golden;
                        spec.tip = self.tip;
                        cells.push(spec);
                    }
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tea_workloads::{lbm, Size};

    #[test]
    fn matrix_expands_workload_major() {
        let m = Matrix::new()
            .workloads(vec![lbm::workload(Size::Test)])
            .configs(vec![
                ("little", SimConfig::little()),
                ("big", SimConfig::big()),
            ])
            .seeds(&[1, 2, 3]);
        let cells = m.cells();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].config_name, "little");
        assert_eq!(cells[0].seed, 1);
        assert_eq!(cells[2].seed, 3);
        assert_eq!(cells[3].config_name, "big");
        assert!(cells.iter().all(|c| c.workload == "lbm"));
    }

    #[test]
    fn one_cell_runs_all_observers_in_one_pass() {
        let spec = CellSpec::new("lbm", lbm::program(Size::Test)).with_tip();
        let run = Engine::serial().quiet().run("unit", vec![spec]);
        assert_eq!(run.cells.len(), 1);
        assert!(run.all_ok());
        assert_eq!(run.cells[0].attempts, 1);
        let c = run.cells[0].result().expect("cell completed");
        assert!(c.stats.cycles > 0);
        // Golden invariant: exact attribution covers every cycle (the
        // u64 counter exactly; the f64 PICS total up to 1/n rounding).
        let golden = c.golden.as_ref().expect("golden attached by default");
        assert_eq!(golden.total_cycles(), c.stats.cycles);
        assert!((golden.pics().total() - c.stats.cycles as f64).abs() < 1e-6);
        // TIP and all six schemes rode the same pass.
        assert!(c.tip.is_some());
        for s in ALL_SCHEMES {
            assert!(c.samples[&s] > 0, "{s} took no samples");
            let e = c.error(s, Granularity::Instruction).unwrap();
            assert!((0.0..=1.0).contains(&e), "{s} error {e}");
        }
    }

    #[test]
    fn stats_only_cells_carry_no_profiles() {
        let spec = CellSpec::new("lbm", lbm::program(Size::Test)).stats_only();
        let run = Engine::serial().quiet().run("stats", vec![spec]);
        let c = run.cells[0].result().expect("cell completed");
        assert!(c.golden.is_none() && c.tip.is_none() && c.pics.is_empty());
        assert!(c.stats.cycles > 0);
        assert!(c.error(Scheme::Tea, Granularity::Instruction).is_none());
    }

    #[test]
    fn json_artifact_is_valid() {
        let spec = CellSpec::new("lbm", lbm::program(Size::Test));
        let run = Engine::serial().quiet().run("json-unit", vec![spec]);
        let doc = run.to_json();
        json::validate(&doc.render()).expect("compact artifact must be valid JSON");
        json::validate(&doc.render_pretty()).expect("pretty artifact must be valid JSON");
        let text = doc.render();
        assert!(text.contains("\"schema\":\"tea-experiment/v2\""));
        assert!(text.contains("\"status\":\"ok\""));
        assert!(text.contains("\"cells_ok\":1"));
        assert!(text.contains("\"error_instruction\""));
        let summary = artifact::read_artifact(&text).expect("engine output reads back");
        assert!(summary.all_ok());
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        assert_eq!(backoff_delay(base, cap, 1), Duration::from_millis(50));
        assert_eq!(backoff_delay(base, cap, 2), Duration::from_millis(100));
        assert_eq!(backoff_delay(base, cap, 5), Duration::from_millis(800));
        assert_eq!(backoff_delay(base, cap, 9), cap);
        assert_eq!(backoff_delay(base, cap, 40), cap, "shift saturates");
        assert_eq!(backoff_delay(Duration::ZERO, cap, 3), Duration::ZERO);
    }
}
