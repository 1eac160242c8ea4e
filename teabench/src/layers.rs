//! The traced run: per-layer times and counts, taken by timing calls
//! into each crate's public functions from outside, plus one engine run
//! of the workload for the `tea-exp` layer.
//!
//! Every kernel goes through the same sweep whatever the workload, so
//! each per-layer metric is reported on every workload; the workload
//! decides the engine run and how the layer times add up to its
//! `wall_s` (see [`reconcile`]).

use std::sync::Arc;

use tea_core::golden::GoldenReference;
use tea_core::observers::ProfiledObservers;
use tea_exp::json::Json;
use tea_exp::{RunResult, TraceCache};
use tea_isa::interp::Machine;
use tea_isa::CapturedTrace;
use tea_obs::metrics::MetricValue;
use tea_sim::core::Core;
use tea_sim::SimConfig;
use tea_workloads::{all_workloads, Size};

use crate::check::{cell_key, Expected};
use crate::metrics::median;
use crate::span::Spans;
use crate::workload::{permute, Workload, INTERVAL, SCHEMES, SUITE_SEED};
use crate::Outcome;

/// Timed calls of `all_workloads` (a few milliseconds each).
const BUILD_REPEATS: usize = 9;

/// Runs of each timing-model configuration per kernel, in rounds of
/// bare, golden, profiled and then the reverse, averaged. The observer
/// costs are differences of two runs; in this order a drift of the
/// host's speed that is linear over the rounds cancels out of them.
/// Must be even.
const SIM_REPEATS: usize = 2;

/// The recorded set whose cells carry every output a kernel's sweep is
/// checked against.
const REFERENCE_SET: &str = "suite-ref";

/// Per-layer host times summed over the kernels, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    /// `Machine::new` plus `run` to halt.
    pub interp: f64,
    /// `CapturedTrace::capture_default`.
    pub capture: f64,
    /// `decode_block_into` over every block.
    pub decode: f64,
    /// Live `Core::new` plus `run(&mut [])`.
    pub run: f64,
    /// The same run over `Core::with_trace`.
    pub replay: f64,
    /// Live run with the golden reference attached.
    pub golden_run: f64,
    /// Live run with golden plus the five schemes attached.
    pub profiled_run: f64,
    /// Time in `Engine::run` for the workload's cells.
    pub engine: f64,
    /// Σ `CellResult::wall` over those cells.
    pub cells: f64,
}

impl LayerTimes {
    /// The golden observer's cost: the golden-only run minus the bare
    /// run. Differences of two host timings can fall below zero when
    /// the true cost is under the host's noise; they read 0 then.
    #[must_use]
    pub fn golden_s(&self) -> f64 {
        (self.golden_run - self.run).max(0.0)
    }

    /// The five schemes' cost: the profiled run minus the golden-only
    /// run, read as 0 below the host's noise.
    #[must_use]
    pub fn sampling_s(&self) -> f64 {
        (self.profiled_run - self.golden_run).max(0.0)
    }

    /// Engine time outside the cells' own walls.
    #[must_use]
    pub fn overhead_s(&self) -> f64 {
        (self.engine - self.cells).max(0.0)
    }
}

/// Each layer's self time in the workload's engine run, as `(layer,
/// seconds)`, modelled from the per-kernel sweep: what each cell of the
/// workload executes, layer by layer.
#[must_use]
pub fn reconcile(workload: Workload, t: &LayerTimes) -> Vec<(&'static str, f64)> {
    let overhead = t.overhead_s();
    if !workload.profiled() {
        // Live cells with no observers: the interpreter feeds the model.
        return vec![
            ("isa", t.interp),
            ("sim", t.run - t.interp),
            ("exp", overhead),
        ];
    }
    // Cache-on cells: each program is captured once and replayed by
    // each of its seeds; golden is computed once per program and shared,
    // the schemes run on every cell.
    let seeds = workload.jitter_seeds().len() as f64;
    vec![
        ("isa", t.capture + seeds * t.decode),
        ("sim", seeds * (t.replay - t.decode)),
        ("core", t.golden_s() + seeds * t.sampling_s()),
        ("exp", overhead),
    ]
}

/// Runs the traced measurement of `workload`: the per-kernel sweep in
/// the order the seed gives, then the workload's engine run, with every
/// call recorded in `spans`. Reports every per-layer metric, and returns
/// beside them the reconciliation of the layer times against the engine
/// run. The benchmark runs it at `Size::Ref`; the self-tests at
/// `Size::Test`.
#[must_use]
pub fn run(
    workload: Workload,
    seed: u64,
    size: Size,
    expected: &Expected,
    spans: &mut Spans,
) -> (Outcome, Json) {
    let mut out = Outcome::default();
    spans.enter("bench.traced", workload.name());

    let mut builds = Vec::with_capacity(BUILD_REPEATS);
    let mut kernels = Vec::new();
    for _ in 0..BUILD_REPEATS {
        let (k, secs) = spans.time("workloads.build", "all_workloads", || all_workloads(size));
        builds.push(secs);
        kernels = k;
    }
    let mut order: Vec<&tea_workloads::Workload> = kernels.iter().collect();
    permute(&mut order, seed);

    let mut t = LayerTimes::default();
    let mut counts = Counts::default();
    for k in order {
        out.attempted += 1;
        spans.enter("bench.kernel", k.name);
        if let Err(e) = sweep(k, expected, spans, &mut t, &mut counts) {
            out.failures.push(format!("{}: {e}", k.name));
        }
        spans.exit();
    }

    let mut cells = workload.cells(&kernels);
    permute(&mut cells, seed);
    out.attempted += cells.len() as u64;
    let engine = workload.engine();
    let cache = TraceCache::new();
    let (run, engine_secs) = spans.time("exp.run", workload.name(), || {
        if workload.profiled() {
            engine.run_with_cache(workload.name(), cells, &cache)
        } else {
            engine.run(workload.name(), cells)
        }
    });
    let snapshot = tea_obs::metrics::global().snapshot();
    let resident = match snapshot.metrics().get("trace_cache.resident_bytes") {
        Some(MetricValue::Gauge(v)) => *v as f64,
        _ => 0.0,
    };
    drop(cache);
    out.failures.extend(expected.check(workload.name(), &run));
    t.engine = engine_secs;
    t.cells = run.cells.iter().map(|c| c.wall.as_secs_f64()).sum();
    let (_, artifact_secs) = spans.time("exp.artifact", workload.name(), || {
        std::hint::black_box(run.to_json())
    });
    spans.exit();

    let layers = reconcile(workload, &t);
    let accounted: f64 = layers.iter().map(|&(_, s)| s).sum();
    let r = &mut out.report;
    r.per_layer("workloads.build_s", median(&builds));
    r.per_layer("isa.interp_s", t.interp);
    r.per_layer("isa.insts", counts.insts as f64);
    r.per_layer("isa.capture_s", t.capture);
    r.per_layer("isa.decode_s", t.decode);
    r.per_layer("isa.trace_bytes", counts.trace_bytes as f64);
    r.per_layer("sim.run_s", t.run);
    r.per_layer("sim.replay_run_s", t.replay);
    r.per_layer("sim.cycles", counts.cycles as f64);
    r.per_layer("sim.active_cycles", counts.active_cycles as f64);
    r.per_layer("sim.skipped_cycles", counts.skipped_cycles as f64);
    r.per_layer(
        "sim.ns_per_active_cycle",
        t.run / counts.active_cycles.max(1) as f64 * 1e9,
    );
    r.per_layer("core.golden_s", t.golden_s());
    r.per_layer("core.sampling_s", t.sampling_s());
    r.per_layer("core.samples", counts.samples as f64);
    r.per_layer("exp.cell_s", t.cells);
    r.per_layer("exp.overhead_s", t.overhead_s());
    r.per_layer(
        "exp.trace_cache.hits",
        snapshot.counter("trace_cache.hits").unwrap_or(0) as f64,
    );
    r.per_layer(
        "exp.trace_cache.misses",
        snapshot.counter("trace_cache.misses").unwrap_or(0) as f64,
    );
    r.per_layer("exp.trace_cache.resident_bytes", resident);
    r.per_layer("exp.artifact_s", artifact_secs);
    r.per_layer("trace.unaccounted_frac", 1.0 - accounted / t.engine);
    (out, reconciliation_json(&layers, &t, &run))
}

/// The timing-model configurations of the sweep.
#[derive(Clone, Copy)]
enum SimRun {
    /// No observers.
    Bare,
    /// The golden reference alone.
    Golden,
    /// Golden plus the five schemes.
    Profiled,
}

/// Exact work counts summed over the kernels.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    insts: u64,
    trace_bytes: u64,
    cycles: u64,
    active_cycles: u64,
    skipped_cycles: u64,
    samples: u64,
}

/// One kernel through every layer, each call in its own span, checking
/// each layer's outputs against the recorded ones.
fn sweep(
    k: &tea_workloads::Workload,
    expected: &Expected,
    spans: &mut Spans,
    t: &mut LayerTimes,
    counts: &mut Counts,
) -> Result<(), String> {
    let want = expected
        .cell(REFERENCE_SET, &format!("{}/{SUITE_SEED}", k.name))
        .ok_or("no recorded outputs")?;
    let field = |name: &str| want.get(name).and_then(Json::as_u64);
    let want_insts = field("instructions").ok_or("recorded cell lacks instructions")?;
    let want_cycles = field("cycles").ok_or("recorded cell lacks cycles")?;
    let want_samples: u64 = SCHEMES
        .iter()
        .filter_map(|s| want.get("samples")?.get(s.name())?.as_u64())
        .sum();
    let program = &k.program;
    let cfg = SimConfig::default();

    let (committed, secs) = spans.time("isa.interp", k.name, || {
        let mut m = Machine::new(program);
        m.run(u64::MAX);
        m.is_halted().then(|| m.committed())
    });
    t.interp += secs;
    if committed != Some(want_insts) {
        return Err(format!(
            "interpreter committed {committed:?}, recorded {want_insts}"
        ));
    }
    counts.insts += want_insts;

    let (trace, secs) = spans.time("isa.capture", k.name, || {
        CapturedTrace::capture_default(program)
    });
    t.capture += secs;
    let trace = Arc::new(trace.ok_or("capture diverged")?);
    if trace.len() != want_insts || trace.error().is_some() {
        return Err(format!("captured {} instructions", trace.len()));
    }
    counts.trace_bytes += trace.resident_bytes() as u64;

    let mut buf = Vec::new();
    let (decoded, secs) = spans.time("isa.decode", k.name, || {
        let mut n = 0u64;
        for block in 0..trace.num_blocks() {
            trace
                .decode_block_into(program, block, &mut buf)
                .map_err(|e| e.to_string())?;
            n += buf.len() as u64;
        }
        Ok::<u64, String>(n)
    });
    t.decode += secs;
    if decoded? != want_insts {
        return Err("decode sweep does not cover the trace".to_string());
    }

    let mut bare = 0.0;
    let mut golden = 0.0;
    let mut profiled = 0.0;
    for pass in 0..SIM_REPEATS {
        let mut order = [SimRun::Bare, SimRun::Golden, SimRun::Profiled];
        if pass % 2 == 1 {
            order.reverse();
        }
        for which in order {
            match which {
                SimRun::Bare => {
                    let ((stats, breakdown), secs) = spans.time("sim.run", k.name, || {
                        let mut core = Core::new(program, cfg.clone());
                        (core.run(&mut []), core.cycle_breakdown())
                    });
                    bare += secs;
                    if stats.cycles != want_cycles || stats.retired != want_insts {
                        return Err(format!("live run took {} cycles", stats.cycles));
                    }
                    if pass == 0 {
                        counts.cycles += stats.cycles;
                        counts.active_cycles += breakdown.active_cycles;
                        counts.skipped_cycles += breakdown.skipped_cycles;
                    }
                }
                SimRun::Golden => {
                    let (attributed, secs) = spans.time("core.golden_run", k.name, || {
                        let mut g = GoldenReference::new();
                        Core::new(program, cfg.clone()).run_with(&mut g);
                        g.total_cycles()
                    });
                    golden += secs;
                    if attributed != want_cycles {
                        return Err(format!("golden attributed {attributed} cycles"));
                    }
                }
                SimRun::Profiled => {
                    let (samples, secs) = spans.time("core.profiled_run", k.name, || {
                        let mut obs = ProfiledObservers::new(INTERVAL, SUITE_SEED);
                        Core::new(program, cfg.clone()).run_with(&mut obs);
                        obs.samples()
                    });
                    profiled += secs;
                    if samples != want_samples {
                        return Err(format!("profiled run took {samples} samples"));
                    }
                    if pass == 0 {
                        counts.samples += samples;
                    }
                }
            }
        }
    }
    let rounds = SIM_REPEATS as f64;
    t.run += bare / rounds;
    t.golden_run += golden / rounds;
    t.profiled_run += profiled / rounds;

    let (stats, secs) = spans.time("sim.replay_run", k.name, || {
        Core::with_trace(program, Arc::clone(&trace), cfg.clone()).run(&mut [])
    });
    t.replay += secs;
    if stats.cycles != want_cycles {
        return Err(format!("replay took {} cycles", stats.cycles));
    }
    Ok(())
}

/// The reconciliation written beside the spans: each layer's modelled
/// self time in the engine run, the measured totals it was built from,
/// and the engine's own per-cell walls.
fn reconciliation_json(layers: &[(&str, f64)], t: &LayerTimes, run: &RunResult) -> Json {
    Json::obj(vec![
        (
            "layer_self_s",
            Json::Obj(
                layers
                    .iter()
                    .map(|&(l, s)| (l.to_string(), Json::Num(s)))
                    .collect(),
            ),
        ),
        ("engine_wall_s", Json::Num(t.engine)),
        (
            "sweep_s",
            Json::obj(vec![
                ("interp", Json::Num(t.interp)),
                ("capture", Json::Num(t.capture)),
                ("decode", Json::Num(t.decode)),
                ("run", Json::Num(t.run)),
                ("replay", Json::Num(t.replay)),
                ("golden_run", Json::Num(t.golden_run)),
                ("profiled_run", Json::Num(t.profiled_run)),
            ]),
        ),
        (
            "cell_wall_s",
            Json::Obj(
                run.cells
                    .iter()
                    .map(|c| (cell_key(c), Json::Num(c.wall.as_secs_f64())))
                    .collect(),
            ),
        ),
    ])
}
