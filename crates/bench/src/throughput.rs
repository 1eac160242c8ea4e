//! Simulator-throughput measurement: the `tea-cli bench` backend.
//!
//! Every figure and table of the reproduction is bottlenecked by the
//! same hot path — `Core::try_run_for` driving the attribution
//! observers — so this module measures exactly that, in two
//! configurations per workload:
//!
//! * **sim** — the bare simulator with no observers attached (upper
//!   bound: timing model only);
//! * **profiled** — the standard experiment configuration: the golden
//!   reference plus all five sampling schemes, i.e. the load every
//!   harness cell pays.
//!
//! The headline metrics are simulated cycles per wall-clock second and
//! sample-attribution throughput (samples resolved per second). Since
//! the capture/replay subsystem landed, each workload is additionally
//! timed in a third configuration:
//!
//! * **replay** — the profiled configuration fed from a pre-captured
//!   [`CapturedTrace`] instead of the live interpreter. The experiment
//!   engine no longer replays (every cell interprets live); the column
//!   stays as a measurement of the capture/replay layer.
//!
//! Results are written to
//! `BENCH_sim_throughput.json` at the workspace root in a stable schema
//! (`tea-bench-throughput/v1`) so the release-to-release trajectory is
//! machine-trackable; see [`render_artifact`].

use std::sync::Arc;
use std::time::Instant;

use tea_core::golden::GoldenReference;
use tea_core::observers::ProfiledObservers;
use tea_exp::json::Json;
use tea_isa::CapturedTrace;
use tea_sim::core::Core;
use tea_sim::SimConfig;
use tea_workloads::Workload;

/// Measured throughput of one workload.
#[derive(Clone, Debug)]
pub struct WorkloadThroughput {
    /// Workload name.
    pub name: String,
    /// Simulated cycles of one run.
    pub cycles: u64,
    /// Retired instructions of one run.
    pub instructions: u64,
    /// Samples attributed across all schemes in the profiled run.
    pub samples: u64,
    /// Cycles the profiled run actually ticked through the pipeline
    /// (total minus fast-forwarded), from
    /// [`tea_sim::CycleBreakdown`].
    pub active_cycles: u64,
    /// Cycles the profiled run skipped via stall fast-forward.
    pub skipped_cycles: u64,
    /// Best wall time of the bare simulation (seconds).
    pub sim_wall: f64,
    /// Best wall time with golden + all schemes attached (seconds).
    pub profiled_wall: f64,
    /// Best wall time of the same profiled configuration with the
    /// flight-recorder sampler ([`tea_obs::series::Sampler`]) running at
    /// its default interval — what a suite run with `--series-out` pays.
    pub sampled_wall: f64,
    /// Wall time of one trace capture.
    pub capture_wall: f64,
    /// Best wall time of decoding every compressed block of the
    /// captured trace into reconstructed instructions — the pure codec
    /// share of the replay path, isolated from timing simulation.
    pub decode_wall: f64,
    /// Best wall time of the profiled configuration replaying the
    /// captured trace instead of interpreting live.
    pub replay_wall: f64,
    /// Best wall time with only the golden reference attached — the
    /// cost of publishing a shared golden, which a matrix pays once per
    /// `(program, config)` pair.
    pub golden_wall: f64,
    /// Resident heap bytes of the compressed captured trace.
    pub trace_resident_bytes: u64,
    /// Bytes the same stream occupied in the uncompressed
    /// structure-of-arrays layout (21 B per captured instruction).
    pub trace_uncompressed_bytes: u64,
}

impl WorkloadThroughput {
    /// Simulated cycles per second, bare simulator.
    #[must_use]
    pub fn sim_cycles_per_second(&self) -> f64 {
        rate(self.cycles as f64, self.sim_wall)
    }

    /// Simulated cycles per second under the full profiler set.
    #[must_use]
    pub fn profiled_cycles_per_second(&self) -> f64 {
        rate(self.cycles as f64, self.profiled_wall)
    }

    /// Samples attributed per second in the profiled configuration.
    #[must_use]
    pub fn samples_per_second(&self) -> f64 {
        rate(self.samples as f64, self.profiled_wall)
    }

    /// Simulated cycles per second, profiled with the metrics sampler
    /// running.
    #[must_use]
    pub fn sampled_cycles_per_second(&self) -> f64 {
        rate(self.cycles as f64, self.sampled_wall)
    }

    /// Wall-clock inflation from the sampler: `sampled_wall /
    /// profiled_wall`. 1.0 means free; 1.02 means 2% slower with the
    /// flight recorder on.
    #[must_use]
    pub fn sampler_overhead(&self) -> f64 {
        if self.profiled_wall > 0.0 {
            self.sampled_wall / self.profiled_wall
        } else {
            0.0
        }
    }

    /// Simulated cycles per second, profiled and replaying the
    /// captured trace.
    #[must_use]
    pub fn replay_cycles_per_second(&self) -> f64 {
        rate(self.cycles as f64, self.replay_wall)
    }
}

fn rate(n: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        n / secs
    } else {
        0.0
    }
}

/// `num / den` as a JSON value, guarded against degenerate
/// denominators: a zero, negative, or non-finite denominator — and any
/// non-finite quotient — yields [`Json::Null`] instead of a `NaN`/`inf`
/// smuggled through [`Json::Num`]. Keeps every ratio field in
/// `BENCH_sim_throughput.json` either a finite number or `null`.
fn json_ratio(num: f64, den: f64) -> Json {
    if !(den.is_finite() && den > 0.0) {
        return Json::Null;
    }
    let r = num / den;
    if r.is_finite() {
        Json::Num(r)
    } else {
        Json::Null
    }
}

/// A full suite measurement.
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// Workload size the suite ran at (`"test"` or `"ref"`).
    pub size: String,
    /// Sampling interval of the profiled configuration.
    pub interval: u64,
    /// Timed repetitions per configuration (best-of is reported).
    pub iterations: u32,
    /// Per-workload measurements.
    pub workloads: Vec<WorkloadThroughput>,
}

impl ThroughputReport {
    /// Total simulated cycles across the suite (one run each).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.workloads.iter().map(|w| w.cycles).sum()
    }

    /// Total samples attributed across the suite.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.workloads.iter().map(|w| w.samples).sum()
    }

    /// Total cycles the profiled runs actually ticked (the complement
    /// of [`ThroughputReport::total_skipped_cycles`]).
    #[must_use]
    pub fn total_active_cycles(&self) -> u64 {
        self.workloads.iter().map(|w| w.active_cycles).sum()
    }

    /// Total cycles the profiled runs fast-forwarded past.
    #[must_use]
    pub fn total_skipped_cycles(&self) -> u64 {
        self.workloads.iter().map(|w| w.skipped_cycles).sum()
    }

    /// Aggregate bare-simulator cycles per second (total cycles over
    /// total best wall time).
    #[must_use]
    pub fn sim_cycles_per_second(&self) -> f64 {
        let wall: f64 = self.workloads.iter().map(|w| w.sim_wall).sum();
        rate(self.total_cycles() as f64, wall)
    }

    /// Aggregate profiled cycles per second.
    #[must_use]
    pub fn profiled_cycles_per_second(&self) -> f64 {
        let wall: f64 = self.workloads.iter().map(|w| w.profiled_wall).sum();
        rate(self.total_cycles() as f64, wall)
    }

    /// Aggregate samples attributed per second.
    #[must_use]
    pub fn samples_per_second(&self) -> f64 {
        let wall: f64 = self.workloads.iter().map(|w| w.profiled_wall).sum();
        rate(self.total_samples() as f64, wall)
    }

    /// Aggregate profiled cycles per second over the replay path.
    #[must_use]
    pub fn replay_cycles_per_second(&self) -> f64 {
        let wall: f64 = self.workloads.iter().map(|w| w.replay_wall).sum();
        rate(self.total_cycles() as f64, wall)
    }

    /// Aggregate profiled cycles per second with the sampler running.
    #[must_use]
    pub fn sampled_cycles_per_second(&self) -> f64 {
        let wall: f64 = self.workloads.iter().map(|w| w.sampled_wall).sum();
        rate(self.total_cycles() as f64, wall)
    }

    /// Suite-wide sampler overhead: total sampled wall over total
    /// profiled wall (0.0 when nothing was measured).
    #[must_use]
    pub fn sampler_overhead(&self) -> f64 {
        let profiled: f64 = self.workloads.iter().map(|w| w.profiled_wall).sum();
        let sampled: f64 = self.workloads.iter().map(|w| w.sampled_wall).sum();
        if profiled > 0.0 {
            sampled / profiled
        } else {
            0.0
        }
    }

    /// Total resident bytes of all compressed captured traces.
    #[must_use]
    pub fn total_trace_resident_bytes(&self) -> u64 {
        self.workloads.iter().map(|w| w.trace_resident_bytes).sum()
    }

    /// Total bytes the same traces occupied uncompressed.
    #[must_use]
    pub fn total_trace_uncompressed_bytes(&self) -> u64 {
        self.workloads
            .iter()
            .map(|w| w.trace_uncompressed_bytes)
            .sum()
    }

    /// The aggregate measurement as a JSON object (the shape of the
    /// artifact's `before` / `after` fields).
    #[must_use]
    pub fn summary_json(&self) -> Json {
        Json::obj(vec![
            ("cycles", Json::UInt(self.total_cycles())),
            ("samples", Json::UInt(self.total_samples())),
            // Engine-level cycle breakdown of the profiled runs: how
            // much of the simulated time was actually ticked vs skipped
            // by stall fast-forward. Diagnostic only — identical
            // simulation results regardless of the split.
            ("active_cycles", Json::UInt(self.total_active_cycles())),
            ("skipped_cycles", Json::UInt(self.total_skipped_cycles())),
            (
                "sim_cycles_per_second",
                Json::Num(self.sim_cycles_per_second()),
            ),
            (
                "profiled_cycles_per_second",
                Json::Num(self.profiled_cycles_per_second()),
            ),
            (
                "replay_cycles_per_second",
                Json::Num(self.replay_cycles_per_second()),
            ),
            ("samples_per_second", Json::Num(self.samples_per_second())),
            (
                "sampled_cycles_per_second",
                Json::Num(self.sampled_cycles_per_second()),
            ),
            (
                "sampler_overhead",
                json_ratio(
                    self.workloads.iter().map(|w| w.sampled_wall).sum(),
                    self.workloads.iter().map(|w| w.profiled_wall).sum(),
                ),
            ),
            (
                "trace_resident_bytes",
                Json::UInt(self.total_trace_resident_bytes()),
            ),
            (
                "trace_compression",
                json_ratio(
                    self.total_trace_uncompressed_bytes() as f64,
                    self.total_trace_resident_bytes() as f64,
                ),
            ),
        ])
    }

    /// The per-workload rows as a JSON array.
    #[must_use]
    pub fn workloads_json(&self) -> Json {
        Json::Arr(
            self.workloads
                .iter()
                .map(|w| {
                    Json::obj(vec![
                        ("name", Json::Str(w.name.clone())),
                        ("cycles", Json::UInt(w.cycles)),
                        ("instructions", Json::UInt(w.instructions)),
                        ("samples", Json::UInt(w.samples)),
                        ("active_cycles", Json::UInt(w.active_cycles)),
                        ("skipped_cycles", Json::UInt(w.skipped_cycles)),
                        (
                            "sim_cycles_per_second",
                            Json::Num(w.sim_cycles_per_second()),
                        ),
                        (
                            "profiled_cycles_per_second",
                            Json::Num(w.profiled_cycles_per_second()),
                        ),
                        (
                            "replay_cycles_per_second",
                            Json::Num(w.replay_cycles_per_second()),
                        ),
                        // Per-phase wall times (best of the timed
                        // repetitions): where one workload's matrix
                        // cell actually spends its time.
                        ("sim_wall_seconds", Json::Num(w.sim_wall)),
                        ("profiled_wall_seconds", Json::Num(w.profiled_wall)),
                        ("sampled_wall_seconds", Json::Num(w.sampled_wall)),
                        (
                            "sampler_overhead",
                            json_ratio(w.sampled_wall, w.profiled_wall),
                        ),
                        ("capture_wall_seconds", Json::Num(w.capture_wall)),
                        ("block_decode_wall_seconds", Json::Num(w.decode_wall)),
                        ("replay_wall_seconds", Json::Num(w.replay_wall)),
                        ("golden_wall_seconds", Json::Num(w.golden_wall)),
                        ("samples_per_second", Json::Num(w.samples_per_second())),
                        ("trace_resident_bytes", Json::UInt(w.trace_resident_bytes)),
                        (
                            "trace_uncompressed_bytes",
                            Json::UInt(w.trace_uncompressed_bytes),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Runs `w` once under the standard profiled observer set
/// ([`tea_core::observers::ProfiledObservers`], statically dispatched
/// through `Core::run_with`), returning `(cycles, samples)`. This is
/// the exact workload one `profiled` cell of the throughput report
/// times; the criterion bench wraps it so the same code path can be
/// measured under `cargo bench`.
#[must_use]
pub fn profiled_run(w: &Workload, interval: u64, seed: u64) -> (u64, u64) {
    let mut obs = ProfiledObservers::new(interval, seed);
    let mut core = Core::new(&w.program, SimConfig::default());
    let stats = core.run_with(&mut obs);
    (stats.cycles, obs.samples())
}

/// [`profiled_run`] over the replay path: the same observer set, the
/// same timing model, but the instruction stream comes from `trace`
/// instead of the live interpreter.
#[must_use]
pub fn profiled_replay_run(
    program: &tea_isa::program::Program,
    trace: &Arc<CapturedTrace>,
    interval: u64,
    seed: u64,
) -> (u64, u64) {
    let mut obs = ProfiledObservers::new(interval, seed);
    let mut core = Core::with_trace(program, Arc::clone(trace), SimConfig::default());
    let stats = core.run_with(&mut obs);
    (stats.cycles, obs.samples())
}

/// Measures one workload: `iters` timed runs of each configuration,
/// reporting the fastest (wall-clock noise shrinks the minimum, not the
/// mean). `cfg` is the core configuration every phase runs under (the
/// CLI maps `--no-fast-forward` onto it).
#[must_use]
pub fn measure_workload(
    w: &Workload,
    interval: u64,
    seed: u64,
    iters: u32,
    cfg: &SimConfig,
) -> WorkloadThroughput {
    let iters = iters.max(1);
    let mut cycles = 0;
    let mut instructions = 0;
    let mut sim_wall = f64::INFINITY;
    for _ in 0..iters {
        let mut core = Core::new(&w.program, cfg.clone());
        let t0 = Instant::now();
        let stats = core.run(&mut []);
        sim_wall = sim_wall.min(t0.elapsed().as_secs_f64());
        cycles = stats.cycles;
        instructions = stats.retired;
    }
    let mut samples = 0;
    let mut profiled_wall = f64::INFINITY;
    let mut active_cycles = 0;
    let mut skipped_cycles = 0;
    for _ in 0..iters {
        let mut obs = ProfiledObservers::new(interval, seed);
        let mut core = Core::new(&w.program, cfg.clone());
        let t0 = Instant::now();
        core.run_with(&mut obs);
        profiled_wall = profiled_wall.min(t0.elapsed().as_secs_f64());
        samples = obs.samples();
        let breakdown = core.cycle_breakdown();
        active_cycles = breakdown.active_cycles;
        skipped_cycles = breakdown.skipped_cycles;
    }
    // Same profiled configuration, but with the flight-recorder
    // sampler alive for the whole loop (one thread, default interval)
    // — the deployment shape of a suite run with `--series-out`.
    let mut sampled_wall = f64::INFINITY;
    {
        let sampler = tea_obs::series::Sampler::start(tea_obs::series::SamplerConfig::default());
        for _ in 0..iters {
            let mut obs = ProfiledObservers::new(interval, seed);
            let mut core = Core::new(&w.program, cfg.clone());
            let t0 = Instant::now();
            core.run_with(&mut obs);
            sampled_wall = sampled_wall.min(t0.elapsed().as_secs_f64());
        }
        drop(sampler.stop());
    }
    let mut golden_wall = f64::INFINITY;
    for _ in 0..iters {
        let mut golden = GoldenReference::new();
        let mut core = Core::new(&w.program, cfg.clone());
        let t0 = Instant::now();
        core.run_with(&mut golden);
        golden_wall = golden_wall.min(t0.elapsed().as_secs_f64());
    }
    let t0 = Instant::now();
    let trace =
        Arc::new(CapturedTrace::capture_default(&w.program).expect("benchmark workloads halt"));
    let capture_wall = t0.elapsed().as_secs_f64();
    // Pure block-decode sweep: every compressed block reconstructed
    // into a reused buffer, no timing model attached: the codec share
    // of a replay run.
    let mut decode_wall = f64::INFINITY;
    let mut buf = Vec::new();
    for _ in 0..iters {
        let t0 = Instant::now();
        let mut decoded = 0u64;
        for block in 0..trace.num_blocks() {
            trace
                .decode_block_into(&w.program, block, &mut buf)
                .expect("freshly captured trace decodes");
            decoded += buf.len() as u64;
        }
        decode_wall = decode_wall.min(t0.elapsed().as_secs_f64());
        assert_eq!(decoded, trace.len(), "decode sweep covers the stream");
    }
    let mut replay_wall = f64::INFINITY;
    for _ in 0..iters {
        let mut obs = ProfiledObservers::new(interval, seed);
        let mut core = Core::with_trace(&w.program, Arc::clone(&trace), cfg.clone());
        let t0 = Instant::now();
        core.run_with(&mut obs);
        replay_wall = replay_wall.min(t0.elapsed().as_secs_f64());
    }
    WorkloadThroughput {
        name: w.name.to_string(),
        cycles,
        instructions,
        samples,
        active_cycles,
        skipped_cycles,
        sim_wall,
        profiled_wall,
        sampled_wall,
        capture_wall,
        decode_wall,
        replay_wall,
        golden_wall,
        trace_resident_bytes: trace.resident_bytes() as u64,
        trace_uncompressed_bytes: trace.uncompressed_bytes() as u64,
    }
}

/// Measures a workload set at `interval`, `iters` repetitions each.
#[must_use]
pub fn measure_suite(
    workloads: &[Workload],
    size: &str,
    interval: u64,
    iters: u32,
    cfg: &SimConfig,
) -> ThroughputReport {
    ThroughputReport {
        size: size.to_string(),
        interval,
        iterations: iters.max(1),
        workloads: workloads
            .iter()
            .map(|w| measure_workload(w, interval, crate::HARNESS_SEED, iters, cfg))
            .collect(),
    }
}

/// Schema identifier of the throughput artifact.
pub const THROUGHPUT_SCHEMA: &str = "tea-bench-throughput/v1";

/// Builds the `BENCH_sim_throughput.json` document from the current
/// measurement plus an optional preserved baseline (`before`). When no
/// baseline exists yet, the current measurement doubles as the
/// baseline so the schema is stable from the first run.
#[must_use]
pub fn render_artifact(report: &ThroughputReport, before: Option<Json>) -> Json {
    let after = report.summary_json();
    let before = before.unwrap_or_else(|| after.clone());
    let ratio = |key: &str| {
        // A missing, zero, or (from a hand-edited or corrupted
        // baseline) non-finite field yields `null`, never NaN/inf.
        let b = before.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let a = after.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        json_ratio(a, b)
    };
    let speedup = Json::obj(vec![
        ("sim_cycles_per_second", ratio("sim_cycles_per_second")),
        (
            "profiled_cycles_per_second",
            ratio("profiled_cycles_per_second"),
        ),
        (
            "replay_cycles_per_second",
            ratio("replay_cycles_per_second"),
        ),
        ("samples_per_second", ratio("samples_per_second")),
    ]);
    Json::obj(vec![
        ("schema", Json::Str(THROUGHPUT_SCHEMA.to_string())),
        (
            "suite",
            Json::obj(vec![
                ("size", Json::Str(report.size.clone())),
                ("interval", Json::UInt(report.interval)),
                ("iterations", Json::UInt(u64::from(report.iterations))),
                ("workloads", Json::UInt(report.workloads.len() as u64)),
            ]),
        ),
        ("before", before),
        ("after", after),
        ("speedup", speedup),
        ("per_workload", report.workloads_json()),
    ])
}

/// Extracts the preserved baseline (`before` object) from an existing
/// artifact, if `text` parses as one with a matching schema.
#[must_use]
pub fn existing_baseline(text: &str) -> Option<Json> {
    let doc = tea_exp::json::parse(text).ok()?;
    if doc.get("schema")?.as_str()? != THROUGHPUT_SCHEMA {
        return None;
    }
    doc.get("before").cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tea_workloads::{all_workloads, Size};

    fn tiny_report() -> ThroughputReport {
        let w: Vec<Workload> = all_workloads(Size::Test)
            .into_iter()
            .filter(|w| w.name == "lbm")
            .collect();
        measure_suite(&w, "test", 512, 1, &SimConfig::default())
    }

    #[test]
    fn per_workload_rows_carry_finite_phase_walls() {
        let r = tiny_report();
        let doc = render_artifact(&r, None);
        let Json::Arr(rows) = doc.get("per_workload").unwrap() else {
            panic!("per_workload must be an array");
        };
        for key in [
            "sim_wall_seconds",
            "profiled_wall_seconds",
            "sampled_wall_seconds",
            "capture_wall_seconds",
            "block_decode_wall_seconds",
            "replay_wall_seconds",
            "golden_wall_seconds",
        ] {
            let v = rows[0]
                .get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{key} present and numeric"));
            assert!(v.is_finite() && v >= 0.0, "{key} = {v}");
        }
    }

    #[test]
    fn report_rates_are_positive_and_artifact_is_valid_json() {
        let r = tiny_report();
        assert!(r.total_cycles() > 0);
        assert!(r.total_samples() > 0);
        assert!(r.sim_cycles_per_second() > 0.0);
        assert!(r.profiled_cycles_per_second() > 0.0);
        assert!(r.profiled_cycles_per_second() <= r.sim_cycles_per_second() * 2.0);
        let doc = render_artifact(&r, None);
        let text = doc.render_pretty();
        tea_exp::json::validate(&text).expect("artifact is well-formed JSON");
        let parsed = tea_exp::json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(THROUGHPUT_SCHEMA)
        );
        // No baseline: before == after, speedup 1.0.
        let s = parsed.get("speedup").unwrap();
        let v = s
            .get("profiled_cycles_per_second")
            .and_then(Json::as_f64)
            .unwrap();
        assert!((v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampler_overhead_columns_are_present_and_sane() {
        let r = tiny_report();
        let w = &r.workloads[0];
        assert!(w.sampled_wall.is_finite() && w.sampled_wall > 0.0);
        assert!(w.sampler_overhead() > 0.0);
        assert!(r.sampled_cycles_per_second() > 0.0);
        assert!(r.sampler_overhead() > 0.0);
        let doc = render_artifact(&r, None);
        let after = doc.get("after").unwrap();
        assert!(after
            .get("sampled_cycles_per_second")
            .and_then(Json::as_f64)
            .is_some_and(|v| v > 0.0));
        let overhead = after
            .get("sampler_overhead")
            .and_then(Json::as_f64)
            .expect("suite sampler_overhead present and numeric");
        // Wall-clock noise on a tiny workload swamps the real cost;
        // just pin the ratio to a sane band rather than the 2% budget
        // the ref-size suite is held to.
        assert!((0.2..=5.0).contains(&overhead), "overhead {overhead}");
        let Json::Arr(rows) = doc.get("per_workload").unwrap() else {
            panic!("per_workload must be an array");
        };
        assert!(rows[0]
            .get("sampler_overhead")
            .and_then(Json::as_f64)
            .is_some());
    }

    #[test]
    fn degenerate_denominators_emit_null_not_nan() {
        // A zero or sub-resolution wall must not smuggle NaN/inf into
        // the artifact through Json::Num.
        assert_eq!(json_ratio(1.0, 0.0), Json::Null);
        assert_eq!(json_ratio(0.0, 0.0), Json::Null);
        assert_eq!(json_ratio(1.0, f64::NAN), Json::Null);
        assert_eq!(json_ratio(f64::NAN, 1.0), Json::Null);
        assert_eq!(json_ratio(1.0, -2.0), Json::Null);
        assert_eq!(json_ratio(3.0, 2.0), Json::Num(1.5));
    }

    #[test]
    fn corrupt_baseline_fields_yield_null_speedups() {
        let r = tiny_report();
        // A baseline with zero, missing and NaN rate fields: every
        // affected speedup must come out null, and the rendered text
        // must stay valid JSON with no NaN/inf anywhere.
        let bad = Json::obj(vec![
            ("cycles", Json::UInt(0)),
            ("sim_cycles_per_second", Json::Num(0.0)),
            ("profiled_cycles_per_second", Json::Num(f64::NAN)),
            // replay_cycles_per_second absent entirely.
            ("samples_per_second", Json::Null),
        ]);
        let doc = render_artifact(&r, Some(bad));
        let s = doc.get("speedup").unwrap();
        for key in [
            "sim_cycles_per_second",
            "profiled_cycles_per_second",
            "replay_cycles_per_second",
            "samples_per_second",
        ] {
            assert_eq!(s.get(key), Some(&Json::Null), "{key} must be null");
        }
        let text = doc.render_pretty();
        tea_exp::json::validate(&text).expect("artifact stays well-formed");
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
    }

    #[test]
    fn artifact_reports_trace_compression() {
        let r = tiny_report();
        assert!(r.total_trace_resident_bytes() > 0);
        assert!(
            r.total_trace_uncompressed_bytes() >= 3 * r.total_trace_resident_bytes(),
            "suite trace compression below 3x: {} -> {}",
            r.total_trace_uncompressed_bytes(),
            r.total_trace_resident_bytes()
        );
        let doc = render_artifact(&r, None);
        let after = doc.get("after").unwrap();
        assert!(after.get("trace_resident_bytes").is_some());
        let c = after
            .get("trace_compression")
            .and_then(Json::as_f64)
            .expect("compression ratio present and numeric");
        assert!(c >= 3.0, "compression ratio {c}");
        let Json::Arr(rows) = doc.get("per_workload").unwrap() else {
            panic!("per_workload must be an array");
        };
        assert!(rows[0].get("trace_resident_bytes").is_some());
        assert!(rows[0].get("trace_uncompressed_bytes").is_some());
    }

    #[test]
    fn baseline_is_preserved_across_reruns() {
        let r = tiny_report();
        let first = render_artifact(&r, None).render_pretty();
        let baseline = existing_baseline(&first).expect("baseline extractable");
        let doc = render_artifact(&r, Some(baseline.clone()));
        assert_eq!(doc.get("before"), Some(&baseline));
        // Garbage or schema-mismatched text yields no baseline.
        assert!(existing_baseline("not json").is_none());
        assert!(existing_baseline("{\"schema\": \"other/v9\"}").is_none());
    }
}
