//! Criterion benchmark of end-to-end simulator throughput: bare
//! simulated cycles/second, the same run under the full profiled
//! observer set (golden reference plus the five sampling schemes), and
//! the profiled run replaying a pre-captured instruction trace.
//!
//! `tea-cli bench` measures the identical code paths and writes the
//! tracked `BENCH_sim_throughput.json` artifact; this harness exists so
//! `cargo bench --bench sim_throughput` gives the same numbers with
//! criterion's warmup/batching for quick local before/after comparison.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tea_bench::throughput::{profiled_replay_run, profiled_run};
use tea_bench::HARNESS_SEED;
use tea_isa::CapturedTrace;
use tea_sim::core::simulate;
use tea_sim::SimConfig;
use tea_workloads::{all_workloads, Size, Workload};

const SAMPLE_INTERVAL: u64 = 512;

fn representative_workloads() -> Vec<Workload> {
    // A memory-bound, a pointer-chasing, and a control-heavy workload
    // cover the simulator's distinct hot-path mixes without the full
    // suite's bench runtime.
    all_workloads(Size::Test)
        .into_iter()
        .filter(|w| matches!(w.name, "lbm" | "mcf" | "gcc"))
        .collect()
}

fn bench_bare_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_throughput/bare");
    for w in representative_workloads() {
        let cycles = simulate(&w.program, SimConfig::default(), &mut []).cycles;
        g.throughput(Throughput::Elements(cycles));
        g.bench_function(w.name, |b| {
            b.iter(|| simulate(&w.program, SimConfig::default(), &mut []))
        });
    }
    g.finish();
}

fn bench_profiled_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_throughput/profiled");
    for w in representative_workloads() {
        let (cycles, _) = profiled_run(&w, SAMPLE_INTERVAL, HARNESS_SEED);
        g.throughput(Throughput::Elements(cycles));
        g.bench_function(w.name, |b| {
            b.iter(|| profiled_run(&w, SAMPLE_INTERVAL, HARNESS_SEED))
        });
    }
    g.finish();
}

fn bench_replayed_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_throughput/replay");
    for w in representative_workloads() {
        let trace =
            Arc::new(CapturedTrace::capture_default(&w.program).expect("bench workloads halt"));
        let (cycles, _) = profiled_replay_run(&w.program, &trace, SAMPLE_INTERVAL, HARNESS_SEED);
        g.throughput(Throughput::Elements(cycles));
        g.bench_function(w.name, |b| {
            b.iter(|| profiled_replay_run(&w.program, &trace, SAMPLE_INTERVAL, HARNESS_SEED))
        });
    }
    g.finish();
}

fn bench_sample_attribution(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_throughput/samples");
    for w in representative_workloads() {
        let (_, samples) = profiled_run(&w, SAMPLE_INTERVAL, HARNESS_SEED);
        g.throughput(Throughput::Elements(samples));
        g.bench_function(w.name, |b| {
            b.iter(|| profiled_run(&w, SAMPLE_INTERVAL, HARNESS_SEED))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_bare_sim,
    bench_profiled_sim,
    bench_replayed_sim,
    bench_sample_attribution
);
criterion_main!(benches);
