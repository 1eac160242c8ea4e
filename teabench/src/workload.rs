//! The benchmark's three workloads and the set-up that builds them.
//!
//! Every workload runs the 18 kernels of `all_workloads(Size::Ref)` at
//! the default `SimConfig` and sampling interval 512 on a single-worker
//! engine (`Engine::new(1).quiet()`), so the load comes from one busy
//! thread. The `--seed` argument only permutes the order in which cells
//! are handed to the engine: every cell's outputs are order-independent,
//! so one recorded set of expected values checks every seed.

use std::time::Instant;

use tea_core::schemes::Scheme;
use tea_exp::{CellSpec, Engine};
use tea_workloads::{all_workloads, Size};

/// Sampling interval of every cell (the harnesses' default).
pub const INTERVAL: u64 = 512;

/// Jitter seed of suite-ref and sim-only, as `tea-cli suite` uses it.
pub const SUITE_SEED: u64 = 42;

/// Jitter seeds of seed-matrix: the suite seed plus one more, so every
/// program's trace and golden reference are built once and reused once.
const MATRIX_SEEDS: [u64; 2] = [42, 97];

/// The five sampling schemes of the paper's comparison.
pub const SCHEMES: [Scheme; 5] = [
    Scheme::Tea,
    Scheme::NciTea,
    Scheme::Ibs,
    Scheme::Spe,
    Scheme::Ris,
];

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper-reproduction run: 18 cells, golden plus five schemes,
    /// trace cache on (every program captured, then replayed once).
    SuiteRef,
    /// The 18 kernels times jitter seeds 42 and 97, trace cache on: each
    /// program's trace and golden reference are reused by its other seed.
    SeedMatrix,
    /// The 18 kernels with no observers and the trace cache off: the
    /// live interpreter and the timing model alone.
    SimOnly,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::SuiteRef, Workload::SeedMatrix, Workload::SimOnly];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteRef => "suite-ref",
            Workload::SeedMatrix => "seed-matrix",
            Workload::SimOnly => "sim-only",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jitter seeds each kernel runs under.
    #[must_use]
    pub fn jitter_seeds(self) -> &'static [u64] {
        match self {
            Workload::SeedMatrix => &MATRIX_SEEDS,
            Workload::SuiteRef | Workload::SimOnly => &[SUITE_SEED],
        }
    }

    /// Whether cells attach the golden reference and the schemes.
    #[must_use]
    pub fn profiled(self) -> bool {
        self != Workload::SimOnly
    }

    /// The workload's single-worker engine.
    #[must_use]
    pub fn engine(self) -> Engine {
        Engine::new(1).quiet().trace_cache(self.profiled())
    }

    /// The workload's cells in matrix order (kernel-major, then seed).
    #[must_use]
    pub fn cells(self, kernels: &[tea_workloads::Workload]) -> Vec<CellSpec> {
        let mut cells = Vec::with_capacity(kernels.len() * self.jitter_seeds().len());
        for k in kernels {
            for &seed in self.jitter_seeds() {
                let spec = CellSpec::for_workload(k).interval(INTERVAL).seed(seed);
                cells.push(if self.profiled() {
                    spec.schemes(&SCHEMES)
                } else {
                    spec.stats_only()
                });
            }
        }
        cells
    }
}

/// What one set-up produces: the kernels, the cells in run order, and
/// the engine that runs them.
pub struct Setup {
    /// The 18 kernels at ref size.
    pub kernels: Vec<tea_workloads::Workload>,
    /// The workload's cells, permuted by the benchmark seed.
    pub cells: Vec<CellSpec>,
    /// The single-worker engine.
    pub engine: Engine,
}

/// One set-up: `all_workloads(Size::Ref)`, the cells, and the engine.
/// Returns it with its duration in seconds.
#[must_use]
pub fn set_up(workload: Workload, seed: u64) -> (Setup, f64) {
    let t0 = Instant::now();
    let kernels = all_workloads(Size::Ref);
    let mut cells = workload.cells(&kernels);
    permute(&mut cells, seed);
    let engine = workload.engine();
    let secs = t0.elapsed().as_secs_f64();
    (
        Setup {
            kernels,
            cells,
            engine,
        },
        secs,
    )
}

/// A deterministic Fisher–Yates shuffle driven by splitmix64.
pub(crate) fn permute<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
