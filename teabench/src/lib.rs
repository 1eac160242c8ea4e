//! The TEA reproduction's benchmark: three single-worker workloads
//! through the public `tea_exp::Engine` API with an output check on every
//! run, and a traced run timing each crate's public functions from
//! outside. See `README.md` beside this crate for the metrics.

pub mod check;
pub mod e2e;
pub mod layers;
pub mod metrics;
pub mod span;
pub mod workload;

use crate::metrics::Report;

/// What a run measured and how many of its operations failed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations run: cells, plus kernel sweeps in a traced run.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// The metrics.
    pub report: Report,
}
