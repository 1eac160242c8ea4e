//! Structured errors for the experiment engine.
//!
//! Every way a cell can go wrong maps to one [`ExpError`] variant, so a
//! failed cell is a first-class value in the run artifact instead of a
//! torn-down thread pool: configuration rejects before simulation,
//! architectural program faults and injected failures during it, cycle
//! budgets around it, and journal problems when resuming.

use std::error::Error;
use std::fmt;

use tea_sim::SimError;

/// Why a cell failed (or was cut short).
#[derive(Clone, Debug, PartialEq)]
pub enum ExpError {
    /// The cell's `SimConfig`, or a spec parameter its observers need
    /// (a nonzero sampling interval), was rejected before the core was
    /// built. Never retried: validation is deterministic.
    Config(SimError),
    /// The simulated program faulted architecturally mid-run.
    Sim(SimError),
    /// The cell exceeded its cycle budget without halting.
    Timeout {
        /// The budget that was exceeded, in simulated cycles.
        budget: u64,
    },
    /// The cell body panicked; the payload message was captured by
    /// `catch_unwind`.
    Panic {
        /// The panic payload, downcast to a string where possible.
        message: String,
    },
    /// A failure injected by [`crate::Fault`] (used by the fault-injection
    /// tests and the CLI smoke job).
    Injected {
        /// 1-based attempt number that observed the injection.
        attempt: u32,
    },
    /// The resume journal could not be read or did not match the run.
    Journal {
        /// What went wrong.
        reason: String,
    },
    /// An artifact file was truncated or not JSON at all — the
    /// signature of a torn write (crash mid-write, partial copy).
    /// The atomic temp-file+rename protocol makes this impossible for
    /// artifacts written by this engine, so seeing it means the file
    /// was damaged after the fact.
    ArtifactTorn {
        /// What went wrong.
        reason: String,
    },
    /// An artifact file parsed as JSON but violated the
    /// `tea-experiment` schema — wrong or missing schema tag, or
    /// malformed cells. Unlike [`ExpError::ArtifactTorn`], the write
    /// completed; the *contents* are from a different producer or
    /// version.
    ArtifactSchema {
        /// What went wrong.
        reason: String,
    },
    /// The cell never ran: an earlier cell failed while the engine was
    /// in fail-fast mode. Resume re-runs skipped cells.
    Skipped,
}

impl ExpError {
    /// Stable machine-readable tag used in artifacts and journals.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ExpError::Config(_) => "config",
            ExpError::Sim(_) => "sim",
            ExpError::Timeout { .. } => "timeout",
            ExpError::Panic { .. } => "panic",
            ExpError::Injected { .. } => "injected",
            ExpError::Journal { .. } => "journal",
            ExpError::ArtifactTorn { .. } => "artifact-torn",
            ExpError::ArtifactSchema { .. } => "artifact-schema",
            ExpError::Skipped => "skipped",
        }
    }

    /// Whether retrying the cell could plausibly change the outcome.
    /// Deterministic failures (bad config, architectural faults, cycle
    /// budgets) are final; panics and injected faults may be transient
    /// (a poisoned lock, an injected flake).
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, ExpError::Panic { .. } | ExpError::Injected { .. })
    }
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::Config(e) => write!(f, "cell rejected: {e}"),
            ExpError::Sim(e) => write!(f, "cell failed: {e}"),
            ExpError::Timeout { budget } => {
                write!(f, "cell exceeded its {budget}-cycle budget")
            }
            ExpError::Panic { message } => write!(f, "cell panicked: {message}"),
            ExpError::Injected { attempt } => {
                write!(f, "injected fault on attempt {attempt}")
            }
            ExpError::Journal { reason } => write!(f, "journal error: {reason}"),
            ExpError::ArtifactTorn { reason } => {
                write!(f, "artifact torn: {reason}")
            }
            ExpError::ArtifactSchema { reason } => {
                write!(f, "artifact schema violation: {reason}")
            }
            ExpError::Skipped => {
                write!(
                    f,
                    "cell skipped: an earlier cell failed with fail-fast enabled"
                )
            }
        }
    }
}

impl Error for ExpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExpError::Config(e) | ExpError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_and_transience_is_conservative() {
        let timeout = ExpError::Timeout { budget: 100 };
        assert_eq!(timeout.kind(), "timeout");
        assert!(!timeout.is_transient(), "cycle budgets are deterministic");
        let panic = ExpError::Panic {
            message: "boom".into(),
        };
        assert_eq!(panic.kind(), "panic");
        assert!(panic.is_transient());
        assert!(panic.to_string().contains("boom"));
    }
}
