//! Structured errors for the timing simulator.
//!
//! Configuration problems are caught by [`crate::config::SimConfig::validate`]
//! before a core is built, and runtime program faults (a program counter
//! escaping the text segment) surface as [`SimError::Isa`] from
//! [`crate::core::Core::try_run_for`]. The experiment engine wraps both
//! in `ExpError` so one bad cell fails alone instead of tearing down a
//! whole suite.

use std::error::Error;
use std::fmt;

use tea_isa::{IsaError, TraceError};

/// Errors raised by the timing simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The configuration violates a structural invariant. `field` names
    /// the offending parameter and `reason` the violated constraint.
    InvalidConfig {
        /// Name of the offending configuration field.
        field: &'static str,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The simulated program faulted at the architectural level.
    Isa(IsaError),
    /// A replayed trace failed integrity checks mid-run. Unlike
    /// [`SimError::Isa`] this says nothing about the program: the same
    /// run under live interpretation can still succeed.
    Trace(TraceError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { field, reason } => {
                write!(f, "invalid config: {field}: {reason}")
            }
            SimError::Isa(e) => write!(f, "program fault: {e}"),
            SimError::Trace(e) => write!(f, "replay trace corrupt: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Isa(e) => Some(e),
            SimError::Trace(e) => Some(e),
            SimError::InvalidConfig { .. } => None,
        }
    }
}

impl From<IsaError> for SimError {
    fn from(e: IsaError) -> Self {
        SimError::Isa(e)
    }
}

impl From<TraceError> for SimError {
    fn from(e: TraceError) -> Self {
        SimError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field() {
        let e = SimError::InvalidConfig {
            field: "commit_width",
            reason: "must be nonzero".into(),
        };
        assert!(e.to_string().contains("commit_width"));
        assert!(e.to_string().contains("nonzero"));
    }

    #[test]
    fn isa_errors_pass_through() {
        let e = SimError::from(IsaError::Empty);
        assert!(e.to_string().contains("program fault"));
        assert!(e.source().is_some());
    }
}
