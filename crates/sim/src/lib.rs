//! # tea-sim
//!
//! A cycle-level out-of-order (BOOM-class) core and memory-hierarchy
//! timing simulator with per-instruction performance-event tracking —
//! the hardware substrate of the TEA (Time-Proportional Event Analysis,
//! ISCA 2023) reproduction.
//!
//! The simulator executes programs produced by [`tea_isa`] and exposes a
//! cycle-by-cycle observation interface ([`trace::Observer`]) that
//! mirrors the paper's TraceDoctor methodology: the commit stage is
//! classified every cycle into the four states Compute / Stalled /
//! Drained / Flushed, and every in-flight instruction carries a
//! Performance Signature Vector ([`psv::Psv`]) accumulating the nine
//! events of the paper's Table 1. Profiling schemes (TEA and its
//! baselines) are implemented in the `tea-core` crate as observers.
//!
//! One cycle loop, [`Core::try_run_for`], drives one observer contract.
//! It is generic over the [`Observer`] it drives: [`Core::run_with`]
//! runs a single concrete observer to completion with its hooks
//! monomorphised into the loop, and [`Core::run`] runs an ordered
//! `&mut [&mut dyn Observer]` slice, which is itself an `Observer`.
//!
//! # Example
//!
//! ```
//! use tea_isa::asm::Asm;
//! use tea_isa::reg::Reg;
//! use tea_sim::config::SimConfig;
//! use tea_sim::core::simulate;
//! use tea_sim::trace::NullObserver;
//!
//! # fn main() -> Result<(), tea_isa::AsmError> {
//! let mut a = Asm::new();
//! let top = a.new_label();
//! a.li(Reg::T0, 0);
//! a.li(Reg::T1, 1000);
//! a.bind(top);
//! a.addi(Reg::T0, Reg::T0, 1);
//! a.blt(Reg::T0, Reg::T1, top);
//! a.halt();
//! let program = a.finish()?;
//!
//! let stats = simulate(&program, SimConfig::default(), &mut [&mut NullObserver]);
//! assert_eq!(stats.retired, 2 + 2 * 1000 + 1);
//! assert!(stats.ipc() > 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod cmp;
pub mod config;
pub mod core;
pub mod error;
pub mod hierarchy;
pub mod psv;
mod slab;
pub mod smt;
pub mod system;
pub mod tlb;
pub mod trace;

pub use crate::core::{simulate, Core, CycleBreakdown, SimStats};
pub use config::SimConfig;
pub use error::SimError;
pub use psv::{CommitState, Event, Psv};
pub use trace::{CycleView, InstRef, Observer, RetiredInst};
