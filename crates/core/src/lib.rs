//! # tea-core
//!
//! Time-Proportional Event Analysis (TEA, ISCA 2023): the paper's
//! primary contribution, reproduced on top of the [`tea_sim`] cycle-level
//! out-of-order core.
//!
//! TEA answers the two fundamental performance-analysis questions —
//! *which* instructions execution time goes to (Q1) and *why* (Q2) — by
//! building time-proportional **Per-Instruction Cycle Stacks**
//! ([`pics::Pics`]): every cycle is attributed to the instruction whose
//! latency the commit stage is exposing, categorised by the Performance
//! Signature Vector of events the instruction was subjected to in
//! flight.
//!
//! This crate provides:
//!
//! * [`golden::GoldenReference`] — the exact, non-sampling baseline;
//! * [`tea::TeaProfiler`] — TEA's statistical, time-proportional sampler;
//! * [`nci::NciProfiler`] — the Next-Committing-Instruction (PEBS-style)
//!   variant;
//! * [`tagging::TaggingProfiler`] — the AMD IBS / Arm SPE / IBM RIS
//!   front-end-tagging baselines (plus a dispatch-tagged TEA ablation);
//! * [`tip::TipProfiler`] — prior-work TIP (time-proportional, no PSVs);
//! * [`pmc::PmcProfiler`] — event-driven counter sampling (Section 5.3);
//! * [`samples`] — the record-to-file / report-offline flow of Section 3;
//! * [`error`] — the paper's Section 4 accuracy metric;
//! * [`correlation`] — the event-count vs performance-impact study
//!   (Figure 7);
//! * [`overhead`] — storage/power/performance overhead accounting
//!   (Section 3);
//! * [`render`] — plain-text rendering for the experiment harnesses;
//! * [`observers`] — [`observers::SchemeProfiler`], one type for any
//!   comparison scheme's profiler, and [`observers::ProfiledObservers`],
//!   the throughput bench's golden-plus-five-schemes composite.
//!
//! Every profiler is a [`tea_sim::Observer`], the simulator's one
//! delivery contract, so all of them see the exact same cycles of a
//! single run.
//!
//! # Example: profile a loop and print its PICS
//!
//! ```
//! use tea_core::golden::GoldenReference;
//! use tea_core::sampling::SampleTimer;
//! use tea_core::tea::TeaProfiler;
//! use tea_isa::asm::Asm;
//! use tea_isa::reg::Reg;
//! use tea_sim::core::simulate;
//! use tea_sim::SimConfig;
//!
//! # fn main() -> Result<(), tea_isa::AsmError> {
//! let mut a = Asm::new();
//! let top = a.new_label();
//! a.li(Reg::T0, 0);
//! a.li(Reg::T1, 5_000);
//! a.li(Reg::A0, 0x20_0000);
//! a.bind(top);
//! a.ld(Reg::T2, Reg::A0, 0);
//! a.addi(Reg::A0, Reg::A0, 256);
//! a.addi(Reg::T0, Reg::T0, 1);
//! a.blt(Reg::T0, Reg::T1, top);
//! a.halt();
//! let program = a.finish()?;
//!
//! let mut golden = GoldenReference::new();
//! let mut tea = TeaProfiler::new(SampleTimer::default_experiment(42));
//! let stats = simulate(&program, SimConfig::default(), &mut [&mut golden, &mut tea]);
//!
//! // The golden reference attributes every cycle.
//! assert!((golden.pics().total() - stats.cycles as f64).abs() < 1e-6);
//! // TEA's sampled stacks identify the same top instruction.
//! let scaled = tea.pics().scaled_to(golden.pics().total());
//! assert_eq!(
//!     scaled.top_instructions(1)[0].0,
//!     golden.pics().top_instructions(1)[0].0,
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod correlation;
pub mod diff;
pub mod error;
pub mod golden;
pub mod nci;
pub mod observers;
pub mod overhead;
pub mod pics;
pub mod pmc;
pub mod render;
pub mod samples;
pub mod sampling;
pub mod schemes;
pub mod tagging;
pub mod tea;
pub mod tip;

pub use error::pics_error;
pub use golden::GoldenReference;
pub use nci::NciProfiler;
pub use observers::{ProfiledObservers, SchemeProfiler};
pub use pics::{Granularity, Pics, UnitMap};
pub use pmc::PmcProfiler;
pub use sampling::SampleTimer;
pub use schemes::Scheme;
pub use tagging::TaggingProfiler;
pub use tea::TeaProfiler;
pub use tip::TipProfiler;
