//! Deterministic chaos injection across the engine/artifact pipeline.
//!
//! A [`ChaosInjector`] is a pure function from a seed to a set of
//! faults: every decision is `splitmix64(seed, domain, key)` over a
//! stable key (the cell's matrix index, the artifact write attempt),
//! so a chaos run is exactly
//! reproducible from its seed — the integration suite *recomputes* the
//! injector's decisions to predict what each cell's status must be,
//! and CI re-runs the same seeds forever.
//!
//! The injector is wired at the pipeline's trust boundaries, never
//! into the logic under test:
//!
//! - **observer panic** — the engine attaches an observer that panics
//!   at a chosen cycle. Transient injections fire only on the first
//!   attempt (the PR-2 retry loop recovers); persistent ones fire on
//!   every attempt and must surface as a `failed` cell, never a wedged
//!   engine.
//! - **journal tear** — the engine truncates the cell's journal line
//!   mid-record, emulating a crash mid-append; `Journal::load`'s
//!   torn-line tolerance skips it and resume re-runs the cell.
//! - **artifact write failure** — the first atomic temp-file write
//!   aborts after a partial temp write; the retry must still land a
//!   valid artifact and clean up the torn temp file.
//!
//! Rates are deliberately aggressive (roughly a quarter of cells per
//! seam) so even a three-cell CI suite exercises several
//! seams per seed.

use tea_sim::trace::{CycleView, Observer, RetiredInst};

/// Decision domains, folded into the hash so the same key draws
/// independently per seam.
const DOMAIN_OBSERVER: u64 = 0x6f62_7356;
const DOMAIN_JOURNAL: u64 = 0x6a6f_7572;
const DOMAIN_ARTIFACT: u64 = 0x6172_7466;

/// SplitMix64: a tiny, high-quality mixer; the entire source of chaos
/// randomness, so decisions depend only on `(seed, domain, key)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// An injected observer fault for one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObserverFault {
    /// Cycle at which the observer panics.
    pub cycle: u64,
    /// Whether the panic fires on every attempt (the cell must end
    /// `failed`) or only on the first (a retry recovers it).
    pub persistent: bool,
}

/// A seeded, deterministic fault injector. Cheap to share (`Copy`-size
/// state behind an `Arc` only for plumbing convenience); all decision
/// methods are pure.
#[derive(Clone, Debug)]
pub struct ChaosInjector {
    seed: u64,
}

impl ChaosInjector {
    /// An injector whose every decision derives from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ChaosInjector { seed }
    }

    /// The seed this injector was built from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The decision word for `(domain, key)`.
    fn roll(&self, domain: u64, key: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(domain ^ splitmix64(key)))
    }

    /// The observer panic injected into matrix cell `cell_index`, if
    /// any.
    #[must_use]
    pub fn observer_fault(&self, cell_index: usize) -> Option<ObserverFault> {
        let r = self.roll(DOMAIN_OBSERVER, cell_index as u64);
        if r % 4 != 2 {
            return None;
        }
        Some(ObserverFault {
            // Late enough that the pipeline is warm, early enough that
            // every test workload reaches it.
            cycle: 100 + (r >> 8) % 1000,
            persistent: r % 32 == 2,
        })
    }

    /// Whether matrix cell `cell_index`'s journal record is torn
    /// mid-line.
    #[must_use]
    pub fn tear_journal(&self, cell_index: usize) -> bool {
        self.roll(DOMAIN_JOURNAL, cell_index as u64) % 4 == 3
    }

    /// Whether artifact write attempt `attempt` (0-based) is forced to
    /// fail after a partial temp-file write. Only the first attempt is
    /// ever failed, so the retry always lands a valid artifact.
    #[must_use]
    pub fn fail_artifact_write(&self, attempt: u32) -> bool {
        attempt == 0 && self.roll(DOMAIN_ARTIFACT, 0).is_multiple_of(2)
    }
}

/// The observer-panic seam: a no-op observer that panics at the
/// injected cycle, exercising the engine's `catch_unwind` isolation
/// and retry/golden-ticket-release paths from *inside* a run.
pub(crate) struct ChaosObserver {
    cycle: u64,
}

impl ChaosObserver {
    pub(crate) fn new(fault: ObserverFault) -> Self {
        ChaosObserver { cycle: fault.cycle }
    }
}

impl Observer for ChaosObserver {
    fn on_cycle(&mut self, view: &CycleView<'_>) {
        assert!(
            view.cycle != self.cycle,
            "chaos: injected observer panic at cycle {}",
            self.cycle
        );
    }

    fn on_retire(&mut self, _retired: &RetiredInst) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = ChaosInjector::new(7);
        let b = ChaosInjector::new(7);
        let c = ChaosInjector::new(8);
        for key in 0..64usize {
            assert_eq!(a.observer_fault(key), b.observer_fault(key));
            assert_eq!(a.tear_journal(key), b.tear_journal(key));
        }
        let differs = (0..64usize).any(|k| a.observer_fault(k) != c.observer_fault(k));
        assert!(differs, "different seeds must draw different faults");
    }

    #[test]
    fn every_seam_fires_for_some_small_seed_and_key() {
        // The CI matrix runs small seeds over few cells; the rates must
        // make every seam reachable there.
        let keys = 0..8usize;
        for seam in 0..2 {
            let hit = (1..64u64).any(|seed| {
                let inj = ChaosInjector::new(seed);
                keys.clone().any(|k| match seam {
                    0 => inj.observer_fault(k).is_some(),
                    _ => inj.tear_journal(k),
                })
            });
            assert!(hit, "seam {seam} unreachable for small seeds");
        }
        assert!((1..64u64).any(|s| ChaosInjector::new(s).fail_artifact_write(0)));
        assert!((1..64u64).all(|s| !ChaosInjector::new(s).fail_artifact_write(1)));
    }
}
