//! The cycle-by-cycle observation interface (the repo's equivalent of
//! the paper's TraceDoctor trace).
//!
//! The simulator drives any number of [`Observer`]s from a single run:
//! every cycle they receive a [`CycleView`] describing the commit-stage
//! state — exactly the information the paper's out-of-band host-side
//! profiler models consume — and every retired instruction produces a
//! [`RetiredInst`] carrying its final PSV. All profiling schemes (TEA,
//! NCI-TEA, IBS, SPE, RIS and the golden reference) are implemented as
//! observers in the `tea-core` crate, which guarantees they sample the
//! exact same cycles.
//!
//! [`Observer`] is the only delivery contract. A set of observers is
//! an ordered `[&mut dyn Observer]` slice, which implements `Observer`
//! by fanning each notification out in order.

use tea_isa::ExecClass;

use crate::psv::{CommitState, Psv};

/// A reference to one dynamic instruction as seen by observers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstRef {
    /// Position in the committed dynamic stream. Stable across pipeline
    /// flushes: a squashed-and-refetched instruction keeps its `seq`.
    pub seq: u64,
    /// Address of the static instruction.
    pub addr: u64,
    /// PSV snapshot at observation time. Final only for committed
    /// instructions; in-flight instructions may accumulate more events
    /// (profilers needing final signatures join on
    /// [`RetiredInst::seq`]).
    pub psv: Psv,
}

/// One retired dynamic instruction with its final signature.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetiredInst {
    /// Position in the committed dynamic stream.
    pub seq: u64,
    /// Address of the static instruction.
    pub addr: u64,
    /// Final PSV, including flush bits recorded at commit.
    pub psv: Psv,
    /// Cycle the instruction committed.
    pub commit_cycle: u64,
    /// Cycle the instruction dispatched into the ROB.
    pub dispatch_cycle: u64,
    /// Execution latency in cycles (issue to completion) of the final,
    /// committed execution.
    pub exec_latency: u64,
    /// Functional class (for per-class analyses).
    pub class: ExecClass,
}

/// Commit-stage state of one cycle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CycleView<'a> {
    /// Cycle number (0-based).
    pub cycle: u64,
    /// The paper's four-state commit taxonomy for this cycle.
    pub state: CommitState,
    /// Instructions committed this cycle (non-empty iff `state` is
    /// [`CommitState::Compute`]).
    pub committed: &'a [InstRef],
    /// The instruction stalled at the ROB head
    /// ([`CommitState::Stalled`] only).
    pub stalled_head: Option<InstRef>,
    /// The next-committing instruction when the ROB is empty
    /// ([`CommitState::Drained`]; also used by the NCI policy).
    pub next_commit: Option<InstRef>,
    /// The last-committed instruction ([`CommitState::Flushed`]
    /// attribution target). Carries a final PSV.
    pub last_committed: Option<InstRef>,
    /// Instructions dispatched into the ROB this cycle (dispatch-tagging
    /// schemes: IBS, SPE).
    pub dispatched: &'a [InstRef],
    /// Instructions fetched this cycle (fetch-tagging schemes: RIS).
    pub fetched: &'a [InstRef],
}

impl CycleView<'_> {
    /// The instruction(s) the core is exposing the latency of this
    /// cycle, per the paper's time-proportional attribution policy:
    /// committing instructions in Compute, the ROB head in Stalled, the
    /// next-committing instruction in Drained, and the last-committed
    /// instruction in Flushed.
    ///
    /// Returns an empty slice only in the rare case where the
    /// attribution target is unknown (e.g. Drained past the end of the
    /// program).
    #[must_use]
    pub fn time_proportional_targets(&self) -> &[InstRef] {
        match self.state {
            CommitState::Compute => self.committed,
            CommitState::Stalled => self.stalled_head.as_slice(),
            CommitState::Drained => self.next_commit.as_slice(),
            CommitState::Flushed => self.last_committed.as_slice(),
        }
    }
}

/// A streaming observer of the simulation, driven from a single pass.
///
/// Implementations must not assume `on_retire` ordering relative to
/// `on_cycle` beyond: an instruction's retirement is delivered during
/// the cycle it commits, after that cycle's `on_cycle`.
pub trait Observer {
    /// Called once per simulated cycle.
    fn on_cycle(&mut self, view: &CycleView<'_>);

    /// Called once per retired instruction with its final PSV.
    fn on_retire(&mut self, retired: &RetiredInst);

    /// Called once per cycle that retires instructions, with every
    /// instruction retired that cycle, oldest first — delivered after
    /// the cycle's [`Observer::on_cycle`].
    ///
    /// This is the batched form of [`Observer::on_retire`]: the
    /// default implementation forwards each element to `on_retire` in
    /// order, so per-instruction observers need no change. Observers
    /// on the hot path override it to hoist per-batch invariant checks
    /// (e.g. "is any delayed weight pending at all?") out of the
    /// per-instruction loop; an override must process the batch
    /// exactly as the sequence of `on_retire` calls would, so batched
    /// and per-instruction delivery stay bit-identical.
    fn on_commit_batch(&mut self, batch: &[RetiredInst]) {
        for retired in batch {
            self.on_retire(retired);
        }
    }

    /// Called once for a *stall run*: `n` consecutive quiescent cycles
    /// the core fast-forwarded over instead of simulating one by one
    /// (see `tea_sim::core`'s stall fast-forward). The cycles span
    /// `view.cycle .. view.cycle + n`; every one of them would have
    /// produced a `CycleView` identical to `view` except for the cycle
    /// number — no retirement, no squash, no dispatch, no fetch occurs
    /// anywhere in the run, and the commit state and its attribution
    /// targets are constant.
    ///
    /// This is the batched form of [`Observer::on_cycle`] for stall
    /// spans, following the [`Observer::on_commit_batch`] pattern: the
    /// default implementation replays `on_cycle` n times with the
    /// cycle number advanced, so existing observers are untouched.
    /// Hot-path observers override it to fold the n identical cycles
    /// into their accumulators in O(1)-ish work; an override must leave
    /// the observer in a state bit-identical to the n individual
    /// `on_cycle` calls, so fast-forwarded and ticked runs produce
    /// byte-identical artifacts.
    fn on_stall_run(&mut self, view: &CycleView<'_>, n: u64) {
        for i in 0..n {
            let v = CycleView {
                cycle: view.cycle + i,
                ..*view
            };
            self.on_cycle(&v);
        }
    }

    /// Called when the pipeline squashes every in-flight instruction
    /// with `seq >= from_seq` (mispredict recovery, commit-time flush,
    /// memory-order violation, sampling or external interrupt).
    ///
    /// Squashed instructions are refetched and later retire under the
    /// *same* seq, but with a PSV rebuilt from scratch — so a delayed
    /// sample held for a squashed seq would silently resolve against a
    /// post-refetch signature that no longer describes the cycles the
    /// sample represents (and in a sliced run may never resolve at
    /// all). Profilers holding delayed weight keyed at or beyond
    /// `from_seq` should re-attribute it at the squash point; see
    /// `TeaProfiler` in `tea-core` for the canonical handling.
    ///
    /// Delivered before the same cycle's [`Observer::on_cycle`], once
    /// per squash event in pipeline order.
    fn on_squash(&mut self, _from_seq: u64) {}

    /// Called once when the simulation finishes.
    fn on_finish(&mut self, _total_cycles: u64) {}
}

/// A no-op observer (useful for overhead baselines in benches).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_cycle(&mut self, _view: &CycleView<'_>) {}
    fn on_retire(&mut self, _retired: &RetiredInst) {}
}

/// An ordered set of observers is itself one observer: each
/// notification fans out to the members in slice order. Batched hooks
/// are forwarded whole, so each member's `on_commit_batch` and
/// `on_stall_run` override (not the per-item default) handles them.
///
/// This is what [`Core::run`](crate::Core::run) drives; a caller with a
/// single concrete observer passes it to
/// [`Core::run_with`](crate::Core::run_with) directly and the delivery
/// monomorphises into the cycle loop.
impl Observer for [&mut dyn Observer] {
    fn on_cycle(&mut self, view: &CycleView<'_>) {
        for obs in self.iter_mut() {
            obs.on_cycle(view);
        }
    }
    fn on_retire(&mut self, retired: &RetiredInst) {
        for obs in self.iter_mut() {
            obs.on_retire(retired);
        }
    }
    fn on_commit_batch(&mut self, batch: &[RetiredInst]) {
        for obs in self.iter_mut() {
            obs.on_commit_batch(batch);
        }
    }
    fn on_stall_run(&mut self, view: &CycleView<'_>, n: u64) {
        for obs in self.iter_mut() {
            obs.on_stall_run(view, n);
        }
    }
    fn on_squash(&mut self, from_seq: u64) {
        for obs in self.iter_mut() {
            obs.on_squash(from_seq);
        }
    }
    fn on_finish(&mut self, total_cycles: u64) {
        for obs in self.iter_mut() {
            obs.on_finish(total_cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(seq: u64) -> InstRef {
        InstRef {
            seq,
            addr: 0x1_0000 + seq * 4,
            psv: Psv::empty(),
        }
    }

    #[test]
    fn targets_follow_commit_state() {
        let committed = [inst(1), inst(2)];
        let v = CycleView {
            cycle: 0,
            state: CommitState::Compute,
            committed: &committed,
            stalled_head: Some(inst(3)),
            next_commit: Some(inst(4)),
            last_committed: Some(inst(0)),
            dispatched: &[],
            fetched: &[],
        };
        assert_eq!(v.time_proportional_targets().len(), 2);

        let v2 = CycleView {
            state: CommitState::Stalled,
            committed: &[],
            ..v
        };
        assert_eq!(v2.time_proportional_targets()[0].seq, 3);

        let v3 = CycleView {
            state: CommitState::Drained,
            committed: &[],
            ..v
        };
        assert_eq!(v3.time_proportional_targets()[0].seq, 4);

        let v4 = CycleView {
            state: CommitState::Flushed,
            committed: &[],
            ..v
        };
        assert_eq!(v4.time_proportional_targets()[0].seq, 0);
    }

    #[test]
    fn missing_target_yields_empty() {
        let v = CycleView {
            cycle: 0,
            state: CommitState::Drained,
            committed: &[],
            stalled_head: None,
            next_commit: None,
            last_committed: None,
            dispatched: &[],
            fetched: &[],
        };
        assert!(v.time_proportional_targets().is_empty());
    }
}
