//! Observer compositions over the one [`Observer`] trait.
//!
//! The simulator delivers every notification through `Observer` alone:
//! a single concrete observer runs monomorphised through
//! [`Core::run_with`](tea_sim::Core::run_with), and any number of them
//! run as one ordered `&mut [&mut dyn Observer]` slice through
//! [`Core::run`](tea_sim::Core::run). This module adds two named
//! compositions: [`SchemeProfiler`], the profiler of any one of the
//! paper's comparison schemes, and [`ProfiledObservers`], the golden
//! reference plus five schemes that the throughput bench measures.

use tea_sim::trace::{CycleView, Observer, RetiredInst};

use crate::golden::GoldenReference;
use crate::nci::NciProfiler;
use crate::pics::Pics;
use crate::sampling::SampleTimer;
use crate::schemes::Scheme;
use crate::tagging::TaggingProfiler;
use crate::tea::TeaProfiler;

/// The profiler of one of the paper's comparison schemes, so callers
/// that pick schemes at run time hold one type instead of three.
pub enum SchemeProfiler {
    /// Time-proportional sampling (the paper's scheme).
    Tea(TeaProfiler),
    /// Next-committing-instruction sampling (PEBS-style).
    Nci(NciProfiler),
    /// Front-end tagging: IBS, SPE, RIS or TEA-DT.
    Tagging(TaggingProfiler),
}

macro_rules! each {
    ($self:ident, $o:ident => $e:expr) => {
        match $self {
            SchemeProfiler::Tea($o) => $e,
            SchemeProfiler::Nci($o) => $e,
            SchemeProfiler::Tagging($o) => $e,
        }
    };
}

impl SchemeProfiler {
    /// The profiler for `scheme`, sampling on `timer`.
    #[must_use]
    pub fn new(scheme: Scheme, timer: SampleTimer) -> Self {
        match scheme {
            Scheme::Tea => SchemeProfiler::Tea(TeaProfiler::new(timer)),
            Scheme::NciTea => SchemeProfiler::Nci(NciProfiler::new(timer)),
            Scheme::Ibs | Scheme::Spe | Scheme::Ris | Scheme::TeaDispatchTagged => {
                SchemeProfiler::Tagging(TaggingProfiler::new(scheme, timer))
            }
        }
    }

    /// Samples taken.
    #[must_use]
    pub fn samples(&self) -> u64 {
        each!(self, o => o.samples())
    }

    /// Samples taken but never attributed by finish.
    #[must_use]
    pub fn pending_samples(&self) -> usize {
        each!(self, o => o.pending_samples())
    }

    /// Consumes the profiler into its estimated PICS.
    #[must_use]
    pub fn into_pics(self) -> Pics {
        each!(self, o => o.into_pics())
    }
}

impl Observer for SchemeProfiler {
    fn on_cycle(&mut self, view: &CycleView<'_>) {
        each!(self, o => o.on_cycle(view));
    }
    fn on_retire(&mut self, retired: &RetiredInst) {
        each!(self, o => o.on_retire(retired));
    }
    fn on_commit_batch(&mut self, batch: &[RetiredInst]) {
        each!(self, o => o.on_commit_batch(batch));
    }
    fn on_stall_run(&mut self, view: &CycleView<'_>, n: u64) {
        each!(self, o => o.on_stall_run(view, n));
    }
    fn on_squash(&mut self, from_seq: u64) {
        each!(self, o => o.on_squash(from_seq));
    }
    fn on_finish(&mut self, total_cycles: u64) {
        each!(self, o => o.on_finish(total_cycles));
    }
}

/// The standard profiled observer set of the throughput bench: golden
/// reference plus the five sampling schemes of the paper's comparison
/// (one jittered timer sequence, so all schemes fire in the same
/// cycles). It is one concrete [`Observer`], so
/// [`Core::run_with`](tea_sim::Core::run_with) inlines its fan-out into
/// the cycle loop.
pub struct ProfiledObservers {
    golden: GoldenReference,
    tea: TeaProfiler,
    nci: NciProfiler,
    ibs: TaggingProfiler,
    spe: TaggingProfiler,
    ris: TaggingProfiler,
}

impl ProfiledObservers {
    /// Golden + TEA + NCI + IBS + SPE + RIS, all on the same jittered
    /// `interval`/`seed` timer sequence.
    #[must_use]
    pub fn new(interval: u64, seed: u64) -> Self {
        let timer = || SampleTimer::with_jitter(interval, interval / 8, seed);
        ProfiledObservers {
            golden: GoldenReference::new(),
            tea: TeaProfiler::new(timer()),
            nci: NciProfiler::new(timer()),
            ibs: TaggingProfiler::ibs(timer()),
            spe: TaggingProfiler::spe(timer()),
            ris: TaggingProfiler::ris(timer()),
        }
    }

    /// Total samples across the five sampling schemes.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.tea.samples()
            + self.nci.samples()
            + self.ibs.samples()
            + self.spe.samples()
            + self.ris.samples()
    }
}

/// The set is itself one observer: a real profiling tool composes its
/// analyses statically, so the fan-out below inlines into whatever
/// delivery path drives it.
impl Observer for ProfiledObservers {
    fn on_cycle(&mut self, view: &CycleView<'_>) {
        self.golden.on_cycle(view);
        self.tea.on_cycle(view);
        self.nci.on_cycle(view);
        self.ibs.on_cycle(view);
        self.spe.on_cycle(view);
        self.ris.on_cycle(view);
    }

    fn on_retire(&mut self, retired: &RetiredInst) {
        self.golden.on_retire(retired);
        self.tea.on_retire(retired);
        self.nci.on_retire(retired);
        self.ibs.on_retire(retired);
        self.spe.on_retire(retired);
        self.ris.on_retire(retired);
    }

    fn on_commit_batch(&mut self, batch: &[RetiredInst]) {
        // Forward the whole commit group so each member's batched
        // override (and its hoisted per-batch probes) stays active.
        self.golden.on_commit_batch(batch);
        self.tea.on_commit_batch(batch);
        self.nci.on_commit_batch(batch);
        self.ibs.on_commit_batch(batch);
        self.spe.on_commit_batch(batch);
        self.ris.on_commit_batch(batch);
    }

    fn on_stall_run(&mut self, view: &CycleView<'_>, n: u64) {
        // Forward the folded span so each member's O(1) stall fold (not
        // the default per-cycle replay) handles it.
        self.golden.on_stall_run(view, n);
        self.tea.on_stall_run(view, n);
        self.nci.on_stall_run(view, n);
        self.ibs.on_stall_run(view, n);
        self.spe.on_stall_run(view, n);
        self.ris.on_stall_run(view, n);
    }

    fn on_squash(&mut self, from_seq: u64) {
        self.golden.on_squash(from_seq);
        self.tea.on_squash(from_seq);
        self.nci.on_squash(from_seq);
        self.ibs.on_squash(from_seq);
        self.spe.on_squash(from_seq);
        self.ris.on_squash(from_seq);
    }

    fn on_finish(&mut self, total_cycles: u64) {
        self.golden.on_finish(total_cycles);
        self.tea.on_finish(total_cycles);
        self.nci.on_finish(total_cycles);
        self.ibs.on_finish(total_cycles);
        self.spe.on_finish(total_cycles);
        self.ris.on_finish(total_cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tea_isa::asm::Asm;
    use tea_isa::Reg;
    use tea_sim::config::SamplingInjection;
    use tea_sim::core::Core;
    use tea_sim::{SimConfig, SimStats};

    /// A store/load loop run under injected sampling interrupts, so the
    /// run has squashes, commit groups and fast-forwarded stall runs.
    fn squash_heavy_run<O: Observer + ?Sized>(observer: &mut O) -> (SimStats, u64) {
        let mut a = Asm::new();
        let top = a.new_label();
        a.li(Reg::T0, 0);
        a.li(Reg::T1, 400);
        a.li(Reg::A0, 0x8000);
        a.bind(top);
        a.sd(Reg::T0, Reg::A0, 0);
        a.ld(Reg::T2, Reg::A0, 0);
        a.addi(Reg::T0, Reg::T0, 1);
        a.blt(Reg::T0, Reg::T1, top);
        a.halt();
        let p = a.finish().unwrap();
        let cfg = SimConfig {
            sampling_injection: Some(SamplingInjection {
                interval: 97,
                handler_cycles: 35,
            }),
            ..SimConfig::default()
        };
        let mut core = Core::new(&p, cfg);
        let stats = core.run_with(observer);
        (stats, core.cycle_breakdown().stall_runs)
    }

    /// Counts every notification the core delivers.
    #[derive(Debug, Default, PartialEq)]
    struct Counter {
        cycles: u64,
        stall_runs: u64,
        stall_cycles: u64,
        retired: u64,
        on_retire_calls: u64,
        squashes: u64,
        finishes: Vec<u64>,
    }

    impl Observer for Counter {
        fn on_cycle(&mut self, _view: &CycleView<'_>) {
            self.cycles += 1;
        }
        fn on_retire(&mut self, _retired: &RetiredInst) {
            self.on_retire_calls += 1;
        }
        fn on_commit_batch(&mut self, batch: &[RetiredInst]) {
            self.retired += batch.len() as u64;
        }
        fn on_stall_run(&mut self, _view: &CycleView<'_>, n: u64) {
            self.stall_runs += 1;
            self.stall_cycles += n;
        }
        fn on_squash(&mut self, _from_seq: u64) {
            self.squashes += 1;
        }
        fn on_finish(&mut self, total_cycles: u64) {
            self.finishes.push(total_cycles);
        }
    }

    /// Every cycle, retirement, squash and the finish reach an
    /// observer exactly once, and a slice member sees the same
    /// notifications as the observer run alone, batched hooks included.
    #[test]
    fn one_trait_delivers_every_notification_exactly_once() {
        let mut alone = Counter::default();
        let (stats, stall_runs) = squash_heavy_run(&mut alone);
        assert!(stats.squashes > 0 && stall_runs > 0, "{stats:?}");
        assert_eq!(alone.cycles + alone.stall_cycles, stats.cycles);
        assert_eq!(alone.stall_runs, stall_runs);
        assert_eq!(alone.retired, stats.retired);
        assert_eq!(alone.on_retire_calls, 0, "batches arrive whole");
        assert_eq!(alone.squashes, stats.squashes);
        assert_eq!(alone.finishes, [stats.cycles]);

        let mut member = Counter::default();
        let mut golden = GoldenReference::new();
        let (slice_stats, _) =
            squash_heavy_run::<[&mut dyn Observer]>(&mut [&mut member, &mut golden]);
        assert_eq!(slice_stats, stats);
        assert_eq!(member, alone);
        assert_eq!(golden.total_cycles(), stats.cycles);
    }
}
