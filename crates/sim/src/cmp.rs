//! A chip multiprocessor: several cores with private L1s/TLBs running in
//! lockstep, sharing the LLC and DRAM bandwidth.
//!
//! The paper requires "one TEA unit per physical core"; this module
//! provides the multicore substrate to demonstrate it. Cores advance
//! cycle by cycle in lockstep; during each core's cycle the shared LLC
//! and DRAM state are swapped onto that core's hierarchy (an O(1)
//! pointer swap), so inter-core contention — LLC capacity and DRAM
//! bandwidth — is modelled faithfully while every core keeps its own
//! TEA observers, exactly as the hardware would.

use tea_isa::program::Program;

use crate::config::SimConfig;
use crate::core::{Core, SimStats};
use crate::hierarchy::MemHierarchy;
use crate::trace::Observer;

/// A lockstep multicore sharing LLC + DRAM.
pub struct CmpSystem<'p> {
    cores: Vec<Core<'p>>,
    shared: MemHierarchy,
    cycle: u64,
}

impl<'p> CmpSystem<'p> {
    /// Creates a CMP with one core per program.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty.
    #[must_use]
    pub fn new(programs: &[&'p Program], cfg: &SimConfig) -> Self {
        assert!(!programs.is_empty(), "a CMP needs at least one core");
        CmpSystem {
            cores: programs.iter().map(|p| Core::new(p, cfg.clone())).collect(),
            shared: MemHierarchy::new(cfg),
            cycle: 0,
        }
    }

    /// Number of cores.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Whether core `cid` has halted.
    #[must_use]
    pub fn is_done(&self, cid: usize) -> bool {
        self.cores[cid].is_halted()
    }

    /// Whether every core has halted.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.cores.iter().all(Core::is_halted)
    }

    /// Global cycle count.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Per-core statistics so far. Note: the LLC/DRAM fields of
    /// `hier` are per-core *private* placeholders — the shared levels'
    /// aggregate statistics live in [`CmpSystem::shared_stats`].
    #[must_use]
    pub fn stats(&self, cid: usize) -> SimStats {
        self.cores[cid].stats()
    }

    /// Aggregate statistics of the shared LLC and DRAM (accesses from
    /// all cores combined; the L1/TLB fields of the returned struct are
    /// unused placeholders).
    #[must_use]
    pub fn shared_stats(&self) -> crate::hierarchy::HierarchyStats {
        self.shared.stats()
    }

    /// Advances every live core by one cycle, driving each core's
    /// observers. `observers[cid]` belongs to core `cid`.
    ///
    /// # Panics
    ///
    /// Panics if `observers.len() != core_count()`.
    pub fn tick(&mut self, observers: &mut [Vec<&mut dyn Observer>]) {
        assert_eq!(
            observers.len(),
            self.cores.len(),
            "one observer set per core"
        );
        for (core, obs) in self.cores.iter_mut().zip(observers.iter_mut()) {
            if core.is_halted() {
                continue;
            }
            core.hierarchy_mut().swap_shared_levels(&mut self.shared);
            core.try_run_for(1, &mut obs[..])
                .unwrap_or_else(|e| panic!("{e}"));
            core.hierarchy_mut().swap_shared_levels(&mut self.shared);
        }
        self.cycle += 1;
    }

    /// Runs until every core halts (or `max_cycles` elapse), driving the
    /// per-core observers.
    pub fn run(&mut self, observers: &mut [Vec<&mut dyn Observer>], max_cycles: u64) {
        while !self.all_done() && self.cycle < max_cycles {
            self.tick(observers);
        }
    }

    /// Runs to completion with no observers; returns per-core stats.
    pub fn run_to_completion(&mut self, max_cycles: u64) -> Vec<SimStats> {
        let mut observers: Vec<Vec<&mut dyn Observer>> =
            (0..self.cores.len()).map(|_| Vec::new()).collect();
        self.run(&mut observers, max_cycles);
        (0..self.cores.len()).map(|c| self.stats(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::simulate;
    use tea_isa::asm::Asm;
    use tea_isa::reg::Reg;

    fn llc_stream(base: i64, lines: i64, passes: i64) -> Program {
        let mut a = Asm::new();
        let outer = a.new_label();
        let top = a.new_label();
        a.li(Reg::T5, 0);
        a.li(Reg::T6, passes);
        a.bind(outer);
        a.li(Reg::A0, base);
        a.li(Reg::T0, 0);
        a.li(Reg::T1, lines);
        a.bind(top);
        a.ld(Reg::T2, Reg::A0, 0);
        a.add(Reg::A1, Reg::A1, Reg::T2);
        a.addi(Reg::A0, Reg::A0, 128);
        a.addi(Reg::T0, Reg::T0, 1);
        a.blt(Reg::T0, Reg::T1, top);
        a.addi(Reg::T5, Reg::T5, 1);
        a.blt(Reg::T5, Reg::T6, outer);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn cores_run_to_completion_with_correct_retire_counts() {
        let pa = llc_stream(0x1000_0000, 2000, 2);
        let pb = llc_stream(0x4000_0000, 1000, 2);
        let mut cmp = CmpSystem::new(&[&pa, &pb], &SimConfig::default());
        let stats = cmp.run_to_completion(10_000_000);
        assert!(cmp.all_done());
        let solo_a = simulate(&pa, SimConfig::default(), &mut []);
        let solo_b = simulate(&pb, SimConfig::default(), &mut []);
        assert_eq!(stats[0].retired, solo_a.retired);
        assert_eq!(stats[1].retired, solo_b.retired);
    }

    #[test]
    fn llc_contention_slows_co_running_cores() {
        // Each stream's working set is ~1.25 MiB: alone it fits the
        // 2 MiB LLC after the first pass; together they exceed it and
        // also fight for DRAM bandwidth.
        let pa = llc_stream(0x1000_0000, 10_000, 5);
        let pb = llc_stream(0x4000_0000, 10_000, 5);
        let solo = simulate(&pa, SimConfig::default(), &mut []).cycles;
        let mut cmp = CmpSystem::new(&[&pa, &pb], &SimConfig::default());
        let stats = cmp.run_to_completion(50_000_000);
        assert!(
            stats[0].cycles > solo * 11 / 10,
            "co-run {} must be >10% slower than solo {}",
            stats[0].cycles,
            solo
        );
        // And the shared LLC must thrash: more total misses than two
        // solo runs would produce.
        let solo_misses = simulate(&pa, SimConfig::default(), &mut []).hier.llc_misses;
        let shared = cmp.shared_stats();
        assert!(
            shared.llc_misses > 2 * solo_misses,
            "shared LLC must thrash: {} vs 2x solo {}",
            shared.llc_misses,
            solo_misses
        );
    }

    #[test]
    fn single_core_cmp_matches_direct_simulation() {
        let p = llc_stream(0x1000_0000, 3000, 1);
        let direct = simulate(&p, SimConfig::default(), &mut []);
        let mut cmp = CmpSystem::new(&[&p], &SimConfig::default());
        let stats = cmp.run_to_completion(10_000_000);
        assert_eq!(stats[0].retired, direct.retired);
        assert_eq!(
            stats[0].cycles, direct.cycles,
            "lockstep must not perturb timing"
        );
        assert_eq!(stats[0].state_cycles, direct.state_cycles);
    }
}
