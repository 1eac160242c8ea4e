//! A minimal OS-style scheduler: several processes time-share one core
//! and one memory hierarchy.
//!
//! The paper's Section 3 notes that TEA samples carry process and thread
//! identifiers, so PICS can be built per process even under
//! multiprogramming. This module provides the substrate to demonstrate
//! that: a [`System`] round-robins processes over the simulated core
//! with a configurable time slice and context-switch cost, while the
//! caches, TLBs and DRAM state stay **shared** — so co-scheduled
//! processes genuinely interfere, yet per-process observers still see
//! only their own process's cycles.
//!
//! Scheduling mechanics: on a context switch the outgoing process's
//! pipeline is flushed (squashed instructions re-fetch when it is
//! rescheduled — they were never committed), the incoming process's
//! local clock is advanced to the global clock, and the shared memory
//! hierarchy is moved onto the core. Per-process statistics count only
//! the cycles the process actually ran.

use tea_isa::program::Program;

use crate::config::SimConfig;
use crate::core::{Core, SimStats};
use crate::hierarchy::MemHierarchy;
use crate::trace::Observer;

/// A multiprogrammed single-core system.
pub struct System<'p> {
    cores: Vec<Core<'p>>,
    shared: MemHierarchy,
    global_clock: u64,
    slice: u64,
    switch_penalty: u64,
    last_ran: Option<usize>,
    next_rr: usize,
}

impl<'p> System<'p> {
    /// Creates a system running `programs` round-robin with the given
    /// time slice (cycles) and context-switch penalty.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty or `slice` is zero.
    #[must_use]
    pub fn new(programs: &[&'p Program], cfg: &SimConfig, slice: u64, switch_penalty: u64) -> Self {
        assert!(!programs.is_empty(), "a system needs at least one process");
        assert!(slice > 0, "time slice must be nonzero");
        System {
            cores: programs.iter().map(|p| Core::new(p, cfg.clone())).collect(),
            shared: MemHierarchy::new(cfg),
            global_clock: 0,
            slice,
            switch_penalty,
            last_ran: None,
            next_rr: 0,
        }
    }

    /// Number of processes.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.cores.len()
    }

    /// Whether process `pid` has halted.
    #[must_use]
    pub fn is_done(&self, pid: usize) -> bool {
        self.cores[pid].is_halted()
    }

    /// Whether every process has halted.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.cores.iter().all(Core::is_halted)
    }

    /// The global clock (cycles elapsed on the shared core).
    #[must_use]
    pub fn global_clock(&self) -> u64 {
        self.global_clock
    }

    /// The next runnable process in round-robin order, if any.
    #[must_use]
    pub fn next_runnable(&self) -> Option<usize> {
        let n = self.cores.len();
        (0..n)
            .map(|i| (self.next_rr + i) % n)
            .find(|&pid| !self.cores[pid].is_halted())
    }

    /// Per-process statistics so far.
    #[must_use]
    pub fn stats(&self, pid: usize) -> SimStats {
        self.cores[pid].stats()
    }

    /// Runs process `pid` for one time slice, driving its observers.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn run_slice(&mut self, pid: usize, observers: &mut [&mut dyn Observer]) {
        let core = &mut self.cores[pid];
        if core.is_halted() {
            return;
        }
        core.advance_clock_to(self.global_clock);
        if self.last_ran != Some(pid) {
            // Context switch: the incoming process pays the switch cost
            // and starts with an empty pipeline.
            core.interrupt_flush(self.switch_penalty);
        }
        std::mem::swap(&mut self.shared, core.hierarchy_mut());
        core.try_run_for(self.slice, observers)
            .unwrap_or_else(|e| panic!("{e}"));
        std::mem::swap(&mut self.shared, core.hierarchy_mut());
        self.global_clock = self.global_clock.max(core.cycle());
        self.last_ran = Some(pid);
        self.next_rr = (pid + 1) % self.cores.len();
    }

    /// Runs all processes round-robin to completion without observers;
    /// returns per-process statistics. (Attach observers by driving
    /// [`System::run_slice`] yourself.)
    pub fn run_to_completion(&mut self) -> Vec<SimStats> {
        while let Some(pid) = self.next_runnable() {
            self.run_slice(pid, &mut []);
        }
        (0..self.cores.len()).map(|pid| self.stats(pid)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::simulate;
    use tea_isa::asm::Asm;
    use tea_isa::reg::Reg;

    fn loop_program(iters: i64, base: i64, stride: i64) -> Program {
        let mut a = Asm::new();
        let top = a.new_label();
        a.li(Reg::A0, base);
        a.li(Reg::T0, 0);
        a.li(Reg::T1, iters);
        a.bind(top);
        a.ld(Reg::T2, Reg::A0, 0);
        a.add(Reg::A1, Reg::A1, Reg::T2);
        a.addi(Reg::A0, Reg::A0, stride);
        a.addi(Reg::T0, Reg::T0, 1);
        a.blt(Reg::T0, Reg::T1, top);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn processes_complete_and_retire_fully() {
        let pa = loop_program(2000, 0x100_0000, 256);
        let pb = loop_program(1500, 0x800_0000, 256);
        let mut sys = System::new(&[&pa, &pb], &SimConfig::default(), 5_000, 50);
        let stats = sys.run_to_completion();
        assert!(sys.all_done());
        assert_eq!(stats[0].retired, 3 + 5 * 2000 + 1);
        assert_eq!(stats[1].retired, 3 + 5 * 1500 + 1);
        assert!(sys.global_clock() >= stats[0].cycles.max(stats[1].cycles));
    }

    #[test]
    fn co_scheduling_causes_cache_interference() {
        // Two processes streaming disjoint 1 MiB regions: alone, each
        // fits the 2 MiB LLC after a warm-up pass; together they share
        // it plus DRAM bandwidth and slow each other down.
        let make = |base: i64| {
            let mut a = Asm::new();
            let outer = a.new_label();
            let top = a.new_label();
            a.li(Reg::T5, 0);
            a.li(Reg::T6, 6);
            a.bind(outer);
            a.li(Reg::A0, base);
            a.li(Reg::T0, 0);
            a.li(Reg::T1, 8192);
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
        };
        let pa = make(0x1000_0000);
        let pb = make(0x4000_0000);
        let solo = simulate(&pa, SimConfig::default(), &mut []).cycles;
        let mut sys = System::new(&[&pa, &pb], &SimConfig::default(), 10_000, 50);
        let stats = sys.run_to_completion();
        // Each process's own cycle count (time it actually ran) grows
        // under contention.
        assert!(
            stats[0].cycles > solo,
            "co-run {} must exceed solo {} (shared LLC/DRAM)",
            stats[0].cycles,
            solo
        );
    }

    #[test]
    fn single_process_system_matches_direct_simulation_closely() {
        let p = loop_program(3000, 0x100_0000, 192);
        let direct = simulate(&p, SimConfig::default(), &mut []);
        let mut sys = System::new(&[&p], &SimConfig::default(), 2_500, 50);
        let stats = sys.run_to_completion();
        assert_eq!(stats[0].retired, direct.retired);
        // No other process ever runs: slicing must not change timing
        // beyond the initial context switch.
        let diff = stats[0].cycles.abs_diff(direct.cycles);
        assert!(
            diff <= direct.cycles / 20 + 100,
            "sliced {} vs direct {}",
            stats[0].cycles,
            direct.cycles
        );
    }
}
