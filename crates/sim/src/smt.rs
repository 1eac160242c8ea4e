//! Hardware multithreading: several hardware threads share one core's
//! cycles and its *entire* memory hierarchy (L1s and TLBs included).
//!
//! The paper's Section 3: "The logical core identifier maps to a
//! hardware thread under SMT … we capture sufficient information to
//! create PICS for each thread." This module provides that substrate as
//! **fine-grained temporal multithreading**: threads take turns
//! cycle-by-cycle (round-robin), each keeping its full pipeline state —
//! in-flight loads launched on a thread's cycle complete on schedule
//! regardless of whose turn it is — while all threads hit the same L1
//! caches and TLBs, so thread interference shows up exactly where TEA
//! can see it: in the per-thread PSV components. Execution resources
//! (ROB, issue queues, LSQ, fetch buffer) are statically partitioned,
//! the common choice for multithreaded cores of this class.
//!
//! Each hardware thread gets its own observers — one TEA unit per
//! logical core, as in the paper.

use tea_isa::program::Program;

use crate::config::SimConfig;
use crate::core::{Core, SimStats};
use crate::hierarchy::MemHierarchy;
use crate::trace::Observer;

/// Statically partitions a core configuration among `n` threads.
#[must_use]
fn partitioned(cfg: &SimConfig, n: usize) -> SimConfig {
    let div = |x: usize| (x / n).max(4);
    let mut t = cfg.clone();
    t.rob_entries = div(cfg.rob_entries);
    t.fetch_buffer = div(cfg.fetch_buffer);
    t.int_iq.entries = div(cfg.int_iq.entries);
    t.mem_iq.entries = div(cfg.mem_iq.entries);
    t.fp_iq.entries = div(cfg.fp_iq.entries);
    t.ldq_entries = div(cfg.ldq_entries);
    t.stq_entries = div(cfg.stq_entries);
    t.max_branches = div(cfg.max_branches);
    t
}

/// A multithreaded core: round-robin cycle interleaving over a fully
/// shared memory hierarchy.
pub struct SmtCore<'p> {
    threads: Vec<Core<'p>>,
    shared: MemHierarchy,
    cycle: u64,
}

impl<'p> SmtCore<'p> {
    /// Creates a multithreaded core running one program per hardware
    /// thread, with statically partitioned execution resources and a
    /// fully shared memory hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty.
    #[must_use]
    pub fn new(programs: &[&'p Program], cfg: &SimConfig) -> Self {
        assert!(
            !programs.is_empty(),
            "an SMT core needs at least one thread"
        );
        let per_thread = partitioned(cfg, programs.len());
        SmtCore {
            threads: programs
                .iter()
                .map(|p| Core::new(p, per_thread.clone()))
                .collect(),
            shared: MemHierarchy::new(cfg),
            cycle: 0,
        }
    }

    /// Number of hardware threads.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Whether thread `tid` has halted.
    #[must_use]
    pub fn is_done(&self, tid: usize) -> bool {
        self.threads[tid].is_halted()
    }

    /// Whether every thread has halted.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.threads.iter().all(Core::is_halted)
    }

    /// Global cycle count.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Per-thread statistics. `cycles` counts the thread's *own* active
    /// cycles; the cache/TLB statistics of the shared hierarchy are in
    /// [`SmtCore::shared_stats`].
    #[must_use]
    pub fn stats(&self, tid: usize) -> SimStats {
        self.threads[tid].stats()
    }

    /// Aggregate statistics of the shared memory hierarchy (all threads
    /// combined).
    #[must_use]
    pub fn shared_stats(&self) -> crate::hierarchy::HierarchyStats {
        self.shared.stats()
    }

    /// Advances the multithreaded core by one global cycle: the thread
    /// whose turn it is (round-robin among live threads) executes one
    /// pipeline cycle against the shared hierarchy. Unlike a context
    /// switch, the other threads' in-flight state is untouched.
    ///
    /// # Panics
    ///
    /// Panics if `observers.len() != thread_count()`.
    pub fn tick(&mut self, observers: &mut [Vec<&mut dyn Observer>]) {
        assert_eq!(
            observers.len(),
            self.threads.len(),
            "one observer set per thread"
        );
        let n = self.threads.len();
        // Pick the next live thread in round-robin order.
        let chosen = (0..n)
            .map(|i| (self.cycle as usize + i) % n)
            .find(|&tid| !self.threads[tid].is_halted());
        if let Some(tid) = chosen {
            let core = &mut self.threads[tid];
            core.advance_clock_to(self.cycle);
            std::mem::swap(core.hierarchy_mut(), &mut self.shared);
            core.try_run_for(1, &mut observers[tid][..])
                .unwrap_or_else(|e| panic!("{e}"));
            std::mem::swap(core.hierarchy_mut(), &mut self.shared);
        }
        self.cycle += 1;
    }

    /// Runs until every thread halts (or `max_cycles` elapse).
    pub fn run(&mut self, observers: &mut [Vec<&mut dyn Observer>], max_cycles: u64) {
        while !self.all_done() && self.cycle < max_cycles {
            self.tick(observers);
        }
    }

    /// Runs to completion with no observers; returns per-thread stats.
    pub fn run_to_completion(&mut self, max_cycles: u64) -> Vec<SimStats> {
        let mut observers: Vec<Vec<&mut dyn Observer>> =
            (0..self.threads.len()).map(|_| Vec::new()).collect();
        self.run(&mut observers, max_cycles);
        (0..self.threads.len()).map(|t| self.stats(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::simulate;
    use tea_isa::asm::Asm;
    use tea_isa::reg::Reg;

    fn reader(base: i64, iters: i64, stride: i64) -> Program {
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
    fn threads_make_progress_and_retire_fully() {
        let pa = reader(0x0100_0000, 2000, 64);
        let pb = reader(0x0800_0000, 1500, 64);
        let mut smt = SmtCore::new(&[&pa, &pb], &SimConfig::default());
        let stats = smt.run_to_completion(50_000_000);
        assert!(smt.all_done());
        assert_eq!(stats[0].retired, 3 + 5 * 2000 + 1);
        assert_eq!(stats[1].retired, 3 + 5 * 1500 + 1);
        // Interleaving: each thread's active cycles are roughly half the
        // global clock while both run.
        assert!(stats[0].cycles < smt.cycle());
        assert!(stats[1].cycles < smt.cycle());
    }

    #[test]
    fn shared_l1_lets_threads_warm_each_other() {
        // Both threads stream the SAME read-only region: the second
        // thread finds the lines the first fetched — constructive
        // sharing only possible with a shared L1.
        let pa = reader(0x0100_0000, 3000, 64);
        let pb = reader(0x0100_0000, 3000, 64);
        let mut smt = SmtCore::new(&[&pa, &pb], &SimConfig::default());
        smt.run_to_completion(50_000_000);
        // Trailing accesses merge into the leader's in-flight fills
        // (which the cache statistics still count as misses), so the
        // deduplication is visible as DRAM traffic: the shared L1 pulls
        // each line from memory only once for both threads.
        let shared = smt.shared_stats();
        let solo = simulate(&pa, SimConfig::default(), &mut []).hier.dram_lines;
        assert!(
            shared.dram_lines < 2 * solo,
            "shared L1 must deduplicate fills: {} DRAM lines vs 2x solo {}",
            shared.dram_lines,
            solo
        );
    }

    #[test]
    fn disjoint_threads_thrash_the_shared_l1() {
        // Two threads streaming disjoint regions that each fit the L1
        // alone (16 KiB each in a 32 KiB L1) but collide when resident
        // together with halved reuse distance.
        let make = |base: i64| {
            let mut a = Asm::new();
            let outer = a.new_label();
            let top = a.new_label();
            a.li(Reg::T5, 0);
            a.li(Reg::T6, 30);
            a.bind(outer);
            a.li(Reg::A0, base);
            a.li(Reg::T0, 0);
            a.li(Reg::T1, 384); // 384 lines = 24 KiB
            a.bind(top);
            a.ld(Reg::T2, Reg::A0, 0);
            a.addi(Reg::A0, Reg::A0, 64);
            a.addi(Reg::T0, Reg::T0, 1);
            a.blt(Reg::T0, Reg::T1, top);
            a.addi(Reg::T5, Reg::T5, 1);
            a.blt(Reg::T5, Reg::T6, outer);
            a.halt();
            a.finish().unwrap()
        };
        let pa = make(0x0100_0000);
        let pb = make(0x0800_0000);
        let solo = simulate(&pa, SimConfig::default(), &mut []).hier.l1d_misses;
        let mut smt = SmtCore::new(&[&pa, &pb], &SimConfig::default());
        smt.run_to_completion(100_000_000);
        let shared = smt.shared_stats();
        assert!(
            shared.l1d_misses > 2 * solo,
            "24 KiB + 24 KiB in a 32 KiB L1 must conflict: {} vs 2x solo {}",
            shared.l1d_misses,
            solo
        );
    }

    #[test]
    fn partitioning_respects_minimums() {
        let cfg = partitioned(&SimConfig::default(), 2);
        cfg.validate().expect("half partition is valid");
        assert_eq!(cfg.rob_entries, 96);
        assert_eq!(cfg.ldq_entries, 16);
        let many = partitioned(&SimConfig::default(), 64);
        many.validate().expect("minimum partition is valid");
        assert!(many.rob_entries >= 4);
    }
}
