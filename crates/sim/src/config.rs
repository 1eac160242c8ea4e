//! Simulator configuration.
//!
//! [`SimConfig::default`] reproduces Table 2 of the paper (the BOOM
//! 4-way-superscalar configuration evaluated on FireSim), scaled where a
//! parameter only exists in RTL. All sizes are entries unless stated.

use crate::error::SimError;

/// Configuration of one set-associative cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u64,
    /// Hit latency in cycles.
    pub hit_latency: u64,
    /// Number of Miss Status Holding Registers (outstanding misses).
    pub mshrs: usize,
}

impl CacheConfig {
    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }
}

/// Configuration of one TLB level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Associativity (`entries` for fully associative, 1 for direct).
    pub ways: usize,
    /// Hit latency in cycles (0 for first-level TLBs probed in parallel
    /// with the cache).
    pub hit_latency: u64,
}

/// Main-memory timing model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// Latency of a line fill, in cycles.
    pub latency: u64,
    /// Minimum interval between line transfers, in cycles (bandwidth
    /// limit; 16 GB/s at 3.2 GHz and 64 B lines is one line per ~12.8
    /// cycles).
    pub min_line_interval: u64,
}

/// One out-of-order issue queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IqConfig {
    /// Queue capacity.
    pub entries: usize,
    /// Instructions issued per cycle.
    pub issue_width: usize,
}

/// Functional-unit latencies in cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Single-cycle integer ALU.
    pub int_alu: u64,
    /// Pipelined integer multiplier.
    pub int_mul: u64,
    /// Unpipelined integer divider.
    pub int_div: u64,
    /// Pipelined FP add/compare/convert.
    pub fp_alu: u64,
    /// Pipelined FP multiply / fused multiply-add.
    pub fp_mul: u64,
    /// Unpipelined FP divide.
    pub fp_div: u64,
    /// Unpipelined FP square root (the nab case study's long-latency op).
    pub fp_sqrt: u64,
    /// Store-to-load forwarding latency.
    pub forward: u64,
}

/// Branch predictor configuration (gshare + BTB + return-address stack;
/// a software stand-in for BOOM's 28 KB TAGE).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchConfig {
    /// log2 of the pattern history table size.
    pub pht_bits: u32,
    /// Global history length in branches.
    pub history_bits: u32,
    /// log2 of the BTB size.
    pub btb_bits: u32,
    /// Return-address-stack depth.
    pub ras_entries: usize,
}

impl BranchConfig {
    /// Largest accepted [`BranchConfig::pht_bits`]: 2^24 one-byte
    /// counters, 16 MiB. (Table 2 uses 14.)
    pub const MAX_PHT_BITS: u32 = 24;
    /// Largest accepted [`BranchConfig::btb_bits`]: 2^20 tag/target
    /// pairs, 16 MiB. (Table 2 uses 11.)
    pub const MAX_BTB_BITS: u32 = 20;
    /// Largest accepted [`BranchConfig::history_bits`]: the history
    /// register and its mask are one `u64`. (Table 2 uses 12.)
    pub const MAX_HISTORY_BITS: u32 = 63;
}

/// Configuration of injected sampling interrupts (to measure TEA's
/// runtime overhead empirically; Section 3 reports 1.1 % at 4 kHz).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplingInjection {
    /// Cycles between PMU samples (the paper's 4 kHz at 3.2 GHz is one
    /// per 800 000 cycles).
    pub interval: u64,
    /// Cycles the core spends in the sampling interrupt handler per
    /// sample (trap, read CSRs, store the 88 B sample, return).
    pub handler_cycles: u64,
}

/// Full simulator configuration. `Default` reproduces the paper's
/// Table 2.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Instructions fetched per cycle (from a single line).
    pub fetch_width: usize,
    /// Fetch buffer capacity.
    pub fetch_buffer: usize,
    /// Decode/dispatch width.
    pub dispatch_width: usize,
    /// Commit width.
    pub commit_width: usize,
    /// Re-order buffer capacity.
    pub rob_entries: usize,
    /// Integer issue queue.
    pub int_iq: IqConfig,
    /// Memory issue queue.
    pub mem_iq: IqConfig,
    /// Floating-point issue queue.
    pub fp_iq: IqConfig,
    /// Load-queue entries (half of the 64-entry LSQ).
    pub ldq_entries: usize,
    /// Store-queue entries (half of the 64-entry LSQ).
    pub stq_entries: usize,
    /// Maximum unresolved branches in flight.
    pub max_branches: usize,
    /// Stores written back to the L1D per cycle.
    pub store_drain_width: usize,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// Enable the L1D next-line prefetcher (Table 2 has one).
    pub next_line_prefetch: bool,
    /// L1 instruction TLB.
    pub itlb: TlbConfig,
    /// L1 data TLB.
    pub dtlb: TlbConfig,
    /// Unified L2 TLB.
    pub l2_tlb: TlbConfig,
    /// Page-table-walk latency on an L2 TLB miss.
    pub ptw_latency: u64,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Main memory.
    pub mem: MemConfig,
    /// Functional-unit latencies.
    pub lat: LatencyConfig,
    /// Branch predictor.
    pub branch: BranchConfig,
    /// Cycles from branch resolution to the first correct-path fetch.
    pub redirect_penalty: u64,
    /// Cycles from a commit-time flush (exception, CSR, memory-ordering
    /// violation) to the first correct-path fetch.
    pub flush_penalty: u64,
    /// When set, the core takes a sampling interrupt every `interval`
    /// cycles, pipeline-flushing and running the handler — the
    /// measurable runtime cost of enabling TEA.
    pub sampling_injection: Option<SamplingInjection>,
    /// Fast-forward quiescent stall runs: when a cycle makes no
    /// progress anywhere in the pipeline and none is possible before
    /// the earliest pending event, jump the clock there directly and
    /// deliver the skipped span to observers in bulk
    /// ([`crate::trace::Observer::on_stall_run`]). Results are
    /// bit-identical either way; disable only to cross-check that
    /// identity or to debug the timing model cycle by cycle.
    pub fast_forward: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            fetch_width: 8,
            fetch_buffer: 48,
            dispatch_width: 4,
            commit_width: 4,
            rob_entries: 192,
            int_iq: IqConfig {
                entries: 80,
                issue_width: 4,
            },
            mem_iq: IqConfig {
                entries: 48,
                issue_width: 2,
            },
            fp_iq: IqConfig {
                entries: 48,
                issue_width: 2,
            },
            ldq_entries: 32,
            stq_entries: 32,
            max_branches: 30,
            store_drain_width: 1,
            l1i: CacheConfig {
                sets: 64,
                ways: 8,
                line_bytes: 64,
                hit_latency: 1,
                mshrs: 4,
            },
            l1d: CacheConfig {
                sets: 64,
                ways: 8,
                line_bytes: 64,
                hit_latency: 3,
                mshrs: 16,
            },
            llc: CacheConfig {
                sets: 2048,
                ways: 16,
                line_bytes: 64,
                hit_latency: 21,
                mshrs: 12,
            },
            next_line_prefetch: true,
            itlb: TlbConfig {
                entries: 32,
                ways: 32,
                hit_latency: 0,
            },
            dtlb: TlbConfig {
                entries: 32,
                ways: 32,
                hit_latency: 0,
            },
            l2_tlb: TlbConfig {
                entries: 1024,
                ways: 1,
                hit_latency: 8,
            },
            ptw_latency: 60,
            page_bytes: 4096,
            mem: MemConfig {
                latency: 100,
                min_line_interval: 13,
            },
            lat: LatencyConfig {
                int_alu: 1,
                int_mul: 3,
                int_div: 16,
                fp_alu: 4,
                fp_mul: 4,
                fp_div: 16,
                fp_sqrt: 26,
                forward: 2,
            },
            branch: BranchConfig {
                pht_bits: 14,
                history_bits: 12,
                btb_bits: 11,
                ras_entries: 16,
            },
            redirect_penalty: 5,
            flush_penalty: 7,
            sampling_injection: None,
            fast_forward: true,
        }
    }
}

impl SimConfig {
    /// A smaller, narrower core (2-wide, 48-entry ROB, half-size caches):
    /// an efficiency-core-class configuration for robustness studies.
    #[must_use]
    pub fn little() -> Self {
        SimConfig {
            fetch_width: 4,
            fetch_buffer: 16,
            dispatch_width: 2,
            commit_width: 2,
            rob_entries: 48,
            int_iq: IqConfig {
                entries: 24,
                issue_width: 2,
            },
            mem_iq: IqConfig {
                entries: 12,
                issue_width: 1,
            },
            fp_iq: IqConfig {
                entries: 12,
                issue_width: 1,
            },
            ldq_entries: 12,
            stq_entries: 12,
            max_branches: 12,
            l1i: CacheConfig {
                sets: 32,
                ways: 8,
                line_bytes: 64,
                hit_latency: 1,
                mshrs: 2,
            },
            l1d: CacheConfig {
                sets: 32,
                ways: 8,
                line_bytes: 64,
                hit_latency: 3,
                mshrs: 8,
            },
            llc: CacheConfig {
                sets: 512,
                ways: 16,
                line_bytes: 64,
                hit_latency: 18,
                mshrs: 8,
            },
            ..SimConfig::default()
        }
    }

    /// A wider, deeper core (8-wide dispatch/commit, 320-entry ROB):
    /// a server-class configuration for robustness studies.
    #[must_use]
    pub fn big() -> Self {
        SimConfig {
            fetch_width: 8,
            fetch_buffer: 64,
            dispatch_width: 8,
            commit_width: 8,
            rob_entries: 320,
            int_iq: IqConfig {
                entries: 120,
                issue_width: 6,
            },
            mem_iq: IqConfig {
                entries: 64,
                issue_width: 3,
            },
            fp_iq: IqConfig {
                entries: 64,
                issue_width: 3,
            },
            ldq_entries: 48,
            stq_entries: 48,
            max_branches: 48,
            ..SimConfig::default()
        }
    }

    /// Validates structural invariants (power-of-two geometries, nonzero
    /// widths, queues that fit inside the ROB).
    ///
    /// Called by [`crate::core::Core::try_new`] before any state is
    /// built, so a nonsensical configuration is rejected at cell-spec
    /// time with a named field instead of panicking deep inside the
    /// timing model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending field
    /// and the violated constraint.
    pub fn validate(&self) -> Result<(), SimError> {
        fn fail(field: &'static str, reason: impl Into<String>) -> Result<(), SimError> {
            Err(SimError::InvalidConfig {
                field,
                reason: reason.into(),
            })
        }
        for (field, v) in [
            ("fetch_width", self.fetch_width),
            ("dispatch_width", self.dispatch_width),
            ("commit_width", self.commit_width),
            ("max_branches", self.max_branches),
            ("store_drain_width", self.store_drain_width),
            ("ldq_entries", self.ldq_entries),
            ("stq_entries", self.stq_entries),
        ] {
            if v == 0 {
                return fail(field, "must be nonzero");
            }
        }
        if self.fetch_buffer == 0 {
            return fail("fetch_buffer", "must be nonzero");
        }
        if self.rob_entries < self.commit_width {
            return fail("rob_entries", "must be at least commit_width");
        }
        if self.ldq_entries > self.rob_entries {
            return fail("ldq_entries", "load queue cannot exceed the ROB");
        }
        if self.stq_entries > self.rob_entries {
            return fail("stq_entries", "store queue cannot exceed the ROB");
        }
        for (field, iq) in [
            ("int_iq", &self.int_iq),
            ("mem_iq", &self.mem_iq),
            ("fp_iq", &self.fp_iq),
        ] {
            if iq.entries == 0 || iq.issue_width == 0 {
                return fail(field, "entries and issue_width must be nonzero");
            }
        }
        for (field, c) in [("l1i", &self.l1i), ("l1d", &self.l1d), ("llc", &self.llc)] {
            if !c.line_bytes.is_power_of_two() {
                return fail(field, "line size must be a power of two");
            }
            if !c.sets.is_power_of_two() {
                return fail(field, "set count must be a power of two");
            }
            if c.ways == 0 {
                return fail(field, "must have at least one way");
            }
            if c.mshrs == 0 {
                return fail(field, "must have at least one MSHR");
            }
        }
        if !self.page_bytes.is_power_of_two() || self.page_bytes < self.l1d.line_bytes {
            return fail("page_bytes", "must be a power of two >= the line size");
        }
        for (field, t) in [
            ("itlb", &self.itlb),
            ("dtlb", &self.dtlb),
            ("l2_tlb", &self.l2_tlb),
        ] {
            if t.entries == 0 || t.ways == 0 {
                return fail(field, "entries and ways must be nonzero");
            }
            if t.entries % t.ways != 0 {
                return fail(field, "entries must be a multiple of ways");
            }
        }
        if self.mem.latency == 0 {
            return fail("mem.latency", "must be nonzero");
        }
        if self.mem.min_line_interval == 0 {
            return fail("mem.min_line_interval", "must be nonzero");
        }
        for (field, bits, cap) in [
            (
                "branch.pht_bits",
                self.branch.pht_bits,
                BranchConfig::MAX_PHT_BITS,
            ),
            (
                "branch.btb_bits",
                self.branch.btb_bits,
                BranchConfig::MAX_BTB_BITS,
            ),
            (
                "branch.history_bits",
                self.branch.history_bits,
                BranchConfig::MAX_HISTORY_BITS,
            ),
        ] {
            if bits > cap {
                return fail(field, format!("must be at most {cap}"));
            }
        }
        if let Some(s) = &self.sampling_injection {
            if s.interval == 0 {
                return fail("sampling_injection.interval", "must be nonzero");
            }
        }
        Ok(())
    }

    /// Renders the configuration as the paper's Table 2 rows.
    #[must_use]
    pub fn table2(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Core      | OoO BOOM-like: {}-wide fetch, {}-wide decode/commit",
            self.fetch_width, self.dispatch_width
        );
        let _ = writeln!(
            s,
            "Front-end | {}-entry fetch buffer, gshare {}-bit PHT, max {} outstanding branches",
            self.fetch_buffer, self.branch.pht_bits, self.max_branches
        );
        let _ = writeln!(
            s,
            "Execute   | {}-entry ROB, {}-entry {}-issue int queue, {}-entry {}-issue mem queue, {}-entry {}-issue FP queue",
            self.rob_entries,
            self.int_iq.entries,
            self.int_iq.issue_width,
            self.mem_iq.entries,
            self.mem_iq.issue_width,
            self.fp_iq.entries,
            self.fp_iq.issue_width
        );
        let _ = writeln!(
            s,
            "LSU       | {}-entry load queue, {}-entry store queue",
            self.ldq_entries, self.stq_entries
        );
        let _ = writeln!(
            s,
            "L1        | {} KB {}-way I-cache, {} KB {}-way D-cache w/ {} MSHRs, next-line prefetcher: {}",
            self.l1i.capacity_bytes() / 1024,
            self.l1i.ways,
            self.l1d.capacity_bytes() / 1024,
            self.l1d.ways,
            self.l1d.mshrs,
            self.next_line_prefetch
        );
        let _ = writeln!(
            s,
            "LLC       | {} MiB {}-way w/ {} MSHRs",
            self.llc.capacity_bytes() / (1024 * 1024),
            self.llc.ways,
            self.llc.mshrs
        );
        let _ = writeln!(
            s,
            "TLB       | {}-entry fully-assoc L1 D-TLB, {}-entry fully-assoc L1 I-TLB, {}-entry direct-mapped L2 TLB, PTW {} cycles",
            self.dtlb.entries, self.itlb.entries, self.l2_tlb.entries, self.ptw_latency
        );
        let _ = writeln!(
            s,
            "Memory    | {}-cycle latency, one {} B line per {} cycles (~16 GB/s at 3.2 GHz)",
            self.mem.latency, self.l1d.line_bytes, self.mem.min_line_interval
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2_headlines() {
        let c = SimConfig::default();
        c.validate().expect("Table 2 config is valid");
        assert_eq!(c.rob_entries, 192);
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.fetch_buffer, 48);
        assert_eq!(c.ldq_entries + c.stq_entries, 64);
        assert_eq!(c.l1i.capacity_bytes(), 32 * 1024);
        assert_eq!(c.l1d.capacity_bytes(), 32 * 1024);
        assert_eq!(c.llc.capacity_bytes(), 2 * 1024 * 1024);
        assert_eq!(c.dtlb.entries, 32);
        assert_eq!(c.l2_tlb.entries, 1024);
    }

    #[test]
    fn table2_render_mentions_key_structures() {
        let t = SimConfig::default().table2();
        assert!(t.contains("192-entry ROB"));
        assert!(t.contains("2 MiB"));
        assert!(t.contains("next-line prefetcher"));
    }

    #[test]
    fn presets_are_valid_and_ordered() {
        SimConfig::little().validate().expect("little is valid");
        SimConfig::big().validate().expect("big is valid");
        assert!(SimConfig::little().rob_entries < SimConfig::default().rob_entries);
        assert!(SimConfig::big().rob_entries > SimConfig::default().rob_entries);
    }

    fn field_of(err: SimError) -> &'static str {
        match err {
            SimError::InvalidConfig { field, .. } => field,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    fn broken(mutate: impl FnOnce(&mut SimConfig)) -> SimError {
        let mut c = SimConfig::default();
        mutate(&mut c);
        c.validate().unwrap_err()
    }

    #[test]
    fn invalid_configs_name_the_offending_field() {
        assert_eq!(field_of(broken(|c| c.l1d.sets = 63)), "l1d");
        assert_eq!(field_of(broken(|c| c.commit_width = 0)), "commit_width");
        assert_eq!(
            field_of(broken(|c| c.ldq_entries = c.rob_entries + 1)),
            "ldq_entries"
        );
        assert_eq!(
            field_of(broken(|c| c.stq_entries = c.rob_entries + 1)),
            "stq_entries"
        );
        assert_eq!(field_of(broken(|c| c.llc.ways = 0)), "llc");
        assert_eq!(field_of(broken(|c| c.l2_tlb.ways = 3)), "l2_tlb");
        assert_eq!(
            field_of(broken(|c| c.mem.min_line_interval = 0)),
            "mem.min_line_interval"
        );
        assert_eq!(
            field_of(broken(|c| {
                c.sampling_injection = Some(SamplingInjection {
                    interval: 0,
                    handler_cycles: 10,
                });
            })),
            "sampling_injection.interval"
        );
    }

    #[test]
    fn oversized_pht_is_rejected() {
        // 64 overflows the table-size shift; 40 would abort on
        // allocation.
        for bits in [BranchConfig::MAX_PHT_BITS + 1, 40, 64] {
            assert_eq!(
                field_of(broken(|c| c.branch.pht_bits = bits)),
                "branch.pht_bits"
            );
        }
        let mut c = SimConfig::default();
        c.branch.pht_bits = BranchConfig::MAX_PHT_BITS;
        c.validate().expect("the cap itself is valid");
    }

    #[test]
    fn oversized_btb_is_rejected() {
        for bits in [BranchConfig::MAX_BTB_BITS + 1, 40, 64] {
            assert_eq!(
                field_of(broken(|c| c.branch.btb_bits = bits)),
                "branch.btb_bits"
            );
        }
        let mut c = SimConfig::default();
        c.branch.btb_bits = BranchConfig::MAX_BTB_BITS;
        c.validate().expect("the cap itself is valid");
    }

    #[test]
    fn oversized_history_is_rejected() {
        for bits in [64, 100] {
            assert_eq!(
                field_of(broken(|c| c.branch.history_bits = bits)),
                "branch.history_bits"
            );
        }
        let mut c = SimConfig::default();
        c.branch.history_bits = BranchConfig::MAX_HISTORY_BITS;
        c.validate().expect("the cap itself is valid");
    }
}
