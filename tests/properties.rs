//! Property-based tests over random programs and random profiles:
//! simulator-wide invariants that must hold for *any* program, and
//! metric-level laws that must hold for *any* cycle stack.

use proptest::prelude::*;
use tea_core::correlation::pearson;
use tea_core::golden::GoldenReference;
use tea_core::pics::{Granularity, Pics, UnitMap};
use tea_core::pics_error;
use tea_sim::core::{simulate, Core};
use tea_sim::psv::{CommitState, Event, Psv};
use tea_sim::trace::NullObserver;
use tea_sim::SimConfig;
use tea_workloads::synth;

fn small_kernel_cfg() -> (u64, usize) {
    (60, 18) // iterations, body ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every cycle of any random program lands in exactly one commit
    /// state, and the golden reference attributes all of them.
    #[test]
    fn golden_attributes_every_cycle(seed in 0u64..5000) {
        let (iters, ops) = small_kernel_cfg();
        let program = synth::random_kernel(seed, iters, ops);
        let mut golden = GoldenReference::new();
        let stats = simulate(&program, SimConfig::default(), &mut [&mut golden]);
        let state_sum: u64 = stats.state_cycles.iter().sum();
        prop_assert_eq!(state_sum, stats.cycles);
        prop_assert!((golden.pics().total() - stats.cycles as f64).abs() < 1e-6);
    }

    /// The timing simulator is a pure function of the program.
    #[test]
    fn simulation_is_deterministic(seed in 0u64..5000) {
        let (iters, ops) = small_kernel_cfg();
        let program = synth::random_kernel(seed, iters, ops);
        let a = simulate(&program, SimConfig::default(), &mut []);
        let b = simulate(&program, SimConfig::default(), &mut []);
        prop_assert_eq!(a, b);
    }

    /// Dynamic instruction counts are preserved: the simulator retires
    /// exactly the committed stream the interpreter produces.
    #[test]
    fn retired_matches_functional_execution(seed in 0u64..5000) {
        let (iters, ops) = small_kernel_cfg();
        let program = synth::random_kernel(seed, iters, ops);
        let mut m = tea_isa::Machine::new(&program);
        let functional = m.run(u64::MAX);
        let stats = simulate(&program, SimConfig::default(), &mut []);
        prop_assert_eq!(stats.retired, functional);
    }

    /// Flushed cycles can only exist if something flushed.
    #[test]
    fn flushed_cycles_imply_flushes(seed in 0u64..5000) {
        let (iters, ops) = small_kernel_cfg();
        let program = synth::random_kernel(seed, iters, ops);
        let stats = simulate(&program, SimConfig::default(), &mut []);
        if stats.cycles_in(CommitState::Flushed) > 0 {
            prop_assert!(stats.squashes > 0 || stats.commit_flushes > 0);
        }
    }

    /// The error metric is bounded, zero on self, and monotone under
    /// coarsening for arbitrary random profiles.
    #[test]
    fn error_metric_laws(
        entries in prop::collection::vec(
            (0u64..64, 0u16..512, 0.1f64..100.0), 1..40),
        scheme_entries in prop::collection::vec(
            (0u64..64, 0u16..512, 0.1f64..100.0), 1..40),
    ) {
        let mut a = tea_isa::asm::Asm::new();
        a.func("f");
        for _ in 0..32 {
            a.nop();
        }
        a.func("g");
        for _ in 0..32 {
            a.nop();
        }
        a.halt();
        let program = a.finish().unwrap();
        let mut golden = Pics::new();
        for (idx, bits, cyc) in &entries {
            golden.add(program.addr_of(*idx as usize), Psv::from_bits(*bits), *cyc);
        }
        let mut scheme = Pics::new();
        for (idx, bits, cyc) in &scheme_entries {
            scheme.add(program.addr_of(*idx as usize), Psv::from_bits(*bits), *cyc);
        }
        let full = Psv::from_bits(Psv::ALL_BITS);
        let units_i = UnitMap::new(&program, Granularity::Instruction);
        let units_b = UnitMap::new(&program, Granularity::BasicBlock);
        let units_f = UnitMap::new(&program, Granularity::Function);
        let units_a = UnitMap::new(&program, Granularity::Application);
        // Zero on self.
        prop_assert!(pics_error(&golden, &golden, full, &units_i) < 1e-9);
        // Bounded and monotone over granularity.
        let e_i = pics_error(&scheme, &golden, full, &units_i);
        let e_b = pics_error(&scheme, &golden, full, &units_b);
        let e_f = pics_error(&scheme, &golden, full, &units_f);
        let e_a = pics_error(&scheme, &golden, full, &units_a);
        for e in [e_i, e_b, e_f, e_a] {
            prop_assert!((0.0..=1.0).contains(&e));
        }
        // Coarsening cannot increase the error — but only partitions
        // that refine each other are comparable: blocks and functions
        // both coarsen instructions, and the application coarsens
        // everything (blocks may span functions in branch-free code, so
        // block vs function is not ordered in general).
        prop_assert!(e_b <= e_i + 1e-9);
        prop_assert!(e_f <= e_i + 1e-9);
        prop_assert!(e_a <= e_f + 1e-9);
        prop_assert!(e_a <= e_b + 1e-9);
        // Masking to a subset never increases the error of a
        // same-shape profile... (not a theorem in general, so only
        // check the self case under masking.)
        let sub = Psv::from_events(&[Event::StL1, Event::FlMb]);
        prop_assert!(pics_error(&golden, &golden, sub, &units_i) < 1e-9);
    }

    /// Scaling a PICS preserves relative shape exactly.
    #[test]
    fn pics_scaling_preserves_shape(
        entries in prop::collection::vec((0u64..32, 0u16..512, 0.1f64..50.0), 1..30),
        target in 1.0f64..1e6,
    ) {
        let mut pics = Pics::new();
        for (idx, bits, cyc) in &entries {
            pics.add(0x1_0000 + idx * 4, Psv::from_bits(*bits), *cyc);
        }
        let scaled = pics.scaled_to(target);
        prop_assert!((scaled.total() - target).abs() < 1e-6 * target.max(1.0));
        // Ratios preserved for the top instruction.
        let (top, cycles) = pics.top_instructions(1)[0];
        let (stop, scycles) = scaled.top_instructions(1)[0];
        prop_assert_eq!(top, stop);
        prop_assert!(((cycles / pics.total()) - (scycles / scaled.total())).abs() < 1e-9);
    }

    /// Pearson correlation is always within [-1, 1] when defined.
    #[test]
    fn pearson_is_bounded(xs in prop::collection::vec(-100.0f64..100.0, 2..50),
                          ys in prop::collection::vec(-100.0f64..100.0, 2..50)) {
        let n = xs.len().min(ys.len());
        if let Some(r) = pearson(&xs[..n], &ys[..n]) {
            prop_assert!((-1.0..=1.0).contains(&r));
        }
    }
}

#[test]
fn incremental_run_for_matches_single_run() {
    // Running the core in slices must equal one shot (the cycle loop
    // has no hidden cross-call state).
    let program = synth::random_kernel(99, 60, 18);
    let one = simulate(&program, SimConfig::default(), &mut []);
    let mut core = Core::new(&program, SimConfig::default());
    let mut guard = 0;
    loop {
        let before = core.stats().cycles;
        core.try_run_for(1000, &mut NullObserver).unwrap();
        if core.stats().cycles == before || core.stats().retired == one.retired {
            break;
        }
        guard += 1;
        assert!(guard < 10_000, "sliced run did not terminate");
    }
    let sliced = core.stats();
    assert_eq!(sliced.cycles, one.cycles);
    assert_eq!(sliced.retired, one.retired);
    assert_eq!(sliced.state_cycles, one.state_cycles);
}
