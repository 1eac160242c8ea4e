//! The cycle-level out-of-order core.
//!
//! A trace-driven timing model of a BOOM-class 4-way superscalar core
//! (Table 2): 8-wide fetch into a 48-entry fetch buffer, 4-wide
//! dispatch into a 192-entry ROB and three issue queues, event-driven
//! wakeup, a load/store unit with store-to-load forwarding and memory
//! ordering speculation, and a commit stage classified every cycle into
//! the paper's four states (Compute / Stalled / Drained / Flushed).
//!
//! The functional interpreter supplies the committed-path instruction
//! stream; the timing model adds speculation effects by squashing and
//! re-fetching instructions on flushes. Every in-flight instruction
//! carries a [`Psv`] that accumulates the nine events of Table 1, and
//! every cycle observers receive a [`CycleView`] — this is TEA's
//! hardware substrate.

use std::collections::VecDeque;
use std::sync::Arc;

use tea_isa::capture::{codec, CapturedTrace};
use tea_isa::interp::{DynInst, Machine};
use tea_isa::program::Program;
use tea_isa::{ExecClass, Inst, IsaError, Reg, RegRef};

use crate::branch::{BranchPredictor, BranchStats, ControlKind};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::hierarchy::{HierarchyStats, MemHierarchy};
use crate::psv::{CommitState, Event, Psv};
use crate::queue::{wheel_cycles, CalendarQueue};
use crate::slab::{IqKind, Ring, Slab, SlotRef};
use crate::trace::{CycleView, DynObservers, InstRef, Observer, ObserverHost, RetiredInst};

/// Aggregate statistics of one simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Retired (committed) instructions.
    pub retired: u64,
    /// Cycles spent in each commit state, indexed as
    /// [`CommitState::ALL`].
    pub state_cycles: [u64; 4],
    /// Retired instructions whose final PSV had each event set, indexed
    /// by [`Event::ALL`].
    pub event_insts: [u64; 9],
    /// Retired instructions subjected to at least one event.
    pub eventful_insts: u64,
    /// Retired instructions subjected to two or more events (the
    /// paper's *combined events*).
    pub combined_event_insts: u64,
    /// Pipeline squashes (mispredicts, commit flushes, MO violations).
    pub squashes: u64,
    /// Memory ordering violations detected.
    pub mo_violations: u64,
    /// Commit-time flushes (exceptions / CSR instructions).
    pub commit_flushes: u64,
    /// Injected sampling interrupts taken.
    pub sampling_interrupts: u64,
    /// Memory hierarchy statistics.
    pub hier: HierarchyStats,
    /// Branch predictor statistics.
    pub branch: BranchStats,
}

impl SimStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Cycles spent in a given commit state.
    #[must_use]
    pub fn cycles_in(&self, state: CommitState) -> u64 {
        self.state_cycles[state.index()]
    }

    /// Fraction of eventful retired instructions that saw combined
    /// events (the paper reports 30.0 %).
    #[must_use]
    pub fn combined_event_fraction(&self) -> f64 {
        if self.eventful_insts == 0 {
            0.0
        } else {
            self.combined_event_insts as f64 / self.eventful_insts as f64
        }
    }
}

#[derive(Debug)]
struct IssueQueue {
    cap: usize,
    width: usize,
    count: usize,
    /// `(ready, seq, idx, gen)` calendar queue; pop order matches the
    /// old `BinaryHeap<Reverse<_>>` exactly.
    ready: CalendarQueue,
}

impl IssueQueue {
    fn new(cap: usize, width: usize, wheel: u64) -> Self {
        IssueQueue {
            cap,
            width,
            count: 0,
            ready: CalendarQueue::new(wheel),
        }
    }
    fn push_ready(&mut self, ready: u64, seq: u64, r: SlotRef) {
        self.ready.push(ready, seq, r.idx, r.gen);
    }
}

/// How a run's simulated cycles were spent by the engine itself:
/// actively simulated versus covered by stall fast-forward jumps.
/// `active_cycles + skipped_cycles == SimStats::cycles`.
///
/// This lives outside [`SimStats`] because the split is an engine
/// property, not a machine property: a ticked run of the same program
/// reports all-active while producing bit-identical `SimStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Cycles the engine simulated one by one.
    pub active_cycles: u64,
    /// Cycles covered by quiescent-stall fast-forward jumps.
    pub skipped_cycles: u64,
    /// Number of fast-forward jumps taken.
    pub stall_runs: u64,
}

#[derive(Clone, Copy, Debug)]
struct LdqEntry {
    seq: u64,
    addr: u64,
    issued_at: Option<u64>,
    forwarded_from: Option<u64>,
}

#[derive(Clone, Copy, Debug)]
struct StqEntry {
    seq: u64,
    addr: u64,
    addr_known: bool,
    complete: Option<u64>,
    committed: bool,
    drain_started: bool,
    drain_done: u64,
}

/// Floor below which the live stream's replay buffer never shrinks:
/// steady-state windows bounce around ROB size, and re-growing a tiny
/// deque every few squashes would cost more than it saves.
const STREAM_SHRINK_FLOOR: usize = 256;

/// Cycles without a commit after which the run is declared a timing
/// deadlock. Also caps the stall fast-forward jump so the deadlock
/// assert fires at the exact cycle a ticked run would reach.
const DEADLOCK_CYCLES: u64 = 500_000;

/// Correct-path instruction stream: either a live functional
/// interpreter with a replay window, or a shared pre-captured trace.
///
/// The replay source turns `get(seq)` into a bounds-checked array read
/// and squash/replay into pure cursor arithmetic on the [`Core`]; the
/// live source interprets on demand and buffers the in-flight window so
/// squashed instructions can be re-fetched without re-execution.
// One StreamSource exists per Core, never in a collection, so the
// Live/Replay size disparity costs nothing; boxing the machine would
// only add a pointer chase to the live fetch path.
#[allow(clippy::large_enum_variant)]
enum StreamSource<'p> {
    Live {
        machine: Machine<'p>,
        buf: VecDeque<DynInst>,
        base: u64,
    },
    Replay {
        /// The program the trace was captured from; the slim trace
        /// stores only static instruction indices and reconstructs the
        /// pc and decoded instruction from the program's layout.
        program: &'p Program,
        trace: Arc<CapturedTrace>,
        /// The decode window: one compressed block decoded into
        /// reconstructed [`DynInst`]s. Owned per core (the shared
        /// `Arc` trace stays immutable), refilled on block-crossing
        /// misses; the hot path is a bounds-checked array read.
        buf: Vec<DynInst>,
        /// Sequence number of `buf[0]` (a multiple of the codec block
        /// length).
        base: u64,
    },
}

/// The first failure hit while feeding the correct-path stream. One
/// slot covers both failure kinds so [`Core::try_run_for`] pays a
/// single `Option` probe per cycle, exactly as it did before replay
/// integrity checking existed.
#[derive(Clone)]
enum StreamError {
    /// An architectural fault from the interpreter (e.g. the pc
    /// escaping the text segment). A captured trace carries the fault
    /// of its capture run and surfaces it at the same sequence number.
    Isa(IsaError),
    /// An integrity failure while decoding a replay trace.
    Trace(tea_isa::TraceError),
}

struct Stream<'p> {
    source: StreamSource<'p>,
    /// First fault hit by the stream. Once set, the stream reports
    /// end-of-program and [`Core::try_run_for`] surfaces it as the
    /// matching [`SimError`] variant.
    error: Option<StreamError>,
}

impl<'p> Stream<'p> {
    fn new(program: &'p Program) -> Self {
        Stream {
            source: StreamSource::Live {
                machine: Machine::new(program),
                buf: VecDeque::new(),
                base: 0,
            },
            error: None,
        }
    }

    fn replay(program: &'p Program, trace: Arc<CapturedTrace>) -> Self {
        Stream {
            source: StreamSource::Replay {
                program,
                trace,
                buf: Vec::new(),
                base: 0,
            },
            error: None,
        }
    }

    fn get(&mut self, seq: u64) -> Option<DynInst> {
        match &mut self.source {
            StreamSource::Live { machine, buf, base } => {
                while *base + buf.len() as u64 <= seq {
                    if self.error.is_some() {
                        return None;
                    }
                    match machine.try_step() {
                        Ok(Some(d)) => buf.push_back(d),
                        Ok(None) => return None,
                        Err(e) => {
                            self.error = Some(StreamError::Isa(e));
                            return None;
                        }
                    }
                }
                buf.get((seq - *base) as usize).copied()
            }
            StreamSource::Replay {
                program,
                trace,
                buf,
                base,
            } => {
                // Hot path: the seq lives in the current decode block.
                if seq >= *base {
                    if let Some(d) = buf.get((seq - *base) as usize) {
                        return Some(*d);
                    }
                }
                if seq >= trace.len() {
                    if self.error.is_none() {
                        self.error = trace.error().cloned().map(StreamError::Isa);
                    }
                    return None;
                }
                // Miss: decode the containing block. Squash recovery
                // can also rewind across a block boundary, so this
                // moves the window backward as readily as forward.
                let block = (seq / codec::BLOCK_LEN as u64) as usize;
                match trace.decode_block_into(program, block, buf) {
                    Ok(b) => {
                        *base = b;
                        buf.get((seq - *base) as usize).copied()
                    }
                    Err(e) => {
                        // Corrupt block: report end-of-stream now and
                        // let try_run_for surface the error this cycle.
                        if self.error.is_none() {
                            self.error = Some(StreamError::Trace(e));
                        }
                        buf.clear();
                        None
                    }
                }
            }
        }
    }

    fn release_below(&mut self, seq: u64) {
        let StreamSource::Live { buf, base, .. } = &mut self.source else {
            return; // replay holds no window: commits release nothing
        };
        while *base < seq && !buf.is_empty() {
            buf.pop_front();
            *base += 1;
        }
        // A large squash can leave the deque holding peak-window
        // capacity forever; give it back once the live window has
        // collapsed to a quarter of it (hysteresis: shrink to twice the
        // current need, never below the steady-state floor).
        let cap = buf.capacity();
        if cap > STREAM_SHRINK_FLOOR && buf.len() * 4 < cap {
            buf.shrink_to((buf.len() * 2).max(STREAM_SHRINK_FLOOR));
        }
    }

    /// Capacity of the live replay window (0 for a replay stream);
    /// exercised by the shrink regression test.
    #[cfg(test)]
    fn window_capacity(&self) -> usize {
        match &self.source {
            StreamSource::Live { buf, .. } => buf.capacity(),
            StreamSource::Replay { .. } => 0,
        }
    }
}

/// Classification snapshot captured at the commit stage.
#[derive(Clone, Copy, Debug)]
struct CommitSnapshot {
    state: CommitState,
    stalled_head: Option<InstRef>,
    next_commit: Option<InstRef>,
}

/// The simulated core.
pub struct Core<'p> {
    cfg: SimConfig,
    stream: Stream<'p>,
    hier: MemHierarchy,
    bp: BranchPredictor,
    cycle: u64,
    cursor: u64,

    slab: Slab,
    fetch_buf: Ring<SlotRef>,
    rob: Ring<SlotRef>,
    rename: [Option<SlotRef>; 64],
    int_q: IssueQueue,
    mem_q: IssueQueue,
    fp_q: IssueQueue,
    int_div_free: u64,
    fp_div_free: u64,
    fp_sqrt_free: u64,
    ldq: Vec<LdqEntry>,
    stq: Ring<StqEntry>,
    /// `(cycle, seq, idx, gen)` completion events.
    events: CalendarQueue,

    fetch_done: bool,
    fetch_blocked_until: u64,
    pending_fe_bits: Psv,
    fetch_stalled_branch: Option<SlotRef>,
    last_line: Option<u64>,
    inflight_ctrl: usize,
    line_shift: u32,

    flush_active: bool,
    sample_countdown: u64,
    last_committed: Option<InstRef>,
    halt_committed: bool,
    last_commit_cycle: u64,
    /// Whether any pipeline phase changed machine state this cycle.
    /// Cleared at the top of every cycle; a cycle that ends with it
    /// still false (and empty commit/dispatch/fetch buffers) is
    /// *quiescent* and eligible for stall fast-forward.
    progress: bool,

    committed_buf: Vec<InstRef>,
    retired_buf: Vec<RetiredInst>,
    dispatched_buf: Vec<InstRef>,
    fetched_buf: Vec<InstRef>,
    /// Squash points raised since observers were last notified; drained
    /// into [`Observer::on_squash`] ahead of each cycle's `on_cycle`.
    squashed_buf: Vec<u64>,
    /// Spare waiter buffer rotated through slots in `process_events`, so
    /// waking a completion's dependents never allocates in steady state.
    waiters_scratch: Vec<SlotRef>,

    /// Cycles covered by stall fast-forward jumps (a subset of
    /// `stats.cycles`). Kept outside [`SimStats`] on purpose: the
    /// breakdown differs between fast-forwarded and ticked runs, while
    /// `SimStats` equality is the bit-identity contract between them.
    skipped_cycles: u64,
    /// Number of fast-forward jumps taken.
    stall_runs: u64,

    stats: SimStats,

    #[cfg(feature = "obs")]
    obs: ObsAccum,
}

/// Local accumulators for the `obs` feature: plain counters updated in
/// the cycle loop, published to the global [`tea_obs::metrics`]
/// registry in one batch of relaxed atomic adds when the run halts.
#[cfg(feature = "obs")]
#[derive(Default)]
struct ObsAccum {
    /// Cycles by observer-buffer (commit-buffer) occupancy: index `w`
    /// counts cycles that committed `w` instructions, `8` means 8+.
    occupancy: [u64; 9],
    /// Guards against double-publishing when `try_run_for` is called
    /// again on an already-halted core.
    flushed: bool,
}

impl<'p> Core<'p> {
    /// Creates a core ready to execute `program`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SimConfig::validate`]); use [`Core::try_new`] to reject a bad
    /// configuration as a value instead.
    #[must_use]
    pub fn new(program: &'p Program, cfg: SimConfig) -> Self {
        Self::try_new(program, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a core ready to execute `program`, validating the
    /// configuration first.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending field
    /// when the configuration violates a structural invariant.
    pub fn try_new(program: &'p Program, cfg: SimConfig) -> Result<Self, SimError> {
        Self::build(Stream::new(program), cfg)
    }

    /// Creates a core that replays a pre-captured instruction trace
    /// instead of interpreting the program live.
    ///
    /// The replayed run is bit-identical to the interpreted run of the
    /// same program — the timing model consumes the exact same
    /// committed stream — with `stream.get` an array read over a
    /// decoded block and the squash/re-fetch path pure cursor
    /// arithmetic. Measured end to end it runs no faster than live
    /// interpretation, so the experiment engine does not use it.
    /// `program` must be
    /// the program `trace` was captured from: the slim trace stores
    /// only static instruction indices and reconstructs the pc and
    /// decoded instruction from the program's layout.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] as [`Core::try_new`] does.
    pub fn try_with_trace(
        program: &'p Program,
        trace: Arc<CapturedTrace>,
        cfg: SimConfig,
    ) -> Result<Self, SimError> {
        Self::build(Stream::replay(program, trace), cfg)
    }

    /// [`Core::try_with_trace`], panicking on an invalid configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SimConfig::validate`]).
    #[must_use]
    pub fn with_trace(program: &'p Program, trace: Arc<CapturedTrace>, cfg: SimConfig) -> Self {
        Self::try_with_trace(program, trace, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    fn build(stream: Stream<'p>, cfg: SimConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        let slot_count = cfg.rob_entries + cfg.fetch_buffer + cfg.fetch_width + 4;
        let wheel = wheel_cycles(&cfg);
        let no_slot = SlotRef { idx: 0, gen: 0 };
        let no_store = StqEntry {
            seq: 0,
            addr: 0,
            addr_known: false,
            complete: None,
            committed: false,
            drain_started: false,
            drain_done: 0,
        };
        Ok(Core {
            hier: MemHierarchy::new(&cfg),
            bp: BranchPredictor::new(&cfg.branch),
            stream,
            cycle: 0,
            cursor: 0,
            slab: Slab::new(slot_count),
            fetch_buf: Ring::new(cfg.fetch_buffer, no_slot),
            rob: Ring::new(cfg.rob_entries, no_slot),
            rename: [None; 64],
            int_q: IssueQueue::new(cfg.int_iq.entries, cfg.int_iq.issue_width, wheel),
            mem_q: IssueQueue::new(cfg.mem_iq.entries, cfg.mem_iq.issue_width, wheel),
            fp_q: IssueQueue::new(cfg.fp_iq.entries, cfg.fp_iq.issue_width, wheel),
            int_div_free: 0,
            fp_div_free: 0,
            fp_sqrt_free: 0,
            ldq: Vec::with_capacity(cfg.ldq_entries),
            stq: Ring::new(cfg.stq_entries, no_store),
            events: CalendarQueue::new(wheel),
            fetch_done: false,
            fetch_blocked_until: 0,
            pending_fe_bits: Psv::empty(),
            fetch_stalled_branch: None,
            last_line: None,
            inflight_ctrl: 0,
            line_shift: cfg.l1i.line_bytes.trailing_zeros(),
            flush_active: false,
            sample_countdown: cfg.sampling_injection.map_or(u64::MAX, |s| s.interval),
            last_committed: None,
            halt_committed: false,
            last_commit_cycle: 0,
            progress: false,
            committed_buf: Vec::with_capacity(8),
            retired_buf: Vec::with_capacity(8),
            dispatched_buf: Vec::with_capacity(8),
            fetched_buf: Vec::with_capacity(8),
            squashed_buf: Vec::with_capacity(4),
            waiters_scratch: Vec::new(),
            skipped_cycles: 0,
            stall_runs: 0,
            stats: SimStats::default(),
            #[cfg(feature = "obs")]
            obs: ObsAccum::default(),
            cfg,
        })
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    fn valid(&self, r: SlotRef) -> bool {
        self.slab.valid(r)
    }

    fn kill_slot(&mut self, idx: u32) {
        if let Some(kind) = self.slab.kill(idx) {
            match kind {
                IqKind::Int => self.int_q.count -= 1,
                IqKind::Mem => self.mem_q.count -= 1,
                IqKind::Fp => self.fp_q.count -= 1,
            }
        }
    }

    fn iq_kind(class: ExecClass) -> IqKind {
        match class {
            ExecClass::Load | ExecClass::Store | ExecClass::Prefetch => IqKind::Mem,
            ExecClass::FpAlu | ExecClass::FpMul | ExecClass::FpDiv | ExecClass::FpSqrt => {
                IqKind::Fp
            }
            _ => IqKind::Int,
        }
    }

    fn is_ctrl(class: ExecClass) -> bool {
        matches!(class, ExecClass::Branch | ExecClass::Jump)
    }

    fn reg_index(r: RegRef) -> usize {
        match r {
            RegRef::Int(x) => x.index(),
            RegRef::Fp(f) => 32 + f.index(),
        }
    }

    fn inst_ref(&self, r: SlotRef) -> InstRef {
        let s = &self.slab[r.idx];
        InstRef {
            seq: s.d.seq,
            addr: s.d.pc,
            psv: s.psv,
        }
    }

    // ---- squash ----

    fn squash_from(&mut self, from_seq: u64) {
        self.progress = true;
        self.stats.squashes += 1;
        self.squashed_buf.push(from_seq);
        while let Some(&r) = self.rob.back() {
            if self.slab[r.idx].d.seq >= from_seq {
                self.rob.pop_back();
            } else {
                break;
            }
        }
        while let Some(&r) = self.fetch_buf.back() {
            if self.slab[r.idx].d.seq >= from_seq {
                self.fetch_buf.pop_back();
            } else {
                break;
            }
        }
        self.ldq.retain(|e| e.seq < from_seq);
        while let Some(e) = self.stq.back() {
            if e.seq >= from_seq {
                self.stq.pop_back();
            } else {
                break;
            }
        }
        for idx in 0..self.slab.capacity() as u32 {
            if self.slab[idx].live && self.slab[idx].d.seq >= from_seq {
                self.kill_slot(idx);
            }
        }
        // Rebuild the rename map from the surviving ROB contents.
        self.rename = [None; 64];
        for &r in self.rob.iter() {
            if let Some(dst) = self.slab[r.idx].d.inst.dst() {
                self.rename[Self::reg_index(dst)] = Some(r);
            }
        }
        // Recount unresolved in-flight control instructions.
        self.inflight_ctrl = self
            .rob
            .iter()
            .chain(self.fetch_buf.iter())
            .filter(|r| {
                let s = &self.slab[r.idx];
                Self::is_ctrl(s.d.inst.class()) && !s.resolved
            })
            .count();
        if let Some(b) = self.fetch_stalled_branch {
            if !self.valid(b) {
                self.fetch_stalled_branch = None;
            }
        }
        self.cursor = self.cursor.min(from_seq);
        self.last_line = None;
        self.pending_fe_bits = Psv::empty();
        self.fetch_done = false;
    }

    // ---- cycle phases ----

    #[inline(always)]
    fn process_events(&mut self) {
        let now = self.cycle;
        self.events.advance(now);
        while let Some((_c, _seq, idx, gen)) = self.events.pop_due() {
            self.progress = true;
            let r = SlotRef { idx, gen };
            if !self.valid(r) {
                continue;
            }
            // Rotate the slot's waiter list out through the scratch
            // buffer (and leave the scratch's spare capacity behind in
            // the slot) instead of `mem::take`, which would free this
            // list and cost a fresh allocation per completion.
            let mut waiters = std::mem::take(&mut self.waiters_scratch);
            let (comp, class, mispredicted, already_resolved, seq) = {
                let s = &mut self.slab[idx];
                std::mem::swap(&mut s.waiters, &mut waiters);
                (
                    s.complete
                        .expect("completion event without completion time"),
                    s.d.inst.class(),
                    s.mispredicted,
                    s.resolved,
                    s.d.seq,
                )
            };
            for &w in &waiters {
                if !self.valid(w) {
                    continue;
                }
                let (push, ready, wseq, kind) = {
                    let ws = &mut self.slab[w.idx];
                    ws.ready_lb = ws.ready_lb.max(comp);
                    ws.unknown_deps -= 1;
                    (
                        ws.unknown_deps == 0,
                        ws.ready_lb,
                        ws.d.seq,
                        Self::iq_kind(ws.d.inst.class()),
                    )
                };
                if push {
                    self.iq_mut(kind).push_ready(ready, wseq, w);
                }
            }
            waiters.clear();
            self.waiters_scratch = waiters;
            if Self::is_ctrl(class) && !already_resolved {
                self.slab[idx].resolved = true;
                self.inflight_ctrl = self.inflight_ctrl.saturating_sub(1);
                if mispredicted {
                    self.slab[idx].psv.set(Event::FlMb);
                    self.squash_from(seq + 1);
                    self.flush_active = true;
                    self.fetch_blocked_until = self
                        .fetch_blocked_until
                        .max(now + self.cfg.redirect_penalty);
                    self.fetch_stalled_branch = None;
                }
            }
        }
    }

    fn iq_mut(&mut self, kind: IqKind) -> &mut IssueQueue {
        match kind {
            IqKind::Int => &mut self.int_q,
            IqKind::Mem => &mut self.mem_q,
            IqKind::Fp => &mut self.fp_q,
        }
    }

    #[inline(always)]
    fn commit(&mut self) -> CommitSnapshot {
        let now = self.cycle;
        self.committed_buf.clear();
        self.retired_buf.clear();
        while self.committed_buf.len() < self.cfg.commit_width {
            let Some(&head) = self.rob.front() else { break };
            let (complete, seq) = {
                let s = &self.slab[head.idx];
                (s.complete, s.d.seq)
            };
            let Some(c) = complete else { break };
            if c > now {
                break;
            }
            let (mut psv, addr, class, dispatch_cycle, exec_latency, inst) = {
                let s = &self.slab[head.idx];
                let exec_latency = s.complete.unwrap_or(s.issue_cycle) - s.issue_cycle;
                (
                    s.psv,
                    s.d.pc,
                    s.d.inst.class(),
                    s.dispatch_cycle,
                    exec_latency,
                    s.d.inst,
                )
            };
            if inst.flushes_at_commit() {
                psv.set(Event::FlEx);
            }
            let iref = InstRef { seq, addr, psv };
            self.committed_buf.push(iref);
            self.last_committed = Some(iref);
            self.retired_buf.push(RetiredInst {
                seq,
                addr,
                psv,
                commit_cycle: now,
                dispatch_cycle,
                exec_latency,
                class,
            });
            match class {
                ExecClass::Load => {
                    // The LDQ is seq-ordered and loads retire
                    // oldest-first, so the entry is almost always at
                    // position 0 — stop at the first hit instead of
                    // testing the whole queue.
                    if let Some(pos) = self.ldq.iter().position(|e| e.seq == seq) {
                        self.ldq.remove(pos);
                    }
                }
                ExecClass::Store => {
                    if let Some(e) = self.stq.iter_mut().find(|e| e.seq == seq) {
                        e.committed = true;
                    }
                }
                _ => {}
            }
            self.rob.pop_front();
            self.kill_slot(head.idx);
            self.stats.retired += 1;
            self.last_commit_cycle = now;
            // Most retired instructions have an empty PSV; walk only the
            // set bits instead of testing all nine events.
            let mut bits = psv.bits();
            if bits != 0 {
                self.stats.eventful_insts += 1;
                if psv.is_combined() {
                    self.stats.combined_event_insts += 1;
                }
                while bits != 0 {
                    self.stats.event_insts[bits.trailing_zeros() as usize] += 1;
                    bits &= bits - 1;
                }
            }
            self.stream.release_below(seq + 1);
            if inst == Inst::Halt {
                self.halt_committed = true;
                break;
            }
            if inst.flushes_at_commit() {
                self.stats.commit_flushes += 1;
                self.squash_from(seq + 1);
                self.flush_active = true;
                self.fetch_blocked_until =
                    self.fetch_blocked_until.max(now + self.cfg.flush_penalty);
                break;
            }
        }
        // Classification snapshot at commit time.
        if !self.committed_buf.is_empty() {
            CommitSnapshot {
                state: CommitState::Compute,
                stalled_head: None,
                next_commit: None,
            }
        } else if let Some(&head) = self.rob.front() {
            let head_ref = self.inst_ref(head);
            CommitSnapshot {
                state: CommitState::Stalled,
                stalled_head: Some(head_ref),
                next_commit: Some(head_ref),
            }
        } else if self.flush_active {
            let next = self.peek_next_commit();
            CommitSnapshot {
                state: CommitState::Flushed,
                stalled_head: None,
                next_commit: next,
            }
        } else {
            let next = self.peek_next_commit();
            CommitSnapshot {
                state: CommitState::Drained,
                stalled_head: None,
                next_commit: next,
            }
        }
    }

    fn peek_next_commit(&mut self) -> Option<InstRef> {
        if let Some(&front) = self.fetch_buf.front() {
            return Some(self.inst_ref(front));
        }
        self.stream.get(self.cursor).map(|d| InstRef {
            seq: d.seq,
            addr: d.pc,
            psv: Psv::empty(),
        })
    }

    #[inline(always)]
    fn drain_stores(&mut self) {
        let now = self.cycle;
        // Free fully drained stores from the front, in order.
        while let Some(e) = self.stq.front() {
            if e.drain_started && e.drain_done <= now {
                self.stq.pop_front();
                self.progress = true;
            } else {
                break;
            }
        }
        // Initiate up to `store_drain_width` writebacks, in order.
        let mut started = 0;
        for i in 0..self.stq.len() {
            if started >= self.cfg.store_drain_width {
                break;
            }
            let e = self.stq[i];
            if !e.committed {
                break;
            }
            if e.drain_started {
                continue;
            }
            let out = self.hier.access_data(e.addr, now);
            let entry = &mut self.stq[i];
            entry.drain_started = true;
            entry.drain_done = out.ready;
            started += 1;
            self.progress = true;
        }
    }

    #[inline(always)]
    fn issue(&mut self) {
        for kind in [IqKind::Int, IqKind::Mem, IqKind::Fp] {
            let width = self.iq_mut(kind).width;
            let mut issued = 0;
            while issued < width {
                let cycle = self.cycle;
                let q = self.iq_mut(kind);
                q.ready.advance(cycle);
                let Some((_, seq, idx, gen)) = q.ready.pop_due() else {
                    break;
                };
                self.progress = true;
                let r = SlotRef { idx, gen };
                if !self.valid(r) {
                    continue; // squashed while queued; costs no slot
                }
                if self.slab[idx].issued {
                    continue;
                }
                let class = self.slab[idx].d.inst.class();
                let now = self.cycle;
                let lat = self.cfg.lat;
                let complete = match class {
                    ExecClass::IntAlu
                    | ExecClass::Branch
                    | ExecClass::Jump
                    | ExecClass::Csr
                    | ExecClass::Nop => now + lat.int_alu,
                    ExecClass::IntMul => now + lat.int_mul,
                    ExecClass::IntDiv => {
                        if self.int_div_free > now {
                            let free = self.int_div_free;
                            self.iq_mut(kind).push_ready(free, seq, r);
                            issued += 1;
                            continue;
                        }
                        self.int_div_free = now + lat.int_div;
                        now + lat.int_div
                    }
                    ExecClass::FpAlu => now + lat.fp_alu,
                    ExecClass::FpMul => now + lat.fp_mul,
                    ExecClass::FpDiv => {
                        if self.fp_div_free > now {
                            let free = self.fp_div_free;
                            self.iq_mut(kind).push_ready(free, seq, r);
                            issued += 1;
                            continue;
                        }
                        self.fp_div_free = now + lat.fp_div;
                        now + lat.fp_div
                    }
                    ExecClass::FpSqrt => {
                        if self.fp_sqrt_free > now {
                            let free = self.fp_sqrt_free;
                            self.iq_mut(kind).push_ready(free, seq, r);
                            issued += 1;
                            continue;
                        }
                        self.fp_sqrt_free = now + lat.fp_sqrt;
                        now + lat.fp_sqrt
                    }
                    ExecClass::Load => self.issue_load(r),
                    ExecClass::Store => self.issue_store(r),
                    ExecClass::Prefetch => self.issue_prefetch(r),
                };
                // The slot may have been squashed by its own store's MO
                // violation handling (never: squashes start strictly
                // after the issuing instruction), so it is still valid.
                let s = &mut self.slab[idx];
                s.issued = true;
                s.issue_cycle = now;
                s.complete = Some(complete);
                if let Some(k) = s.in_iq.take() {
                    debug_assert_eq!(k, kind);
                    self.iq_mut(kind).count -= 1;
                }
                self.events.push(complete, seq, idx, gen);
                issued += 1;
            }
        }
    }

    fn issue_load(&mut self, r: SlotRef) -> u64 {
        let now = self.cycle;
        let (addr, seq) = {
            let s = &self.slab[r.idx];
            (s.d.mem_addr.expect("load without address"), s.d.seq)
        };
        let tr = self.hier.translate_data(addr, now);
        if tr.miss {
            self.slab[r.idx].psv.set(Event::StTlb);
        }
        let word = addr >> 3;
        let mut forward: Option<(u64, u64)> = None;
        for e in self.stq.iter().rev() {
            if e.seq >= seq || !e.addr_known {
                continue;
            }
            if e.addr >> 3 == word {
                forward = Some((e.seq, e.complete.expect("resolved store without data time")));
                break;
            }
        }
        let entry = self
            .ldq
            .iter_mut()
            .find(|e| e.seq == seq)
            .expect("issued load missing from LDQ");
        entry.issued_at = Some(now);
        if let Some((sseq, scomp)) = forward {
            entry.forwarded_from = Some(sseq);
            tr.ready.max(scomp) + self.cfg.lat.forward
        } else {
            let out = self.hier.access_data(addr, tr.ready);
            if out.l1_miss {
                self.slab[r.idx].psv.set(Event::StL1);
            }
            if out.llc_miss {
                self.slab[r.idx].psv.set(Event::StLlc);
            }
            out.ready
        }
    }

    fn issue_store(&mut self, r: SlotRef) -> u64 {
        let now = self.cycle;
        let (addr, seq) = {
            let s = &self.slab[r.idx];
            (s.d.mem_addr.expect("store without address"), s.d.seq)
        };
        let tr = self.hier.translate_data(addr, now);
        if tr.miss {
            self.slab[r.idx].psv.set(Event::StTlb);
        }
        let complete = tr.ready + 1;
        if let Some(e) = self.stq.iter_mut().find(|e| e.seq == seq) {
            e.addr_known = true;
            e.complete = Some(complete);
        }
        // Memory ordering check: a younger load to the same word that
        // already executed read stale data.
        let word = addr >> 3;
        let victim = self
            .ldq
            .iter()
            .filter(|le| {
                le.seq > seq
                    && le.issued_at.is_some()
                    && le.addr >> 3 == word
                    && le.forwarded_from != Some(seq)
            })
            .map(|le| le.seq)
            .min();
        if let Some(vseq) = victim {
            self.slab[r.idx].psv.set(Event::FlMo);
            self.stats.mo_violations += 1;
            self.squash_from(vseq);
            self.flush_active = true;
            self.fetch_blocked_until = self.fetch_blocked_until.max(now + self.cfg.flush_penalty);
        }
        complete
    }

    fn issue_prefetch(&mut self, r: SlotRef) -> u64 {
        let now = self.cycle;
        let addr = self.slab[r.idx]
            .d
            .mem_addr
            .expect("prefetch without address");
        let tr = self.hier.translate_data(addr, now);
        self.hier.prefetch_data(addr, tr.ready);
        now + 1
    }

    #[inline(always)]
    fn dispatch(&mut self) {
        let now = self.cycle;
        self.dispatched_buf.clear();
        for _ in 0..self.cfg.dispatch_width {
            let Some(&front) = self.fetch_buf.front() else {
                break;
            };
            let class = self.slab[front.idx].d.inst.class();
            if self.rob.len() >= self.cfg.rob_entries {
                break;
            }
            let kind = Self::iq_kind(class);
            if self.iq_mut(kind).count >= self.iq_mut(kind).cap {
                break;
            }
            match class {
                ExecClass::Load if self.ldq.len() >= self.cfg.ldq_entries => {
                    break;
                }
                ExecClass::Store if self.stq.len() >= self.cfg.stq_entries => {
                    // The paper's DR-SQ event: a store that cannot
                    // dispatch because the store queue is full of
                    // completed-but-not-retired stores. Setting the bit
                    // is progress only the first time — later stalled
                    // cycles re-set it idempotently, so they can still
                    // fast-forward.
                    let s = &mut self.slab[front.idx];
                    if !s.psv.contains(Event::DrSq) {
                        self.progress = true;
                    }
                    s.psv.set(Event::DrSq);
                    break;
                }
                _ => {}
            }
            self.fetch_buf.pop_front();
            self.rob.push_back(front);
            self.flush_active = false;
            let (d, mut ready_lb, mut unknown) = {
                let s = &mut self.slab[front.idx];
                s.dispatch_cycle = now;
                (s.d, now + 1, 0u8)
            };
            self.dispatched_buf.push(self.inst_ref(front));
            for src in d.inst.srcs().into_iter().flatten() {
                let ri = Self::reg_index(src);
                if let Some(pref) = self.rename[ri] {
                    if self.valid(pref) {
                        match self.slab[pref.idx].complete {
                            Some(c) => ready_lb = ready_lb.max(c),
                            None => {
                                unknown += 1;
                                self.slab[pref.idx].waiters.push(front);
                            }
                        }
                    }
                }
            }
            if let Some(dst) = d.inst.dst() {
                self.rename[Self::reg_index(dst)] = Some(front);
            }
            {
                let s = &mut self.slab[front.idx];
                s.ready_lb = ready_lb;
                s.unknown_deps = unknown;
                s.in_iq = Some(kind);
            }
            self.iq_mut(kind).count += 1;
            if unknown == 0 {
                self.iq_mut(kind).push_ready(ready_lb, d.seq, front);
            }
            match class {
                ExecClass::Load => self.ldq.push(LdqEntry {
                    seq: d.seq,
                    addr: d.mem_addr.expect("load without address"),
                    issued_at: None,
                    forwarded_from: None,
                }),
                ExecClass::Store => self.stq.push_back(StqEntry {
                    seq: d.seq,
                    addr: d.mem_addr.expect("store without address"),
                    addr_known: false,
                    complete: None,
                    committed: false,
                    drain_started: false,
                    drain_done: 0,
                }),
                _ => {}
            }
        }
    }

    #[inline(always)]
    fn fetch(&mut self) {
        let now = self.cycle;
        self.fetched_buf.clear();
        if self.fetch_done || now < self.fetch_blocked_until || self.fetch_stalled_branch.is_some()
        {
            return;
        }
        let mut line_this_cycle: Option<u64> = None;
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_buf.len() >= self.cfg.fetch_buffer {
                break;
            }
            if self.inflight_ctrl >= self.cfg.max_branches {
                break;
            }
            let Some(d) = self.stream.get(self.cursor) else {
                self.fetch_done = true;
                self.progress = true;
                break;
            };
            let line = d.pc >> self.line_shift;
            match line_this_cycle {
                None => {
                    if self.last_line != Some(line) {
                        let out = self.hier.access_inst(d.pc, now);
                        if out.l1i_miss || out.itlb_miss {
                            self.fetch_blocked_until = out.ready;
                            self.progress = true;
                            if out.l1i_miss {
                                self.pending_fe_bits.set(Event::DrL1);
                            }
                            if out.itlb_miss {
                                self.pending_fe_bits.set(Event::DrTlb);
                            }
                            return;
                        }
                    }
                    line_this_cycle = Some(line);
                    self.last_line = Some(line);
                }
                Some(l) if l != line => break,
                _ => {}
            }
            let r = self.slab.alloc(d);
            self.slab[r.idx].psv = self.pending_fe_bits;
            self.pending_fe_bits = Psv::empty();
            self.fetch_buf.push_back(r);
            self.fetched_buf.push(self.inst_ref(r));
            self.cursor += 1;
            let class = d.inst.class();
            if Self::is_ctrl(class) {
                let outcome = d.branch.expect("control instruction without outcome");
                let kind = match d.inst {
                    Inst::Jal { rd, .. } if rd == Reg::RA => ControlKind::Call,
                    Inst::Jal { .. } => ControlKind::DirectJump,
                    Inst::Jalr { rd, rs1, .. } if rs1 == Reg::RA && rd == Reg::ZERO => {
                        ControlKind::Return
                    }
                    Inst::Jalr { rd, .. } if rd == Reg::RA => ControlKind::IndirectCall,
                    Inst::Jalr { .. } => ControlKind::IndirectJump,
                    _ => ControlKind::Conditional,
                };
                let mispredict =
                    self.bp
                        .predict_and_update(d.pc, kind, outcome.taken, outcome.target);
                self.slab[r.idx].mispredicted = mispredict;
                self.inflight_ctrl += 1;
                if mispredict {
                    self.fetch_stalled_branch = Some(r);
                    break;
                }
                if outcome.taken {
                    self.last_line = None;
                    break;
                }
            }
            if d.inst == Inst::Halt {
                self.fetch_done = true;
                break;
            }
        }
    }

    /// Earliest future cycle at which a quiescent pipeline could act
    /// again: the soonest pending completion event, issue-queue ready
    /// time, store-queue front drain, or fetch unblock. `u64::MAX`
    /// means nothing is in flight at all (a true deadlock — the jump
    /// then lands on the deadlock-assert cycle).
    ///
    /// The bound is a *lower* bound on the next state change, never an
    /// exact prediction: stale heap entries (squashed instructions) may
    /// surface earlier and simply make that cycle non-quiescent. Commit
    /// progress is bounded by the ROB head's own completion timestamp:
    /// [`Core::commit`] compares `slot.complete` against the clock
    /// lazily, so the head can retire on a cycle where no event pops
    /// (its event and the commit are distinct state changes, and the
    /// heap may have been drained by a squash's generation bumps).
    #[inline]
    fn quiescent_bound(&self) -> u64 {
        let mut bound = u64::MAX;
        if let Some(&head) = self.rob.front() {
            if let Some(c) = self.slab[head.idx].complete {
                bound = bound.min(c);
            }
        }
        if let Some(c) = self.events.next_cycle() {
            bound = bound.min(c);
        }
        for q in [&self.int_q, &self.mem_q, &self.fp_q] {
            if let Some(ready) = q.ready.next_cycle() {
                bound = bound.min(ready);
            }
        }
        if let Some(e) = self.stq.front() {
            // Only the front entry's completion frees STQ space or pops
            // the queue; deeper drains finish silently until they reach
            // the front.
            if e.drain_started {
                bound = bound.min(e.drain_done);
            }
        }
        // Fetch wakes at `fetch_blocked_until` unless it is finished or
        // parked on an unresolved mispredicted branch (whose resolution
        // is an event in the heap, already covered).
        if !self.fetch_done
            && self.fetch_stalled_branch.is_none()
            && self.fetch_blocked_until > self.cycle
        {
            bound = bound.min(self.fetch_blocked_until);
        }
        bound
    }

    /// Runs to completion (the program's `halt` committing), driving the
    /// observers, and returns the run's statistics.
    ///
    /// # Panics
    ///
    /// Panics if the program faults architecturally (see
    /// [`Core::try_run`]), the core makes no forward progress for an
    /// extended period (a timing-model bug), or the program never halts
    /// within `u64::MAX` cycles.
    pub fn run(&mut self, observers: &mut [&mut dyn Observer]) -> SimStats {
        self.run_for(u64::MAX, observers)
    }

    /// Runs for at most `max_cycles`, driving the observers.
    ///
    /// # Panics
    ///
    /// Panics if the program faults architecturally (see
    /// [`Core::try_run_for`]) or the core makes no forward progress for
    /// an extended period.
    pub fn run_for(&mut self, max_cycles: u64, observers: &mut [&mut dyn Observer]) -> SimStats {
        self.run_for_with(max_cycles, &mut DynObservers(observers))
    }

    /// Runs to completion, surfacing architectural program faults as
    /// values.
    ///
    /// # Errors
    ///
    /// See [`Core::try_run_for`].
    pub fn try_run(&mut self, observers: &mut [&mut dyn Observer]) -> Result<SimStats, SimError> {
        self.try_run_for(u64::MAX, observers)
    }

    /// Runs for at most `max_cycles`, driving the observers, surfacing
    /// architectural program faults as values.
    ///
    /// # Errors
    ///
    /// See [`Core::try_run_for_with`].
    pub fn try_run_for(
        &mut self,
        max_cycles: u64,
        observers: &mut [&mut dyn Observer],
    ) -> Result<SimStats, SimError> {
        self.try_run_for_with(max_cycles, &mut DynObservers(observers))
    }

    /// [`Core::run`] against a statically typed [`ObserverHost`] (a
    /// single observer, or an enum-dispatched set): observer delivery
    /// monomorphizes into the cycle loop instead of going through the
    /// `dyn Observer` vtable.
    ///
    /// # Panics
    ///
    /// As [`Core::run`].
    pub fn run_with<H: ObserverHost + ?Sized>(&mut self, host: &mut H) -> SimStats {
        self.run_for_with(u64::MAX, host)
    }

    /// [`Core::run_for`] against a statically typed [`ObserverHost`].
    ///
    /// # Panics
    ///
    /// As [`Core::run_for`].
    pub fn run_for_with<H: ObserverHost + ?Sized>(
        &mut self,
        max_cycles: u64,
        host: &mut H,
    ) -> SimStats {
        self.try_run_for_with(max_cycles, host)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Core::try_run`] against a statically typed [`ObserverHost`].
    ///
    /// # Errors
    ///
    /// See [`Core::try_run_for_with`].
    pub fn try_run_with<H: ObserverHost + ?Sized>(
        &mut self,
        host: &mut H,
    ) -> Result<SimStats, SimError> {
        self.try_run_for_with(u64::MAX, host)
    }

    /// Runs for at most `max_cycles`, driving an [`ObserverHost`],
    /// surfacing architectural program faults as values. This is the
    /// engine's one cycle loop; every other run entry point wraps it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Isa`] when the functional interpreter faults
    /// while feeding the correct-path stream — e.g. the pc escapes the
    /// text segment through a wild `jalr`. The error carries the
    /// instruction context; statistics accumulated so far are kept on
    /// the core but not returned. Returns [`SimError::Trace`] when a
    /// replayed trace fails integrity checks mid-run.
    pub fn try_run_for_with<H: ObserverHost + ?Sized>(
        &mut self,
        max_cycles: u64,
        host: &mut H,
    ) -> Result<SimStats, SimError> {
        // One span per run segment (never per cycle): the frame the
        // obs sampler's folded stacks attribute simulation time to.
        #[cfg(feature = "obs")]
        let _run_span = tea_obs::span(tea_obs::Level::Trace, "tea_sim::core", "sim_run", &[]);
        let start = self.cycle;
        while !self.halt_committed && self.cycle - start < max_cycles {
            self.progress = false;
            self.take_sampling_interrupt();
            self.process_events();
            let snapshot = self.commit();
            self.drain_stores();
            self.issue();
            self.dispatch();
            self.fetch();

            self.stats.state_cycles[snapshot.state.index()] += 1;
            #[cfg(feature = "obs")]
            {
                self.obs.occupancy[self.committed_buf.len().min(8)] += 1;
            }
            // Squash notifications precede the cycle view so profilers
            // re-key delayed samples before attributing this cycle.
            self.notify_squashes(host);
            let view = CycleView {
                cycle: self.cycle,
                state: snapshot.state,
                committed: &self.committed_buf,
                stalled_head: snapshot.stalled_head,
                next_commit: snapshot.next_commit,
                last_committed: self.last_committed,
                dispatched: &self.dispatched_buf,
                fetched: &self.fetched_buf,
            };
            host.deliver_cycle(&view);
            if !self.retired_buf.is_empty() {
                host.deliver_commit_batch(&self.retired_buf);
            }
            // Probe before cloning: the clone of the (almost always
            // absent) error used to run every cycle.
            if self.stream.error.is_some() {
                self.stats.hier = self.hier.stats();
                self.stats.branch = self.bp.stats();
                let e = self.stream.error.clone().expect("checked above");
                return Err(match e {
                    StreamError::Isa(e) => SimError::Isa(e),
                    StreamError::Trace(e) => SimError::Trace(e),
                });
            }
            assert!(
                self.cycle - self.last_commit_cycle < DEADLOCK_CYCLES,
                "no commit for 500k cycles at cycle {} (pc of next inst: {:?}): timing deadlock",
                self.cycle,
                self.stream.get(self.cursor).map(|d| d.pc)
            );
            // Stall fast-forward: a quiescent cycle (no state change in
            // any pipeline phase, nothing committed/dispatched/fetched)
            // repeats identically until the earliest pending event, so
            // jump there instead of simulating the copies. The jump is
            // additionally bounded by the next sampling-interrupt fire,
            // the deadlock assert, and the `max_cycles` budget, all of
            // which must land on the exact cycle a ticked run reaches.
            let mut step = 1;
            if self.cfg.fast_forward
                && !self.progress
                && self.committed_buf.is_empty()
                && self.dispatched_buf.is_empty()
                && self.fetched_buf.is_empty()
            {
                let now = self.cycle;
                let mut target = self.quiescent_bound();
                if self.cfg.sampling_injection.is_some() {
                    // The countdown is >= 1 here (a fire this cycle
                    // squashes, which is progress), and the fire cycle
                    // itself must be simulated.
                    target = target.min(now.saturating_add(self.sample_countdown));
                }
                target = target
                    .min(self.last_commit_cycle.saturating_add(DEADLOCK_CYCLES))
                    .min(start.saturating_add(max_cycles));
                if target > now + 1 {
                    // Skip cycles now+1 .. target-1; cycle `target` is
                    // simulated normally next iteration.
                    let n = target - now - 1;
                    let si = snapshot.state.index();
                    self.stats.state_cycles[si] = self.stats.state_cycles[si].saturating_add(n);
                    #[cfg(feature = "obs")]
                    {
                        // Quiescent cycles commit nothing: occupancy 0.
                        self.obs.occupancy[0] = self.obs.occupancy[0].saturating_add(n);
                    }
                    if self.cfg.sampling_injection.is_some() {
                        // n <= countdown - 1, so the timer never fires
                        // inside the span and the next simulated cycle
                        // decrements it exactly as a ticked run would.
                        self.sample_countdown -= n;
                    }
                    let view = CycleView {
                        cycle: now + 1,
                        state: snapshot.state,
                        committed: &self.committed_buf,
                        stalled_head: snapshot.stalled_head,
                        next_commit: snapshot.next_commit,
                        last_committed: self.last_committed,
                        dispatched: &self.dispatched_buf,
                        fetched: &self.fetched_buf,
                    };
                    host.deliver_stall_run(&view, n);
                    self.skipped_cycles += n;
                    self.stall_runs += 1;
                    step = n + 1;
                }
            }
            self.cycle += step;
            self.stats.cycles += step;
        }
        self.stats.hier = self.hier.stats();
        self.stats.branch = self.bp.stats();
        if self.halt_committed {
            // A squash raised in the halt-committing cycle's later
            // pipeline phases must still reach observers.
            self.notify_squashes(host);
            host.deliver_finish(self.stats.cycles);
            #[cfg(feature = "obs")]
            self.publish_obs_metrics();
        }
        Ok(self.stats)
    }

    /// Publishes the run's counter totals into the global
    /// [`tea_obs::metrics`] registry: aggregate cycles/commits/squashes,
    /// cache and TLB miss totals, and the observer-buffer occupancy
    /// histogram. Called once per run, at halt — a handful of relaxed
    /// atomic adds, nothing per cycle. Totals accumulate across every
    /// core the process runs, so suite-level metrics are the sum over
    /// cells and identical for serial and parallel schedules.
    #[cfg(feature = "obs")]
    fn publish_obs_metrics(&mut self) {
        if self.obs.flushed {
            return;
        }
        self.obs.flushed = true;
        let m = tea_obs::metrics::global();
        m.counter("sim.runs").inc();
        m.counter("sim.cycles").add(self.stats.cycles);
        m.counter("sim.commits").add(self.stats.retired);
        m.counter("sim.squashes").add(self.stats.squashes);
        m.counter("sim.commit_flushes")
            .add(self.stats.commit_flushes);
        m.counter("sim.mo_violations").add(self.stats.mo_violations);
        m.counter("sim.sampling_interrupts")
            .add(self.stats.sampling_interrupts);
        let h = &self.stats.hier;
        m.counter("sim.cache.l1i_misses").add(h.l1i_misses);
        m.counter("sim.cache.l1d_misses").add(h.l1d_misses);
        m.counter("sim.cache.llc_misses").add(h.llc_misses);
        m.counter("sim.tlb.itlb_misses").add(h.itlb_misses);
        m.counter("sim.tlb.dtlb_misses").add(h.dtlb_misses);
        let occupancy = m.histogram("sim.observer_buffer_occupancy", &[0, 1, 2, 3, 4, 5, 6, 7]);
        for (width, &cycles) in self.obs.occupancy.iter().enumerate() {
            occupancy.observe_n(width as u64, cycles);
        }
    }

    /// Delivers (and drains) any buffered squash notifications to every
    /// observer. No-op when nothing was squashed, so the per-cycle call
    /// costs one emptiness check.
    fn notify_squashes<H: ObserverHost + ?Sized>(&mut self, host: &mut H) {
        if self.squashed_buf.is_empty() {
            return;
        }
        for &from_seq in &self.squashed_buf {
            host.deliver_squash(from_seq);
        }
        self.squashed_buf.clear();
    }

    /// Takes a PMU sampling interrupt when the injected sampling timer
    /// fires: the pipeline is flushed and fetch stalls while the handler
    /// stores the sample (Section 3's runtime overhead, measured rather
    /// than modelled).
    fn take_sampling_interrupt(&mut self) {
        let Some(inj) = self.cfg.sampling_injection else {
            return;
        };
        self.sample_countdown = self.sample_countdown.saturating_sub(1);
        if self.sample_countdown > 0 {
            return;
        }
        self.sample_countdown = inj.interval;
        self.stats.sampling_interrupts += 1;
        // Trap at the next instruction boundary: squash everything that
        // has not committed and run the handler.
        let resume_seq = self
            .rob
            .front()
            .map(|r| self.slab[r.idx].d.seq)
            .or_else(|| self.fetch_buf.front().map(|r| self.slab[r.idx].d.seq))
            .unwrap_or(self.cursor);
        self.squash_from(resume_seq);
        self.flush_active = true;
        self.fetch_blocked_until = self
            .fetch_blocked_until
            .max(self.cycle + self.cfg.flush_penalty + inj.handler_cycles);
        // The handler makes forward progress even if the program does
        // not commit during it.
        self.last_commit_cycle = self.cycle;
    }

    /// Whether the program's `halt` has committed.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halt_committed
    }

    /// Current cycle (the core's local clock).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Jumps the local clock forward to `cycle` without simulating the
    /// skipped cycles (used by [`crate::system::System`] to keep
    /// descheduled cores aligned with the global clock; skipped cycles
    /// do not count towards [`SimStats::cycles`]).
    pub fn advance_clock_to(&mut self, cycle: u64) {
        if cycle > self.cycle {
            self.cycle = cycle;
            self.last_commit_cycle = self.last_commit_cycle.max(cycle.saturating_sub(1));
        }
    }

    /// Takes an external interrupt: squashes everything that has not
    /// committed and blocks fetch for `penalty` cycles (context-switch
    /// cost). The squashed instructions re-fetch afterwards.
    pub fn interrupt_flush(&mut self, penalty: u64) {
        if self.halt_committed {
            return;
        }
        let resume_seq = self
            .rob
            .front()
            .map(|r| self.slab[r.idx].d.seq)
            .or_else(|| self.fetch_buf.front().map(|r| self.slab[r.idx].d.seq))
            .unwrap_or(self.cursor);
        self.squash_from(resume_seq);
        self.flush_active = true;
        self.fetch_blocked_until = self.fetch_blocked_until.max(self.cycle + penalty);
        self.last_commit_cycle = self.cycle;
    }

    pub(crate) fn hierarchy_mut(&mut self) -> &mut MemHierarchy {
        &mut self.hier
    }

    /// How the run's cycles were spent by the engine: actively
    /// simulated vs covered by stall fast-forward jumps.
    /// `active_cycles + skipped_cycles` always equals
    /// [`SimStats::cycles`]; a ticked (`fast_forward: false`) run
    /// reports all cycles active.
    #[must_use]
    pub fn cycle_breakdown(&self) -> CycleBreakdown {
        CycleBreakdown {
            active_cycles: self.stats.cycles - self.skipped_cycles,
            skipped_cycles: self.skipped_cycles,
            stall_runs: self.stall_runs,
        }
    }

    /// Cumulative statistics so far.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats;
        s.hier = self.hier.stats();
        s.branch = self.bp.stats();
        s
    }
}

/// Convenience: simulate `program` under `cfg`, driving `observers`.
pub fn simulate(
    program: &Program,
    cfg: SimConfig,
    observers: &mut [&mut dyn Observer],
) -> SimStats {
    Core::new(program, cfg).run(observers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tea_isa::asm::Asm;

    fn looped_program(iters: i64) -> Program {
        let mut a = Asm::new();
        let top = a.new_label();
        a.li(Reg::T0, 0);
        a.li(Reg::T1, iters);
        a.li(Reg::A0, 0x8000);
        a.bind(top);
        a.sd(Reg::T0, Reg::A0, 0);
        a.ld(Reg::T2, Reg::A0, 0);
        a.addi(Reg::T0, Reg::T0, 1);
        a.blt(Reg::T0, Reg::T1, top);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn replay_core_matches_live_core_exactly() {
        let p = looped_program(500);
        let live = Core::new(&p, SimConfig::default()).run(&mut []);
        let trace = Arc::new(CapturedTrace::capture(&p, 1 << 20).expect("test program halts"));
        let replay = Core::with_trace(&p, trace, SimConfig::default()).run(&mut []);
        assert_eq!(live, replay);
    }

    #[test]
    fn replay_surfaces_the_captured_fault_like_live() {
        let mut a = Asm::new();
        a.li(Reg::T0, 0xdead_0000);
        a.jr(Reg::T0);
        a.halt();
        let p = a.finish().unwrap();
        let live_err = Core::new(&p, SimConfig::default())
            .try_run(&mut [])
            .expect_err("pc escapes");
        let trace = Arc::new(CapturedTrace::capture(&p, 1 << 20).unwrap());
        let replay_err = Core::with_trace(&p, trace, SimConfig::default())
            .try_run(&mut [])
            .expect_err("replay reproduces the fault");
        assert_eq!(format!("{live_err}"), format!("{replay_err}"));
    }

    #[test]
    fn corrupt_replay_trace_surfaces_a_trace_error() {
        let p = looped_program(500);
        let pristine = CapturedTrace::capture(&p, 1 << 20).expect("test program halts");
        // Flip one payload byte; the checksum rejects the block on the
        // first decode and the core must fail typed, not panic or
        // replay wrong instructions.
        let trace = Arc::new(pristine.with_flipped_byte(pristine.encoded_len() / 2, 0x40));
        let err = Core::with_trace(&p, trace, SimConfig::default())
            .try_run(&mut [])
            .expect_err("corrupt trace must not replay");
        assert!(
            matches!(err, SimError::Trace(_)),
            "expected SimError::Trace, got {err:?}"
        );
    }

    /// Regression (PR 5 satellite): after the live window collapses,
    /// `release_below` must hand back peak-window deque capacity
    /// instead of holding it for the rest of the run.
    #[test]
    fn release_below_shrinks_collapsed_replay_window() {
        let p = looped_program(100_000);
        let mut stream = Stream::new(&p);
        // Stretch the window far past any real in-flight set.
        let peak = 60_000u64;
        assert!(stream.get(peak).is_some());
        assert!(stream.window_capacity() >= peak as usize);
        // Commit everything below the cursor: the window collapses.
        stream.release_below(peak);
        let cap = stream.window_capacity();
        assert!(
            cap <= STREAM_SHRINK_FLOOR.max(8),
            "collapsed window still holds capacity {cap}"
        );
        // The stream still serves the live edge after shrinking.
        assert_eq!(stream.get(peak).map(|d| d.seq), Some(peak));
    }

    /// The shrink must also fire when a window remains but is much
    /// smaller than the peak (hysteresis keeps twice the need).
    #[test]
    fn release_below_keeps_hysteresis_margin() {
        let p = looped_program(100_000);
        let mut stream = Stream::new(&p);
        let peak = 40_000u64;
        assert!(stream.get(peak).is_some());
        let live_window = 512u64;
        stream.release_below(peak - live_window);
        let cap = stream.window_capacity();
        assert!(
            cap <= 4 * live_window as usize,
            "window of {live_window} still holds capacity {cap}"
        );
        // Every in-window entry survives the shrink.
        for seq in (peak - live_window)..=peak {
            assert_eq!(stream.get(seq).map(|d| d.seq), Some(seq));
        }
    }

    /// A strided-load loop whose loads miss the LLC: long commit stalls,
    /// the fast-forward path's bread and butter.
    fn strided_program(iters: i64) -> Program {
        let mut a = Asm::new();
        let top = a.new_label();
        a.li(Reg::T0, 0);
        a.li(Reg::T1, iters);
        a.li(Reg::A0, 0x100_0000);
        a.bind(top);
        a.ld(Reg::T2, Reg::A0, 0);
        a.add(Reg::A1, Reg::A1, Reg::T2);
        a.addi(Reg::A0, Reg::A0, 4096 + 256);
        a.addi(Reg::T0, Reg::T0, 1);
        a.blt(Reg::T0, Reg::T1, top);
        a.halt();
        a.finish().unwrap()
    }

    fn ticked(fast_forward: bool) -> SimConfig {
        SimConfig {
            fast_forward,
            ..SimConfig::default()
        }
    }

    /// Counts exactly what the core delivers: per-cycle views and
    /// folded stall runs.
    #[derive(Default)]
    struct SpanCounter {
        cycles: u64,
        runs: u64,
        skipped: u64,
    }

    impl Observer for SpanCounter {
        fn on_cycle(&mut self, _view: &CycleView<'_>) {
            self.cycles += 1;
        }
        fn on_retire(&mut self, _retired: &RetiredInst) {}
        fn on_stall_run(&mut self, _view: &CycleView<'_>, n: u64) {
            self.runs += 1;
            self.skipped += n;
        }
    }

    #[test]
    fn fast_forward_matches_ticked_run_exactly() {
        for p in [looped_program(2_000), strided_program(2_000)] {
            let ff = Core::new(&p, ticked(true)).run(&mut []);
            let tk = Core::new(&p, ticked(false)).run(&mut []);
            // SimStats equality covers cycles, retirements, the whole
            // state_cycles histogram, squash counts and cache stats.
            assert_eq!(ff, tk);
        }
    }

    #[test]
    fn fast_forward_engages_and_accounts_every_cycle() {
        let p = strided_program(2_000);
        let mut c = SpanCounter::default();
        let stats = Core::new(&p, ticked(true)).run(&mut [&mut c]);
        assert!(c.runs > 0, "memory-bound loop must fast-forward");
        assert!(c.skipped > stats.cycles / 4, "skipped {}", c.skipped);
        assert_eq!(c.cycles + c.skipped, stats.cycles);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn fast_forward_occupancy_histogram_matches_ticked() {
        let p = strided_program(1_000);
        let mut ff = Core::new(&p, ticked(true));
        let mut tk = Core::new(&p, ticked(false));
        ff.run(&mut []);
        tk.run(&mut []);
        assert_eq!(ff.obs.occupancy, tk.obs.occupancy);
    }

    #[test]
    fn max_cycles_budget_lands_on_the_exact_cycle() {
        let p = strided_program(5_000);
        for budget in [1_000u64, 7_777, 33_333] {
            let a = Core::new(&p, ticked(true)).run_for(budget, &mut []);
            let b = Core::new(&p, ticked(false)).run_for(budget, &mut []);
            assert_eq!(a, b, "budget {budget}");
            assert!(a.cycles <= budget);
        }
    }

    #[test]
    fn sampling_injection_fires_identically_under_fast_forward() {
        let p = strided_program(2_000);
        let run = |fast_forward| {
            let cfg = SimConfig {
                sampling_injection: Some(crate::config::SamplingInjection {
                    interval: 509,
                    handler_cycles: 35,
                }),
                ..ticked(fast_forward)
            };
            let mut c = SpanCounter::default();
            let stats = Core::new(&p, cfg).run(&mut [&mut c]);
            (stats, c.cycles + c.skipped)
        };
        let (ff, ff_seen) = run(true);
        let (tk, tk_seen) = run(false);
        assert_eq!(ff, tk);
        assert_eq!(ff_seen, tk_seen);
    }

    /// Empties every completion source so the core can never commit
    /// again: the ROB head waits for an event that will never arrive.
    /// Drives the timing-deadlock assert deterministically — the only
    /// way to reach it from a correct timing model is surgery like
    /// this.
    fn starve(core: &mut Core<'_>) {
        core.events.clear();
        core.int_q.ready.clear();
        core.mem_q.ready.clear();
        core.fp_q.ready.clear();
    }

    #[test]
    fn deadlock_assert_fires_at_the_same_cycle_under_fast_forward() {
        let panic_msg = |fast_forward: bool| {
            // The strided loop, not the store loop: its branches predict
            // perfectly mid-run, so no squash ever re-dispatches (and
            // thereby revives) the starved instructions.
            let p = strided_program(100_000);
            let mut core = Core::new(&p, ticked(fast_forward));
            core.run_for(300, &mut []);
            starve(&mut core);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                core.run_for(u64::MAX, &mut [])
            }))
            .expect_err("starved core must hit the deadlock assert");
            *err.downcast::<String>().expect("assert message")
        };
        let ff = panic_msg(true);
        let tk = panic_msg(false);
        assert!(ff.contains("timing deadlock"), "{ff}");
        // The message embeds the panicking cycle number, so string
        // equality pins the assert to the identical cycle.
        assert_eq!(ff, tk);
    }
}
