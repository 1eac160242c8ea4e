//! Capture-once instruction traces.
//!
//! The committed dynamic stream of a program depends only on the
//! program — never on the timing model, the attached profilers, or the
//! sampling seed — so a workload simulated under many configurations
//! can be interpreted **once** and replayed everywhere else.
//! [`CapturedTrace::capture`] runs the interpreter to completion and
//! stores the stream compressed; replaying decodes one block at a time
//! into a per-core window so the hot path stays a bounds-checked array
//! read per instruction.
//!
//! The stream is stored in the block-wise delta/varint format of
//! [`codec`]: static indices as deltas, data addresses through a
//! stride predictor, branch targets as deltas, and the metadata byte
//! run-length packed — typically 3–6× smaller than the previous flat
//! 21 B-per-instruction structure-of-arrays layout. The pc and decoded
//! instruction are still *not* stored: both are functions of the
//! static instruction index ([`Program::addr_of`], [`Program::insts`]),
//! so decode takes the program the trace was captured from.
//!
//! Traces are shared across threads and runs, so decode treats the
//! encoded bytes as untrusted: every block carries a version/checksum
//! header (see [`codec`]) verified before its payload is interpreted,
//! and every decode entry point returns a typed [`TraceError`] instead
//! of panicking. Since the bytes behind a published trace are
//! immutable, each block is verified at most once per trace — a
//! per-block bitmap remembers blocks that already passed, making the
//! steady-state replay cost identical to the unchecked codec.
//!
//! The experiment engine does not replay: measured end to end, replay
//! ran no faster than live interpretation, and block decode cost about
//! twice what interpretation did (docs/INTERNALS.md §8). Capture and
//! replay remain as a layer that `tea-cli bench` and the repository
//! benchmark time on their own.

pub mod codec;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::IsaError;
use crate::interp::{BranchOutcome, DynInst, Machine};
use crate::program::Program;

use codec::{CodecError, Columns, BLOCK_LEN, META_BRANCH, META_MEM, META_TAKEN};

/// The default capture ceiling: programs committing more instructions
/// than this (in particular, programs that never halt) are not
/// captured; callers fall back to live interpretation.
///
/// The boundary is inclusive: a program that halts having committed
/// *exactly* this many instructions is still captured — only the
/// (limit+1)-th commit classifies the program as divergent
/// (`capture_at_exactly_the_limit_is_not_divergent` pins this).
pub const DEFAULT_CAPTURE_LIMIT: u64 = 1 << 25;

/// A detected defect in a captured trace's encoded form.
///
/// Everything here means the bytes no longer match what
/// [`CapturedTrace::capture`] produced — bit rot or a torn copy.
/// These are *permanent*: re-decoding the same bytes can never succeed,
/// so a replaying caller should interpret live rather than retry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// A block index at or past the number of blocks was requested.
    BlockOutOfRange {
        /// The requested block.
        block: usize,
        /// Number of blocks the trace holds.
        blocks: usize,
    },
    /// The `block_offsets` table is inconsistent with the byte stream
    /// (non-monotonic, or pointing past the end).
    OffsetTable {
        /// First block whose offsets are inconsistent.
        block: usize,
        /// The offending byte offset.
        offset: usize,
        /// Total encoded byte length.
        len: usize,
    },
    /// The offset table holds the wrong number of blocks for the
    /// declared instruction count.
    BlockCount {
        /// Blocks present in the table.
        blocks: usize,
        /// Blocks implied by the instruction count.
        expected: usize,
    },
    /// A block failed header validation or payload decode.
    Codec {
        /// The block that failed.
        block: usize,
        /// The underlying codec defect.
        error: CodecError,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BlockOutOfRange { block, blocks } => {
                write!(f, "block {block} out of range for a {blocks}-block trace")
            }
            TraceError::OffsetTable { block, offset, len } => write!(
                f,
                "offset table corrupt at block {block}: offset {offset} in a {len}-byte stream"
            ),
            TraceError::BlockCount { blocks, expected } => {
                write!(f, "offset table holds {blocks} blocks, expected {expected}")
            }
            TraceError::Codec { block, error } => write!(f, "block {block}: {error}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Codec { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// The full correct-path dynamic stream of one program, stored as
/// self-contained compressed blocks of [`codec::BLOCK_LEN`]
/// instructions.
///
/// A trace is immutable once built, so it can be shared across threads
/// (`Arc<CapturedTrace>`) and replayed concurrently by any number of
/// simulations. Replay is bit-exact: [`CapturedTrace::get`] returns
/// the same [`DynInst`] values, in the same order, that
/// [`Machine::try_step`] produced during capture, and a program that
/// faults architecturally ends the trace with the same [`IsaError`].
#[derive(Debug)]
pub struct CapturedTrace {
    /// Number of committed instructions in the stream.
    len: u64,
    /// Concatenated [`codec`] blocks.
    bytes: Box<[u8]>,
    /// Byte offset of each block within `bytes`; block `b` spans
    /// `block_offsets[b]..block_offsets.get(b + 1).unwrap_or(bytes.len())`.
    block_offsets: Box<[usize]>,
    /// The architectural fault that ended the stream, if any. `None`
    /// for a program that ran to `halt`.
    error: Option<IsaError>,
    /// One bit per block, set once that block's header and checksum
    /// have passed [`codec::check_block`]. The bytes are immutable, so
    /// a set bit stays valid forever; relaxed ordering suffices
    /// because re-verifying a block concurrently is merely redundant,
    /// never wrong.
    verified: Box<[AtomicU64]>,
}

impl Clone for CapturedTrace {
    fn clone(&self) -> Self {
        CapturedTrace {
            len: self.len,
            bytes: self.bytes.clone(),
            block_offsets: self.block_offsets.clone(),
            error: self.error.clone(),
            verified: self
                .verified
                .iter()
                .map(|w| AtomicU64::new(w.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

/// Bitmap words needed for `blocks` verified bits.
fn bitmap_words(blocks: usize) -> usize {
    blocks.div_ceil(64)
}

impl CapturedTrace {
    /// Runs `program`'s functional interpreter to completion and
    /// captures the committed stream.
    ///
    /// Returns `None` if the program commits more than `limit`
    /// instructions without halting or faulting (a diverging or
    /// extremely long program); such workloads must be interpreted
    /// live. An architectural fault does **not** abort the capture: the
    /// trace holds every instruction committed before the fault and
    /// reports the fault itself via [`CapturedTrace::error`], so replay
    /// reproduces the failing run exactly.
    #[must_use]
    pub fn capture(program: &Program, limit: u64) -> Option<CapturedTrace> {
        let mut machine = Machine::new(program);
        let mut committed = 0u64;
        let mut pending = Columns::default();
        let mut bytes = Vec::new();
        let mut block_offsets = Vec::new();
        let mut error = None;
        loop {
            match machine.try_step() {
                Ok(Some(d)) => {
                    if committed >= limit {
                        return None;
                    }
                    committed += 1;
                    debug_assert_eq!(d.pc, program.addr_of(d.index as usize));
                    pending.index.push(d.index);
                    let mut m = 0u8;
                    pending.mem_addr.push(match d.mem_addr {
                        Some(a) => {
                            m |= META_MEM;
                            a
                        }
                        None => 0,
                    });
                    pending.branch_target.push(match d.branch {
                        Some(b) => {
                            m |= META_BRANCH;
                            if b.taken {
                                m |= META_TAKEN;
                            }
                            b.target
                        }
                        None => 0,
                    });
                    pending.meta.push(m);
                    if pending.len() == BLOCK_LEN {
                        block_offsets.push(bytes.len());
                        codec::encode_block(&pending, &mut bytes);
                        pending.clear();
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        if !pending.is_empty() {
            block_offsets.push(bytes.len());
            codec::encode_block(&pending, &mut bytes);
        }
        let blocks = block_offsets.len();
        Some(CapturedTrace {
            len: committed,
            bytes: bytes.into_boxed_slice(),
            block_offsets: block_offsets.into_boxed_slice(),
            error,
            verified: (0..bitmap_words(blocks))
                .map(|_| AtomicU64::new(0))
                .collect(),
        })
    }

    /// Captures with the [`DEFAULT_CAPTURE_LIMIT`] ceiling.
    #[must_use]
    pub fn capture_default(program: &Program) -> Option<CapturedTrace> {
        Self::capture(program, DEFAULT_CAPTURE_LIMIT)
    }

    /// Number of committed instructions in the trace.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the trace holds no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The architectural fault that ended the stream, if the program
    /// faulted instead of halting.
    #[must_use]
    pub fn error(&self) -> Option<&IsaError> {
        self.error.as_ref()
    }

    /// Number of compressed blocks in the trace.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.block_offsets.len()
    }

    /// Total encoded byte length of the compressed stream.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// Checks the `block_offsets` table against the byte stream: the
    /// block count must match the declared instruction count, offsets
    /// must start at 0, increase monotonically, and stay within the
    /// stream. Cheap (no payload is touched) — run on load/publish so
    /// a trace with a corrupt table is rejected before any cell
    /// replays it. Per-block checksums are still verified lazily on
    /// first decode.
    pub fn validate(&self) -> Result<(), TraceError> {
        let blocks = self.block_offsets.len();
        let expected = (self.len as usize).div_ceil(BLOCK_LEN);
        if blocks != expected {
            return Err(TraceError::BlockCount { blocks, expected });
        }
        let len = self.bytes.len();
        let mut prev = 0usize;
        for (block, &offset) in self.block_offsets.iter().enumerate() {
            let bad = offset > len || offset < prev || (block == 0 && offset != 0);
            if bad {
                return Err(TraceError::OffsetTable { block, offset, len });
            }
            prev = offset;
        }
        Ok(())
    }

    /// The byte span of `block` within the encoded stream.
    fn block_span(&self, block: usize) -> Result<(usize, usize), TraceError> {
        let blocks = self.block_offsets.len();
        let Some(&start) = self.block_offsets.get(block) else {
            return Err(TraceError::BlockOutOfRange { block, blocks });
        };
        let end = self
            .block_offsets
            .get(block + 1)
            .copied()
            .unwrap_or(self.bytes.len());
        let len = self.bytes.len();
        if start > end || end > len {
            return Err(TraceError::OffsetTable {
                block,
                offset: start.max(end),
                len,
            });
        }
        Ok((start, end))
    }

    /// Decodes `block` into `cols`, verifying its header/checksum the
    /// first time the block is touched. Returns the sequence number of
    /// the block's first instruction and its entry count.
    fn decode_block_cols(
        &self,
        block: usize,
        cols: &mut Columns,
    ) -> Result<(u64, usize), TraceError> {
        let (start, end) = self.block_span(block)?;
        let base = block as u64 * BLOCK_LEN as u64;
        let count = (self.len - base).min(BLOCK_LEN as u64) as usize;
        let slice = &self.bytes[start..end];
        let word = block / 64;
        let bit = 1u64 << (block % 64);
        let already = self
            .verified
            .get(word)
            .is_some_and(|w| w.load(Ordering::Relaxed) & bit != 0);
        let payload = if already {
            // The bit is only ever set after check_block passed, so the
            // slice is known to carry a header.
            slice.get(codec::HEADER_LEN..).ok_or(TraceError::Codec {
                block,
                error: CodecError::Truncated {
                    offset: slice.len(),
                },
            })?
        } else {
            let payload =
                codec::check_block(slice).map_err(|error| TraceError::Codec { block, error })?;
            if let Some(w) = self.verified.get(word) {
                w.fetch_or(bit, Ordering::Relaxed);
            }
            payload
        };
        codec::decode_payload(payload, count, cols)
            .map_err(|error| TraceError::Codec { block, error })?;
        Ok((base, count))
    }

    /// Decodes block `block` (instructions
    /// `block * BLOCK_LEN ..` up to the next block boundary or the end
    /// of the stream) into `out` as fully reconstructed [`DynInst`]s,
    /// returning the sequence number of the first decoded instruction.
    ///
    /// `out` is cleared first; allocations are kept, so a reused
    /// buffer makes steady-state replay allocation-free. `program`
    /// must be the program the trace was captured from.
    ///
    /// Fails with a [`TraceError`] if `block` is out of range or the
    /// encoded bytes no longer pass integrity checks; corruption never
    /// panics and never yields a silently-wrong window.
    pub fn decode_block_into(
        &self,
        program: &Program,
        block: usize,
        out: &mut Vec<DynInst>,
    ) -> Result<u64, TraceError> {
        let mut cols = Columns::default();
        let (base, count) = self.decode_block_cols(block, &mut cols)?;
        out.clear();
        out.reserve(count);
        for i in 0..count {
            out.push(Self::reconstruct(program, base + i as u64, &cols, i));
        }
        Ok(base)
    }

    /// Rebuilds the [`DynInst`] at column position `i`.
    #[inline]
    fn reconstruct(program: &Program, seq: u64, cols: &Columns, i: usize) -> DynInst {
        let index = cols.index[i];
        let m = cols.meta[i];
        DynInst {
            seq,
            pc: program.addr_of(index as usize),
            index,
            inst: program.insts()[index as usize],
            mem_addr: (m & META_MEM != 0).then(|| cols.mem_addr[i]),
            branch: (m & META_BRANCH != 0).then(|| BranchOutcome {
                taken: m & META_TAKEN != 0,
                target: cols.branch_target[i],
            }),
        }
    }

    /// The committed instruction at sequence number `seq`, or
    /// `Ok(None)` past the end of the stream.
    ///
    /// `program` must be the program the trace was captured from: the
    /// pc and decoded instruction are reconstructed from its static
    /// layout rather than stored per entry.
    ///
    /// This is the random-access slow path — it decodes the containing
    /// block on every call. The simulator's replay stream instead
    /// keeps a decoded block resident via
    /// [`CapturedTrace::decode_block_into`].
    pub fn get(&self, program: &Program, seq: u64) -> Result<Option<DynInst>, TraceError> {
        if seq >= self.len {
            return Ok(None);
        }
        let block = (seq / BLOCK_LEN as u64) as usize;
        let mut cols = Columns::default();
        let (base, _) = self.decode_block_cols(block, &mut cols)?;
        Ok(Some(Self::reconstruct(
            program,
            seq,
            &cols,
            (seq - base) as usize,
        )))
    }

    /// A copy of the trace with the encoded byte at `offset` XOR'd by
    /// `mask`, and all verification state reset.
    ///
    /// This is the fault-injection seam for the chaos harness and the
    /// corruption tests: it manufactures exactly the failure mode the
    /// integrity checks exist to catch (bit rot in a shared trace)
    /// without any unsafe aliasing of a published `Arc`.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= self.encoded_len()`.
    #[must_use]
    pub fn with_flipped_byte(&self, offset: usize, mask: u8) -> CapturedTrace {
        assert!(offset < self.bytes.len(), "flip offset out of range");
        let mut bytes = self.bytes.clone();
        bytes[offset] ^= mask;
        CapturedTrace {
            len: self.len,
            bytes,
            block_offsets: self.block_offsets.clone(),
            error: self.error.clone(),
            verified: (0..bitmap_words(self.block_offsets.len()))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Heap bytes held by the trace (the resident cost of keeping it):
    /// the compressed blocks plus the block offset
    /// table. Decode windows are owned by replaying cores, not the
    /// trace, so they are not counted here.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.bytes.len() + self.block_offsets.len() * std::mem::size_of::<usize>()
    }

    /// Heap bytes the same stream occupied in the uncompressed
    /// structure-of-arrays layout (21 B per instruction): the baseline
    /// for compression-ratio reporting.
    #[must_use]
    pub fn uncompressed_bytes(&self) -> usize {
        self.len as usize
            * (std::mem::size_of::<u64>() * 2
                + std::mem::size_of::<u32>()
                + std::mem::size_of::<u8>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::inst::Inst;
    use crate::reg::Reg;

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
    fn capture_matches_live_interpretation_exactly() {
        let p = looped_program(100);
        let trace = CapturedTrace::capture(&p, 1 << 20).expect("halts under limit");
        trace.validate().expect("fresh capture validates");
        let mut m = Machine::new(&p);
        let mut n = 0u64;
        while let Some(live) = m.step() {
            assert_eq!(trace.get(&p, live.seq).unwrap(), Some(live));
            n += 1;
        }
        assert_eq!(trace.len(), n);
        assert!(trace.error().is_none());
        assert!(trace.get(&p, n).unwrap().is_none());
        assert!(trace.resident_bytes() > 0);
    }

    #[test]
    fn capture_spanning_many_blocks_matches_live() {
        // Enough iterations that the stream crosses several block
        // boundaries, where every codec predictor resets.
        let iters = (2 * BLOCK_LEN) as i64;
        let p = looped_program(iters);
        let trace = CapturedTrace::capture(&p, 1 << 20).expect("halts under limit");
        assert!(trace.num_blocks() >= 2, "stream must span blocks");
        let mut m = Machine::new(&p);
        let mut buf = Vec::new();
        let mut base = u64::MAX;
        while let Some(live) = m.step() {
            let block = (live.seq / BLOCK_LEN as u64) as usize;
            if base != block as u64 * BLOCK_LEN as u64 {
                base = trace.decode_block_into(&p, block, &mut buf).unwrap();
            }
            assert_eq!(buf[(live.seq - base) as usize], live);
        }
    }

    #[test]
    fn compression_beats_the_flat_layout() {
        let p = looped_program(5000);
        let trace = CapturedTrace::capture(&p, 1 << 20).unwrap();
        let ratio = trace.uncompressed_bytes() as f64 / trace.resident_bytes() as f64;
        assert!(
            ratio >= 4.0,
            "expected >=4x compression on a loop, got {ratio:.2}x \
             ({} -> {} bytes)",
            trace.uncompressed_bytes(),
            trace.resident_bytes()
        );
    }

    #[test]
    fn capture_is_random_access() {
        let p = looped_program(10);
        let trace = CapturedTrace::capture(&p, 1 << 20).unwrap();
        // Read out of order and repeatedly: replay after a pipeline
        // squash re-reads earlier sequence numbers.
        let last = trace.get(&p, trace.len() - 1).unwrap().unwrap();
        assert_eq!(last.inst, Inst::Halt);
        let first = trace.get(&p, 0).unwrap().unwrap();
        assert_eq!(first.seq, 0);
        assert_eq!(trace.get(&p, 0).unwrap(), Some(first));
    }

    #[test]
    fn any_flipped_byte_fails_decode_not_panics() {
        let p = looped_program(50);
        let trace = CapturedTrace::capture(&p, 1 << 20).unwrap();
        for offset in [0, 1, codec::HEADER_LEN, trace.encoded_len() - 1] {
            let bad = trace.with_flipped_byte(offset, 0x5a);
            let err = bad.get(&p, 0).expect_err("corruption must be detected");
            assert!(matches!(err, TraceError::Codec { block: 0, .. }), "{err}");
            let mut buf = Vec::new();
            assert!(bad.decode_block_into(&p, 0, &mut buf).is_err());
        }
    }

    #[test]
    fn verification_is_cached_per_block() {
        let p = looped_program(50);
        let trace = CapturedTrace::capture(&p, 1 << 20).unwrap();
        assert_eq!(trace.verified[0].load(Ordering::Relaxed), 0);
        trace.get(&p, 0).unwrap();
        assert_eq!(trace.verified[0].load(Ordering::Relaxed) & 1, 1);
        // Re-reads keep working off the cached verification.
        trace.get(&p, 1).unwrap();
        // A clone carries the verification state; a flipped copy does not.
        let cloned = trace.clone();
        assert_eq!(cloned.verified[0].load(Ordering::Relaxed) & 1, 1);
        let flipped = trace.with_flipped_byte(0, 0xff);
        assert_eq!(flipped.verified[0].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn out_of_range_block_is_an_error() {
        let p = looped_program(10);
        let trace = CapturedTrace::capture(&p, 1 << 20).unwrap();
        let mut buf = Vec::new();
        let err = trace
            .decode_block_into(&p, trace.num_blocks(), &mut buf)
            .expect_err("block index past the end");
        assert!(matches!(err, TraceError::BlockOutOfRange { .. }));
    }

    #[test]
    fn diverging_program_overflows_the_limit() {
        let mut a = Asm::new();
        let top = a.new_label();
        a.bind(top);
        a.addi(Reg::T0, Reg::T0, 1);
        a.j(top);
        a.halt();
        let p = a.finish().unwrap();
        assert!(CapturedTrace::capture(&p, 10_000).is_none());
    }

    #[test]
    fn capture_at_exactly_the_limit_is_not_divergent() {
        // A program halting with exactly `limit` committed
        // instructions sits on the divergence boundary; it must be
        // captured in full, not classified as divergent. Only the
        // (limit+1)-th commit overflows.
        let p = looped_program(10);
        let full = CapturedTrace::capture(&p, 1 << 20).unwrap();
        let n = full.len();

        let at_limit = CapturedTrace::capture(&p, n).expect("exactly-at-limit must capture");
        assert_eq!(at_limit.len(), n);
        assert!(at_limit.error().is_none());
        assert_eq!(at_limit.get(&p, n - 1).unwrap().unwrap().inst, Inst::Halt);

        assert!(
            CapturedTrace::capture(&p, n - 1).is_none(),
            "one under the commit count must overflow"
        );
    }

    #[test]
    fn faulting_program_captures_prefix_and_error() {
        let mut a = Asm::new();
        a.li(Reg::T0, 0xdead_0000);
        a.jr(Reg::T0);
        a.halt();
        let p = a.finish().unwrap();
        let trace = CapturedTrace::capture(&p, 1 << 20).expect("fault is not overflow");
        assert_eq!(trace.len(), 2);
        match trace.error() {
            Some(IsaError::PcEscaped { pc, seq, .. }) => {
                assert_eq!(*pc, 0xdead_0000);
                assert_eq!(*seq, 2);
            }
            other => panic!("expected PcEscaped, got {other:?}"),
        }
    }
}
