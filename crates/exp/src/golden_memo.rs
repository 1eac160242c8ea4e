//! The per-run golden-reference memo.
//!
//! An experiment matrix re-simulates each workload under many `(config,
//! interval, seed, scheme)` points. The golden reference observes only
//! the timing model — never the sampling seed or interval — so every
//! cell of one `(program, config)` pair produces the bit-identical
//! reference, and all but the first can skip the observer's per-cycle
//! attribution work entirely. Programs are keyed by an FNV-1a
//! fingerprint of their content, not their workload name: fault
//! injection swaps programs under unchanged names.
//!
//! A golden reference is a *by-product* of a full simulation, so the
//! coordination is a non-blocking claim: the first cell to ask gets a
//! [`GoldenTicket`] and publishes its reference after its run succeeds;
//! concurrent cells that lose the claim race compute their own
//! reference locally rather than block on a whole simulation; and a
//! claimant that fails (panic, timeout, fault) releases the claim on
//! drop so a later cell can publish. The memo deliberately emits **no**
//! metrics: claim outcomes are scheduling-dependent, and counting them
//! would break the serial/parallel metric-snapshot equality.
//!
//! **Poison tolerance.** The map is touched only in brief critical
//! sections that insert or read complete values — no invariant spans a
//! panic point inside the lock — so a panicking cell (isolated by the
//! engine's `catch_unwind`) leaves it valid. The lock therefore
//! *recovers* from poisoning instead of propagating it; one dead cell
//! must not wedge every later checkout of the run.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use tea_core::golden::GoldenReference;
use tea_isa::program::Program;
use tea_sim::SimConfig;

/// Locks `m`, recovering the guarded value from a poisoned mutex.
///
/// Sound only where every critical section reads, or inserts/removes
/// *complete* values — the data satisfies its invariants at every
/// instruction a panic could interrupt — so the data behind a poisoned
/// lock is as valid as behind a clean one.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One `(program, config)` pair's golden-reference slot.
#[derive(Debug, Default)]
struct GoldenSlot {
    /// Whether some in-flight cell holds the compute claim.
    claimed: AtomicBool,
    /// The published reference, once a claimant's run succeeds.
    value: OnceLock<Arc<GoldenReference>>,
}

/// The outcome of [`GoldenMemo::golden_checkout`].
pub enum GoldenCheckout {
    /// A finished reference published by an earlier cell of the same
    /// `(program, config)` pair; attach no golden observer.
    Shared(Arc<GoldenReference>),
    /// This cell computes its own reference. With a ticket, it holds
    /// the publish claim and should call [`GoldenTicket::publish`]
    /// after its run succeeds; without one (it lost the claim race), it
    /// computes locally and publishes nothing.
    Compute(Option<GoldenTicket>),
}

/// The publish claim on one golden-reference slot. Dropping the ticket
/// without publishing (the claimant panicked, timed out, or faulted)
/// releases the claim so a later cell of the same pair can take it.
pub struct GoldenTicket {
    slot: Arc<GoldenSlot>,
    published: bool,
}

impl GoldenTicket {
    /// Publishes the claimant's finished reference for every later
    /// cell of the same `(program, config)` pair to share.
    pub fn publish(mut self, golden: Arc<GoldenReference>) {
        let _ = self.slot.value.set(golden);
        self.published = true;
    }
}

impl Drop for GoldenTicket {
    fn drop(&mut self) {
        if !self.published {
            self.slot.claimed.store(false, Ordering::Release);
        }
    }
}

/// A claim-once memo of finished golden references, keyed by program
/// and config content. One memo serves one engine run by default;
/// [`crate::Engine::run_with_cache`] lets a caller share one across
/// runs.
#[derive(Debug, Default)]
pub struct GoldenMemo {
    golden: Mutex<HashMap<(u64, u64), Arc<GoldenSlot>>>,
}

/// The memo's former name. The repository benchmark's traced run still
/// constructs it under this name; it goes when that benchmark drops its
/// trace-layer metrics.
pub type TraceCache = GoldenMemo;

impl GoldenMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Joins the golden-reference sharing scheme for one cell of
    /// `(program, config)`.
    ///
    /// Returns [`GoldenCheckout::Shared`] when an earlier cell of the
    /// same pair already published its finished reference,
    /// [`GoldenCheckout::Compute`] with a [`GoldenTicket`] when this
    /// cell wins the claim (publish after the run succeeds), and
    /// [`GoldenCheckout::Compute`] without a ticket when another cell
    /// is mid-computation — the caller computes locally rather than
    /// block on a whole simulation.
    #[must_use]
    pub fn golden_checkout(&self, program: &Program, config: &SimConfig) -> GoldenCheckout {
        let key = (program_fingerprint(program), config_fingerprint(config));
        let slot = {
            let mut golden = lock_recover(&self.golden);
            Arc::clone(golden.entry(key).or_default())
        };
        if let Some(v) = slot.value.get() {
            return GoldenCheckout::Shared(Arc::clone(v));
        }
        if slot
            .claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            GoldenCheckout::Compute(Some(GoldenTicket {
                slot,
                published: false,
            }))
        } else {
            GoldenCheckout::Compute(None)
        }
    }
}

/// A streaming FNV-1a-64 state: formatted fragments fold straight into
/// the hash instead of accumulating in an intermediate `String` (the
/// memory image of a workload runs to tens of thousands of words, and
/// the fingerprint is on the per-cell path).
struct FnvStream(u64);

impl FnvStream {
    fn new() -> Self {
        FnvStream(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl std::fmt::Write for FnvStream {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a fingerprint of a program's *content* (layout base,
/// instructions, initialized memory) — everything that determines its
/// committed dynamic stream, and nothing that doesn't (names, function
/// symbols).
#[must_use]
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut h = FnvStream::new();
    h.update(&program.base().to_le_bytes());
    let _ = write!(h, "{:?}", program.insts());
    // The memory image is the bulk of a program; hash it numerically
    // rather than through the formatter.
    for &(addr, word) in program.init_words() {
        h.update(&addr.to_le_bytes());
        h.update(&word.to_le_bytes());
    }
    h.0
}

/// FNV-1a fingerprint of a full timing configuration — the other half
/// of the golden-reference key. Two cells share a reference only when
/// both their program and every timing parameter match; the sampling
/// interval and seed are deliberately absent (the golden reference
/// never samples).
#[must_use]
pub fn config_fingerprint(config: &SimConfig) -> u64 {
    let mut h = FnvStream::new();
    let _ = write!(h, "{config:?}");
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use tea_workloads::faulty::{self, FaultMode};
    use tea_workloads::{lbm, xz, Size};

    #[test]
    fn fingerprint_tracks_program_content_not_name() {
        // Fault injection swaps a workload's program under an unchanged
        // name; the memo must key on content.
        let healthy = lbm::program(Size::Test);
        let diverging = faulty::program(Size::Test, FaultMode::Diverge);
        assert_ne!(
            program_fingerprint(&healthy),
            program_fingerprint(&diverging)
        );
        assert_eq!(program_fingerprint(&healthy), program_fingerprint(&healthy));
        assert_ne!(
            program_fingerprint(&healthy),
            program_fingerprint(&xz::program(Size::Test)),
        );
    }

    /// A cell that panics between golden claim and publish must release
    /// its ticket via `Drop`, or every later seed of the same
    /// `(program, config)` pair computes locally forever.
    #[test]
    fn claimant_panicking_before_publish_releases_the_claim() {
        let memo = GoldenMemo::new();
        let p = lbm::program(Size::Test);
        let cfg = SimConfig::default();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ticket = match memo.golden_checkout(&p, &cfg) {
                GoldenCheckout::Compute(Some(t)) => t,
                _ => unreachable!("first checkout wins the claim"),
            };
            std::panic::panic_any("injected: cell dies between claim and publish");
        }));
        assert!(panicked.is_err());
        // A later cell of the same pair can claim and publish.
        match memo.golden_checkout(&p, &cfg) {
            GoldenCheckout::Compute(Some(t)) => t.publish(Arc::new(GoldenReference::new())),
            _ => panic!("released claim must be reclaimable"),
        }
        assert!(matches!(
            memo.golden_checkout(&p, &cfg),
            GoldenCheckout::Shared(_)
        ));
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_wedging_later_checkouts() {
        let memo = GoldenMemo::new();
        let p = lbm::program(Size::Test);
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                let _golden = memo.golden.lock().unwrap();
                std::panic::panic_any("injected: panic while holding the memo lock");
            });
            assert!(h.join().is_err());
        });
        assert!(memo.golden.lock().is_err(), "golden lock must be poisoned");
        // Checkouts recover: the map is valid at every panic point.
        assert!(matches!(
            memo.golden_checkout(&p, &SimConfig::default()),
            GoldenCheckout::Compute(Some(_))
        ));
    }

    #[test]
    fn streaming_fnv_matches_the_reference_implementation() {
        // Published FNV-1a 64-bit test vector; the streaming state must
        // agree with `journal::fnv1a64` so fingerprints stay stable.
        let mut h = FnvStream::new();
        h.update(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
        assert_eq!(FnvStream::new().0, 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn golden_checkout_claims_once_then_shares_the_published_reference() {
        let memo = GoldenMemo::new();
        let p = lbm::program(Size::Test);
        let cfg = SimConfig::default();
        let ticket = match memo.golden_checkout(&p, &cfg) {
            GoldenCheckout::Compute(Some(t)) => t,
            _ => panic!("first checkout wins the claim"),
        };
        // While the claimant computes, racing cells compute locally
        // instead of blocking on a whole simulation.
        assert!(matches!(
            memo.golden_checkout(&p, &cfg),
            GoldenCheckout::Compute(None)
        ));
        ticket.publish(Arc::new(GoldenReference::new()));
        match memo.golden_checkout(&p, &cfg) {
            GoldenCheckout::Shared(shared) => assert_eq!(shared.total_cycles(), 0),
            _ => panic!("published reference is shared"),
        }
    }

    #[test]
    fn dropped_ticket_releases_the_claim_for_a_later_cell() {
        // A claimant that fails (panic, timeout, fault) never calls
        // publish; its ticket drop must hand the claim to a later cell
        // or the pair would compute locally forever.
        let memo = GoldenMemo::new();
        let p = lbm::program(Size::Test);
        let cfg = SimConfig::default();
        let ticket = match memo.golden_checkout(&p, &cfg) {
            GoldenCheckout::Compute(Some(t)) => t,
            _ => panic!("first checkout wins the claim"),
        };
        drop(ticket);
        assert!(matches!(
            memo.golden_checkout(&p, &cfg),
            GoldenCheckout::Compute(Some(_))
        ));
    }

    #[test]
    fn golden_key_spans_program_and_config() {
        let memo = GoldenMemo::new();
        let p = lbm::program(Size::Test);
        let cfg = SimConfig::default();
        let mut wide = SimConfig::default();
        wide.rob_entries *= 2;
        assert_ne!(config_fingerprint(&cfg), config_fingerprint(&wide));
        // Distinct configs get distinct slots: both claims succeed.
        let t1 = match memo.golden_checkout(&p, &cfg) {
            GoldenCheckout::Compute(Some(t)) => t,
            _ => panic!("first pair claims"),
        };
        let t2 = match memo.golden_checkout(&p, &wide) {
            GoldenCheckout::Compute(Some(t)) => t,
            _ => panic!("second pair claims independently"),
        };
        drop((t1, t2));
    }
}
