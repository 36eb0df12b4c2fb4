//! Deterministic fault injection for heap controllers.
//!
//! [`FaultyController`] wraps any [`HeapController`] and injects
//! *transient* faults — failed read-ins (cons), failed splits, failed
//! merges, and delayed frees — on a schedule derived entirely from a
//! seed, so every chaos run is exactly reproducible. A wrapper built
//! with [`FaultyController::passthrough`] carries no schedule state and
//! reduces to a delegation shim the optimizer removes (guarded by the
//! `faulty_controller_disabled` bench case).
//!
//! Faults are *transient* by construction: a bounded burst limit
//! guarantees that after at most [`FaultPlan::max_burst`] consecutive
//! injected failures the next attempt reaches the real controller, so
//! bounded retry (machine.rs) always makes progress.

use crate::controller::{ControllerStats, HeapController, HeapError, SplitResult};
use crate::word::{HeapAddr, Word};
use small_sexpr::SExpr;

/// Which operation a fault was injected into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A `read_in` (cons / readlist) request failed.
    ReadIn,
    /// A `split` request failed.
    Split,
    /// A `merge` request failed.
    Merge,
    /// A `free_object` request was withheld (serviced later).
    DelayedFree,
}

/// A seeded, reproducible fault schedule. Rates are in parts per 1024
/// per operation of that kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the internal deterministic generator.
    pub seed: u64,
    /// Fault rate for `read_in`, parts per 1024.
    pub read_in_ppk: u32,
    /// Fault rate for `split`, parts per 1024.
    pub split_ppk: u32,
    /// Fault rate for `merge`, parts per 1024.
    pub merge_ppk: u32,
    /// Rate at which frees are withheld, parts per 1024.
    pub delay_free_ppk: u32,
    /// Operations a withheld free is delayed before being forwarded.
    pub delay_ops: u64,
    /// Maximum consecutive injected failures; the next attempt after a
    /// full burst always reaches the inner controller.
    pub max_burst: u32,
}

impl FaultPlan {
    /// A moderate all-kinds schedule: ~3% faults on each fallible op,
    /// ~6% delayed frees, bursts capped at 2.
    pub fn standard(seed: u64) -> Self {
        FaultPlan {
            seed,
            read_in_ppk: 32,
            split_ppk: 32,
            merge_ppk: 32,
            delay_free_ppk: 64,
            delay_ops: 8,
            max_burst: 2,
        }
    }

    /// A hostile schedule (~12% faults, longer free delays) for stress
    /// tests; bursts still bounded.
    pub fn aggressive(seed: u64) -> Self {
        FaultPlan {
            seed,
            read_in_ppk: 128,
            split_ppk: 128,
            merge_ppk: 128,
            delay_free_ppk: 256,
            delay_ops: 24,
            max_burst: 3,
        }
    }
}

/// Counters kept by the injection layer, for reconciling
/// injected-vs-detected-vs-recovered in chaos reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient `read_in` failures injected.
    pub read_in_faults: u64,
    /// Transient `split` failures injected.
    pub split_faults: u64,
    /// Transient `merge` failures injected.
    pub merge_faults: u64,
    /// Frees withheld past their request.
    pub delayed_frees: u64,
    /// Withheld frees since forwarded to the inner controller.
    pub flushed_frees: u64,
}

impl FaultStats {
    /// Total transient failures injected (excludes delayed frees, which
    /// are reordering faults, not failures).
    pub fn transient_total(&self) -> u64 {
        self.read_in_faults + self.split_faults + self.merge_faults
    }
}

/// splitmix64: a tiny deterministic generator private to the schedule,
/// so fault decisions never perturb any workload RNG stream.
#[derive(Debug, Clone)]
struct Schedule {
    state: u64,
}

impl Schedule {
    fn new(seed: u64) -> Self {
        Schedule {
            state: seed ^ 0x5DEE_CE66_D1CE_4E5B,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// True with probability `ppk`/1024.
    fn roll(&mut self, ppk: u32) -> bool {
        (self.next_u64() >> 10) % 1024 < u64::from(ppk)
    }
}

struct FaultState {
    plan: FaultPlan,
    schedule: Schedule,
    stats: FaultStats,
    /// Consecutive injected failures; reset when an op goes through.
    burst: u32,
    /// Operation clock for aging withheld frees.
    ops: u64,
    /// Withheld frees: (address, op count at which it was withheld).
    delayed: Vec<(HeapAddr, u64)>,
}

/// A fault-injecting wrapper around any [`HeapController`].
pub struct FaultyController<C> {
    inner: C,
    state: Option<Box<FaultState>>,
}

impl<C> FaultyController<C> {
    /// Wrap `inner` with the given fault plan.
    pub fn new(inner: C, plan: FaultPlan) -> Self {
        FaultyController {
            inner,
            state: Some(Box::new(FaultState {
                plan,
                schedule: Schedule::new(plan.seed),
                stats: FaultStats::default(),
                burst: 0,
                ops: 0,
                delayed: Vec::new(),
            })),
        }
    }

    /// Wrap `inner` with no fault schedule: pure delegation, which
    /// monomorphizes away (see the `faulty_controller_disabled` bench).
    pub fn passthrough(inner: C) -> Self {
        FaultyController { inner, state: None }
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The wrapped controller, mutably.
    pub fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }

    /// Injection counters (all zero for a passthrough wrapper).
    pub fn fault_stats(&self) -> FaultStats {
        self.state.as_ref().map(|s| s.stats).unwrap_or_default()
    }

    /// Decide whether to fault the current fallible op of `kind`.
    fn should_fault(&mut self, kind: FaultKind) -> bool {
        let Some(st) = self.state.as_deref_mut() else {
            return false;
        };
        st.ops += 1;
        if st.burst >= st.plan.max_burst {
            st.burst = 0;
            return false;
        }
        let ppk = match kind {
            FaultKind::ReadIn => st.plan.read_in_ppk,
            FaultKind::Split => st.plan.split_ppk,
            FaultKind::Merge => st.plan.merge_ppk,
            FaultKind::DelayedFree => st.plan.delay_free_ppk,
        };
        if st.schedule.roll(ppk) {
            st.burst += 1;
            match kind {
                FaultKind::ReadIn => st.stats.read_in_faults += 1,
                FaultKind::Split => st.stats.split_faults += 1,
                FaultKind::Merge => st.stats.merge_faults += 1,
                FaultKind::DelayedFree => st.stats.delayed_frees += 1,
            }
            true
        } else {
            st.burst = 0;
            false
        }
    }
}

impl<C: HeapController> FaultyController<C> {
    /// Forward withheld frees whose delay has elapsed.
    fn flush_aged(&mut self) {
        let Some(st) = self.state.as_deref_mut() else {
            return;
        };
        if st.delayed.is_empty() {
            return;
        }
        let now = st.ops;
        let delay = st.plan.delay_ops;
        let mut aged = Vec::new();
        st.delayed.retain(|&(addr, at)| {
            if now.saturating_sub(at) >= delay {
                aged.push(addr);
                false
            } else {
                true
            }
        });
        st.stats.flushed_frees += aged.len() as u64;
        for addr in aged {
            self.inner.free_object(addr);
        }
    }

    /// Forward every withheld free immediately (end of run, or before a
    /// teardown that checks reclamation).
    pub fn flush_all_delayed(&mut self) {
        if let Some(st) = self.state.as_deref_mut() {
            let pending: Vec<HeapAddr> = st.delayed.drain(..).map(|(a, _)| a).collect();
            st.stats.flushed_frees += pending.len() as u64;
            for a in pending {
                self.inner.free_object(a);
            }
        }
    }

    /// Frees currently withheld.
    pub fn pending_delayed(&self) -> usize {
        self.state.as_ref().map(|s| s.delayed.len()).unwrap_or(0)
    }
}

impl<C: HeapController> HeapController for FaultyController<C> {
    fn read_in(&mut self, expr: &SExpr) -> Result<Word, HeapError> {
        if self.should_fault(FaultKind::ReadIn) {
            return Err(HeapError::Transient);
        }
        self.flush_aged();
        self.inner.read_in(expr)
    }

    fn split(&mut self, addr: HeapAddr) -> Result<SplitResult, HeapError> {
        if self.should_fault(FaultKind::Split) {
            return Err(HeapError::Transient);
        }
        self.flush_aged();
        self.inner.split(addr)
    }

    fn merge(&mut self, car: Word, cdr: Word) -> Result<HeapAddr, HeapError> {
        if self.should_fault(FaultKind::Merge) {
            return Err(HeapError::Transient);
        }
        self.flush_aged();
        self.inner.merge(car, cdr)
    }

    fn peek(&self, addr: HeapAddr) -> Result<SplitResult, HeapError> {
        // Read-only access: no fault injection (peeks take no locks in
        // the modeled hardware), no aging (needs `&mut`).
        self.inner.peek(addr)
    }

    fn holds(&self, addr: HeapAddr) -> bool {
        self.inner.holds(addr)
    }

    fn free_object(&mut self, addr: HeapAddr) {
        if self.should_fault(FaultKind::DelayedFree) {
            // Withhold: the free happens, just later than requested.
            let st = self.state.as_deref_mut().expect("faulting implies state");
            let now = st.ops;
            st.delayed.push((addr, now));
            return;
        }
        self.flush_aged();
        self.inner.free_object(addr)
    }

    fn extract(&self, w: Word) -> SExpr {
        self.inner.extract(w)
    }

    fn stats(&self) -> ControllerStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::TwoPointerController;
    use small_sexpr::{parse, print, Interner};

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            read_in_ppk: 512, // ~50%: plenty of faults in few ops
            split_ppk: 512,
            merge_ppk: 512,
            delay_free_ppk: 512,
            delay_ops: 4,
            max_burst: 2,
        }
    }

    #[test]
    fn schedules_are_reproducible() {
        let run = |seed| {
            let mut i = Interner::new();
            let mut c = FaultyController::new(TwoPointerController::new(256, 8), plan(seed));
            let mut outcomes = Vec::new();
            for k in 0..40 {
                let e = parse(&format!("({k} {k})"), &mut i).unwrap();
                outcomes.push(c.read_in(&e).is_ok());
            }
            (outcomes, c.fault_stats())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds, different schedules");
    }

    #[test]
    fn bursts_are_bounded_so_retry_succeeds() {
        let mut i = Interner::new();
        let mut c = FaultyController::new(
            TwoPointerController::new(256, 8),
            FaultPlan {
                read_in_ppk: 1024, // always fault...
                max_burst: 2,      // ...but never more than twice in a row
                ..plan(1)
            },
        );
        let e = parse("(a)", &mut i).unwrap();
        let mut failures = 0;
        loop {
            match c.read_in(&e) {
                Ok(_) => break,
                Err(HeapError::Transient) => failures += 1,
                Err(other) => panic!("unexpected error {other}"),
            }
            assert!(failures <= 2, "burst limit must bound consecutive faults");
        }
        assert_eq!(failures, 2);
    }

    #[test]
    fn delayed_frees_are_eventually_forwarded() {
        let mut i = Interner::new();
        let mut c = FaultyController::new(
            TwoPointerController::new(256, 64),
            FaultPlan {
                read_in_ppk: 0,
                split_ppk: 0,
                merge_ppk: 0,
                delay_free_ppk: 1024,
                delay_ops: 2,
                max_burst: 1,
                seed: 3,
            },
        );
        let w = c.read_in(&parse("(a b)", &mut i).unwrap()).unwrap();
        c.free_object(w.addr());
        let delayed = c.pending_delayed();
        // Subsequent traffic ages the withheld free out.
        for k in 0..16 {
            let _ = c.read_in(&parse(&format!("({k})"), &mut i).unwrap());
        }
        c.flush_all_delayed();
        assert_eq!(c.pending_delayed(), 0);
        let st = c.fault_stats();
        assert_eq!(st.delayed_frees, st.flushed_frees);
        assert!(delayed <= 1);
        // The free reached the real controller.
        assert!(c.inner().pending_frees() > 0 || c.inner_mut().drain_and_free() > 0);
    }

    #[test]
    fn passthrough_is_transparent() {
        let mut i = Interner::new();
        let mut c = FaultyController::passthrough(TwoPointerController::new(256, 8));
        let e = parse("(a (b) c)", &mut i).unwrap();
        let w = c.read_in(&e).unwrap();
        assert_eq!(print(&c.extract(w), &i), "(a (b) c)");
        assert_eq!(c.fault_stats(), FaultStats::default());
        let s = c.split(w.addr()).unwrap();
        let m = c.merge(s.car, s.cdr).unwrap();
        c.free_object(m);
        assert_eq!(c.pending_delayed(), 0);
    }
}
