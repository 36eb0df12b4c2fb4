//! The EP/LP concurrency model (§4.3.2.5, Figures 4.10–4.13).
//!
//! The thesis does not fix absolute times; it builds timing diagrams
//! from implementation-dependent parameters (LPT access time, entry
//! modification time, reference-count update time, name lookup time,
//! heap latency) and reads off where the EP idles and where EP and LP
//! overlap. [`TimingModel`] reproduces those diagrams: each primitive
//! yields a [`OpTiming`] with the EP-visible latency, the LP's total
//! busy time, and the post-response LP work that overlaps continued EP
//! execution. [`CycleClock`] strings operations together under the
//! §4.3.2.5 caveat: a new EP request must wait until the LP has finished
//! the previous operation's tail work (the chaining stall).

use small_metrics::OpClass;

/// Cost parameters, in abstract cycles.
#[derive(Debug, Clone, Copy)]
pub struct TimingModel {
    /// EP: environment interrogation for one name.
    pub ep_lookup: u64,
    /// EP→LP (or LP→EP) message transfer.
    pub bus: u64,
    /// LP: one LPT access (index + field read).
    pub lpt_access: u64,
    /// LP: one LPT entry allocation (free-stack pop + init).
    pub lpt_alloc: u64,
    /// LP: one field update.
    pub lpt_update: u64,
    /// LP: one reference-count update.
    pub refcount: u64,
    /// Heap: one split or merge.
    pub heap_split: u64,
    /// Heap: list input (per read request).
    pub heap_io: u64,
}

impl Default for TimingModel {
    fn default() -> Self {
        // The relative magnitudes of the thesis diagrams: LPT operations
        // are register-file fast, heap operations an order slower, I/O
        // slower still.
        TimingModel {
            ep_lookup: 2,
            bus: 1,
            lpt_access: 1,
            lpt_alloc: 2,
            lpt_update: 1,
            refcount: 1,
            heap_split: 10,
            heap_io: 50,
        }
    }
}

/// Timing decomposition of one EP-issued operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTiming {
    /// EP work before the request (environment interrogation).
    pub ep_pre: u64,
    /// Time from request to the LP's response — the EP is *blocked*
    /// (idle) for whatever part of this it cannot fill with other work.
    pub latency: u64,
    /// LP work remaining after it has already responded — overlapped
    /// with continued EP evaluation (the concurrency win of §4.3.2.5).
    pub lp_tail: u64,
}

impl OpTiming {
    /// Total LP busy time for the operation.
    pub fn lp_busy(&self) -> u64 {
        self.latency + self.lp_tail
    }

    /// Fraction of LP work hidden behind EP execution.
    pub fn overlap_fraction(&self) -> f64 {
        if self.lp_busy() == 0 {
            0.0
        } else {
            self.lp_tail as f64 / self.lp_busy() as f64
        }
    }
}

impl TimingModel {
    /// The Figure 4.10–4.13 decomposition for one operation.
    pub fn op(&self, op: OpClass) -> OpTiming {
        match op {
            // Figure 4.10: the LP cannot respond until I/O completes
            // (the type tag of the value is unknown until then); the EP
            // idles for the full I/O. Afterwards the LP still updates
            // the new entry's fields.
            OpClass::ReadList => OpTiming {
                ep_pre: self.ep_lookup,
                latency: self.bus + self.heap_io + self.lpt_alloc + self.bus,
                lp_tail: 2 * self.lpt_update,
            },
            // Figure 4.11 (hit): respond with the field value, then
            // update the returned object's reference count.
            OpClass::AccessHit => OpTiming {
                ep_pre: self.ep_lookup,
                latency: self.bus + self.lpt_access + self.bus,
                lp_tail: self.refcount,
            },
            // Figure 4.11 (miss): the split must complete before the
            // response (the piece could be an atom, and its type tag
            // must come from the heap); setting up the two child
            // entries' remaining fields overlaps.
            OpClass::AccessMiss => OpTiming {
                ep_pre: self.ep_lookup,
                latency: self.bus
                    + self.lpt_access
                    + self.heap_split
                    + 2 * self.lpt_alloc
                    + self.bus,
                lp_tail: 2 * self.lpt_update + self.refcount,
            },
            // Figure 4.12: control returns to the EP while the LPT
            // changes are still being made.
            OpClass::Modify => OpTiming {
                ep_pre: 2 * self.ep_lookup,
                latency: self.bus + self.lpt_access + self.bus,
                lp_tail: self.lpt_update + 2 * self.refcount,
            },
            // Figure 4.13: the identifier is returned as soon as the
            // entry is allocated; field setting and the two child
            // refcount updates proceed in parallel with the EP.
            OpClass::Cons => OpTiming {
                ep_pre: 2 * self.ep_lookup,
                latency: self.bus + self.lpt_alloc + self.bus,
                lp_tail: 2 * self.lpt_update + 2 * self.refcount,
            },
        }
    }

    /// Aggregate a stream of operations with inter-operation EP work
    /// (`ep_gap` cycles between requests): returns total elapsed time,
    /// EP idle time, and LP idle time, modeling the §4.3.2.5 stall — the
    /// LP accepts a new request only after finishing the previous tail.
    pub fn run_stream<I: IntoIterator<Item = OpClass>>(&self, ops: I, ep_gap: u64) -> StreamTiming {
        let mut clock = CycleClock::new(*self, ep_gap);
        for op in ops {
            clock.advance(op);
        }
        clock.timing()
    }
}

/// EP evaluation cycles between list operations: two environment
/// interrogations' worth of EP-side work, the default the repository's
/// timing experiments, profiles and serving telemetry use.
pub const DEFAULT_EP_GAP: u64 = 4;

/// Where one operation fell on the virtual clock, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpWindow {
    /// The EP issues the operation and starts its environment work.
    pub op_start: u64,
    /// The EP's environment work ends and it requests the LP.
    pub pre_end: u64,
    /// Chaining-stall cycles the EP waits for the previous LP tail.
    pub stall: u64,
    /// The LP accepts the request; the EP is blocked from here.
    pub service_start: u64,
    /// The LP responds and the EP resumes.
    pub service_end: u64,
    /// The LP finishes its tail work, overlapped with EP evaluation.
    pub tail_end: u64,
}

/// The §4.3.2.5 virtual clock, advanced one operation at a time: the
/// only implementation of the EP/LP recurrence. [`TimingModel::run_stream`]
/// folds a whole stream through it, the profiler places spans on the
/// windows it returns, and the serving layer reads per-request costs
/// from it with [`CycleClock::take`].
#[derive(Debug, Clone)]
pub struct CycleClock {
    /// The cost model operations are priced with.
    pub model: TimingModel,
    /// EP evaluation cycles between a response and the next issue.
    pub ep_gap: u64,
    /// EP clock: where the next operation's issue begins.
    now: u64,
    /// The LP accepts the next request only from this cycle on.
    lp_free_at: u64,
    ep_idle: u64,
    lp_busy: u64,
    ops: u64,
}

impl Default for CycleClock {
    fn default() -> Self {
        CycleClock::new(TimingModel::default(), DEFAULT_EP_GAP)
    }
}

impl CycleClock {
    /// A clock at cycle 0.
    pub fn new(model: TimingModel, ep_gap: u64) -> CycleClock {
        CycleClock {
            model,
            ep_gap,
            now: 0,
            lp_free_at: 0,
            ep_idle: 0,
            lp_busy: 0,
            ops: 0,
        }
    }

    /// The EP's current cycle: where the next operation will issue.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advance over one completed operation and return its window: the
    /// LP accepts a request only after finishing the previous operation's
    /// tail, and the EP evaluates for `ep_gap` cycles after the response.
    #[inline]
    pub fn advance(&mut self, class: OpClass) -> OpWindow {
        let t = self.model.op(class);
        let op_start = self.now;
        let pre_end = op_start + t.ep_pre;
        let stall = self.lp_free_at.saturating_sub(pre_end);
        let service_start = pre_end + stall;
        let service_end = service_start + t.latency;
        let tail_end = service_end + t.lp_tail;
        self.ep_idle += stall + t.latency;
        self.lp_busy += t.lp_busy();
        self.ops += 1;
        self.lp_free_at = tail_end;
        self.now = service_end + self.ep_gap;
        OpWindow {
            op_start,
            pre_end,
            stall,
            service_start,
            service_end,
            tail_end,
        }
    }

    /// Total elapsed cycles so far: EP time or outstanding LP tail,
    /// whichever runs later.
    pub fn elapsed(&self) -> u64 {
        self.now.max(self.lp_free_at)
    }

    /// The aggregate accounting of every operation advanced so far.
    pub fn timing(&self) -> StreamTiming {
        let total = self.elapsed();
        StreamTiming {
            total,
            ep_idle: self.ep_idle,
            lp_idle: total - self.lp_busy.min(total),
            ops: self.ops,
        }
    }

    /// Read the elapsed total and reset the clock to cycle 0 — one call
    /// per request gives per-request cycle costs on a shared clock.
    pub fn take(&mut self) -> u64 {
        let elapsed = self.elapsed();
        *self = CycleClock::new(self.model, self.ep_gap);
        elapsed
    }
}

/// Aggregated timing over an operation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamTiming {
    /// Elapsed cycles.
    pub total: u64,
    /// Cycles the EP spent blocked on the LP.
    pub ep_idle: u64,
    /// Cycles the LP spent idle.
    pub lp_idle: u64,
    /// Operations executed.
    pub ops: u64,
}

impl StreamTiming {
    /// EP utilization.
    pub fn ep_utilization(&self) -> f64 {
        1.0 - self.ep_idle as f64 / self.total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cons_has_short_latency_long_tail() {
        // Figure 4.13's point: the EP gets its answer almost
        // immediately; most LP work overlaps.
        let m = TimingModel::default();
        let t = m.op(OpClass::Cons);
        assert!(t.latency < t.lp_tail + t.latency);
        assert!(t.overlap_fraction() >= 0.4, "{}", t.overlap_fraction());
    }

    #[test]
    fn readlist_blocks_the_ep() {
        // Figure 4.10: the EP must idle for the I/O.
        let m = TimingModel::default();
        let t = m.op(OpClass::ReadList);
        assert!(t.latency > m.heap_io);
        assert!(t.overlap_fraction() < 0.1);
    }

    #[test]
    fn miss_latency_exceeds_hit_latency() {
        let m = TimingModel::default();
        assert!(m.op(OpClass::AccessMiss).latency > m.op(OpClass::AccessHit).latency);
    }

    /// The recurrence pinned by hand-computed cycle counts rather than
    /// by agreement between implementations.
    #[test]
    fn clock_matches_hand_computed_diagrams() {
        use OpClass::*;
        let m = TimingModel::default();
        // Slow LP tails: a cons's tail outlasts the EP's own work, so
        // back-to-back conses stall on it (§4.3.2.5) and spaced ones do not.
        let slow = TimingModel {
            lpt_update: 3,
            refcount: 3,
            ..m
        };
        let mixed = [Cons, AccessHit, AccessMiss, Modify, ReadList, Cons];
        let parts = |t: StreamTiming| (t.total, t.ep_idle, t.lp_idle, t.ops);
        for (m, stream, ep_gap, total, ep_idle, lp_idle, stalls) in [
            (m, &mixed[..], 4, 127, 85, 25, &[0; 6][..]),
            (m, &mixed[..], 0, 110, 88, 8, &[0, 2, 0, 0, 1, 0][..]),
            (
                m,
                &[AccessHit, Cons, Modify][..],
                5,
                35,
                10,
                17,
                &[0; 3][..],
            ),
            (slow, &[Cons; 6][..], 0, 100, 64, 4, &[0, 8, 8, 8, 8, 8][..]),
            (slow, &[Cons; 6][..], 20, 168, 24, 72, &[0; 6][..]),
        ] {
            let want = (total, ep_idle, lp_idle, stream.len() as u64);
            assert_eq!(parts(m.run_stream(stream.iter().copied(), ep_gap)), want);
            let mut clock = CycleClock::new(m, ep_gap);
            for _ in 0..2 {
                let w: Vec<OpWindow> = stream.iter().map(|&c| clock.advance(c)).collect();
                let stall: Vec<u64> = w.iter().map(|w| w.stall).collect();
                assert_eq!(stall, stalls, "ep_gap {ep_gap}");
                let idle: u64 = w
                    .iter()
                    .map(|w| w.stall + w.service_end - w.service_start)
                    .sum();
                let busy: u64 = w.iter().map(|w| w.tail_end - w.service_start).sum();
                assert_eq!((idle, total - busy), (ep_idle, lp_idle));
                assert_eq!(parts(clock.timing()), want);
                // take() reads the total and resets the clock, so the
                // same stream costs the same again (per-request isolation).
                assert_eq!(clock.take(), total);
            }
        }
        let tight = slow.run_stream([Cons; 6], 0).ep_utilization();
        assert!(slow.run_stream([Cons; 6], 20).ep_utilization() > tight);
    }
}
