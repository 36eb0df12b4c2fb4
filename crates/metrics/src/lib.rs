#![warn(missing_docs)]
//! **small-metrics** — the instrumentation layer of the SMALL
//! reproduction.
//!
//! The thesis's entire evaluation is parameter sweeps over the machine's
//! memory-operation stream; this crate makes that stream a first-class
//! observable. It has three pieces:
//!
//! * **Primitives** — [`Counter`] (a monotonic `u64`) and [`Histogram`]
//!   (power-of-two buckets, constant-time record, mergeable) for cheap
//!   occupancy/latency/size distributions;
//! * **Events** — the [`Event`] enum names every observable the List
//!   Processor, heap controller, and VM backend emit (hits, misses,
//!   splits, merges, compression runs, overflow collections,
//!   lazy-decrement drains, occupancy samples);
//! * **Sinks** — the [`EventSink`] trait, with [`NoopSink`] (statically
//!   dispatched no-op: instrumented code monomorphizes to the
//!   uninstrumented machine code), [`CountingSink`] (per-kind counters),
//!   [`RecordingSink`] (counters plus histograms, snapshottable to
//!   deterministic JSON), and [`FnSink`] (stream every event to a
//!   closure).
//!
//! Instrumented components take a `S: EventSink` type parameter
//! defaulting to [`NoopSink`], so existing call sites pay nothing —
//! neither at the call site (no code change) nor at run time (the no-op
//! sink compiles away).
//!
//! Snapshots serialize through [`MetricsSnapshot::to_json`], a
//! hand-rolled, dependency-free writer with a fixed key order, so two
//! runs that record the same events byte-compare equal — the property
//! the parallel sweep engine's determinism check relies on.

use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

/// A monotonic event counter.
///
/// A transparent `u64` with increment/add; exists to make counter fields
/// self-describing and to centralize saturating arithmetic.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current value.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Fold another counter in (for cross-cell aggregation).
    pub fn merge(&mut self, other: Counter) {
        self.add(other.0);
    }
}

/// Number of buckets in a [`Histogram`]: one per power of two of a
/// `u64`, plus a zero bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `0` holds the value `0`; bucket `k ≥ 1` holds values in
/// `[2^(k-1), 2^k)`. Recording is a branch-free bit-scan plus an
/// increment — cheap enough for per-operation occupancy sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower bound of the bucket containing the `q`-quantile sample.
    ///
    /// `q` is clamped to `[0, 1]` and mapped to the
    /// `min(count, ⌊q·count⌋+1)`-th sample in sorted order — the
    /// *exclusive* nearest rank, which resolves an exact boundary to
    /// the sample *above* it. (The previous inclusive rank `⌈q·count⌉`
    /// resolved boundaries downward, so a histogram with half its
    /// samples at 0 reported `quantile(0.5) == 0` no matter how large
    /// the upper half was — the soak trajectory's `eval_p50_cycles: 0`
    /// bug.) The edges stay exact: `quantile(0.0)` is the minimum
    /// sample's bucket bound, `quantile(1.0)` the maximum sample's. An
    /// empty histogram reports 0 for every `q`. Because the answer
    /// depends only on the bucket array and the count, it is invariant
    /// under recording order and under any sequence of
    /// [`Histogram::merge`] calls producing the same sample multiset.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).floor() as u64 + 1).min(self.count);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if k == 0 { 0 } else { 1u64 << (k - 1) };
            }
        }
        self.max
    }

    /// Fold another histogram in (for cross-cell aggregation).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(lower_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(k, &n)| (if k == 0 { 0 } else { 1u64 << (k - 1) }, n))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// One observable step of the machine's memory-operation stream.
///
/// Emitted by the List Processor (which is also the single chokepoint
/// for heap-controller traffic, so `Heap*` events cover the controller
/// too), the VM backend, and the simulator driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A car/cdr request was satisfied from LPT fields.
    LptHit,
    /// A car/cdr request required a heap split to materialize fields.
    LptMiss,
    /// A reference-count update performed in the LPT (EP–LP bus traffic).
    RefOp,
    /// A reference-count update performed EP-side (split-count mode).
    EpRefOp,
    /// An LPT entry was allocated ("Get").
    EntryAllocated,
    /// An LPT entry's count reached zero and it was freed.
    EntryFreed,
    /// Deferred (lazy) child decrements ran at reallocation time.
    LazyDrain {
        /// Number of child references decremented.
        children: u32,
    },
    /// Pseudo overflow: a compression pass ran.
    PseudoOverflow {
        /// Entries reclaimed by merging structure back to the heap.
        reclaimed: u32,
    },
    /// True overflow: a cycle-breaking mark/sweep ran.
    CycleCollection {
        /// Entries of circular garbage reclaimed.
        reclaimed: u32,
    },
    /// Allocation failed even after compression and cycle breaking; the
    /// machine degrades to overflow mode.
    TrueOverflow,
    /// The heap controller split an object into the LPT.
    HeapSplit,
    /// The heap controller merged LPT structure back into an object.
    HeapMerge,
    /// The heap controller read an s-expression in.
    HeapReadIn,
    /// A heap object was queued for reclamation.
    HeapFree,
    /// An occupancy sample at an operation boundary.
    Occupancy {
        /// Live LPT entries at the sample point.
        live: u32,
    },
    /// A transient heap fault surfaced from the controller and was
    /// caught by a recovery layer (the bounded-retry wrapper or the
    /// compression path).
    HeapFaultDetected,
    /// A detected transient fault was recovered from (a retry
    /// succeeded, or compression abandoned the merge and carried on).
    HeapFaultRecovered,
    /// The LP entered §4.3.2.3 overflow mode: the table is full beyond
    /// recovery and new structure degrades to heap-direct operation.
    OverflowModeEntered,
    /// The LP left overflow mode: occupancy recovered and allocation
    /// re-entered the table.
    OverflowModeExited,
}

impl Event {
    /// Stable snake_case name of the event kind (payload-independent);
    /// doubles as the JSON key in snapshots.
    pub fn kind_name(self) -> &'static str {
        match self {
            Event::LptHit => "lpt_hit",
            Event::LptMiss => "lpt_miss",
            Event::RefOp => "refop",
            Event::EpRefOp => "ep_refop",
            Event::EntryAllocated => "entry_allocated",
            Event::EntryFreed => "entry_freed",
            Event::LazyDrain { .. } => "lazy_drain",
            Event::PseudoOverflow { .. } => "pseudo_overflow",
            Event::CycleCollection { .. } => "cycle_collection",
            Event::TrueOverflow => "true_overflow",
            Event::HeapSplit => "heap_split",
            Event::HeapMerge => "heap_merge",
            Event::HeapReadIn => "heap_read_in",
            Event::HeapFree => "heap_free",
            Event::Occupancy { .. } => "occupancy",
            Event::HeapFaultDetected => "heap_fault_detected",
            Event::HeapFaultRecovered => "heap_fault_recovered",
            Event::OverflowModeEntered => "overflow_mode_entered",
            Event::OverflowModeExited => "overflow_mode_exited",
        }
    }
}

// ---------------------------------------------------------------------
// Operation boundaries
// ---------------------------------------------------------------------

/// The LP request a sink is currently observing (attribution key for
/// span/profile sinks). Announced by [`EventSink::op_begin`] before the
/// List Processor starts serving the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PrimKind {
    /// `readlist` (§4.3.2.2.1).
    ReadList,
    /// `car` (§4.3.2.2.2).
    Car,
    /// `cdr` (§4.3.2.2.2).
    Cdr,
    /// `cons` (§4.3.2.2.4).
    Cons,
    /// `rplaca` (§4.3.2.2.3).
    Rplaca,
    /// `rplacd` (§4.3.2.2.3).
    Rplacd,
}

impl PrimKind {
    /// All kinds, in the stable attribution-table order.
    pub const ALL: [PrimKind; 6] = [
        PrimKind::ReadList,
        PrimKind::Car,
        PrimKind::Cdr,
        PrimKind::Cons,
        PrimKind::Rplaca,
        PrimKind::Rplacd,
    ];

    /// Stable lowercase name (doubles as the JSON/folded-stack key).
    pub fn name(self) -> &'static str {
        match self {
            PrimKind::ReadList => "readlist",
            PrimKind::Car => "car",
            PrimKind::Cdr => "cdr",
            PrimKind::Cons => "cons",
            PrimKind::Rplaca => "rplaca",
            PrimKind::Rplacd => "rplacd",
        }
    }

    /// Position in [`PrimKind::ALL`] (dense attribution-array index).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The resolved timing class of a completed LP request — the
/// Figure 4.10–4.13 decomposition the request followed. Announced by
/// [`EventSink::op_end`] once the List Processor knows how the request
/// was served (a `car` only becomes an `AccessHit` or `AccessMiss`
/// after the field lookup).
///
/// `small_core::timing::TimingModel::op` prices each class; it lives
/// here so sinks can hear about operations without depending on the
/// core crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Figure 4.10: list input; the EP idles for the heap I/O.
    ReadList,
    /// Figure 4.11: car/cdr satisfied from LPT fields.
    AccessHit,
    /// Figure 4.11 with splitting: car/cdr that went to the heap.
    AccessMiss,
    /// Figure 4.12: rplaca/rplacd.
    Modify,
    /// Figure 4.13: cons.
    Cons,
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// A pluggable consumer of [`Event`]s.
///
/// Instrumented components are generic over `S: EventSink` with
/// [`NoopSink`] as the default, so the disabled configuration
/// monomorphizes to no instrumentation at all.
///
/// Beyond the raw event stream, the List Processor brackets every timed
/// request with [`op_begin`](EventSink::op_begin) /
/// [`op_end`](EventSink::op_end) so span/profile sinks can attribute
/// events to primitives and advance a virtual clock. Both hooks default
/// to no-ops: counting sinks ignore them at zero cost.
pub trait EventSink {
    /// Consume one event.
    fn record(&mut self, event: Event);

    /// The LP started serving a timed request. Events recorded until
    /// the matching [`op_end`](EventSink::op_end) belong to it.
    #[inline(always)]
    fn op_begin(&mut self, _prim: PrimKind) {}

    /// The LP finished the request announced by the last
    /// [`op_begin`](EventSink::op_begin), resolved to a timing class.
    /// Called on the error path too (a request that dies in a true
    /// overflow still consumed its timing-class cycles).
    #[inline(always)]
    fn op_end(&mut self, _class: OpClass) {}

    /// A wall-clock-only accelerator (the LPT inline field cache)
    /// probed its fast path. Strictly host-side telemetry: probes are
    /// **not** [`Event`]s, advance no virtual clock, and appear in no
    /// deterministic counter — the modeled machine behaves identically
    /// whether the accelerator is on or off, so default sinks ignore
    /// them at zero cost.
    #[inline(always)]
    fn cache_probe(&mut self, _hit: bool) {}
}

/// The default sink: discards every event. With this sink the compiler
/// erases all instrumentation (there is no branch, no store, no call).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NoopSink;

impl EventSink for NoopSink {
    #[inline(always)]
    fn record(&mut self, _event: Event) {}
}

/// Per-kind event counts, the common core of the recording sinks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventCounts {
    /// car/cdr requests satisfied by LPT fields.
    pub lpt_hits: Counter,
    /// car/cdr requests that required a heap split.
    pub lpt_misses: Counter,
    /// LPT-side reference-count updates.
    pub refops: Counter,
    /// EP-side reference-count updates (split mode).
    pub ep_refops: Counter,
    /// LPT entries allocated.
    pub entries_allocated: Counter,
    /// LPT entries freed.
    pub entries_freed: Counter,
    /// Lazy-decrement drains performed.
    pub lazy_drains: Counter,
    /// Child references decremented by lazy drains.
    pub lazy_children: Counter,
    /// Pseudo-overflow compression passes.
    pub pseudo_overflows: Counter,
    /// Entries reclaimed by compression.
    pub compressed: Counter,
    /// True-overflow cycle collections.
    pub cycle_collections: Counter,
    /// Entries reclaimed by cycle breaking.
    pub cycles_reclaimed: Counter,
    /// Unrecoverable overflows observed.
    pub true_overflows: Counter,
    /// Heap splits.
    pub heap_splits: Counter,
    /// Heap merges.
    pub heap_merges: Counter,
    /// Heap read-ins.
    pub heap_read_ins: Counter,
    /// Heap frees queued.
    pub heap_frees: Counter,
    /// Occupancy samples taken.
    pub occupancy_samples: Counter,
    /// Transient heap faults caught by a recovery layer.
    pub heap_faults_detected: Counter,
    /// Transient heap faults recovered from.
    pub heap_faults_recovered: Counter,
    /// Times the LP entered overflow (heap-direct) mode.
    pub overflow_mode_entries: Counter,
    /// Times the LP re-entered table mode after overflow.
    pub overflow_mode_exits: Counter,
}

impl EventCounts {
    /// Fold one event into the counters (the body of
    /// [`CountingSink::record`], public so composite sinks can reuse
    /// it).
    pub fn record(&mut self, event: Event) {
        match event {
            Event::LptHit => self.lpt_hits.inc(),
            Event::LptMiss => self.lpt_misses.inc(),
            Event::RefOp => self.refops.inc(),
            Event::EpRefOp => self.ep_refops.inc(),
            Event::EntryAllocated => self.entries_allocated.inc(),
            Event::EntryFreed => self.entries_freed.inc(),
            Event::LazyDrain { children } => {
                self.lazy_drains.inc();
                self.lazy_children.add(u64::from(children));
            }
            Event::PseudoOverflow { reclaimed } => {
                self.pseudo_overflows.inc();
                self.compressed.add(u64::from(reclaimed));
            }
            Event::CycleCollection { reclaimed } => {
                self.cycle_collections.inc();
                self.cycles_reclaimed.add(u64::from(reclaimed));
            }
            Event::TrueOverflow => self.true_overflows.inc(),
            Event::HeapSplit => self.heap_splits.inc(),
            Event::HeapMerge => self.heap_merges.inc(),
            Event::HeapReadIn => self.heap_read_ins.inc(),
            Event::HeapFree => self.heap_frees.inc(),
            Event::Occupancy { .. } => self.occupancy_samples.inc(),
            Event::HeapFaultDetected => self.heap_faults_detected.inc(),
            Event::HeapFaultRecovered => self.heap_faults_recovered.inc(),
            Event::OverflowModeEntered => self.overflow_mode_entries.inc(),
            Event::OverflowModeExited => self.overflow_mode_exits.inc(),
        }
    }

    /// Fold another set of counts in.
    pub fn merge(&mut self, other: &EventCounts) {
        self.lpt_hits.merge(other.lpt_hits);
        self.lpt_misses.merge(other.lpt_misses);
        self.refops.merge(other.refops);
        self.ep_refops.merge(other.ep_refops);
        self.entries_allocated.merge(other.entries_allocated);
        self.entries_freed.merge(other.entries_freed);
        self.lazy_drains.merge(other.lazy_drains);
        self.lazy_children.merge(other.lazy_children);
        self.pseudo_overflows.merge(other.pseudo_overflows);
        self.compressed.merge(other.compressed);
        self.cycle_collections.merge(other.cycle_collections);
        self.cycles_reclaimed.merge(other.cycles_reclaimed);
        self.true_overflows.merge(other.true_overflows);
        self.heap_splits.merge(other.heap_splits);
        self.heap_merges.merge(other.heap_merges);
        self.heap_read_ins.merge(other.heap_read_ins);
        self.heap_frees.merge(other.heap_frees);
        self.occupancy_samples.merge(other.occupancy_samples);
        self.heap_faults_detected.merge(other.heap_faults_detected);
        self.heap_faults_recovered
            .merge(other.heap_faults_recovered);
        self.overflow_mode_entries
            .merge(other.overflow_mode_entries);
        self.overflow_mode_exits.merge(other.overflow_mode_exits);
    }

    /// Field names matching [`EventCounts::to_words`] order, for
    /// labeling flattened word vectors.
    pub const WORD_NAMES: [&'static str; 22] = [
        "lpt_hits",
        "lpt_misses",
        "refops",
        "ep_refops",
        "entries_allocated",
        "entries_freed",
        "lazy_drains",
        "lazy_children",
        "pseudo_overflows",
        "compressed",
        "cycle_collections",
        "cycles_reclaimed",
        "true_overflows",
        "heap_splits",
        "heap_merges",
        "heap_read_ins",
        "heap_frees",
        "occupancy_samples",
        "heap_faults_detected",
        "heap_faults_recovered",
        "overflow_mode_entries",
        "overflow_mode_exits",
    ];

    /// Flatten into the canonical fixed-order word vector (the same
    /// field order as the JSON serialization). The inverse is
    /// [`EventCounts::from_words`]; persistence layers use the pair to
    /// carry per-session sink state through suspend/resume images.
    pub fn to_words(&self) -> [u64; 22] {
        [
            self.lpt_hits.get(),
            self.lpt_misses.get(),
            self.refops.get(),
            self.ep_refops.get(),
            self.entries_allocated.get(),
            self.entries_freed.get(),
            self.lazy_drains.get(),
            self.lazy_children.get(),
            self.pseudo_overflows.get(),
            self.compressed.get(),
            self.cycle_collections.get(),
            self.cycles_reclaimed.get(),
            self.true_overflows.get(),
            self.heap_splits.get(),
            self.heap_merges.get(),
            self.heap_read_ins.get(),
            self.heap_frees.get(),
            self.occupancy_samples.get(),
            self.heap_faults_detected.get(),
            self.heap_faults_recovered.get(),
            self.overflow_mode_entries.get(),
            self.overflow_mode_exits.get(),
        ]
    }

    /// Rebuild from a word vector produced by [`EventCounts::to_words`].
    pub fn from_words(w: &[u64; 22]) -> EventCounts {
        let mut c = EventCounts::default();
        c.lpt_hits.add(w[0]);
        c.lpt_misses.add(w[1]);
        c.refops.add(w[2]);
        c.ep_refops.add(w[3]);
        c.entries_allocated.add(w[4]);
        c.entries_freed.add(w[5]);
        c.lazy_drains.add(w[6]);
        c.lazy_children.add(w[7]);
        c.pseudo_overflows.add(w[8]);
        c.compressed.add(w[9]);
        c.cycle_collections.add(w[10]);
        c.cycles_reclaimed.add(w[11]);
        c.true_overflows.add(w[12]);
        c.heap_splits.add(w[13]);
        c.heap_merges.add(w[14]);
        c.heap_read_ins.add(w[15]);
        c.heap_frees.add(w[16]);
        c.occupancy_samples.add(w[17]);
        c.heap_faults_detected.add(w[18]);
        c.heap_faults_recovered.add(w[19]);
        c.overflow_mode_entries.add(w[20]);
        c.overflow_mode_exits.add(w[21]);
        c
    }

    fn json_fields(&self, out: &mut JsonObject) {
        out.field_u64("lpt_hits", self.lpt_hits.get());
        out.field_u64("lpt_misses", self.lpt_misses.get());
        out.field_u64("refops", self.refops.get());
        out.field_u64("ep_refops", self.ep_refops.get());
        out.field_u64("entries_allocated", self.entries_allocated.get());
        out.field_u64("entries_freed", self.entries_freed.get());
        out.field_u64("lazy_drains", self.lazy_drains.get());
        out.field_u64("lazy_children", self.lazy_children.get());
        out.field_u64("pseudo_overflows", self.pseudo_overflows.get());
        out.field_u64("compressed", self.compressed.get());
        out.field_u64("cycle_collections", self.cycle_collections.get());
        out.field_u64("cycles_reclaimed", self.cycles_reclaimed.get());
        out.field_u64("true_overflows", self.true_overflows.get());
        out.field_u64("heap_splits", self.heap_splits.get());
        out.field_u64("heap_merges", self.heap_merges.get());
        out.field_u64("heap_read_ins", self.heap_read_ins.get());
        out.field_u64("heap_frees", self.heap_frees.get());
        out.field_u64("occupancy_samples", self.occupancy_samples.get());
        out.field_u64("heap_faults_detected", self.heap_faults_detected.get());
        out.field_u64("heap_faults_recovered", self.heap_faults_recovered.get());
        out.field_u64("overflow_mode_entries", self.overflow_mode_entries.get());
        out.field_u64("overflow_mode_exits", self.overflow_mode_exits.get());
    }
}

/// A sink that counts events by kind and nothing else.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingSink {
    /// The per-kind counts.
    pub counts: EventCounts,
}

impl EventSink for CountingSink {
    #[inline]
    fn record(&mut self, event: Event) {
        self.counts.record(event);
    }
}

/// A sink that counts events *and* keeps distribution histograms:
/// occupancy over time, compression-run and cycle-collection reclaim
/// sizes, and lazy-drain sizes.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RecordingSink {
    /// The per-kind counts.
    pub counts: EventCounts,
    /// Distribution of live-entry occupancy samples.
    pub occupancy: Histogram,
    /// Distribution of entries reclaimed per compression pass.
    pub compress_reclaim: Histogram,
    /// Distribution of entries reclaimed per cycle collection.
    pub cycle_reclaim: Histogram,
    /// Distribution of children decremented per lazy drain.
    pub drain_size: Histogram,
}

impl EventSink for RecordingSink {
    #[inline]
    fn record(&mut self, event: Event) {
        self.counts.record(event);
        match event {
            Event::Occupancy { live } => self.occupancy.record(u64::from(live)),
            Event::PseudoOverflow { reclaimed } => {
                self.compress_reclaim.record(u64::from(reclaimed))
            }
            Event::CycleCollection { reclaimed } => self.cycle_reclaim.record(u64::from(reclaimed)),
            Event::LazyDrain { children } => self.drain_size.record(u64::from(children)),
            _ => {}
        }
    }
}

impl RecordingSink {
    /// Freeze the current state into a serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counts: self.counts,
            occupancy: self.occupancy.clone(),
            compress_reclaim: self.compress_reclaim.clone(),
            cycle_reclaim: self.cycle_reclaim.clone(),
            drain_size: self.drain_size.clone(),
        }
    }
}

/// A sink that streams every event to a closure (log lines, channels,
/// cross-thread aggregation — anything).
pub struct FnSink<F: FnMut(Event)>(pub F);

impl<F: FnMut(Event)> EventSink for FnSink<F> {
    #[inline]
    fn record(&mut self, event: Event) {
        (self.0)(event);
    }
}

impl<S: EventSink + ?Sized> EventSink for &mut S {
    #[inline]
    fn record(&mut self, event: Event) {
        (**self).record(event);
    }

    #[inline]
    fn op_begin(&mut self, prim: PrimKind) {
        (**self).op_begin(prim);
    }

    #[inline]
    fn op_end(&mut self, class: OpClass) {
        (**self).op_end(class);
    }

    #[inline]
    fn cache_probe(&mut self, hit: bool) {
        (**self).cache_probe(hit);
    }
}

/// Tee: a pair of sinks both observe the same stream (e.g. a
/// [`RecordingSink`] for counters next to a span profiler).
impl<A: EventSink, B: EventSink> EventSink for (A, B) {
    #[inline]
    fn record(&mut self, event: Event) {
        self.0.record(event);
        self.1.record(event);
    }

    #[inline]
    fn op_begin(&mut self, prim: PrimKind) {
        self.0.op_begin(prim);
        self.1.op_begin(prim);
    }

    #[inline]
    fn op_end(&mut self, class: OpClass) {
        self.0.op_end(class);
        self.1.op_end(class);
    }

    #[inline]
    fn cache_probe(&mut self, hit: bool) {
        self.0.cache_probe(hit);
        self.1.cache_probe(hit);
    }
}

// ---------------------------------------------------------------------
// Snapshots and JSON
// ---------------------------------------------------------------------

/// A frozen, serializable view of a [`RecordingSink`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Per-kind event counts.
    pub counts: EventCounts,
    /// Occupancy distribution.
    pub occupancy: Histogram,
    /// Compression reclaim-size distribution.
    pub compress_reclaim: Histogram,
    /// Cycle-collection reclaim-size distribution.
    pub cycle_reclaim: Histogram,
    /// Lazy-drain size distribution.
    pub drain_size: Histogram,
}

impl MetricsSnapshot {
    /// Fold another snapshot in (cross-cell aggregation).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.counts.merge(&other.counts);
        self.occupancy.merge(&other.occupancy);
        self.compress_reclaim.merge(&other.compress_reclaim);
        self.cycle_reclaim.merge(&other.cycle_reclaim);
        self.drain_size.merge(&other.drain_size);
    }

    /// Serialize to JSON with a fixed key order. Two snapshots of the
    /// same event stream byte-compare equal.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        self.counts.json_fields(&mut o);
        o.field_raw("occupancy", &histogram_json(&self.occupancy));
        o.field_raw("compress_reclaim", &histogram_json(&self.compress_reclaim));
        o.field_raw("cycle_reclaim", &histogram_json(&self.cycle_reclaim));
        o.field_raw("drain_size", &histogram_json(&self.drain_size));
        o.finish()
    }
}

/// Serialize one histogram with the fixed key order every snapshot
/// consumer relies on: `count`, `sum`, `min`, `max`, `p50`, `p99`,
/// `buckets` (non-empty buckets as `[lower_bound, count]` pairs).
pub fn histogram_json(h: &Histogram) -> String {
    let mut o = JsonObject::new();
    o.field_u64("count", h.count());
    o.field_u64("sum", h.sum());
    o.field_u64("min", h.min());
    o.field_u64("max", h.max());
    o.field_u64("p50", h.quantile(0.5));
    o.field_u64("p99", h.quantile(0.99));
    let buckets: Vec<String> = h
        .nonzero_buckets()
        .into_iter()
        .map(|(lo, n)| format!("[{lo},{n}]"))
        .collect();
    o.field_raw("buckets", &format!("[{}]", buckets.join(",")));
    o.finish()
}

/// Incremental writer for a JSON object with caller-controlled key
/// order. Dependency-free and deterministic: field order is insertion
/// order, numbers are formatted with fixed rules (six decimal places
/// for floats), strings are escaped per RFC 8259.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    any: bool,
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, k: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        let _ = write!(self.buf, "\"{}\":", escape_json(k));
    }

    /// Add an unsigned integer field.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Add a float field, formatted to six decimal places (stable
    /// across platforms and runs).
    pub fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v:.6}");
        self
    }

    /// Add a string field (escaped).
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "\"{}\"", escape_json(v));
        self
    }

    /// Add a boolean field.
    pub fn field_bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Add a pre-serialized JSON value verbatim (nested objects/arrays).
    pub fn field_raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    /// Close the object and return the JSON text.
    pub fn finish(self) -> String {
        let mut buf = self.buf;
        buf.push('}');
        buf
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 8, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.quantile(0.0), 0);
        assert!(h.quantile(0.5) <= 8);
        assert!(h.quantile(1.0) >= 512);
        let mut other = Histogram::new();
        other.record(7);
        h.merge(&other);
        assert_eq!(h.count(), 9);
    }

    #[test]
    fn median_of_half_zero_half_large_is_the_upper_half() {
        // The `eval_p50_cycles: 0` soak bug: with exactly half the
        // samples at 0, the inclusive rank ⌈0.5·count⌉ landed on the
        // last zero, reporting p50 = 0 against a p99 of 64. The
        // exclusive rank ⌊0.5·count⌋+1 resolves the boundary upward.
        let mut h = Histogram::new();
        for _ in 0..8 {
            h.record(0);
        }
        for _ in 0..8 {
            h.record(64);
        }
        assert_eq!(h.quantile(0.5), 64, "p50 must be the upper half");
        assert_eq!(h.quantile(0.99), 64);
        // Just below the boundary still resolves to the zeros; the
        // exact endpoints stay pinned to min and max.
        assert_eq!(h.quantile(0.49), 0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 64);
        // A strict zero-majority median is still legitimately 0.
        h.record(0);
        assert_eq!(h.quantile(0.5), 0, "9 zeros of 17 put the median at 0");
    }

    #[test]
    fn counting_sink_counts_by_kind() {
        let mut s = CountingSink::default();
        s.record(Event::LptHit);
        s.record(Event::LptHit);
        s.record(Event::LptMiss);
        s.record(Event::PseudoOverflow { reclaimed: 5 });
        s.record(Event::LazyDrain { children: 2 });
        assert_eq!(s.counts.lpt_hits.get(), 2);
        assert_eq!(s.counts.lpt_misses.get(), 1);
        assert_eq!(s.counts.pseudo_overflows.get(), 1);
        assert_eq!(s.counts.compressed.get(), 5);
        assert_eq!(s.counts.lazy_drains.get(), 1);
        assert_eq!(s.counts.lazy_children.get(), 2);
    }

    #[test]
    fn recording_sink_snapshot_json_is_deterministic() {
        let run = || {
            let mut s = RecordingSink::default();
            for k in 0..50u32 {
                s.record(Event::Occupancy { live: k % 7 });
                s.record(Event::RefOp);
            }
            s.record(Event::CycleCollection { reclaimed: 3 });
            s.snapshot().to_json()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.contains("\"refops\":50"));
        assert!(a.contains("\"cycle_collections\":1"));
    }

    #[test]
    fn fn_sink_streams_events() {
        let mut seen = Vec::new();
        {
            let mut s = FnSink(|e: Event| seen.push(e.kind_name()));
            s.record(Event::HeapSplit);
            s.record(Event::TrueOverflow);
        }
        assert_eq!(seen, vec!["heap_split", "true_overflow"]);
    }

    #[test]
    fn json_object_escapes_and_orders() {
        let mut o = JsonObject::new();
        o.field_str("name", "a\"b\\c");
        o.field_u64("n", 3);
        o.field_f64("r", 0.5);
        o.field_bool("ok", true);
        assert_eq!(
            o.finish(),
            r#"{"name":"a\"b\\c","n":3,"r":0.500000,"ok":true}"#
        );
    }

    #[test]
    fn empty_histogram_edges() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0, "empty min reports 0, not u64::MAX");
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "empty quantile({q})");
        }
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn single_sample_histogram() {
        for v in [0u64, 1, 7, 1 << 20] {
            let mut h = Histogram::new();
            h.record(v);
            assert_eq!(h.count(), 1);
            assert_eq!(h.sum(), v);
            assert_eq!((h.min(), h.max()), (v, v));
            assert_eq!(h.mean(), v as f64);
            // Every quantile of a one-sample distribution — p0 and p100
            // included — lands in the sample's bucket: the reported bound
            // is the bucket's lower bound, which is ≤ v and within a
            // factor of two of it.
            for q in [0.0, 0.5, 1.0] {
                let b = h.quantile(q);
                assert!(b <= v, "quantile({q}) = {b} above sample {v}");
                assert!(v < 2 * b.max(1), "quantile({q}) = {b} not v's bucket");
            }
            assert_eq!(h.nonzero_buckets().len(), 1);
        }
    }

    #[test]
    fn saturating_bucket_percentile_edges() {
        // u64::MAX lands in the last bucket (lower bound 2^63) and both
        // sum and merge saturate instead of wrapping.
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), u64::MAX, "sum saturates");
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.5), 1u64 << 63);
        assert_eq!(h.quantile(1.0), 1u64 << 63);
        assert_eq!(h.nonzero_buckets(), vec![(1u64 << 63, 2)]);
        // Quantiles outside [0,1] clamp rather than panic or scan past
        // the last bucket.
        assert_eq!(h.quantile(2.0), 1u64 << 63);
        assert_eq!(h.quantile(-1.0), 1u64 << 63, "q<0 clamps to q=0");
        let mut other = Histogram::new();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.sum(), u64::MAX, "merge saturates too");
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantile_endpoints_track_min_and_max_buckets() {
        let mut h = Histogram::new();
        for v in [3u64, 900, 17, 64] {
            h.record(v);
        }
        // p0 is the minimum sample's bucket lower bound, p100 the
        // maximum's — neither collapses to 0.
        assert_eq!(h.quantile(0.0), 2, "3 lives in [2,4)");
        assert_eq!(h.quantile(1.0), 512, "900 lives in [512,1024)");
        // Single-bucket data: every quantile is that bucket's bound.
        let mut one = Histogram::new();
        one.record(5);
        one.record(6);
        one.record(7);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 4, "all samples in [4,8)");
        }
    }

    #[test]
    fn merge_and_quantile_are_order_independent() {
        let samples: [u64; 8] = [0, 1, 5, 5, 12, 80, 80, 4000];
        let mut forward = Histogram::new();
        let mut reverse = Histogram::new();
        for &v in &samples {
            forward.record(v);
        }
        for &v in samples.iter().rev() {
            reverse.record(v);
        }
        assert_eq!(forward, reverse, "recording order is invisible");
        // Split the same multiset across shards in two different ways;
        // merging in any order must agree bucket-for-bucket, so every
        // quantile agrees too.
        let mut split_a = Histogram::new();
        let mut split_b = Histogram::new();
        for (k, &v) in samples.iter().enumerate() {
            if k % 2 == 0 {
                split_a.record(v);
            } else {
                split_b.record(v);
            }
        }
        let mut ab = split_a.clone();
        ab.merge(&split_b);
        let mut ba = split_b.clone();
        ba.merge(&split_a);
        assert_eq!(ab, ba);
        assert_eq!(ab, forward);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(ab.quantile(q), forward.quantile(q));
            assert_eq!(ba.quantile(q), forward.quantile(q));
        }
        // Merging an empty histogram is the identity, edges included.
        let mut with_empty = forward.clone();
        with_empty.merge(&Histogram::new());
        assert_eq!(with_empty, forward);
        assert_eq!(with_empty.min(), 0);
        assert_eq!(with_empty.quantile(0.0), forward.quantile(0.0));
    }

    // A minimal JSON reader for the round-trip test: parses objects into
    // insertion-ordered key/value lists so key *order* is assertable.
    #[derive(Debug, PartialEq)]
    enum Json {
        Num(String),
        Str(String),
        Bool(bool),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    fn parse_json(s: &str) -> Json {
        let b = s.as_bytes();
        let (v, rest) = parse_value(b, 0);
        assert_eq!(rest, b.len(), "trailing garbage after JSON value");
        v
    }

    fn parse_value(b: &[u8], mut i: usize) -> (Json, usize) {
        match b[i] {
            b'{' => {
                let mut fields = Vec::new();
                i += 1;
                if b[i] == b'}' {
                    return (Json::Obj(fields), i + 1);
                }
                loop {
                    let (k, j) = parse_string(b, i);
                    assert_eq!(b[j], b':');
                    let (v, j) = parse_value(b, j + 1);
                    fields.push((k, v));
                    match b[j] {
                        b',' => i = j + 1,
                        b'}' => return (Json::Obj(fields), j + 1),
                        c => panic!("bad object separator {:?}", c as char),
                    }
                }
            }
            b'[' => {
                let mut items = Vec::new();
                i += 1;
                if b[i] == b']' {
                    return (Json::Arr(items), i + 1);
                }
                loop {
                    let (v, j) = parse_value(b, i);
                    items.push(v);
                    match b[j] {
                        b',' => i = j + 1,
                        b']' => return (Json::Arr(items), j + 1),
                        c => panic!("bad array separator {:?}", c as char),
                    }
                }
            }
            b'"' => {
                let (s, j) = parse_string(b, i);
                (Json::Str(s), j)
            }
            b't' => (Json::Bool(true), i + 4),
            b'f' => (Json::Bool(false), i + 5),
            _ => {
                let start = i;
                while i < b.len() && matches!(b[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    i += 1;
                }
                assert!(i > start, "expected a JSON value at byte {start}");
                (
                    Json::Num(std::str::from_utf8(&b[start..i]).unwrap().to_string()),
                    i,
                )
            }
        }
    }

    fn parse_string(b: &[u8], i: usize) -> (String, usize) {
        assert_eq!(b[i], b'"');
        let mut out = String::new();
        let mut j = i + 1;
        while b[j] != b'"' {
            if b[j] == b'\\' {
                j += 1;
                out.push(match b[j] {
                    b'n' => '\n',
                    b'r' => '\r',
                    b't' => '\t',
                    c => c as char,
                });
            } else {
                out.push(b[j] as char);
            }
            j += 1;
        }
        (out, j + 1)
    }

    impl Json {
        fn obj(&self) -> &[(String, Json)] {
            match self {
                Json::Obj(fields) => fields,
                other => panic!("expected object, got {other:?}"),
            }
        }

        fn get(&self, key: &str) -> &Json {
            self.obj()
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}"))
        }

        fn num_u64(&self) -> u64 {
            match self {
                Json::Num(s) => s.parse().unwrap(),
                other => panic!("expected number, got {other:?}"),
            }
        }
    }

    #[test]
    fn snapshot_json_reparses_with_stable_keys() {
        let mut s = RecordingSink::default();
        for k in 0..20u32 {
            s.record(Event::Occupancy { live: k });
            s.record(Event::LptHit);
        }
        s.record(Event::LptMiss);
        s.record(Event::LazyDrain { children: 2 });
        s.record(Event::PseudoOverflow { reclaimed: 4 });
        let snap = s.snapshot();
        let text = snap.to_json();
        let parsed = parse_json(&text);

        // Key order is the fixed serialization order — the property the
        // sweep engine's byte-compare determinism rests on.
        let keys: Vec<&str> = parsed.obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "lpt_hits",
                "lpt_misses",
                "refops",
                "ep_refops",
                "entries_allocated",
                "entries_freed",
                "lazy_drains",
                "lazy_children",
                "pseudo_overflows",
                "compressed",
                "cycle_collections",
                "cycles_reclaimed",
                "true_overflows",
                "heap_splits",
                "heap_merges",
                "heap_read_ins",
                "heap_frees",
                "occupancy_samples",
                "heap_faults_detected",
                "heap_faults_recovered",
                "overflow_mode_entries",
                "overflow_mode_exits",
                "occupancy",
                "compress_reclaim",
                "cycle_reclaim",
                "drain_size",
            ]
        );

        // Values round-trip.
        assert_eq!(parsed.get("lpt_hits").num_u64(), 20);
        assert_eq!(parsed.get("lpt_misses").num_u64(), 1);
        assert_eq!(parsed.get("compressed").num_u64(), 4);
        let occ = parsed.get("occupancy");
        assert_eq!(occ.get("count").num_u64(), snap.occupancy.count());
        assert_eq!(occ.get("sum").num_u64(), snap.occupancy.sum());
        assert_eq!(occ.get("max").num_u64(), snap.occupancy.max());
        let hist_keys: Vec<&str> = occ.obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            hist_keys,
            ["count", "sum", "min", "max", "p50", "p99", "buckets"]
        );

        // Reserializing the same state reproduces the bytes exactly.
        assert_eq!(s.snapshot().to_json(), text);
    }

    #[test]
    fn empty_snapshot_json_reparses() {
        let snap = RecordingSink::default().snapshot();
        let parsed = parse_json(&snap.to_json());
        assert_eq!(parsed.get("lpt_hits").num_u64(), 0);
        let occ = parsed.get("occupancy");
        assert_eq!(occ.get("count").num_u64(), 0);
        assert_eq!(occ.get("min").num_u64(), 0, "empty min serializes as 0");
        assert_eq!(occ.get("buckets"), &Json::Arr(vec![]));
    }

    #[test]
    fn tee_sink_feeds_both_halves() {
        let mut tee = (CountingSink::default(), CountingSink::default());
        tee.record(Event::LptHit);
        tee.op_begin(PrimKind::Car);
        tee.op_end(OpClass::AccessHit);
        assert_eq!(tee.0.counts.lpt_hits.get(), 1);
        assert_eq!(tee.1.counts.lpt_hits.get(), 1);
    }

    #[test]
    fn prim_kind_names_and_indices_are_dense() {
        for (k, p) in PrimKind::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), k);
        }
        let names: Vec<&str> = PrimKind::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            ["readlist", "car", "cdr", "cons", "rplaca", "rplacd"]
        );
    }

    #[test]
    fn snapshot_merge_adds() {
        let mut a = RecordingSink::default();
        a.record(Event::LptHit);
        a.record(Event::Occupancy { live: 4 });
        let mut b = RecordingSink::default();
        b.record(Event::LptHit);
        b.record(Event::Occupancy { live: 9 });
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counts.lpt_hits.get(), 2);
        assert_eq!(snap.occupancy.count(), 2);
        assert_eq!(snap.occupancy.max(), 9);
    }
}
