//! The List Processor and its LPT (§4.3.2).
//!
//! Every list object the EP can name is an entry in the LPT. An entry is
//! an `(identifier, car, cdr, refcount, address, mark)` tuple
//! (Figure 4.2): `car`/`cdr` cache the object's children (other
//! identifiers, or immediate atoms), `address` points at the backing
//! heap object when the children are *not* materialized, and the
//! reference count governs reclamation. Invariant: a live entry either
//! has its fields materialized or an address, never both (a split
//! consumes the heap object; a compression merge re-creates one).
//!
//! Reclamation follows §4.3.2.1 exactly:
//!
//! * freed entries go on a LIFO **free stack** threaded through the
//!   table, so the most recently freed entry is reused first;
//! * a freed entry's children are decremented **lazily**, when the entry
//!   is reallocated ([`DecrementPolicy::Lazy`]) — the alternative
//!   recursive policy is implemented for the Table 5.2 comparison;
//! * stack references can be counted EP-side
//!   ([`RefcountMode::Split`]): the LPT keeps one `StackBit` per entry
//!   and only hears about the *last* stack reference dying (§5.2.4,
//!   Table 5.3).
//!
//! Overflow handling (§4.3.2.3): **pseudo overflow** compresses
//! table-internal structure back into the heap (merge); **true
//! overflow** breaks unreachable reference cycles by a mark/sweep over
//! the table; only if both fail does the machine degrade to overflow
//! mode (surfaced as [`LpError::TrueOverflow`]).
//!
//! # Protecting operands: the [`Rooted`] handle
//!
//! The EP must protect in-flight operands from reclamation while a
//! multi-step operation runs, and must tell the LP about stack/binding
//! references. Both protections are one RAII API:
//!
//! * [`ListProcessor::root`] takes a *register* reference (a processor
//!   register holds the operand; no reference-count bus traffic);
//! * [`ListProcessor::root_binding`] takes a *stack/binding* reference
//!   (counted per the configured [`RefcountMode`]);
//! * [`ListProcessor::adopt_binding`] wraps a stack reference a value
//!   already carries (e.g. the reference `readlist`/`car`/`cons` results
//!   arrive with) in a handle without taking another.
//!
//! Dropping the handle releases the reference. Because a handle must
//! coexist with `&mut` operations on the processor, release is
//! *deferred*: the drop enqueues an unroot request which the LP drains
//! at the next operation boundary (or [`ListProcessor::drain_unroots`]).
//! Deferral is always in the safe direction — a reference lives
//! slightly longer, never shorter.
//!
//! # Instrumentation
//!
//! The processor is generic over a [`small_metrics::EventSink`]
//! (defaulting to [`NoopSink`], which compiles to nothing) and emits a
//! [`small_metrics::Event`] at every observable step: hits, misses,
//! reference operations, entry allocation/free, compression passes,
//! cycle collections, lazy-decrement drains, occupancy samples, and all
//! heap-controller traffic (the LP is the single chokepoint through
//! which split/merge/read-in/free requests flow).

use small_heap::controller::{HeapController, HeapError};
use small_heap::{Tag, Word};
use small_metrics::{Event, EventSink, NoopSink, OpClass, PrimKind};
use small_sexpr::SExpr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// An LPT identifier — the small name the EP uses for a list object.
pub type Id = u32;

/// Retries granted by [`ListProcessor::retrying`] before a transient
/// heap fault is surfaced to the caller. Chosen above the longest
/// fault burst the deterministic injector produces, so every bounded
/// burst recovers.
pub const TRANSIENT_RETRY_LIMIT: u32 = 4;

/// A value crossing the EP–LP interface: an immediate atom or a list
/// object identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpValue {
    /// An immediate (nil / integer / symbol), as a tagged word.
    Atom(Word),
    /// A list object named by an LPT identifier.
    Obj(Id),
}

impl LpValue {
    /// The identifier, if a list object.
    pub fn obj(self) -> Option<Id> {
        match self {
            LpValue::Obj(id) => Some(id),
            LpValue::Atom(_) => None,
        }
    }

    /// True for nil.
    pub fn is_nil(self) -> bool {
        matches!(self, LpValue::Atom(w) if w.is_nil())
    }

    /// True for values naming list structure: a table object, or a
    /// heap-direct pointer produced in §4.3.2.3 overflow mode.
    pub fn is_list(self) -> bool {
        match self {
            LpValue::Obj(_) => true,
            LpValue::Atom(w) => is_ptr_word(w),
        }
    }

    /// True when the value is a heap-direct pointer (§4.3.2.3 overflow
    /// mode) rather than a table entry or an immediate atom.
    pub fn is_heap_direct(self) -> bool {
        matches!(self, LpValue::Atom(w) if is_ptr_word(w))
    }
}

/// Whether a word is an object pointer (as opposed to an immediate).
fn is_ptr_word(w: Word) -> bool {
    matches!(w.tag(), Tag::Ptr | Tag::Invisible)
}

/// Whether an atom word read from a checkpoint can be trusted: an
/// immediate atom, or (overflow mode's heap-direct values) a pointer to
/// an object `controller` holds.
fn atom_ok<C: HeapController>(controller: &C, w: Word) -> bool {
    match w.tag() {
        Tag::Nil | Tag::Int | Tag::Sym => true,
        Tag::Ptr => controller.holds(w.addr()),
        _ => false,
    }
}

/// Pseudo-overflow compression policy (§5.2.3, Figure 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompressPolicy {
    /// Compress just enough to satisfy the immediate need.
    #[default]
    CompressOne,
    /// Compress every compressible entry at overflow time.
    CompressAll,
    /// The hybrid §5.2.3 sketches: Compress-One by default, switching to
    /// Compress-All when pseudo overflows become frequent (more than
    /// the given number of overflows within the last `window` sampled
    /// operations).
    Hybrid {
        /// Pseudo overflows tolerated within the window.
        threshold: u32,
        /// Window length in occupancy samples.
        window: u64,
    },
}

/// What happens to a freed entry's children (§4.3.2.1, Table 5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecrementPolicy {
    /// Children decremented when the entry is *reallocated* (the paper's
    /// choice: freeing is O(1)).
    #[default]
    Lazy,
    /// Children decremented immediately on free (unbounded cascades; the
    /// "RecRefops" comparison column).
    Recursive,
}

/// How freed entries are remembered for reuse (§4.3.2.1).
///
/// The thesis argues for a LIFO *stack* ("the most recently freed entry
/// will be the first to be re-used. This minimizes the period during
/// which more LPT space than is necessary is occupied"); the FIFO queue
/// alternative is implemented for the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FreeDiscipline {
    /// LIFO free stack (the paper's choice).
    #[default]
    Stack,
    /// FIFO free queue (the rejected alternative).
    Queue,
}

/// Where stack references are counted (§5.2.4, Table 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefcountMode {
    /// All references counted in the LPT (every stack retain/release is
    /// EP→LP bus traffic).
    #[default]
    Unified,
    /// Stack references counted in an EP-side table; the LPT keeps a
    /// StackBit and is told only when the EP count reaches zero.
    Split,
}

/// What the LP does when the table is full and neither compression nor
/// cycle breaking recovers space (§4.3.2.3 overflow mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Surface [`LpError::TrueOverflow`] and let the machine abort the
    /// workload (the conservative default: a correctly sized table
    /// should never truly overflow).
    #[default]
    Abort,
    /// Degrade to heap-direct operation: new structure is built in the
    /// heap and named by pointer atoms, accessed with non-consuming
    /// peeks like a conventional machine, until occupancy falls back to
    /// half the table and the LP re-enters table mode. The heap-direct
    /// world is never reclaimed (a conventional machine would need its
    /// own collector); destructive update of heap-direct values is
    /// refused with [`LpError::Degraded`].
    Degrade,
}

/// LP configuration.
#[derive(Debug, Clone, Copy)]
pub struct LpConfig {
    /// Number of LPT entries.
    pub table_size: usize,
    /// Pseudo-overflow policy.
    pub compression: CompressPolicy,
    /// Child-decrement policy.
    pub decrement: DecrementPolicy,
    /// Reference-count placement.
    pub refcounts: RefcountMode,
    /// Free-entry reuse order.
    pub free_discipline: FreeDiscipline,
    /// True-overflow behavior.
    pub overflow: OverflowPolicy,
}

impl Default for LpConfig {
    fn default() -> Self {
        LpConfig {
            table_size: 2048,
            compression: CompressPolicy::CompressOne,
            decrement: DecrementPolicy::Lazy,
            refcounts: RefcountMode::Unified,
            free_discipline: FreeDiscipline::Stack,
            overflow: OverflowPolicy::Abort,
        }
    }
}

/// LP/LPT activity counters (Tables 5.2–5.4).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LptStats {
    /// Reference-count updates performed in the LPT (EP–LP bus traffic).
    pub refops: u64,
    /// Reference-count updates performed EP-side (split mode only).
    pub ep_refops: u64,
    /// LPT entry allocation requests ("Gets").
    pub gets: u64,
    /// Entries whose count reached zero ("Frees").
    pub frees: u64,
    /// car/cdr requests satisfied from LPT fields.
    pub hits: u64,
    /// car/cdr requests that required a heap split.
    pub misses: u64,
    /// Pseudo overflows (compression runs).
    pub pseudo_overflows: u64,
    /// Entries reclaimed by compression.
    pub compressed: u64,
    /// True-overflow cycle-breaking collections.
    pub cycle_collections: u64,
    /// Entries reclaimed by cycle breaking.
    pub cycles_reclaimed: u64,
    /// Peak simultaneous occupancy.
    pub max_occupancy: usize,
    /// Sum of occupancy over samples (for averages).
    pub occupancy_sum: u64,
    /// Occupancy samples taken.
    pub occupancy_samples: u64,
    /// Largest LPT reference count observed.
    pub max_refcount: u32,
    /// Largest EP-side count observed (split mode).
    pub max_ep_refcount: u32,
    /// Transient heap faults detected by a recovery layer (the bounded
    /// retry wrapper or an abandoned compression pass).
    pub faults_detected: u64,
    /// Detected transient faults subsequently recovered from.
    pub faults_recovered: u64,
    /// Times the LP entered §4.3.2.3 heap-direct overflow mode.
    pub overflow_entries: u64,
    /// Times the LP left overflow mode and resumed table operation.
    pub overflow_exits: u64,
    /// Operations served heap-direct while in (or leaving) overflow
    /// mode: direct conses, peeks, and cross-boundary copies.
    pub heap_direct_ops: u64,
}

impl LptStats {
    /// Average occupancy over the run.
    pub fn avg_occupancy(&self) -> f64 {
        if self.occupancy_samples == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.occupancy_samples as f64
        }
    }

    /// Hit rate of car/cdr requests.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// LP errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The LPT is full and neither compression nor cycle breaking could
    /// recover space: the machine must degrade to overflow mode.
    TrueOverflow,
    /// The backing heap failed.
    Heap(HeapError),
    /// car/cdr of an atom reached the LP (EP type check should prevent).
    NotAList,
    /// The heap returned a word the LP cannot interpret (a free-list
    /// link or collector-internal tag escaped): memory corruption.
    UnexpectedTag(Tag),
    /// The operation is unsupported while the LP is degraded to
    /// §4.3.2.3 heap-direct overflow mode (destructive update of a
    /// heap-direct value). The payload names the refused operation.
    Degraded(&'static str),
    /// `writelist` (or an overflow-mode snapshot) met a cycle built by
    /// `rplaca`/`rplacd`: the structure has no finite s-expression.
    Cyclic,
}

impl From<HeapError> for LpError {
    fn from(e: HeapError) -> Self {
        LpError::Heap(e)
    }
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::TrueOverflow => write!(f, "LPT true overflow"),
            LpError::Heap(e) => write!(f, "heap: {e}"),
            LpError::NotAList => write!(f, "LP operand is not a list object"),
            LpError::UnexpectedTag(t) => write!(f, "heap returned word with tag {t:?}"),
            LpError::Degraded(what) => {
                write!(f, "{what} is unsupported in heap-direct overflow mode")
            }
            LpError::Cyclic => {
                write!(f, "cyclic list structure has no finite s-expression")
            }
        }
    }
}

impl std::error::Error for LpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LpError::Heap(e) => Some(e),
            _ => None,
        }
    }
}

/// One LPT field: empty (backed by the heap), an immediate atom, or a
/// child object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Field {
    #[default]
    Empty,
    Atom(Word),
    Obj(Id),
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    car: Field,
    cdr: Field,
    rc: u32,
    addr: Option<small_heap::HeapAddr>,
    stack_bit: bool,
    live: bool,
    /// Free-stack link (the paper threads this through the addr field).
    free_next: Option<Id>,
    /// Freed with children still in the fields (lazy decrement pending).
    lazy: bool,
}

// ---------------------------------------------------------------------
// Invariant auditing, perturbation, and reconciliation
// ---------------------------------------------------------------------

/// A single invariant violation found by [`ListProcessor::audit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// A live entry's reference count is below its internal in-degree
    /// and no stack bit covers the shortfall: a future decrement will
    /// free it while fields still reference it.
    RefcountLow {
        /// The under-counted entry.
        id: Id,
        /// Its recorded reference count.
        rc: u32,
        /// References to it from live and pending fields.
        indegree: u32,
    },
    /// A live entry with zero references and no stack bit: garbage the
    /// counting machinery failed to detect.
    UndetectedGarbage {
        /// The unreferenced entry.
        id: Id,
    },
    /// A live or pending field names a dead entry.
    DanglingField {
        /// The entry holding the field.
        id: Id,
        /// The dead identifier it names.
        child: Id,
    },
    /// A field names an identifier outside the table.
    FieldOutOfRange {
        /// The entry holding the field.
        id: Id,
        /// The out-of-range identifier.
        child: Id,
    },
    /// A live entry violates the fields-XOR-address invariant (§4.3.2):
    /// empty fields without a backing address, materialized fields
    /// alongside one, or only one field materialized.
    FieldsAddrMismatch {
        /// The inconsistent entry.
        id: Id,
    },
    /// The free-list walk revisited an entry: `free_next` links form a
    /// cycle.
    FreeListCycle {
        /// The first entry reached twice.
        id: Id,
    },
    /// A live entry is threaded on the free list.
    LiveOnFreeList {
        /// The live entry found on the list.
        id: Id,
    },
    /// A dead entry is unreachable from the free-list head: it can
    /// never be reused.
    DeadNotOnFreeList {
        /// The stranded entry.
        id: Id,
    },
    /// `free_tail` does not name the last entry of the free list.
    FreeTailMismatch,
    /// Split-refcount bookkeeping out of sync (§5.2.4): the entry's
    /// stack bit disagrees with the EP-side count table, or stack state
    /// exists under the unified mode.
    StackBitMismatch {
        /// The inconsistent entry.
        id: Id,
    },
}

/// The structured result of an [`ListProcessor::audit`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Violations found, in table order (free-list findings last).
    pub violations: Vec<Violation>,
    /// Live entries examined.
    pub live_entries: usize,
    /// Entries reached on the free list.
    pub free_entries: usize,
}

impl AuditReport {
    /// True when no violation was found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A deliberate corruption applied by [`ListProcessor::perturb`].
///
/// Chaos/test tooling only: each variant models a bit-flip class the
/// invariant auditor must catch and [`ListProcessor::reconcile`] must
/// repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturbation {
    /// Overwrite a live entry's reference count.
    SetRefcount {
        /// The entry to corrupt.
        id: Id,
        /// The forged count.
        rc: u32,
    },
    /// Overwrite one field of a live entry with a reference to `child`
    /// without adjusting any count.
    CorruptField {
        /// The entry whose field is overwritten.
        id: Id,
        /// True to hit the car field, false the cdr.
        car: bool,
        /// The forged child identifier (may be dead or out of range).
        child: Id,
    },
    /// Clear a live entry's stack bit without telling the EP table.
    ClearStackBit {
        /// The entry to corrupt.
        id: Id,
    },
    /// Sever the free list at its head: every dead entry becomes
    /// unreachable for reuse.
    BreakFreeList,
    /// Mark a dead entry live without linking any structure to it.
    ResurrectEntry {
        /// The entry to resurrect.
        id: Id,
    },
}

/// What a [`ListProcessor::reconcile`] pass repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconcileStats {
    /// Entries whose reference count was rewritten.
    pub refcounts_fixed: usize,
    /// Fields cleared or defaulted because they named dead or
    /// out-of-range entries (or were inconsistently materialized).
    pub fields_cleared: usize,
    /// Unreachable live entries swept back to the free list.
    pub entries_swept: usize,
    /// Stack bits realigned with the EP-side count table.
    pub stack_bits_fixed: usize,
    /// Free lists rebuilt because the existing threading was invalid
    /// (0 or 1 — a structurally sound list is left untouched).
    pub free_lists_rebuilt: usize,
}

impl ReconcileStats {
    /// True when the pass repaired nothing: the table was already
    /// consistent and is byte-for-byte unchanged.
    pub fn is_clean(&self) -> bool {
        *self == ReconcileStats::default()
    }
}

// ---------------------------------------------------------------------
// Checkpoint images
// ---------------------------------------------------------------------

/// One LPT field in checkpoint-image form (the in-table [`Field`] is
/// private; this mirrors it exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldImage {
    /// Field not materialized (the entry is heap-backed).
    Empty,
    /// An immediate atom, as raw word bits.
    Atom(u64),
    /// A child object identifier.
    Obj(Id),
}

/// One LPT entry in checkpoint-image form: every bit of entry state,
/// including free-stack threading and the lazy-decrement flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryImage {
    /// The car field.
    pub car: FieldImage,
    /// The cdr field.
    pub cdr: FieldImage,
    /// The reference count.
    pub rc: u32,
    /// The backing heap address, when the fields are not materialized.
    pub addr: Option<u32>,
    /// The split-mode stack bit (§5.2.4).
    pub stack_bit: bool,
    /// Whether the entry is live.
    pub live: bool,
    /// Free-stack link.
    pub free_next: Option<Id>,
    /// Freed with deferred child decrements still pending (§4.3.2.1).
    pub lazy: bool,
}

/// A deterministic, complete snapshot of a [`ListProcessor`]'s table
/// state — everything except the heap controller (exported separately
/// via [`small_heap::PersistableController`]) and outstanding [`Rooted`]
/// handles (the restored counts already include them; see
/// [`ListProcessor::resume_root`]).
///
/// Equal processor states export equal images: `ep_counts` is sorted by
/// identifier and every collection is emitted in table order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LpImage {
    /// Table size (must match the importing configuration).
    pub table_size: usize,
    /// Every entry, in identifier order.
    pub entries: Vec<EntryImage>,
    /// Head of the free list.
    pub free_head: Option<Id>,
    /// Tail of the free list.
    pub free_tail: Option<Id>,
    /// Live entry count.
    pub live: usize,
    /// Whether the LP was in §4.3.2.3 heap-direct overflow mode.
    pub degraded: bool,
    /// EP-side stack counts (split mode), sorted by identifier.
    pub ep_counts: Vec<(Id, u32)>,
    /// Recent pseudo-overflow times (hybrid compression state).
    pub recent_overflows: Vec<u64>,
    /// The full statistics ledger, so counters survive recovery.
    pub stats: LptStats,
}

fn field_to_image(f: Field) -> FieldImage {
    match f {
        Field::Empty => FieldImage::Empty,
        Field::Atom(w) => FieldImage::Atom(w.bits()),
        Field::Obj(id) => FieldImage::Obj(id),
    }
}

fn field_from_image(f: FieldImage) -> Field {
    match f {
        FieldImage::Empty => Field::Empty,
        FieldImage::Atom(bits) => Field::Atom(Word::from_bits(bits)),
        FieldImage::Obj(id) => Field::Obj(id),
    }
}

// ---------------------------------------------------------------------
// The Rooted protect protocol
// ---------------------------------------------------------------------

/// Which reference a [`Rooted`] handle holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootKind {
    /// A processor-register reference: protects the value during a
    /// multi-step operation, generating no reference-count bus traffic.
    Register,
    /// A stack/binding reference, counted per the configured
    /// [`RefcountMode`].
    Binding,
}

/// Shared root bookkeeping between a processor and its outstanding
/// [`Rooted`] handles.
struct RootShared {
    /// References whose handles have dropped, awaiting release at the
    /// next operation boundary.
    queue: Mutex<Vec<(LpValue, RootKind)>>,
    /// Fast-path flag: set when the queue is non-empty, so ops that
    /// never see handles pay one relaxed load.
    pending: AtomicBool,
}

/// An RAII reference to an LP value: the value cannot be reclaimed
/// while the handle lives. Created by [`ListProcessor::root`],
/// [`ListProcessor::root_binding`], or [`ListProcessor::adopt_binding`].
///
/// Dropping the handle *schedules* the release; the processor performs
/// it at its next operation boundary (or on an explicit
/// [`ListProcessor::drain_unroots`]). A handle outliving its processor
/// degrades to a no-op.
#[must_use = "dropping a Rooted releases the reference it protects"]
pub struct Rooted {
    value: LpValue,
    kind: RootKind,
    shared: Weak<RootShared>,
    live: bool,
}

impl Rooted {
    /// The protected value.
    pub fn value(&self) -> LpValue {
        self.value
    }

    /// The identifier, if the protected value is a list object.
    pub fn id(&self) -> Option<Id> {
        self.value.obj()
    }

    /// Which reference kind the handle holds.
    pub fn kind(&self) -> RootKind {
        self.kind
    }

    /// Defuse the handle: the reference is intentionally kept forever
    /// (the value stays live for the processor's lifetime). Returns the
    /// value.
    pub fn leak(mut self) -> LpValue {
        self.live = false;
        self.value
    }
}

impl std::fmt::Debug for Rooted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rooted")
            .field("value", &self.value)
            .field("kind", &self.kind)
            .finish()
    }
}

impl Drop for Rooted {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        if let Some(shared) = self.shared.upgrade() {
            // A worker that panicked while holding the lock poisons it;
            // the queue is a plain `Vec` push/take, so the data is valid
            // regardless — recover instead of cascading the panic.
            shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((self.value, self.kind));
            shared.pending.store(true, Ordering::Release);
        }
    }
}

/// Number of lines in the direct-mapped inline field cache. Power of
/// two; small enough to stay resident in the host L1.
const FIELD_CACHE_LINES: usize = 256;

/// One line of the inline field cache: a materialized `(car, cdr)`
/// pair keyed by entry id (`tag` is `id + 1`; 0 marks an empty line).
/// Only entries whose fields are fully materialized and self-contained
/// (no parked owned heap words, which `access` must transfer into the
/// table on touch) are ever cached.
#[derive(Clone, Copy)]
struct CacheLine {
    tag: u32,
    car: Field,
    cdr: Field,
}

impl CacheLine {
    const EMPTY: CacheLine = CacheLine {
        tag: 0,
        car: Field::Empty,
        cdr: Field::Empty,
    };
}

/// Wall-clock-only counters for the LPT inline field cache. These are
/// host telemetry, deliberately **not** part of [`LptStats`]: the
/// cache accelerates the simulator without existing in the modeled
/// machine, so nothing deterministic may depend on it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LptCacheStats {
    /// Probes served from a cache line (full lookup skipped).
    pub hits: u64,
    /// Probes that fell through to the full lookup.
    pub misses: u64,
}

/// The List Processor: the LPT plus the algorithms that manage it,
/// fronting a heap controller and reporting to an event sink.
pub struct ListProcessor<C: HeapController, S: EventSink = NoopSink> {
    /// The backing heap controller (§4.3.3).
    pub controller: C,
    entries: Vec<Entry>,
    free_head: Option<Id>,
    /// Tail of the free list (queue discipline appends here).
    free_tail: Option<Id>,
    live: usize,
    config: LpConfig,
    stats: LptStats,
    sink: S,
    /// EP-side stack reference counts (split mode). Conceptually this
    /// table lives in the EP (§5.2.4); it is held here so the LP API is
    /// self-contained. Keyed by small dense ids and hit on every
    /// binding acquire/release, so it uses the vendored FxHash (a
    /// SipHash map here is measurable on the simulator's wall time).
    ep_counts: fxhash::FxHashMap<Id, u32>,
    /// Recent pseudo-overflow times (in occupancy samples), for the
    /// hybrid compression policy.
    recent_overflows: std::collections::VecDeque<u64>,
    /// Unroot requests from dropped [`Rooted`] handles.
    roots: Arc<RootShared>,
    /// True while operating in §4.3.2.3 heap-direct overflow mode
    /// (only ever set under [`OverflowPolicy::Degrade`]).
    degraded: bool,
    /// Entry whose fields are mid-materialization: compression and
    /// cycle breaking triggered by the nested allocation must not
    /// flush or sweep it while it is in a transitional state.
    pin: Option<Id>,
    /// Direct-mapped inline cache of materialized `(car, cdr)` field
    /// pairs, consulted by `access` before the full table lookup. A
    /// cached hit replays the exact Figure-4.11 hit accounting (stats,
    /// events, reference traffic, occupancy sampling), so every
    /// deterministic counter is byte-identical with the cache disabled
    /// — the cache saves wall time, never virtual cycles. Empty slice
    /// when disabled.
    cache: Box<[CacheLine]>,
    /// Wall-clock-only cache probe counters (see [`LptCacheStats`]).
    cache_stats: LptCacheStats,
}

impl<C: HeapController> ListProcessor<C> {
    /// Create an uninstrumented LP (no-op event sink) with the given
    /// table size and policies.
    pub fn new(controller: C, config: LpConfig) -> Self {
        Self::with_sink(controller, config, NoopSink)
    }
}

impl<C: HeapController, S: EventSink> ListProcessor<C, S> {
    /// Create an LP reporting events to `sink`.
    pub fn with_sink(controller: C, config: LpConfig, sink: S) -> Self {
        let mut lp = ListProcessor {
            controller,
            entries: vec![Entry::default(); config.table_size],
            free_head: None,
            free_tail: None,
            live: 0,
            config,
            stats: LptStats::default(),
            sink,
            ep_counts: fxhash::FxHashMap::default(),
            recent_overflows: std::collections::VecDeque::new(),
            roots: Arc::new(RootShared {
                queue: Mutex::new(Vec::new()),
                pending: AtomicBool::new(false),
            }),
            degraded: false,
            pin: None,
            cache: vec![CacheLine::EMPTY; FIELD_CACHE_LINES].into_boxed_slice(),
            cache_stats: LptCacheStats::default(),
        };
        // Thread the initial free list, low ids first.
        for id in (0..config.table_size as u32).rev() {
            lp.entries[id as usize].free_next = lp.free_head;
            lp.free_head = Some(id);
        }
        lp.free_tail = config.table_size.checked_sub(1).map(|t| t as u32);
        lp
    }

    /// Activity counters.
    pub fn stats(&self) -> LptStats {
        self.stats
    }

    /// The event sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the event sink.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consume the processor, returning its event sink (for collecting
    /// per-run metrics after a simulation).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Consume the processor, returning both the heap controller and
    /// the event sink (chaos tooling reads injected-fault counters off
    /// the controller after a run).
    pub fn into_parts(self) -> (C, S) {
        (self.controller, self.sink)
    }

    /// True while the LP operates in §4.3.2.3 heap-direct overflow
    /// mode.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Retry `f` on transient heap faults, up to
    /// [`TRANSIENT_RETRY_LIMIT`] retries with exponential spin-loop
    /// backoff. Exactly [`HeapError::Transient`] is retried; every
    /// failed attempt is counted and reported as a detected fault, and
    /// a success after failures as a recovery. Safe for any single LP
    /// request: a failed request leaves the table consistent, so the
    /// retry re-issues it verbatim.
    pub fn retrying<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, LpError>,
    ) -> Result<T, LpError> {
        let mut failures = 0u32;
        loop {
            match f(self) {
                Err(LpError::Heap(HeapError::Transient)) => {
                    failures += 1;
                    self.stats.faults_detected += 1;
                    self.sink.record(Event::HeapFaultDetected);
                    if failures > TRANSIENT_RETRY_LIMIT {
                        return Err(LpError::Heap(HeapError::Transient));
                    }
                    // Exponential backoff: the modeled fault classes
                    // (busy bank, bus glitch) clear with time.
                    for _ in 0..(1u32 << failures) {
                        std::hint::spin_loop();
                    }
                }
                r => {
                    if failures > 0 && r.is_ok() {
                        self.stats.faults_recovered += u64::from(failures);
                        for _ in 0..failures {
                            self.sink.record(Event::HeapFaultRecovered);
                        }
                    }
                    return r;
                }
            }
        }
    }

    /// Enter heap-direct overflow mode (§4.3.2.3). Idempotent.
    fn enter_degraded(&mut self) {
        if !self.degraded {
            self.degraded = true;
            self.cache_clear();
            self.stats.overflow_entries += 1;
            self.sink.record(Event::OverflowModeEntered);
        }
    }

    /// Leave overflow mode once occupancy has recovered to half the
    /// table. Checked at every operation boundary.
    fn check_overflow_mode(&mut self) {
        if self.degraded && self.live <= self.config.table_size / 2 {
            self.degraded = false;
            self.cache_clear();
            self.stats.overflow_exits += 1;
            self.sink.record(Event::OverflowModeExited);
        }
    }

    /// Live entry count.
    pub fn occupancy(&self) -> usize {
        self.live
    }

    /// Table capacity.
    pub fn capacity(&self) -> usize {
        self.config.table_size
    }

    /// The configuration in force.
    pub fn config(&self) -> LpConfig {
        self.config
    }

    /// Wall-clock-only inline-cache probe counters. Not part of
    /// [`LptStats`]: nothing deterministic may depend on them.
    pub fn cache_stats(&self) -> LptCacheStats {
        self.cache_stats
    }

    /// Whether the inline field cache is enabled.
    pub fn cache_enabled(&self) -> bool {
        !self.cache.is_empty()
    }

    /// Enable or disable the inline field cache (on by default).
    /// Disabling drops every line; the differential tests run twin
    /// workloads cache-on vs cache-off and require byte-identical
    /// stats, events, and results.
    pub fn set_cache_enabled(&mut self, on: bool) {
        if on == self.cache_enabled() {
            return;
        }
        self.cache = if on {
            vec![CacheLine::EMPTY; FIELD_CACHE_LINES].into_boxed_slice()
        } else {
            Box::new([])
        };
    }

    /// Look up `id` in the inline cache.
    #[inline]
    fn cache_lookup(&self, id: Id) -> Option<(Field, Field)> {
        if self.cache.is_empty() {
            return None;
        }
        let line = &self.cache[id as usize & (self.cache.len() - 1)];
        (line.tag == id + 1).then_some((line.car, line.cdr))
    }

    /// Install `id`'s fields into its cache line, if they are fully
    /// materialized and self-contained. Parked owned heap words are
    /// never cached: `access` must transfer them into table entries
    /// (mutating the field) on touch.
    #[inline]
    fn cache_fill(&mut self, id: Id) {
        if self.cache.is_empty() {
            return;
        }
        let e = &self.entries[id as usize];
        let cacheable = |f: Field| match f {
            Field::Atom(w) => !is_ptr_word(w),
            Field::Obj(_) => true,
            Field::Empty => false,
        };
        if cacheable(e.car) && cacheable(e.cdr) {
            let mask = self.cache.len() - 1;
            self.cache[id as usize & mask] = CacheLine {
                tag: id + 1,
                car: e.car,
                cdr: e.cdr,
            };
        }
    }

    /// Drop `id`'s cache line, if present (field replacement).
    #[inline]
    fn cache_invalidate(&mut self, id: Id) {
        if self.cache.is_empty() {
            return;
        }
        let mask = self.cache.len() - 1;
        let line = &mut self.cache[id as usize & mask];
        if line.tag == id + 1 {
            *line = CacheLine::EMPTY;
        }
    }

    /// Drop every cache line. Called on any transition that can move
    /// or reclaim entries out from under their ids — frees,
    /// compression, cycle breaking, degrade-mode entry/exit,
    /// perturbation, reconciliation.
    #[inline]
    fn cache_clear(&mut self) {
        for line in self.cache.iter_mut() {
            *line = CacheLine::EMPTY;
        }
    }

    /// Debug-only consistency audit: every live entry's reference count
    /// must cover the internal references (fields of live entries plus
    /// pending fields of lazily-freed entries) that point at it.
    #[cfg(feature = "lp-debug")]
    fn audit(&self, whence: &str) {
        let n = self.entries.len();
        let mut indeg = vec![0u32; n];
        for e in &self.entries {
            if e.live || e.lazy {
                for f in [e.car, e.cdr] {
                    if let Field::Obj(c) = f {
                        indeg[c as usize] += 1;
                    }
                }
            }
        }
        for (id, e) in self.entries.iter().enumerate() {
            if e.live {
                assert!(
                    e.rc >= indeg[id] || e.stack_bit,
                    "{whence}: entry {id} rc {} < internal indegree {}",
                    e.rc,
                    indeg[id]
                );
            } else {
                assert!(
                    indeg[id] == 0,
                    "{whence}: dead entry {id} referenced {} times by live/pending fields",
                    indeg[id]
                );
            }
        }
    }

    fn sample_occupancy(&mut self) {
        #[cfg(feature = "lp-debug")]
        self.audit("sample");
        self.stats.max_occupancy = self.stats.max_occupancy.max(self.live);
        self.stats.occupancy_sum += self.live as u64;
        self.stats.occupancy_samples += 1;
        self.sink.record(Event::Occupancy {
            live: self.live as u32,
        });
    }

    // -----------------------------------------------------------------
    // Reference counting
    // -----------------------------------------------------------------

    fn incref(&mut self, id: Id) {
        self.stats.refops += 1;
        self.sink.record(Event::RefOp);
        let e = &mut self.entries[id as usize];
        debug_assert!(e.live, "incref of dead entry {id}");
        e.rc += 1;
        self.stats.max_refcount = self.stats.max_refcount.max(e.rc);
    }

    fn decref(&mut self, id: Id) {
        #[cfg(feature = "lp-debug")]
        self.audit("pre-decref");
        self.stats.refops += 1;
        self.sink.record(Event::RefOp);
        let e = &mut self.entries[id as usize];
        debug_assert!(e.live, "decref of dead entry {id}");
        debug_assert!(e.rc > 0, "decref of zero-count entry {id}");
        e.rc -= 1;
        if e.rc == 0 && !e.stack_bit {
            self.free_entry(id);
        }
    }

    /// Take a register reference: the real EP holds operands in
    /// processor registers, which generate no LPT reference-count
    /// traffic — so this does not count toward [`LptStats::refops`].
    fn register_acquire(&mut self, v: LpValue) {
        if let Some(id) = v.obj() {
            let e = &mut self.entries[id as usize];
            debug_assert!(e.live, "register reference to dead entry {id}");
            e.rc += 1;
        }
    }

    /// Drop a register reference.
    fn register_release(&mut self, v: LpValue) {
        if let Some(id) = v.obj() {
            let e = &mut self.entries[id as usize];
            debug_assert!(e.live && e.rc > 0, "register release of dead entry {id}");
            e.rc -= 1;
            if e.rc == 0 && !e.stack_bit {
                self.free_entry(id);
            }
        }
    }

    /// The EP took a stack/binding reference to a value (push, bind).
    fn binding_acquire(&mut self, v: LpValue) {
        let Some(id) = v.obj() else { return };
        match self.config.refcounts {
            RefcountMode::Unified => self.incref(id),
            RefcountMode::Split => {
                self.stats.ep_refops += 1;
                self.sink.record(Event::EpRefOp);
                let c = self.ep_counts.entry(id).or_insert(0);
                *c += 1;
                self.stats.max_ep_refcount = self.stats.max_ep_refcount.max(*c);
                let e = &mut self.entries[id as usize];
                if !e.stack_bit {
                    // First stack reference: one message to set the bit.
                    e.stack_bit = true;
                    self.stats.refops += 1;
                    self.sink.record(Event::RefOp);
                }
            }
        }
    }

    /// The EP dropped a stack/binding reference (pop, unbind, return).
    fn binding_release(&mut self, v: LpValue) {
        #[cfg(feature = "lp-debug")]
        self.audit("pre-stack-release");
        let Some(id) = v.obj() else { return };
        match self.config.refcounts {
            RefcountMode::Unified => self.decref(id),
            RefcountMode::Split => {
                self.stats.ep_refops += 1;
                self.sink.record(Event::EpRefOp);
                let c = self
                    .ep_counts
                    .get_mut(&id)
                    .unwrap_or_else(|| panic!("stack release of untracked {id}"));
                debug_assert!(*c > 0);
                *c -= 1;
                if *c == 0 {
                    self.ep_counts.remove(&id);
                    // The last stack reference died: one message to the
                    // LP to clear the StackBit (§5.2.4).
                    self.stats.refops += 1;
                    self.sink.record(Event::RefOp);
                    let e = &mut self.entries[id as usize];
                    e.stack_bit = false;
                    if e.rc == 0 {
                        self.free_entry(id);
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // The Rooted protect protocol
    // -----------------------------------------------------------------

    fn make_rooted(&self, v: LpValue, kind: RootKind) -> Rooted {
        Rooted {
            value: v,
            kind,
            shared: Arc::downgrade(&self.roots),
            live: true,
        }
    }

    /// Protect `v` with a *register* reference for the handle's
    /// lifetime. No reference-count bus traffic.
    pub fn root(&mut self, v: LpValue) -> Rooted {
        self.drain_unroots();
        self.register_acquire(v);
        self.make_rooted(v, RootKind::Register)
    }

    /// Take a *stack/binding* reference to `v` for the handle's
    /// lifetime, counted per the configured [`RefcountMode`].
    pub fn root_binding(&mut self, v: LpValue) -> Rooted {
        self.drain_unroots();
        self.binding_acquire(v);
        self.make_rooted(v, RootKind::Binding)
    }

    /// Wrap a stack reference `v` *already carries* (results of
    /// `readlist`/`car`/`cdr`/`cons` arrive retained for the EP) in a
    /// handle, without taking another reference.
    pub fn adopt_binding(&mut self, v: LpValue) -> Rooted {
        self.drain_unroots();
        self.make_rooted(v, RootKind::Binding)
    }

    /// Rebuild a [`Rooted`] handle for a reference that is *already
    /// counted* in restored table state (checkpoint recovery). Unlike
    /// [`Self::root`]/[`Self::root_binding`] no new reference is taken:
    /// an imported [`LpImage`]'s counts and EP-side table include every
    /// reference that was protected by a handle at export time, so
    /// recovery only needs to re-wrap them. Dropping the handle releases
    /// the restored reference as usual.
    pub fn resume_root(&self, v: LpValue, kind: RootKind) -> Rooted {
        self.make_rooted(v, kind)
    }

    /// Perform the releases scheduled by dropped [`Rooted`] handles.
    /// Called automatically at every operation boundary; callers only
    /// need it to force deterministic reclamation points (tests,
    /// shutdown accounting).
    pub fn drain_unroots(&mut self) {
        // Cheap read-only probe first: this runs at every operation
        // boundary and is almost always empty, so skip the atomic RMW
        // (and its bus lock) in the common case. A concurrent drop that
        // lands between load and swap is picked up at the next
        // boundary, exactly as with the bare swap.
        if !self.roots.pending.load(Ordering::Relaxed) {
            return;
        }
        if !self.roots.pending.swap(false, Ordering::Acquire) {
            return;
        }
        // Releases never enqueue new unroots, so one batch suffices. A
        // poisoned lock (panicking worker elsewhere) still holds a valid
        // Vec; adopt it rather than turning one failure into a cascade.
        let batch: Vec<(LpValue, RootKind)> =
            std::mem::take(&mut *self.roots.queue.lock().unwrap_or_else(|e| e.into_inner()));
        for (v, kind) in batch {
            match kind {
                RootKind::Register => self.register_release(v),
                RootKind::Binding => self.binding_release(v),
            }
        }
    }

    /// Release a field's owned heap word, if any. Pointer-tagged atom
    /// *fields* own their heap object (parked compression progress,
    /// split pieces the table had no room to materialize, adopted
    /// overflow-mode copies) — unlike EP-visible pointer atoms, which
    /// alias the never-reclaimed heap-direct world.
    fn free_field_word(&mut self, f: Field) {
        if let Field::Atom(w) = f {
            if is_ptr_word(w) {
                self.controller.free_object(w.addr());
                self.sink.record(Event::HeapFree);
            }
        }
    }

    /// Link a freed entry into the free list per the configured
    /// discipline.
    fn push_free(&mut self, id: Id) {
        match self.config.free_discipline {
            FreeDiscipline::Stack => {
                self.entries[id as usize].free_next = self.free_head;
                self.free_head = Some(id);
                if self.free_tail.is_none() {
                    self.free_tail = Some(id);
                }
            }
            FreeDiscipline::Queue => {
                self.entries[id as usize].free_next = None;
                match self.free_tail {
                    Some(t) => self.entries[t as usize].free_next = Some(id),
                    None => self.free_head = Some(id),
                }
                self.free_tail = Some(id);
            }
        }
    }

    fn free_entry(&mut self, id: Id) {
        #[cfg(feature = "lp-debug")]
        {
            // The entry being freed must not be referenced by any
            // live/pending field (its rc is 0 or being forced to 0).
            let mut refs = 0;
            for (oid, e) in self.entries.iter().enumerate() {
                if (e.live || e.lazy) && oid != id as usize {
                    for f in [e.car, e.cdr] {
                        if f == Field::Obj(id) {
                            refs += 1;
                        }
                    }
                }
            }
            assert!(refs == 0, "freeing entry {id} with {refs} internal refs");
        }
        // Any line may name the freed entry (as the tagged id or as a
        // cached Obj child), and its id is about to be reusable.
        self.cache_clear();
        self.stats.frees += 1;
        self.sink.record(Event::EntryFreed);
        let e = &mut self.entries[id as usize];
        debug_assert!(e.live);
        e.live = false;
        self.live -= 1;
        if let Some(addr) = e.addr.take() {
            // Signal the heap controller to reclaim the object.
            self.controller.free_object(addr);
            self.sink.record(Event::HeapFree);
        }
        match self.config.decrement {
            DecrementPolicy::Lazy => {
                // Children stay in the fields until reallocation.
                let e = &mut self.entries[id as usize];
                e.lazy = e.car != Field::Empty || e.cdr != Field::Empty;
                self.push_free(id);
            }
            DecrementPolicy::Recursive => {
                let e = &mut self.entries[id as usize];
                let (car, cdr) = (e.car, e.cdr);
                e.car = Field::Empty;
                e.cdr = Field::Empty;
                e.lazy = false;
                self.push_free(id);
                for f in [car, cdr] {
                    match f {
                        Field::Obj(c) => self.decref(c),
                        f => self.free_field_word(f),
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Entry allocation, compression, cycle breaking
    // -----------------------------------------------------------------

    fn try_pop_free(&mut self) -> Option<Id> {
        #[cfg(feature = "lp-debug")]
        self.audit("pre-pop");
        let id = self.free_head?;
        let e = &mut self.entries[id as usize];
        self.free_head = e.free_next;
        if self.free_head.is_none() {
            self.free_tail = None;
        }
        e.free_next = None;
        let lazy = std::mem::replace(&mut e.lazy, false);
        let (car, cdr) = (e.car, e.cdr);
        *e = Entry {
            live: true,
            ..Entry::default()
        };
        self.live += 1;
        self.stats.gets += 1;
        self.sink.record(Event::EntryAllocated);
        if lazy {
            // Deferred child decrements happen now (§4.3.2.1).
            let children =
                matches!(car, Field::Obj(_)) as u32 + matches!(cdr, Field::Obj(_)) as u32;
            self.sink.record(Event::LazyDrain { children });
            for f in [car, cdr] {
                match f {
                    Field::Obj(c) => self.decref(c),
                    f => self.free_field_word(f),
                }
            }
        }
        Some(id)
    }

    fn allocate(&mut self) -> Result<Id, LpError> {
        if let Some(id) = self.try_pop_free() {
            self.sample_occupancy();
            return Ok(id);
        }
        // Pseudo overflow: compress.
        self.stats.pseudo_overflows += 1;
        self.recent_overflows
            .push_back(self.stats.occupancy_samples);
        let freed = self.compress();
        self.sink.record(Event::PseudoOverflow {
            reclaimed: freed as u32,
        });
        #[cfg(feature = "lp-debug")]
        self.audit("post-compress");
        if freed > 0 {
            if let Some(id) = self.try_pop_free() {
                self.sample_occupancy();
                return Ok(id);
            }
        }
        // True overflow: break cycles.
        self.stats.cycle_collections += 1;
        let reclaimed = self.break_cycles();
        self.sink.record(Event::CycleCollection {
            reclaimed: reclaimed as u32,
        });
        #[cfg(feature = "lp-debug")]
        self.audit("post-break-cycles");
        self.stats.cycles_reclaimed += reclaimed as u64;
        if let Some(id) = self.try_pop_free() {
            self.sample_occupancy();
            return Ok(id);
        }
        self.sink.record(Event::TrueOverflow);
        Err(LpError::TrueOverflow)
    }

    /// Whether the value in `f` can be flushed to a heap word: an
    /// immediate atom, or an *internal-only* child (exactly one
    /// reference — the parent field — and no stack bit) whose own
    /// sub-structure is flushable or already heap-backed. The rc==1
    /// condition excludes shared structure; reference *cycles* of
    /// rc==1 entries (unreachable circular garbage, §4.3.2.1) are
    /// excluded by the path check — they are reclaimed by
    /// [`ListProcessor::break_cycles`] instead.
    fn flushable(&self, f: Field, path: &mut Vec<Id>) -> bool {
        match f {
            Field::Atom(_) => true,
            Field::Empty => false,
            Field::Obj(c) => {
                if path.contains(&c) {
                    return false; // circular structure: not a tree
                }
                if self.pin == Some(c) {
                    return false; // mid-materialization: fields in flux
                }
                let e = &self.entries[c as usize];
                if !(e.live && e.rc == 1 && !e.stack_bit) {
                    return false;
                }
                if e.addr.is_some() {
                    return true;
                }
                path.push(c);
                let ok = self.flushable(e.car, path) && self.flushable(e.cdr, path);
                path.pop();
                ok
            }
        }
    }

    /// Flush a field to a heap word, freeing the internal entries it
    /// consumed. Precondition: [`ListProcessor::flushable`].
    fn flush_field(&mut self, f: Field) -> Result<Word, LpError> {
        match f {
            Field::Atom(w) => Ok(w),
            Field::Obj(c) => {
                let (addr, car, cdr) = {
                    let e = &self.entries[c as usize];
                    (e.addr, e.car, e.cdr)
                };
                let word = match addr {
                    Some(a) => Word::ptr(a),
                    None => {
                        let cw = self.flush_field(car)?;
                        // Record progress before the next fallible
                        // step: the subtree behind `cw` is already
                        // reclaimed, so a later failure must not leave
                        // the old Obj field naming freed entries.
                        // Parking the owned word keeps the entry
                        // consistent; at worst the object leaks when
                        // the pass is abandoned.
                        self.entries[c as usize].car = Field::Atom(cw);
                        let dw = self.flush_field(cdr)?;
                        self.entries[c as usize].cdr = Field::Atom(dw);
                        let merged = self.controller.merge(cw, dw)?;
                        self.sink.record(Event::HeapMerge);
                        Word::ptr(merged)
                    }
                };
                // The heap object now belongs to the merged parent;
                // clear the entry before freeing so neither the
                // controller nor the lazy-decrement path touches it.
                let e = &mut self.entries[c as usize];
                e.addr = None;
                e.car = Field::Empty;
                e.cdr = Field::Empty;
                e.rc = 0;
                self.free_entry(c);
                self.stats.compressed += 1;
                Ok(word)
            }
            Field::Empty => unreachable!("flush of empty field"),
        }
    }

    /// Compress LPT entries back into heap objects (Figure 4.8): any
    /// entry whose fields form a closed internal-only subtree is merged
    /// into one heap object, and the subtree's entries are reclaimed.
    /// Returns the number of entries reclaimed.
    fn compress(&mut self) -> usize {
        // Compression rewrites fields of live entries (parked words,
        // then fields → address) beyond the frees that already clear
        // the cache; drop everything up front.
        self.cache_clear();
        let mut total = 0usize;
        loop {
            let mut freed_this_pass = 0usize;
            for id in 0..self.entries.len() as Id {
                let e = &self.entries[id as usize];
                if !e.live || e.addr.is_some() || self.pin == Some(id) {
                    continue;
                }
                let (fcar, fcdr) = (e.car, e.cdr);
                // Compression must reclaim table space: at least one
                // field must be a child entry (Figure 4.8 compresses
                // children INTO parents).
                if !matches!(fcar, Field::Obj(_)) && !matches!(fcdr, Field::Obj(_)) {
                    continue;
                }
                let mut path = vec![id];
                if !self.flushable(fcar, &mut path) || !self.flushable(fcdr, &mut path) {
                    continue;
                }
                let frees_before = self.stats.frees;
                let car_w = match self.flush_field(fcar) {
                    Ok(w) => w,
                    Err(e) => return self.abandon_compress(e, total),
                };
                // Park flushed words eagerly (see `flush_field`): a
                // failure on the other field must find this one
                // consistent, not naming already-freed entries.
                self.entries[id as usize].car = Field::Atom(car_w);
                let cdr_w = match self.flush_field(fcdr) {
                    Ok(w) => w,
                    Err(e) => return self.abandon_compress(e, total),
                };
                self.entries[id as usize].cdr = Field::Atom(cdr_w);
                let addr = match self.controller.merge(car_w, cdr_w) {
                    Ok(a) => a,
                    Err(e) => return self.abandon_compress(e.into(), total),
                };
                self.sink.record(Event::HeapMerge);
                let e = &mut self.entries[id as usize];
                e.car = Field::Empty;
                e.cdr = Field::Empty;
                e.addr = Some(addr);
                freed_this_pass += (self.stats.frees - frees_before) as usize;
                if self.stop_after_one() && freed_this_pass > 0 {
                    return total + freed_this_pass;
                }
            }
            total += freed_this_pass;
            if freed_this_pass == 0 {
                return total;
            }
            // Compress-All iterates to a fixpoint: compressing children
            // can make parents compressible.
        }
    }

    /// Abandon a compression pass on a heap error, keeping whatever it
    /// reclaimed so far. A transient fault handled this way counts as
    /// both detected and recovered: the pass carried on consistently
    /// without it (the merge is simply retried at the next overflow).
    fn abandon_compress(&mut self, e: LpError, total: usize) -> usize {
        if matches!(e, LpError::Heap(HeapError::Transient)) {
            self.stats.faults_detected += 1;
            self.stats.faults_recovered += 1;
            self.sink.record(Event::HeapFaultDetected);
            self.sink.record(Event::HeapFaultRecovered);
        }
        total
    }

    /// Whether the current (possibly hybrid) policy stops after freeing
    /// enough for the immediate need.
    fn stop_after_one(&mut self) -> bool {
        match self.config.compression {
            CompressPolicy::CompressOne => true,
            CompressPolicy::CompressAll => false,
            CompressPolicy::Hybrid { threshold, window } => {
                let now = self.stats.occupancy_samples;
                while let Some(&t) = self.recent_overflows.front() {
                    if now.saturating_sub(t) > window {
                        self.recent_overflows.pop_front();
                    } else {
                        break;
                    }
                }
                // Frequent overflows → behave like Compress-All.
                (self.recent_overflows.len() as u32) <= threshold
            }
        }
    }

    /// Break unreachable reference cycles with a mark/sweep over the
    /// table (§4.3.2.3). Returns entries reclaimed.
    fn break_cycles(&mut self) -> usize {
        self.cache_clear();
        let n = self.entries.len();
        // In-degree from table-internal references.
        let mut indegree = vec![0u32; n];
        for e in &self.entries {
            if !e.live {
                continue;
            }
            for f in [e.car, e.cdr] {
                if let Field::Obj(c) = f {
                    indegree[c as usize] += 1;
                }
            }
        }
        // Roots: entries with external references.
        let mut marks = vec![false; n];
        let mut stack: Vec<Id> = Vec::new();
        for (id, e) in self.entries.iter().enumerate() {
            if e.live && (e.stack_bit || e.rc > indegree[id] || self.pin == Some(id as Id)) {
                stack.push(id as Id);
            }
        }
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut marks[id as usize], true) {
                continue;
            }
            let e = &self.entries[id as usize];
            for f in [e.car, e.cdr] {
                if let Field::Obj(c) = f {
                    if !marks[c as usize] {
                        stack.push(c);
                    }
                }
            }
        }
        // Sweep: unmarked live entries are circular garbage.
        let victims: Vec<Id> = (0..n as Id)
            .filter(|&id| self.entries[id as usize].live && !marks[id as usize])
            .collect();
        for &id in &victims {
            // References from garbage into the marked world must be
            // returned; references among garbage just vanish.
            let (car, cdr) = {
                let e = &mut self.entries[id as usize];
                let out = (e.car, e.cdr);
                e.car = Field::Empty;
                e.cdr = Field::Empty;
                e.rc = 0;
                out
            };
            for f in [car, cdr] {
                match f {
                    Field::Obj(c) => {
                        if marks[c as usize] {
                            self.decref(c);
                        }
                    }
                    // A parked owned word on a garbage entry is
                    // unreachable heap structure: reclaim it.
                    f => self.free_field_word(f),
                }
            }
            if self.entries[id as usize].live {
                self.free_entry(id);
            }
        }
        victims.len()
    }

    // -----------------------------------------------------------------
    // The LP request set (§4.3.2.2)
    // -----------------------------------------------------------------

    fn word_to_value(&mut self, w: Word) -> Result<LpValue, LpError> {
        match w.tag() {
            Tag::Nil | Tag::Int | Tag::Sym => Ok(LpValue::Atom(w)),
            Tag::Ptr | Tag::Invisible => {
                let id = self.allocate()?;
                let e = &mut self.entries[id as usize];
                e.addr = Some(w.addr());
                Ok(LpValue::Obj(id))
            }
            t => Err(LpError::UnexpectedTag(t)),
        }
    }

    /// `readlist` (§4.3.2.2.1): read a list in; the returned value
    /// already carries one stack reference for the EP. If the EP passes
    /// the variable's old value, its reference is dropped first.
    pub fn readlist(&mut self, old: Option<LpValue>, expr: &SExpr) -> Result<LpValue, LpError> {
        self.drain_unroots();
        self.check_overflow_mode();
        self.sink.op_begin(PrimKind::ReadList);
        let r = self.readlist_op(old, expr);
        self.sink.op_end(OpClass::ReadList);
        r
    }

    fn readlist_op(&mut self, old: Option<LpValue>, expr: &SExpr) -> Result<LpValue, LpError> {
        if let Some(v) = old {
            self.binding_release(v);
        }
        let w = self.controller.read_in(expr)?;
        self.sink.record(Event::HeapReadIn);
        if self.degraded && is_ptr_word(w) {
            // Overflow mode: the object stays heap-side and the EP
            // names it by address, like a conventional machine.
            self.stats.heap_direct_ops += 1;
            return Ok(LpValue::Atom(w));
        }
        let v = match self.word_to_value(w) {
            Ok(v) => v,
            Err(LpError::TrueOverflow)
                if self.config.overflow == OverflowPolicy::Degrade && is_ptr_word(w) =>
            {
                self.enter_degraded();
                self.stats.heap_direct_ops += 1;
                return Ok(LpValue::Atom(w));
            }
            Err(e) => return Err(e),
        };
        if let LpValue::Obj(id) = v {
            self.entries[id as usize].rc = 1;
            // That reference belongs to the EP.
            self.adopt_as_stack_ref(id);
        }
        Ok(v)
    }

    /// Convert the freshly-created unified reference on `id` into a
    /// stack reference under the current mode.
    fn adopt_as_stack_ref(&mut self, id: Id) {
        if self.config.refcounts == RefcountMode::Split {
            let e = &mut self.entries[id as usize];
            e.rc -= 1;
            e.stack_bit = true;
            self.stats.ep_refops += 1;
            self.sink.record(Event::EpRefOp);
            let c = self.ep_counts.entry(id).or_insert(0);
            *c += 1;
            self.stats.max_ep_refcount = self.stats.max_ep_refcount.max(*c);
        }
    }

    /// Materialize the fields of `id` by splitting its heap object.
    fn ensure_fields(&mut self, id: Id) -> Result<(), LpError> {
        if self.entries[id as usize].car != Field::Empty
            || self.entries[id as usize].cdr != Field::Empty
        {
            return Ok(());
        }
        let addr = self.entries[id as usize]
            .addr
            .expect("live entry with no fields must have an address");
        let split = self.controller.split(addr)?;
        // The split consumed the backing object: from here on the
        // entry must never be left with neither fields nor address.
        // Validate the pieces, then park them as owned words *before*
        // the fallible materializations — a table overflow below then
        // leaves a consistent, later-upgradable entry instead of a
        // corrupt one with orphaned pieces.
        for w in [split.car, split.cdr] {
            match w.tag() {
                Tag::Nil | Tag::Int | Tag::Sym | Tag::Ptr | Tag::Invisible => {}
                t => return Err(LpError::UnexpectedTag(t)),
            }
        }
        {
            let e = &mut self.entries[id as usize];
            e.addr = None;
            e.car = Field::Atom(split.car);
            e.cdr = Field::Atom(split.cdr);
        }
        self.stats.misses += 1;
        self.sink.record(Event::LptMiss);
        self.sink.record(Event::HeapSplit);
        // Pin the entry: materialize can trigger a compression pass
        // (or cycle break) that would otherwise flush the parked
        // fields out from under us, leaving a torn entry.
        self.pin = Some(id);
        for (piece, is_car) in [(split.car, true), (split.cdr, false)] {
            if !is_ptr_word(piece) {
                continue;
            }
            match self.materialize(piece) {
                Ok(f) => {
                    let e = &mut self.entries[id as usize];
                    if is_car {
                        e.car = f;
                    } else {
                        e.cdr = f;
                    }
                }
                // Table full: keep the parked owned word; an access
                // upgrades (or, degraded, copies) it on demand.
                Err(LpError::TrueOverflow) => {}
                Err(e) => {
                    self.pin = None;
                    return Err(e);
                }
            }
        }
        self.pin = None;
        Ok(())
    }

    fn materialize(&mut self, w: Word) -> Result<Field, LpError> {
        match w.tag() {
            Tag::Nil | Tag::Int | Tag::Sym => Ok(Field::Atom(w)),
            Tag::Ptr | Tag::Invisible => {
                let id = self.allocate()?;
                let e = &mut self.entries[id as usize];
                e.addr = Some(w.addr());
                e.rc = 1; // the internal reference from the parent field
                Ok(Field::Obj(id))
            }
            t => Err(LpError::UnexpectedTag(t)),
        }
    }

    /// `car` (§4.3.2.2.2): the returned value carries a fresh stack
    /// reference for the EP (Figure 4.11 increments the ref of Lcar).
    pub fn car(&mut self, id: Id) -> Result<LpValue, LpError> {
        self.drain_unroots();
        self.check_overflow_mode();
        self.timed_access(id, true, PrimKind::Car)
    }

    /// `cdr` (§4.3.2.2.2).
    pub fn cdr(&mut self, id: Id) -> Result<LpValue, LpError> {
        self.drain_unroots();
        self.check_overflow_mode();
        self.timed_access(id, false, PrimKind::Cdr)
    }

    /// `car` of any LP value: table objects dispatch to [`Self::car`];
    /// §4.3.2.3 heap-direct pointer atoms are peeked in place;
    /// immediates are refused as [`LpError::NotAList`].
    pub fn car_of(&mut self, v: LpValue) -> Result<LpValue, LpError> {
        self.value_access(v, true)
    }

    /// `cdr` of any LP value (see [`Self::car_of`]).
    pub fn cdr_of(&mut self, v: LpValue) -> Result<LpValue, LpError> {
        self.value_access(v, false)
    }

    fn value_access(&mut self, v: LpValue, want_car: bool) -> Result<LpValue, LpError> {
        match v {
            LpValue::Obj(id) => {
                if want_car {
                    self.car(id)
                } else {
                    self.cdr(id)
                }
            }
            LpValue::Atom(w) if is_ptr_word(w) => {
                self.drain_unroots();
                self.check_overflow_mode();
                let prim = if want_car {
                    PrimKind::Car
                } else {
                    PrimKind::Cdr
                };
                self.sink.op_begin(prim);
                let r = self.heap_direct_access(w, want_car);
                // Heap-direct accesses always touch the heap.
                self.sink.op_end(OpClass::AccessMiss);
                r
            }
            LpValue::Atom(_) => Err(LpError::NotAList),
        }
    }

    /// Overflow-mode access: read one piece of a heap-direct object
    /// with a non-consuming peek. Pieces stay words — pointer pieces
    /// alias the leaked heap-direct world and are never given table
    /// entries (the table does not own that structure).
    fn heap_direct_access(&mut self, w: Word, want_car: bool) -> Result<LpValue, LpError> {
        let split = self.controller.peek(w.addr())?;
        self.stats.heap_direct_ops += 1;
        let piece = if want_car { split.car } else { split.cdr };
        match piece.tag() {
            Tag::Nil | Tag::Int | Tag::Sym | Tag::Ptr | Tag::Invisible => Ok(LpValue::Atom(piece)),
            t => Err(LpError::UnexpectedTag(t)),
        }
    }

    /// Bracket one field access with op boundary marks. Whether it is a
    /// Figure-4.11 hit or a splitting miss is only known once the field
    /// has been examined, so the class is resolved at `op_end` from the
    /// miss-counter delta.
    fn timed_access(&mut self, id: Id, want_car: bool, prim: PrimKind) -> Result<LpValue, LpError> {
        self.sink.op_begin(prim);
        let misses_before = self.stats.misses;
        let r = self.access(id, want_car);
        let class = if self.stats.misses > misses_before {
            OpClass::AccessMiss
        } else {
            OpClass::AccessHit
        };
        self.sink.op_end(class);
        r
    }

    fn access(&mut self, id: Id, want_car: bool) -> Result<LpValue, LpError> {
        if let Some((car, cdr)) = self.cache_lookup(id) {
            // Inline-cache fast path: a line is only ever installed for
            // a live entry with both fields materialized and no parked
            // owned words, so this replays the exact Figure-4.11 hit
            // accounting the slow path below would perform — same
            // stats, same events, same reference traffic — and saves
            // only host wall time.
            debug_assert!(self.entries[id as usize].live, "access of dead entry {id}");
            self.cache_stats.hits += 1;
            self.sink.cache_probe(true);
            self.stats.hits += 1;
            self.sink.record(Event::LptHit);
            let v = match if want_car { car } else { cdr } {
                Field::Atom(w) => LpValue::Atom(w),
                Field::Obj(c) => LpValue::Obj(c),
                Field::Empty => unreachable!("cache lines hold materialized fields"),
            };
            if let LpValue::Obj(c) = v {
                self.binding_acquire(LpValue::Obj(c));
            }
            self.sample_occupancy();
            return Ok(v);
        }
        if self.cache_enabled() {
            self.cache_stats.misses += 1;
            self.sink.cache_probe(false);
        }
        let e = &self.entries[id as usize];
        debug_assert!(e.live, "access of dead entry {id}");
        let field = if want_car { e.car } else { e.cdr };
        if field == Field::Empty {
            self.ensure_fields(id)?;
        } else {
            self.stats.hits += 1;
            self.sink.record(Event::LptHit);
        }
        let e = &self.entries[id as usize];
        let v = match if want_car { e.car } else { e.cdr } {
            Field::Atom(w) if is_ptr_word(w) => {
                // An owned word parked in the field (partial
                // compression progress or an earlier overflow).
                // Transfer it to a table entry so normal refcounting
                // applies; with the table still full under the degrade
                // policy, hand the EP a leaked private copy instead —
                // the field keeps its owned original.
                self.pin = Some(id);
                let m = self.materialize(w);
                self.pin = None;
                match m {
                    Ok(f) => {
                        let e = &mut self.entries[id as usize];
                        if want_car {
                            e.car = f;
                        } else {
                            e.cdr = f;
                        }
                        match f {
                            Field::Obj(c) => LpValue::Obj(c),
                            _ => unreachable!("ptr words materialize to objects"),
                        }
                    }
                    Err(LpError::TrueOverflow)
                        if self.config.overflow == OverflowPolicy::Degrade =>
                    {
                        self.enter_degraded();
                        let expr = self.controller.extract(w);
                        let copy = self.controller.read_in(&expr)?;
                        self.sink.record(Event::HeapReadIn);
                        self.stats.heap_direct_ops += 1;
                        LpValue::Atom(copy)
                    }
                    Err(e) => return Err(e),
                }
            }
            Field::Atom(w) => LpValue::Atom(w),
            Field::Obj(c) => LpValue::Obj(c),
            Field::Empty => unreachable!("ensure_fields materializes both"),
        };
        if let LpValue::Obj(c) = v {
            self.binding_acquire(LpValue::Obj(c));
        }
        self.cache_fill(id);
        self.sample_occupancy();
        Ok(v)
    }

    /// `cons` (§4.3.2.2.4): pure LPT activity, no heap traffic. The
    /// result carries one stack reference.
    pub fn cons(&mut self, car: LpValue, cdr: LpValue) -> Result<LpValue, LpError> {
        self.drain_unroots();
        self.check_overflow_mode();
        self.sink.op_begin(PrimKind::Cons);
        let r = self.cons_op(car, cdr);
        self.sink.op_end(OpClass::Cons);
        r
    }

    fn cons_op(&mut self, car: LpValue, cdr: LpValue) -> Result<LpValue, LpError> {
        if self.degraded {
            return self.cons_direct(car, cdr);
        }
        let car = self.adopt_operand(car)?;
        let cdr = self.adopt_operand(cdr)?;
        let id = match self.allocate() {
            Ok(id) => id,
            Err(LpError::TrueOverflow) if self.config.overflow == OverflowPolicy::Degrade => {
                self.enter_degraded();
                return self.cons_direct(car, cdr);
            }
            Err(e) => return Err(e),
        };
        // Children gain an internal reference each.
        if let LpValue::Obj(c) = car {
            self.incref(c);
        }
        if let LpValue::Obj(c) = cdr {
            self.incref(c);
        }
        let e = &mut self.entries[id as usize];
        e.car = match car {
            LpValue::Atom(w) => Field::Atom(w),
            LpValue::Obj(c) => Field::Obj(c),
        };
        e.cdr = match cdr {
            LpValue::Atom(w) => Field::Atom(w),
            LpValue::Obj(c) => Field::Obj(c),
        };
        e.rc = 1;
        self.adopt_as_stack_ref(id);
        self.sample_occupancy();
        #[cfg(feature = "lp-debug")]
        self.audit("post-cons");
        Ok(LpValue::Obj(id))
    }

    /// Copy an overflow-mode heap-direct operand into a privately
    /// owned heap object before it is stored into a table field.
    /// EP-visible pointer atoms alias the leaked heap-direct world,
    /// which is never reclaimed; table fields *own* their words and
    /// free them with the entry, so sharing a word across the two
    /// regimes would reclaim cells other overflow-mode values still
    /// reference.
    fn adopt_operand(&mut self, v: LpValue) -> Result<LpValue, LpError> {
        match v {
            LpValue::Atom(w) if is_ptr_word(w) => {
                let expr = self.controller.extract(w);
                let copy = self.controller.read_in(&expr)?;
                self.sink.record(Event::HeapReadIn);
                self.stats.heap_direct_ops += 1;
                Ok(LpValue::Atom(copy))
            }
            v => Ok(v),
        }
    }

    /// §4.3.2.3 overflow-mode cons: build the cell heap-side like a
    /// conventional machine. Table objects are passed by value (a deep
    /// copy — aliasing with the table original is lost for structure
    /// built while degraded); atoms and heap-direct pointers pass
    /// straight through.
    fn cons_direct(&mut self, car: LpValue, cdr: LpValue) -> Result<LpValue, LpError> {
        let cw = self.direct_word(car)?;
        let dw = self.direct_word(cdr)?;
        let addr = self.controller.merge(cw, dw)?;
        self.sink.record(Event::HeapMerge);
        self.stats.heap_direct_ops += 1;
        self.sample_occupancy();
        Ok(LpValue::Atom(Word::ptr(addr)))
    }

    fn direct_word(&mut self, v: LpValue) -> Result<Word, LpError> {
        match v {
            LpValue::Atom(w) => Ok(w),
            LpValue::Obj(id) => {
                // Snapshot the table object into the heap-direct
                // world; the entry keeps its structure and refcounts.
                let expr = self.writelist_inner(LpValue::Obj(id), &mut Vec::new())?;
                let w = self.controller.read_in(&expr)?;
                self.sink.record(Event::HeapReadIn);
                self.stats.heap_direct_ops += 1;
                Ok(w)
            }
        }
    }

    /// `rplaca` (§4.3.2.2.3).
    pub fn rplaca(&mut self, id: Id, v: LpValue) -> Result<(), LpError> {
        self.drain_unroots();
        self.check_overflow_mode();
        self.timed_replace(id, v, true, PrimKind::Rplaca)
    }

    /// `rplacd` (§4.3.2.2.3).
    pub fn rplacd(&mut self, id: Id, v: LpValue) -> Result<(), LpError> {
        self.drain_unroots();
        self.check_overflow_mode();
        self.timed_replace(id, v, false, PrimKind::Rplacd)
    }

    /// `rplaca` of any LP value. Destructive update of a §4.3.2.3
    /// heap-direct value is refused with a typed [`LpError::Degraded`]
    /// — overflow-mode structure is immutable by construction (the
    /// leaked world may be aliased arbitrarily).
    pub fn rplaca_of(&mut self, target: LpValue, v: LpValue) -> Result<(), LpError> {
        self.value_replace(target, v, true)
    }

    /// `rplacd` of any LP value (see [`Self::rplaca_of`]).
    pub fn rplacd_of(&mut self, target: LpValue, v: LpValue) -> Result<(), LpError> {
        self.value_replace(target, v, false)
    }

    fn value_replace(&mut self, target: LpValue, v: LpValue, is_car: bool) -> Result<(), LpError> {
        match target {
            LpValue::Obj(id) => {
                if is_car {
                    self.rplaca(id, v)
                } else {
                    self.rplacd(id, v)
                }
            }
            LpValue::Atom(w) if is_ptr_word(w) => Err(LpError::Degraded(if is_car {
                "rplaca of a heap-direct value"
            } else {
                "rplacd of a heap-direct value"
            })),
            LpValue::Atom(_) => Err(LpError::NotAList),
        }
    }

    /// Bracket one field replacement. Always classed as a Figure-4.12
    /// modify, even when `ensure_fields` had to split first: the thesis
    /// diagrams treat rplac* on an unmaterialized entry as out of scope,
    /// and folding the split into Modify keeps attribution deterministic.
    fn timed_replace(
        &mut self,
        id: Id,
        v: LpValue,
        is_car: bool,
        prim: PrimKind,
    ) -> Result<(), LpError> {
        self.sink.op_begin(prim);
        let r = self.replace(id, v, is_car);
        self.sink.op_end(OpClass::Modify);
        r
    }

    fn replace(&mut self, id: Id, v: LpValue, is_car: bool) -> Result<(), LpError> {
        self.cache_invalidate(id);
        self.ensure_fields(id)?;
        let v = self.adopt_operand(v)?;
        if let LpValue::Obj(c) = v {
            self.incref(c);
        }
        let new_field = match v {
            LpValue::Atom(w) => Field::Atom(w),
            LpValue::Obj(c) => Field::Obj(c),
        };
        let old = {
            let e = &mut self.entries[id as usize];
            if is_car {
                std::mem::replace(&mut e.car, new_field)
            } else {
                std::mem::replace(&mut e.cdr, new_field)
            }
        };
        match old {
            Field::Obj(c) => self.decref(c),
            // The field owned its parked heap word; it is unreachable
            // once replaced.
            old => self.free_field_word(old),
        }
        self.sample_occupancy();
        Ok(())
    }

    /// `copy` (§4.3.1): a top-cell copy for call-by-value parameters.
    pub fn copy(&mut self, id: Id) -> Result<LpValue, LpError> {
        self.drain_unroots();
        self.ensure_fields(id)?;
        let (car, cdr) = {
            let e = &self.entries[id as usize];
            (e.car, e.cdr)
        };
        let to_value = |f: Field| match f {
            Field::Atom(w) => LpValue::Atom(w),
            Field::Obj(c) => LpValue::Obj(c),
            Field::Empty => unreachable!(),
        };
        self.cons(to_value(car), to_value(cdr))
    }

    /// `writelist`: reconstruct the s-expression for a value. A cycle
    /// built by `rplaca`/`rplacd` is refused with a typed
    /// [`LpError::Cyclic`] rather than recursing without bound.
    pub fn writelist(&mut self, v: LpValue) -> Result<SExpr, LpError> {
        self.drain_unroots();
        let mut path = Vec::new();
        self.writelist_inner(v, &mut path)
    }

    fn writelist_inner(&mut self, v: LpValue, path: &mut Vec<Id>) -> Result<SExpr, LpError> {
        match v {
            LpValue::Atom(w) => Ok(self.controller.extract(w)),
            LpValue::Obj(id) => {
                // Path-based detection: a shared (DAG) child may appear
                // many times, but the same id on the *current* path is
                // a cycle and has no finite printed form.
                if path.contains(&id) {
                    return Err(LpError::Cyclic);
                }
                let e = &self.entries[id as usize];
                debug_assert!(e.live);
                if let Some(addr) = e.addr {
                    return Ok(self.controller.extract(Word::ptr(addr)));
                }
                let (car, cdr) = (e.car, e.cdr);
                let to_value = |f: Field| match f {
                    Field::Atom(w) => LpValue::Atom(w),
                    Field::Obj(c) => LpValue::Obj(c),
                    Field::Empty => unreachable!("live entry without addr has fields"),
                };
                path.push(id);
                let car_e = self.writelist_inner(to_value(car), path)?;
                let cdr_e = self.writelist_inner(to_value(cdr), path)?;
                path.pop();
                Ok(SExpr::cons(car_e, cdr_e))
            }
        }
    }

    /// Structural equality of two LP values (used by the VM's `equal`).
    pub fn equal(&mut self, a: LpValue, b: LpValue) -> Result<bool, LpError> {
        Ok(self.writelist(a)? == self.writelist(b)?)
    }

    /// Count of entries the EP currently holds stack references to
    /// (split mode bookkeeping; for tests).
    pub fn ep_tracked(&self) -> usize {
        self.ep_counts.len()
    }

    /// Introspect an entry's materialized fields without touching stats
    /// or reference counts. Simulator-only: the trace-driven simulator
    /// uses this to learn both split pieces when synthesizing heap
    /// addresses for the cache comparison (§5.2.5).
    pub fn peek_fields(&self, id: Id) -> (Option<LpValue>, Option<LpValue>) {
        let e = &self.entries[id as usize];
        let conv = |f: Field| match f {
            Field::Empty => None,
            Field::Atom(w) => Some(LpValue::Atom(w)),
            Field::Obj(c) => Some(LpValue::Obj(c)),
        };
        (conv(e.car), conv(e.cdr))
    }

    /// Perform every *pending* lazy child decrement without waiting for
    /// reallocation, to a fixpoint. The hardware never does this — the
    /// deferred work is the price of O(1) frees (§4.3.2.1) — but tests
    /// and shutdown accounting use it to verify that everything
    /// unreachable is eventually detected. Scheduled unroots from
    /// dropped [`Rooted`] handles are drained first.
    pub fn drain_lazy(&mut self) {
        self.drain_unroots();
        loop {
            let mut did = false;
            for id in 0..self.entries.len() {
                let e = &mut self.entries[id];
                if e.live || !e.lazy {
                    continue;
                }
                e.lazy = false;
                let (car, cdr) = (e.car, e.cdr);
                e.car = Field::Empty;
                e.cdr = Field::Empty;
                let children =
                    matches!(car, Field::Obj(_)) as u32 + matches!(cdr, Field::Obj(_)) as u32;
                if children > 0 {
                    self.sink.record(Event::LazyDrain { children });
                }
                for f in [car, cdr] {
                    match f {
                        Field::Obj(c) => {
                            self.decref(c);
                            did = true;
                        }
                        f => self.free_field_word(f),
                    }
                }
            }
            if !did {
                return;
            }
        }
    }

    // -----------------------------------------------------------------
    // Invariant auditing, perturbation, and reconciliation
    // -----------------------------------------------------------------

    /// Walk the whole table and verify its structural invariants:
    /// reference counts against internal in-degree, the
    /// fields-XOR-address rule, dangling and out-of-range fields,
    /// free-stack integrity (LIFO threading, no cycles, no live entry
    /// on the list, no stranded dead entry), and split-refcount
    /// conservation (§5.2.4). Read-only; returns a structured report.
    ///
    /// Legal states are not flagged: uncollected reference cycles
    /// satisfy `rc >= indegree`, and over-counted entries merely leak
    /// (external register references are invisible to the walk).
    pub fn audit(&self) -> AuditReport {
        let n = self.entries.len();
        let mut report = AuditReport::default();
        // Internal in-degree: fields of live entries plus pending
        // fields of lazily-freed entries.
        let mut indeg = vec![0u32; n];
        for e in &self.entries {
            if e.live || e.lazy {
                for f in [e.car, e.cdr] {
                    if let Field::Obj(c) = f {
                        if (c as usize) < n {
                            indeg[c as usize] += 1;
                        }
                    }
                }
            }
        }
        for (i, e) in self.entries.iter().enumerate() {
            let id = i as Id;
            if e.live {
                report.live_entries += 1;
                let has_car = e.car != Field::Empty;
                let has_cdr = e.cdr != Field::Empty;
                let consistent = match (has_car, has_cdr) {
                    (true, true) => e.addr.is_none(),
                    (false, false) => e.addr.is_some(),
                    _ => false,
                };
                if !consistent {
                    report.violations.push(Violation::FieldsAddrMismatch { id });
                }
                if e.rc < indeg[i] && !e.stack_bit {
                    report.violations.push(Violation::RefcountLow {
                        id,
                        rc: e.rc,
                        indegree: indeg[i],
                    });
                }
                if e.rc == 0 && !e.stack_bit {
                    report.violations.push(Violation::UndetectedGarbage { id });
                }
            }
            if e.live || e.lazy {
                for f in [e.car, e.cdr] {
                    if let Field::Obj(c) = f {
                        if c as usize >= n {
                            report
                                .violations
                                .push(Violation::FieldOutOfRange { id, child: c });
                        } else if !self.entries[c as usize].live {
                            report
                                .violations
                                .push(Violation::DanglingField { id, child: c });
                        }
                    }
                }
            }
        }
        // Split-refcount conservation (§5.2.4): the stack bit and the
        // EP-side count table must agree exactly; the unified mode has
        // neither.
        match self.config.refcounts {
            RefcountMode::Unified => {
                for (i, e) in self.entries.iter().enumerate() {
                    if e.stack_bit {
                        report
                            .violations
                            .push(Violation::StackBitMismatch { id: i as Id });
                    }
                }
                let mut stray: Vec<Id> = self.ep_counts.keys().copied().collect();
                stray.sort_unstable();
                for id in stray {
                    report.violations.push(Violation::StackBitMismatch { id });
                }
            }
            RefcountMode::Split => {
                for (i, e) in self.entries.iter().enumerate() {
                    let counted = self.ep_counts.get(&(i as Id)).copied().unwrap_or(0) > 0;
                    let mismatch = if e.live {
                        e.stack_bit != counted
                    } else {
                        e.stack_bit || counted
                    };
                    if mismatch {
                        report
                            .violations
                            .push(Violation::StackBitMismatch { id: i as Id });
                    }
                }
            }
        }
        // Free-list integrity: walk from the head with a seen-bitmap.
        let mut seen = vec![false; n];
        let mut cursor = self.free_head;
        let mut last = None;
        let mut cycled = false;
        while let Some(id) = cursor {
            if seen[id as usize] {
                report.violations.push(Violation::FreeListCycle { id });
                cycled = true;
                break;
            }
            seen[id as usize] = true;
            report.free_entries += 1;
            if self.entries[id as usize].live {
                report.violations.push(Violation::LiveOnFreeList { id });
            }
            last = Some(id);
            cursor = self.entries[id as usize].free_next;
        }
        if !cycled && last != self.free_tail {
            report.violations.push(Violation::FreeTailMismatch);
        }
        for (i, e) in self.entries.iter().enumerate() {
            if !e.live && !seen[i] {
                report
                    .violations
                    .push(Violation::DeadNotOnFreeList { id: i as Id });
            }
        }
        report
    }

    /// Deliberately corrupt the table (chaos/test tooling only): apply
    /// one [`Perturbation`] with no bookkeeping, modeling a bit flip
    /// the [`Self::audit`] walk must catch and [`Self::reconcile`]
    /// must repair.
    pub fn perturb(&mut self, p: Perturbation) {
        self.cache_clear();
        match p {
            Perturbation::SetRefcount { id, rc } => {
                self.entries[id as usize].rc = rc;
            }
            Perturbation::CorruptField { id, car, child } => {
                let e = &mut self.entries[id as usize];
                if car {
                    e.car = Field::Obj(child);
                } else {
                    e.cdr = Field::Obj(child);
                }
            }
            Perturbation::ClearStackBit { id } => {
                self.entries[id as usize].stack_bit = false;
            }
            Perturbation::BreakFreeList => {
                self.free_head = None;
                self.free_tail = None;
            }
            Perturbation::ResurrectEntry { id } => {
                let e = &mut self.entries[id as usize];
                if !e.live {
                    e.live = true;
                    e.lazy = false;
                    self.live += 1;
                }
            }
        }
    }

    /// Walk the free list and decide whether its threading is
    /// structurally sound: every link targets an in-range dead entry,
    /// no entry repeats, the walk covers *every* dead entry, and the
    /// final node is the recorded tail. Used by [`Self::reconcile`] to
    /// leave a healthy list (whose order encodes workload history)
    /// untouched instead of unconditionally rebuilding it.
    fn free_list_is_valid(&self) -> bool {
        let n = self.entries.len();
        let dead_total = self.entries.iter().filter(|e| !e.live).count();
        let mut seen = vec![false; n];
        let mut visited = 0usize;
        let mut last: Option<Id> = None;
        let mut cursor = self.free_head;
        while let Some(id) = cursor {
            let i = id as usize;
            if i >= n || seen[i] || self.entries[i].live {
                return false;
            }
            seen[i] = true;
            visited += 1;
            last = Some(id);
            cursor = self.entries[i].free_next;
        }
        visited == dead_total && last == self.free_tail
    }

    /// Audit-driven repair: rebuild the table's bookkeeping from
    /// trusted external roots, reusing the true-overflow mark
    /// machinery. `roots` must list every EP-held reference that is
    /// counted in entry refcounts — register references in both modes,
    /// plus stack/binding references under [`RefcountMode::Unified`]
    /// (one element per reference). Split-mode stack references are
    /// recovered from the EP-side count table automatically.
    ///
    /// The pass clears corrupt fields, sweeps unreachable live
    /// entries, recomputes every reference count from internal
    /// in-degree plus root multiplicity, realigns stack bits with the
    /// EP-side table, and — only if its threading is invalid — rebuilds
    /// the free list deterministically (dead identifiers ascending,
    /// threaded low-first). Reachable structure is never dropped;
    /// ambiguous heap addresses are leaked rather than freed.
    ///
    /// The pass is **idempotent**: on an already-consistent table it
    /// repairs nothing ([`ReconcileStats::is_clean`]) and leaves every
    /// entry — including free-list threading and pending lazy
    /// obligations — byte-for-byte unchanged, so recovery gates can run
    /// it unconditionally.
    pub fn reconcile(&mut self, roots: &[LpValue]) -> ReconcileStats {
        self.cache_clear();
        let mut stats = ReconcileStats::default();
        let n = self.entries.len();
        let nil = Field::Atom(Word::NIL);
        // 1. Field hygiene: clear fields naming dead or out-of-range
        //    entries; resolve fields/address inconsistencies.
        for i in 0..n {
            if !(self.entries[i].live || self.entries[i].lazy) {
                continue;
            }
            for is_car in [true, false] {
                let e = &self.entries[i];
                let f = if is_car { e.car } else { e.cdr };
                if let Field::Obj(c) = f {
                    if c as usize >= n || !self.entries[c as usize].live {
                        let e = &mut self.entries[i];
                        if is_car {
                            e.car = nil;
                        } else {
                            e.cdr = nil;
                        }
                        stats.fields_cleared += 1;
                    }
                }
            }
            if self.entries[i].live {
                let e = &mut self.entries[i];
                let has_fields = e.car != Field::Empty || e.cdr != Field::Empty;
                if has_fields && e.addr.is_some() {
                    // Trust the materialized fields; the stale address
                    // may alias live structure, so it leaks.
                    e.addr = None;
                    stats.fields_cleared += 1;
                }
                if has_fields {
                    if e.car == Field::Empty {
                        e.car = nil;
                        stats.fields_cleared += 1;
                    }
                    if e.cdr == Field::Empty {
                        e.cdr = nil;
                        stats.fields_cleared += 1;
                    }
                } else if e.addr.is_none() {
                    // No recoverable structure: default to (nil . nil)
                    // so the entry stays accessible.
                    e.car = nil;
                    e.cdr = nil;
                    stats.fields_cleared += 1;
                }
            }
        }
        // 2. Mark from the trusted roots (the same machinery as
        //    true-overflow cycle breaking, with externally supplied
        //    roots instead of count-derived ones).
        let mut marked = vec![false; n];
        let mut stack: Vec<Id> = Vec::new();
        let mut root_mult = vec![0u32; n];
        for v in roots {
            if let LpValue::Obj(id) = v {
                if (*id as usize) < n && self.entries[*id as usize].live {
                    root_mult[*id as usize] += 1;
                    stack.push(*id);
                }
            }
        }
        for (&id, &c) in &self.ep_counts {
            if (id as usize) < n && c > 0 && self.entries[id as usize].live {
                stack.push(id);
            }
        }
        // Pending lazy decrements are references too: a dead entry's
        // not-yet-drained fields still hold counted references to their
        // targets (step 5 counts them in the in-degree), so they must
        // also anchor the mark — otherwise an entry kept alive only by
        // a pending decrement is swept from a perfectly clean table.
        for i in 0..n {
            if !self.entries[i].lazy {
                continue;
            }
            let e = &self.entries[i];
            for f in [e.car, e.cdr] {
                if let Field::Obj(c) = f {
                    if (c as usize) < n && self.entries[c as usize].live {
                        stack.push(c);
                    }
                }
            }
        }
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut marked[id as usize], true) {
                continue;
            }
            let e = &self.entries[id as usize];
            for f in [e.car, e.cdr] {
                if let Field::Obj(c) = f {
                    if !marked[c as usize] {
                        stack.push(c);
                    }
                }
            }
        }
        // 3. Sweep unreachable live entries back to dead.
        for (i, &m) in marked.iter().enumerate() {
            if !self.entries[i].live || m {
                continue;
            }
            let (car, cdr, addr) = {
                let e = &mut self.entries[i];
                e.live = false;
                e.lazy = false;
                e.rc = 0;
                e.stack_bit = false;
                (
                    std::mem::take(&mut e.car),
                    std::mem::take(&mut e.cdr),
                    e.addr.take(),
                )
            };
            if let Some(a) = addr {
                self.controller.free_object(a);
                self.sink.record(Event::HeapFree);
            }
            for f in [car, cdr] {
                self.free_field_word(f);
            }
            stats.entries_swept += 1;
        }
        // 4. Pending lazy fields whose target was just swept: drop the
        //    deferred decrement (the target is already gone).
        for i in 0..n {
            if !self.entries[i].lazy {
                continue;
            }
            for is_car in [true, false] {
                let e = &self.entries[i];
                let f = if is_car { e.car } else { e.cdr };
                if let Field::Obj(c) = f {
                    if !self.entries[c as usize].live {
                        let e = &mut self.entries[i];
                        if is_car {
                            e.car = nil;
                        } else {
                            e.cdr = nil;
                        }
                        stats.fields_cleared += 1;
                    }
                }
            }
        }
        // 5. Recompute reference counts: internal in-degree over live
        //    and pending fields, plus declared root multiplicity.
        let mut indeg = vec![0u32; n];
        for e in &self.entries {
            if e.live || e.lazy {
                for f in [e.car, e.cdr] {
                    if let Field::Obj(c) = f {
                        indeg[c as usize] += 1;
                    }
                }
            }
        }
        for i in 0..n {
            let want = indeg[i] + root_mult[i];
            let e = &mut self.entries[i];
            if e.live && e.rc != want {
                e.rc = want;
                stats.refcounts_fixed += 1;
            }
        }
        // 6. Stack bits follow the EP-side table (split mode); the
        //    unified mode has none. EP counts on dead entries are
        //    corrupt leftovers and are dropped.
        let dead_counts: Vec<Id> = self
            .ep_counts
            .keys()
            .copied()
            .filter(|&id| id as usize >= n || !self.entries[id as usize].live)
            .collect();
        for id in dead_counts {
            self.ep_counts.remove(&id);
            stats.stack_bits_fixed += 1;
        }
        for i in 0..n {
            let should = self.config.refcounts == RefcountMode::Split
                && self.entries[i].live
                && self.ep_counts.get(&(i as Id)).copied().unwrap_or(0) > 0;
            let e = &mut self.entries[i];
            if e.stack_bit != should {
                e.stack_bit = should;
                stats.stack_bits_fixed += 1;
            }
        }
        // 7. Free list: keep the existing threading when it is
        //    structurally sound (so a clean table — whose list order
        //    reflects workload history — passes through untouched, and
        //    a second invocation is a no-op); rebuild deterministically
        //    (dead identifiers ascending, threaded low-first) only when
        //    the walk finds corruption.
        if !self.free_list_is_valid() {
            self.free_head = None;
            self.free_tail = None;
            for i in (0..n).rev() {
                if self.entries[i].live {
                    self.entries[i].free_next = None;
                } else {
                    self.entries[i].free_next = self.free_head;
                    self.free_head = Some(i as Id);
                    if self.free_tail.is_none() {
                        self.free_tail = Some(i as Id);
                    }
                }
            }
            stats.free_lists_rebuilt += 1;
        }
        // 8. Recount occupancy.
        self.live = self.entries.iter().filter(|e| e.live).count();
        stats
    }

    // -----------------------------------------------------------------
    // Checkpoint export / import
    // -----------------------------------------------------------------

    /// Capture the complete table state as a deterministic [`LpImage`].
    ///
    /// Must be called at an operation boundary (no multi-step primitive
    /// in flight, [`Self::drain_unroots`] already run); equal states
    /// always export equal images. The heap controller is exported
    /// separately via [`small_heap::PersistableController`].
    pub fn export_image(&self) -> LpImage {
        debug_assert!(self.pin.is_none(), "export only at operation boundaries");
        let entries = self
            .entries
            .iter()
            .map(|e| EntryImage {
                car: field_to_image(e.car),
                cdr: field_to_image(e.cdr),
                rc: e.rc,
                addr: e.addr.map(|a| a.0),
                stack_bit: e.stack_bit,
                live: e.live,
                free_next: e.free_next,
                lazy: e.lazy,
            })
            .collect();
        let mut ep_counts: Vec<(Id, u32)> =
            self.ep_counts.iter().map(|(&id, &c)| (id, c)).collect();
        ep_counts.sort_unstable_by_key(|&(id, _)| id);
        LpImage {
            table_size: self.config.table_size,
            entries,
            free_head: self.free_head,
            free_tail: self.free_tail,
            live: self.live,
            degraded: self.degraded,
            ep_counts,
            recent_overflows: self.recent_overflows.iter().copied().collect(),
            stats: self.stats,
        }
    }

    /// Rebuild a processor from an [`LpImage`] captured by
    /// [`Self::export_image`], attaching `controller` (restored via
    /// [`small_heap::PersistableController`]) and `sink`.
    ///
    /// Validates structural invariants that do not require trusting the
    /// image — table size against `config`, identifier ranges, the live
    /// count, and that every heap address an entry holds (its backing
    /// address, or a pointer word in an atom field) names an object
    /// `controller` holds — and fails closed with
    /// [`ImageError::Malformed`](small_heap::ImageError) on any
    /// mismatch. Outstanding handles are *not* recreated; callers
    /// re-wrap recovered references via [`Self::resume_root`]. Recovery
    /// gates should follow up with [`Self::audit`] /
    /// [`Self::reconcile`].
    pub fn from_image(
        controller: C,
        config: LpConfig,
        image: &LpImage,
        sink: S,
    ) -> Result<Self, small_heap::ImageError> {
        use small_heap::ImageError;
        let n = image.table_size;
        if n != config.table_size || image.entries.len() != n {
            return Err(ImageError::Malformed);
        }
        let in_range = |id: Id| (id as usize) < n;
        let link_ok = |o: Option<Id>| o.is_none_or(in_range);
        let field_ok = |f: FieldImage| match f {
            FieldImage::Empty => true,
            FieldImage::Obj(c) => in_range(c),
            FieldImage::Atom(bits) => atom_ok(&controller, Word::from_bits(bits)),
        };
        if !link_ok(image.free_head) || !link_ok(image.free_tail) {
            return Err(ImageError::Malformed);
        }
        let mut live = 0usize;
        let mut entries = Vec::with_capacity(n);
        for img in &image.entries {
            if !link_ok(img.free_next)
                || !field_ok(img.car)
                || !field_ok(img.cdr)
                || !img
                    .addr
                    .is_none_or(|a| controller.holds(small_heap::HeapAddr(a)))
            {
                return Err(ImageError::Malformed);
            }
            live += img.live as usize;
            entries.push(Entry {
                car: field_from_image(img.car),
                cdr: field_from_image(img.cdr),
                rc: img.rc,
                addr: img.addr.map(small_heap::HeapAddr),
                stack_bit: img.stack_bit,
                live: img.live,
                free_next: img.free_next,
                lazy: img.lazy,
            });
        }
        if live != image.live {
            return Err(ImageError::Malformed);
        }
        let mut ep_counts = fxhash::FxHashMap::default();
        for &(id, c) in &image.ep_counts {
            if !in_range(id) || ep_counts.insert(id, c).is_some() {
                return Err(ImageError::Malformed);
            }
        }
        Ok(ListProcessor {
            controller,
            entries,
            free_head: image.free_head,
            free_tail: image.free_tail,
            live,
            config,
            stats: image.stats,
            sink,
            ep_counts,
            recent_overflows: image.recent_overflows.iter().copied().collect(),
            roots: Arc::new(RootShared {
                queue: Mutex::new(Vec::new()),
                pending: AtomicBool::new(false),
            }),
            degraded: image.degraded,
            pin: None,
            // The cache is host-side state and is never checkpointed:
            // a restored processor starts cold and re-warms.
            cache: vec![CacheLine::EMPTY; FIELD_CACHE_LINES].into_boxed_slice(),
            cache_stats: LptCacheStats::default(),
        })
    }

    /// Check the references a caller is about to re-wrap with
    /// [`Self::resume_root`] after [`Self::from_image`] against the
    /// restored counts: every object root names a live entry whose
    /// count covers its roots on top of the table's own references to
    /// it (in split mode, the EP-side count covers the roots), and
    /// every atom root is a word the controller accepts. Fails closed
    /// with [`ImageError::Malformed`](small_heap::ImageError), so a
    /// damaged image cannot later release a reference it never held.
    pub fn check_roots(
        &self,
        roots: impl IntoIterator<Item = LpValue>,
    ) -> Result<(), small_heap::ImageError> {
        let n = self.entries.len();
        let mut held = vec![0u64; n];
        for v in roots {
            match v {
                LpValue::Obj(id) if (id as usize) < n && self.entries[id as usize].live => {
                    held[id as usize] += 1;
                }
                LpValue::Atom(w) if atom_ok(&self.controller, w) => {}
                _ => return Err(small_heap::ImageError::Malformed),
            }
        }
        if self.config.refcounts == RefcountMode::Unified {
            for e in self.entries.iter().filter(|e| e.live || e.lazy) {
                for f in [e.car, e.cdr] {
                    if let Field::Obj(c) = f {
                        held[c as usize] += 1;
                    }
                }
            }
        }
        let covered = |(id, &k): (usize, &u64)| match self.config.refcounts {
            RefcountMode::Unified => k <= u64::from(self.entries[id].rc),
            RefcountMode::Split => {
                k <= u64::from(self.ep_counts.get(&(id as Id)).copied().unwrap_or(0))
            }
        };
        if held.iter().enumerate().all(covered) {
            Ok(())
        } else {
            Err(small_heap::ImageError::Malformed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use small_heap::controller::TwoPointerController;
    use small_metrics::CountingSink;
    use small_sexpr::{parse, print, Interner};

    type Lp = ListProcessor<TwoPointerController>;

    /// Drop the EP's stack reference to `v` *now*: adopt the reference
    /// the value already carries, then force the deferred release.
    fn release<S: EventSink>(lp: &mut ListProcessor<TwoPointerController, S>, v: LpValue) {
        drop(lp.adopt_binding(v));
        lp.drain_unroots();
    }

    fn lp_with(table: usize) -> Lp {
        ListProcessor::new(
            TwoPointerController::new(65536, 64),
            LpConfig {
                table_size: table,
                ..LpConfig::default()
            },
        )
    }

    fn lp() -> Lp {
        lp_with(512)
    }

    fn read<S: EventSink>(
        lp: &mut ListProcessor<TwoPointerController, S>,
        i: &mut Interner,
        src: &str,
    ) -> LpValue {
        let e = parse(src, i).unwrap();
        lp.readlist(None, &e).unwrap()
    }

    #[test]
    fn readlist_writelist_roundtrip() {
        let mut i = Interner::new();
        let mut lp = lp();
        let v = read(&mut lp, &mut i, "(a (b c) d)");
        let e = lp.writelist(v).unwrap();
        assert_eq!(print(&e, &i), "(a (b c) d)");
        assert_eq!(lp.occupancy(), 1, "one entry for the whole object");
    }

    #[test]
    fn car_miss_splits_then_hits() {
        let mut i = Interner::new();
        let mut lp = lp();
        let v = read(&mut lp, &mut i, "((a) b)");
        let id = v.obj().unwrap();
        let car1 = lp.car(id).unwrap();
        assert_eq!(lp.stats().misses, 1);
        assert_eq!(lp.stats().hits, 0);
        // Second access is a hit and returns the same identifier.
        let car2 = lp.car(id).unwrap();
        assert_eq!(lp.stats().hits, 1);
        assert_eq!(car1, car2);
        assert_eq!(print(&lp.writelist(car1).unwrap(), &i), "(a)");
    }

    #[test]
    fn cons_touches_no_heap() {
        let mut i = Interner::new();
        let mut lp = lp();
        let a = read(&mut lp, &mut i, "(a)");
        let b = read(&mut lp, &mut i, "(b)");
        let heap_live = lp.controller.heap().live();
        let c = lp.cons(a, b).unwrap();
        assert_eq!(
            lp.controller.heap().live(),
            heap_live,
            "cons allocates only an LPT entry (§4.3.2.2.4)"
        );
        assert_eq!(print(&lp.writelist(c).unwrap(), &i), "((a) b)");
    }

    #[test]
    fn transient_cons_cells_die_in_the_table() {
        let mut i = Interner::new();
        let mut lp = lp();
        let a = read(&mut lp, &mut i, "(x)");
        let frees_before = lp.stats().frees;
        // cons, then drop the only reference: the cell must be detected
        // as garbage immediately (§5.3.2).
        let c = lp.cons(a, LpValue::Atom(Word::NIL)).unwrap();
        release(&mut lp, a); // EP's ref; the cons child ref remains
        release(&mut lp, c);
        assert_eq!(lp.stats().frees, frees_before + 1);
        // `a` survives: the freed cons still holds it (lazy decrement).
        assert_eq!(lp.occupancy(), 1);
    }

    #[test]
    fn lazy_decrement_defers_child_frees_until_reallocation() {
        let mut i = Interner::new();
        let mut lp = lp();
        let a = read(&mut lp, &mut i, "(x)");
        let c = lp.cons(a, LpValue::Atom(Word::NIL)).unwrap();
        release(&mut lp, a);
        // Now `a` is held only by the cons. Drop the cons:
        release(&mut lp, c);
        // Lazy policy: `a` is NOT yet freed (child decrement deferred).
        assert_eq!(lp.occupancy(), 1);
        // Reallocating the freed entry performs the deferred decrement,
        // freeing `a` too.
        let _fresh = lp
            .cons(LpValue::Atom(Word::int(1)), LpValue::Atom(Word::NIL))
            .unwrap();
        assert_eq!(lp.occupancy(), 1, "a freed, fresh cons live");
    }

    #[test]
    fn recursive_decrement_frees_children_immediately() {
        let mut i = Interner::new();
        let mut lp = ListProcessor::new(
            TwoPointerController::new(4096, 64),
            LpConfig {
                table_size: 256,
                decrement: DecrementPolicy::Recursive,
                ..LpConfig::default()
            },
        );
        let a = read(&mut lp, &mut i, "(x)");
        let c = lp.cons(a, LpValue::Atom(Word::NIL)).unwrap();
        release(&mut lp, a);
        release(&mut lp, c);
        assert_eq!(lp.occupancy(), 0, "recursive policy frees the child too");
    }

    #[test]
    fn recursive_policy_does_more_refops() {
        // The Table 5.2 Refops vs RecRefops comparison, in miniature.
        let run = |decrement: DecrementPolicy| -> u64 {
            let mut i = Interner::new();
            let mut lp = ListProcessor::new(
                TwoPointerController::new(8192, 64),
                LpConfig {
                    table_size: 512,
                    decrement,
                    ..LpConfig::default()
                },
            );
            for _ in 0..50 {
                let a = read(&mut lp, &mut i, "(x y z)");
                let b = lp.cons(a, LpValue::Atom(Word::NIL)).unwrap();
                let c = lp.cons(b, LpValue::Atom(Word::NIL)).unwrap();
                release(&mut lp, a);
                release(&mut lp, b);
                release(&mut lp, c);
                // Never reallocate: lazy policy defers the chain.
            }
            lp.stats().refops
        };
        let lazy = run(DecrementPolicy::Lazy);
        let recursive = run(DecrementPolicy::Recursive);
        assert!(
            recursive > lazy,
            "recursive {recursive} should exceed lazy {lazy}"
        );
    }

    #[test]
    fn free_stack_reuses_most_recently_freed_first() {
        // §4.3.2.1: LIFO reuse performs the just-freed entry's deferred
        // child decrement immediately on the next allocation, minimizing
        // the occupied-but-unreferenced window. A FIFO queue leaves the
        // pending garbage parked until the queue wraps around.
        let run = |disc: FreeDiscipline| {
            let mut i = Interner::new();
            let mut lp: Lp = ListProcessor::new(
                TwoPointerController::new(4096, 64),
                LpConfig {
                    table_size: 64,
                    free_discipline: disc,
                    ..LpConfig::default()
                },
            );
            let a = read(&mut lp, &mut i, "(x)");
            let c = lp.cons(a, LpValue::Atom(Word::NIL)).unwrap();
            release(&mut lp, a);
            release(&mut lp, c); // c freed lazily, still holding a
                                 // One allocation:
            let _fresh = lp
                .cons(LpValue::Atom(Word::int(1)), LpValue::Atom(Word::NIL))
                .unwrap();
            lp.occupancy()
        };
        // Stack: the freed cons is reused; its pending decrement frees
        // `a` → only the fresh cons is live.
        assert_eq!(run(FreeDiscipline::Stack), 1);
        // Queue: a never-used entry is taken from the front; `a` stays
        // parked behind the freed cons's pending reference.
        assert_eq!(run(FreeDiscipline::Queue), 2);
    }

    #[test]
    fn queue_discipline_still_converges() {
        // The queue is only *slower* to drain, not incorrect: after
        // enough churn everything is reclaimed.
        let mut i = Interner::new();
        let mut lp: Lp = ListProcessor::new(
            TwoPointerController::new(8192, 64),
            LpConfig {
                table_size: 32,
                free_discipline: FreeDiscipline::Queue,
                ..LpConfig::default()
            },
        );
        for _ in 0..200 {
            let a = read(&mut lp, &mut i, "(x y)");
            let c = lp.cons(a, LpValue::Atom(Word::NIL)).unwrap();
            release(&mut lp, a);
            release(&mut lp, c);
        }
        lp.drain_lazy();
        assert_eq!(lp.occupancy(), 0);
    }

    #[test]
    fn rplaca_updates_fields_and_counts() {
        let mut i = Interner::new();
        let mut lp = lp();
        let x = read(&mut lp, &mut i, "(1 2)");
        let y = read(&mut lp, &mut i, "(9)");
        lp.rplaca(x.obj().unwrap(), y).unwrap();
        assert_eq!(print(&lp.writelist(x).unwrap(), &i), "((9) 2)");
        // y now has two refs: EP stack + the car field.
        release(&mut lp, y);
        assert_eq!(print(&lp.writelist(x).unwrap(), &i), "((9) 2)");
    }

    #[test]
    fn figure_4_9_example() {
        // {cons [cons (car L1) (cdr L2)] (car L2)} — 3 list accesses
        // cost only 2 heap splits; the conses cost none.
        let mut i = Interner::new();
        let mut lp = lp();
        let l1 = read(&mut lp, &mut i, "((p) q)");
        let l2 = read(&mut lp, &mut i, "((r) s)");
        let splits_before = lp.controller.stats().splits;
        let car_l1 = lp.car(l1.obj().unwrap()).unwrap();
        let cdr_l2 = lp.cdr(l2.obj().unwrap()).unwrap();
        let inner = lp.cons(car_l1, cdr_l2).unwrap();
        let car_l2 = lp.car(l2.obj().unwrap()).unwrap();
        let outer = lp.cons(inner, car_l2).unwrap();
        assert_eq!(
            lp.controller.stats().splits - splits_before,
            2,
            "3 accesses, 2 heap operations (Figure 4.9)"
        );
        assert_eq!(print(&lp.writelist(outer).unwrap(), &i), "(((p) s) r)");
    }

    #[test]
    fn compression_reclaims_table_space() {
        let mut i = Interner::new();
        // Tiny table: force pseudo overflow.
        let mut lp = lp_with(4);
        let v = read(&mut lp, &mut i, "(a b c)");
        let id = v.obj().unwrap();
        let car = lp.car(id).unwrap(); // split: 2 more entries (cdr obj + car atom? car is atom a)
        let _ = car;
        // Drop EP refs to the cdr chain children... access cdr then release
        let cdr = lp.cdr(id).unwrap();
        release(&mut lp, cdr);
        // Table now has: v (fields), cdr-child (addr, rc=1 internal).
        // Fill the table to force a pseudo overflow, which compresses
        // the cdr-child back into v.
        let before = lp.stats().pseudo_overflows;
        let mut held = Vec::new();
        for _ in 0..3 {
            match lp.cons(LpValue::Atom(Word::int(1)), LpValue::Atom(Word::NIL)) {
                Ok(c) => held.push(c),
                Err(e) => panic!("allocation failed: {e}"),
            }
        }
        assert!(lp.stats().pseudo_overflows > before);
        assert!(lp.stats().compressed > 0);
        // The original list is still intact.
        assert_eq!(print(&lp.writelist(v).unwrap(), &i), "(a b c)");
    }

    #[test]
    fn true_overflow_breaks_cycles() {
        let mut i = Interner::new();
        let mut lp = lp_with(6);
        // Build a cycle: a -> b -> a, drop external refs.
        let a = read(&mut lp, &mut i, "(1)");
        let b = lp.cons(a, LpValue::Atom(Word::NIL)).unwrap();
        lp.rplacd(a.obj().unwrap(), b).unwrap();
        release(&mut lp, a);
        release(&mut lp, b);
        // Cycle is unreachable but reference counts keep it alive.
        let occupied = lp.occupancy();
        assert!(occupied >= 2, "cycle leaks under pure counting");
        // Exhaust the table; cycle breaking must reclaim the pair.
        let mut held = Vec::new();
        for _ in 0..6 {
            held.push(
                lp.cons(LpValue::Atom(Word::int(7)), LpValue::Atom(Word::NIL))
                    .expect("cycle breaking must free space"),
            );
        }
        assert!(lp.stats().cycle_collections > 0);
        assert!(lp.stats().cycles_reclaimed >= 2);
    }

    #[test]
    fn true_overflow_reported_when_everything_is_live() {
        let mut lp = lp_with(3);
        let mut held = Vec::new();
        for k in 0..3 {
            held.push(
                lp.cons(LpValue::Atom(Word::int(k)), LpValue::Atom(Word::NIL))
                    .unwrap(),
            );
        }
        // Everything externally referenced and uncompressible-to-free
        // (atom/atom conses ARE compressible... they merge to heap).
        // After compression the conses gain addresses; they stay live.
        // Hold enough deep structure to defeat compression:
        let e = lp.cons(held[0], held[1]);
        // Either compression succeeded (entries became heap objects) or
        // we got a true overflow; both are legal here — assert we never
        // corrupt state.
        match e {
            Ok(v) => held.push(v),
            Err(LpError::TrueOverflow) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn hybrid_policy_switches_under_pressure() {
        // Hybrid behaves like Compress-One until overflows get frequent,
        // then compresses everything like Compress-All (§5.2.3).
        let run = |policy: CompressPolicy| {
            let i = Interner::new();
            let mut lp: Lp = ListProcessor::new(
                TwoPointerController::new(8192, 64),
                LpConfig {
                    table_size: 24,
                    compression: policy,
                    ..LpConfig::default()
                },
            );
            // Sustained pressure: live chains that keep the table near
            // full so pseudo overflows recur.
            let mut held = Vec::new();
            for k in 0..300i64 {
                let a = lp
                    .cons(LpValue::Atom(Word::int(k)), LpValue::Atom(Word::NIL))
                    .unwrap();
                let b = lp.cons(a, LpValue::Atom(Word::NIL)).unwrap();
                release(&mut lp, a);
                held.push(b);
                // Keep enough chains live that in-flight conses push
                // past the table size.
                if held.len() > 13 {
                    release(&mut lp, held.remove(0));
                }
            }
            for v in held {
                release(&mut lp, v);
            }
            let _ = i;
            (lp.stats().pseudo_overflows, lp.stats().avg_occupancy())
        };
        let (of_one, _) = run(CompressPolicy::CompressOne);
        let (of_hybrid, _) = run(CompressPolicy::Hybrid {
            threshold: 2,
            window: 200,
        });
        assert!(of_one > 0, "the workload must actually overflow");
        assert!(
            of_hybrid <= of_one,
            "hybrid ({of_hybrid}) must not overflow more than pure Compress-One ({of_one})"
        );
    }

    #[test]
    fn split_refcounts_reduce_bus_traffic() {
        // Table 5.3: stack churn stays EP-side in split mode.
        let run = |mode: RefcountMode| -> (u64, u64) {
            let mut i = Interner::new();
            let mut lp = ListProcessor::new(
                TwoPointerController::new(8192, 64),
                LpConfig {
                    table_size: 512,
                    refcounts: mode,
                    ..LpConfig::default()
                },
            );
            let v = read(&mut lp, &mut i, "(a b c)");
            // Simulate heavy stack churn: repeated push/pop of the value.
            for _ in 0..100 {
                let h = lp.root_binding(v);
                drop(h);
                lp.drain_unroots();
            }
            release(&mut lp, v);
            (lp.stats().refops, lp.stats().ep_refops)
        };
        let (unified_bus, unified_ep) = run(RefcountMode::Unified);
        let (split_bus, split_ep) = run(RefcountMode::Split);
        assert_eq!(unified_ep, 0);
        assert!(split_ep > 0);
        assert!(
            split_bus < unified_bus / 5,
            "split bus traffic {split_bus} must be far below unified {unified_bus}"
        );
    }

    #[test]
    fn split_mode_frees_when_both_counts_zero() {
        let mut i = Interner::new();
        let mut lp = ListProcessor::new(
            TwoPointerController::new(8192, 64),
            LpConfig {
                table_size: 64,
                refcounts: RefcountMode::Split,
                ..LpConfig::default()
            },
        );
        let v = read(&mut lp, &mut i, "(a)");
        assert_eq!(lp.occupancy(), 1);
        release(&mut lp, v);
        assert_eq!(lp.occupancy(), 0, "freed when stack bit clears with rc 0");
        assert_eq!(lp.ep_tracked(), 0);
    }

    #[test]
    fn equal_compares_structure() {
        let mut i = Interner::new();
        let mut lp = lp();
        let a = read(&mut lp, &mut i, "(1 (2) 3)");
        let b = read(&mut lp, &mut i, "(1 (2) 3)");
        let c = read(&mut lp, &mut i, "(1 2 3)");
        assert!(lp.equal(a, b).unwrap());
        assert!(!lp.equal(a, c).unwrap());
    }

    // -- Rooted protect protocol --------------------------------------

    #[test]
    fn rooted_register_protects_until_drop() {
        let mut i = Interner::new();
        let mut lp = lp();
        let a = read(&mut lp, &mut i, "(x)");
        let g = lp.root(a);
        assert_eq!(g.kind(), RootKind::Register);
        // Drop the EP's stack reference: the register root keeps `a`.
        release(&mut lp, a);
        assert_eq!(lp.occupancy(), 1);
        drop(g);
        // The release is deferred to the next operation boundary.
        assert_eq!(lp.occupancy(), 1);
        lp.drain_unroots();
        assert_eq!(lp.occupancy(), 0);
    }

    #[test]
    fn rooted_register_matches_guard_refops() {
        // Register roots, like the guards they replace, generate no
        // reference-count bus traffic.
        let mut i = Interner::new();
        let mut lp = lp();
        let a = read(&mut lp, &mut i, "(x y)");
        let refops = lp.stats().refops;
        let g = lp.root(a);
        drop(g);
        lp.drain_unroots();
        assert_eq!(lp.stats().refops, refops);
    }

    #[test]
    fn rooted_binding_counts_like_stack_retain() {
        let mut i = Interner::new();
        let mut lp = lp();
        let a = read(&mut lp, &mut i, "(x)");
        let refops = lp.stats().refops;
        let b = lp.root_binding(a);
        assert_eq!(lp.stats().refops, refops + 1, "binding roots are counted");
        drop(b);
        lp.drain_unroots();
        assert_eq!(lp.stats().refops, refops + 2);
    }

    #[test]
    fn unroots_drain_at_operation_boundaries() {
        let mut i = Interner::new();
        let mut lp = lp();
        let a = read(&mut lp, &mut i, "(x)");
        let frees = lp.stats().frees;
        let h = lp.adopt_binding(a); // wraps readlist's reference
        drop(h);
        assert_eq!(lp.stats().frees, frees, "release is deferred");
        // Any LP operation drains the pending unroot first.
        let _ = lp
            .cons(LpValue::Atom(Word::int(1)), LpValue::Atom(Word::NIL))
            .unwrap();
        assert_eq!(lp.stats().frees, frees + 1);
    }

    #[test]
    fn rooted_leak_keeps_the_reference() {
        let mut i = Interner::new();
        let mut lp = lp();
        let a = read(&mut lp, &mut i, "(x)");
        let h = lp.adopt_binding(a);
        let v = h.leak();
        lp.drain_unroots();
        assert_eq!(lp.occupancy(), 1, "leaked root keeps the value live");
        assert_eq!(v, a);
    }

    #[test]
    fn rooted_binding_split_mode_round_trips() {
        let mut i = Interner::new();
        let mut lp = ListProcessor::new(
            TwoPointerController::new(8192, 64),
            LpConfig {
                table_size: 64,
                refcounts: RefcountMode::Split,
                ..LpConfig::default()
            },
        );
        let v = read(&mut lp, &mut i, "(a)");
        let h = lp.root_binding(v);
        assert_eq!(lp.ep_tracked(), 1);
        drop(h);
        lp.drain_unroots();
        // The adopted readlist reference remains; the handle's is gone.
        assert_eq!(lp.ep_tracked(), 1);
        release(&mut lp, v);
        assert_eq!(lp.occupancy(), 0);
    }

    #[test]
    fn rooted_outliving_the_processor_is_harmless() {
        let mut i = Interner::new();
        let mut lp = lp();
        let a = read(&mut lp, &mut i, "(x)");
        let h = lp.root(a);
        drop(lp);
        drop(h); // must not panic
    }

    #[test]
    fn sink_events_mirror_stats() {
        let mut i = Interner::new();
        let mut lp = ListProcessor::with_sink(
            TwoPointerController::new(8192, 64),
            LpConfig {
                table_size: 128,
                ..LpConfig::default()
            },
            CountingSink::default(),
        );
        let v = read(&mut lp, &mut i, "((a) b c)");
        let id = v.obj().unwrap();
        let _ = lp.car(id).unwrap();
        let _ = lp.car(id).unwrap();
        let _ = lp.cdr(id).unwrap();
        let stats = lp.stats();
        let counts = lp.sink().counts;
        assert_eq!(counts.lpt_hits.get(), stats.hits);
        assert_eq!(counts.lpt_misses.get(), stats.misses);
        assert_eq!(counts.refops.get(), stats.refops);
        assert_eq!(counts.entries_allocated.get(), stats.gets);
        assert_eq!(counts.entries_freed.get(), stats.frees);
        assert_eq!(counts.occupancy_samples.get(), stats.occupancy_samples);
        assert_eq!(counts.heap_read_ins.get(), 1);
        assert!(counts.heap_splits.get() > 0);
    }

    /// Retired from the deprecated four-method protect protocol
    /// (`guard`/`unguard`/`stack_retain`/`stack_release`, now removed):
    /// the RAII `Rooted` handles must stay behaviorally identical to the
    /// immediate acquire/release primitives they defer to.
    #[test]
    fn rooted_handles_match_immediate_semantics() {
        let run = |immediate: bool| -> (u64, usize) {
            let mut i = Interner::new();
            let mut lp = lp();
            let v = read(&mut lp, &mut i, "(x y)");
            if immediate {
                lp.register_acquire(v);
                lp.binding_acquire(v);
                lp.binding_release(v);
                lp.register_release(v);
                lp.binding_release(v);
            } else {
                let g = lp.root(v);
                let b = lp.root_binding(v);
                drop(b);
                drop(g);
                lp.drain_unroots();
                release(&mut lp, v);
            }
            (lp.stats().refops, lp.occupancy())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn poisoned_roots_queue_recovers() {
        // A worker that panics while holding the shared unroot queue
        // poisons the mutex; both the `Rooted` drop path and
        // `drain_unroots` must adopt the (still valid) queue instead of
        // cascading the panic across every other worker.
        let mut i = Interner::new();
        let mut lp = lp();
        let a = read(&mut lp, &mut i, "(x)");
        let handle = lp.adopt_binding(a);
        let shared = Arc::clone(&lp.roots);
        std::thread::spawn(move || {
            let _guard = shared.queue.lock().unwrap();
            panic!("poison the roots queue");
        })
        .join()
        .unwrap_err();
        assert!(lp.roots.queue.is_poisoned(), "setup must actually poison");
        drop(handle); // Rooted::drop pushes through the poisoned lock
        lp.drain_unroots(); // ...and the drain takes through it
        assert_eq!(lp.occupancy(), 0, "release still went through");
    }

    #[test]
    fn op_hooks_bracket_each_primitive() {
        // Every timed primitive announces itself to the sink and reports
        // its resolved class — the contract the profiler's virtual clock
        // is built on.
        #[derive(Default)]
        struct OpLog {
            begun: Vec<PrimKind>,
            ended: Vec<OpClass>,
        }
        impl EventSink for OpLog {
            fn record(&mut self, _event: Event) {}
            fn op_begin(&mut self, prim: PrimKind) {
                self.begun.push(prim);
            }
            fn op_end(&mut self, class: OpClass) {
                assert_eq!(
                    self.begun.len(),
                    self.ended.len() + 1,
                    "op_end without matching op_begin"
                );
                self.ended.push(class);
            }
        }
        let mut i = Interner::new();
        let mut lp = ListProcessor::with_sink(
            TwoPointerController::new(8192, 64),
            LpConfig {
                table_size: 128,
                ..LpConfig::default()
            },
            OpLog::default(),
        );
        let v = read(&mut lp, &mut i, "((a) b)");
        let id = v.obj().unwrap();
        let _ = lp.car(id).unwrap(); // split: miss
        let _ = lp.car(id).unwrap(); // hit
        let cdr = lp.cdr(id).unwrap(); // hit
        let c = lp.cons(cdr, LpValue::Atom(Word::NIL)).unwrap();
        lp.rplaca(c.obj().unwrap(), LpValue::Atom(Word::int(9)))
            .unwrap();
        lp.rplacd(c.obj().unwrap(), LpValue::Atom(Word::NIL))
            .unwrap();
        assert_eq!(
            lp.sink().begun,
            [
                PrimKind::ReadList,
                PrimKind::Car,
                PrimKind::Car,
                PrimKind::Cdr,
                PrimKind::Cons,
                PrimKind::Rplaca,
                PrimKind::Rplacd,
            ]
        );
        assert_eq!(
            lp.sink().ended,
            [
                OpClass::ReadList,
                OpClass::AccessMiss,
                OpClass::AccessHit,
                OpClass::AccessHit,
                OpClass::Cons,
                OpClass::Modify,
                OpClass::Modify,
            ]
        );
    }

    // -- Invariant auditing and reconciliation ------------------------

    fn has<F: Fn(&Violation) -> bool>(report: &AuditReport, pred: F) -> bool {
        report.violations.iter().any(pred)
    }

    #[test]
    fn audit_clean_on_fresh_and_worked_tables() {
        let mut i = Interner::new();
        let mut lp = lp();
        assert!(lp.audit().is_clean());
        let v = read(&mut lp, &mut i, "(a (b c) d)");
        let id = v.obj().unwrap();
        let cdr = lp.cdr(id).unwrap();
        assert!(lp.audit().is_clean());
        release(&mut lp, cdr);
        release(&mut lp, v);
        lp.drain_lazy();
        let r = lp.audit();
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.live_entries, 0);
    }

    #[test]
    fn audit_detects_refcount_corruption() {
        let mut i = Interner::new();
        let mut lp = lp();
        let v = read(&mut lp, &mut i, "((a) b)");
        let id = v.obj().unwrap();
        let child = lp.car(id).unwrap();
        let cid = child.obj().unwrap();
        assert!(lp.audit().is_clean());
        lp.perturb(Perturbation::SetRefcount { id: cid, rc: 0 });
        let r = lp.audit();
        assert!(has(&r, |x| matches!(
            x,
            Violation::RefcountLow { .. } | Violation::UndetectedGarbage { .. }
        )));
    }

    #[test]
    fn audit_detects_undetected_garbage() {
        let mut i = Interner::new();
        let mut lp = lp();
        let v = read(&mut lp, &mut i, "(a b)");
        let id = v.obj().unwrap();
        lp.perturb(Perturbation::SetRefcount { id, rc: 0 });
        assert!(has(&lp.audit(), |x| matches!(
            x,
            Violation::UndetectedGarbage { .. }
        )));
    }

    #[test]
    fn audit_detects_dangling_and_out_of_range_fields() {
        let mut i = Interner::new();
        let mut lp = lp();
        let v = read(&mut lp, &mut i, "((a) b)");
        let id = v.obj().unwrap();
        let _ = lp.car(id).unwrap(); // materialize the fields
        lp.perturb(Perturbation::CorruptField {
            id,
            car: true,
            child: 300, // dead but in range
        });
        assert!(has(&lp.audit(), |x| matches!(
            x,
            Violation::DanglingField { child: 300, .. }
        )));
        lp.perturb(Perturbation::CorruptField {
            id,
            car: true,
            child: 100_000,
        });
        assert!(has(&lp.audit(), |x| matches!(
            x,
            Violation::FieldOutOfRange { .. }
        )));
    }

    #[test]
    fn audit_detects_cleared_stack_bit_in_split_mode() {
        let mut i = Interner::new();
        let mut lp = ListProcessor::new(
            TwoPointerController::new(65536, 64),
            LpConfig {
                refcounts: RefcountMode::Split,
                ..LpConfig::default()
            },
        );
        let v = read(&mut lp, &mut i, "(a b)");
        let id = v.obj().unwrap();
        assert!(lp.audit().is_clean());
        lp.perturb(Perturbation::ClearStackBit { id });
        assert!(has(&lp.audit(), |x| matches!(
            x,
            Violation::StackBitMismatch { .. }
        )));
    }

    #[test]
    fn audit_detects_broken_free_list() {
        let mut i = Interner::new();
        let mut lp = lp();
        let _v = read(&mut lp, &mut i, "(a)");
        assert!(lp.audit().is_clean());
        lp.perturb(Perturbation::BreakFreeList);
        assert!(has(&lp.audit(), |x| matches!(
            x,
            Violation::DeadNotOnFreeList { .. }
        )));
    }

    #[test]
    fn audit_detects_resurrected_entry() {
        let mut i = Interner::new();
        let mut lp = lp();
        let _v = read(&mut lp, &mut i, "(a)");
        lp.perturb(Perturbation::ResurrectEntry { id: 5 });
        let r = lp.audit();
        assert!(has(&r, |x| matches!(
            x,
            Violation::LiveOnFreeList { id: 5 }
        )));
        assert!(has(&r, |x| matches!(
            x,
            Violation::FieldsAddrMismatch { id: 5 }
        )));
    }

    #[test]
    fn reconcile_repairs_counts_and_free_list_without_losing_structure() {
        let mut i = Interner::new();
        let mut lp = lp();
        let v = read(&mut lp, &mut i, "(a (b c) d)");
        let id = v.obj().unwrap();
        let cdr = lp.cdr(id).unwrap();
        let cdr_id = cdr.obj().unwrap();
        let inner = lp.car(cdr_id).unwrap();
        release(&mut lp, cdr);
        release(&mut lp, inner);
        let before = print(&lp.writelist(v).unwrap(), &i);
        assert!(lp.audit().is_clean());
        lp.perturb(Perturbation::SetRefcount { id: cdr_id, rc: 7 });
        lp.perturb(Perturbation::BreakFreeList);
        lp.perturb(Perturbation::ResurrectEntry { id: 400 });
        assert!(!lp.audit().is_clean());
        let stats = lp.reconcile(&[v]);
        assert!(stats.refcounts_fixed >= 1);
        assert!(stats.entries_swept >= 1, "the resurrected husk is swept");
        assert_eq!(stats.free_lists_rebuilt, 1, "severed list is rebuilt");
        let r = lp.audit();
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(print(&lp.writelist(v).unwrap(), &i), before);
    }

    #[test]
    fn reconcile_clears_corrupted_fields_and_sweeps_orphans() {
        let mut i = Interner::new();
        let mut lp = lp();
        let v = read(&mut lp, &mut i, "((a) b)");
        let id = v.obj().unwrap();
        let child = lp.car(id).unwrap();
        release(&mut lp, child);
        // Overwrite the cdr field with a dangling reference: the old
        // cdr subtree becomes unreachable and must be swept, and the
        // forged field must be defaulted rather than followed.
        lp.perturb(Perturbation::CorruptField {
            id,
            car: false,
            child: 300,
        });
        let stats = lp.reconcile(&[v]);
        assert!(stats.fields_cleared >= 1);
        assert!(stats.entries_swept >= 1);
        let r = lp.audit();
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(print(&lp.writelist(v).unwrap(), &i), "((a))");
    }

    #[test]
    fn reconcile_noop_on_clean_table_with_lazy_state() {
        // A healthy table — workload-order free list, freed entries
        // with pending lazy decrements, children kept alive only by
        // those pending fields — must pass through reconcile with zero
        // repairs and byte-identical state.
        let mut i = Interner::new();
        let mut lp = lp();
        let keep = read(&mut lp, &mut i, "(x y)");
        let v = read(&mut lp, &mut i, "((a b) c)");
        // Dropping the list frees its spine lazily: the `(a b)` child
        // survives only through the dead spine entry's pending field.
        release(&mut lp, v);
        assert!(lp.audit().is_clean());
        let before = lp.export_image();
        let stats = lp.reconcile(&[keep]);
        assert!(stats.is_clean(), "clean table repaired: {stats:?}");
        assert_eq!(lp.export_image(), before, "state must be untouched");
        assert!(lp.audit().is_clean());
    }

    #[test]
    fn reconcile_is_idempotent_after_repair() {
        let mut i = Interner::new();
        let mut lp = lp();
        let v = read(&mut lp, &mut i, "(a (b c) d)");
        lp.perturb(Perturbation::SetRefcount {
            id: v.obj().unwrap(),
            rc: 9,
        });
        lp.perturb(Perturbation::BreakFreeList);
        let first = lp.reconcile(&[v]);
        assert!(!first.is_clean());
        let repaired = lp.export_image();
        let second = lp.reconcile(&[v]);
        assert!(second.is_clean(), "second pass repaired: {second:?}");
        assert_eq!(lp.export_image(), repaired, "second pass must not move");
    }

    #[test]
    fn image_round_trip_restores_identical_state() {
        use small_heap::PersistableController;
        let mut i = Interner::new();
        let mut lp = lp();
        let v = read(&mut lp, &mut i, "(a (b c) d)");
        let held = lp.cdr(v.obj().unwrap()).unwrap();
        let handle = lp.root_binding(held);
        let image = lp.export_image();
        // The entries' backing addresses must name cells of the heap
        // restored beside them.
        let restored: Lp = ListProcessor::from_image(
            TwoPointerController::import_image(&lp.controller.export_image()).unwrap(),
            LpConfig {
                table_size: 512,
                ..LpConfig::default()
            },
            &image,
            NoopSink,
        )
        .unwrap();
        assert_eq!(restored.export_image(), image);
        assert_eq!(restored.occupancy(), lp.occupancy());
        assert_eq!(restored.stats(), lp.stats());
        // The restored handle releases normally and the count drops.
        let resumed = restored.resume_root(held, RootKind::Binding);
        let mut restored = restored;
        drop(resumed);
        restored.drain_unroots();
        drop(handle);
        lp.drain_unroots();
        assert_eq!(restored.export_image(), lp.export_image());
        assert!(restored.audit().is_clean());
    }

    #[test]
    fn from_image_rejects_malformed_images() {
        let mut i = Interner::new();
        let mut lp = lp();
        let _v = read(&mut lp, &mut i, "(a b)");
        let image = lp.export_image();
        let ctrl = || TwoPointerController::new(65536, 64);
        let config = LpConfig {
            table_size: 512,
            ..LpConfig::default()
        };
        // Wrong table size for the configuration.
        let bad = LpImage {
            table_size: 256,
            ..image.clone()
        };
        assert!(ListProcessor::<_>::from_image(ctrl(), config, &bad, NoopSink).is_err());
        // Live count that disagrees with the entries.
        let bad = LpImage {
            live: image.live + 1,
            ..image.clone()
        };
        assert!(ListProcessor::<_>::from_image(ctrl(), config, &bad, NoopSink).is_err());
        // Out-of-range child reference.
        let mut bad = image.clone();
        bad.entries[0].car = FieldImage::Obj(100_000);
        assert!(ListProcessor::<_>::from_image(ctrl(), config, &bad, NoopSink).is_err());
    }

    // -- Transient-fault retry ----------------------------------------

    mod faults {
        use super::*;
        use small_heap::{FaultPlan, FaultyController};

        type FLp = ListProcessor<FaultyController<TwoPointerController>>;

        fn split_always(max_burst: u32) -> FaultPlan {
            FaultPlan {
                seed: 7,
                read_in_ppk: 0,
                split_ppk: 1024,
                merge_ppk: 0,
                delay_free_ppk: 0,
                delay_ops: 0,
                max_burst,
            }
        }

        fn faulty_lp(plan: FaultPlan) -> FLp {
            ListProcessor::new(
                FaultyController::new(TwoPointerController::new(65536, 64), plan),
                LpConfig::default(),
            )
        }

        #[test]
        fn retrying_recovers_bounded_transient_bursts() {
            let mut i = Interner::new();
            let mut lp = faulty_lp(split_always(2));
            let e = parse("((a) b)", &mut i).unwrap();
            let v = lp.readlist(None, &e).unwrap();
            let id = v.obj().unwrap();
            let car = lp.retrying(|lp| lp.car(id)).unwrap();
            assert_eq!(print(&lp.writelist(car).unwrap(), &i), "(a)");
            // Two injected failures, both detected and both recovered;
            // injected == detected reconciles exactly.
            assert_eq!(lp.stats().faults_detected, 2);
            assert_eq!(lp.stats().faults_recovered, 2);
            assert_eq!(lp.controller.fault_stats().transient_total(), 2);
            let r = lp.audit();
            assert!(r.is_clean(), "{:?}", r.violations);
        }

        #[test]
        fn retrying_gives_up_after_bounded_attempts() {
            let mut i = Interner::new();
            let mut lp = faulty_lp(split_always(64));
            let e = parse("((a) b)", &mut i).unwrap();
            let v = lp.readlist(None, &e).unwrap();
            let id = v.obj().unwrap();
            let r = lp.retrying(|lp| lp.car(id));
            assert_eq!(r.unwrap_err(), LpError::Heap(HeapError::Transient));
            // Every attempt (the initial one plus the retries) was
            // detected; none recovered.
            assert_eq!(
                lp.stats().faults_detected,
                u64::from(TRANSIENT_RETRY_LIMIT) + 1
            );
            assert_eq!(lp.stats().faults_recovered, 0);
            // The failed splits corrupted nothing: the entry still has
            // its backing object and a clean audit.
            assert!(lp.audit().is_clean());
            assert_eq!(print(&lp.writelist(v).unwrap(), &i), "((a) b)");
        }
    }

    // -- §4.3.2.3 graceful overflow degradation -----------------------

    mod overflow_degradation {
        use super::*;

        fn degrade_lp(table: usize) -> Lp {
            ListProcessor::new(
                TwoPointerController::new(65536, 64),
                LpConfig {
                    table_size: table,
                    overflow: OverflowPolicy::Degrade,
                    ..LpConfig::default()
                },
            )
        }

        #[test]
        fn true_overflow_degrades_instead_of_failing() {
            let mut lp = degrade_lp(4);
            let held: Vec<LpValue> = (0..4)
                .map(|k| {
                    lp.cons(LpValue::Atom(Word::int(k)), LpValue::Atom(Word::NIL))
                        .unwrap()
                })
                .collect();
            assert!(!lp.degraded());
            // The table is full of EP-rooted, incompressible pairs: the
            // next cons overflows and degrades to heap-direct operation.
            let v = lp
                .cons(LpValue::Atom(Word::int(99)), LpValue::Atom(Word::NIL))
                .unwrap();
            assert!(lp.degraded());
            assert!(v.is_heap_direct());
            assert!(v.is_list());
            assert_eq!(lp.stats().overflow_entries, 1);
            // car/cdr work directly against the heap.
            assert_eq!(lp.car_of(v).unwrap(), LpValue::Atom(Word::int(99)));
            assert_eq!(lp.cdr_of(v).unwrap(), LpValue::Atom(Word::NIL));
            assert!(lp.stats().heap_direct_ops > 0);
            // The table-resident values are untouched.
            for (k, h) in held.iter().enumerate() {
                assert_eq!(lp.car_of(*h).unwrap(), LpValue::Atom(Word::int(k as i64)));
            }
        }

        #[test]
        fn degraded_readlist_round_trips_through_the_heap() {
            let mut i = Interner::new();
            let mut lp = degrade_lp(4);
            let _held: Vec<LpValue> = (0..4)
                .map(|k| {
                    lp.cons(LpValue::Atom(Word::int(k)), LpValue::Atom(Word::NIL))
                        .unwrap()
                })
                .collect();
            let _ = lp
                .cons(LpValue::Atom(Word::int(9)), LpValue::Atom(Word::NIL))
                .unwrap();
            assert!(lp.degraded());
            let e = parse("(a (b) c)", &mut i).unwrap();
            let v = lp.readlist(None, &e).unwrap();
            assert!(v.is_heap_direct());
            assert_eq!(print(&lp.writelist(v).unwrap(), &i), "(a (b) c)");
            // Structural traversal of a heap-direct nested list.
            let second = {
                let tail = lp.cdr_of(v).unwrap();
                lp.car_of(tail).unwrap()
            };
            assert!(second.is_heap_direct());
            assert_eq!(print(&lp.writelist(second).unwrap(), &i), "(b)");
        }

        #[test]
        fn degraded_mutation_is_a_typed_error() {
            let mut lp = degrade_lp(4);
            let _held: Vec<LpValue> = (0..4)
                .map(|k| {
                    lp.cons(LpValue::Atom(Word::int(k)), LpValue::Atom(Word::NIL))
                        .unwrap()
                })
                .collect();
            let v = lp
                .cons(LpValue::Atom(Word::int(9)), LpValue::Atom(Word::NIL))
                .unwrap();
            assert!(v.is_heap_direct());
            let r = lp.rplaca_of(v, LpValue::Atom(Word::int(1)));
            assert!(matches!(r, Err(LpError::Degraded(_))), "{r:?}");
            let r = lp.rplacd_of(v, LpValue::Atom(Word::NIL));
            assert!(matches!(r, Err(LpError::Degraded(_))), "{r:?}");
        }

        #[test]
        fn overflow_mode_exits_once_occupancy_recovers() {
            let mut lp = degrade_lp(4);
            let held: Vec<LpValue> = (0..4)
                .map(|k| {
                    lp.cons(LpValue::Atom(Word::int(k)), LpValue::Atom(Word::NIL))
                        .unwrap()
                })
                .collect();
            let _v = lp
                .cons(LpValue::Atom(Word::int(9)), LpValue::Atom(Word::NIL))
                .unwrap();
            assert!(lp.degraded());
            // Dropping the EP's references empties the table; the next
            // op boundary re-enters table mode.
            for h in held {
                release(&mut lp, h);
            }
            lp.drain_lazy();
            let t = lp
                .cons(LpValue::Atom(Word::int(7)), LpValue::Atom(Word::NIL))
                .unwrap();
            assert!(!lp.degraded());
            assert!(matches!(t, LpValue::Obj(_)));
            assert_eq!(lp.stats().overflow_entries, 1);
            assert_eq!(lp.stats().overflow_exits, 1);
            let r = lp.audit();
            assert!(r.is_clean(), "{:?}", r.violations);
        }

        #[test]
        fn degraded_cons_adopts_table_operands_safely() {
            let i = Interner::new();
            let mut lp = degrade_lp(4);
            let held: Vec<LpValue> = (0..4)
                .map(|k| {
                    lp.cons(LpValue::Atom(Word::int(k)), LpValue::Atom(Word::NIL))
                        .unwrap()
                })
                .collect();
            // cons of a *table* object while degraded: the operand is
            // snapshotted to the heap, the original entry untouched.
            let v = lp.cons(held[0], LpValue::Atom(Word::NIL)).unwrap();
            assert!(lp.degraded());
            assert!(v.is_heap_direct());
            assert_eq!(print(&lp.writelist(v).unwrap(), &i), "((0))");
            assert_eq!(lp.car_of(held[0]).unwrap(), LpValue::Atom(Word::int(0)));
        }
    }
}
