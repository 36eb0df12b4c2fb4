//! The heap memory controller (§4.3.3).
//!
//! The List Processor never touches raw cells; it asks the controller to
//! **read in** a list, **split** an object into its car and cdr parts,
//! **merge** two objects back into one, and **free** an object. Frees are
//! queued and serviced "whenever convenient", with a bounded queue for
//! flow control so that large amounts of heap never sit unreclaimed
//! (§4.3.3.1).

use crate::two_pointer::TwoPointerHeap;
use crate::word::{HeapAddr, Tag, Word};
use small_sexpr::SExpr;
use std::collections::VecDeque;

/// Result of splitting a heap object: the car and cdr pieces, each an
/// immediate atom or a pointer to a heap object of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitResult {
    /// The car piece.
    pub car: Word,
    /// The cdr piece.
    pub cdr: Word,
}

/// A piece handed across the LP/heap interface: an atom word or an
/// object address. (`Word` subsumes both; this alias documents intent.)
pub type Piece = Word;

/// Errors from the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapError {
    /// The heap has no free cells.
    Exhausted,
    /// The operand word was an atom where an object was required.
    NotAnObject,
    /// The operand address does not name a well-formed heap cell
    /// (out of bounds, a forwarding cycle, or the second word of a
    /// coded pair). Surfaced instead of panicking so injected faults
    /// and corrupted structures degrade through typed errors.
    BadAddress,
    /// A transient fault: the operation failed this time but may succeed
    /// if retried (a bus glitch, a busy memory bank). Produced by the
    /// fault-injection layer ([`crate::faulty::FaultyController`]); the
    /// machine's bounded retry treats exactly this variant as retryable.
    Transient,
}

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapError::Exhausted => write!(f, "heap exhausted"),
            HeapError::NotAnObject => write!(f, "operand is not a heap object"),
            HeapError::BadAddress => write!(f, "operand address is not a well-formed heap cell"),
            HeapError::Transient => write!(f, "transient heap fault"),
        }
    }
}

impl std::error::Error for HeapError {}

/// Activity counters for the controller.
#[derive(Debug, Default, Clone, Copy)]
pub struct ControllerStats {
    /// Split operations performed.
    pub splits: u64,
    /// Merge operations performed.
    pub merges: u64,
    /// Objects read in.
    pub read_ins: u64,
    /// Free requests queued.
    pub frees_queued: u64,
    /// Individual cells actually reclaimed.
    pub cells_freed: u64,
}

/// The interface the List Processor sees (§4.3.3). Implementations:
/// [`TwoPointerController`] here; the SMALL simulator also provides a
/// synthetic address-model implementation for the cache comparison.
pub trait HeapController {
    /// Read an s-expression into the heap; returns its value word.
    fn read_in(&mut self, expr: &SExpr) -> Result<Word, HeapError>;

    /// Split the object at `addr` into car and cdr pieces, consuming it.
    fn split(&mut self, addr: HeapAddr) -> Result<SplitResult, HeapError>;

    /// Read both pieces of the object at `addr` *without* consuming it.
    ///
    /// This is the access path of §4.3.2.3 overflow mode, where the LP
    /// operates heap-direct like a conventional machine. Stores whose
    /// split is inherently destructive (the structure-coded tables) keep
    /// the default, which reports the object as unreadable in place.
    fn peek(&self, addr: HeapAddr) -> Result<SplitResult, HeapError> {
        let _ = addr;
        Err(HeapError::NotAnObject)
    }

    /// Whether `addr` names an object this controller holds. A
    /// restored List Processor checks every heap address in its image
    /// with this before trusting it.
    fn holds(&self, addr: HeapAddr) -> bool {
        self.peek(addr).is_ok()
    }

    /// Merge two pieces into a new object; inverse of split.
    fn merge(&mut self, car: Word, cdr: Word) -> Result<HeapAddr, HeapError>;

    /// Queue the object at `addr` for reclamation.
    fn free_object(&mut self, addr: HeapAddr);

    /// Reconstruct the s-expression for a value word (`writelist`).
    fn extract(&self, w: Word) -> SExpr;

    /// Activity counters.
    fn stats(&self) -> ControllerStats;
}

/// The reference controller over a [`TwoPointerHeap`].
pub struct TwoPointerController {
    heap: TwoPointerHeap,
    free_queue: VecDeque<HeapAddr>,
    /// Max queued frees before requests are serviced synchronously.
    queue_limit: usize,
    stats: ControllerStats,
}

impl TwoPointerController {
    /// Create a controller over a heap of `cells` cells with the given
    /// free-queue bound.
    pub fn new(cells: usize, queue_limit: usize) -> Self {
        TwoPointerController {
            heap: TwoPointerHeap::with_capacity(cells),
            free_queue: VecDeque::new(),
            queue_limit,
            stats: ControllerStats::default(),
        }
    }

    /// Read-only view of the backing heap.
    pub fn heap(&self) -> &TwoPointerHeap {
        &self.heap
    }

    /// Service up to `limit` queued free requests ("whenever
    /// convenient"). Each request reclaims a whole object by traversal.
    pub fn process_frees(&mut self, limit: usize) {
        for _ in 0..limit {
            let Some(root) = self.free_queue.pop_front() else {
                return;
            };
            self.reclaim(root);
        }
    }

    /// Pending free requests.
    pub fn pending_frees(&self) -> usize {
        self.free_queue.len()
    }

    /// Reclaim the object rooted at `root`, traversing its cells with an
    /// explicit stack (the "stack used temporarily" of §4.3.3.1).
    fn reclaim(&mut self, root: HeapAddr) {
        let mut stack = vec![root];
        while let Some(a) = stack.pop() {
            if self.heap.is_free(a) {
                // Defensive: already reclaimed via another queued request.
                continue;
            }
            let car = self.heap.raw_car(a);
            let cdr = self.heap.raw_cdr(a);
            if matches!(car.tag(), Tag::Ptr | Tag::Invisible) {
                stack.push(car.addr());
            }
            if matches!(cdr.tag(), Tag::Ptr | Tag::Invisible) {
                stack.push(cdr.addr());
            }
            self.heap.free_cell(a);
            self.stats.cells_freed += 1;
        }
    }

    /// Drain the whole free queue, then report free cell count.
    pub fn drain_and_free(&mut self) -> usize {
        self.process_frees(usize::MAX);
        self.heap.free()
    }
}

impl HeapController for TwoPointerController {
    fn read_in(&mut self, expr: &SExpr) -> Result<Word, HeapError> {
        self.stats.read_ins += 1;
        match self.heap.intern(expr) {
            Some(w) => Ok(w),
            None => {
                // Try to reclaim queued garbage, then retry once.
                self.process_frees(usize::MAX);
                self.heap.intern(expr).ok_or(HeapError::Exhausted)
            }
        }
    }

    fn split(&mut self, addr: HeapAddr) -> Result<SplitResult, HeapError> {
        if self.heap.is_free(addr) {
            return Err(HeapError::NotAnObject);
        }
        self.stats.splits += 1;
        let car = self.heap.car(addr);
        let cdr = self.heap.cdr(addr);
        // The original object ceases to exist; its root cell is freed.
        self.heap.free_cell(addr);
        self.stats.cells_freed += 1;
        Ok(SplitResult { car, cdr })
    }

    fn peek(&self, addr: HeapAddr) -> Result<SplitResult, HeapError> {
        if addr.index() >= self.heap.capacity() || self.heap.is_free(addr) {
            return Err(HeapError::NotAnObject);
        }
        Ok(SplitResult {
            car: self.heap.car(addr),
            cdr: self.heap.cdr(addr),
        })
    }

    fn merge(&mut self, car: Word, cdr: Word) -> Result<HeapAddr, HeapError> {
        self.stats.merges += 1;
        match self.heap.alloc(car, cdr) {
            Some(a) => Ok(a),
            None => {
                self.process_frees(usize::MAX);
                self.heap.alloc(car, cdr).ok_or(HeapError::Exhausted)
            }
        }
    }

    fn free_object(&mut self, addr: HeapAddr) {
        self.stats.frees_queued += 1;
        self.free_queue.push_back(addr);
        if self.free_queue.len() > self.queue_limit {
            // Flow control: service synchronously when the queue is full.
            self.process_frees(self.free_queue.len() - self.queue_limit);
        }
    }

    fn extract(&self, w: Word) -> SExpr {
        self.heap.extract(w)
    }

    fn stats(&self) -> ControllerStats {
        self.stats
    }
}

impl crate::persist::PersistableController for TwoPointerController {
    const KIND: &'static str = "two-pointer";

    fn export_image(&self) -> crate::persist::ControllerImage {
        let (arena, heap_scalars) = self.heap.export_state();
        let queue: Vec<u64> = self.free_queue.iter().map(|a| u64::from(a.0)).collect();
        let mut ctrl = vec![self.queue_limit as u64];
        ctrl.extend(crate::persist::stats_to_words(&self.stats));
        crate::persist::ControllerImage {
            kind: Self::KIND,
            sections: vec![
                ("arena", arena),
                ("heap", heap_scalars),
                ("queue", queue),
                ("ctrl", ctrl),
            ],
        }
    }

    fn import_image(
        image: &crate::persist::ControllerImage,
    ) -> Result<Self, crate::persist::ImageError> {
        use crate::persist::ImageError;
        if image.kind != Self::KIND {
            return Err(ImageError::WrongKind);
        }
        let heap = TwoPointerHeap::import_state(image.section("arena")?, image.section("heap")?)?;
        // A queued root was allocated, so it lies below the frontier.
        let queue = image
            .section("queue")?
            .iter()
            .map(|&w| match crate::persist::word_to_opt_addr(w)? {
                Some(a) if a.index() < heap.frontier() => Ok(a),
                _ => Err(ImageError::Malformed),
            })
            .collect::<Result<VecDeque<HeapAddr>, _>>()?;
        let ctrl = image.section("ctrl")?;
        if ctrl.len() != 6 {
            return Err(ImageError::Malformed);
        }
        Ok(TwoPointerController {
            heap,
            free_queue: queue,
            queue_limit: usize::try_from(ctrl[0]).map_err(|_| ImageError::Malformed)?,
            stats: crate::persist::stats_from_words(&ctrl[1..])?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use small_sexpr::{parse, print, Interner};

    fn ctl() -> (Interner, TwoPointerController) {
        (Interner::new(), TwoPointerController::new(256, 8))
    }

    #[test]
    fn read_in_and_extract() {
        let (mut i, mut c) = ctl();
        let e = parse("(a (b) c)", &mut i).unwrap();
        let w = c.read_in(&e).unwrap();
        assert_eq!(print(&c.extract(w), &i), "(a (b) c)");
        assert_eq!(c.stats().read_ins, 1);
    }

    #[test]
    fn split_returns_car_and_cdr_pieces() {
        let (mut i, mut c) = ctl();
        let e = parse("((a b) c d)", &mut i).unwrap();
        let w = c.read_in(&e).unwrap();
        let live_before = c.heap().live();
        let s = c.split(w.addr()).unwrap();
        assert_eq!(c.heap().live(), live_before - 1, "split consumes one cell");
        assert_eq!(print(&c.extract(s.car), &i), "(a b)");
        assert_eq!(print(&c.extract(s.cdr), &i), "(c d)");
    }

    #[test]
    fn split_of_single_element_list_yields_atoms() {
        let (mut i, mut c) = ctl();
        let w = c.read_in(&parse("(a)", &mut i).unwrap()).unwrap();
        let s = c.split(w.addr()).unwrap();
        assert_eq!(s.car.tag(), Tag::Sym);
        assert!(s.cdr.is_nil());
    }

    #[test]
    fn merge_is_inverse_of_split() {
        let (mut i, mut c) = ctl();
        let w = c.read_in(&parse("((a) (b))", &mut i).unwrap()).unwrap();
        let s = c.split(w.addr()).unwrap();
        let m = c.merge(s.car, s.cdr).unwrap();
        assert_eq!(print(&c.extract(Word::ptr(m)), &i), "((a) (b))");
    }

    #[test]
    fn frees_are_queued_then_serviced() {
        let (mut i, mut c) = ctl();
        let w = c.read_in(&parse("(a b c d)", &mut i).unwrap()).unwrap();
        let live = c.heap().live();
        c.free_object(w.addr());
        assert_eq!(c.heap().live(), live, "free is asynchronous");
        assert_eq!(c.pending_frees(), 1);
        c.process_frees(1);
        assert_eq!(c.heap().live(), 0);
        assert_eq!(c.stats().cells_freed, 4);
    }

    #[test]
    fn queue_limit_forces_synchronous_service() {
        let mut i = Interner::new();
        let mut c = TwoPointerController::new(256, 2);
        for _ in 0..4 {
            let w = c.read_in(&parse("(x)", &mut i).unwrap()).unwrap();
            c.free_object(w.addr());
        }
        assert!(c.pending_frees() <= 2, "queue must respect its bound");
    }

    #[test]
    fn read_in_reclaims_queued_garbage_under_pressure() {
        let mut i = Interner::new();
        let mut c = TwoPointerController::new(4, 16);
        let w = c.read_in(&parse("(a b c d)", &mut i).unwrap()).unwrap();
        c.free_object(w.addr());
        // Heap is "full" but the queue holds reclaimable garbage.
        let w2 = c.read_in(&parse("(e f g)", &mut i).unwrap()).unwrap();
        assert_eq!(print(&c.extract(w2), &i), "(e f g)");
    }

    #[test]
    fn split_of_freed_object_is_an_error() {
        let (mut i, mut c) = ctl();
        let w = c.read_in(&parse("(a)", &mut i).unwrap()).unwrap();
        c.free_object(w.addr());
        c.process_frees(usize::MAX);
        assert_eq!(c.split(w.addr()), Err(HeapError::NotAnObject));
    }
}
