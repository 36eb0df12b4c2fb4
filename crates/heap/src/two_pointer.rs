//! The classic two-pointer list cell heap (Figure 2.6).
//!
//! Each cell is a pair of tagged words (car, cdr) stored at consecutive
//! arena slots. This is the *uniform* representation of §3.1 — every
//! s-expression has exactly one encoding, `car`/`cdr` are single memory
//! reads, `rplaca`/`rplacd` single writes, and `cons` is an allocation
//! plus two writes. Its drawbacks (the addressing bottleneck during
//! traversal, and space cost) motivate the compact representations in the
//! sibling modules.
//!
//! Invisible pointers ([`Tag::Invisible`]) are dereferenced transparently
//! by [`TwoPointerHeap::car`]/[`TwoPointerHeap::cdr`], as the Lisp-machine
//! hardware does (§2.3.2).

use crate::word::{Arena, HeapAddr, Tag, Word};
use small_sexpr::{Atom, SExpr};

/// Allocation statistics for a heap.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HeapStats {
    /// Cells ever allocated (including recycled ones).
    pub allocs: u64,
    /// Cells returned to the free list.
    pub frees: u64,
    /// Maximum simultaneously-live cell count observed.
    pub high_water: usize,
}

/// A two-pointer cons-cell heap.
///
/// The free list is threaded lazily: `frontier` marks the low-water
/// boundary below which every cell has been allocated at least once
/// (and so carries real words or an explicit free link), while cells at
/// or above it are *virgin* — never written, conceptually still on the
/// tail of the initial ascending free list. Eagerly threading a link
/// word through every cell of a multi-megabyte arena dominated heap
/// construction time; the lazy scheme allocates and frees in exactly
/// the same order. Images hold only the cells below the frontier, so a
/// suspended heap costs what it used, not its capacity.
pub struct TwoPointerHeap {
    arena: Arena,
    /// Head of the explicit free list, threaded through car words.
    /// Holds only cells below `frontier`; the virgin suffix
    /// `frontier..capacity` logically follows it.
    free_head: Option<HeapAddr>,
    /// First never-allocated cell (see type docs).
    frontier: usize,
    /// Number of cells currently allocated.
    live: usize,
    /// Total cell capacity.
    capacity: usize,
    stats: HeapStats,
}

impl TwoPointerHeap {
    /// Initial arena backing, in words. The arena grows geometrically
    /// toward `capacity * 2` as the frontier advances: a multi-megabyte
    /// mmap/munmap pair per heap construction costs around a
    /// millisecond even untouched, while typical runs use a few percent
    /// of the cell budget. Small enough that a short-lived serving
    /// session (a few dozen cells) never pays for backing it won't
    /// touch; the doubling copies on a growth-heavy run total less
    /// than one flat allocation at final size.
    const INITIAL_ARENA_WORDS: usize = 1 << 10;

    /// Create a heap with room for `cells` list cells.
    pub fn with_capacity(cells: usize) -> Self {
        TwoPointerHeap {
            // Zero-backed and deliberately undersized: virgin words are
            // never read (every access is gated on `is_free`/the
            // frontier), and `alloc` grows the backing before the
            // frontier crosses it.
            arena: Arena::new_zeroed(Self::backing_words(0, cells)),
            free_head: None,
            frontier: 0,
            live: 0,
            capacity: cells,
            stats: HeapStats::default(),
        }
    }

    /// Total capacity in cells.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently-allocated cell count.
    pub fn live(&self) -> usize {
        self.live
    }

    /// First never-allocated cell: every cell below it has been
    /// allocated at least once.
    pub(crate) fn frontier(&self) -> usize {
        self.frontier
    }

    /// Free cells remaining.
    pub fn free(&self) -> usize {
        self.capacity - self.live
    }

    /// Allocation statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Allocate a cons cell. Returns `None` when the heap is exhausted —
    /// the caller is expected to garbage collect and retry.
    pub fn alloc(&mut self, car: Word, cdr: Word) -> Option<HeapAddr> {
        let addr = match self.free_head {
            Some(a) => {
                let next = self.arena.read(a.index() * 2).free_next();
                // A link naming a never-allocated cell is the terminal
                // link onto the virgin suffix; it was written when its
                // target was the frontier, and explicit-list cells are
                // always consumed before the frontier advances, so the
                // target still *is* the frontier.
                self.free_head = match next {
                    Some(n) if n.index() >= self.frontier => {
                        debug_assert_eq!(n.index(), self.frontier);
                        None
                    }
                    n => n,
                };
                a
            }
            None if self.frontier < self.capacity => {
                let a = HeapAddr(self.frontier as u32);
                self.frontier += 1;
                if self.arena.len() < self.frontier * 2 {
                    self.arena
                        .grow_to(Self::backing_words(self.frontier, self.capacity));
                }
                a
            }
            None => return None,
        };
        self.arena.write(addr.index() * 2, car);
        self.arena.write(addr.index() * 2 + 1, cdr);
        self.live += 1;
        self.stats.allocs += 1;
        self.stats.high_water = self.stats.high_water.max(self.live);
        Some(addr)
    }

    /// Return a cell to the free list.
    ///
    /// # Panics
    /// Debug-panics if the cell is already free.
    pub fn free_cell(&mut self, addr: HeapAddr) {
        debug_assert!(!self.is_free(addr), "double free of {addr}");
        // Link to the effective head, exactly the word the eagerly
        // threaded heap would have had in `free_head` here.
        self.arena
            .write(addr.index() * 2, Word::free_link(self.effective_head()));
        self.arena.write(addr.index() * 2 + 1, Word::UNUSED);
        self.free_head = Some(addr);
        self.live -= 1;
        self.stats.frees += 1;
    }

    /// Whether the cell is on the free list (virgin cells are; below
    /// the frontier, by tag inspection).
    pub fn is_free(&self, addr: HeapAddr) -> bool {
        addr.index() >= self.frontier || self.arena.read(addr.index() * 2).tag() == Tag::FreeLink
    }

    /// Raw car word — no invisible-pointer dereference (for collectors).
    #[inline]
    pub fn raw_car(&self, addr: HeapAddr) -> Word {
        self.arena.read(addr.index() * 2)
    }

    /// Raw cdr word — no invisible-pointer dereference (for collectors).
    #[inline]
    pub fn raw_cdr(&self, addr: HeapAddr) -> Word {
        self.arena.read(addr.index() * 2 + 1)
    }

    /// Overwrite the raw car word (for collectors).
    #[inline]
    pub fn set_raw_car(&mut self, addr: HeapAddr, w: Word) {
        self.arena.write(addr.index() * 2, w);
    }

    /// Overwrite the raw cdr word (for collectors).
    #[inline]
    pub fn set_raw_cdr(&mut self, addr: HeapAddr, w: Word) {
        self.arena.write(addr.index() * 2 + 1, w);
    }

    /// Dereference invisible pointers until an ordinary word remains.
    fn chase(&self, mut w: Word) -> Word {
        while w.tag() == Tag::Invisible {
            w = self.arena.read(w.addr().index() * 2);
        }
        w
    }

    /// `car` of the cell at `addr`, chasing invisible pointers.
    #[inline]
    pub fn car(&self, addr: HeapAddr) -> Word {
        self.chase(self.raw_car(addr))
    }

    /// `cdr` of the cell at `addr`, chasing invisible pointers.
    #[inline]
    pub fn cdr(&self, addr: HeapAddr) -> Word {
        self.chase(self.raw_cdr(addr))
    }

    /// Replace the car pointer (`rplaca`).
    #[inline]
    pub fn rplaca(&mut self, addr: HeapAddr, w: Word) {
        self.set_raw_car(addr, w);
    }

    /// Replace the cdr pointer (`rplacd`).
    #[inline]
    pub fn rplacd(&mut self, addr: HeapAddr, w: Word) {
        self.set_raw_cdr(addr, w);
    }

    /// Read an s-expression into the heap, returning its tagged word
    /// (atoms are immediate; lists return a pointer). This is the heap
    /// side of the `readlist` operation (§4.3.2.2.1).
    ///
    /// Returns `None` if the heap fills up mid-construction (partial
    /// structure is left allocated; callers running a collector should
    /// retry after a GC with the same expression).
    pub fn intern(&mut self, expr: &SExpr) -> Option<Word> {
        match expr {
            SExpr::Nil => Some(Word::NIL),
            SExpr::Atom(Atom::Int(i)) => Some(Word::int(*i)),
            SExpr::Atom(Atom::Sym(s)) => Some(Word::sym(s.0)),
            SExpr::Cons(c) => {
                let car = self.intern(&c.0)?;
                let cdr = self.intern(&c.1)?;
                self.alloc(car, cdr).map(Word::ptr)
            }
        }
    }

    /// Reconstruct the s-expression rooted at `w` (inverse of
    /// [`TwoPointerHeap::intern`]); used by `writelist` and tests.
    pub fn extract(&self, w: Word) -> SExpr {
        match self.chase(w).tag() {
            Tag::Nil => SExpr::Nil,
            Tag::Int => SExpr::int(w.as_int()),
            Tag::Sym => SExpr::sym(small_sexpr::Symbol(w.as_sym())),
            Tag::Ptr => {
                let a = self.chase(w).addr();
                SExpr::cons(self.extract(self.car(a)), self.extract(self.cdr(a)))
            }
            t => panic!("extract of non-value word with tag {t:?}"),
        }
    }

    /// The free-list head as the eagerly threaded heap would hold it:
    /// the explicit list, or — when it is empty — the virgin suffix.
    fn effective_head(&self) -> Option<HeapAddr> {
        self.free_head
            .or_else(|| (self.frontier < self.capacity).then_some(HeapAddr(self.frontier as u32)))
    }

    /// Backing length, in words, for a heap whose frontier is at
    /// `frontier`: the initial backing, doubled until it covers the
    /// frontier, so growth cost amortizes to O(peak usage).
    fn backing_words(frontier: usize, capacity: usize) -> usize {
        let mut len = (capacity * 2).min(Self::INITIAL_ARENA_WORDS);
        while len < frontier * 2 {
            len = (len.max(1) * 2).min(capacity * 2);
        }
        len
    }

    /// Flatten the heap state for an image export: the arena words of
    /// the cells below the frontier (the virgin suffix holds no state)
    /// and the scalars `[free_head, live, capacity, allocs, frees,
    /// high_water, frontier]`. `free_head` is the effective head (see
    /// [`TwoPointerHeap::free_cell`]), with `u64::MAX` encoding `None`.
    pub(crate) fn export_state(&self) -> (Vec<u64>, Vec<u64>) {
        let arena = self.arena.raw_words()[..self.frontier * 2].to_vec();
        let scalars = vec![
            crate::persist::opt_addr_to_word(self.effective_head()),
            self.live as u64,
            self.capacity as u64,
            self.stats.allocs,
            self.stats.frees,
            self.stats.high_water as u64,
            self.frontier as u64,
        ];
        (arena, scalars)
    }

    /// Inverse of [`TwoPointerHeap::export_state`], straight into the
    /// lazy-frontier arena. An image with six scalars (checkpoint
    /// version 1, threaded eagerly to the last cell) is the case
    /// `frontier == capacity`.
    ///
    /// Fails closed on any image whose addresses could later reach an
    /// unchecked arena access or a panic; see
    /// [`TwoPointerHeap::check_image`].
    pub(crate) fn import_state(
        arena: &[u64],
        scalars: &[u64],
    ) -> Result<Self, crate::persist::ImageError> {
        use crate::persist::{counter, ImageError};
        let word = |w: u64| usize::try_from(w).map_err(|_| ImageError::Malformed);
        let Some((&[head, live, capacity, allocs, frees, high_water], rest)) =
            scalars.split_first_chunk()
        else {
            return Err(ImageError::Malformed);
        };
        let capacity = word(capacity)?;
        let frontier = match rest {
            [] => capacity,
            &[frontier] => word(frontier)?,
            _ => return Err(ImageError::Malformed),
        };
        let live = word(live)?;
        // Cell indices stay below `u32::MAX`, the `None` link.
        if capacity > u32::MAX as usize || frontier > capacity || arena.len() != frontier * 2 {
            return Err(ImageError::Malformed);
        }
        // Zero-backed past the frontier, as in `with_capacity`.
        let mut words = vec![0; Self::backing_words(frontier, capacity)];
        words[..arena.len()].copy_from_slice(arena);
        let mut heap = TwoPointerHeap {
            arena: Arena::from_raw_words(words),
            free_head: None,
            frontier,
            live,
            capacity,
            stats: HeapStats {
                allocs: counter(allocs)?,
                frees: counter(frees)?,
                high_water: word(high_water)?,
            },
        };
        let head = crate::persist::word_to_opt_addr(head)?;
        heap.check_image(head)?;
        heap.free_head = head.filter(|a| a.index() < frontier);
        Ok(heap)
    }

    /// Validate an imported heap whose effective free-list head is
    /// `head`, reading only words below the frontier:
    ///
    /// * the free list threads distinct free cells below the frontier
    ///   and ends where [`TwoPointerHeap::alloc`] expects: on the
    ///   frontier, or on `None` once no virgin cell remains;
    /// * every free cell is on it, and the others number `live`;
    /// * a live cell holds value words only, and its pointers name
    ///   live cells. The controller never rewrites a cell after
    ///   allocating it, so a pointer always names an older cell and
    ///   the cells form a DAG; a cycle is rejected too, since
    ///   [`TwoPointerHeap::extract`] would not return from one.
    fn check_image(&self, head: Option<HeapAddr>) -> Result<(), crate::persist::ImageError> {
        use crate::persist::ImageError;
        let f = self.frontier;
        let ends = |link: Option<HeapAddr>| match link {
            None => f == self.capacity,
            Some(a) => a.index() == f && f < self.capacity,
        };
        let mut free = vec![false; f];
        let mut cursor = head;
        while !ends(cursor) {
            let i = cursor
                .map(HeapAddr::index)
                .filter(|&i| i < f && !free[i])
                .ok_or(ImageError::Malformed)?;
            let w = self.arena.read(i * 2);
            if w.tag() != Tag::FreeLink {
                return Err(ImageError::Malformed);
            }
            free[i] = true;
            cursor = w.free_next();
        }
        // Depth-first over the pointer graph: 1 = on the current path,
        // 2 = finished.
        let mut mark = vec![0u8; f];
        let mut live = 0;
        let mut path = Vec::new();
        for root in 0..f {
            if self.arena.read(root * 2).tag() == Tag::FreeLink {
                if !free[root] {
                    return Err(ImageError::Malformed);
                }
                continue;
            }
            live += 1;
            if mark[root] != 0 {
                continue;
            }
            mark[root] = 1;
            path.push((root, 0));
            while let Some((cell, half)) = path.last_mut() {
                if *half == 2 {
                    mark[*cell] = 2;
                    path.pop();
                    continue;
                }
                let w = self.arena.read(*cell * 2 + *half);
                *half += 1;
                match w.tag() {
                    Tag::Nil | Tag::Int | Tag::Sym => {}
                    Tag::Ptr => {
                        let to = w.addr().index();
                        if to >= f || free[to] || mark[to] == 1 {
                            return Err(ImageError::Malformed);
                        }
                        if mark[to] == 0 {
                            mark[to] = 1;
                            path.push((to, 0));
                        }
                    }
                    _ => return Err(ImageError::Malformed),
                }
            }
        }
        if live != self.live {
            return Err(ImageError::Malformed);
        }
        Ok(())
    }

    /// Iterate the addresses of all live (non-free) cells.
    pub fn live_cells(&self) -> impl Iterator<Item = HeapAddr> + '_ {
        // Every cell at or above the frontier is free.
        (0..self.frontier).filter_map(|i| {
            let a = HeapAddr(i as u32);
            (!self.is_free(a)).then_some(a)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use small_sexpr::{parse, print, Interner};

    #[test]
    fn alloc_until_exhaustion() {
        let mut h = TwoPointerHeap::with_capacity(3);
        assert_eq!(h.free(), 3);
        let a = h.alloc(Word::int(1), Word::NIL).unwrap();
        let b = h.alloc(Word::int(2), Word::ptr(a)).unwrap();
        let _c = h.alloc(Word::int(3), Word::ptr(b)).unwrap();
        assert_eq!(h.free(), 0);
        assert!(h.alloc(Word::NIL, Word::NIL).is_none());
        assert_eq!(h.stats().high_water, 3);
    }

    #[test]
    fn free_and_reuse() {
        let mut h = TwoPointerHeap::with_capacity(2);
        let a = h.alloc(Word::int(1), Word::NIL).unwrap();
        h.free_cell(a);
        assert_eq!(h.live(), 0);
        let b = h.alloc(Word::int(2), Word::NIL).unwrap();
        assert_eq!(a, b, "LIFO free list reuses the last freed cell");
    }

    #[test]
    fn car_cdr_rplac() {
        let mut h = TwoPointerHeap::with_capacity(4);
        let a = h.alloc(Word::int(1), Word::NIL).unwrap();
        assert_eq!(h.car(a).as_int(), 1);
        assert!(h.cdr(a).is_nil());
        h.rplaca(a, Word::int(9));
        h.rplacd(a, Word::ptr(a));
        assert_eq!(h.car(a).as_int(), 9);
        assert_eq!(h.cdr(a).addr(), a);
    }

    #[test]
    fn invisible_pointer_chased() {
        let mut h = TwoPointerHeap::with_capacity(4);
        let real = h.alloc(Word::int(5), Word::NIL).unwrap();
        let holder = h.alloc(Word::invisible(real), Word::NIL).unwrap();
        let outer = h.alloc(Word::ptr(holder), Word::NIL).unwrap();
        // car(outer) is a pointer to holder; car(holder) chases the
        // invisible pointer down to cell `real`'s car.
        let w = h.car(outer);
        assert_eq!(w.addr(), holder);
        assert_eq!(h.car(w.addr()).as_int(), 5);
    }

    #[test]
    fn intern_extract_roundtrip() {
        let mut i = Interner::new();
        let mut h = TwoPointerHeap::with_capacity(64);
        for src in ["(a b c (d e) f g)", "((1 2) (3 4) . tail)", "nil", "77"] {
            let e = parse(src, &mut i).unwrap();
            let w = h.intern(&e).unwrap();
            let back = h.extract(w);
            assert_eq!(print(&back, &i), print(&e, &i), "{src}");
        }
    }

    #[test]
    fn intern_fails_when_full_but_is_retryable() {
        let mut i = Interner::new();
        let mut h = TwoPointerHeap::with_capacity(2);
        let e = parse("(a b c)", &mut i).unwrap();
        assert!(h.intern(&e).is_none());
    }

    #[test]
    fn live_cells_iteration() {
        let mut h = TwoPointerHeap::with_capacity(4);
        let a = h.alloc(Word::int(1), Word::NIL).unwrap();
        let b = h.alloc(Word::int(2), Word::NIL).unwrap();
        h.free_cell(a);
        let live: Vec<_> = h.live_cells().collect();
        assert_eq!(live, vec![b]);
    }
}
