//! Mark-and-sweep collection (Schorr/Waite lineage, §2.3.4).
//!
//! All accessible cells are marked starting from a root set, following
//! car/cdr pointers; unmarked live cells are swept onto the free list.
//! Marking costs one bit per cell, kept in a side bitmap (the thesis
//! machines keep it in the tag word).

use crate::two_pointer::TwoPointerHeap;
use crate::word::{HeapAddr, Tag, Word};

/// A reusable mark-and-sweep collector for a [`TwoPointerHeap`].
#[derive(Default)]
pub struct MarkSweep {
    marks: Vec<u64>,
    /// Explicit mark stack (avoids unbounded recursion on long lists).
    stack: Vec<HeapAddr>,
    /// Statistics: collections run.
    pub collections: u64,
    /// Statistics: total cells reclaimed.
    pub reclaimed: u64,
    /// Statistics: cells visited — marked by the mark phase plus
    /// examined by the sweep.
    pub visited: u64,
}

impl MarkSweep {
    /// Create a collector.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn mark_bit(&mut self, a: HeapAddr) -> bool {
        let (w, b) = (a.index() / 64, a.index() % 64);
        let old = self.marks[w] >> b & 1 == 1;
        self.marks[w] |= 1 << b;
        old
    }

    /// Collect garbage: mark from `roots`, sweep everything unmarked.
    /// Returns the number of cells reclaimed.
    pub fn collect(&mut self, heap: &mut TwoPointerHeap, roots: &[Word]) -> usize {
        self.collections += 1;
        self.marks.clear();
        self.marks.resize(heap.capacity().div_ceil(64), 0);

        // Mark phase.
        for r in roots {
            self.push_word(*r);
        }
        while let Some(a) = self.stack.pop() {
            if self.mark_bit(a) {
                continue;
            }
            self.visited += 1;
            let car = heap.raw_car(a);
            let cdr = heap.raw_cdr(a);
            self.push_word(car);
            self.push_word(cdr);
        }

        // Sweep phase.
        let mut freed = 0;
        let live: Vec<HeapAddr> = heap.live_cells().collect();
        self.visited += live.len() as u64;
        for a in live {
            let (w, b) = (a.index() / 64, a.index() % 64);
            if self.marks[w] >> b & 1 == 0 {
                heap.free_cell(a);
                freed += 1;
            }
        }
        self.reclaimed += freed as u64;
        freed
    }

    #[inline]
    fn push_word(&mut self, w: Word) {
        if matches!(w.tag(), Tag::Ptr | Tag::Invisible) {
            self.stack.push(w.addr());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use small_sexpr::{parse, print, Interner};

    #[test]
    fn unreferenced_cells_are_reclaimed() {
        let mut h = TwoPointerHeap::with_capacity(16);
        let keep = h.alloc(Word::int(1), Word::NIL).unwrap();
        let _drop1 = h.alloc(Word::int(2), Word::NIL).unwrap();
        let _drop2 = h.alloc(Word::int(3), Word::NIL).unwrap();
        let mut gc = MarkSweep::new();
        let freed = gc.collect(&mut h, &[Word::ptr(keep)]);
        assert_eq!(freed, 2);
        assert_eq!(h.live(), 1);
        assert_eq!(h.car(keep).as_int(), 1);
    }

    #[test]
    fn reachable_structure_survives() {
        let mut i = Interner::new();
        let mut h = TwoPointerHeap::with_capacity(64);
        let e = parse("(a (b c) d)", &mut i).unwrap();
        let w = h.intern(&e).unwrap();
        let _garbage = h.intern(&parse("(x y z)", &mut i).unwrap()).unwrap();
        let mut gc = MarkSweep::new();
        let freed = gc.collect(&mut h, &[w]);
        assert_eq!(freed, 3);
        assert_eq!(print(&h.extract(w), &i), "(a (b c) d)");
    }

    #[test]
    fn cycles_are_collected() {
        // Mark-sweep reclaims circular garbage — the advantage over
        // reference counting the thesis highlights (§2.3.4).
        let mut h = TwoPointerHeap::with_capacity(8);
        let a = h.alloc(Word::int(1), Word::NIL).unwrap();
        let b = h.alloc(Word::int(2), Word::ptr(a)).unwrap();
        h.rplacd(a, Word::ptr(b)); // a <-> b cycle
        let mut gc = MarkSweep::new();
        let freed = gc.collect(&mut h, &[]);
        assert_eq!(freed, 2);
        assert_eq!(h.live(), 0);
    }

    #[test]
    fn cycles_reachable_from_roots_survive() {
        let mut h = TwoPointerHeap::with_capacity(8);
        let a = h.alloc(Word::int(1), Word::NIL).unwrap();
        let b = h.alloc(Word::int(2), Word::ptr(a)).unwrap();
        h.rplacd(a, Word::ptr(b));
        let mut gc = MarkSweep::new();
        assert_eq!(gc.collect(&mut h, &[Word::ptr(a)]), 0);
        assert_eq!(h.live(), 2);
    }

    #[test]
    fn shared_structure_marked_once() {
        let mut h = TwoPointerHeap::with_capacity(8);
        let shared = h.alloc(Word::int(7), Word::NIL).unwrap();
        let a = h.alloc(Word::ptr(shared), Word::NIL).unwrap();
        let b = h.alloc(Word::ptr(shared), Word::NIL).unwrap();
        let mut gc = MarkSweep::new();
        assert_eq!(gc.collect(&mut h, &[Word::ptr(a), Word::ptr(b)]), 0);
    }

    #[test]
    fn collect_then_allocate_reuses_space() {
        let mut h = TwoPointerHeap::with_capacity(4);
        for _ in 0..4 {
            h.alloc(Word::int(0), Word::NIL).unwrap();
        }
        assert!(h.alloc(Word::int(1), Word::NIL).is_none());
        let mut gc = MarkSweep::new();
        gc.collect(&mut h, &[]);
        assert!(h.alloc(Word::int(1), Word::NIL).is_some());
    }
}
