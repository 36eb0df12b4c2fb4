//! MIT-Lisp-machine style cdr-coded list representation (Figure 2.8).
//!
//! Each cell is a full-width car word plus a 2-bit *cdr code*:
//!
//! * [`CdrCode::Next`] — the cdr is the cell at the next address,
//! * [`CdrCode::Nil`] — the cdr is `nil` (end of a vector run),
//! * [`CdrCode::Normal`] — the cdr *pointer* is stored in the car word of
//!   the next cell, which is tagged [`CdrCode::Error`]; the pair together
//!   behaves like one two-pointer cell,
//! * [`CdrCode::Error`] — the second half of a `Normal` pair.
//!
//! Linear lists are laid out as contiguous `Next…Next Nil` runs, giving
//! the space efficiency and prefetchable addressing of a vector-coded
//! representation. Destructive `rplacd` on a `Next`/`Nil` cell cannot be
//! done in place; following the MIT scheme the cell is rewritten as an
//! **invisible pointer** to a freshly allocated `Normal`/`Error` pair
//! (§2.3.3.1), which accessors chase transparently.

use crate::controller::HeapError;
use crate::word::{HeapAddr, Tag, Word};

/// The 2-bit cdr code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CdrCode {
    /// Cdr is the next cell.
    Next = 0,
    /// Cdr is nil.
    Nil = 1,
    /// Cdr pointer is in the next cell (which is `Error`).
    Normal = 2,
    /// Second word of a `Normal` pair.
    Error = 3,
}

/// A cdr-coded heap: parallel arrays of car words and cdr codes with a
/// bump allocator (compacting reclamation is left to a copying collector;
/// the SMALL machine itself reclaims via the LPT instead, §5.3.2).
///
/// The arrays hold only the cells bumped so far, so their length is the
/// bump pointer; cells past it do not exist yet and address as
/// [`HeapError::BadAddress`].
pub struct CdrCodedHeap {
    cars: Vec<Word>,
    codes: Vec<CdrCode>,
    /// Total capacity in cells.
    capacity: usize,
}

impl CdrCodedHeap {
    /// Create a heap with room for `cells` cdr-coded cells.
    pub fn with_capacity(cells: usize) -> Self {
        CdrCodedHeap {
            cars: Vec::new(),
            codes: Vec::new(),
            capacity: cells,
        }
    }

    /// Cells allocated so far.
    pub fn used(&self) -> usize {
        self.cars.len()
    }

    /// Total capacity in cells.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn bump(&mut self, n: usize) -> Option<usize> {
        let at = self.cars.len();
        if at + n > self.capacity {
            return None;
        }
        self.cars.resize(at + n, Word::UNUSED);
        self.codes.resize(at + n, CdrCode::Nil);
        Some(at)
    }

    /// Chase invisible pointers to the cell that actually holds data.
    ///
    /// Out-of-bounds addresses and forwarding cycles surface as
    /// [`HeapError::BadAddress`] rather than panicking, so corrupted
    /// or injected-fault addresses degrade through typed errors.
    fn resolve(&self, mut addr: HeapAddr) -> Result<HeapAddr, HeapError> {
        let mut hops = 0usize;
        loop {
            let w = self.cars.get(addr.index()).ok_or(HeapError::BadAddress)?;
            if w.tag() != Tag::Invisible {
                return Ok(addr);
            }
            addr = w.addr();
            hops += 1;
            if hops > self.cars.len() {
                // Forwarding chain longer than the heap: a cycle.
                return Err(HeapError::BadAddress);
            }
        }
    }

    /// The car of the cell at `addr`.
    pub fn car(&self, addr: HeapAddr) -> Result<Word, HeapError> {
        let a = self.resolve(addr)?;
        Ok(self.cars[a.index()])
    }

    /// The cdr of the cell at `addr`, interpreted per its cdr code.
    ///
    /// Addressing the second word of a `Normal` pair (a `CdrCode::Error`
    /// cell) is not a list operation; it reports [`HeapError::BadAddress`].
    pub fn cdr(&self, addr: HeapAddr) -> Result<Word, HeapError> {
        let a = self.resolve(addr)?.index();
        match self.codes[a] {
            CdrCode::Next if a + 1 < self.cars.len() => Ok(Word::ptr(HeapAddr((a + 1) as u32))),
            CdrCode::Next => Err(HeapError::BadAddress),
            CdrCode::Nil => Ok(Word::NIL),
            CdrCode::Normal => self.cars.get(a + 1).copied().ok_or(HeapError::BadAddress),
            CdrCode::Error => Err(HeapError::BadAddress),
        }
    }

    /// Replace the car (`rplaca`): always possible in place.
    pub fn rplaca(&mut self, addr: HeapAddr, w: Word) -> Result<(), HeapError> {
        let a = self.resolve(addr)?;
        self.cars[a.index()] = w;
        Ok(())
    }

    /// Replace the cdr (`rplacd`).
    ///
    /// For a `Normal` cell this is an in-place write of the second word.
    /// For `Next`/`Nil` cells a fresh `Normal`/`Error` pair is allocated,
    /// the old cell becomes an invisible pointer to it, and subsequent
    /// accesses are forwarded. Reports [`HeapError::Exhausted`] if the
    /// pair allocation failed and [`HeapError::BadAddress`] for an
    /// `Error`-cell or unresolvable operand.
    pub fn rplacd(&mut self, addr: HeapAddr, w: Word) -> Result<(), HeapError> {
        let a = self.resolve(addr)?.index();
        match self.codes[a] {
            CdrCode::Normal => {
                if a + 1 >= self.cars.len() {
                    return Err(HeapError::BadAddress);
                }
                self.cars[a + 1] = w;
                Ok(())
            }
            CdrCode::Next | CdrCode::Nil => {
                let at = self.bump(2).ok_or(HeapError::Exhausted)?;
                self.cars[at] = self.cars[a];
                self.codes[at] = CdrCode::Normal;
                self.cars[at + 1] = w;
                self.codes[at + 1] = CdrCode::Error;
                self.cars[a] = Word::invisible(HeapAddr(at as u32));
                Ok(())
            }
            CdrCode::Error => Err(HeapError::BadAddress),
        }
    }

    /// Cons: allocate a `Normal`/`Error` pair (or a single `Nil` cell when
    /// the cdr is nil — the linearizing special case that keeps freshly
    /// consed lists compact, cf. Clark's linearization findings §3.2.1).
    pub fn cons(&mut self, car: Word, cdr: Word) -> Option<HeapAddr> {
        if cdr.is_nil() {
            let at = self.bump(1)?;
            self.cars[at] = car;
            self.codes[at] = CdrCode::Nil;
            Some(HeapAddr(at as u32))
        } else {
            let at = self.bump(2)?;
            self.cars[at] = car;
            self.codes[at] = CdrCode::Normal;
            self.cars[at + 1] = cdr;
            self.codes[at + 1] = CdrCode::Error;
            Some(HeapAddr(at as u32))
        }
    }

    /// Read a whole s-expression in, laying each proper-list level out as
    /// a contiguous cdr-coded run. Returns the value word.
    pub fn intern(&mut self, expr: &small_sexpr::SExpr) -> Option<Word> {
        use small_sexpr::{Atom, SExpr};
        match expr {
            SExpr::Nil => Some(Word::NIL),
            SExpr::Atom(Atom::Int(i)) => Some(Word::int(*i)),
            SExpr::Atom(Atom::Sym(s)) => Some(Word::sym(s.0)),
            SExpr::Cons(_) => {
                // Collect the top-level elements and any dotted tail.
                let mut elems = Vec::new();
                let mut cur = expr.clone();
                let tail = loop {
                    match cur {
                        SExpr::Cons(c) => {
                            elems.push(c.0.clone());
                            cur = c.1.clone();
                        }
                        SExpr::Nil => break None,
                        atom => break Some(atom),
                    }
                };
                // Intern elements first (their runs live elsewhere).
                let words: Vec<Word> = elems
                    .iter()
                    .map(|e| self.intern(e))
                    .collect::<Option<_>>()?;
                let tail_word = match &tail {
                    Some(t) => Some(self.intern(t)?),
                    None => None,
                };
                let extra = usize::from(tail_word.is_some());
                let at = self.bump(words.len() + extra)?;
                for (i, w) in words.iter().enumerate() {
                    self.cars[at + i] = *w;
                    self.codes[at + i] = CdrCode::Next;
                }
                match tail_word {
                    None => self.codes[at + words.len() - 1] = CdrCode::Nil,
                    Some(tw) => {
                        self.codes[at + words.len() - 1] = CdrCode::Normal;
                        self.cars[at + words.len()] = tw;
                        self.codes[at + words.len()] = CdrCode::Error;
                    }
                }
                Some(Word::ptr(HeapAddr(at as u32)))
            }
        }
    }

    /// Reconstruct the s-expression for a value word.
    pub fn extract(&self, w: Word) -> small_sexpr::SExpr {
        use small_sexpr::SExpr;
        match w.tag() {
            Tag::Nil => SExpr::Nil,
            Tag::Int => SExpr::int(w.as_int()),
            Tag::Sym => SExpr::sym(small_sexpr::Symbol(w.as_sym())),
            Tag::Ptr => {
                let a = w.addr();
                // Words produced by this heap always resolve; a failure
                // here means the caller handed in a foreign address.
                let car = self.car(a).expect("extract of unresolvable car");
                let cdr = self.cdr(a).expect("extract of unresolvable cdr");
                SExpr::cons(self.extract(car), self.extract(cdr))
            }
            Tag::Invisible => {
                let w = self
                    .cars
                    .get(w.addr().index())
                    .copied()
                    .expect("extract of out-of-bounds forward");
                self.extract(w)
            }
            t => panic!("extract of tag {t:?}"),
        }
    }

    /// Space used, in memory *words*, counting each cdr code as 1/32 of a
    /// word (codes pack 16-to-a-32-bit-word in hardware). Used by the
    /// representation-comparison bench.
    pub fn words_used(&self) -> f64 {
        self.used() as f64 * (1.0 + 2.0 / 64.0)
    }
}

/// A [`crate::controller::HeapController`] over the cdr-coded store —
/// the third representation behind the generic LP. Splitting a
/// cdr-coded object is cheap (§4.3.3.2: the car is the element word and
/// the cdr is simply the next cell of the run); merging allocates a
/// `Normal`/`Error` pair. The store is bump-allocated, so `free_object`
/// only counts reclaimable cells — compaction would be a copying
/// collector's job, which the SMALL machine replaces with LPT
/// reclamation (§5.3.2); suitable for benches and bounded runs.
pub struct CdrCodedController {
    heap: CdrCodedHeap,
    stats: crate::controller::ControllerStats,
}

impl CdrCodedController {
    /// A controller over a heap of `cells` cdr-coded cells.
    pub fn new(cells: usize) -> Self {
        CdrCodedController {
            heap: CdrCodedHeap::with_capacity(cells),
            stats: crate::controller::ControllerStats::default(),
        }
    }

    /// The backing store.
    pub fn heap(&self) -> &CdrCodedHeap {
        &self.heap
    }
}

impl crate::controller::HeapController for CdrCodedController {
    fn read_in(&mut self, expr: &small_sexpr::SExpr) -> Result<Word, crate::controller::HeapError> {
        self.stats.read_ins += 1;
        self.heap
            .intern(expr)
            .ok_or(crate::controller::HeapError::Exhausted)
    }

    fn split(
        &mut self,
        addr: HeapAddr,
    ) -> Result<crate::controller::SplitResult, crate::controller::HeapError> {
        self.stats.splits += 1;
        let car = self.heap.car(addr)?;
        let cdr = self.heap.cdr(addr)?;
        // The consumed head cell of the run is not compacted away (bump
        // store); count it as logically freed.
        self.stats.cells_freed += 1;
        Ok(crate::controller::SplitResult { car, cdr })
    }

    fn peek(
        &self,
        addr: HeapAddr,
    ) -> Result<crate::controller::SplitResult, crate::controller::HeapError> {
        // Cdr-coded car/cdr are naturally non-consuming.
        Ok(crate::controller::SplitResult {
            car: self.heap.car(addr)?,
            cdr: self.heap.cdr(addr)?,
        })
    }

    fn merge(&mut self, car: Word, cdr: Word) -> Result<HeapAddr, crate::controller::HeapError> {
        self.stats.merges += 1;
        self.heap
            .cons(car, cdr)
            .ok_or(crate::controller::HeapError::Exhausted)
    }

    fn free_object(&mut self, _addr: HeapAddr) {
        // Logical free only (see type-level docs).
        self.stats.frees_queued += 1;
    }

    fn extract(&self, w: Word) -> small_sexpr::SExpr {
        self.heap.extract(w)
    }

    fn stats(&self) -> crate::controller::ControllerStats {
        self.stats
    }
}

impl crate::persist::PersistableController for CdrCodedController {
    const KIND: &'static str = "cdr-coded";

    fn export_image(&self) -> crate::persist::ControllerImage {
        crate::persist::ControllerImage {
            kind: Self::KIND,
            sections: vec![
                ("cars", self.heap.cars.iter().map(|w| w.bits()).collect()),
                ("codes", self.heap.codes.iter().map(|c| *c as u64).collect()),
                (
                    "misc",
                    vec![self.heap.used() as u64, self.heap.capacity as u64],
                ),
                ("ctrl", crate::persist::stats_to_words(&self.stats)),
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
        let mut cars: Vec<Word> = image
            .section("cars")?
            .iter()
            .map(|&b| Word::from_bits(b))
            .collect();
        let mut codes = image
            .section("codes")?
            .iter()
            .map(|&b| match b {
                0 => Ok(CdrCode::Next),
                1 => Ok(CdrCode::Nil),
                2 => Ok(CdrCode::Normal),
                3 => Ok(CdrCode::Error),
                _ => Err(ImageError::Malformed),
            })
            .collect::<Result<Vec<CdrCode>, _>>()?;
        // `misc` is `[top, capacity]`. A version-1 image wrote `[top]`
        // and every cell up to capacity; the controller never writes
        // past `top`, so cutting those cells loses nothing.
        let word = |w: u64| usize::try_from(w).map_err(|_| ImageError::Malformed);
        let (top, capacity) = match *image.section("misc")? {
            [top] => (word(top)?, cars.len()),
            [top, capacity] => (word(top)?, word(capacity)?),
            _ => return Err(ImageError::Malformed),
        };
        if codes.len() != cars.len() || top > cars.len() || cars.len() > capacity {
            return Err(ImageError::Malformed);
        }
        cars.truncate(top);
        codes.truncate(top);
        Ok(CdrCodedController {
            heap: CdrCodedHeap {
                cars,
                codes,
                capacity,
            },
            stats: crate::persist::stats_from_words(image.section("ctrl")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use small_sexpr::{parse, print, Interner};

    fn roundtrip(src: &str) {
        let mut i = Interner::new();
        let e = parse(src, &mut i).unwrap();
        let mut h = CdrCodedHeap::with_capacity(256);
        let w = h.intern(&e).unwrap();
        assert_eq!(print(&h.extract(w), &i), print(&e, &i), "{src}");
    }

    #[test]
    fn intern_extract_roundtrips() {
        roundtrip("(a b c (d e) f g)");
        roundtrip("(a (b (c (d e f) g)))");
        roundtrip("(a . b)");
        roundtrip("(a b . c)");
        roundtrip("nil");
        roundtrip("(nil nil)");
    }

    #[test]
    fn linear_list_is_compact() {
        let mut i = Interner::new();
        let e = parse("(a b c d e f g h)", &mut i).unwrap();
        let mut h = CdrCodedHeap::with_capacity(64);
        h.intern(&e).unwrap();
        // 8 elements → exactly 8 cells (two-pointer needs 8 cells = 16 words).
        assert_eq!(h.used(), 8);
    }

    #[test]
    fn cdr_walk_follows_codes() {
        let mut i = Interner::new();
        let e = parse("(1 2 3)", &mut i).unwrap();
        let mut h = CdrCodedHeap::with_capacity(64);
        let w = h.intern(&e).unwrap();
        let a = w.addr();
        assert_eq!(h.car(a).unwrap().as_int(), 1);
        let b = h.cdr(a).unwrap().addr();
        assert_eq!(h.car(b).unwrap().as_int(), 2);
        let c = h.cdr(b).unwrap().addr();
        assert_eq!(h.car(c).unwrap().as_int(), 3);
        assert!(h.cdr(c).unwrap().is_nil());
    }

    #[test]
    fn rplaca_in_place() {
        let mut i = Interner::new();
        let e = parse("(1 2)", &mut i).unwrap();
        let mut h = CdrCodedHeap::with_capacity(64);
        let w = h.intern(&e).unwrap();
        let used = h.used();
        h.rplaca(w.addr(), Word::int(99)).unwrap();
        assert_eq!(h.used(), used, "rplaca must not allocate");
        assert_eq!(h.car(w.addr()).unwrap().as_int(), 99);
    }

    #[test]
    fn rplacd_on_compact_cell_forwards_invisibly() {
        let mut i = Interner::new();
        let e = parse("(1 2 3)", &mut i).unwrap();
        let mut h = CdrCodedHeap::with_capacity(64);
        let w = h.intern(&e).unwrap();
        let a = w.addr();
        // (rplacd x '(9)) → list becomes (1 9)
        let nine = h.intern(&parse("(9)", &mut i).unwrap()).unwrap();
        h.rplacd(a, nine).unwrap();
        let got = h.extract(w);
        assert_eq!(print(&got, &i), "(1 9)");
        // Old cell now forwards; car still accessible through it.
        assert_eq!(h.car(a).unwrap().as_int(), 1);
    }

    #[test]
    fn cons_onto_existing_list() {
        let mut i = Interner::new();
        let mut h = CdrCodedHeap::with_capacity(64);
        let tail = h.intern(&parse("(2 3)", &mut i).unwrap()).unwrap();
        let a = h.cons(Word::int(1), tail).unwrap();
        assert_eq!(print(&h.extract(Word::ptr(a)), &i), "(1 2 3)");
    }

    #[test]
    fn allocation_failure_reported() {
        let mut i = Interner::new();
        let mut h = CdrCodedHeap::with_capacity(2);
        assert!(h.intern(&parse("(1 2 3)", &mut i).unwrap()).is_none());
    }

    #[test]
    fn bad_addresses_are_typed_errors_not_panics() {
        let mut i = Interner::new();
        let mut h = CdrCodedHeap::with_capacity(8);
        let w = h.intern(&parse("(1 . 2)", &mut i).unwrap()).unwrap();
        // Out of bounds.
        let oob = HeapAddr(999);
        assert_eq!(h.car(oob), Err(HeapError::BadAddress));
        assert_eq!(h.cdr(oob), Err(HeapError::BadAddress));
        assert_eq!(h.rplaca(oob, Word::int(0)), Err(HeapError::BadAddress));
        assert_eq!(h.rplacd(oob, Word::int(0)), Err(HeapError::BadAddress));
        // The Error half of the Normal pair backing (1 . 2).
        let err_cell = HeapAddr(w.addr().0 + 1);
        assert_eq!(h.cdr(err_cell), Err(HeapError::BadAddress));
        assert_eq!(h.rplacd(err_cell, Word::int(0)), Err(HeapError::BadAddress));
        // The good cell still works.
        assert_eq!(h.car(w.addr()).unwrap().as_int(), 1);
    }

    #[test]
    fn controller_split_of_bad_address_is_typed() {
        use crate::controller::HeapController;
        let mut c = CdrCodedController::new(8);
        assert_eq!(c.split(HeapAddr(77)), Err(HeapError::BadAddress));
    }
}
