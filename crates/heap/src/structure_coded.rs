//! Structure-coded list representations (§2.3.3.2, Figures 2.9–2.10).
//!
//! A structure-coded scheme tags each symbol with its *position in the
//! list structure* so elements can be addressed independently, without
//! walking pointer chains:
//!
//! * **Minsky / BLAST node numbers** — map the list to a binary tree
//!   (Figure 2.9) and compress the `(l, k)` level/position pair into
//!   `N = 2^l + k`; a list is then a set of `(node number, symbol)`
//!   tuples stored in an *exception table* with associative lookup.
//! * **CDAR codes** — the string of car (`0`) / cdr (`1`) steps that
//!   reach the symbol, read right-to-left (Figure 2.10); this is exactly
//!   the node number's path bits reversed.
//! * **EPS** (explicit parenthesis storage) — each symbol is tagged with
//!   the number of left parens before it, right parens before or
//!   immediately after it, and its ordinal position (Figure 2.10).
//!
//! [`StructureCodedHeap`] implements the BLAST exception-table object
//! store with the **split** and **merge** operations the SMALL heap
//! controller needs (§4.3.3.2): split partitions a table by subtree and
//! renumbers; merge allocates a two-entry table of forwarding pointers.

use crate::word::{HeapAddr, Tag, Word};
use small_sexpr::{Atom, SExpr};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Node numbers and CDAR codes
// ---------------------------------------------------------------------

/// A Minsky/BLAST node number `N = 2^l + k`. The root is 1; the car child
/// of `N` is `2N`, the cdr child `2N + 1`.
pub type NodeNum = u64;

/// The car child of a node.
#[inline]
pub fn car_child(n: NodeNum) -> NodeNum {
    n * 2
}

/// The cdr child of a node.
#[inline]
pub fn cdr_child(n: NodeNum) -> NodeNum {
    n * 2 + 1
}

/// The level `l` of a node (root = 0). Equals the CDAR code length.
#[inline]
pub fn level(n: NodeNum) -> u32 {
    63 - n.leading_zeros()
}

/// Render the CDAR code of a node as the thesis prints it (Figure 2.10):
/// the sequence of car (`0`) / cdr (`1`) operations applied, *rightmost
/// first*, left-padded with `0` to `width` characters.
pub fn cdar_code(n: NodeNum, width: usize) -> String {
    let l = level(n) as usize;
    let path = n - (1u64 << l);
    // Top-down path: bit (l-1-i) of `path` is the i-th step from the root
    // (0 = car, 1 = cdr). Figure 2.10 writes the code with the *first*
    // step from the root rightmost, i.e. the top-down path reversed,
    // left-padded with '0'.
    let mut out = vec![b'0'; width.saturating_sub(l)];
    out.extend((0..l).rev().map(|i| {
        if path >> (l - 1 - i) & 1 == 1 {
            b'1'
        } else {
            b'0'
        }
    }));
    String::from_utf8(out).expect("ascii")
}

// ---------------------------------------------------------------------
// EPS representation
// ---------------------------------------------------------------------

/// One EPS tuple: a symbol tagged with explicit parenthesis counts
/// (Figure 2.10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpsEntry {
    /// Number of left parentheses in the list to the left of the atom.
    pub left: u32,
    /// Number of right parentheses to the left of *and immediately
    /// following* the atom.
    pub right: u32,
    /// 1-based position of the atom in the list.
    pub position: u32,
    /// The atom itself.
    pub atom: Atom,
}

/// Encode a proper list into its EPS tuples.
pub fn eps_encode(expr: &SExpr) -> Vec<EpsEntry> {
    let mut out = Vec::new();
    let mut left = 0u32;
    let mut right = 0u32;
    let mut position = 0u32;
    fn go(e: &SExpr, out: &mut Vec<EpsEntry>, left: &mut u32, right: &mut u32, position: &mut u32) {
        *left += 1; // opening paren of this list
        for item in e.iter() {
            match item {
                SExpr::Atom(a) => {
                    *position += 1;
                    out.push(EpsEntry {
                        left: *left,
                        right: *right,
                        position: *position,
                        atom: *a,
                    });
                }
                SExpr::Cons(_) => go(item, out, left, right, position),
                SExpr::Nil => {
                    // `nil` prints as an atom-like token; EPS has no slot
                    // for it — we skip, as the scheme stores symbols only.
                }
            }
        }
        *right += 1; // closing paren
        if let Some(last) = out.last_mut() {
            // The close paren immediately follows the last emitted atom.
            if last.right < *right {
                last.right = *right;
            }
        }
    }
    go(expr, &mut out, &mut left, &mut right, &mut position);
    out
}

// ---------------------------------------------------------------------
// Exception tables (BLAST-style object store)
// ---------------------------------------------------------------------

/// An entry value in an exception table: a leaf atom/nil, or a forwarding
/// pointer to another table (created by merge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableValue {
    /// A leaf holding a tagged word (nil / int / sym).
    Leaf(Word),
    /// The entire subtree rooted here lives in another table.
    Forward(HeapAddr),
}

/// One list object: a map from node numbers to leaf values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExceptionTable {
    entries: BTreeMap<NodeNum, TableValue>,
}

impl ExceptionTable {
    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no tuples are stored (the object is `nil`).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The store of exception-table objects.
#[derive(Default)]
pub struct StructureCodedHeap {
    tables: Vec<Option<ExceptionTable>>,
    free: Vec<HeapAddr>,
    /// Forwarding-pointer dereferences performed (the indirect-access
    /// cost §4.3.3.2 warns about). A `Cell` so read-side operations can
    /// count without `&mut`.
    pub forward_derefs: std::cell::Cell<u64>,
    /// Associative searches of an exception table (the §2.3.3.2 access
    /// cost): one per tuple inserted by [`Self::intern`], one per exact
    /// or ancestor key tried by [`Self::lookup`], and one for its
    /// "any key below this node" query. A measurement of this process
    /// only: images do not carry it.
    pub probes: std::cell::Cell<u64>,
}

impl StructureCodedHeap {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live tables.
    pub fn live(&self) -> usize {
        self.tables.iter().flatten().count()
    }

    fn alloc_table(&mut self, t: ExceptionTable) -> HeapAddr {
        if let Some(a) = self.free.pop() {
            self.tables[a.index()] = Some(t);
            a
        } else {
            self.tables.push(Some(t));
            HeapAddr((self.tables.len() - 1) as u32)
        }
    }

    /// Free a table.
    pub fn free_table(&mut self, a: HeapAddr) {
        debug_assert!(self.tables[a.index()].is_some(), "double free of {a}");
        self.tables[a.index()] = None;
        self.free.push(a);
    }

    /// Intern an s-expression as one exception table; returns its word
    /// (atoms are immediate).
    pub fn intern(&mut self, expr: &SExpr) -> Word {
        match expr {
            SExpr::Nil => Word::NIL,
            SExpr::Atom(Atom::Int(i)) => Word::int(*i),
            SExpr::Atom(Atom::Sym(s)) => Word::sym(s.0),
            SExpr::Cons(_) => {
                let mut t = ExceptionTable::default();
                fn go(e: &SExpr, num: NodeNum, t: &mut ExceptionTable) {
                    match e {
                        SExpr::Cons(c) => {
                            go(&c.0, car_child(num), t);
                            go(&c.1, cdr_child(num), t);
                        }
                        SExpr::Nil => {
                            t.entries.insert(num, TableValue::Leaf(Word::NIL));
                        }
                        SExpr::Atom(Atom::Int(i)) => {
                            t.entries.insert(num, TableValue::Leaf(Word::int(*i)));
                        }
                        SExpr::Atom(Atom::Sym(s)) => {
                            t.entries.insert(num, TableValue::Leaf(Word::sym(s.0)));
                        }
                    }
                }
                go(expr, 1, &mut t);
                self.probe(t.len() as u64);
                Word::ptr(self.alloc_table(t))
            }
        }
    }

    fn probe(&self, n: u64) {
        self.probes.set(self.probes.get() + n);
    }

    /// Look up the value at `num` in the object at `a`, chasing
    /// forwarding pointers. Returns:
    ///
    /// * `Some(Ok(word))` — a leaf,
    /// * `Some(Err(()))` — an internal node (subtree exists below),
    /// * `None` — no such node.
    pub fn lookup(&self, mut a: HeapAddr, mut num: NodeNum) -> Option<Result<Word, ()>> {
        'tables: loop {
            let t = self.tables[a.index()].as_ref().expect("freed table");
            // Exact hit.
            self.probe(1);
            if let Some(v) = t.entries.get(&num).copied() {
                match v {
                    TableValue::Leaf(w) => return Some(Ok(w)),
                    TableValue::Forward(fa) => {
                        self.forward_derefs.set(self.forward_derefs.get() + 1);
                        a = fa;
                        num = 1;
                        continue 'tables;
                    }
                }
            }
            // Deepest stored ancestor, if any, covers `num`.
            let mut anc = num >> 1;
            while anc >= 1 {
                self.probe(1);
                match t.entries.get(&anc).copied() {
                    Some(TableValue::Forward(fa)) => {
                        self.forward_derefs.set(self.forward_derefs.get() + 1);
                        // Replay the path from `anc` down to `num` from
                        // the forwarded table's root.
                        let depth = level(num) - level(anc);
                        let rel = num - (anc << depth);
                        a = fa;
                        num = (1u64 << depth) + rel;
                        continue 'tables;
                    }
                    Some(TableValue::Leaf(_)) => return None, // below a leaf
                    None => {}
                }
                if anc == 1 {
                    break;
                }
                anc >>= 1;
            }
            // No covering entry: `num` is internal iff some stored key
            // lies strictly below it.
            let dn = level(num);
            self.probe(1);
            let has_descendant = t.entries.keys().any(|k| {
                let dk = level(*k);
                dk > dn && (*k >> (dk - dn)) == num
            });
            return if has_descendant { Some(Err(())) } else { None };
        }
    }

    /// Split the object at `a` into its car and cdr parts (§4.3.3.2):
    /// every tuple is copied into one of two new tables, renumbered one
    /// level up; `a` is freed. Returns the value words for both halves.
    pub fn split(&mut self, a: HeapAddr) -> (Word, Word) {
        let t = self.tables[a.index()].take().expect("freed table");
        self.free.push(a);
        let mut left = ExceptionTable::default();
        let mut right = ExceptionTable::default();
        for (num, v) in t.entries {
            debug_assert!(num >= 2, "root leaf cannot be split");
            let l = level(num);
            let path = num - (1 << l);
            let first_step = path >> (l - 1) & 1;
            let rest = path & !(1u64 << (l - 1));
            let new_num = (1 << (l - 1)) + rest;
            if first_step == 0 {
                left.entries.insert(new_num, v);
            } else {
                right.entries.insert(new_num, v);
            }
        }
        let mk = |heap: &mut Self, t: ExceptionTable| -> Word {
            if t.entries.len() == 1 {
                if let Some((&1, &TableValue::Leaf(w))) = t.entries.iter().next() {
                    return w; // single leaf at the root: an atom
                }
            }
            if let Some((&1, &TableValue::Forward(fa))) = t.entries.iter().next() {
                if t.entries.len() == 1 {
                    return Word::ptr(fa); // collapse trivial forwarding
                }
            }
            Word::ptr(heap.alloc_table(t))
        };
        let lw = mk(self, left);
        let rw = mk(self, right);
        (lw, rw)
    }

    /// Merge two values into a new object (§4.3.3.2): the fast path
    /// allocates a table with just two forwarding (or leaf) entries.
    pub fn merge(&mut self, car: Word, cdr: Word) -> HeapAddr {
        let mut t = ExceptionTable::default();
        let put = |entries: &mut BTreeMap<NodeNum, TableValue>, num: NodeNum, w: Word| {
            if w.tag() == Tag::Ptr {
                entries.insert(num, TableValue::Forward(w.addr()));
            } else {
                entries.insert(num, TableValue::Leaf(w));
            }
        };
        put(&mut t.entries, 2, car);
        put(&mut t.entries, 3, cdr);
        self.alloc_table(t)
    }

    /// Reconstruct the s-expression for a value word.
    pub fn extract(&self, w: Word) -> SExpr {
        match w.tag() {
            Tag::Nil => SExpr::Nil,
            Tag::Int => SExpr::int(w.as_int()),
            Tag::Sym => SExpr::sym(small_sexpr::Symbol(w.as_sym())),
            Tag::Ptr => {
                let a = w.addr();
                self.extract_node(a, 1)
            }
            t => panic!("extract of tag {t:?}"),
        }
    }

    fn extract_node(&self, a: HeapAddr, num: NodeNum) -> SExpr {
        match self.lookup(a, num) {
            Some(Ok(w)) => match w.tag() {
                Tag::Nil => SExpr::Nil,
                Tag::Int => SExpr::int(w.as_int()),
                Tag::Sym => SExpr::sym(small_sexpr::Symbol(w.as_sym())),
                t => panic!("leaf with tag {t:?}"),
            },
            Some(Err(())) => SExpr::cons(
                self.extract_node(a, car_child(num)),
                self.extract_node(a, cdr_child(num)),
            ),
            None => panic!("dangling node {num} in table {a}"),
        }
    }

    /// Free the object at `a` together with every table reachable
    /// through forwarding pointers (a merged object owns its parts).
    pub fn free_object_recursive(&mut self, a: HeapAddr) {
        let Some(t) = self.tables[a.index()].take() else {
            return; // already reclaimed via another path
        };
        self.free.push(a);
        for v in t.entries.values() {
            if let TableValue::Forward(fa) = v {
                self.free_object_recursive(*fa);
            }
        }
    }
}

/// A [`crate::controller::HeapController`] over the structure-coded
/// store: the LP is generic over its backing representation (§4.3.3
/// discusses exactly this trade-off — exception-table split is a table
/// partition, merge a two-entry forwarding table).
pub struct StructureCodedController {
    heap: StructureCodedHeap,
    stats: crate::controller::ControllerStats,
}

impl StructureCodedController {
    /// Create an empty controller.
    pub fn new() -> Self {
        StructureCodedController {
            heap: StructureCodedHeap::new(),
            stats: crate::controller::ControllerStats::default(),
        }
    }

    /// The backing store (for deref-cost inspection).
    pub fn heap(&self) -> &StructureCodedHeap {
        &self.heap
    }
}

impl Default for StructureCodedController {
    fn default() -> Self {
        Self::new()
    }
}

impl crate::controller::HeapController for StructureCodedController {
    fn read_in(&mut self, expr: &SExpr) -> Result<Word, crate::controller::HeapError> {
        self.stats.read_ins += 1;
        Ok(self.heap.intern(expr))
    }

    fn split(
        &mut self,
        addr: HeapAddr,
    ) -> Result<crate::controller::SplitResult, crate::controller::HeapError> {
        if self.heap.tables[addr.index()].is_none() {
            return Err(crate::controller::HeapError::NotAnObject);
        }
        self.stats.splits += 1;
        let (car, cdr) = self.heap.split(addr);
        self.stats.cells_freed += 1;
        Ok(crate::controller::SplitResult { car, cdr })
    }

    fn holds(&self, addr: HeapAddr) -> bool {
        self.heap
            .tables
            .get(addr.index())
            .is_some_and(Option::is_some)
    }

    fn merge(&mut self, car: Word, cdr: Word) -> Result<HeapAddr, crate::controller::HeapError> {
        self.stats.merges += 1;
        Ok(self.heap.merge(car, cdr))
    }

    fn free_object(&mut self, addr: HeapAddr) {
        self.stats.frees_queued += 1;
        let before = self.heap.live();
        self.heap.free_object_recursive(addr);
        self.stats.cells_freed += (before - self.heap.live()) as u64;
    }

    fn extract(&self, w: Word) -> SExpr {
        self.heap.extract(w)
    }

    fn stats(&self) -> crate::controller::ControllerStats {
        self.stats
    }
}

impl crate::persist::PersistableController for StructureCodedController {
    const KIND: &'static str = "structure-coded";

    fn export_image(&self) -> crate::persist::ControllerImage {
        // Flat table stream: [n_tables] then, per slot, a present flag
        // followed (when present) by the entry count and `(node,
        // variant, payload)` triples. BTreeMap iteration keeps entry
        // order canonical, so equal stores export equal images.
        let mut tables = vec![self.heap.tables.len() as u64];
        for slot in &self.heap.tables {
            match slot {
                None => tables.push(0),
                Some(t) => {
                    tables.push(1);
                    tables.push(t.entries.len() as u64);
                    for (num, v) in &t.entries {
                        tables.push(*num);
                        match v {
                            TableValue::Leaf(w) => {
                                tables.push(0);
                                tables.push(w.bits());
                            }
                            TableValue::Forward(a) => {
                                tables.push(1);
                                tables.push(u64::from(a.0));
                            }
                        }
                    }
                }
            }
        }
        crate::persist::ControllerImage {
            kind: Self::KIND,
            sections: vec![
                ("tables", tables),
                (
                    "free",
                    self.heap.free.iter().map(|a| u64::from(a.0)).collect(),
                ),
                ("misc", vec![self.heap.forward_derefs.get()]),
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
        let stream = image.section("tables")?;
        let mut at = 0usize;
        let mut next = || -> Result<u64, ImageError> {
            let w = stream.get(at).copied().ok_or(ImageError::Malformed)?;
            at += 1;
            Ok(w)
        };
        let n_tables = usize::try_from(next()?).map_err(|_| ImageError::Malformed)?;
        let mut tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            match next()? {
                0 => tables.push(None),
                1 => {
                    let count = next()?;
                    let mut entries = BTreeMap::new();
                    for _ in 0..count {
                        let num = next()?;
                        let value = match next()? {
                            0 => TableValue::Leaf(Word::from_bits(next()?)),
                            1 => TableValue::Forward(HeapAddr(
                                u32::try_from(next()?).map_err(|_| ImageError::Malformed)?,
                            )),
                            _ => return Err(ImageError::Malformed),
                        };
                        entries.insert(num, value);
                    }
                    tables.push(Some(ExceptionTable { entries }));
                }
                _ => return Err(ImageError::Malformed),
            }
        }
        if at != stream.len() {
            return Err(ImageError::Malformed);
        }
        let free = image
            .section("free")?
            .iter()
            .map(|&w| {
                u32::try_from(w)
                    .map(HeapAddr)
                    .map_err(|_| ImageError::Malformed)
            })
            .collect::<Result<Vec<HeapAddr>, _>>()?;
        let misc = image.section("misc")?;
        if misc.len() != 1 {
            return Err(ImageError::Malformed);
        }
        Ok(StructureCodedController {
            heap: StructureCodedHeap {
                tables,
                free,
                forward_derefs: std::cell::Cell::new(misc[0]),
                probes: std::cell::Cell::new(0),
            },
            stats: crate::persist::stats_from_words(image.section("ctrl")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use small_sexpr::{parse, print, Interner};

    #[test]
    fn cdar_codes_match_figure_2_10() {
        // (A B C (D E) F G) — codes from Figure 2.10, width 6.
        // Node numbers: A=2, B=car(cdr)=2*3=6... compute via tree walk.
        let mut i = Interner::new();
        let e = parse("(A B C (D E) F G)", &mut i).unwrap();
        let mut atoms: Vec<(String, NodeNum)> = Vec::new();
        fn walk(e: &SExpr, num: NodeNum, i: &Interner, out: &mut Vec<(String, NodeNum)>) {
            match e {
                SExpr::Cons(c) => {
                    walk(&c.0, car_child(num), i, out);
                    walk(&c.1, cdr_child(num), i, out);
                }
                SExpr::Atom(Atom::Sym(s)) => out.push((i.name(*s).to_owned(), num)),
                _ => {}
            }
        }
        walk(&e, 1, &i, &mut atoms);
        let codes: Vec<(String, String)> = atoms
            .iter()
            .map(|(name, n)| (name.clone(), cdar_code(*n, 6)))
            .collect();
        let expected = [
            ("A", "000000"),
            ("B", "000001"),
            ("C", "000011"),
            ("D", "000111"),
            ("E", "010111"),
            ("F", "001111"),
            ("G", "011111"),
        ];
        for ((name, code), (en, ec)) in codes.iter().zip(expected.iter()) {
            assert_eq!(name, en);
            assert_eq!(code, ec, "CDAR code of {name}");
        }
    }

    #[test]
    fn eps_matches_figure_2_10() {
        let mut i = Interner::new();
        let e = parse("(A B C (D E) F G)", &mut i).unwrap();
        let eps = eps_encode(&e);
        let expected = [
            (1, 0, 1),
            (1, 0, 2),
            (1, 0, 3),
            (2, 0, 4),
            (2, 1, 5),
            (2, 1, 6),
            (2, 2, 7),
        ];
        assert_eq!(eps.len(), expected.len());
        for (got, (l, r, p)) in eps.iter().zip(expected.iter()) {
            assert_eq!((got.left, got.right, got.position), (*l, *r, *p));
        }
    }

    #[test]
    fn intern_extract_roundtrip() {
        let mut i = Interner::new();
        let mut h = StructureCodedHeap::new();
        for src in ["(A B C (D E) F G)", "(((A B) C D) E F G)", "(x)", "(a . b)"] {
            let e = parse(src, &mut i).unwrap();
            let w = h.intern(&e);
            assert_eq!(print(&h.extract(w), &i), print(&e, &i), "{src}");
        }
    }

    #[test]
    fn split_partitions_and_renumbers() {
        let mut i = Interner::new();
        let mut h = StructureCodedHeap::new();
        let e = parse("((A B) C D)", &mut i).unwrap();
        let w = h.intern(&e);
        let (car, cdr) = h.split(w.addr());
        assert_eq!(print(&h.extract(car), &i), "(A B)");
        assert_eq!(print(&h.extract(cdr), &i), "(C D)");
    }

    #[test]
    fn split_yields_atoms_at_leaves() {
        let mut i = Interner::new();
        let mut h = StructureCodedHeap::new();
        let e = parse("(A)", &mut i).unwrap();
        let w = h.intern(&e);
        let (car, cdr) = h.split(w.addr());
        assert_eq!(car.tag(), Tag::Sym);
        assert!(cdr.is_nil());
    }

    #[test]
    fn merge_is_inverse_of_split() {
        let mut i = Interner::new();
        let mut h = StructureCodedHeap::new();
        let e = parse("((A B) (C D))", &mut i).unwrap();
        let w = h.intern(&e);
        let (car, cdr) = h.split(w.addr());
        let merged = h.merge(car, cdr);
        assert_eq!(print(&h.extract(Word::ptr(merged)), &i), "((A B) (C D))");
    }

    #[test]
    fn merge_uses_forwarding_and_access_pays_derefs() {
        let mut i = Interner::new();
        let mut h = StructureCodedHeap::new();
        let a = h.intern(&parse("(A B)", &mut i).unwrap());
        let b = h.intern(&parse("(C)", &mut i).unwrap());
        let m = h.merge(a, b);
        h.forward_derefs.set(0);
        let _ = h.extract(Word::ptr(m));
        assert!(
            h.forward_derefs.get() > 0,
            "merged access should chase forwards"
        );
    }

    #[test]
    fn free_and_reuse_table_slots() {
        let mut i = Interner::new();
        let mut h = StructureCodedHeap::new();
        let a = h.intern(&parse("(A)", &mut i).unwrap());
        h.free_table(a.addr());
        assert_eq!(h.live(), 0);
        let b = h.intern(&parse("(B)", &mut i).unwrap());
        assert_eq!(a.addr(), b.addr());
    }
}
