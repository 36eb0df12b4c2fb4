//! Compact tagged memory words.
//!
//! Lisp machines are tagged architectures (§2.3.4): every memory word
//! carries a small type tag so the hardware can distinguish pointers from
//! data, dispatch on runtime types, and support invisible pointers. We
//! pack a 3-bit tag and a 61-bit payload into a single `u64`, and back the
//! heap with a raw arena accessed through unchecked reads/writes in
//! release builds — this is the "compact tagged cell" layer the
//! reproduction brief calls for.

use std::fmt;

/// A heap address: an index into a cell arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct HeapAddr(pub u32);

impl HeapAddr {
    /// Arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for HeapAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// The 3-bit word tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Tag {
    /// The `nil` atom.
    Nil = 0,
    /// A fixnum (61-bit signed integer).
    Int = 1,
    /// An interned symbol.
    Sym = 2,
    /// An ordinary pointer to a list cell.
    Ptr = 3,
    /// An invisible pointer: dereferenced automatically by the memory
    /// system on access (§2.3.2, §2.3.3.1).
    Invisible = 4,
    /// A free-list link (internal to allocators).
    FreeLink = 5,
    /// A forwarding pointer left behind by the copying collector.
    Forward = 6,
    /// An unused / uninitialized word.
    Unused = 7,
}

impl Tag {
    #[inline]
    fn from_bits(bits: u64) -> Tag {
        // SAFETY: `bits & 7` is always in 0..=7 and Tag is a fieldless
        // repr(u8) enum covering exactly those discriminants.
        unsafe { std::mem::transmute::<u8, Tag>((bits & 7) as u8) }
    }
}

/// The integers a [`Word`] can hold: the fixnum range `[-2^60, 2^60)`.
pub const FIXNUM: std::ops::Range<i64> = -(1 << 60)..(1 << 60);

/// A tagged 64-bit word: 3-bit tag in the low bits, payload above.
///
/// Integers occupy the high 61 bits with sign, so the fixnum range is
/// [`FIXNUM`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Word(u64);

impl Word {
    /// The nil word.
    pub const NIL: Word = Word(Tag::Nil as u64);
    /// An unused word.
    pub const UNUSED: Word = Word(Tag::Unused as u64);

    /// Pack a fixnum.
    ///
    /// # Panics
    /// Panics (in debug builds) if `i` exceeds the 61-bit fixnum range.
    #[inline]
    pub fn int(i: i64) -> Word {
        debug_assert!(FIXNUM.contains(&i), "fixnum overflow: {i}");
        Word(((i as u64) << 3) | Tag::Int as u64)
    }

    /// Pack a symbol id.
    #[inline]
    pub fn sym(id: u32) -> Word {
        Word(((id as u64) << 3) | Tag::Sym as u64)
    }

    /// Pack an ordinary pointer.
    #[inline]
    pub fn ptr(a: HeapAddr) -> Word {
        Word(((a.0 as u64) << 3) | Tag::Ptr as u64)
    }

    /// Pack an invisible pointer.
    #[inline]
    pub fn invisible(a: HeapAddr) -> Word {
        Word(((a.0 as u64) << 3) | Tag::Invisible as u64)
    }

    /// Pack a free-list link. `next` of `None` encodes the end of list as
    /// the all-ones address.
    #[inline]
    pub fn free_link(next: Option<HeapAddr>) -> Word {
        let a = next.map_or(u32::MAX, |h| h.0);
        Word(((a as u64) << 3) | Tag::FreeLink as u64)
    }

    /// Pack a forwarding pointer.
    #[inline]
    pub fn forward(a: HeapAddr) -> Word {
        Word(((a.0 as u64) << 3) | Tag::Forward as u64)
    }

    /// The tag of this word.
    #[inline]
    pub fn tag(self) -> Tag {
        Tag::from_bits(self.0)
    }

    /// Integer payload (sign-extended).
    ///
    /// # Panics
    /// Debug-panics if the tag is not [`Tag::Int`].
    #[inline]
    pub fn as_int(self) -> i64 {
        debug_assert_eq!(self.tag(), Tag::Int);
        (self.0 as i64) >> 3
    }

    /// Symbol payload.
    #[inline]
    pub fn as_sym(self) -> u32 {
        debug_assert_eq!(self.tag(), Tag::Sym);
        (self.0 >> 3) as u32
    }

    /// Address payload for pointer-like tags.
    #[inline]
    pub fn addr(self) -> HeapAddr {
        debug_assert!(matches!(
            self.tag(),
            Tag::Ptr | Tag::Invisible | Tag::Forward
        ));
        HeapAddr((self.0 >> 3) as u32)
    }

    /// Free-link payload.
    #[inline]
    pub fn free_next(self) -> Option<HeapAddr> {
        debug_assert_eq!(self.tag(), Tag::FreeLink);
        let a = (self.0 >> 3) as u32;
        (a != u32::MAX).then_some(HeapAddr(a))
    }

    /// True for `nil`.
    #[inline]
    pub fn is_nil(self) -> bool {
        self.tag() == Tag::Nil
    }

    /// True for ordinary pointers.
    #[inline]
    pub fn is_ptr(self) -> bool {
        self.tag() == Tag::Ptr
    }

    /// True for atoms in the Lisp sense (nil, int, sym).
    #[inline]
    pub fn is_atom(self) -> bool {
        matches!(self.tag(), Tag::Nil | Tag::Int | Tag::Sym)
    }

    /// Raw bits, for hashing/serialization.
    #[inline]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Reconstruct a word from raw bits previously produced by
    /// [`Word::bits`]. Every bit pattern is a valid word (the low three
    /// bits select a [`Tag`]), so this is total; callers deserializing
    /// untrusted bytes should still validate tags against context.
    #[inline]
    pub fn from_bits(bits: u64) -> Word {
        Word(bits)
    }
}

impl fmt::Debug for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.tag() {
            Tag::Nil => write!(f, "nil"),
            Tag::Int => write!(f, "{}", self.as_int()),
            Tag::Sym => write!(f, "#sym{}", self.as_sym()),
            Tag::Ptr => write!(f, "*{}", self.addr()),
            Tag::Invisible => write!(f, "~{}", self.addr()),
            Tag::FreeLink => write!(f, "free->{:?}", self.free_next()),
            Tag::Forward => write!(f, "fwd->{}", self.addr()),
            Tag::Unused => write!(f, "?"),
        }
    }
}

/// A raw arena of tagged words with unchecked access on the hot path.
///
/// Bounds are validated with `debug_assert!`; release builds use
/// `get_unchecked`, which is sound because every `HeapAddr` handed out by
/// the allocators in this crate indexes a live slot and slots are never
/// removed (only recycled through free lists).
pub struct Arena {
    words: Vec<u64>,
}

impl Arena {
    /// Create an arena of `len` words, all [`Word::UNUSED`].
    pub fn new(len: usize) -> Self {
        Arena {
            words: vec![Word::UNUSED.bits(); len],
        }
    }

    /// Create an arena of `len` zero words, straight from the
    /// allocator's zero pages — no memset touches the arena, so a
    /// multi-megabyte arena costs nothing until written. Only for
    /// allocators that never read a word before writing it (a zero word
    /// decodes as tagged data, not [`Word::UNUSED`]).
    pub fn new_zeroed(len: usize) -> Self {
        Arena {
            words: vec![0u64; len],
        }
    }

    /// Number of words.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Grow to at least `len` words.
    pub fn grow_to(&mut self, len: usize) {
        if len > self.words.len() {
            self.words.resize(len, Word::UNUSED.bits());
        }
    }

    /// Read word `i`.
    #[inline]
    pub fn read(&self, i: usize) -> Word {
        debug_assert!(i < self.words.len(), "arena read {i} out of bounds");
        // SAFETY: allocators only hand out in-bounds indices; checked in
        // debug builds above.
        Word(unsafe { *self.words.get_unchecked(i) })
    }

    /// Write word `i`.
    #[inline]
    pub fn write(&mut self, i: usize, w: Word) {
        debug_assert!(i < self.words.len(), "arena write {i} out of bounds");
        // SAFETY: as in `read`.
        unsafe {
            *self.words.get_unchecked_mut(i) = w.bits();
        }
    }

    /// Raw word storage, for checkpoint serialization.
    pub(crate) fn raw_words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild an arena from words captured by [`Arena::raw_words`].
    pub(crate) fn from_raw_words(words: Vec<u64>) -> Arena {
        Arena { words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip_with_sign() {
        for i in [
            0i64,
            1,
            -1,
            123456789,
            -123456789,
            (1 << 60) - 1,
            -(1 << 60),
        ] {
            let w = Word::int(i);
            assert_eq!(w.tag(), Tag::Int);
            assert_eq!(w.as_int(), i, "roundtrip of {i}");
        }
    }

    #[test]
    fn sym_roundtrip() {
        let w = Word::sym(42);
        assert_eq!(w.tag(), Tag::Sym);
        assert_eq!(w.as_sym(), 42);
    }

    #[test]
    fn ptr_roundtrip() {
        let w = Word::ptr(HeapAddr(7));
        assert!(w.is_ptr());
        assert_eq!(w.addr(), HeapAddr(7));
    }

    #[test]
    fn free_link_roundtrip() {
        assert_eq!(
            Word::free_link(Some(HeapAddr(9))).free_next(),
            Some(HeapAddr(9))
        );
        assert_eq!(Word::free_link(None).free_next(), None);
    }

    #[test]
    fn tag_discrimination() {
        assert!(Word::NIL.is_nil());
        assert!(Word::NIL.is_atom());
        assert!(Word::int(3).is_atom());
        assert!(Word::sym(0).is_atom());
        assert!(!Word::ptr(HeapAddr(0)).is_atom());
        assert_eq!(Word::invisible(HeapAddr(3)).tag(), Tag::Invisible);
        assert_eq!(Word::forward(HeapAddr(3)).tag(), Tag::Forward);
    }

    #[test]
    fn arena_read_write() {
        let mut a = Arena::new(4);
        assert_eq!(a.read(0).tag(), Tag::Unused);
        a.write(2, Word::int(-5));
        assert_eq!(a.read(2).as_int(), -5);
        a.grow_to(10);
        assert_eq!(a.len(), 10);
        assert_eq!(a.read(9).tag(), Tag::Unused);
    }
}
