//! Serializable images of heap backends.
//!
//! Checkpointing the machine (the `small-persist` crate) needs the full
//! contents of whichever heap representation backs the List Processor.
//! Each controller exports a [`ControllerImage`]: a `kind` string naming
//! the representation plus named sections of `u64` words, produced in a
//! deterministic order so that two exports of identical state are
//! identical images. Import validates the kind and section shapes and
//! reconstructs a controller observationally equal to the exported one —
//! including allocator free lists and statistics counters, so ledgers
//! survive a crash/recovery cycle bit-for-bit.
//!
//! The image is *structured*, not serialized: byte encoding (framing,
//! checksums, versioning) is the persistence crate's job. Keeping the
//! word-level view here means every backend module can flatten its own
//! private state without exposing it.

use crate::controller::{ControllerStats, HeapController};
use std::fmt;

/// A structured snapshot of a heap controller's complete state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControllerImage {
    /// Stable name of the representation (`"two-pointer"`,
    /// `"cdr-coded"`, `"structure-coded"`).
    pub kind: &'static str,
    /// Named word sections, in a fixed per-kind order.
    pub sections: Vec<(&'static str, Vec<u64>)>,
}

impl ControllerImage {
    /// Look up a section by name.
    pub fn section(&self, name: &str) -> Result<&[u64], ImageError> {
        self.sections
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, words)| words.as_slice())
            .ok_or(ImageError::MissingSection)
    }
}

/// Errors from [`PersistableController::import_image`]. All import
/// failures are typed — a malformed image never yields a controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageError {
    /// The image's `kind` does not name this representation.
    WrongKind,
    /// A required section is absent.
    MissingSection,
    /// A section exists but its contents do not decode.
    Malformed,
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::WrongKind => write!(f, "image kind does not match this controller"),
            ImageError::MissingSection => write!(f, "image is missing a required section"),
            ImageError::Malformed => write!(f, "image section contents are malformed"),
        }
    }
}

impl std::error::Error for ImageError {}

/// A heap controller whose complete state round-trips through a
/// [`ControllerImage`].
pub trait PersistableController: HeapController + Sized {
    /// The stable `kind` string this controller writes and accepts.
    const KIND: &'static str;

    /// Export the full state. Deterministic: equal states produce equal
    /// images.
    fn export_image(&self) -> ControllerImage;

    /// Rebuild a controller from an exported image. Fails closed with a
    /// typed [`ImageError`] on any mismatch.
    ///
    /// The heap's capacity comes from the image. A caller that sizes
    /// its heap from a configuration must compare the two, or a damaged
    /// image could let the heap grow past the configured bound.
    fn import_image(image: &ControllerImage) -> Result<Self, ImageError>;
}

/// Exclusive upper bound on any event counter an image restores. A
/// run cannot count to 2^62, and a restored counter below it cannot
/// overflow however long the restored machine runs on, so a damaged
/// count fails closed instead.
const COUNTER_LIMIT: u64 = 1 << 62;

/// Check one restored event counter against `COUNTER_LIMIT`.
pub fn counter(w: u64) -> Result<u64, ImageError> {
    if w < COUNTER_LIMIT {
        Ok(w)
    } else {
        Err(ImageError::Malformed)
    }
}

/// Flatten [`ControllerStats`] into its canonical five-word form.
pub(crate) fn stats_to_words(s: &ControllerStats) -> Vec<u64> {
    vec![
        s.splits,
        s.merges,
        s.read_ins,
        s.frees_queued,
        s.cells_freed,
    ]
}

/// Inverse of [`stats_to_words`].
pub(crate) fn stats_from_words(w: &[u64]) -> Result<ControllerStats, ImageError> {
    if w.len() != 5 {
        return Err(ImageError::Malformed);
    }
    Ok(ControllerStats {
        splits: counter(w[0])?,
        merges: counter(w[1])?,
        read_ins: counter(w[2])?,
        frees_queued: counter(w[3])?,
        cells_freed: counter(w[4])?,
    })
}

/// Encode an optional heap address as a word (`u64::MAX` = none).
pub(crate) fn opt_addr_to_word(a: Option<crate::word::HeapAddr>) -> u64 {
    a.map_or(u64::MAX, |h| u64::from(h.0))
}

/// Inverse of [`opt_addr_to_word`].
pub(crate) fn word_to_opt_addr(w: u64) -> Result<Option<crate::word::HeapAddr>, ImageError> {
    if w == u64::MAX {
        Ok(None)
    } else if w <= u64::from(u32::MAX) {
        Ok(Some(crate::word::HeapAddr(w as u32)))
    } else {
        Err(ImageError::Malformed)
    }
}
