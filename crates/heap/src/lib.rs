#![warn(missing_docs)]
//! Lisp heap substrate for the SMALL reproduction.
//!
//! Chapter 2 of the thesis surveys how Lisp machines represent lists and
//! manage heap space; Chapter 4 requires a *heap memory controller* able
//! to read lists in, **split** a list object into its car and cdr parts,
//! and **merge** two objects back into one (§4.3.3). This crate builds all
//! of that from scratch:
//!
//! * [`word`] — compact 64-bit tagged memory words (uses `unsafe` raw
//!   arena access; the thesis machines are tagged architectures, §2.3.4),
//! * [`two_pointer`] — the classic two-pointer list cell heap
//!   (Figure 2.6),
//! * [`cdr_coded`] — MIT-Lisp-machine style cdr-coding with invisible
//!   pointers (Figure 2.8),
//! * [`linked_vector`] — the linked-vector representation (Figure 2.7),
//! * [`structure_coded`] — CDAR-coded exception tables in the BLAST style
//!   (Figures 2.9 and 2.10),
//! * [`gc`] — mark-sweep, reference-counting, and semispace copying
//!   collectors (§2.3.4),
//! * [`controller`] — the split/merge heap controller the List Processor
//!   talks to (§4.3.3), with a bounded queue of pending frees,
//! * [`faulty`] — a deterministic fault-injecting controller wrapper for
//!   chaos testing (transient failures, delayed frees),
//! * [`persist`] — deterministic full-state images of every controller
//!   for crash-consistent checkpointing.

pub mod cdr_coded;
pub mod controller;
pub mod faulty;
pub mod gc;
pub mod linked_vector;
pub mod persist;
pub mod structure_coded;
pub mod two_pointer;
pub mod word;

pub use cdr_coded::CdrCodedController;
pub use controller::{HeapController, Piece, SplitResult, TwoPointerController};
pub use faulty::{FaultKind, FaultPlan, FaultStats, FaultyController};
pub use persist::{ControllerImage, ImageError, PersistableController};
pub use structure_coded::StructureCodedController;
pub use two_pointer::TwoPointerHeap;
pub use word::{HeapAddr, Tag, Word, FIXNUM};
