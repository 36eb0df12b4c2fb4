#![warn(missing_docs)]
//! **SMALL** — the Structured Memory Access of Lisp Lists architecture
//! (Chapter 4). The paper's primary contribution.
//!
//! SMALL partitions a Lisp machine into an **Evaluation Processor** (EP,
//! program control, the control/binding stack, the environment) and a
//! **List Processor** (LP) that owns all list structure behind the
//! **LPT** — a fixed-size table of
//! `(identifier, car, cdr, refcount, address, mark)` entries that
//! virtualizes heap addresses and caches list *structure* (§4.3).
//!
//! * [`lp`] — the LPT and the List Processor: car/cdr/cons/rplaca/
//!   rplacd/readlist, reference counting with the lazy free-stack
//!   discipline, pseudo-overflow compression (Compress-One /
//!   Compress-All), true-overflow cycle breaking, and split (EP-side)
//!   reference counts;
//! * [`machine`] — a [`small_lisp::vm::ListBackend`] over the LP, so
//!   compiled Lisp programs run end-to-end on the SMALL organization;
//! * [`timing`] — the parameterized EP/LP concurrency model of
//!   Figures 4.10–4.13.

pub mod lp;
pub mod machine;
pub mod timing;

pub use lp::{
    AuditReport, CompressPolicy, DecrementPolicy, EntryImage, FieldImage, FreeDiscipline, Id,
    ListProcessor, LpConfig, LpError, LpImage, LpValue, LptCacheStats, LptStats, Perturbation,
    RefcountMode, RootKind, Violation, TRANSIENT_RETRY_LIMIT,
};
pub use machine::SmallBackend;
