//! Benchmark harness and table/figure reproduction for the SMALL thesis.
//!
//! Every table and figure of the evaluation chapters is regenerated by a
//! function in [`experiments`], surfaced through the `repro` binary:
//!
//! ```text
//! cargo run -p small-bench --bin repro --release -- all
//! cargo run -p small-bench --bin repro --release -- fig3.4 table5.2 …
//! ```
//!
//! `regress --loc` counts the workspace's non-test lines ([`loc`]).
//!
//! The Chapter 2 survey (`repro survey`) compares list representations,
//! binding environments and collectors by memory-access counts, not by
//! time: [`experiments::survey_counts`].

pub mod experiments;
pub mod loc;
pub mod regress;
pub mod suite;

pub use suite::Suite;
