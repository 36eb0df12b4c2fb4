#![warn(missing_docs)]
//! Benchmark Lisp workloads — our analogues of the thesis's five traced
//! programs (§3.3.1): SLANG (circuit simulator), PLAGEN (PLA generator),
//! LYRA (VLSI design-rule checker), EDITOR (list-structure editor), and
//! PEARL (a-list database). Each is a genuine Lisp program, written in
//! the §4.3.4 simple Lisp and run on the instrumented interpreter; the
//! list-primitive traffic these programs generate is what all Chapter 3
//! and Chapter 5 experiments consume.
//!
//! The original benchmarks and their 1985 inputs are unavailable; these
//! programs match them in *domain* and in the characteristics the thesis
//! reports (primitive mix per Figure 3.1, list complexity per Table 3.1,
//! trace scale per Table 5.1 — see DESIGN.md "Substitutions"). The
//! [`synthetic`] module additionally generates traces pinned exactly to
//! the Table 5.1 scale parameters for the biggest runs.

pub mod editor;
pub mod lyra;
pub mod pearl;
pub mod plagen;
pub mod runner;
pub mod slang;
pub mod synthetic;

pub use runner::{run_workload, WorkloadRun};

use small_trace::Trace;

/// The five standard workloads at a given scale factor (1 = default,
/// larger = longer traces).
pub fn standard_suite(scale: u32) -> Vec<Trace> {
    vec![
        slang::run(scale).trace,
        plagen::run(scale).trace,
        lyra::run(scale).trace,
        editor::run(scale).trace,
        pearl::run(scale).trace,
    ]
}
