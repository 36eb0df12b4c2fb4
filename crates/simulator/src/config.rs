//! Simulation parameters (§5.2.1).
//!
//! Six parameters govern a run: the LPT size, the pseudo-overflow
//! policy, and four probabilities used in reconstructing primitive
//! arguments from the trace:
//!
//! * **ArgProb** — probability the operand is an argument of the
//!   currently active user function,
//! * **LocProb** — probability it is a local of that function
//!   (`1 − ArgProb − LocProb` selects a non-local),
//! * **ReadProb** — probability the selected variable was re-`read`
//!   since last access (a fresh list object),
//! * **BindProb** — probability a primitive's return value is bound to a
//!   stack variable rather than just left on top of the stack.
//!
//! The thesis's control setting is `0.6 / 0.3 / 0.01 / 0.01`; Table 5.5
//! perturbs each.

use small_core::{CompressPolicy, DecrementPolicy, LpConfig, RefcountMode};

/// Parameters of one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SimParams {
    /// LPT entries.
    pub table_size: usize,
    /// Pseudo-overflow policy.
    pub compression: CompressPolicy,
    /// Child-decrement policy (Table 5.2's Refops vs RecRefops).
    pub decrement: DecrementPolicy,
    /// Unified vs split reference counts (Table 5.3).
    pub refcounts: RefcountMode,
    /// P(operand is a function argument).
    pub arg_prob: f64,
    /// P(operand is a local variable).
    pub loc_prob: f64,
    /// P(return value gets bound to a variable).
    pub bind_prob: f64,
    /// P(variable was re-read since last access).
    pub read_prob: f64,
    /// Backing heap size in cells.
    pub heap_cells: usize,
    /// RNG seed ("by re-seeding … we simulate totally different access
    /// patterns", §5.2.2).
    pub seed: u64,
    /// Durable-run checkpoint cadence (`run_sim_resumable` only): take
    /// a checkpoint and rotate the journal every this many trace
    /// events. `0` checkpoints only at the start and end of the run.
    /// Ignored by the non-durable entry points.
    pub checkpoint_every: u64,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            table_size: 2048,
            compression: CompressPolicy::CompressOne,
            decrement: DecrementPolicy::Lazy,
            refcounts: RefcountMode::Unified,
            arg_prob: 0.6,
            loc_prob: 0.3,
            bind_prob: 0.01,
            read_prob: 0.01,
            heap_cells: 1 << 20,
            seed: 1,
            checkpoint_every: 0,
        }
    }
}

impl SimParams {
    /// The LP configuration a run with these parameters drives.
    pub fn lp_config(&self) -> LpConfig {
        LpConfig {
            table_size: self.table_size,
            compression: self.compression,
            decrement: self.decrement,
            refcounts: self.refcounts,
            ..LpConfig::default()
        }
    }

    /// The control setting of §5.2.6.
    pub fn control() -> Self {
        Self::default()
    }

    /// Table 5.5 "HiArg": ArgProb 0.85, LocProb 0.125.
    pub fn hi_arg() -> Self {
        SimParams {
            arg_prob: 0.85,
            loc_prob: 0.125,
            ..Self::default()
        }
    }

    /// Table 5.5 "HiLoc": LocProb 0.60, ArgProb 0.30.
    pub fn hi_loc() -> Self {
        SimParams {
            arg_prob: 0.30,
            loc_prob: 0.60,
            ..Self::default()
        }
    }

    /// Table 5.5 "HiBind": BindProb 0.03.
    pub fn hi_bind() -> Self {
        SimParams {
            bind_prob: 0.03,
            ..Self::default()
        }
    }

    /// Table 5.5 "HiRead": ReadProb 0.03.
    pub fn hi_read() -> Self {
        SimParams {
            read_prob: 0.03,
            ..Self::default()
        }
    }

    /// With a different LPT size.
    pub fn with_table(self, table_size: usize) -> Self {
        SimParams { table_size, ..self }
    }

    /// With a different seed.
    pub fn with_seed(self, seed: u64) -> Self {
        SimParams { seed, ..self }
    }

    /// With a periodic checkpoint cadence (durable runs).
    pub fn with_checkpoint_every(self, checkpoint_every: u64) -> Self {
        SimParams {
            checkpoint_every,
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_matches_thesis_values() {
        let p = SimParams::control();
        assert_eq!(
            (p.arg_prob, p.loc_prob, p.bind_prob, p.read_prob),
            (0.6, 0.3, 0.01, 0.01)
        );
    }

    #[test]
    fn perturbations_keep_probabilities_valid() {
        for p in [
            SimParams::hi_arg(),
            SimParams::hi_loc(),
            SimParams::hi_bind(),
            SimParams::hi_read(),
        ] {
            assert!(p.arg_prob + p.loc_prob <= 1.0);
            assert!(p.bind_prob <= 1.0 && p.read_prob <= 1.0);
        }
    }
}
