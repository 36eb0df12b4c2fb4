#![warn(missing_docs)]
//! Deterministic chaos harness for the SMALL reproduction.
//!
//! Replays a simulator workload twice per case — once over the plain
//! two-pointer heap controller and once over a
//! [`small_heap::FaultyController`] running a seeded, reproducible
//! fault schedule — and checks the robustness contract:
//!
//! * the faulted run **never panics**: it either completes with the
//!   same observable outcome as the fault-free run, or ends in a typed
//!   error (`true_overflow` or a reported [`SimResult::failure`]);
//! * the fault ledger **reconciles exactly**: every transient failure
//!   the schedule injected was detected by the LP's retry machinery,
//!   and a run that completed recovered every one of them;
//! * withheld (delayed) frees all reach the heap once the injection
//!   window is flushed.
//!
//! Everything is seeded: the same trace + parameters + fault plan
//! reproduce the same case byte-for-byte, so a failing seed from CI can
//! be replayed locally with the `chaos` binary.
//!
//! The [`crash`] module extends the same discipline to crash
//! consistency: seeded kill points over the durable simulator path
//! (`run_sim_resumable`), byte-identity of recovered state, and
//! fail-closed corruption probes — replayable with the `crash` binary.

pub mod crash;

use small_heap::controller::TwoPointerController;
use small_heap::{FaultPlan, FaultyController};
use small_metrics::{JsonObject, NoopSink};
use small_simulator::{run_sim, run_sim_on_controller, SimParams, SimResult};
use small_trace::Trace;

/// How hostile a case's fault schedule is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// [`FaultPlan::standard`] — ~3% faults per fallible op.
    Standard,
    /// [`FaultPlan::aggressive`] — ~12% faults, longer free delays.
    Aggressive,
}

impl Severity {
    fn plan(self, seed: u64) -> FaultPlan {
        match self {
            Severity::Standard => FaultPlan::standard(seed),
            Severity::Aggressive => FaultPlan::aggressive(seed),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Severity::Standard => "standard",
            Severity::Aggressive => "aggressive",
        }
    }
}

/// The observable outcome of one simulator run, reduced to the fields
/// the robustness contract compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Primitive events executed before completion/abort.
    pub prims_executed: usize,
    /// Whether the run ended on an unrecoverable LPT overflow.
    pub true_overflow: bool,
    /// A typed failure that ended the run early, if any.
    pub failure: Option<String>,
}

impl RunSummary {
    fn of(r: &SimResult) -> Self {
        RunSummary {
            prims_executed: r.prims_executed,
            true_overflow: r.true_overflow,
            failure: r.failure.clone(),
        }
    }
}

/// One chaos case: a clean run and a faulted run of the same workload,
/// plus the reconciled fault ledger.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Seed of this case (drives both the workload and, mixed, the
    /// fault schedule).
    pub seed: u64,
    /// Fault-schedule severity.
    pub severity: Severity,
    /// The fault-free reference run.
    pub clean: RunSummary,
    /// The faulted run.
    pub faulty: RunSummary,
    /// Transient failures the schedule injected.
    pub injected: u64,
    /// Transient failures the LP detected.
    pub detected: u64,
    /// Transient failures the LP recovered from.
    pub recovered: u64,
    /// Frees the schedule withheld.
    pub delayed_frees: u64,
    /// Withheld frees that reached the heap after the final flush.
    pub flushed_frees: u64,
}

impl CaseOutcome {
    /// The faulted run reproduced the fault-free outcome exactly —
    /// including the case where the fault-free run itself ended in a
    /// true overflow or a typed failure and the faulted run reports the
    /// identical one.
    pub fn matches_clean(&self) -> bool {
        self.faulty.prims_executed == self.clean.prims_executed
            && self.faulty.true_overflow == self.clean.true_overflow
            && self.faulty.failure == self.clean.failure
    }

    /// The faulted run ended in an *accepted* typed error: a reported
    /// true overflow or a typed failure — never a panic, never silent
    /// divergence.
    pub fn ended_in_typed_error(&self) -> bool {
        self.faulty.true_overflow || self.faulty.failure.is_some()
    }

    /// Injected/detected/recovered reconcile exactly: every injected
    /// fault was detected, and a run that completed recovered all of
    /// them (a run that surfaced a failure is allowed unrecovered
    /// faults — they are exactly what it reported).
    pub fn counters_reconcile(&self) -> bool {
        self.injected == self.detected
            && (self.recovered == self.detected || self.faulty.failure.is_some())
            && self.delayed_frees == self.flushed_frees
    }

    /// The whole robustness contract for this case.
    pub fn pass(&self) -> bool {
        (self.matches_clean() || self.ended_in_typed_error()) && self.counters_reconcile()
    }

    fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("seed", self.seed);
        o.field_str("severity", self.severity.name());
        o.field_u64("clean_prims", self.clean.prims_executed as u64);
        o.field_u64("faulty_prims", self.faulty.prims_executed as u64);
        o.field_bool("clean_true_overflow", self.clean.true_overflow);
        o.field_bool("faulty_true_overflow", self.faulty.true_overflow);
        o.field_str("failure", self.faulty.failure.as_deref().unwrap_or(""));
        o.field_u64("injected", self.injected);
        o.field_u64("detected", self.detected);
        o.field_u64("recovered", self.recovered);
        o.field_u64("delayed_frees", self.delayed_frees);
        o.field_u64("flushed_frees", self.flushed_frees);
        o.field_bool("matches_clean", self.matches_clean());
        o.field_bool("counters_reconcile", self.counters_reconcile());
        o.field_bool("pass", self.pass());
        o.finish()
    }
}

/// Run one chaos case: `params.seed` drives the workload, and the fault
/// schedule is seeded from a fixed mix of the same seed so schedules
/// differ from workload RNG streams but stay reproducible.
pub fn run_case(trace: &Trace, params: SimParams, severity: Severity) -> CaseOutcome {
    let seed = params.seed;
    let plan = severity.plan(seed ^ 0x00C0_FFEE_F00D_CAFE);
    let clean = run_sim(trace, params, None);
    let controller = FaultyController::new(TwoPointerController::new(params.heap_cells, 256), plan);
    let (faulty, mut controller, _sink) =
        run_sim_on_controller(trace, params, None, controller, NoopSink);
    // Close the injection window: every withheld free must reach the
    // inner controller.
    controller.flush_all_delayed();
    let fs = controller.fault_stats();
    CaseOutcome {
        seed,
        severity,
        clean: RunSummary::of(&clean),
        faulty: RunSummary::of(&faulty),
        injected: fs.transient_total(),
        detected: faulty.lpt.faults_detected,
        recovered: faulty.lpt.faults_recovered,
        delayed_frees: fs.delayed_frees,
        flushed_frees: fs.flushed_frees,
    }
}

/// The outcome of a whole seeded chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Name of the trace the campaign replayed.
    pub trace: String,
    /// Per-case outcomes, in seed order.
    pub cases: Vec<CaseOutcome>,
}

impl ChaosReport {
    /// Whether every case upheld the robustness contract.
    pub fn all_pass(&self) -> bool {
        self.cases.iter().all(CaseOutcome::pass)
    }

    /// Cases whose faulted run reproduced the clean outcome exactly.
    pub fn matched(&self) -> usize {
        self.cases.iter().filter(|c| c.matches_clean()).count()
    }

    /// Deterministic JSON: no wall-clock data, cases in stable seed
    /// order — byte-identical across runs and machines for the same
    /// campaign.
    pub fn to_json(&self) -> String {
        let cases: Vec<String> = self.cases.iter().map(CaseOutcome::to_json).collect();
        let mut o = JsonObject::new();
        o.field_str("trace", &self.trace);
        o.field_u64("cases_total", self.cases.len() as u64);
        o.field_u64("cases_matched", self.matched() as u64);
        o.field_bool("all_pass", self.all_pass());
        o.field_raw("cases", &format!("[{}]", cases.join(",")));
        o.finish()
    }

    /// A human-readable summary line per case.
    pub fn summary_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "chaos campaign over '{}': {} cases, {} matched clean, all_pass={}\n",
            self.trace,
            self.cases.len(),
            self.matched(),
            self.all_pass()
        ));
        s.push_str("seed        sev         inj   det   rec  delayed  outcome\n");
        for c in &self.cases {
            let outcome = if c.matches_clean() {
                "match".to_string()
            } else if let Some(f) = &c.faulty.failure {
                format!("typed-failure: {f}")
            } else if c.faulty.true_overflow {
                "true-overflow".to_string()
            } else {
                "DIVERGED".to_string()
            };
            s.push_str(&format!(
                "{:>10}  {:<10}  {:>4}  {:>4}  {:>4}  {:>7}  {}{}\n",
                c.seed,
                c.severity.name(),
                c.injected,
                c.detected,
                c.recovered,
                c.delayed_frees,
                outcome,
                if c.pass() { "" } else { "  [FAIL]" },
            ));
        }
        s
    }
}

/// Replay `trace` under every seed at the given severity. Each case
/// uses the seed for the workload RNG *and* (mixed) the fault schedule.
pub fn run_campaign(
    trace: &Trace,
    base: SimParams,
    seeds: &[u64],
    severity: Severity,
) -> ChaosReport {
    let cases = seeds
        .iter()
        .map(|&s| run_case(trace, base.with_seed(s), severity))
        .collect();
    ChaosReport {
        trace: trace.name.clone(),
        cases,
    }
}

/// The campaign parameter presets the `chaos` binary (and the CI smoke
/// job) use: a mid-sized 512-entry table, and a deliberately tight
/// 16-entry table that true-overflows, so the overflow path is
/// exercised under faults too.
pub fn preset_params() -> (SimParams, SimParams) {
    let mid = SimParams::default().with_table(512);
    let tight = SimParams::default().with_table(16);
    (mid, tight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use small_workloads::synthetic;

    fn trace(prims: usize) -> Trace {
        let mut p = synthetic::table_5_1("slang");
        p.primitives = prims;
        p.functions = (prims / 4).max(8);
        synthetic::generate(&p)
    }

    #[test]
    fn standard_case_matches_clean_run() {
        let t = trace(400);
        let c = run_case(&t, SimParams::default().with_table(512), Severity::Standard);
        assert!(c.injected > 0, "the schedule must actually inject");
        assert!(c.pass(), "{c:?}");
        assert!(c.matches_clean(), "{c:?}");
    }

    #[test]
    fn report_json_is_deterministic() {
        let t = trace(200);
        let (mid, _) = preset_params();
        let a = run_campaign(&t, mid, &[1, 2, 3], Severity::Standard);
        let b = run_campaign(&t, mid, &[1, 2, 3], Severity::Standard);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.all_pass(), "{}", a.summary_table());
    }

    /// The tight preset over the `chaos` binary's pinned seeds and
    /// trace: some clean run ends in a true overflow, and its faulted
    /// twin ends identically with the fault ledger reconciled.
    #[test]
    fn tight_preset_true_overflows_identically_under_faults() {
        let t = trace(2_000);
        let (_, tight) = preset_params();
        let r = run_campaign(&t, tight, &[11, 23, 47], Severity::Standard);
        assert!(r.all_pass(), "{}", r.summary_table());
        assert!(
            r.cases.iter().any(|c| c.clean.true_overflow
                && c.injected > 0
                && c.matches_clean()
                && c.counters_reconcile()),
            "a 16-entry table over this trace must true-overflow under faults:\n{}",
            r.summary_table()
        );
    }

    /// The acceptance gate: 100 seeded fault schedules, zero panics,
    /// every run matching the fault-free output or ending in a typed
    /// error, and the fault ledger reconciling exactly.
    #[test]
    fn hundred_seeded_schedules_uphold_the_contract() {
        let t = trace(150);
        let seeds: Vec<u64> = (1..=50).collect();
        let (mid, tight) = preset_params();
        let std_r = run_campaign(&t, mid, &seeds, Severity::Standard);
        assert!(std_r.all_pass(), "{}", std_r.summary_table());
        let agg_r = run_campaign(&t, tight, &seeds, Severity::Aggressive);
        assert!(agg_r.all_pass(), "{}", agg_r.summary_table());
        assert!(
            std_r.cases.iter().map(|c| c.injected).sum::<u64>() > 0,
            "schedules must fire"
        );
    }
}
