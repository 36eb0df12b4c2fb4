//! The perf-trajectory harness: a pinned workload grid whose results are
//! appended to the repository's bench trajectory, one point per PR.
//!
//! [`run`] executes a fixed grid of simulator workloads (trace sizes ×
//! LPT sizes × EP issue gaps, fixed seed) under a summary-only
//! [`SpanSink`](small_profile::SpanSink) and produces the
//! schema-versioned report written to `BENCH_small.json` at the repo
//! root. [`run_soak_cells`] adds a second pinned grid measured through
//! the serving layer's telemetry twin
//! ([`small_serve::soak::twin_telemetry`]): per-cell eval-latency
//! p50/p99 on the virtual clock, which is a pure function of the seed's
//! request streams. The default payload contains **only virtual-cycle
//! totals, event counts, and latency quantiles** — fully deterministic,
//! byte-identical across runs and machines — so CI can diff it.
//! Wall-time medians are opt-in (`--wall`): they are measured as the
//! median of [`WALL_REPS`] repetitions and rounded to microseconds, and
//! the field stays `null` when not requested so the deterministic shape
//! never changes. [`normalize_wall`] maps a committed payload with wall
//! data back onto the deterministic shape so CI can byte-compare it
//! against a fresh `--wall`-less run.

use small_core::timing::TimingModel;
use small_metrics::JsonObject;
use small_profile::SpanSink;
use small_serve::session::ServeConfig;
use small_serve::soak::twin_telemetry;
use small_serve::telemetry::ReqKind;
use small_simulator::driver::run_sim_with_sink;
use small_simulator::SimParams;
use small_trace::Trace;
use small_workloads::synthetic;
use std::time::Instant;

/// Schema identifier; bump on any key change so trajectory consumers
/// can dispatch. v2 added `ep_gap` per cell, the `slang-4k-tight`
/// stall-exercising point, and the `soak_cells` section.
pub const SCHEMA: &str = "small-bench-trajectory/2";

/// Repetitions behind each wall-time median.
pub const WALL_REPS: usize = 5;

/// One point of the pinned grid.
#[derive(Debug, Clone, Copy)]
pub struct GridPoint {
    /// Workload label (stable across PRs; part of the schema).
    pub workload: &'static str,
    /// Primitive events in the synthetic trace.
    pub primitives: usize,
    /// LPT size the cell runs with.
    pub table_size: usize,
    /// EP cycles between successive operation issues. The default gap
    /// ([`small_core::timing::DEFAULT_EP_GAP`]) absorbs every LP tail; a
    /// gap of 0 makes back-to-back issues collide with the previous
    /// operation's tail work and exercises the §4.3.2.5 chaining stall.
    pub ep_gap: u64,
}

/// The pinned grid. Do not reorder or rename entries — the trajectory
/// is only comparable across PRs if the grid is stable. Append new
/// points at the end and bump [`SCHEMA`] when doing so.
pub const GRID: [GridPoint; 5] = [
    GridPoint {
        workload: "slang-2k-t512",
        primitives: 2000,
        table_size: 512,
        ep_gap: small_core::timing::DEFAULT_EP_GAP,
    },
    GridPoint {
        workload: "slang-2k-t48",
        primitives: 2000,
        table_size: 48,
        ep_gap: small_core::timing::DEFAULT_EP_GAP,
    },
    GridPoint {
        workload: "slang-8k-t512",
        primitives: 8000,
        table_size: 512,
        ep_gap: small_core::timing::DEFAULT_EP_GAP,
    },
    GridPoint {
        workload: "plagen-4k-t512",
        primitives: 4000,
        table_size: 512,
        ep_gap: small_core::timing::DEFAULT_EP_GAP,
    },
    // A zero-gap EP keeps no slack between issues, so a cons's 4-cycle
    // LP tail stalls the next 2-cycle-lookup request: the one grid
    // point where `stall_cycles` must be nonzero.
    GridPoint {
        workload: "slang-4k-tight",
        primitives: 4000,
        table_size: 512,
        ep_gap: 0,
    },
];

/// One cell of the serving-layer soak grid: a pinned
/// seed × clients × requests triple measured through the serial
/// telemetry twin.
#[derive(Debug, Clone, Copy)]
pub struct SoakCell {
    /// Workload seed (drives every client's generated request stream).
    pub seed: u64,
    /// Serial client streams replayed through the twin.
    pub clients: usize,
    /// Generated eval requests per client.
    pub requests: usize,
}

/// The pinned soak grid. Seeds are literals (not indices into
/// `PINNED_SEEDS`) so the trajectory survives changes to the seed
/// pool. Append, never reorder; bump [`SCHEMA`] when appending.
pub const SOAK_GRID: [SoakCell; 2] = [
    SoakCell {
        seed: 11,
        clients: 4,
        requests: 12,
    },
    SoakCell {
        seed: 23,
        clients: 6,
        requests: 16,
    },
];

/// The measured result for one grid point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The grid point.
    pub point: GridPoint,
    /// Virtual cycles elapsed (run_stream-exact).
    pub total_cycles: u64,
    /// Virtual cycles the EP spent idle.
    pub ep_idle_cycles: u64,
    /// §4.3.2.5 chaining-stall cycles.
    pub stall_cycles: u64,
    /// LP tail cycles overlapped with EP execution.
    pub overlap_cycles: u64,
    /// Operations executed.
    pub ops: u64,
    /// LPT hit rate over car/cdr requests.
    pub lpt_hit_rate: f64,
    /// Reference-count operations (bus traffic).
    pub refops: u64,
    /// Median wall time in microseconds, when measured.
    pub wall_us: Option<u64>,
}

/// The measured result for one soak cell.
#[derive(Debug, Clone)]
pub struct SoakCellResult {
    /// The cell.
    pub cell: SoakCell,
    /// Requests of every kind the twin served.
    pub requests_total: u64,
    /// Eval requests among them.
    pub evals: u64,
    /// Median eval latency in virtual cycles.
    pub eval_p50_cycles: u64,
    /// Tail eval latency in virtual cycles.
    pub eval_p99_cycles: u64,
    /// Median wall time of the whole cell in microseconds, when
    /// measured.
    pub wall_us: Option<u64>,
}

fn trace_for(p: &GridPoint) -> Trace {
    let family = if p.workload.starts_with("plagen") {
        "plagen"
    } else {
        "slang"
    };
    let mut params = synthetic::table_5_1(family);
    params.primitives = p.primitives;
    synthetic::generate(&params)
}

fn median_wall_us(reps: usize, mut run: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_micros() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[reps / 2]
}

fn measure(p: &GridPoint, wall: bool) -> PointResult {
    let trace = trace_for(p);
    let params = SimParams::default().with_table(p.table_size);
    let sink: SpanSink =
        SpanSink::with_model(p.workload, TimingModel::default(), p.ep_gap).summary_only();
    let (result, sink) = run_sim_with_sink(&trace, params, None, sink);
    let profile = sink.finish();
    let wall_us = wall.then(|| {
        median_wall_us(WALL_REPS, || {
            let sink: SpanSink =
                SpanSink::with_model(p.workload, TimingModel::default(), p.ep_gap).summary_only();
            let _ = run_sim_with_sink(&trace, params, None, sink);
        })
    });
    PointResult {
        point: *p,
        total_cycles: profile.timing.total,
        ep_idle_cycles: profile.timing.ep_idle,
        stall_cycles: profile.stall_cycles(),
        overlap_cycles: profile.overlap_cycles(),
        ops: profile.timing.ops,
        lpt_hit_rate: result.lpt_hit_rate(),
        refops: result.lpt.refops,
        wall_us,
    }
}

/// The serving configuration every soak cell runs under. Part of the
/// schema: changing it changes the committed latency quantiles.
fn soak_cfg() -> ServeConfig {
    ServeConfig {
        table_size: 384,
        heap_cells: 1 << 13,
        // Sizes the deterministic eviction sweep (max_resident + 2
        // sessions); the twin itself never evicts.
        max_resident: 4,
        ..ServeConfig::default()
    }
}

fn measure_soak(c: &SoakCell, wall: bool) -> SoakCellResult {
    let cfg = soak_cfg();
    let m = twin_telemetry(c.seed, c.clients, c.requests, &cfg);
    let eval = m.kind(ReqKind::Eval);
    let wall_us = wall.then(|| {
        median_wall_us(WALL_REPS, || {
            let _ = twin_telemetry(c.seed, c.clients, c.requests, &cfg);
        })
    });
    SoakCellResult {
        cell: *c,
        requests_total: m.requests(),
        evals: eval.count.get(),
        eval_p50_cycles: eval.cycles.quantile(0.5),
        eval_p99_cycles: eval.cycles.quantile(0.99),
        wall_us,
    }
}

/// Run the pinned simulator grid. `wall` opts into wall-time medians;
/// leave it off for the deterministic trajectory payload.
pub fn run(wall: bool) -> Vec<PointResult> {
    GRID.iter().map(|p| measure(p, wall)).collect()
}

/// Run the pinned serving-layer soak grid through the telemetry twin.
pub fn run_soak_cells(wall: bool) -> Vec<SoakCellResult> {
    SOAK_GRID.iter().map(|c| measure_soak(c, wall)).collect()
}

fn wall_field(o: &mut JsonObject, wall_us: Option<u64>) {
    match wall_us {
        Some(us) => o.field_u64("wall_us", us),
        None => o.field_raw("wall_us", "null"),
    };
}

/// The schema-versioned report. Key order is fixed; cells appear in
/// grid order; no raw timestamps appear in the payload (`wall_us` is a
/// rounded median or `null`).
pub fn to_json(results: &[PointResult], soak: &[SoakCellResult]) -> String {
    let cells: Vec<String> = results
        .iter()
        .map(|r| {
            let mut o = JsonObject::new();
            o.field_str("workload", r.point.workload)
                .field_u64("primitives", r.point.primitives as u64)
                .field_u64("table_size", r.point.table_size as u64)
                .field_u64("ep_gap", r.point.ep_gap)
                .field_u64("ops", r.ops)
                .field_u64("total_cycles", r.total_cycles)
                .field_u64("ep_idle_cycles", r.ep_idle_cycles)
                .field_u64("stall_cycles", r.stall_cycles)
                .field_u64("overlap_cycles", r.overlap_cycles)
                .field_f64("lpt_hit_rate", r.lpt_hit_rate)
                .field_u64("refops", r.refops);
            wall_field(&mut o, r.wall_us);
            o.finish()
        })
        .collect();
    let soak_cells: Vec<String> = soak
        .iter()
        .map(|r| {
            let mut o = JsonObject::new();
            o.field_u64("seed", r.cell.seed)
                .field_u64("clients", r.cell.clients as u64)
                .field_u64("requests", r.cell.requests as u64)
                .field_u64("requests_total", r.requests_total)
                .field_u64("evals", r.evals)
                .field_u64("eval_p50_cycles", r.eval_p50_cycles)
                .field_u64("eval_p99_cycles", r.eval_p99_cycles);
            wall_field(&mut o, r.wall_us);
            o.finish()
        })
        .collect();
    let mut root = JsonObject::new();
    root.field_str("schema", SCHEMA);
    root.field_u64("grid_points", results.len() as u64);
    root.field_raw("cells", &format!("[{}]", cells.join(",")));
    root.field_raw("soak_cells", &format!("[{}]", soak_cells.join(",")));
    root.finish()
}

/// Replace every measured `"wall_us":<n>` with `"wall_us":null`.
///
/// Wall medians are the payload's only volatile field; normalizing them
/// away maps a committed `--wall` trajectory back onto the
/// deterministic shape, so CI can byte-compare the committed file
/// against a freshly generated wall-less payload (the `--check` mode).
pub fn normalize_wall(json: &str) -> String {
    const KEY: &str = "\"wall_us\":";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(i) = rest.find(KEY) {
        let after = i + KEY.len();
        out.push_str(&rest[..after]);
        let tail = &rest[after..];
        let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
        if digits > 0 {
            out.push_str("null");
            rest = &tail[digits..];
        } else {
            rest = tail;
        }
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_without_wall_times() {
        // The acceptance bar: two consecutive runs must serialize
        // byte-identically. Keep the grid small here — one simulator
        // point and one soak cell suffice to pin the property.
        let p = GRID[0];
        let c = SOAK_GRID[0];
        let a = to_json(&[measure(&p, false)], &[measure_soak(&c, false)]);
        let b = to_json(&[measure(&p, false)], &[measure_soak(&c, false)]);
        assert_eq!(a, b);
        assert!(a.starts_with(&format!("{{\"schema\":\"{SCHEMA}\"")));
        assert!(a.contains("\"wall_us\":null"));
        assert!(a.contains("\"soak_cells\":["));
    }

    #[test]
    fn wall_opt_in_fills_the_field() {
        let p = GridPoint {
            workload: "slang-2k-t512",
            primitives: 300,
            table_size: 512,
            ep_gap: small_core::timing::DEFAULT_EP_GAP,
        };
        let r = measure(&p, true);
        assert!(r.wall_us.is_some());
        let json = to_json(&[r], &[]);
        assert!(!json.contains("\"wall_us\":null"));
    }

    #[test]
    fn tight_grid_point_exercises_stalls() {
        // The whole reason slang-4k-tight exists: every other point
        // reports stall_cycles 0, so the chaining-stall accounting was
        // untested by the trajectory.
        let tight = GRID
            .iter()
            .find(|p| p.workload == "slang-4k-tight")
            .expect("tight point is pinned");
        let r = measure(tight, false);
        assert!(
            r.stall_cycles > 0,
            "zero-gap point must report chaining stalls"
        );
        let relaxed = GridPoint {
            ep_gap: small_core::timing::DEFAULT_EP_GAP,
            ..*tight
        };
        assert_eq!(measure(&relaxed, false).stall_cycles, 0);
    }

    #[test]
    fn soak_cells_count_evals_and_order_quantiles() {
        // The seed-23 cell: big enough that over half its evals touch
        // the LP. The seed-11 cell's p50 is 0 even under the exclusive
        // nearest rank (`Histogram::quantile`'s boundary fix): its
        // zero-cycle evals — pure-EP arithmetic records zero virtual
        // cycles by definition — are a *strict majority* of the 114
        // samples, not a rounding artifact at the 50% boundary.
        let r = measure_soak(&SOAK_GRID[1], false);
        let expected_evals = (SOAK_GRID[1].clients * SOAK_GRID[1].requests) as u64;
        // Clients contribute exactly `requests` evals each; the
        // eviction sweep adds its own on top.
        assert!(r.evals > expected_evals);
        assert!(r.requests_total > r.evals);
        assert!(r.eval_p50_cycles > 0);
        assert!(r.eval_p99_cycles >= r.eval_p50_cycles);
    }

    #[test]
    fn normalize_wall_nulls_only_measured_medians() {
        let json = r#"{"wall_us":1234,"x":{"wall_us":null,"wall_us":7}}"#;
        assert_eq!(
            normalize_wall(json),
            r#"{"wall_us":null,"x":{"wall_us":null,"wall_us":null}}"#
        );
        // A wall-run payload normalizes to the wall-less payload.
        let p = GRID[0];
        let with_wall = to_json(&[measure(&p, true)], &[]);
        let without = to_json(&[measure(&p, false)], &[]);
        assert_eq!(normalize_wall(&with_wall), without);
    }

    #[test]
    fn grid_labels_are_unique_and_stable() {
        let mut names: Vec<&str> = GRID.iter().map(|p| p.workload).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GRID.len(), "duplicate workload labels");
    }
}
