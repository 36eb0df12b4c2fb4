//! Parameter sweeps and experiment batteries (Figures 5.1–5.3, Tables
//! 5.2, 5.3, 5.5), plus the instrumented **parallel sweep engine**: a
//! config-grid runner that fans independent simulator cells across OS
//! threads, collects a full [`MetricsSnapshot`] per cell, and emits a
//! deterministic machine-readable report (see [`run_sweep`]).

use crate::config::SimParams;
use crate::driver::{run_sim, run_sim_with_sink, CacheConfig, SimResult};
use small_core::{CompressPolicy, DecrementPolicy, RefcountMode};
use small_metrics::{JsonObject, MetricsSnapshot, RecordingSink};
use small_profile::{Profile, SpanSink};
use small_trace::Trace;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One point of the Figure 5.1 peak-usage curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeakPoint {
    /// LPT size for this run.
    pub table_size: usize,
    /// Peak LPT occupancy observed.
    pub peak: usize,
    /// Whether any pseudo overflow occurred.
    pub pseudo: bool,
    /// Whether the run hit a true overflow.
    pub true_overflow: bool,
}

/// The Figure 5.1 sweep: peak LPT usage against table size.
pub fn peak_curve(trace: &Trace, base: SimParams, sizes: &[usize]) -> Vec<PeakPoint> {
    sizes
        .iter()
        .map(|&size| {
            let r = run_sim(trace, base.with_table(size), None);
            PeakPoint {
                table_size: size,
                peak: r.lpt.max_occupancy,
                pseudo: r.lpt.pseudo_overflows > 0,
                true_overflow: r.true_overflow,
            }
        })
        .collect()
}

/// The knee of the Figure 5.1 curve: maximum occupancy with a table big
/// enough that no overflow of any kind occurs.
pub fn knee(trace: &Trace, base: SimParams) -> usize {
    let mut size = 4096usize;
    loop {
        let r = run_sim(trace, base.with_table(size), None);
        if !r.true_overflow && r.lpt.pseudo_overflows == 0 {
            return r.lpt.max_occupancy;
        }
        size *= 4;
        assert!(size <= 1 << 22, "knee search diverged");
    }
}

/// The Figure 5.2 experiment: knee spread over `n_seeds` different
/// seeds ("by re-seeding … we simulate totally different access
/// patterns").
pub fn knee_spread(trace: &Trace, base: SimParams, n_seeds: u64) -> (usize, usize) {
    let mut lo = usize::MAX;
    let mut hi = 0usize;
    for seed in 0..n_seeds {
        let k = knee(trace, base.with_seed(seed + 1));
        lo = lo.min(k);
        hi = hi.max(k);
    }
    (lo, hi)
}

/// Average-occupancy comparison of the two compression policies at one
/// table size (Figure 5.3 points).
pub fn compression_comparison(trace: &Trace, base: SimParams, table_size: usize) -> (f64, f64) {
    let one = run_sim(
        trace,
        SimParams {
            compression: small_core::CompressPolicy::CompressOne,
            table_size,
            ..base
        },
        None,
    );
    let all = run_sim(
        trace,
        SimParams {
            compression: small_core::CompressPolicy::CompressAll,
            table_size,
            ..base
        },
        None,
    );
    (one.lpt.avg_occupancy(), all.lpt.avg_occupancy())
}

/// Table 5.2 row: Refops/Gets/Frees under the lazy policy plus the
/// RecRefops count under the recursive policy.
#[derive(Debug, Clone, Copy)]
pub struct LptActivityRow {
    /// Reference-count operations (lazy policy).
    pub refops: u64,
    /// Entry allocations.
    pub gets: u64,
    /// Entry frees.
    pub frees: u64,
    /// Reference-count operations under immediate recursive decrement.
    pub rec_refops: u64,
}

/// Compute the Table 5.2 row for a trace.
pub fn lpt_activity(trace: &Trace, base: SimParams) -> LptActivityRow {
    let lazy = run_sim(
        trace,
        SimParams {
            decrement: DecrementPolicy::Lazy,
            ..base
        },
        None,
    );
    let rec = run_sim(
        trace,
        SimParams {
            decrement: DecrementPolicy::Recursive,
            ..base
        },
        None,
    );
    LptActivityRow {
        refops: lazy.lpt.refops,
        gets: lazy.lpt.gets,
        frees: lazy.lpt.frees,
        rec_refops: rec.lpt.refops,
    }
}

/// Table 5.3 row: bus-visible refops and max counts, unified ("Then")
/// vs split ("Now").
#[derive(Debug, Clone, Copy)]
pub struct SplitCountRow {
    /// LPT refops with unified counts.
    pub refops_then: u64,
    /// LPT refops with split counts (EP traffic removed).
    pub refops_now: u64,
    /// Max LPT count, unified.
    pub max_then: u32,
    /// Max LPT count, split (internal refs only).
    pub max_now_lpt: u32,
    /// Max EP-side count, split.
    pub max_now_ep: u32,
}

/// Compute the Table 5.3 row for a trace.
pub fn split_counts(trace: &Trace, base: SimParams) -> SplitCountRow {
    let unified = run_sim(
        trace,
        SimParams {
            refcounts: RefcountMode::Unified,
            ..base
        },
        None,
    );
    let split = run_sim(
        trace,
        SimParams {
            refcounts: RefcountMode::Split,
            ..base
        },
        None,
    );
    SplitCountRow {
        refops_then: unified.lpt.refops,
        refops_now: split.lpt.refops,
        max_then: unified.lpt.max_refcount,
        max_now_lpt: split.lpt.max_refcount,
        max_now_ep: split.lpt.max_ep_refcount,
    }
}

/// LPT vs cache at equal entry counts, unit lines (Table 5.4 row).
pub fn cache_compare(trace: &Trace, base: SimParams, size: usize) -> SimResult {
    run_sim(
        trace,
        base.with_table(size),
        Some(CacheConfig {
            lines: size,
            line_cells: 1,
        }),
    )
}

/// Figure 5.5 point: cache-miss/LPT-miss ratio with twice the entries
/// (half-size cache entries) at the given line size.
pub fn line_size_ratio(trace: &Trace, base: SimParams, size: usize, line_cells: usize) -> f64 {
    let lines = (2 * size) / line_cells.max(1);
    let r = run_sim(
        trace,
        base.with_table(size),
        Some(CacheConfig {
            lines: lines.max(1),
            line_cells,
        }),
    );
    if r.access_misses == 0 {
        return f64::INFINITY;
    }
    r.cache_misses as f64 / r.access_misses as f64
}

// ---------------------------------------------------------------------
// The parallel sweep engine
// ---------------------------------------------------------------------

/// A sweep grid: the cartesian product of LPT sizes, compression
/// policies, reference-count modes, and decrement policies, run over
/// one trace from a common base parameter set.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Grid name (becomes the report/file name).
    pub name: String,
    /// LPT sizes to sweep.
    pub table_sizes: Vec<usize>,
    /// Compression policies to sweep.
    pub compressions: Vec<CompressPolicy>,
    /// Reference-count placements to sweep.
    pub refcounts: Vec<RefcountMode>,
    /// Decrement policies to sweep.
    pub decrements: Vec<DecrementPolicy>,
    /// Base parameters every cell starts from.
    pub base: SimParams,
}

impl SweepGrid {
    /// The standard 12-cell grid: three LPT sizes × both compression
    /// policies × both reference-count modes, lazy decrement.
    pub fn standard(name: &str) -> Self {
        SweepGrid {
            name: name.to_string(),
            table_sizes: vec![256, 512, 1024],
            compressions: vec![CompressPolicy::CompressOne, CompressPolicy::CompressAll],
            refcounts: vec![RefcountMode::Unified, RefcountMode::Split],
            decrements: vec![DecrementPolicy::Lazy],
            base: SimParams::default(),
        }
    }

    /// All cells in a stable order (the cell index is its position).
    pub fn cells(&self) -> Vec<SweepCellConfig> {
        let mut out = Vec::new();
        for &table_size in &self.table_sizes {
            for &compression in &self.compressions {
                for &refcounts in &self.refcounts {
                    for &decrement in &self.decrements {
                        out.push(SweepCellConfig {
                            index: out.len(),
                            params: SimParams {
                                table_size,
                                compression,
                                refcounts,
                                decrement,
                                ..self.base
                            },
                        });
                    }
                }
            }
        }
        out
    }
}

/// One cell of a sweep grid: a stable index plus the full parameter set
/// it runs with.
#[derive(Debug, Clone, Copy)]
pub struct SweepCellConfig {
    /// Position in the grid's stable cell order.
    pub index: usize,
    /// The parameters this cell runs with.
    pub params: SimParams,
}

/// The outcome of one sweep cell: the simulator result, the full
/// event-level metrics snapshot, and the cycle-accounting profile.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The cell configuration.
    pub config: SweepCellConfig,
    /// Aggregate simulator result.
    pub result: SimResult,
    /// Event-level metrics recorded during the run.
    pub metrics: MetricsSnapshot,
    /// Virtual-cycle accounting from a summary-only [`SpanSink`]
    /// (no timeline is kept; the totals are `run_stream`-exact).
    pub profile: Profile,
}

fn policy_name(p: CompressPolicy) -> String {
    match p {
        CompressPolicy::CompressOne => "compress-one".to_string(),
        CompressPolicy::CompressAll => "compress-all".to_string(),
        CompressPolicy::Hybrid { threshold, window } => format!("hybrid({threshold},{window})"),
    }
}

fn refcount_name(m: RefcountMode) -> &'static str {
    match m {
        RefcountMode::Unified => "unified",
        RefcountMode::Split => "split",
    }
}

fn decrement_name(d: DecrementPolicy) -> &'static str {
    match d {
        DecrementPolicy::Lazy => "lazy",
        DecrementPolicy::Recursive => "recursive",
    }
}

impl CellReport {
    /// Deterministic JSON for this cell: configuration, simulator
    /// aggregates, and the metrics snapshot, in a fixed key order.
    /// Deliberately excludes wall-clock time so reports are
    /// byte-identical across thread counts and machines.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("cell", self.config.index as u64);
        o.field_u64("table_size", self.config.params.table_size as u64);
        o.field_str("compression", &policy_name(self.config.params.compression));
        o.field_str("refcounts", refcount_name(self.config.params.refcounts));
        o.field_str("decrement", decrement_name(self.config.params.decrement));
        o.field_u64("seed", self.config.params.seed);
        o.field_bool("true_overflow", self.result.true_overflow);
        o.field_str("failure", self.result.failure.as_deref().unwrap_or(""));
        o.field_u64("prims_executed", self.result.prims_executed as u64);
        o.field_f64("lpt_hit_rate", self.result.lpt_hit_rate());
        o.field_u64("max_occupancy", self.result.lpt.max_occupancy as u64);
        o.field_f64("avg_occupancy", self.result.lpt.avg_occupancy());
        o.field_u64("refops", self.result.lpt.refops);
        o.field_u64("ep_refops", self.result.lpt.ep_refops);
        o.field_u64("total_cycles", self.profile.timing.total);
        o.field_u64("ep_idle_cycles", self.profile.timing.ep_idle);
        o.field_u64("lp_idle_cycles", self.profile.timing.lp_idle);
        o.field_u64("stall_cycles", self.profile.stall_cycles());
        o.field_u64("overlap_cycles", self.profile.overlap_cycles());
        o.field_f64("ep_utilization", self.profile.timing.ep_utilization());
        o.field_raw("metrics", &self.metrics.to_json());
        o.finish()
    }
}

/// The outcome of a full sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Grid name.
    pub grid: String,
    /// Trace the grid ran over.
    pub trace: String,
    /// Per-cell reports, in stable cell order.
    pub cells: Vec<CellReport>,
    /// Worker threads used (not serialized — reports are
    /// thread-count-independent).
    pub threads: usize,
    /// Total wall-clock time (not serialized).
    pub wall: Duration,
}

impl SweepReport {
    /// Deterministic JSON for the whole sweep. Byte-identical for the
    /// same grid + trace regardless of thread count: cells appear in
    /// stable grid order and no wall-clock data is included.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self.cells.iter().map(CellReport::to_json).collect();
        let mut o = JsonObject::new();
        o.field_str("grid", &self.grid);
        o.field_str("trace", &self.trace);
        o.field_u64("cells_total", self.cells.len() as u64);
        o.field_raw("cells", &format!("[{}]", cells.join(",")));
        o.finish()
    }

    /// Write the JSON report as `<dir>/<grid>.json`, creating the
    /// directory if needed. Returns the path written.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.grid));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// A human-readable summary table (this one may mention wall time).
    pub fn summary_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "sweep '{}' over trace '{}': {} cells, {} threads, {:.2}s\n",
            self.grid,
            self.trace,
            self.cells.len(),
            self.threads,
            self.wall.as_secs_f64()
        ));
        s.push_str(
            "cell  table  compression   refcounts  decrement  hit%   peak   refops     overflow\n",
        );
        for c in &self.cells {
            s.push_str(&format!(
                "{:>4}  {:>5}  {:<12}  {:<9}  {:<9}  {:>5.1}  {:>5}  {:>9}  {}\n",
                c.config.index,
                c.config.params.table_size,
                policy_name(c.config.params.compression),
                refcount_name(c.config.params.refcounts),
                decrement_name(c.config.params.decrement),
                c.result.lpt_hit_rate() * 100.0,
                c.result.lpt.max_occupancy,
                c.result.lpt.refops,
                if c.result.true_overflow { "TRUE" } else { "-" },
            ));
        }
        s
    }
}

/// Run every cell of `grid` over `trace` on up to `threads` worker
/// threads (0 selects the machine's available parallelism).
///
/// Each cell runs a completely independent [`run_sim_with_sink`] —
/// its own `ListProcessor`, heap controller, and RNG seeded from the
/// cell parameters — so per-cell results are bit-identical regardless
/// of scheduling. Workers claim cells from a shared atomic index
/// (work-stealing by competition); results land in stable grid order.
pub fn run_sweep(trace: &Trace, grid: &SweepGrid, threads: usize) -> SweepReport {
    let start = std::time::Instant::now();
    let cells = grid.cells();
    let workers = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
    .min(cells.len())
    .max(1);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<CellReport>>> =
        Mutex::new((0..cells.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(k) else { break };
                // A tee sink: the RecordingSink keeps full event
                // metrics, the summary-only SpanSink runs the virtual
                // clock in O(1) memory.
                let sink = (
                    RecordingSink::default(),
                    SpanSink::new(&trace.name).summary_only(),
                );
                let (result, (recording, spans)) =
                    run_sim_with_sink(trace, cell.params, None, sink);
                let report = CellReport {
                    config: *cell,
                    result,
                    metrics: recording.snapshot(),
                    profile: spans.finish(),
                };
                // A panicking worker poisons the slot mutex; the data is
                // a plain Vec, so later workers adopt it rather than
                // cascading the failure.
                slots.lock().unwrap_or_else(|e| e.into_inner())[k] = Some(report);
            });
        }
    });
    let cells = slots
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|c| c.expect("every cell claimed and completed"))
        .collect();
    SweepReport {
        grid: grid.name.clone(),
        trace: trace.name.clone(),
        cells,
        threads: workers,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use small_workloads::synthetic;

    fn t(prims: usize) -> Trace {
        let mut p = synthetic::table_5_1("slang");
        p.primitives = prims;
        synthetic::generate(&p)
    }

    #[test]
    fn peak_curve_has_slope_one_then_knee_shape() {
        // Figure 5.1: below the knee the peak equals the table size (with
        // pseudo overflows); above it, the peak is flat.
        let trace = t(1500);
        let k = knee(&trace, SimParams::default());
        assert!(k > 8, "knee {k} too small to test");
        let sizes = [k / 2, k.saturating_sub(2).max(1), k, k + 16, k * 2];
        let curve = peak_curve(&trace, SimParams::default(), &sizes);
        // Below the knee: peak == size (the table fills).
        assert_eq!(curve[0].peak, curve[0].table_size);
        assert!(curve[0].pseudo);
        // Well above the knee: no overflow, flat peak.
        assert!(!curve[4].pseudo && !curve[4].true_overflow);
        assert_eq!(curve[4].peak, k);
        assert_eq!(curve[3].peak, k);
    }

    #[test]
    fn knee_spread_is_an_interval() {
        let trace = t(800);
        let (lo, hi) = knee_spread(&trace, SimParams::default(), 5);
        assert!(lo <= hi);
        assert!(lo > 0);
    }

    #[test]
    fn compress_one_keeps_higher_average_occupancy() {
        // Figure 5.3's direction.
        let trace = t(3000);
        let k = knee(&trace, SimParams::default());
        let (one, all) = compression_comparison(&trace, SimParams::default(), (k * 3 / 4).max(8));
        assert!(
            one >= all - 1.0,
            "Compress-One avg {one:.1} should not be below Compress-All {all:.1}"
        );
    }

    #[test]
    fn lazy_refops_below_recursive() {
        let trace = t(2000);
        let row = lpt_activity(&trace, SimParams::default());
        assert!(
            row.rec_refops > row.refops,
            "RecRefops {} must exceed Refops {} (Table 5.2)",
            row.rec_refops,
            row.refops
        );
        assert!(row.gets > 0 && row.frees > 0);
    }

    #[test]
    fn split_counts_cut_bus_traffic_by_a_lot() {
        let trace = t(2000);
        let row = split_counts(&trace, SimParams::default());
        assert!(
            (row.refops_now as f64) < row.refops_then as f64 * 0.67,
            "split {} must cut unified {} bus traffic substantially (Table 5.3)",
            row.refops_now,
            row.refops_then
        );
        assert!(row.max_now_lpt <= row.max_then);
    }

    #[test]
    fn standard_grid_has_twelve_cells_in_stable_order() {
        let g = SweepGrid::standard("std");
        let cells = g.cells();
        assert_eq!(cells.len(), 12);
        for (k, c) in cells.iter().enumerate() {
            assert_eq!(c.index, k);
        }
        // Size-major order: first four cells share the smallest table.
        assert!(cells[..4].iter().all(|c| c.params.table_size == 256));
    }

    #[test]
    fn sweep_report_is_identical_across_thread_counts() {
        // The acceptance bar: a 1-thread and an N-thread sweep produce
        // byte-identical reports — cells are independent and the JSON
        // carries no scheduling-dependent data.
        let trace = t(600);
        let grid = SweepGrid::standard("det");
        let serial = run_sweep(&trace, &grid, 1);
        let parallel = run_sweep(&trace, &grid, 4);
        assert_eq!(serial.to_json(), parallel.to_json());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.result.lpt.refops, b.result.lpt.refops);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn sweep_cell_metrics_mirror_lpt_stats() {
        let trace = t(600);
        let grid = SweepGrid::standard("mirror");
        let report = run_sweep(&trace, &grid, 0);
        assert_eq!(report.cells.len(), 12);
        for c in &report.cells {
            assert_eq!(c.metrics.counts.refops.get(), c.result.lpt.refops);
            assert_eq!(c.metrics.counts.ep_refops.get(), c.result.lpt.ep_refops);
            assert_eq!(c.metrics.counts.entries_allocated.get(), c.result.lpt.gets);
            assert_eq!(c.metrics.counts.lpt_misses.get(), c.result.lpt.misses);
            assert_eq!(
                c.metrics.occupancy.max(),
                c.result.lpt.max_occupancy as u64,
                "occupancy histogram peak must equal the stats peak"
            );
        }
        // The summary table mentions every cell.
        let table = report.summary_table();
        assert_eq!(table.lines().count(), 2 + 12);
    }

    #[test]
    fn sweep_cells_carry_summary_timing() {
        let trace = t(600);
        let mut grid = SweepGrid::standard("timing");
        grid.table_sizes = vec![512];
        let report = run_sweep(&trace, &grid, 2);
        for c in &report.cells {
            assert!(c.profile.timing.ops > 0);
            assert!(c.profile.spans.is_empty(), "sweep cells are summary-only");
            let json = c.to_json();
            assert!(json.contains("\"total_cycles\""));
            assert!(json.contains("\"stall_cycles\""));
        }
    }

    #[test]
    fn sweep_json_lands_on_disk() {
        let trace = t(300);
        let mut grid = SweepGrid::standard("disk-check");
        grid.table_sizes = vec![256];
        let report = run_sweep(&trace, &grid, 2);
        let dir = std::env::temp_dir().join("small-sweep-test");
        let path = report.write_json(&dir).expect("write");
        let body = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(body, report.to_json());
        assert!(body.starts_with("{\"grid\":\"disk-check\""));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn line_size_helps_the_cache() {
        // Figure 5.5's direction: the miss ratio falls as lines grow
        // (prefetch exploits the structural locality in the addresses).
        let trace = t(3000);
        let size = 96;
        let r1 = line_size_ratio(&trace, SimParams::default(), size, 1);
        let r8 = line_size_ratio(&trace, SimParams::default(), size, 8);
        assert!(
            r8 < r1,
            "line 8 ratio {r8:.2} should be below line 1 ratio {r1:.2}"
        );
    }
}
