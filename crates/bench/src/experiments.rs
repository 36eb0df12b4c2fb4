//! One function per thesis table/figure (see DESIGN.md for the index).
//!
//! Each returns the regenerated rows/series as text; the `repro` binary
//! prints them or writes them under `results/`. We reproduce *shape*,
//! not absolute 1986 numbers — see EXPERIMENTS.md for the side-by-side
//! reading.

use crate::suite::{table, Suite};
use small_analysis::list_sets::{partition, SeparationConstraint};
use small_analysis::lru::StackDistances;
use small_analysis::np::np_summary;
use small_analysis::ChainStats;
use small_core::machine::{traverse_preorder, SmallBackend};
use small_core::timing::TimingModel;
use small_core::LpConfig;
use small_metrics::OpClass;
use small_simulator::driver::{run_sim, CacheConfig};
use small_simulator::sweep;
use small_simulator::SimParams;
use small_trace::{Prim, TraceStats};
use std::fmt::Write as _;

/// All experiment ids, in thesis order.
pub const ALL: &[&str] = &[
    "fig3.1",
    "table3.1",
    "fig3.2",
    "fig3.3",
    "fig3.4",
    "fig3.5",
    "fig3.6",
    "fig3.7",
    "table3.2",
    "fig3.8",
    "fig3.9",
    "fig3.10",
    "fig3.11",
    "fig3.12",
    "fig3.13",
    "compile",
    "timing",
    "table5.1",
    "fig5.1",
    "fig5.2",
    "fig5.3",
    "table5.2",
    "table5.3",
    "table5.4",
    "fig5.4",
    "fig5.5",
    "table5.5",
    "fig5.6",
    "traversal",
];

/// Run one experiment by id.
pub fn run(id: &str, suite: &Suite) -> Option<String> {
    Some(match id {
        "fig3.1" => fig3_1(suite),
        "table3.1" => table3_1(suite),
        "fig3.2" => fig3_2(),
        "fig5.6" => fig5_6(),
        "fig3.3" => fig3_3(suite),
        "fig3.4" => fig3_4(suite),
        "fig3.5" => fig3_5(suite),
        "fig3.6" => fig3_6(suite),
        "fig3.7" => fig3_7(suite),
        "table3.2" => table3_2(suite),
        "fig3.8" => fig3_8_to_10(suite, Axis::Coverage),
        "fig3.9" => fig3_8_to_10(suite, Axis::SetLifetime),
        "fig3.10" => fig3_8_to_10(suite, Axis::RefLifetime),
        "fig3.11" => fig3_11_to_13(suite, Axis::Coverage),
        "fig3.12" => fig3_11_to_13(suite, Axis::SetLifetime),
        "fig3.13" => fig3_11_to_13(suite, Axis::RefLifetime),
        "compile" => compile_figures(),
        "timing" => timing_figures(),
        "table5.1" => table5_1(suite),
        "fig5.1" => fig5_1(suite),
        "fig5.2" => fig5_2(suite),
        "fig5.3" => fig5_3(suite),
        "table5.2" => table5_2(suite),
        "table5.3" => table5_3(suite),
        "table5.4" => table5_4(suite),
        "fig5.4" => fig5_4(suite),
        "fig5.5" => fig5_5(suite),
        "table5.5" => table5_5(suite),
        "traversal" => traversal_531(),
        _ => return None,
    })
}

fn pct(x: f64) -> String {
    format!("{x:.2}")
}

// ---------------------------------------------------------------------
// Chapter 3
// ---------------------------------------------------------------------

/// Figure 3.1: execution frequencies of primitive Lisp functions.
pub fn fig3_1(suite: &Suite) -> String {
    let mut rows = Vec::new();
    for t in &suite.organic {
        let s = TraceStats::of(t);
        rows.push(vec![
            t.name.clone(),
            pct(s.prim_percent(Prim::Car)),
            pct(s.prim_percent(Prim::Cdr)),
            pct(s.prim_percent(Prim::Cons)),
            pct(s.prim_percent(Prim::Rplaca) + s.prim_percent(Prim::Rplacd)),
            pct(s.prim_percent(Prim::Read)),
        ]);
    }
    format!(
        "Figure 3.1 — primitive mix (% of traced primitives)\n{}",
        table(
            &["trace", "car%", "cdr%", "cons%", "rplac%", "read%"],
            &rows
        )
    )
}

/// Table 3.1: average values of n and p.
pub fn table3_1(suite: &Suite) -> String {
    let mut rows = Vec::new();
    for t in &suite.organic {
        let s = np_summary(t);
        rows.push(vec![
            t.name.clone(),
            format!("{:.2}", s.mean_n),
            format!("{:.2}", s.mean_p),
            s.lists.to_string(),
        ]);
    }
    format!(
        "Table 3.1 — average n and p over distinct lists\n{}",
        table(&["trace", "n", "p", "lists"], &rows)
    )
}

/// Figure 3.2: significance of n and p — space cost of the two worked
/// example lists under each representation family.
pub fn fig3_2() -> String {
    let mut i = small_sexpr::Interner::new();
    let mut out =
        String::from("Figure 3.2 — significance of n and p: space cost per representation\n");
    for src in ["(A B C (D E) F G)", "(A (B (C (D E F) G)))"] {
        let e = small_sexpr::parse(src, &mut i).unwrap();
        let m = small_sexpr::metrics::np(&e);
        // Two-pointer cells actually allocated:
        let mut tp = small_heap::TwoPointerHeap::with_capacity(256);
        tp.intern(&e).unwrap();
        // cdr-coded cells:
        let mut cc = small_heap::cdr_coded::CdrCodedHeap::with_capacity(256);
        cc.intern(&e).unwrap();
        // structure-coded tuples:
        let mut sc = small_heap::structure_coded::StructureCodedHeap::new();
        sc.intern(&e);
        let _ = writeln!(
            out,
            "  {src:<24} n={} p={}  two-pointer cells={} (n+p={})  cdr-coded cells={}  CDAR tuples={}",
            m.n,
            m.p,
            tp.live(),
            m.two_pointer_cells(),
            cc.used(),
            m.n + m.p + 1, // atoms + nil leaves stored as tuples
        );
    }
    out.push_str("  (CDAR codes for the first list: ");
    for (k, code) in [("A", 2u64), ("B", 6), ("C", 14)] {
        let _ = write!(
            out,
            "{k}={} ",
            small_heap::structure_coded::cdar_code(code, 6)
        );
    }
    out.push_str(
        "… — see crates/heap/src/structure_coded.rs tests for the full Figure 2.10 check)\n",
    );
    out
}

/// Figure 5.6: the binary-tree representation of (((A B) C D) E F G)
/// and its traversal super-sequence.
pub fn fig5_6() -> String {
    let mut i = small_sexpr::Interner::new();
    let e = small_sexpr::parse("(((A B) C D) E F G)", &mut i).unwrap();
    let (internal, leaves) = small_sexpr::tree::node_counts(&e);
    let sup = small_sexpr::tree::super_sequence(&e);
    let mut out = format!(
        "Figure 5.6 — tree representation of (((A B) C D) E F G): {internal} internal nodes, {leaves} leaves\n  traversal super-sequence ({} touches): ",
        sup.len()
    );
    for node in &sup {
        match node {
            small_sexpr::tree::TreeNode::Internal(n) => {
                let _ = write!(out, "{n} ");
            }
            small_sexpr::tree::TreeNode::Leaf(_, small_sexpr::Atom::Sym(sym)) => {
                let _ = write!(out, "{} ", i.name(*sym));
            }
            small_sexpr::tree::TreeNode::Leaf(_, small_sexpr::Atom::Int(v)) => {
                let _ = write!(out, "{v} ");
            }
            small_sexpr::tree::TreeNode::NilLeaf(_) => out.push_str("nil "),
        }
    }
    out.push('\n');
    out.push_str("  each internal node is touched exactly 3 times — the basis of the 75% hit floor (§5.3.1)\n");
    out
}

/// Figures 3.3a/b: distributions of n and p over lists.
pub fn fig3_3(suite: &Suite) -> String {
    let mut out = String::from("Figure 3.3 — cumulative distributions of n (a) and p (b)\n");
    for t in &suite.organic {
        let s = np_summary(t);
        let _ = writeln!(out, "[{}]", t.name);
        for q in [0.25, 0.5, 0.75, 0.9, 0.99] {
            let _ = writeln!(
                out,
                "  q{:02}: n <= {:>5}   p <= {:>4}",
                (q * 100.0) as u32,
                s.n_cdf.quantile(q),
                s.p_cdf.quantile(q)
            );
        }
    }
    out
}

/// Figure 3.4: distribution of list references over list sets.
pub fn fig3_4(suite: &Suite) -> String {
    let mut out = String::from(
        "Figure 3.4 — cumulative % of list references vs number of list sets (10% separation)\n",
    );
    for t in &suite.organic {
        let p = partition(t, SeparationConstraint::Fraction(0.10));
        let curve = p.coverage_curve();
        let _ = writeln!(
            out,
            "[{}] {} sets, {} refs; sets to cover 50/80/95%: {} / {} / {}",
            t.name,
            p.sets.len(),
            p.total_refs,
            p.sets_to_cover(0.50),
            p.sets_to_cover(0.80),
            p.sets_to_cover(0.95),
        );
        for k in [1usize, 2, 5, 10, 20, 50, 100] {
            if let Some((_, f)) = curve.get(k.saturating_sub(1)) {
                let _ = writeln!(out, "  {k:>4} sets -> {:.1}%", f * 100.0);
            }
        }
    }
    out
}

/// Figure 3.5: distribution of list-set lifetimes over list sets.
pub fn fig3_5(suite: &Suite) -> String {
    let mut out = String::from(
        "Figure 3.5 — cumulative % of list sets with lifetime <= x (fraction of trace)\n",
    );
    for t in &suite.organic {
        let p = partition(t, SeparationConstraint::Fraction(0.10));
        let cdf = small_analysis::hist::Cdf::from_samples(p.lifetimes());
        let _ = write!(out, "[{}]", t.name);
        for x in [0.1, 0.3, 0.6, 0.9] {
            let _ = write!(out, "  <={x:.1}: {:.1}%", cdf.at(x) * 100.0);
        }
        out.push('\n');
    }
    out
}

/// Figure 3.6: distribution of list-set lifetimes over references.
pub fn fig3_6(suite: &Suite) -> String {
    let mut out =
        String::from("Figure 3.6 — cumulative % of references in sets with lifetime <= x\n");
    for t in &suite.organic {
        let p = partition(t, SeparationConstraint::Fraction(0.10));
        let cdf = small_analysis::hist::Cdf::from_weighted(p.lifetimes_weighted());
        let _ = write!(out, "[{}]", t.name);
        for x in [0.1, 0.3, 0.6, 0.9] {
            let _ = write!(out, "  <={x:.1}: {:.1}%", cdf.at(x) * 100.0);
        }
        out.push('\n');
    }
    out
}

/// Figure 3.7: LRU stack distances over list sets.
pub fn fig3_7(suite: &Suite) -> String {
    let mut out =
        String::from("Figure 3.7 — % of references within LRU stack depth d over list sets\n");
    for t in &suite.organic {
        let p = partition(t, SeparationConstraint::Fraction(0.10));
        let d = StackDistances::of(p.ref_set_ids.iter().copied());
        let _ = write!(out, "[{}]", t.name);
        for depth in [1usize, 2, 4, 8, 16] {
            let _ = write!(out, "  d{depth}: {:.1}%", d.hit_rate(depth) * 100.0);
        }
        out.push('\n');
    }
    out
}

/// Table 3.2: percentage of CxR calls inside a function chain.
pub fn table3_2(suite: &Suite) -> String {
    let mut rows = Vec::new();
    for t in &suite.organic {
        let c = ChainStats::of(t);
        rows.push(vec![
            t.name.clone(),
            pct(c.car_pct()),
            pct(c.cdr_pct()),
            pct(c.all_pct()),
        ]);
    }
    format!(
        "Table 3.2 — % of CAR/CDR calls inside a primitive chain\n{}",
        table(&["trace", "CAR%", "CDR%", "all%"], &rows)
    )
}

enum Axis {
    Coverage,
    SetLifetime,
    RefLifetime,
}

/// Figures 3.8–3.10: varying the separation constraint on SLANG.
fn fig3_8_to_10(suite: &Suite, axis: Axis) -> String {
    let t = suite.organic_by_name("slang");
    let title = match axis {
        Axis::Coverage => "Figure 3.8 — list distribution vs separation constraint (SLANG)",
        Axis::SetLifetime => "Figure 3.9 — list-set lifetimes vs separation constraint (SLANG)",
        Axis::RefLifetime => "Figure 3.10 — reference lifetimes vs separation constraint (SLANG)",
    };
    let mut out = format!("{title}\n");
    for frac in [0.05, 0.10, 0.25, 0.50, 1.00] {
        let p = partition(t, SeparationConstraint::Fraction(frac));
        let _ = write!(out, "sep {:>3.0}%: {:>5} sets", frac * 100.0, p.sets.len());
        match axis {
            Axis::Coverage => {
                let _ = write!(out, "; sets to 80% of refs: {:>4}", p.sets_to_cover(0.80));
            }
            Axis::SetLifetime => {
                let cdf = small_analysis::hist::Cdf::from_samples(p.lifetimes());
                let _ = write!(
                    out,
                    "; sets with lifetime<=10%: {:.1}%",
                    cdf.at(0.1) * 100.0
                );
            }
            Axis::RefLifetime => {
                let cdf = small_analysis::hist::Cdf::from_weighted(p.lifetimes_weighted());
                let _ = write!(out, "; refs in sets<=10%: {:.1}%", cdf.at(0.1) * 100.0);
            }
        }
        out.push('\n');
    }
    out
}

/// Figures 3.11–3.13: one absolute separation constant across traces
/// (10% of the shortest trace).
fn fig3_11_to_13(suite: &Suite, axis: Axis) -> String {
    let names = ["plagen", "slang", "lyra", "editor"];
    let shortest = names
        .iter()
        .map(|n| suite.organic_by_name(n).primitive_count())
        .min()
        .expect("traces");
    let window = (shortest as f64 * 0.10).ceil() as usize;
    let title = match axis {
        Axis::Coverage => "Figure 3.11 — list distribution, fixed separation constant",
        Axis::SetLifetime => "Figure 3.12 — list-set lifetimes, fixed separation constant",
        Axis::RefLifetime => "Figure 3.13 — reference lifetimes, fixed separation constant",
    };
    let mut out = format!("{title} (window = {window} events)\n");
    for n in names {
        let t = suite.organic_by_name(n);
        let p = partition(t, SeparationConstraint::Absolute(window));
        let _ = write!(out, "[{n}] {:>5} sets", p.sets.len());
        match axis {
            Axis::Coverage => {
                let _ = write!(
                    out,
                    "; sets to 80%: {:>4}; 100 largest cover {:.1}%",
                    p.sets_to_cover(0.80),
                    {
                        let c = p.coverage_curve();
                        c.get(99).map_or(1.0, |x| x.1) * 100.0
                    }
                );
            }
            Axis::SetLifetime => {
                let cdf = small_analysis::hist::Cdf::from_samples(p.lifetimes());
                let _ = write!(
                    out,
                    "; lifetime<=10%: {:.1}%; <=50%: {:.1}%",
                    cdf.at(0.1) * 100.0,
                    cdf.at(0.5) * 100.0
                );
            }
            Axis::RefLifetime => {
                let cdf = small_analysis::hist::Cdf::from_weighted(p.lifetimes_weighted());
                let _ = write!(
                    out,
                    "; refs in sets<=10%: {:.1}%; <=50%: {:.1}%",
                    cdf.at(0.1) * 100.0,
                    cdf.at(0.5) * 100.0
                );
            }
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Chapter 4
// ---------------------------------------------------------------------

/// Figures 4.14/4.15: compiled stack code.
pub fn compile_figures() -> String {
    let mut i = small_sexpr::Interner::new();
    let fact = small_lisp::compiler::compile_program(
        "(def fact (lambda (x) (cond ((equal x 0) 1) (t (times x (fact (sub x 1)))))))",
        &mut i,
    )
    .expect("fact compiles");
    let lm = small_lisp::compiler::compile_program(
        "(def printit (lambda (junk) (write (cdr junk))))
         (def doit (lambda () (prog (lst)
            (read lst) (printit lst)
            (setq lst (cdr (cdr lst))) (return lst))))
         (doit)",
        &mut i,
    )
    .expect("doit compiles");
    format!(
        "Figure 4.14 — factorial compiled to the SMALL stack ISA\n{}\nFigure 4.15 — list manipulation and function calling\n{}",
        fact.disassemble(&i),
        lm.disassemble(&i)
    )
}

/// Figures 4.10–4.13: EP/LP timing decomposition.
pub fn timing_figures() -> String {
    let m = TimingModel::default();
    let mut rows = Vec::new();
    for (name, op) in [
        ("readlist   (Fig 4.10)", OpClass::ReadList),
        ("access hit (Fig 4.11)", OpClass::AccessHit),
        ("access miss(Fig 4.11)", OpClass::AccessMiss),
        ("modify     (Fig 4.12)", OpClass::Modify),
        ("cons       (Fig 4.13)", OpClass::Cons),
    ] {
        let t = m.op(op);
        rows.push(vec![
            name.to_string(),
            t.ep_pre.to_string(),
            t.latency.to_string(),
            t.lp_tail.to_string(),
            format!("{:.0}%", t.overlap_fraction() * 100.0),
        ]);
    }
    let stream = m.run_stream(std::iter::repeat_n(OpClass::Cons, 1000), 4);
    format!(
        "Figures 4.10-4.13 — EP/LP timing (abstract cycles)\n{}\n1000 back-to-back conses with 4-cycle EP gaps: EP utilization {:.0}%\n",
        table(&["operation", "EP pre", "latency", "LP tail", "overlap"], &rows),
        stream.ep_utilization() * 100.0
    )
}

// ---------------------------------------------------------------------
// Chapter 5
// ---------------------------------------------------------------------

/// Table 5.1: content of the traces.
pub fn table5_1(suite: &Suite) -> String {
    let mut rows = Vec::new();
    for name in ["lyra", "plagen", "slang", "editor"] {
        let t = suite.organic_by_name(name);
        let s = TraceStats::of(t);
        rows.push(vec![
            format!("{} (organic)", t.name),
            s.functions.to_string(),
            s.primitives.to_string(),
            s.max_depth.to_string(),
        ]);
    }
    for t in &suite.synthetic {
        let s = TraceStats::of(t);
        rows.push(vec![
            format!("{} (synthetic)", t.name),
            s.functions.to_string(),
            s.primitives.to_string(),
            s.max_depth.to_string(),
        ]);
    }
    format!(
        "Table 5.1 — content of the traces\n{}",
        table(&["trace", "functions", "primitives", "max depth"], &rows)
    )
}

/// Figure 5.1: peak LPT usage vs table size.
pub fn fig5_1(suite: &Suite) -> String {
    let mut out = String::from("Figure 5.1 — peak LPT usage vs table size (Compress-One)\n");
    for t in suite.chapter5() {
        let k = sweep::knee(t, SimParams::default());
        let sizes = [
            (k / 4).max(4),
            (k / 2).max(4),
            (k * 3 / 4).max(4),
            k,
            k + k / 4 + 1,
            k * 2,
        ];
        let curve = sweep::peak_curve(t, SimParams::default(), &sizes);
        let _ = writeln!(out, "[{}] knee = {k} entries", t.name);
        for p in curve {
            let _ = writeln!(
                out,
                "  size {:>5} -> peak {:>5}{}{}",
                p.table_size,
                p.peak,
                if p.pseudo { "  (pseudo overflow)" } else { "" },
                if p.true_overflow {
                    "  (TRUE overflow)"
                } else {
                    ""
                },
            );
        }
    }
    out
}

/// Figure 5.2: knee spread over seeds.
pub fn fig5_2(suite: &Suite) -> String {
    let mut rows = Vec::new();
    for t in suite.chapter5() {
        let (lo, hi) = sweep::knee_spread(t, SimParams::default(), 10);
        rows.push(vec![t.name.clone(), lo.to_string(), hi.to_string()]);
    }
    format!(
        "Figure 5.2 — max LPT occupancy spread over 10 seeds\n{}",
        table(&["trace", "min knee", "max knee"], &rows)
    )
}

/// Figure 5.3: average occupancy, Compress-One vs Compress-All.
pub fn fig5_3(suite: &Suite) -> String {
    let mut out =
        String::from("Figure 5.3 — average LPT occupancy: Compress-One vs Compress-All\n");
    for name in ["slang", "editor"] {
        let t = suite.synthetic_by_name(name);
        let k = sweep::knee(t, SimParams::default());
        let _ = writeln!(out, "[{name}] knee = {k}");
        for frac in [2usize, 3, 4] {
            let size = (k * frac / 4).max(8);
            let (one, all) = sweep::compression_comparison(t, SimParams::default(), size);
            let _ = writeln!(
                out,
                "  size {size:>5}: Compress-One avg {one:>8.1}   Compress-All avg {all:>8.1}"
            );
        }
    }
    out
}

/// Table 5.2: LPT activity.
pub fn table5_2(suite: &Suite) -> String {
    let mut rows = Vec::new();
    for t in suite.chapter5() {
        let r = sweep::lpt_activity(t, SimParams::default());
        rows.push(vec![
            t.name.clone(),
            r.refops.to_string(),
            r.gets.to_string(),
            r.frees.to_string(),
            r.rec_refops.to_string(),
        ]);
    }
    format!(
        "Table 5.2 — LPT activity (lazy vs recursive child decrement)\n{}",
        table(&["trace", "Refops", "Gets", "Frees", "RecRefops"], &rows)
    )
}

/// Table 5.3: split reference counts.
pub fn table5_3(suite: &Suite) -> String {
    let mut rows = Vec::new();
    for t in suite.chapter5() {
        let r = sweep::split_counts(t, SimParams::default());
        rows.push(vec![
            t.name.clone(),
            r.refops_then.to_string(),
            r.refops_now.to_string(),
            r.max_then.to_string(),
            r.max_now_lpt.to_string(),
            r.max_now_ep.to_string(),
        ]);
    }
    format!(
        "Table 5.3 — split reference counts: LPT bus refops Then (unified) vs Now (split)\n{}",
        table(
            &[
                "trace",
                "RefopsThen",
                "RefopsNow",
                "MaxThen",
                "MaxNowLPT",
                "MaxNowEP"
            ],
            &rows
        )
    )
}

/// Table 5.4: LPT vs data cache at three sizes per trace.
pub fn table5_4(suite: &Suite) -> String {
    let mut rows = Vec::new();
    for t in suite.chapter5() {
        let k = sweep::knee(t, SimParams::default());
        for frac in [3usize, 4, 5] {
            let size = (k * frac / 4).max(8);
            let r = sweep::cache_compare(t, SimParams::default(), size);
            rows.push(vec![
                t.name.clone(),
                size.to_string(),
                r.access_misses.to_string(),
                format!("{:.2}", r.lpt_hit_rate() * 100.0),
                r.cache_misses.to_string(),
                format!("{:.2}", r.cache_hit_rate() * 100.0),
            ]);
        }
    }
    format!(
        "Table 5.4 — LPT vs LRU data cache (equal entries, unit lines)\n{}",
        table(
            &[
                "trace",
                "size",
                "LPTMisses",
                "LPT hit%",
                "CacheMisses",
                "cache hit%"
            ],
            &rows
        )
    )
}

/// Figure 5.4: hit rates for LPT and cache vs size (SLANG).
pub fn fig5_4(suite: &Suite) -> String {
    let t = suite.synthetic_by_name("slang");
    let k = sweep::knee(t, SimParams::default());
    let mut out = format!("Figure 5.4 — hit rates vs size, SLANG (knee = {k})\n");
    for frac in [1usize, 2, 3, 4, 6, 8] {
        let size = (k * frac / 4).max(8);
        let r = sweep::cache_compare(t, SimParams::default(), size);
        let _ = writeln!(
            out,
            "  size {size:>5}: LPT {:.2}%   cache {:.2}%",
            r.lpt_hit_rate() * 100.0,
            r.cache_hit_rate() * 100.0
        );
    }
    out
}

/// Figure 5.5: cache-miss/LPT-miss ratio vs line size.
pub fn fig5_5(suite: &Suite) -> String {
    let mut out = String::from(
        "Figure 5.5 — cache misses / LPT misses vs line size (cache has 2x entries)\n",
    );
    for name in ["lyra", "slang", "editor"] {
        let t = suite.synthetic_by_name(name);
        let k = sweep::knee(t, SimParams::default());
        for frac in [3usize, 4] {
            let size = (k * frac / 4).max(8);
            let _ = write!(out, "[{name} size {size:>5}]");
            for line in [1usize, 2, 4, 8, 16] {
                let ratio = sweep::line_size_ratio(t, SimParams::default(), size, line);
                let _ = write!(out, "  L{line}: {ratio:.2}");
            }
            out.push('\n');
        }
    }
    out
}

/// Table 5.5: sensitivity to the probability parameters (SLANG).
pub fn table5_5(suite: &Suite) -> String {
    let t = suite.synthetic_by_name("slang");
    let k = sweep::knee(t, SimParams::default());
    let size = (k * 3 / 4).max(16);
    let mut rows = Vec::new();
    for (name, params) in [
        ("Control", SimParams::control()),
        ("HiArg", SimParams::hi_arg()),
        ("HiLoc", SimParams::hi_loc()),
        ("HiRead", SimParams::hi_read()),
        ("HiBind", SimParams::hi_bind()),
    ] {
        let r = run_sim(
            t,
            params.with_table(size),
            Some(CacheConfig {
                lines: size,
                line_cells: 1,
            }),
        );
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", r.lpt.avg_occupancy()),
            r.lpt.max_occupancy.to_string(),
            r.access_hits.to_string(),
            r.cache_hits.to_string(),
            r.lpt.max_refcount.to_string(),
            r.lpt.refops.to_string(),
        ]);
    }
    format!(
        "Table 5.5 — sensitivity to probability parameters (SLANG, size {size})\n{}",
        table(
            &[
                "run",
                "AvgLPT",
                "MaxLPT",
                "LPTHits",
                "CacheHits",
                "MaxRefcnt",
                "Refops"
            ],
            &rows
        )
    )
}

/// §5.3.1: ordered traversal guarantees.
pub fn traversal_531() -> String {
    let mut i = small_sexpr::Interner::new();
    let mut out =
        String::from("§5.3.1 — ordered traversal: splits = n+p, guaranteed hit rate >= 75%\n");
    for src in [
        "(((A B) C D) E F G)",
        "(A B C (D E) F G)",
        "(A (B (C (D E F) G)))",
    ] {
        let e = small_sexpr::parse(src, &mut i).unwrap();
        let m = small_sexpr::metrics::np(&e);
        let backend = SmallBackend::new(4096, LpConfig::default());
        let mut lp = backend.lp;
        let v = lp.readlist(None, &e).unwrap();
        let c = traverse_preorder(&mut lp, v).unwrap();
        let _ = writeln!(
            out,
            "  {src:<24} n={} p={}  touches={} splits={} hit rate {:.1}%",
            m.n,
            m.p,
            c.touches,
            c.misses,
            c.hit_rate() * 100.0
        );
    }
    out
}

/// Apply a quick sanity pass over every experiment (used by tests).
pub fn smoke(suite: &Suite) -> Vec<(String, usize)> {
    ALL.iter()
        .map(|id| {
            let text = run(id, suite).expect("known id");
            (id.to_string(), text.len())
        })
        .collect()
}
