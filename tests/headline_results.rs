//! Regression guards for the headline reproduced results (see
//! EXPERIMENTS.md). Uses the two small Chapter 5 traces and the Chapter 2
//! survey's counts so the guards stay fast in debug builds.

use small_repro::simulator::driver::{run_sim, CacheConfig};
use small_repro::simulator::{sweep, SimParams};
use small_repro::workloads::synthetic::{generate, table_5_1};

#[test]
fn fig5_1_shape_slang() {
    // Slope-1 region with pseudo overflows below the knee; flat above.
    let t = generate(&table_5_1("slang"));
    let knee = sweep::knee(&t, SimParams::default());
    assert!(
        (40..120).contains(&knee),
        "slang knee {knee} left its historical band"
    );
    let below = run_sim(&t, SimParams::default().with_table(knee * 3 / 4), None);
    assert_eq!(
        below.lpt.max_occupancy,
        knee * 3 / 4,
        "table fills below knee"
    );
    assert!(below.lpt.pseudo_overflows > 0);
    let above = run_sim(&t, SimParams::default().with_table(knee * 2), None);
    assert_eq!(above.lpt.max_occupancy, knee, "flat above the knee");
    assert_eq!(above.lpt.pseudo_overflows, 0);
}

#[test]
fn table5_4_direction_slang() {
    // LPT out-hits an equal-entry unit-line LRU cache; cache misses are
    // roughly 2x LPT misses on SLANG (the thesis's Table 5.4 row).
    let t = generate(&table_5_1("slang"));
    let knee = sweep::knee(&t, SimParams::default());
    let r = run_sim(
        &t,
        SimParams::default().with_table(knee),
        Some(CacheConfig {
            lines: knee,
            line_cells: 1,
        }),
    );
    assert!(
        r.cache_misses as f64 >= 1.5 * r.access_misses as f64,
        "cache {} vs LPT {} misses",
        r.cache_misses,
        r.access_misses
    );
    assert!(r.lpt_hit_rate() > 0.80, "{}", r.lpt_hit_rate());
}

#[test]
fn fig5_5_lines_help_then_hurt_slang() {
    // With 2x half-size entries the cache improves to mid line sizes and
    // falls off at long lines (the paper's falling-off behaviour).
    let t = generate(&table_5_1("slang"));
    let knee = sweep::knee(&t, SimParams::default());
    let size = knee * 3 / 4;
    let r1 = sweep::line_size_ratio(&t, SimParams::default(), size, 1);
    let r4 = sweep::line_size_ratio(&t, SimParams::default(), size, 4);
    let r16 = sweep::line_size_ratio(&t, SimParams::default(), size, 16);
    assert!(r4 < r1, "lines should help at first: L1 {r1:.2} L4 {r4:.2}");
    assert!(
        r16 > r4,
        "long lines should fall off: L4 {r4:.2} L16 {r16:.2}"
    );
}

#[test]
fn table5_2_and_5_3_directions_editor() {
    let t = generate(&table_5_1("editor"));
    let act = sweep::lpt_activity(&t, SimParams::default());
    assert!(act.rec_refops > act.refops);
    // 1-3+ refcount ops per primitive (§5.2.4 note), loosely banded.
    let per_prim = act.refops as f64 / 1437.0;
    assert!(
        (0.5..6.0).contains(&per_prim),
        "refops per primitive {per_prim:.2}"
    );
    let split = sweep::split_counts(&t, SimParams::default());
    assert!(split.refops_now < split.refops_then);
    assert!(split.max_now_lpt <= split.max_then);
}

#[test]
fn survey_orderings_hold() {
    // Every ordering EXPERIMENTS.md "Chapter 2 — survey" states.
    let s = small_bench::experiments::survey_counts();
    let walk = |heap, n| s.traversal(heap, n).expect("surveyed list").clone();
    let intern = |heap, n| s.intern(heap, n).expect("surveyed list").clone();
    for n in [48, 64, 512] {
        let tp = walk("two-pointer", n);
        for coded in ["cdr-coded", "linked-vector"] {
            let c = walk(coded, n);
            assert_eq!(2 * c.words, tp.words, "{coded} reads half the words");
            assert!(c.lines < tp.lines, "{coded} touches fewer lines at {n}");
            assert_eq!(2 * intern(coded, n).words, intern("two-pointer", n).words);
        }
        // A u64 node number holds 63 levels: only n = 48 encodes.
        assert_eq!(s.traversal("structure-coded", n).is_some(), n == 48);
    }
    assert!(walk("structure-coded", 48).probes >= 10 * walk("two-pointer", 48).words);
    assert!(intern("structure-coded", 48).probes > 0);

    let probes = |mix, env| s.env(mix, env).probes;
    let lookup = "lookup-heavy";
    assert!(probes(lookup, "shallow") < probes(lookup, "value-cache"));
    assert!(probes(lookup, "value-cache") < probes(lookup, "deep"));
    assert_eq!(probes(lookup, "shallow"), s.env(lookup, "shallow").lookups);
    assert!(s.env(lookup, "value-cache").cache_hits > 0);
    for mix in ["call-heavy", lookup] {
        let deep = s.env(mix, "deep");
        for env in ["shallow", "value-cache"] {
            let e = s.env(mix, env);
            assert_eq!((e.binds, e.unbinds), (deep.binds, deep.unbinds));
        }
        assert!(probes(mix, "shallow") < probes(mix, "deep"));
    }

    let big = |c| s.collector(c, 8192).clone();
    assert_eq!(big("mark-sweep").collections, 0, "the big heap never fills");
    assert_eq!(big("copying").collections, 0);
    assert_eq!(big("refcount").refops, s.collector("refcount", 512).refops);
    let tight = |c| s.collector(c, 512).clone();
    assert!(tight("mark-sweep").collections > 0 && tight("copying").collections > 0);
    assert!(tight("copying").copied < tight("mark-sweep").visited);
    assert!(tight("mark-sweep").visited < tight("refcount").refops);
}
