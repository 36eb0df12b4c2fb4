//! Differential tests of the LPT inline field cache.
//!
//! The cache is a wall-clock accelerator only: a machine with the cache
//! enabled must be *byte-identical* to one with it disabled in every
//! deterministic observable — results, [`small_core::LptStats`],
//! per-kind event counts, and exported checkpoint images. Each test
//! drives twin processors (cache on / cache off) through the same
//! scripted workload, crossing every invalidation boundary the cache
//! must survive: compression, cycle breaking, field replacement, and
//! checkpoint/resume — all *between* cached accesses, so a stale line
//! would be served if invalidation missed a site.

use small_core::{ListProcessor, LpConfig, LpValue, LptCacheStats, RefcountMode, RootKind};
use small_heap::controller::TwoPointerController;
use small_heap::PersistableController;
use small_metrics::{CountingSink, EventSink};
use small_sexpr::{parse, print, Interner};

type Lp = ListProcessor<TwoPointerController, CountingSink>;

fn make(table: usize, cache: bool) -> Lp {
    let mut lp = ListProcessor::with_sink(
        TwoPointerController::new(65536, 64),
        LpConfig {
            table_size: table,
            ..LpConfig::default()
        },
        CountingSink::default(),
    );
    lp.set_cache_enabled(cache);
    lp
}

fn read<S: EventSink>(
    lp: &mut ListProcessor<TwoPointerController, S>,
    i: &mut Interner,
    src: &str,
) -> LpValue {
    let e = parse(src, i).unwrap();
    lp.readlist(None, &e).unwrap()
}

/// Drop the EP stack reference `v` carries, forcing the deferred
/// release now.
fn release<S: EventSink>(lp: &mut ListProcessor<TwoPointerController, S>, v: LpValue) {
    lp.unroot(v, RootKind::Binding);
    lp.drain_unroots();
}

/// Walk the spine of `v` (which stays externally rooted by the
/// caller), touching car and cdr of every cell and releasing the
/// references the accesses hand back. Returns the spine length.
fn walk<S: EventSink>(lp: &mut ListProcessor<TwoPointerController, S>, v: LpValue) -> usize {
    let mut len = 0usize;
    let mut cur = v;
    while let LpValue::Obj(id) = cur {
        let car = lp.car(id).unwrap();
        release(lp, car);
        let next = lp.cdr(id).unwrap();
        release(lp, next);
        cur = next;
        len += 1;
    }
    len
}

/// The scripted workload: repeated warm walks (cache hits), table
/// pressure that forces compression mid-walk, destructive updates,
/// an unreachable self-cycle that cycle breaking must reclaim, and
/// final reads of every survivor. Returns the observable outputs.
fn drive_churn(lp: &mut Lp, i: &mut Interner) -> Vec<String> {
    let mut out = Vec::new();
    let srcs = [
        "(a (b c) (d (e f)) g)",
        "(1 2 3 4 5 6 7 8)",
        "((h) ((j)) k)",
        "(l m (n o p) q r)",
        "(s (t (u (v))) w)",
        "(x y z 9 8 7)",
    ];
    let mut held = Vec::new();
    for src in srcs {
        let v = read(lp, i, src);
        lp.root_binding(v);
        release(lp, v); // keep exactly the rooted reference
                        // Walk twice: the second pass re-touches entries whose lines
                        // are warm unless intervening compression dropped them.
        walk(lp, v);
        walk(lp, v);
        held.push(v);
    }
    // Destructive updates between warm accesses.
    let first = held[0];
    let x = read(lp, i, "(new-head)");
    lp.rplaca_of(first, x).unwrap();
    release(lp, x);
    let y = read(lp, i, "(new-tail nil)");
    lp.rplacd_of(first, y).unwrap();
    release(lp, y);
    walk(lp, first);
    // An unreachable self-cycle: dropped here, reclaimed only by the
    // cycle breaker once compression alone cannot satisfy a get.
    let c = read(lp, i, "(p p p)");
    lp.rplacd_of(c, c).unwrap();
    release(lp, c);
    // More pressure so compression (and eventually cycle breaking)
    // runs between the walks above and the reads below.
    for k in 0..6 {
        let v = read(lp, i, srcs[k % srcs.len()]);
        walk(lp, v);
        release(lp, v);
    }
    for &v in &held {
        walk(lp, v);
        out.push(print(&lp.writelist(v).unwrap(), i));
    }
    out.push(format!("occupancy={}", lp.occupancy()));
    out
}

/// Assert the twins agree on every deterministic observable.
fn assert_twins_agree(on: &Lp, off: &Lp, out_on: &[String], out_off: &[String]) {
    assert_eq!(out_on, out_off, "results diverged");
    assert_eq!(on.stats(), off.stats(), "LptStats diverged");
    assert_eq!(on.sink().counts, off.sink().counts, "event counts diverged");
    assert_eq!(on.export_image(), off.export_image(), "images diverged");
    assert!(on.cache_stats().hits > 0, "cache never engaged");
    assert_eq!(
        off.cache_stats(),
        LptCacheStats::default(),
        "disabled cache must not count probes"
    );
}

/// `(probes, hits)` of the scripted churn with the cache on, read off
/// the wipe-per-free cache that epochs replaced: an epoch bump must
/// leave exactly the lines valid that a wipe left, so neither count
/// may move. Both churn configurations read the same pair.
const CHURN_PROBES_AND_HITS: (u64, u64) = (236, 147);

fn probes_and_hits(lp: &Lp) -> (u64, u64) {
    let c = lp.cache_stats();
    (c.hits + c.misses, c.hits)
}

#[test]
fn churn_with_compression_and_cycles_is_bit_identical() {
    // Table of 40 with ~60 cells of held structure: walks overflow the
    // table, so compression (and the cycle breaker, once the dropped
    // self-cycle is the only reclaimable garbage) interleaves with
    // cached accesses.
    let mut on = make(40, true);
    let mut off = make(40, false);
    let mut i_on = Interner::new();
    let mut i_off = Interner::new();
    let out_on = drive_churn(&mut on, &mut i_on);
    let out_off = drive_churn(&mut off, &mut i_off);
    assert!(
        on.stats().pseudo_overflows > 0,
        "script must force compression"
    );
    assert_twins_agree(&on, &off, &out_on, &out_off);
    assert!(on.audit().is_clean());
    assert_eq!(probes_and_hits(&on), CHURN_PROBES_AND_HITS);
}

#[test]
fn split_refcounts_with_queue_discipline_agree() {
    let cfg = |cache| {
        let mut lp = ListProcessor::with_sink(
            TwoPointerController::new(65536, 64),
            LpConfig {
                table_size: 48,
                refcounts: RefcountMode::Split,
                free_discipline: small_core::FreeDiscipline::Queue,
                ..LpConfig::default()
            },
            CountingSink::default(),
        );
        lp.set_cache_enabled(cache);
        lp
    };
    let mut on = cfg(true);
    let mut off = cfg(false);
    let mut i_on = Interner::new();
    let mut i_off = Interner::new();
    let out_on = drive_churn(&mut on, &mut i_on);
    let out_off = drive_churn(&mut off, &mut i_off);
    assert_twins_agree(&on, &off, &out_on, &out_off);
    assert_eq!(probes_and_hits(&on), CHURN_PROBES_AND_HITS);
}

#[test]
fn rplaca_between_cached_accesses_never_serves_stale_car() {
    let mut i = Interner::new();
    let mut lp = make(512, true);
    let v = read(&mut lp, &mut i, "(old rest)");
    let id = v.obj().unwrap();
    // Two reads: the second is served by the inline cache.
    let a = lp.car(id).unwrap();
    release(&mut lp, a);
    let hits_before = lp.cache_stats().hits;
    let b = lp.car(id).unwrap();
    release(&mut lp, b);
    assert!(lp.cache_stats().hits > hits_before, "second read must hit");
    assert_eq!(a, b);
    // Replace the car, then read again: the line must be gone.
    let nv = read(&mut lp, &mut i, "(brand-new)");
    lp.rplaca(id, nv).unwrap();
    release(&mut lp, nv);
    let c = lp.car(id).unwrap();
    assert_eq!(
        print(&lp.writelist(c).unwrap(), &i),
        "(brand-new)",
        "stale cached car served after rplaca"
    );
    release(&mut lp, c);
    assert_eq!(lp.stats().hits, lp.sink().counts.lpt_hits.get());
}

#[test]
fn checkpoint_resume_between_cached_accesses() {
    let mut i = Interner::new();
    let mut on = make(64, true);
    let mut off = make(64, false);
    let (v_on, v_off) = (
        read(&mut on, &mut i, "(a (b c) d e)"),
        read(&mut off, &mut i, "(a (b c) d e)"),
    );
    on.root_binding(v_on);
    release(&mut on, v_on);
    off.root_binding(v_off);
    release(&mut off, v_off);
    walk(&mut on, v_on);
    walk(&mut off, v_off);
    // Snapshot both mid-warm; images must already agree (the cache is
    // host-side state and must never leak into an image).
    let (img_on, img_off) = (on.export_image(), off.export_image());
    assert_eq!(img_on, img_off, "cache state leaked into the image");
    // Restore the cached twin and keep using it: the restored cache
    // starts cold, re-warms, and stays consistent.
    let controller = TwoPointerController::import_image(&on.controller.export_image()).unwrap();
    let mut resumed: Lp = ListProcessor::from_image(
        controller,
        LpConfig {
            table_size: 64,
            ..LpConfig::default()
        },
        &img_on,
        CountingSink::default(),
    )
    .unwrap();
    assert!(resumed.cache_enabled());
    assert_eq!(resumed.cache_stats(), LptCacheStats::default());
    walk(&mut resumed, v_on);
    walk(&mut resumed, v_on);
    assert!(resumed.cache_stats().hits > 0, "resumed cache must re-warm");
    assert_eq!(
        print(&resumed.writelist(v_on).unwrap(), &i),
        print(&on.writelist(v_on).unwrap(), &i),
    );
    // Post-resume stats continue from the checkpointed values exactly
    // as the uncached twin's do.
    walk(&mut off, v_off);
    walk(&mut off, v_off);
    let _ = off.writelist(v_off).unwrap();
    let _ = on.writelist(v_on).unwrap();
    assert_eq!(resumed.stats(), off.stats(), "post-resume stats diverged");
    resumed.unroot(v_on, RootKind::Binding);
    resumed.drain_unroots();
    on.unroot(v_on, RootKind::Binding);
    on.drain_unroots();
    off.unroot(v_off, RootKind::Binding);
    off.drain_unroots();
    assert!(resumed.audit().is_clean());
}
