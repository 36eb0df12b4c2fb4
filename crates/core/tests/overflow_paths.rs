//! Overflow-path coverage: hybrid pseudo-overflow behavior around its
//! window/threshold crossing, and true-overflow cycle breaking — each
//! observed both through `LptStats` and through the event-sink
//! counters, which must agree.

use small_core::{CompressPolicy, ListProcessor, LpConfig, LpError, LpValue, RootKind};
use small_heap::controller::TwoPointerController;
use small_heap::Word;
use small_metrics::CountingSink;

type Lp = ListProcessor<TwoPointerController, CountingSink>;

fn lp_with(table_size: usize, compression: CompressPolicy) -> Lp {
    ListProcessor::with_sink(
        TwoPointerController::new(4096, 64),
        LpConfig {
            table_size,
            compression,
            ..LpConfig::default()
        },
        CountingSink::default(),
    )
}

/// Two entries: a child cons reachable only from its parent cons, so
/// the child is compressible (merged back into the heap) at pseudo
/// overflow. Returns the parent (carrying the EP's reference).
fn compressible_pair(lp: &mut Lp) -> LpValue {
    let a = atom_cons(lp, 1);
    let b = lp.cons(a, LpValue::Atom(Word::NIL)).unwrap();
    lp.unroot(a, RootKind::Binding);
    lp.drain_unroots();
    LpValue::Obj(b)
}

fn atom_cons(lp: &mut Lp, k: i64) -> LpValue {
    lp.cons(LpValue::Atom(Word::int(k)), LpValue::Atom(Word::NIL))
        .map(LpValue::Obj)
        .unwrap()
}

/// Hybrid crosses its threshold *within* the window: the first overflow
/// compresses one entry (Compress-One behavior), the second — now past
/// the threshold — compresses everything (Compress-All behavior).
#[test]
fn hybrid_threshold_crossing_switches_to_compress_all() {
    let mut lp = lp_with(
        8,
        CompressPolicy::Hybrid {
            threshold: 1,
            window: 10_000,
        },
    );
    // Three compressible pairs fill 6 of 8 entries.
    let held: Vec<LpValue> = (0..3).map(|_| compressible_pair(&mut lp)).collect();
    // Two conses fill the table; the third forces pseudo overflow #1.
    let _c1 = atom_cons(&mut lp, 10);
    let _c2 = atom_cons(&mut lp, 11);
    let _c3 = atom_cons(&mut lp, 12);
    let s = lp.stats();
    assert_eq!(s.pseudo_overflows, 1);
    assert_eq!(
        s.compressed, 1,
        "below threshold the hybrid compresses one entry"
    );
    // Overflow #2 lands inside the window: now over threshold, the
    // hybrid compresses every remaining compressible entry.
    let _c4 = atom_cons(&mut lp, 13);
    let s = lp.stats();
    assert_eq!(s.pseudo_overflows, 2);
    assert_eq!(
        s.compressed, 3,
        "past the threshold the hybrid compresses everything"
    );
    // The sink saw exactly what the stats saw.
    let counts = lp.sink().counts;
    assert_eq!(counts.pseudo_overflows.get(), s.pseudo_overflows);
    assert_eq!(counts.compressed.get(), s.compressed);
    assert_eq!(counts.true_overflows.get(), 0);
    // The compressed pairs survived structurally.
    for b in held {
        assert!(lp.writelist(b).is_ok());
    }
}

/// The same pressure with the overflows spaced *past* the window: the
/// first overflow has aged out when the second arrives, so the hybrid
/// stays in Compress-One behavior both times.
#[test]
fn hybrid_window_expiry_keeps_compress_one() {
    let mut lp = lp_with(
        8,
        CompressPolicy::Hybrid {
            threshold: 1,
            window: 3,
        },
    );
    let _held: Vec<LpValue> = (0..3).map(|_| compressible_pair(&mut lp)).collect();
    let c1 = atom_cons(&mut lp, 10);
    let _c2 = atom_cons(&mut lp, 11);
    let _c3 = atom_cons(&mut lp, 12); // overflow #1
    assert_eq!(lp.stats().compressed, 1);
    // Age the first overflow out of the window: car hits advance the
    // occupancy-sample clock without allocating.
    let id = c1.obj().unwrap();
    for _ in 0..10 {
        let _ = lp.car(id).unwrap();
    }
    let _c4 = atom_cons(&mut lp, 13); // overflow #2, window expired
    let s = lp.stats();
    assert_eq!(s.pseudo_overflows, 2);
    assert_eq!(
        s.compressed, 2,
        "with the window expired each overflow compresses one entry"
    );
    assert_eq!(lp.sink().counts.compressed.get(), s.compressed);
}

/// True overflow: an unreachable reference cycle defeats both counting
/// and compression; the mark/sweep cycle breaker reclaims it, and the
/// event counters record the collection.
#[test]
fn cycle_breaking_reclaims_unreachable_cycle_and_counts_it() {
    let mut lp = lp_with(6, CompressPolicy::CompressOne);
    // a <-> b cycle, then drop both external references.
    let a = atom_cons(&mut lp, 1);
    let b = LpValue::Obj(lp.cons(a, LpValue::Atom(Word::NIL)).unwrap());
    lp.rplacd(a.obj().unwrap(), b).unwrap();
    lp.unroot(a, RootKind::Binding);
    lp.unroot(b, RootKind::Binding);
    lp.drain_unroots();
    assert_eq!(lp.occupancy(), 2, "the cycle leaks under pure counting");
    // Fill the remaining 4 entries, then one more: compression cannot
    // touch the cycle (it is circular, not a tree), so the allocation
    // must come from cycle breaking.
    let _held: Vec<LpValue> = (0..5).map(|k| atom_cons(&mut lp, k)).collect();
    let s = lp.stats();
    assert_eq!(s.cycle_collections, 1);
    assert_eq!(s.cycles_reclaimed, 2, "both cycle members reclaimed");
    let counts = lp.sink().counts;
    assert_eq!(counts.cycle_collections.get(), s.cycle_collections);
    assert_eq!(counts.cycles_reclaimed.get(), s.cycles_reclaimed);
    assert_eq!(counts.true_overflows.get(), 0, "recovered, not fatal");
}

/// When everything is externally referenced and incompressible, the
/// overflow is unrecoverable: the LP reports `TrueOverflow` (no panic)
/// and the sink records the event.
#[test]
fn unrecoverable_overflow_is_reported_and_counted() {
    let mut lp = lp_with(3, CompressPolicy::CompressOne);
    let held: Vec<LpValue> = (0..3).map(|k| atom_cons(&mut lp, k)).collect();
    let r = lp.cons(LpValue::Atom(Word::int(9)), LpValue::Atom(Word::NIL));
    assert_eq!(r.unwrap_err(), LpError::TrueOverflow);
    let counts = lp.sink().counts;
    assert_eq!(counts.true_overflows.get(), 1);
    assert_eq!(counts.compressed.get(), 0, "nothing was compressible");
    assert_eq!(counts.cycles_reclaimed.get(), 0, "nothing was garbage");
    // The failed allocation corrupted nothing: the held values survive.
    for v in held {
        assert!(lp.writelist(v).is_ok());
    }
}
