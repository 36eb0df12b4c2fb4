//! Checkpoint round-trip matrix: every RefcountMode × FreeDiscipline
//! combination over all three heap representations.
//!
//! Each cell drives a real workload, snapshots the full machine
//! through the versioned checkpoint codec, restores it into a fresh
//! controller + LP, and requires (a) byte-identical codec round-trips,
//! (b) image-identical restored state that passes `audit`, and (c)
//! observably identical behavior when the original and the restored
//! machine keep executing the same operations.

use small_core::{FreeDiscipline, ListProcessor, LpConfig, LpValue, RefcountMode, RootKind};
use small_heap::{
    CdrCodedController, HeapController, PersistableController, StructureCodedController,
    TwoPointerController,
};
use small_metrics::NoopSink;
use small_persist::{decode_checkpoint, encode_checkpoint, Checkpoint};
use small_sexpr::{parse, Interner};

fn config(refcounts: RefcountMode, free_discipline: FreeDiscipline) -> LpConfig {
    LpConfig {
        table_size: 96,
        refcounts,
        free_discipline,
        ..LpConfig::default()
    }
}

fn read<C: HeapController>(
    lp: &mut ListProcessor<C, NoopSink>,
    i: &mut Interner,
    src: &str,
) -> LpValue {
    let e = parse(src, i).unwrap();
    lp.readlist(None, &e).unwrap()
}

/// Drive a deterministic workload leaving a nontrivial mid-run state:
/// held bindings, freed entries with pending lazy decrements, a
/// mutated structure, and (split mode) populated EP-side counts.
/// Returns the values still held, each with one binding reference.
fn work<C: HeapController>(lp: &mut ListProcessor<C, NoopSink>, i: &mut Interner) -> Vec<LpValue> {
    let keep = read(lp, i, "(alpha (beta gamma) delta)");
    let tmp = read(lp, i, "((a b) (c d) e)");
    let pair = lp.cons(keep, tmp).unwrap();
    let kar = lp.car(pair).unwrap();
    lp.root_binding(kar);
    lp.rplaca_of(tmp, kar).unwrap();
    // Drop the direct reference to `tmp`: its spine survives only
    // through `pair`, and the release lands at the next drain.
    lp.unroot(tmp, RootKind::Binding);
    let dead = read(lp, i, "(x (y) z)");
    lp.unroot(dead, RootKind::Binding);
    lp.drain_unroots();
    vec![keep, LpValue::Obj(pair), kar]
}

fn snapshot<C: HeapController + PersistableController>(
    lp: &ListProcessor<C, NoopSink>,
) -> Checkpoint {
    Checkpoint {
        event_index: 7,
        journal_seq: 31,
        lp: lp.export_image(),
        controller: lp.controller.export_image(),
        driver: vec![0xAB, 0xCD],
    }
}

/// One matrix cell: work, snapshot, codec round-trip, restore, then
/// run both machines forward in lockstep and compare.
fn round_trip_cell<C, F>(make: F, refcounts: RefcountMode, free_discipline: FreeDiscipline)
where
    C: HeapController + PersistableController,
    F: Fn() -> C,
{
    let tag = format!("{}/{refcounts:?}/{free_discipline:?}", C::KIND);
    let cfg = config(refcounts, free_discipline);
    let mut i = Interner::new();
    let mut lp = ListProcessor::with_sink(make(), cfg, NoopSink);
    let values = work(&mut lp, &mut i);

    // Codec round-trip is exact and deterministic.
    let ckpt = snapshot(&lp);
    let bytes = encode_checkpoint(&ckpt);
    assert_eq!(bytes, encode_checkpoint(&ckpt), "{tag}: encode unstable");
    let decoded = decode_checkpoint(&bytes).unwrap();
    assert_eq!(decoded, ckpt, "{tag}: decode mismatch");

    // Restore into a fresh machine: identical image, clean audit.
    let controller = C::import_image(&decoded.controller).unwrap();
    let mut restored = ListProcessor::from_image(controller, cfg, &decoded.lp, NoopSink).unwrap();
    assert_eq!(restored.export_image(), ckpt.lp, "{tag}: image drifted");
    assert_eq!(restored.stats(), lp.stats(), "{tag}: stats drifted");
    assert!(restored.audit().is_clean(), "{tag}: restored audit");

    // Both machines keep executing the same operations identically.
    let mut j = Interner::new();
    for lp in [&mut lp, &mut restored] {
        let extra = read(lp, &mut j, "(p (q r) s)");
        let joined = lp.cons(extra, values[0]).unwrap();
        let kdr = lp.cdr(joined).unwrap();
        lp.root_binding(kdr);
        lp.unroot(extra, RootKind::Binding);
        lp.unroot(LpValue::Obj(joined), RootKind::Binding);
        lp.unroot(kdr, RootKind::Binding);
        lp.drain_unroots();
    }
    assert_eq!(
        lp.export_image(),
        restored.export_image(),
        "{tag}: behavior diverged after restore"
    );
    assert!(
        lp.audit().is_clean() && restored.audit().is_clean(),
        "{tag}"
    );
}

#[test]
fn matrix_round_trips_identically() {
    for refcounts in [RefcountMode::Unified, RefcountMode::Split] {
        for free_discipline in [FreeDiscipline::Stack, FreeDiscipline::Queue] {
            round_trip_cell(
                || TwoPointerController::new(4096, 64),
                refcounts,
                free_discipline,
            );
            round_trip_cell(|| CdrCodedController::new(4096), refcounts, free_discipline);
            round_trip_cell(StructureCodedController::new, refcounts, free_discipline);
        }
    }
}
