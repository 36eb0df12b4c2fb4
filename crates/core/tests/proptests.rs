//! Property-based tests of the SMALL core invariants.
//!
//! Reference dropping goes through `ListProcessor::unroot` (schedule the
//! release of the EP's stack reference, then force the deferred
//! release); deferred release keeps one dedicated equivalence test
//! against the immediate primitives next to its implementation in
//! `lp.rs`.

use proptest::prelude::*;
use small_core::machine::{traverse_preorder, SmallBackend};
use small_core::{
    CompressPolicy, DecrementPolicy, FreeDiscipline, LpConfig, RefcountMode, RootKind,
};
use small_heap::controller::TwoPointerController;
use small_sexpr::{parse, print, Interner};

fn arb_list_src() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        prop::sample::select(vec!["a", "b", "c"]).prop_map(str::to_owned),
        (0i64..50).prop_map(|i| i.to_string()),
        Just("nil".to_owned()),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop::collection::vec(inner, 1..5).prop_map(|items| format!("({})", items.join(" ")))
    })
    .prop_map(|s| {
        if s.starts_with('(') {
            s
        } else {
            format!("({s})")
        }
    })
}

fn arb_config() -> impl Strategy<Value = LpConfig> {
    (
        prop::sample::select(vec![
            CompressPolicy::CompressOne,
            CompressPolicy::CompressAll,
        ]),
        prop::sample::select(vec![DecrementPolicy::Lazy, DecrementPolicy::Recursive]),
        prop::sample::select(vec![RefcountMode::Unified, RefcountMode::Split]),
        prop::sample::select(vec![FreeDiscipline::Stack, FreeDiscipline::Queue]),
        16usize..200,
    )
        .prop_map(
            |(compression, decrement, refcounts, free_discipline, table_size)| LpConfig {
                table_size,
                compression,
                decrement,
                refcounts,
                free_discipline,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn readlist_writelist_roundtrip_all_configs(
        src in arb_list_src(),
        config in arb_config(),
    ) {
        let mut i = Interner::new();
        let e = parse(&src, &mut i).unwrap();
        let backend = SmallBackend::<TwoPointerController>::new(16384, config);
        let mut lp = backend.lp;
        let v = lp.readlist(None, &e).unwrap();
        prop_assert_eq!(print(&lp.writelist(v).unwrap(), &i), print(&e, &i));
    }

    #[test]
    fn traversal_invariants(src in arb_list_src(), config in arb_config()) {
        let mut i = Interner::new();
        let e = parse(&src, &mut i).unwrap();
        // §5.3.1 counts splits per *internal node* (cons cell); for
        // lists with no nil elements this equals n+p. The general form
        // uses the binary-tree node counts directly.
        let (internal, leaves) = small_sexpr::tree::node_counts(&e);
        let backend = SmallBackend::<TwoPointerController>::new(16384, config);
        let mut lp = backend.lp;
        let v = lp.readlist(None, &e).unwrap();
        let count = traverse_preorder(&mut lp, v).unwrap();
        // Structure survives traversal intact.
        prop_assert_eq!(print(&lp.writelist(v).unwrap(), &i), print(&e, &i));
        if config.table_size >= 2 * internal + 8 {
            prop_assert_eq!(count.misses as usize, internal);
            prop_assert_eq!(count.touches as usize, 3 * internal + leaves);
            prop_assert!(count.hit_rate() >= 0.75 - 1e-9);
        }
    }

    #[test]
    fn all_garbage_detected_after_release(
        src in arb_list_src(),
        config in arb_config(),
    ) {
        let mut i = Interner::new();
        let e = parse(&src, &mut i).unwrap();
        let backend = SmallBackend::<TwoPointerController>::new(16384, config);
        let mut lp = backend.lp;
        let v = lp.readlist(None, &e).unwrap();
        traverse_preorder(&mut lp, v).unwrap();
        lp.unroot(v, RootKind::Binding);
        lp.drain_unroots();
        lp.drain_lazy();
        prop_assert_eq!(lp.occupancy(), 0);
    }

    #[test]
    fn cons_car_cdr_laws(
        a_src in arb_list_src(),
        b_src in arb_list_src(),
        config in arb_config(),
    ) {
        let mut i = Interner::new();
        let ae = parse(&a_src, &mut i).unwrap();
        let be = parse(&b_src, &mut i).unwrap();
        let backend = SmallBackend::<TwoPointerController>::new(16384, config);
        let mut lp = backend.lp;
        let a = lp.readlist(None, &ae).unwrap();
        let b = lp.readlist(None, &be).unwrap();
        let id = lp.cons(a, b).unwrap();
        // car(cons(a, b)) = a and cdr(cons(a, b)) = b, by identifier.
        prop_assert_eq!(lp.car(id).unwrap(), a);
        prop_assert_eq!(lp.cdr(id).unwrap(), b);
    }

    #[test]
    fn audit_stays_clean_under_random_op_sequences(
        srcs in prop::collection::vec(arb_list_src(), 1..6),
        ops in prop::collection::vec(0u8..6, 0..40),
        config in arb_config(),
    ) {
        // After ANY sequence of reads, conses, traversals, mutations,
        // and releases — including lazy decrements drained mid-sequence
        // — the structural auditor must report zero violations, for
        // every DecrementPolicy × RefcountMode × FreeDiscipline combo.
        let mut i = Interner::new();
        let backend = SmallBackend::<TwoPointerController>::new(16384, config);
        let mut lp = backend.lp;
        let mut held = Vec::new();
        for src in &srcs {
            let e = parse(src, &mut i).unwrap();
            let v = lp.readlist(None, &e).unwrap();
            held.push(v);
        }
        for (step, op) in ops.iter().enumerate() {
            let n = held.len();
            if n == 0 { break; }
            let v = held[step % n];
            match op {
                0 => {
                    if let Some(id) = v.obj() {
                        let c = lp.car(id).unwrap();
                        lp.unroot(c, RootKind::Binding);
                    }
                }
                1 => {
                    if let Some(id) = v.obj() {
                        let c = lp.cdr(id).unwrap();
                        lp.unroot(c, RootKind::Binding);
                    }
                }
                2 => {
                    let w = held[(step + 1) % n];
                    let c = lp.cons(v, w).unwrap();
                    held.push(small_core::LpValue::Obj(c));
                }
                3 => {
                    if let Some(id) = v.obj() {
                        lp.rplaca(id, small_core::LpValue::Atom(
                            small_heap::Word::int(step as i64),
                        )).unwrap();
                    }
                }
                4 => {
                    // Release one held reference (deferred unroot).
                    let idx = step % held.len();
                    lp.unroot(held.remove(idx), RootKind::Binding);
                }
                _ => {
                    // Drain pending lazy decrements mid-sequence.
                    lp.drain_lazy();
                }
            }
            lp.drain_unroots();
            let report = lp.audit();
            prop_assert!(
                report.is_clean(),
                "audit violations after step {step} (op {op}): {:?}",
                report.violations
            );
        }
        for v in held.drain(..) {
            lp.unroot(v, RootKind::Binding);
        }
        lp.drain_unroots();
        lp.drain_lazy();
        let report = lp.audit();
        prop_assert!(report.is_clean(), "final audit: {:?}", report.violations);
        prop_assert_eq!(lp.occupancy(), 0, "all structure released");
    }

    #[test]
    fn heap_cells_reclaimed_too(src in arb_list_src()) {
        // When the LPT frees an entry holding a heap object, the heap
        // space must come back after the controller services its queue.
        let mut i = Interner::new();
        let e = parse(&src, &mut i).unwrap();
        let backend = SmallBackend::<TwoPointerController>::new(16384, LpConfig::default());
        let mut lp = backend.lp;
        let v = lp.readlist(None, &e).unwrap();
        lp.unroot(v, RootKind::Binding);
        lp.drain_unroots();
        lp.drain_lazy();
        let free = lp.controller.drain_and_free();
        prop_assert_eq!(free, 16384, "all heap cells must be recovered");
    }
}

mod structure_coded_controller {
    //! The LP is generic over its heap controller (§4.3.3): the same
    //! operations must behave identically over the two-pointer store and
    //! the structure-coded exception-table store.

    use proptest::prelude::*;
    use small_core::{ListProcessor, LpConfig, RootKind};
    use small_heap::controller::TwoPointerController;
    use small_heap::StructureCodedController;
    use small_sexpr::{parse, print, Interner};

    fn arb_list_src() -> impl Strategy<Value = String> {
        let leaf = prop_oneof![
            prop::sample::select(vec!["a", "b", "c"]).prop_map(str::to_owned),
            (0i64..50).prop_map(|i| i.to_string()),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop::collection::vec(inner, 1..5).prop_map(|items| format!("({})", items.join(" ")))
        })
        .prop_map(|s| {
            if s.starts_with('(') {
                s
            } else {
                format!("({s})")
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn controllers_agree_on_car_cdr_walks(src in arb_list_src()) {
            let mut i = Interner::new();
            let e = parse(&src, &mut i).unwrap();

            let mut lp_tp = ListProcessor::new(
                TwoPointerController::new(8192, 64),
                LpConfig::default(),
            );
            let mut lp_sc = ListProcessor::new(
                StructureCodedController::new(),
                LpConfig::default(),
            );
            let mut lp_cc = ListProcessor::new(
                small_heap::CdrCodedController::new(16384),
                LpConfig::default(),
            );
            let v_cc = lp_cc.readlist(None, &e).unwrap();
            prop_assert_eq!(
                print(&lp_cc.writelist(v_cc).unwrap(), &i),
                print(&e, &i),
                "cdr-coded controller round-trip"
            );
            if let Some(id) = v_cc.obj() {
                let car = lp_cc.car(id).unwrap();
                let cdr = lp_cc.cdr(id).unwrap();
                // car/cdr through the cdr-coded split agree with the tree.
                prop_assert_eq!(
                    print(&lp_cc.writelist(car).unwrap(), &i),
                    print(&e.car().unwrap(), &i)
                );
                prop_assert_eq!(
                    print(&lp_cc.writelist(cdr).unwrap(), &i),
                    print(&e.cdr().unwrap(), &i)
                );
            }

            let v_tp = lp_tp.readlist(None, &e).unwrap();
            let v_sc = lp_sc.readlist(None, &e).unwrap();

            // Walk the spine via the LP on both backends, comparing the
            // extracted structure at every step.
            let mut cur_tp = v_tp;
            let mut cur_sc = v_sc;
            loop {
                let s_tp = print(&lp_tp.writelist(cur_tp).unwrap(), &i);
                let s_sc = print(&lp_sc.writelist(cur_sc).unwrap(), &i);
                prop_assert_eq!(s_tp, s_sc);
                let (Some(id_tp), Some(id_sc)) = (cur_tp.obj(), cur_sc.obj()) else {
                    break;
                };
                let car_tp = lp_tp.car(id_tp).unwrap();
                let car_sc = lp_sc.car(id_sc).unwrap();
                prop_assert_eq!(
                    print(&lp_tp.writelist(car_tp).unwrap(), &i),
                    print(&lp_sc.writelist(car_sc).unwrap(), &i)
                );
                cur_tp = lp_tp.cdr(id_tp).unwrap();
                cur_sc = lp_sc.cdr(id_sc).unwrap();
            }
            // Identical LPT-level activity: hits/misses are a property of
            // the access pattern, not the representation.
            prop_assert_eq!(lp_tp.stats().misses, lp_sc.stats().misses);
            prop_assert_eq!(lp_tp.stats().hits, lp_sc.stats().hits);
        }

        #[test]
        fn structure_coded_reclaims_on_release(src in arb_list_src()) {
            let mut i = Interner::new();
            let e = parse(&src, &mut i).unwrap();
            let mut lp = ListProcessor::new(
                StructureCodedController::new(),
                LpConfig::default(),
            );
            let v = lp.readlist(None, &e).unwrap();
            if let Some(id) = v.obj() {
                // car() returns a retained reference; drop it too.
                let c = lp.car(id).unwrap();
                lp.unroot(c, RootKind::Binding);
            }
            lp.unroot(v, RootKind::Binding);
            lp.drain_unroots();
            lp.drain_lazy();
            prop_assert_eq!(lp.occupancy(), 0);
            prop_assert_eq!(lp.controller.heap().live(), 0, "all tables freed");
        }
    }
}
