//! Design-choice ablations from DESIGN.md: compression policies, lazy
//! vs recursive decrement, unified vs split reference counts — each
//! measured as wall time of a fixed simulation run.

use criterion::{criterion_group, criterion_main, Criterion};
use small_core::{CompressPolicy, DecrementPolicy, RefcountMode};
use small_core::{FreeDiscipline, ListProcessor, LpConfig, LpValue, RootKind};
use small_heap::controller::TwoPointerController;
use small_heap::Word;
use small_simulator::driver::run_sim;
use small_simulator::SimParams;
use small_trace::Trace;
use small_workloads::synthetic;
use std::hint::black_box;

fn trace() -> Trace {
    let mut p = synthetic::table_5_1("slang");
    p.primitives = 2304;
    synthetic::generate(&p)
}

fn bench_ablations(c: &mut Criterion) {
    let t = trace();
    // A table size just below the knee so compression actually runs.
    let size = 48;

    let mut group = c.benchmark_group("simulate_slang");
    group.bench_function("compress_one", |b| {
        let p = SimParams {
            compression: CompressPolicy::CompressOne,
            table_size: size,
            ..SimParams::default()
        };
        b.iter(|| black_box(run_sim(&t, p, None)))
    });
    group.bench_function("compress_all", |b| {
        let p = SimParams {
            compression: CompressPolicy::CompressAll,
            table_size: size,
            ..SimParams::default()
        };
        b.iter(|| black_box(run_sim(&t, p, None)))
    });
    group.bench_function("lazy_decrement", |b| {
        let p = SimParams {
            decrement: DecrementPolicy::Lazy,
            ..SimParams::default()
        };
        b.iter(|| black_box(run_sim(&t, p, None)))
    });
    group.bench_function("recursive_decrement", |b| {
        let p = SimParams {
            decrement: DecrementPolicy::Recursive,
            ..SimParams::default()
        };
        b.iter(|| black_box(run_sim(&t, p, None)))
    });
    group.bench_function("unified_counts", |b| {
        let p = SimParams {
            refcounts: RefcountMode::Unified,
            ..SimParams::default()
        };
        b.iter(|| black_box(run_sim(&t, p, None)))
    });
    group.bench_function("split_counts", |b| {
        let p = SimParams {
            refcounts: RefcountMode::Split,
            ..SimParams::default()
        };
        b.iter(|| black_box(run_sim(&t, p, None)))
    });
    group.finish();
}

/// Free-list discipline ablation (§4.3.2.1): churn through a small LPT
/// under stack vs queue reuse; stack reuse keeps the table emptier and
/// drains deferred decrements with better locality.
fn bench_free_discipline(c: &mut Criterion) {
    let mut group = c.benchmark_group("free_discipline");
    for (name, disc) in [
        ("stack", FreeDiscipline::Stack),
        ("queue", FreeDiscipline::Queue),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut lp = ListProcessor::new(
                    TwoPointerController::new(1 << 14, 64),
                    LpConfig {
                        table_size: 128,
                        free_discipline: disc,
                        ..LpConfig::default()
                    },
                );
                for k in 0..2000i64 {
                    let a = lp
                        .cons(LpValue::Atom(Word::int(k)), LpValue::Atom(Word::NIL))
                        .map(LpValue::Obj)
                        .unwrap();
                    let b2 = lp.cons(a, LpValue::Atom(Word::NIL)).unwrap();
                    lp.unroot(a, RootKind::Binding);
                    lp.unroot(LpValue::Obj(b2), RootKind::Binding);
                }
                black_box(lp.stats().gets)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1500))
        .sample_size(30);
    targets = bench_ablations, bench_free_discipline
}
criterion_main!(benches);
