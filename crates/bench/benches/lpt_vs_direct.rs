//! The headline comparison: the same compiled Lisp programs on the
//! conventional direct-heap backend vs the SMALL LP/LPT backend, plus
//! raw LP operation costs.

use criterion::{criterion_group, criterion_main, Criterion};
use small_core::machine::SmallBackend;
use small_core::{ListProcessor, LpConfig, LpValue, RootKind};
use small_heap::controller::TwoPointerController;
use small_heap::{FaultyController, HeapController};
use small_lisp::compiler::compile_program;
use small_lisp::vm::{DirectBackend, Vm};
use small_metrics::{CountingSink, EventSink, NoopSink};
use small_profile::SpanSink;
use small_sexpr::Interner;
use std::hint::black_box;

const APPEND_PROGRAM: &str = "
(def app (lambda (a b)
  (cond ((null a) b)
        (t (cons (car a) (app (cdr a) b))))))
(def build (lambda (n)
  (cond ((equal n 0) nil)
        (t (cons n (build (sub n 1)))))))
(def go* (lambda (n) (app (build n) (build n))))
(go* 60)";

const FACT_PROGRAM: &str = "
(def fact (lambda (x)
  (cond ((equal x 0) 1) (t (times x (fact (sub x 1)))))))
(fact 18)";

fn bench_vm_backends(c: &mut Criterion) {
    for (name, src) in [("append", APPEND_PROGRAM), ("fact", FACT_PROGRAM)] {
        let mut group = c.benchmark_group(format!("vm_{name}"));
        group.bench_function("direct_heap", |b| {
            b.iter(|| {
                let mut i = Interner::new();
                let p = compile_program(src, &mut i).unwrap();
                let mut vm = Vm::new(p, DirectBackend::new(1 << 16));
                black_box(vm.run().unwrap())
            })
        });
        group.bench_function("small_lpt", |b| {
            b.iter(|| {
                let mut i = Interner::new();
                let p = compile_program(src, &mut i).unwrap();
                let mut vm = Vm::new(p, SmallBackend::new(1 << 16, LpConfig::default()));
                black_box(vm.run().unwrap())
            })
        });
        group.finish();
    }
}

fn bench_lp_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_primitive");
    group.bench_function("cons_release", |b| {
        let backend = SmallBackend::new(1 << 16, LpConfig::default());
        let mut lp = backend.lp;
        b.iter(|| {
            let id = lp
                .cons(
                    LpValue::Atom(small_heap::Word::int(1)),
                    LpValue::Atom(small_heap::Word::NIL),
                )
                .unwrap();
            lp.unroot(LpValue::Obj(id), RootKind::Binding);
            black_box(lp.occupancy())
        })
    });
    group.bench_function("car_hit", |b| {
        let mut i = Interner::new();
        let backend = SmallBackend::new(1 << 16, LpConfig::default());
        let mut lp = backend.lp;
        let e = small_sexpr::parse("(a b c d)", &mut i).unwrap();
        let v = lp.readlist(None, &e).unwrap();
        let id = v.obj().unwrap();
        let _ = lp.car(id).unwrap(); // materialize once
        b.iter(|| {
            let c = lp.car(id).unwrap();
            lp.unroot(c, RootKind::Binding);
            black_box(c)
        })
    });
    group.finish();
}

/// Instrumentation overhead: the same cons/car/release loop on an LP
/// with the default [`NoopSink`] (events monomorphize to nothing), a
/// [`CountingSink`], and the profiler's [`SpanSink`] in both states.
/// The Noop case must be indistinguishable from the
/// pre-instrumentation baseline, and `SpanSink::<false>` (disabled)
/// must be within noise of Noop — its `if !ACTIVE` guards are resolved
/// at monomorphization, so the instrumented call sites compile away.
fn bench_metrics_overhead(c: &mut Criterion) {
    fn workload<S: EventSink>(lp: &mut ListProcessor<TwoPointerController, S>) -> usize {
        let mut last = 0;
        for k in 0..64 {
            let id = lp
                .cons(
                    LpValue::Atom(small_heap::Word::int(k)),
                    LpValue::Atom(small_heap::Word::NIL),
                )
                .unwrap();
            let _ = lp.car(id).unwrap();
            lp.unroot(LpValue::Obj(id), RootKind::Binding);
            last = lp.occupancy();
        }
        last
    }

    let mut group = c.benchmark_group("metrics_overhead");
    group.bench_function("noop_sink", |b| {
        let mut lp = ListProcessor::with_sink(
            TwoPointerController::new(1 << 16, 64),
            LpConfig::default(),
            NoopSink,
        );
        b.iter(|| black_box(workload(&mut lp)))
    });
    group.bench_function("counting_sink", |b| {
        let mut lp = ListProcessor::with_sink(
            TwoPointerController::new(1 << 16, 64),
            LpConfig::default(),
            CountingSink::default(),
        );
        b.iter(|| black_box(workload(&mut lp)))
    });
    group.bench_function("span_sink_disabled", |b| {
        let mut lp = ListProcessor::with_sink(
            TwoPointerController::new(1 << 16, 64),
            LpConfig::default(),
            SpanSink::<false>::disabled(),
        );
        b.iter(|| black_box(workload(&mut lp)))
    });
    group.bench_function("span_sink_active", |b| {
        let mut lp = ListProcessor::with_sink(
            TwoPointerController::new(1 << 16, 64),
            LpConfig::default(),
            SpanSink::new("bench").summary_only(),
        );
        b.iter(|| black_box(workload(&mut lp)))
    });
    group.finish();
}

/// Fault-injection overhead guard: an LP over a
/// [`small_heap::FaultyController`] in passthrough (no-fault) state
/// must be within noise of one over the bare controller — the wrapper
/// holds no schedule, every fault check is one branch on an always-None
/// option, and the whole layer monomorphizes down to the inner calls.
fn bench_fault_injection_overhead(c: &mut Criterion) {
    fn workload<C: HeapController>(lp: &mut ListProcessor<C>) -> usize {
        let mut last = 0;
        for k in 0..64 {
            let id = lp
                .cons(
                    LpValue::Atom(small_heap::Word::int(k)),
                    LpValue::Atom(small_heap::Word::NIL),
                )
                .unwrap();
            let _ = lp.car(id).unwrap();
            lp.unroot(LpValue::Obj(id), RootKind::Binding);
            last = lp.occupancy();
        }
        last
    }

    let mut group = c.benchmark_group("fault_injection_overhead");
    group.bench_function("bare_controller", |b| {
        let mut lp =
            ListProcessor::new(TwoPointerController::new(1 << 16, 64), LpConfig::default());
        b.iter(|| black_box(workload(&mut lp)))
    });
    group.bench_function("faulty_controller_disabled", |b| {
        let mut lp = ListProcessor::new(
            FaultyController::passthrough(TwoPointerController::new(1 << 16, 64)),
            LpConfig::default(),
        );
        b.iter(|| black_box(workload(&mut lp)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1500))
        .sample_size(30);
    targets = bench_vm_backends, bench_lp_primitives, bench_metrics_overhead,
        bench_fault_injection_overhead
}
criterion_main!(benches);
