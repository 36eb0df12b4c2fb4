//! The SMALL machine: compiled Lisp running against the List Processor.
//!
//! [`SmallBackend`] implements [`small_lisp::vm::ListBackend`] over a
//! [`ListProcessor`], so the same stack-machine programs that run on the
//! conventional [`small_lisp::vm::DirectBackend`] run on the SMALL
//! organization. The VM plays the Evaluation Processor: its combined
//! control/binding stack is the EP stack of §4.3.1, and its
//! `retain`/`release` hook calls are exactly the reference-count traffic
//! the EP sends the LP on binding creation and function return. The
//! backend counts the references it retained per identifier, the
//! EP-side stack count of §5.2.4; a release is queued with
//! [`ListProcessor::unroot`] and the LP performs it at its next
//! operation boundary.
//!
//! Because the VM maintains one retained reference per live stack slot
//! and binding, running a program to completion and dropping its result
//! leaves the LPT *empty* — every transient cons was detected as garbage
//! the moment its last reference died, the §5.3.2 claim.
//!
//! Failures cross this boundary as typed values: [`LpError`] converts
//! into [`small_lisp::vm::BackendError`], so no LP condition — not even
//! a corrupt heap word — panics the machine.

use crate::lp::{Id, ListProcessor, LpConfig, LpError, LpValue, RootKind};
use small_heap::controller::TwoPointerController;
use small_heap::{HeapController, Word};
use small_lisp::vm::{BackendError, ListBackend, VmError, VmValue};
use small_metrics::{EventSink, NoopSink};
use small_sexpr::{SExpr, Symbol};

impl From<LpError> for BackendError {
    fn from(e: LpError) -> Self {
        match e {
            LpError::TrueOverflow => BackendError::TrueOverflow,
            LpError::Heap(h) => BackendError::Heap(h),
            LpError::NotAList => BackendError::NotAList,
            LpError::UnexpectedTag(t) => BackendError::UnexpectedTag(t),
            LpError::Cyclic => BackendError::Cyclic,
        }
    }
}

/// A [`ListBackend`] that routes every list operation through the LP.
pub struct SmallBackend<C: HeapController, S: EventSink = NoopSink> {
    /// The List Processor (public for stats inspection).
    pub lp: ListProcessor<C, S>,
    /// Per identifier, the binding references `retain` (or
    /// [`Self::resume_retained`]) took and `release` has not given back
    /// yet. References the VM received pre-retained (car/cdr/cons/
    /// read_in results) are not counted; `release` unroots those all
    /// the same. Sized from the table, whose size is fixed.
    retained: Vec<u32>,
}

impl SmallBackend<TwoPointerController> {
    /// Convenience: an uninstrumented LP over a two-pointer heap
    /// controller.
    pub fn new(heap_cells: usize, config: LpConfig) -> Self {
        Self::from_lp(ListProcessor::new(
            TwoPointerController::new(heap_cells, 64),
            config,
        ))
    }
}

impl<C: HeapController> SmallBackend<C> {
    /// An uninstrumented LP over any heap controller — e.g. a
    /// fault-injecting wrapper for chaos runs.
    pub fn over(controller: C, config: LpConfig) -> Self {
        Self::from_lp(ListProcessor::new(controller, config))
    }
}

impl<S: EventSink> SmallBackend<TwoPointerController, S> {
    /// An LP over a two-pointer heap controller, reporting events to
    /// `sink`. Passing a `small_profile::SpanSink` here profiles a
    /// whole VM run: every primitive the compiled program issues gets
    /// cycle-stamped EP/LP spans.
    pub fn with_sink(heap_cells: usize, config: LpConfig, sink: S) -> Self {
        Self::from_lp(ListProcessor::with_sink(
            TwoPointerController::new(heap_cells, 64),
            config,
            sink,
        ))
    }
}

impl<C: HeapController, S: EventSink> SmallBackend<C, S> {
    /// Consume the backend and return its event sink (releases the
    /// references the VM still holds first, in identifier order, so
    /// their events land in the sink rather than vanishing). Pair with
    /// [`with_sink`](SmallBackend::with_sink) to recover a profiler or
    /// recorder after a VM run.
    pub fn into_sink(mut self) -> S {
        for (id, &n) in self.retained.iter().enumerate() {
            for _ in 0..n {
                self.lp.unroot(LpValue::Obj(id as Id), RootKind::Binding);
            }
        }
        self.lp.drain_unroots();
        self.lp.into_sink()
    }
}

impl<C: HeapController, S: EventSink> SmallBackend<C, S> {
    /// Wrap an existing List Processor — e.g. one rebuilt from a
    /// checkpoint image — as a fresh backend holding no retained
    /// references. Pair with [`SmallBackend::resume_retained`] to count
    /// the references a suspended session's globals held.
    pub fn from_lp(lp: ListProcessor<C, S>) -> Self {
        let retained = vec![0; lp.capacity()];
        SmallBackend { lp, retained }
    }

    /// Count one retained binding reference to `id` after a resume.
    ///
    /// The restored [`LpImage`](crate::lp::LpImage) already carries the
    /// reference, so the table is not touched (no refop traffic): call
    /// it once per `List`-valued global binding being restored, in any
    /// order, and the backend's counts match the suspended machine's
    /// exactly. `id` must be a table identifier
    /// ([`ListProcessor::check_roots`] checks restored ones).
    pub fn resume_retained(&mut self, id: Id) {
        self.retained[id as usize] += 1;
    }

    /// Reconstruct the s-expression behind a value without panicking:
    /// the fallible twin of [`ListBackend::write_out`], surfacing
    /// [`LpError::Cyclic`] (a client program returned self-referential
    /// structure) as a typed value a serving layer can turn into an
    /// error reply instead of a crash.
    pub fn try_write_out(&mut self, v: &VmValue<Id>) -> Result<SExpr, LpError> {
        self.lp.writelist(Self::to_lp(v))
    }

    fn to_vm(v: LpValue) -> Result<VmValue<Id>, VmError> {
        match v {
            LpValue::Obj(id) => Ok(VmValue::List(id)),
            LpValue::Atom(w) => match w.tag() {
                small_heap::Tag::Nil => Ok(VmValue::Nil),
                small_heap::Tag::Int => Ok(VmValue::Int(w.as_int())),
                small_heap::Tag::Sym => Ok(VmValue::Sym(Symbol(w.as_sym()))),
                t => Err(VmError::Backend(BackendError::UnexpectedTag(t))),
            },
        }
    }

    fn to_lp(v: &VmValue<Id>) -> LpValue {
        match v {
            VmValue::Nil => LpValue::Atom(Word::NIL),
            VmValue::Int(i) => LpValue::Atom(Word::int(*i)),
            VmValue::Sym(s) => LpValue::Atom(Word::sym(s.0)),
            VmValue::List(id) => LpValue::Obj(*id),
        }
    }

    fn lp_err(e: LpError) -> VmError {
        VmError::Backend(e.into())
    }
}

// Every fallible primitive goes through [`ListProcessor::retrying`]:
// transient heap faults (a fault-injecting controller, §6 chaos runs)
// are retried with bounded backoff before surfacing, so the VM only
// sees a `Transient` error once the LP has genuinely given up.
impl<C: HeapController, S: EventSink> ListBackend for SmallBackend<C, S> {
    type Ref = Id;

    fn car(&mut self, r: &Id) -> Result<VmValue<Id>, VmError> {
        let r = *r;
        self.lp
            .retrying(|lp| lp.car(r))
            .map_err(Self::lp_err)
            .and_then(Self::to_vm)
    }

    fn cdr(&mut self, r: &Id) -> Result<VmValue<Id>, VmError> {
        let r = *r;
        self.lp
            .retrying(|lp| lp.cdr(r))
            .map_err(Self::lp_err)
            .and_then(Self::to_vm)
    }

    fn cons(&mut self, car: VmValue<Id>, cdr: VmValue<Id>) -> Result<Id, VmError> {
        let (a, d) = (Self::to_lp(&car), Self::to_lp(&cdr));
        // The operand-stack references the VM holds on `car`/`cdr` are
        // released by the VM itself after this call; the cons's internal
        // references were taken by the LP.
        self.lp.retrying(|lp| lp.cons(a, d)).map_err(Self::lp_err)
    }

    fn rplaca(&mut self, r: &Id, v: VmValue<Id>) -> Result<(), VmError> {
        let (r, v) = (*r, Self::to_lp(&v));
        self.lp.retrying(|lp| lp.rplaca(r, v)).map_err(Self::lp_err)
    }

    fn rplacd(&mut self, r: &Id, v: VmValue<Id>) -> Result<(), VmError> {
        let (r, v) = (*r, Self::to_lp(&v));
        self.lp.retrying(|lp| lp.rplacd(r, v)).map_err(Self::lp_err)
    }

    fn read_in(&mut self, e: &SExpr) -> Result<VmValue<Id>, VmError> {
        self.lp
            .retrying(|lp| lp.readlist(None, e))
            .map_err(Self::lp_err)
            .and_then(Self::to_vm)
    }

    fn write_out(&mut self, v: &VmValue<Id>) -> SExpr {
        self.write_checked(v).expect("writelist of acyclic value")
    }

    fn equal(&mut self, a: &VmValue<Id>, b: &VmValue<Id>) -> bool {
        self.equal_checked(a, b).expect("equal of acyclic values")
    }

    fn write_checked(&mut self, v: &VmValue<Id>) -> Result<SExpr, VmError> {
        self.try_write_out(v).map_err(Self::lp_err)
    }

    fn equal_checked(&mut self, a: &VmValue<Id>, b: &VmValue<Id>) -> Result<bool, VmError> {
        self.lp
            .equal(Self::to_lp(a), Self::to_lp(b))
            .map_err(Self::lp_err)
    }

    fn retain(&mut self, r: &Id) {
        self.lp.root_binding(LpValue::Obj(*r));
        self.retained[*r as usize] += 1;
    }

    fn release(&mut self, r: &Id) {
        // A reference of ours, or one the value arrived with: either way
        // exactly one binding release is scheduled.
        let held = &mut self.retained[*r as usize];
        *held = held.saturating_sub(1);
        self.lp.unroot(LpValue::Obj(*r), RootKind::Binding);
    }
}

/// Ordered-traversal accounting (§5.3.1).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraversalCount {
    /// LPT touches: 3 per internal node + 1 per leaf.
    pub touches: u64,
    /// Touches satisfied by the LPT (everything but first contacts).
    pub hits: u64,
    /// First contacts with internal nodes — each costs one heap split.
    pub misses: u64,
}

impl TraversalCount {
    /// Hit rate of the traversal; ≥ 75% is guaranteed (§5.3.1).
    pub fn hit_rate(&self) -> f64 {
        if self.touches == 0 {
            0.0
        } else {
            self.hits as f64 / self.touches as f64
        }
    }
}

/// Ordered-traversal driver (§5.3.1): visit every node of the object,
/// touching each internal node three times (before, between, and after
/// its sub-trees — the traversal super-sequence) and each leaf once.
/// Identical LP activity for pre-, in-, and post-order traversal; only
/// the *visit* position differs. Used by the `traversal` repro target
/// and the guaranteed-hit-rate property test.
pub fn traverse_preorder<C: HeapController, S: EventSink>(
    lp: &mut ListProcessor<C, S>,
    v: LpValue,
) -> Result<TraversalCount, LpError> {
    let mut count = TraversalCount::default();
    go(lp, v, &mut count)?;
    return Ok(count);

    fn go<C: HeapController, S: EventSink>(
        lp: &mut ListProcessor<C, S>,
        v: LpValue,
        count: &mut TraversalCount,
    ) -> Result<(), LpError> {
        match v {
            // A leaf touch: the atom was delivered from a parent field —
            // an LPT-satisfied reference (§5.3.1 counts it as a hit).
            LpValue::Atom(_) => {
                count.touches += 1;
                count.hits += 1;
                Ok(())
            }
            LpValue::Obj(id) => {
                // Touch 1: first contact; the car access splits the heap
                // object if the node is not yet materialized.
                let before = lp.stats().misses;
                let car = lp.car(id)?;
                count.touches += 1;
                if lp.stats().misses > before {
                    count.misses += 1;
                } else {
                    count.hits += 1;
                }
                go(lp, car, count)?;
                lp.unroot(car, RootKind::Binding);
                // Touch 2: back at the node between its sub-trees.
                let cdr = lp.cdr(id)?;
                count.touches += 1;
                count.hits += 1;
                go(lp, cdr, count)?;
                lp.unroot(cdr, RootKind::Binding);
                // Touch 3: final contact after the right sub-tree (where
                // a post-order visit — or a merge — would happen).
                let again = lp.car(id)?;
                count.touches += 1;
                count.hits += 1;
                lp.unroot(again, RootKind::Binding);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::LptStats;
    use small_lisp::compiler::compile_program;
    use small_lisp::vm::Vm;
    use small_sexpr::{metrics::np, parse, print, Interner};

    fn run_on_small(src: &str, inputs: &[&str]) -> (String, Vec<SExpr>, LptStats, Interner) {
        let mut i = Interner::new();
        let p = compile_program(src, &mut i).expect("compile");
        let backend = SmallBackend::new(65536, LpConfig::default());
        let mut vm = Vm::new(p, backend);
        for src in inputs {
            vm.input.push_back(parse(src, &mut i).unwrap());
        }
        let v = vm.run().expect("run");
        let out = vm.backend.write_out(&v);
        // Drop the final value and whatever the machine still holds so
        // the garbage accounting check is exact.
        if let small_lisp::vm::VmValue::List(id) = v {
            vm.backend.release(&id);
        }
        vm.shutdown();
        // Lazy child decrements park garbage on the free stack until
        // reallocation; drain them (this also drains scheduled unroots).
        vm.backend.lp.drain_lazy();
        let stats = vm.backend.lp.stats();
        let occupancy = vm.backend.lp.occupancy();
        assert_eq!(
            occupancy, 0,
            "all garbage must be detected by program end (§5.3.2)"
        );
        (print(&out, &i), vm.output, stats, i)
    }

    #[test]
    fn factorial_runs_on_small() {
        let src = "
        (def fact (lambda (x)
          (cond ((equal x 0) 1)
                (t (times x (fact (sub x 1)))))))
        (fact 10)";
        let (out, _, _, _) = run_on_small(src, &[]);
        assert_eq!(out, "3628800");
    }

    #[test]
    fn list_program_runs_on_small_with_lpt_hits() {
        let src = "
        (def app (lambda (a b)
          (cond ((null a) b)
                (t (cons (car a) (app (cdr a) b))))))
        (app '(1 2 3 4) '(5 6))";
        let (out, _, stats, _) = run_on_small(src, &[]);
        assert_eq!(out, "(1 2 3 4 5 6)");
        assert!(stats.gets > 0);
        assert!(stats.frees > 0, "transient structure must be reclaimed");
    }

    #[test]
    fn figure_4_15_program_on_small() {
        let src = "
        (def printit (lambda (junk) (write (cdr junk))))
        (def doit (lambda ()
          (prog (lst)
            (read lst)
            (printit lst)
            (setq lst (cdr (cdr lst)))
            (return lst))))
        (doit)";
        let (out, written, _, i) = run_on_small(src, &["(a b c d)"]);
        assert_eq!(out, "(c d)");
        assert_eq!(print(&written[0], &i), "(b c d)");
    }

    #[test]
    fn destructive_update_on_small() {
        let src = "
        (prog (x)
          (setq x '(1 2 3))
          (rplaca x 9)
          (rplacd (cdr x) '(7))
          (return x))";
        let (out, _, _, _) = run_on_small(src, &[]);
        assert_eq!(out, "(9 2 7)");
    }

    #[test]
    fn small_and_direct_backends_agree() {
        let src = "
        (def rev (lambda (l acc)
          (cond ((null l) acc)
                (t (rev (cdr l) (cons (car l) acc))))))
        (rev '(1 (2 a) 3 4 5) nil)";
        let mut i1 = Interner::new();
        let p1 = compile_program(src, &mut i1).unwrap();
        let mut vm1 = Vm::new(p1, small_lisp::vm::DirectBackend::new(4096));
        let v1 = vm1.run().unwrap();
        let direct = print(&vm1.backend.write_out(&v1), &i1);

        let (small, _, _, _) = run_on_small(src, &[]);
        assert_eq!(direct, small);
    }

    #[test]
    fn traversal_guarantees_75_percent_hit_rate() {
        // §5.3.1: a complete traversal of a list with n atoms and p
        // internal parens does exactly n+p splits and guarantees a 75%
        // hit rate (3 internal-node touches, 1 leaf touch each).
        let mut i = Interner::new();
        for src in [
            "(((A B) C D) E F G)",
            "(A B C (D E) F G)",
            "(A (B (C (D E F) G)))",
            "(A)",
        ] {
            let e = parse(src, &mut i).unwrap();
            let m = np(&e);
            let backend = SmallBackend::new(4096, LpConfig::default());
            let mut lp = backend.lp;
            let v = lp.readlist(None, &e).unwrap();
            let count = traverse_preorder(&mut lp, v).unwrap();
            assert_eq!(
                count.misses as usize,
                m.n + m.p,
                "{src}: splits must equal n+p"
            );
            // 3(n+p) internal touches + (n+p+1) leaf touches.
            assert_eq!(count.touches as usize, 4 * (m.n + m.p) + 1, "{src}");
            assert!(
                count.hit_rate() >= 0.75 - 1e-9,
                "{src}: traversal hit rate {} below the guaranteed 75%",
                count.hit_rate()
            );
        }
    }

    #[test]
    fn traversal_is_refcount_neutral() {
        let mut i = Interner::new();
        let e = parse("((a b) (c (d)) e)", &mut i).unwrap();
        let backend = SmallBackend::new(4096, LpConfig::default());
        let mut lp = backend.lp;
        let v = lp.readlist(None, &e).unwrap();
        traverse_preorder(&mut lp, v).unwrap();
        lp.unroot(v, RootKind::Binding);
        // Everything was reachable from v; after the deferred decrements
        // run, the whole structure must be detected as garbage.
        lp.drain_lazy();
        assert_eq!(lp.occupancy(), 0);
    }

    #[test]
    fn program_survives_transient_faults_with_identical_output() {
        use small_heap::{FaultPlan, FaultyController};
        let src = "
        (def app (lambda (a b)
          (cond ((null a) b)
                (t (cons (car a) (app (cdr a) b))))))
        (app '(1 2 3 4) '(5 6))";
        let (clean, _, _, _) = run_on_small(src, &[]);

        let mut i = Interner::new();
        let p = compile_program(src, &mut i).unwrap();
        let backend = SmallBackend::over(
            FaultyController::new(
                TwoPointerController::new(65536, 64),
                FaultPlan::aggressive(42),
            ),
            LpConfig::default(),
        );
        let mut vm = Vm::new(p, backend);
        let v = vm.run().expect("faulted run must still complete");
        let out = print(&vm.backend.write_out(&v), &i);
        assert_eq!(out, clean, "faults must not change the result");
        if let small_lisp::vm::VmValue::List(id) = v {
            vm.backend.release(&id);
        }
        vm.shutdown();
        vm.backend.lp.drain_lazy();
        assert_eq!(vm.backend.lp.occupancy(), 0);
        // The fault ledger reconciles exactly: every injected transient
        // was detected, and a run that completed recovered all of them.
        let stats = vm.backend.lp.stats();
        let injected = vm.backend.lp.controller.fault_stats().transient_total();
        assert!(injected > 0, "the aggressive plan must actually fire");
        assert_eq!(stats.faults_detected, injected);
        assert_eq!(stats.faults_recovered, stats.faults_detected);
        // Withheld frees all reach the heap once the window is flushed.
        vm.backend.lp.controller.flush_all_delayed();
        let fs = vm.backend.lp.controller.fault_stats();
        assert_eq!(fs.delayed_frees, fs.flushed_frees);
        assert_eq!(vm.backend.lp.controller.pending_delayed(), 0);
    }

    #[test]
    fn bad_tag_surfaces_as_typed_error_not_panic() {
        // A corrupt heap word must cross the EP–LP boundary as a value.
        let v = SmallBackend::<TwoPointerController>::to_vm(LpValue::Atom(Word::free_link(None)));
        match v {
            Err(VmError::Backend(BackendError::UnexpectedTag(t))) => {
                assert_eq!(t, small_heap::Tag::FreeLink);
            }
            other => panic!("expected UnexpectedTag, got {other:?}"),
        }
    }
}
