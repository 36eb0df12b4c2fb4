//! The traced run: a per-layer wall-time ledger measured from outside
//! the program.
//!
//! Each workload's script is replayed through a pipeline assembled
//! from the program's public functions in the order a shard runs them:
//! `Request::decode` → `parse_all` → `FrontEnd::compile` → `Vm::run` →
//! `try_write_out`/`print` → `Reply::encode` → `Wal::append`. The VM
//! runs over [`TimedBackend`] (every EP→LP call timed) wrapped around a
//! `SmallBackend` whose heap controller is [`TimedHeap`] (every LP→heap
//! call timed), so VM, LP and heap self time come out by subtraction.
//! A never-evicting `SessionStore` runs each slot's requests first,
//! untraced: the pipeline must reproduce its reply text and LP ledger at
//! every step (otherwise it would be timing a different program), and
//! its wall time is the untraced figure the tracing overhead is taken
//! against. The two run one after the other, not step by step, so that
//! neither runs on caches the other's session just evicted.

use crate::twin::{self, request_for, Twin};
use crate::workload::{Slot, Step};
use small_core::{ListProcessor, LptStats, SmallBackend};
use small_heap::controller::{ControllerStats, HeapError};
use small_heap::{HeapAddr, HeapController, SplitResult, TwoPointerController, Word};
use small_lisp::compiler::FrontEnd;
use small_lisp::vm::{ListBackend, Vm, VmError, VmValue};
use small_serve::protocol::{
    compile_error_reply, lp_error_reply, parse_error_reply, vm_error_reply,
};
use small_serve::repl::{reply_digest, ReplError, WalOp};
use small_serve::{Reply, Request, ServeConfig, ServeSink, Session, Standby, Wal};
use small_sexpr::{parse_all, print, Interner, SExpr};
use std::cell::Cell;
use std::time::{Duration, Instant};

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Summed wall time and count of the calls one wrapper timed.
#[derive(Default)]
struct Clock {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Clock {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let r = f();
        self.ns.set(self.ns.get() + ns_since(t0));
        self.calls.set(self.calls.get() + 1);
        r
    }
}

/// A heap controller that times every call into the one it wraps.
pub struct TimedHeap<C> {
    inner: C,
    clock: Clock,
}

impl<C: HeapController> HeapController for TimedHeap<C> {
    fn read_in(&mut self, expr: &SExpr) -> Result<Word, HeapError> {
        self.clock.timed(|| self.inner.read_in(expr))
    }
    fn split(&mut self, addr: HeapAddr) -> Result<SplitResult, HeapError> {
        self.clock.timed(|| self.inner.split(addr))
    }
    fn peek(&self, addr: HeapAddr) -> Result<SplitResult, HeapError> {
        self.clock.timed(|| self.inner.peek(addr))
    }
    fn merge(&mut self, car: Word, cdr: Word) -> Result<HeapAddr, HeapError> {
        self.clock.timed(|| self.inner.merge(car, cdr))
    }
    fn free_object(&mut self, addr: HeapAddr) {
        self.clock.timed(|| self.inner.free_object(addr))
    }
    fn extract(&self, w: Word) -> SExpr {
        self.clock.timed(|| self.inner.extract(w))
    }
    fn stats(&self) -> ControllerStats {
        self.inner.stats()
    }
}

/// A list backend that times every call into the one it wraps.
pub struct TimedBackend<B> {
    inner: B,
    clock: Clock,
}

type Val<B> = VmValue<<B as ListBackend>::Ref>;

impl<B: ListBackend> ListBackend for TimedBackend<B> {
    type Ref = B::Ref;
    fn car(&mut self, r: &B::Ref) -> Result<Val<B>, VmError> {
        self.clock.timed(|| self.inner.car(r))
    }
    fn cdr(&mut self, r: &B::Ref) -> Result<Val<B>, VmError> {
        self.clock.timed(|| self.inner.cdr(r))
    }
    fn cons(&mut self, car: Val<B>, cdr: Val<B>) -> Result<B::Ref, VmError> {
        self.clock.timed(|| self.inner.cons(car, cdr))
    }
    fn rplaca(&mut self, r: &B::Ref, v: Val<B>) -> Result<(), VmError> {
        self.clock.timed(|| self.inner.rplaca(r, v))
    }
    fn rplacd(&mut self, r: &B::Ref, v: Val<B>) -> Result<(), VmError> {
        self.clock.timed(|| self.inner.rplacd(r, v))
    }
    fn read_in(&mut self, e: &SExpr) -> Result<Val<B>, VmError> {
        self.clock.timed(|| self.inner.read_in(e))
    }
    fn write_out(&mut self, v: &Val<B>) -> SExpr {
        self.clock.timed(|| self.inner.write_out(v))
    }
    fn equal(&mut self, x: &Val<B>, y: &Val<B>) -> bool {
        self.clock.timed(|| self.inner.equal(x, y))
    }
    fn retain(&mut self, r: &B::Ref) {
        self.clock.timed(|| self.inner.retain(r))
    }
    fn release(&mut self, r: &B::Ref) {
        self.clock.timed(|| self.inner.release(r))
    }
}

type Lp = SmallBackend<TimedHeap<TwoPointerController>, ServeSink>;

/// A session machine built the way `Session::new` builds one, with the
/// timing wrappers in place.
struct PipeSession {
    interner: Interner,
    front: FrontEnd,
    vm: Vm<TimedBackend<Lp>>,
}

impl PipeSession {
    fn new(cfg: &ServeConfig) -> PipeSession {
        let mut interner = Interner::new();
        let front = FrontEnd::new(&mut interner);
        // `SmallBackend::with_sink` builds exactly this, minus the wrapper.
        let heap = TimedHeap {
            inner: TwoPointerController::new(cfg.heap_cells, 64),
            clock: Clock::default(),
        };
        let lp = ListProcessor::with_sink(heap, cfg.lp_config(), ServeSink::default());
        let backend = TimedBackend {
            inner: SmallBackend::from_lp(lp),
            clock: Clock::default(),
        };
        let forms = parse_all("nil", &mut interner).expect("the empty program parses");
        let program = front.compile(&forms).expect("the empty program compiles");
        PipeSession {
            interner,
            front,
            vm: Vm::new(program, backend),
        }
    }

    fn lp(&mut self) -> &mut Lp {
        &mut self.vm.backend.inner
    }

    /// Backend ns, backend calls, heap ns, heap calls so far.
    fn clocks(&self) -> [u64; 4] {
        let backend = &self.vm.backend.clock;
        let heap = &self.vm.backend.inner.lp.controller.clock;
        [
            backend.ns.get(),
            backend.calls.get(),
            heap.ns.get(),
            heap.calls.get(),
        ]
    }
}

/// Per-layer wall time (ns) and work counts, summed over requests.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layers {
    /// `Request::decode`.
    pub decode: u64,
    /// `parse_all`.
    pub parse: u64,
    /// `FrontEnd::compile`.
    pub compile: u64,
    /// VM self time: run/recover/shutdown minus the backend calls.
    pub vm: u64,
    /// LP self time: backend calls and write-out minus heap calls.
    pub lp: u64,
    /// Heap controller time.
    pub heap: u64,
    /// `print`.
    pub print: u64,
    /// `Reply::encode`.
    pub encode: u64,
    /// `reply_digest` + `Wal::append`.
    pub wal: u64,
    /// Whole-request time, measured apart from the layers.
    pub total: u64,
    /// VM instructions executed.
    pub instructions: u64,
    /// LP calls: EP→LP backend calls plus write-outs and drains.
    pub lp_calls: u64,
    /// LP→heap controller calls.
    pub heap_calls: u64,
    /// Request wire-text bytes.
    pub req_bytes: u64,
}

impl Layers {
    /// Sum of the layer self times.
    pub fn layer_sum(&self) -> u64 {
        self.decode
            + self.parse
            + self.compile
            + self.vm
            + self.lp
            + self.heap
            + self.print
            + self.encode
            + self.wal
    }

    /// The layers `SessionStore::apply` runs.
    pub fn apply_part(&self) -> u64 {
        self.parse + self.compile + self.vm + self.lp + self.heap + self.print
    }

    fn add(&mut self, l: &Layers) {
        self.decode += l.decode;
        self.parse += l.parse;
        self.compile += l.compile;
        self.vm += l.vm;
        self.lp += l.lp;
        self.heap += l.heap;
        self.print += l.print;
        self.encode += l.encode;
        self.wal += l.wal;
        self.total += l.total;
        self.instructions += l.instructions;
        self.lp_calls += l.lp_calls;
        self.heap_calls += l.heap_calls;
        self.req_bytes += l.req_bytes;
    }
}

/// The traced replay's results.
pub struct Replay {
    /// Totals over every replayed step.
    pub layers: Layers,
    /// Steps replayed.
    pub steps: u64,
    /// In-process ns of each step, `[client][slot][step]`: the traced
    /// decode, encode and WAL append (one clock pair each, so tracing
    /// barely inflates them) plus the untraced apply time (the per-call
    /// wrappers inflate VM and LP time; `trace.overhead_frac` says by
    /// how much).
    pub step_ns: Vec<Vec<Vec<u64>>>,
    /// Summed untraced `SessionStore::apply` ns over the same steps.
    pub untraced_apply_ns: u64,
    /// Every closed life's ledger counters, summed (`max_occupancy`:
    /// the largest).
    pub ledger: LptStats,
    /// Inline-cache probes served from a line.
    pub cache_hits: u64,
    /// Inline-cache probes in all.
    pub cache_probes: u64,
    /// The pipeline's WAL.
    pub wal: Wal,
    /// Steps whose reply or ledger differed from the untraced store's.
    pub mismatches: Vec<String>,
}

/// Replay every slot's script through the traced pipeline.
pub fn replay(plan: &[Vec<Slot>], twin: &Twin) -> Replay {
    let cfg = ServeConfig::default();
    let mut out = Replay {
        layers: Layers::default(),
        steps: 0,
        step_ns: Vec::new(),
        untraced_apply_ns: 0,
        ledger: LptStats::default(),
        cache_hits: 0,
        cache_probes: 0,
        wal: Wal::new(),
        mismatches: Vec::new(),
    };
    // Fed in the twin's order, so it deals the twin's session ids.
    let mut store = twin::store();
    for (c, slots) in plan.iter().enumerate() {
        let mut per_slot = Vec::new();
        for (r, slot) in slots.iter().enumerate() {
            let texts: Vec<(u64, String)> = (slot.script.iter().zip(&twin.steps[c][r]))
                .map(|(step, want)| (want.twin_id, request_for(step, want.twin_id).encode()))
                .collect();
            let untraced: Vec<(String, u64, Option<LptStats>)> = (slot.script.iter().zip(&texts))
                .map(|(step, (id, text))| {
                    let req = Request::decode(text).expect("generated requests decode");
                    let (reply, _, _, ns) = twin::apply(&mut store, &req);
                    let ledger =
                        matches!(step, Step::Eval(_)).then(|| twin::ledger_of(&mut store, *id));
                    (reply.encode(), ns, ledger)
                })
                .collect();
            let mut session: Option<PipeSession> = None;
            let mut times = Vec::with_capacity(slot.script.len());
            for (k, ((id, text), (want, apply_ns, ledger))) in
                texts.iter().zip(&untraced).enumerate()
            {
                let (l, reply) = traced_step(text, &mut session, *id, &cfg, &mut out);
                out.untraced_apply_ns += apply_ns;
                times.push(l.decode + apply_ns + l.encode + l.wal);
                if reply != *want {
                    out.mismatches.push(format!(
                        "client {c} slot {r} step {k}: reply {reply}, untraced {want}"
                    ));
                }
                if let (Some(ledger), Some(s)) = (ledger, &session) {
                    if s.vm.backend.inner.lp.stats() != *ledger {
                        out.mismatches
                            .push(format!("client {c} slot {r} step {k}: LP ledger differs"));
                    }
                }
                out.layers.add(&l);
                out.steps += 1;
            }
            per_slot.push(times);
        }
        out.step_ns.push(per_slot);
    }
    out
}

/// Where one request's VM and LP work happened: `exec` is VM-side
/// (run, recover, shutdown, session construction), `write_out` is
/// LP-side work outside any backend call. Clock snapshots bracket both.
#[derive(Default)]
struct Phase {
    exec: u64,
    write_out: u64,
    /// Clocks before `exec`, after `exec`, after `write_out`.
    clocks: [[u64; 4]; 3],
    /// Direct LP calls made outside the backend (write-out, drains).
    direct_calls: u64,
}

impl Phase {
    fn at_rest(s: &PipeSession) -> Phase {
        Phase {
            clocks: [s.clocks(); 3],
            ..Phase::default()
        }
    }

    fn attribute(&self, l: &mut Layers) {
        let [before, after_exec, end] = self.clocks;
        let backend_in_exec = after_exec[0] - before[0];
        let heap = end[2] - before[2];
        l.vm = self.exec.saturating_sub(backend_in_exec);
        l.lp = (backend_in_exec + self.write_out).saturating_sub(heap);
        l.heap = heap;
        l.lp_calls = end[1] - before[1] + self.direct_calls;
        l.heap_calls = end[3] - before[3];
    }
}

/// One request through the pipeline: its layer times and reply text.
/// Mirrors `Session::eval`/`Session::close` and the shard's WAL append.
fn traced_step(
    text: &str,
    session: &mut Option<PipeSession>,
    id: u64,
    cfg: &ServeConfig,
    out: &mut Replay,
) -> (Layers, String) {
    let mut l = Layers {
        req_bytes: text.len() as u64,
        ..Layers::default()
    };
    let t_start = Instant::now();
    let mut lap = Lap(t_start);
    let req = Request::decode(text).expect("generated requests decode");
    l.decode = lap.split();
    let mut closed = None;
    let (reply, phase) = match &req {
        Request::Open { .. } => {
            let s = PipeSession::new(cfg);
            let mut phase = Phase::at_rest(&s);
            phase.exec = lap.split();
            *session = Some(s);
            (Reply::Opened { id }, phase)
        }
        Request::Eval { src, .. } => {
            let s = session.as_mut().expect("eval on an open session");
            let mut phase = Phase::at_rest(s);
            let reply = traced_eval(s, src, cfg, &mut l, &mut phase, &mut lap);
            (reply, phase)
        }
        Request::Close { .. } => {
            let mut s = session.take().expect("close of an open session");
            let mut phase = Phase::at_rest(&s);
            s.vm.shutdown();
            phase.exec = lap.split();
            phase.clocks[1] = s.clocks();
            let lp = &mut s.lp().lp;
            lp.drain_unroots();
            lp.drain_lazy();
            let occupancy = lp.occupancy() as u64;
            phase.write_out = lap.split();
            closed = Some((lp.stats(), lp.cache_stats()));
            phase.clocks[2] = s.clocks();
            phase.direct_calls = 2;
            (Reply::Closed { occupancy }, phase)
        }
        other => panic!("the plan never sends {}", other.encode()),
    };
    phase.attribute(&mut l);
    let text = reply.encode();
    l.encode = lap.split();
    let op = match req {
        Request::Open { token } => WalOp::Open { token },
        Request::Eval { seq, src, .. } => WalOp::Eval { seq, src },
        Request::Close { seq, .. } => WalOp::Close { seq },
        _ => unreachable!("matched above"),
    };
    out.wal.append(id, op, reply_digest(&reply));
    l.wal = lap.split();
    l.total = ns_since(t_start);
    if let Some((ledger, cache)) = closed {
        let sum = &mut out.ledger;
        sum.hits += ledger.hits;
        sum.misses += ledger.misses;
        sum.pseudo_overflows += ledger.pseudo_overflows;
        sum.compressed += ledger.compressed;
        sum.cycle_collections += ledger.cycle_collections;
        sum.max_occupancy = sum.max_occupancy.max(ledger.max_occupancy);
        out.cache_hits += cache.hits;
        out.cache_probes += cache.hits + cache.misses;
    }
    (l, text)
}

/// A running stopwatch. Each split is the time since the previous one,
/// so consecutive splits tile a request with no gap between layers.
struct Lap(Instant);

impl Lap {
    fn split(&mut self) -> u64 {
        let now = Instant::now();
        let ns = (now - self.0).as_nanos() as u64;
        self.0 = now;
        ns
    }
}

/// `Session::eval_inner`, step by step, with each layer timed.
fn traced_eval(
    s: &mut PipeSession,
    src: &str,
    cfg: &ServeConfig,
    l: &mut Layers,
    phase: &mut Phase,
    lap: &mut Lap,
) -> Reply {
    let forms = parse_all(src, &mut s.interner);
    l.parse = lap.split();
    let forms = match forms {
        Ok(f) => f,
        Err(e) => return parse_error_reply(&e),
    };
    let program = s.front.compile(&forms);
    l.compile = lap.split();
    let program = match program {
        Ok(p) => p,
        Err(e) => return compile_error_reply(&e),
    };
    let instructions = s.vm.stats().instructions;
    s.vm.load_program(program);
    s.vm.set_budget(cfg.step_budget);
    let ran = s.vm.run();
    if ran.is_err() {
        s.vm.recover();
    }
    phase.exec = lap.split();
    phase.clocks[1] = s.clocks();
    l.instructions = s.vm.stats().instructions - instructions;
    let written = ran.as_ref().ok().map(|v| s.lp().try_write_out(v));
    if let Ok(VmValue::List(obj)) = &ran {
        s.vm.backend.release(obj);
    }
    s.lp().lp.drain_unroots();
    phase.write_out = lap.split();
    phase.clocks[2] = s.clocks();
    phase.direct_calls = 1 + written.is_some() as u64;
    let reply = match (ran, written) {
        (Err(e), _) => vm_error_reply(&e),
        (Ok(_), Some(Err(e))) => lp_error_reply(&e),
        (Ok(_), Some(Ok(e))) => Reply::Value {
            text: print(&e, &s.interner),
        },
        (Ok(_), None) => unreachable!("a successful run is always written out"),
    };
    l.print = lap.split();
    reply
}

/// Mean suspend and resume wall time and blob size of real sessions.
pub struct Persist {
    /// Mean `Session::suspend` ns.
    pub suspend_ns: f64,
    /// Mean `Session::resume` ns.
    pub resume_ns: f64,
    /// Mean blob bytes.
    pub blob_bytes: f64,
}

/// Run each client's first slot halfway through its first life on a
/// real `Session`, then time repeated suspend/resume round trips.
pub fn persist_probe(plan: &[Vec<Slot>]) -> Result<Persist, String> {
    const ROUNDS: usize = 6;
    let cfg = ServeConfig::default();
    let (mut suspend, mut resume, mut bytes, mut n) = (0u64, 0u64, 0u64, 0u64);
    for slots in plan {
        let script = &slots[0].script;
        let life = script[1..].iter().take_while(|s| **s != Step::Close);
        let half = life.clone().count() / 2;
        let mut s = Session::new(0, &cfg);
        for step in life.take(half) {
            if let Step::Eval(src) = step {
                s.eval(src);
            }
        }
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            let blob = s.suspend();
            suspend += ns_since(t0);
            let t1 = Instant::now();
            s = Session::resume(0, &cfg, &blob).map_err(|e| format!("resume: {e}"))?;
            resume += ns_since(t1);
            bytes += blob.len() as u64;
            n += 1;
        }
    }
    let n = n as f64;
    Ok(Persist {
        suspend_ns: suspend as f64 / n,
        resume_ns: resume as f64 / n,
        blob_bytes: bytes as f64 / n,
    })
}

/// Frames of a WAL as pull-sized batches.
pub fn wal_batches(wal: &Wal) -> Vec<Vec<u8>> {
    let mut batches = Vec::new();
    let mut from = 0;
    while from < wal.next_lsn() {
        let (bytes, next) = wal.frames_from(from, 64 * 1024);
        batches.push(bytes);
        from = next;
    }
    batches
}

/// Replay WAL batches on a fresh standby for up to `budget`; mean ns
/// per applied record.
pub fn standby_apply(batches: &[Vec<u8>], budget: Duration) -> Result<f64, ReplError> {
    let mut standby = Standby::new(ServeConfig::default());
    let (mut ns, mut records) = (0u64, 0u64);
    for batch in batches {
        let t0 = Instant::now();
        records += standby.apply(batch)? as u64;
        ns += ns_since(t0);
        if Duration::from_nanos(ns) >= budget {
            break;
        }
    }
    Ok(ns as f64 / records.max(1) as f64)
}
