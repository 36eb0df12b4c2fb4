//! One serving session: a complete SMALL machine behind a request API.
//!
//! A [`Session`] owns a `Vm<SmallBackend>` (the EP), its List
//! Processor (the LP), a persistent [`Interner`] so symbols keep their
//! identities across requests, and a [`ServeSink`] recording the
//! session's EP↔LP event traffic while pricing it on the machine's
//! virtual clock. Requests are s-expression program
//! texts; each is compiled against the session interner and run on the
//! same machine, so `setq`-created globals (and the LPT entries they
//! retain) carry over from request to request — exactly the paper's
//! long-lived EP/LP pairing, placed behind a service boundary.
//!
//! Sessions can be *suspended* to a byte blob (a `small-persist`
//! checkpoint embedding the LPT image, the heap-controller image, the
//! interner, the global bindings, and the metrics counters) and later
//! *resumed*. Suspension is **stats-neutral**: the `LptStats` ledger
//! and event counts travel inside the image and no retain/release
//! traffic is issued on either side, so an evicted-and-resumed session
//! is indistinguishable — ledger included — from one that stayed
//! resident. The soak harness turns that property into a gate.

use crate::protocol::{
    compile_error_reply, lp_error_reply, parse_error_reply, persist_error_reply, seq_gap_reply,
    seq_too_old_reply, vm_error_reply, Reply,
};
use crate::telemetry::ServeSink;
use small_core::machine::SmallBackend;
use small_core::{FieldImage, Id, ListProcessor, LpConfig, LpImage, LpValue, LptStats};
use small_heap::controller::TwoPointerController;
use small_heap::{PersistableController, Tag, Word};
use small_lisp::compiler::FrontEnd;
use small_lisp::vm::{ListBackend, Vm, VmValue};
use small_metrics::EventCounts;
use small_persist::{
    decode_checkpoint, digest_bytes, encode_checkpoint, ByteReader, ByteWriter, Checkpoint,
    PersistError, DIGEST_SEED,
};
use small_sexpr::{parse_all, print, Interner, Symbol};

/// Sizing and policy knobs shared by every session a manager creates.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Backing heap cells per session.
    pub heap_cells: usize,
    /// LPT entries per session.
    pub table_size: usize,
    /// Instruction budget per request (a runaway program gets a typed
    /// `step-budget` reply instead of wedging its worker).
    pub step_budget: u64,
    /// Maximum resident (non-suspended) sessions before LRU eviction.
    pub max_resident: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            heap_cells: 1 << 14,
            table_size: 512,
            step_budget: 2_000_000,
            max_resident: 4,
        }
    }
}

impl ServeConfig {
    /// The LP configuration each session machine runs under.
    pub fn lp_config(&self) -> LpConfig {
        LpConfig {
            table_size: self.table_size,
            ..LpConfig::default()
        }
    }
}

type Backend = SmallBackend<TwoPointerController, ServeSink>;

/// How many recently applied sequenced replies a session keeps for
/// retry deduplication. A retry older than this window gets a typed
/// `seq-too-old` error instead of a cached reply.
pub const DEDUP_WINDOW: usize = 32;

/// A resident session: one full SMALL machine plus request bookkeeping.
pub struct Session {
    /// Manager-assigned identifier (stable across suspend/resume).
    pub id: u64,
    interner: Interner,
    /// Cached compiler name tables (the special-form and primitive
    /// symbols live in `interner` from birth, so rebuilding these per
    /// request would only repeat the same lookups).
    front: FrontEnd,
    vm: Vm<Backend>,
    step_budget: u64,
    /// Requests served so far (evals only).
    pub requests: u64,
    /// Running FNV-1a digest over every request text and reply text, in
    /// order — the session's externally checkable transcript fingerprint.
    pub digest: u64,
    /// Next expected sequence number for sequenced (`seval`) requests.
    next_seq: u64,
    /// The last [`DEDUP_WINDOW`] applied sequenced replies, oldest
    /// first, for exactly-once retry semantics.
    replay: Vec<(u64, Reply)>,
}

fn empty_vm(front: &FrontEnd, interner: &mut Interner, backend: Backend) -> Vm<Backend> {
    let forms = parse_all("nil", interner).expect("the empty program parses");
    let program = front.compile(&forms).expect("the empty program compiles");
    Vm::new(program, backend)
}

impl Session {
    /// A fresh session with an empty machine.
    pub fn new(id: u64, cfg: &ServeConfig) -> Session {
        let mut interner = Interner::new();
        // Intern the compiler's name tables first — the same id prefix
        // the per-call front end fixed here historically.
        let front = FrontEnd::new(&mut interner);
        let backend =
            SmallBackend::with_sink(cfg.heap_cells, cfg.lp_config(), ServeSink::default());
        let vm = empty_vm(&front, &mut interner, backend);
        Session {
            id,
            interner,
            front,
            vm,
            step_budget: cfg.step_budget,
            requests: 0,
            digest: DIGEST_SEED,
            next_seq: 0,
            replay: Vec::new(),
        }
    }

    /// Compile and run one request program; returns the typed reply.
    ///
    /// Every failure mode — parse, compile, VM runtime, LP, cyclic
    /// result — becomes a typed `(err ...)` reply; the machine is
    /// recovered to its global level and stays usable. The deferred
    /// unroot queue is drained at the end of every request, so request
    /// boundaries are also valid suspension boundaries and the ledger
    /// advances deterministically with the request stream alone.
    ///
    /// The transcript digest folds the request text and the *encoded*
    /// reply text, so it is exactly a fingerprint of the wire traffic
    /// this session produced.
    pub fn eval(&mut self, src: &str) -> Reply {
        let reply = self.eval_inner(src);
        self.digest = digest_bytes(self.digest, src.as_bytes());
        self.digest = digest_bytes(self.digest, reply.encode().as_bytes());
        self.requests += 1;
        reply
    }

    /// Run one *sequenced* request: execute exactly once, answer
    /// retries from the replay window.
    ///
    /// Returns the reply plus an `applied` flag: `true` when the
    /// request executed (and must be journaled), `false` when it was a
    /// no-effect answer — a cached reply for a duplicate, or a typed
    /// `seq-gap`/`seq-too-old` rejection that touched no machine state.
    pub fn eval_seq(&mut self, seq: u64, src: &str) -> (Reply, bool) {
        if seq == self.next_seq {
            let reply = self.eval(src);
            self.next_seq += 1;
            if self.replay.len() == DEDUP_WINDOW {
                self.replay.remove(0);
            }
            self.replay.push((seq, reply.clone()));
            (reply, true)
        } else if seq > self.next_seq {
            (seq_gap_reply(self.next_seq, seq), false)
        } else {
            match self.replay.iter().find(|(s, _)| *s == seq) {
                Some((_, cached)) => (cached.clone(), false),
                None => (seq_too_old_reply(seq), false),
            }
        }
    }

    /// Next expected sequence number (the dedup cursor).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    fn eval_inner(&mut self, src: &str) -> Reply {
        let forms = match parse_all(src, &mut self.interner) {
            Ok(f) => f,
            Err(e) => return parse_error_reply(&e),
        };
        let program = match self.front.compile(&forms) {
            Ok(p) => p,
            Err(e) => return compile_error_reply(&e),
        };
        self.vm.load_program(program);
        self.vm.set_budget(self.step_budget);
        let reply = match self.vm.run() {
            Ok(v) => {
                let reply = match self.vm.backend.try_write_out(&v) {
                    Ok(e) => Reply::Value {
                        text: print(&e, &self.interner),
                    },
                    Err(e) => lp_error_reply(&e),
                };
                if let VmValue::List(id) = v {
                    self.vm.backend.release(&id);
                }
                reply
            }
            Err(e) => {
                self.vm.recover();
                vm_error_reply(&e)
            }
        };
        self.vm.backend.lp.drain_unroots();
        reply
    }

    /// The session's LP ledger.
    pub fn ledger(&self) -> LptStats {
        self.vm.backend.lp.stats()
    }

    /// The ledger as a typed `(ok ledger …)` reply — every `LptStats`
    /// field, in declaration order (see
    /// [`crate::protocol::LEDGER_FIELDS`]).
    pub fn ledger_reply(&self) -> Reply {
        Reply::Ledger(Box::new(self.ledger()))
    }

    /// The transcript digest as a typed `(ok digest d<hex16>)` reply.
    pub fn digest_reply(&self) -> Reply {
        Reply::Digest {
            digest: self.digest,
        }
    }

    /// The session's event counts (a copy).
    pub fn counts(&self) -> EventCounts {
        self.vm.backend.lp.sink().counts
    }

    /// Virtual cycles accrued since the last take, pricing the
    /// operation stream on the machine's timing model (see
    /// [`ServeSink`]); resets the clock. The store calls this once per
    /// request, so the value is a pure function of the request's own
    /// operation stream — schedule- and eviction-independent.
    pub fn take_cycles(&mut self) -> u64 {
        self.vm.backend.lp.sink_mut().take_cycles()
    }

    /// Shut the machine down: release every binding and stack slot,
    /// settle deferred and lazy work, and report the LPT occupancy left
    /// behind — which must be 0 (the §5.3.2 empty-table invariant) for
    /// any session whose programs tore down their cycles.
    pub fn close(mut self) -> (usize, LptStats) {
        self.vm.shutdown();
        self.vm.backend.lp.drain_unroots();
        self.vm.backend.lp.drain_lazy();
        (self.vm.backend.lp.occupancy(), self.vm.backend.lp.stats())
    }

    // -----------------------------------------------------------------
    // Suspend / resume
    // -----------------------------------------------------------------

    /// Suspend the session to a self-contained checkpoint blob.
    ///
    /// Must be called at a request boundary (the manager only evicts
    /// idle sessions). The blob embeds the LPT image, the heap image,
    /// the interner, the global bindings, the metrics counters, and the
    /// request/digest bookkeeping — everything [`Session::resume`]
    /// needs. No release traffic is issued: the outstanding binding
    /// handles' counts ride inside the LPT image and are re-wrapped on
    /// resume, keeping suspension invisible to the ledger.
    pub fn suspend(self) -> Vec<u8> {
        self.suspend_with_counts().0
    }

    /// [`Session::suspend`], also returning the event counts the blob
    /// carries, so a store can report them without decoding the blob.
    pub(crate) fn suspend_with_counts(mut self) -> (Vec<u8>, EventCounts) {
        self.vm.backend.lp.drain_unroots();
        let counts = self.counts();
        let mut w = ByteWriter::new();
        w.put_u64(self.requests);
        w.put_u64(self.digest);
        for word in counts.to_words() {
            w.put_u64(word);
        }
        w.put_u64(self.interner.len() as u64);
        for k in 0..self.interner.len() {
            w.put_str(self.interner.name(Symbol(k as u32)));
        }
        let globals = self.vm.globals();
        w.put_u64(globals.len() as u64);
        for (sym, v) in globals {
            w.put_u32(sym.0);
            match v {
                VmValue::Nil => w.put_u8(0),
                VmValue::Int(i) => {
                    w.put_u8(1);
                    w.put_u64(*i as u64);
                }
                VmValue::Sym(s) => {
                    w.put_u8(2);
                    w.put_u32(s.0);
                }
                VmValue::List(id) => {
                    w.put_u8(3);
                    w.put_u32(*id);
                }
            }
        }
        w.put_u64(self.next_seq);
        w.put_u64(self.replay.len() as u64);
        for (seq, reply) in &self.replay {
            w.put_u64(*seq);
            w.put_str(&reply.encode());
        }
        let blob = encode_checkpoint(&Checkpoint {
            event_index: self.requests,
            journal_seq: 0,
            lp: self.vm.backend.lp.export_image(),
            controller: self.vm.backend.lp.controller.export_image(),
            driver: w.finish(),
        });
        (blob, counts)
        // Dropping `self` here drops the outstanding `Rooted` handles
        // without draining their unroots — the counts they represent
        // were exported live, as resume expects.
    }

    /// Resume a session from a [`Session::suspend`] blob (of any
    /// checkpoint version [`decode_checkpoint`] reads). Fails closed on
    /// any damage: CRC, version, malformed image, a heap capacity other
    /// than `cfg.heap_cells`, short driver, a symbol the interner does
    /// not hold, or a global whose reference the restored table does
    /// not count.
    pub fn resume(id: u64, cfg: &ServeConfig, bytes: &[u8]) -> Result<Session, PersistError> {
        let corrupt = PersistError::CorruptCheckpoint;
        let ckpt = decode_checkpoint(bytes)?;
        let mut r = ByteReader::new(&ckpt.driver);
        let requests = r.counter().map_err(corrupt)?;
        let digest = r.u64().map_err(corrupt)?;
        let mut words = [0u64; 22];
        for word in &mut words {
            *word = r.u64().map_err(corrupt)?;
        }
        let mut interner = Interner::new();
        let nsyms = r.len().map_err(corrupt)?;
        for _ in 0..nsyms {
            let name = r.str().map_err(corrupt)?;
            interner.intern(name);
        }
        // A global is at least a symbol and a value tag.
        let nglobals = r.count(5).map_err(corrupt)?;
        let mut globals: Vec<(Symbol, VmValue<Id>)> = Vec::with_capacity(nglobals);
        for _ in 0..nglobals {
            let sym = Symbol(r.u32().map_err(corrupt)?);
            let v = match r.u8().map_err(corrupt)? {
                0 => VmValue::Nil,
                1 => VmValue::Int(r.u64().map_err(corrupt)? as i64),
                2 => VmValue::Sym(Symbol(r.u32().map_err(corrupt)?)),
                3 => VmValue::List(r.u32().map_err(corrupt)?),
                _ => return Err(corrupt("bad global value tag")),
            };
            globals.push((sym, v));
        }
        let next_seq = r.counter().map_err(corrupt)?;
        let nreplay = r.len().map_err(corrupt)?;
        let mut replay = Vec::with_capacity(nreplay.min(DEDUP_WINDOW));
        for _ in 0..nreplay {
            let seq = r.u64().map_err(corrupt)?;
            let text = r.str().map_err(corrupt)?;
            let reply =
                Reply::decode(text).ok_or_else(|| corrupt("bad replay-window reply text"))?;
            replay.push((seq, reply));
        }
        r.expect_end().map_err(corrupt)?;

        let controller = TwoPointerController::import_image(&ckpt.controller)?;
        if controller.heap().capacity() != cfg.heap_cells {
            return Err(corrupt("heap capacity differs from the configured heap"));
        }
        if !symbols_known(&controller, &ckpt.lp, &globals, interner.len()) {
            return Err(corrupt("unknown symbol"));
        }
        let sink = ServeSink::with_counts(EventCounts::from_words(&words));
        let lp = ListProcessor::from_image(controller, cfg.lp_config(), &ckpt.lp, sink)?;
        if !lp.audit().is_clean() {
            return Err(corrupt("restored session table fails audit"));
        }
        lp.check_roots(globals.iter().filter_map(|(_, v)| match v {
            VmValue::List(id) => Some(LpValue::Obj(*id)),
            _ => None,
        }))?;
        let mut backend = SmallBackend::from_lp(lp);
        for (_, v) in &globals {
            if let VmValue::List(obj) = v {
                backend.resume_retained(*obj);
            }
        }
        // The name tables were interned at the session's birth, so this
        // re-resolves existing ids without growing the restored interner.
        let front = FrontEnd::new(&mut interner);
        let mut vm = empty_vm(&front, &mut interner, backend);
        vm.restore_globals(globals);
        Ok(Session {
            id,
            interner,
            front,
            vm,
            step_budget: cfg.step_budget,
            requests,
            digest,
            next_seq,
            replay,
        })
    }

    /// A typed error reply for a persist failure on this path (exposed
    /// for the store's resume-on-touch).
    pub fn persist_reply(e: &PersistError) -> Reply {
        persist_error_reply(e)
    }
}

/// Whether every symbol a suspended session holds — global names and
/// values, atom fields of the table, and words of live heap cells — is
/// one of the `nsyms` its restored interner knows, so printing a reply
/// can never look up a symbol that does not exist.
fn symbols_known(
    controller: &TwoPointerController,
    lp: &LpImage,
    globals: &[(Symbol, VmValue<Id>)],
    nsyms: usize,
) -> bool {
    let known = |s: Symbol| s.index() < nsyms;
    let word_known = |w: Word| w.tag() != Tag::Sym || known(Symbol(w.as_sym()));
    let globals_known = globals.iter().all(|(name, v)| match v {
        VmValue::Sym(s) => known(*name) && known(*s),
        _ => known(*name),
    });
    let fields_known = lp.entries.iter().all(|e| {
        [e.car, e.cdr].into_iter().all(|f| match f {
            FieldImage::Atom(bits) => word_known(Word::from_bits(bits)),
            _ => true,
        })
    });
    let heap = controller.heap();
    let cells_known = heap
        .live_cells()
        .all(|a| word_known(heap.raw_car(a)) && word_known(heap.raw_cdr(a)));
    globals_known && fields_known && cells_known
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ServeConfig {
        ServeConfig {
            heap_cells: 1 << 12,
            table_size: 256,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn globals_persist_across_requests() {
        let mut s = Session::new(0, &cfg());
        assert_eq!(
            s.eval("(setq acc (cons 1 (cons 2 nil)))").encode(),
            "(ok value (1 2))"
        );
        assert_eq!(s.eval("(car acc)").encode(), "(ok value 1)");
        assert_eq!(
            s.eval("(setq acc (cons 0 acc))").encode(),
            "(ok value (0 1 2))"
        );
        assert_eq!(s.eval("(setq acc nil)").encode(), "(ok value nil)");
        let (occ, _) = s.close();
        assert_eq!(occ, 0);
    }

    #[test]
    fn typed_errors_do_not_kill_the_session() {
        let mut s = Session::new(0, &cfg());
        assert_eq!(s.eval("(setq g 7)").encode(), "(ok value 7)");
        assert_eq!(s.eval("(car 5)").encode(), "(err vm type-error car)");
        assert_eq!(s.eval("(quotient 1 0)").encode(), "(err vm divide-by-zero)");
        assert_eq!(s.eval("(cond").encode(), "(err proto unexpected-eof)");
        assert_eq!(
            s.eval("(go nowhere)").encode(),
            "(err compile no-such-label)"
        );
        assert_eq!(s.eval("g").encode(), "(ok value 7)");
        let (occ, _) = s.close();
        assert_eq!(occ, 0);
    }

    #[test]
    fn cyclic_result_is_a_typed_reply_not_a_panic() {
        let mut s = Session::new(0, &cfg());
        let cyc = "(prog (x) (setq x (cons 1 (cons 2 nil))) (rplacd (cdr x) x) (return x))";
        assert_eq!(s.eval(cyc).encode(), "(err lp cyclic)");
        // The cycle is unreachable garbage now; a later request still runs.
        assert_eq!(s.eval("(add 1 2)").encode(), "(ok value 3)");
    }

    #[test]
    fn runaway_program_hits_step_budget() {
        let mut s = Session::new(
            0,
            &ServeConfig {
                step_budget: 10_000,
                ..cfg()
            },
        );
        assert_eq!(
            s.eval("(prog () loop (go loop))").encode(),
            "(err vm step-budget)"
        );
        assert_eq!(s.eval("(add 1 1)").encode(), "(ok value 2)");
    }

    #[test]
    fn suspend_resume_is_transparent_and_stats_neutral() {
        let c = cfg();
        let mut a = Session::new(7, &c);
        let mut b = Session::new(7, &c);
        let warm = [
            "(setq acc (cons 1 (cons 2 (cons 3 nil))))",
            "(setq n 5)",
            "(setq acc (cons n acc))",
        ];
        for req in warm {
            assert_eq!(a.eval(req), b.eval(req));
        }
        let blob = a.suspend();
        let mut a = Session::resume(7, &c, &blob).expect("resume");
        assert_eq!(
            a.ledger(),
            b.ledger(),
            "suspension must not move the ledger"
        );
        assert_eq!(a.counts(), b.counts());
        let cold = ["(car acc)", "(setq acc (cdr acc))", "(setq acc nil)"];
        for req in cold {
            assert_eq!(a.eval(req), b.eval(req));
        }
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.ledger_reply(), b.ledger_reply());
        let (occ_a, _) = a.close();
        let (occ_b, _) = b.close();
        assert_eq!((occ_a, occ_b), (0, 0));
    }

    #[test]
    fn sequenced_retries_replay_without_reexecuting() {
        let mut s = Session::new(0, &cfg());
        let (r0, applied) = s.eval_seq(0, "(setq acc (cons 1 nil))");
        assert!(applied);
        assert_eq!(r0.encode(), "(ok value (1))");
        let (r1, applied) = s.eval_seq(1, "(setq acc (cons 2 acc))");
        assert!(applied);
        assert_eq!(r1.encode(), "(ok value (2 1))");
        let ledger_before = s.ledger();
        let digest_before = s.digest;
        // A retried mutating request comes back from the cache: same
        // bytes, no second application, ledger and digest untouched.
        let (retry, applied) = s.eval_seq(1, "(setq acc (cons 2 acc))");
        assert!(!applied);
        assert_eq!(retry, r1);
        assert_eq!(s.ledger(), ledger_before);
        assert_eq!(s.digest, digest_before);
        // Ahead of the cursor is a typed gap; far behind is too-old.
        let (gap, applied) = s.eval_seq(5, "(add 1 1)");
        assert!(!applied);
        assert_eq!(gap.encode(), "(err session seq-gap 2 5)");
        for k in 2..(2 + DEDUP_WINDOW as u64 + 1) {
            assert!(s.eval_seq(k, "(add 1 1)").1);
        }
        let (old, applied) = s.eval_seq(0, "(setq acc (cons 1 nil))");
        assert!(!applied);
        assert_eq!(old.encode(), "(err session seq-too-old 0)");
    }

    #[test]
    fn dedup_window_survives_suspend_resume() {
        let c = cfg();
        let mut s = Session::new(3, &c);
        let (r0, _) = s.eval_seq(0, "(setq n 7)");
        let (r1, _) = s.eval_seq(1, "(add n 1)");
        let blob = s.suspend();
        let mut s = Session::resume(3, &c, &blob).expect("resume");
        assert_eq!(s.next_seq(), 2);
        assert_eq!(s.eval_seq(0, "(setq n 7)"), (r0, false));
        assert_eq!(s.eval_seq(1, "(add n 1)"), (r1, false));
        let (r2, applied) = s.eval_seq(2, "(add n 2)");
        assert!(applied);
        assert_eq!(r2.encode(), "(ok value 9)");
    }

    #[test]
    fn corrupt_blob_fails_closed() {
        let c = cfg();
        let mut s = Session::new(1, &c);
        s.eval("(setq x (cons 1 nil))");
        let mut blob = s.suspend();
        let mid = blob.len() / 2;
        blob[mid] ^= 0xff;
        assert!(Session::resume(1, &c, &blob).is_err());
        let short = &blob[..blob.len() / 3];
        assert!(Session::resume(1, &c, short).is_err());
    }
}
