//! Crash-consistent, resumable simulation (`run_sim_resumable`).
//!
//! Couples the trace-driven [`driver`](crate::run_sim) to
//! `small-persist`: every trace event's operations are group-committed
//! to a write-ahead journal as digest records, and a full machine
//! checkpoint (LPT image, heap-controller image, driver state, RNG) is
//! rotated into the store periodically
//! ([`SimParams::checkpoint_every`]) and at the end of the run.
//!
//! Because the simulator is deterministic, recovery does not need redo
//! records: it re-executes the trace from the last checkpoint and
//! *verifies* each re-executed operation's digest against the journal —
//! any divergence (wrong trace, wrong parameters, bit rot that slipped
//! past the CRCs) fails closed with
//! [`PersistError::ReplayDivergence`]. A torn tail (incomplete final
//! frame) is truncated and its operations simply re-execute and
//! re-journal identically; a complete frame that fails its CRC aborts
//! recovery with [`PersistError::CorruptJournal`].
//!
//! The same entry point serves both directions: an empty
//! [`CrashStore`] starts a fresh durable run, a non-empty one recovers
//! and resumes. The restored machine passes through an
//! [`audit`](small_core::ListProcessor::audit)/[`reconcile`]
//! consistency gate before replay begins.
//!
//! [`reconcile`]: small_core::ListProcessor::reconcile

use crate::config::SimParams;
use crate::driver::{Driver, FrameSim, SimResult};
use fxhash::FxHashMap;
use rand::rngs::StdRng;
use rand::SeedableRng;
use small_core::{Id, ListProcessor, LpConfig, LpError, LpValue, RootKind, Rooted};
use small_heap::controller::TwoPointerController;
use small_heap::{HeapController, PersistableController, Word};
use small_metrics::NoopSink;
use small_persist::{
    decode_checkpoint, encode_checkpoint, encode_frame, scan_journal, verify_batch, ByteReader,
    ByteWriter, Checkpoint, CrashStore, JournalBatch, JournalSink, PersistError,
};
use small_trace::Trace;

type DurableSink = JournalSink<NoopSink>;
type DurableDriver<'t> = Driver<'t, TwoPointerController, DurableSink>;

/// A run-ending LP condition: `(true_overflow, failure)`.
type Abort = (bool, Option<String>);

fn lp_config(params: &SimParams) -> LpConfig {
    LpConfig {
        table_size: params.table_size,
        compression: params.compression,
        decrement: params.decrement,
        refcounts: params.refcounts,
        overflow: params.overflow,
        ..LpConfig::default()
    }
}

// ---------------------------------------------------------------------
// Driver-state codec (the checkpoint's opaque driver section)
// ---------------------------------------------------------------------

fn put_value(w: &mut ByteWriter, v: LpValue) {
    match v {
        LpValue::Atom(word) => {
            w.put_u8(0);
            w.put_u64(word.bits());
        }
        LpValue::Obj(id) => {
            w.put_u8(1);
            w.put_u64(u64::from(id));
        }
    }
}

fn get_value(r: &mut ByteReader) -> Result<LpValue, &'static str> {
    let tag = r.u8()?;
    let payload = r.u64()?;
    match tag {
        0 => Ok(LpValue::Atom(Word::from_bits(payload))),
        1 => Ok(LpValue::Obj(
            u32::try_from(payload).map_err(|_| "driver id overflow")?,
        )),
        _ => Err("bad driver value tag"),
    }
}

fn put_handles(w: &mut ByteWriter, hs: &[Rooted]) {
    w.put_u64(hs.len() as u64);
    for h in hs {
        put_value(w, h.value());
    }
}

fn encode_driver(d: &DurableDriver<'_>, prims: u64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for word in d.rng.state() {
        w.put_u64(word);
    }
    match &d.tos {
        Some(h) => {
            w.put_bool(true);
            put_value(&mut w, h.value());
        }
        None => w.put_bool(false),
    }
    put_handles(&mut w, &d.globals);
    w.put_u64(d.frames.len() as u64);
    for f in &d.frames {
        put_handles(&mut w, &f.args);
        put_handles(&mut w, &f.locals);
    }
    let mut addrs: Vec<(Id, u64)> = d.addrs.iter().map(|(&k, &v)| (k, v)).collect();
    addrs.sort_unstable_by_key(|&(id, _)| id);
    w.put_u64(addrs.len() as u64);
    for (id, addr) in addrs {
        w.put_u32(id);
        w.put_u64(addr);
    }
    w.put_u64(d.next_addr);
    w.put_u64(d.access_hits);
    w.put_u64(d.access_misses);
    w.put_u64(prims);
    w.finish()
}

/// Rebuild a driver from checkpointed state. Every persisted slot holds
/// a binding reference that is *already counted* in the restored LPT
/// image, so handles are re-wrapped with
/// [`ListProcessor::resume_root`] rather than re-acquired.
fn decode_driver<'t>(
    trace: &'t Trace,
    params: SimParams,
    lp: ListProcessor<TwoPointerController, DurableSink>,
    bytes: &[u8],
) -> Result<(DurableDriver<'t>, u64), PersistError> {
    let corrupt = PersistError::CorruptCheckpoint;
    let mut r = ByteReader::new(bytes);
    let mut rng_state = [0u64; 4];
    for word in &mut rng_state {
        *word = r.u64().map_err(corrupt)?;
    }
    let tos = if r.bool().map_err(corrupt)? {
        Some(get_value(&mut r).map_err(corrupt)?)
    } else {
        None
    };
    let values = |r: &mut ByteReader| -> Result<Vec<LpValue>, &'static str> {
        // A value is a tag byte and a word.
        let n = r.count(9)?;
        (0..n).map(|_| get_value(r)).collect()
    };
    let globals = values(&mut r).map_err(corrupt)?;
    // A frame is at least its two slot counts.
    let nframes = r.count(16).map_err(corrupt)?;
    let mut frames = Vec::with_capacity(nframes);
    for _ in 0..nframes {
        let args = values(&mut r).map_err(corrupt)?;
        let locals = values(&mut r).map_err(corrupt)?;
        frames.push((args, locals));
    }
    let naddrs = r.count(12).map_err(corrupt)?;
    let mut addrs = FxHashMap::with_capacity_and_hasher(naddrs, Default::default());
    for _ in 0..naddrs {
        let id = r.u32().map_err(corrupt)?;
        let addr = r.u64().map_err(corrupt)?;
        if addrs.insert(id, addr).is_some() {
            return Err(corrupt("duplicate driver address"));
        }
    }
    let next_addr = r.counter().map_err(corrupt)?;
    let access_hits = r.counter().map_err(corrupt)?;
    let access_misses = r.counter().map_err(corrupt)?;
    let prims = r.counter().map_err(corrupt)?;
    r.expect_end().map_err(corrupt)?;
    let slots = frames.iter().flat_map(|(a, l)| a.iter().chain(l));
    lp.check_roots(tos.iter().chain(&globals).chain(slots).copied())?;
    let wrap = |vs: Vec<LpValue>| -> Vec<Rooted> {
        vs.into_iter()
            .map(|v| lp.resume_root(v, RootKind::Binding))
            .collect()
    };
    let tos = tos.map(|v| lp.resume_root(v, RootKind::Binding));
    let globals = wrap(globals);
    let frames = frames
        .into_iter()
        .map(|(args, locals)| FrameSim {
            args: wrap(args),
            locals: wrap(locals),
        })
        .collect();
    Ok((
        Driver {
            trace,
            np_pool: crate::clark::np_pool(&trace.uids),
            params,
            lp,
            rng: StdRng::from_state(rng_state),
            frames,
            globals,
            tos,
            cache: None,
            addrs,
            next_addr,
            access_hits,
            access_misses,
        },
        prims,
    ))
}

fn export_checkpoint(d: &DurableDriver<'_>, event_index: u64, prims: u64) -> Vec<u8> {
    encode_checkpoint(&Checkpoint {
        event_index,
        journal_seq: d.lp.sink().next_seq(),
        lp: d.lp.export_image(),
        controller: d.lp.controller.export_image(),
        driver: encode_driver(d, prims),
    })
}

/// Post-recovery consistency gate: the restored table must pass
/// [`audit`](ListProcessor::audit) — the pure invariant check — before
/// any replay happens.
///
/// [`reconcile`](ListProcessor::reconcile) is deliberately *not* run
/// here: a reference-counting machine legitimately retains cyclic
/// garbage (unreachable from any root, kept live by its own internal
/// counts) until a true overflow collects it, and reconcile's
/// mark-from-roots pass would sweep those cycles. That is a repair on
/// a perfectly legal state — it would diverge the recovered machine
/// from the uninterrupted run and break digest verification. Reconcile
/// stays the *repair* tool for tables that fail the audit; recovery of
/// a valid store must be observation-only.
fn recovery_gate(d: &DurableDriver<'_>) -> Result<(), PersistError> {
    if !d.lp.audit().is_clean() {
        return Err(PersistError::CorruptCheckpoint(
            "restored table fails audit",
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The resumable run
// ---------------------------------------------------------------------

fn finish(
    d: DurableDriver<'_>,
    true_overflow: bool,
    prims: usize,
    failure: Option<String>,
) -> SimResult {
    let result = SimResult {
        name: d.trace.name.clone(),
        lpt: d.lp.stats(),
        heap: d.lp.controller.stats(),
        access_hits: d.access_hits,
        access_misses: d.access_misses,
        cache_hits: 0,
        cache_misses: 0,
        true_overflow,
        failure,
        prims_executed: prims,
    };
    d.teardown();
    result
}

/// Run (or crash-recover and resume) a durable simulation over `store`.
///
/// * **Empty store** — a fresh run: the machine is seeded, an initial
///   checkpoint installed, and every trace event's operations are
///   journaled as one group-committed frame. Every
///   [`SimParams::checkpoint_every`] events the journal is rotated into
///   a fresh checkpoint; a final checkpoint always closes the run, so
///   two runs that end in equal machine states leave byte-identical
///   store contents.
/// * **Non-empty store** — recovery: the checkpoint is validated and
///   loaded (fail-closed on any damage), the journal's torn tail is
///   truncated, the restored machine passes the `audit`/`reconcile`
///   gate, and the trace is re-executed from the checkpoint with every
///   replayed operation verified against the journaled digests before
///   live (journaling) execution resumes.
///
/// An injected crash (a [`CrashStore`] plan) surfaces as
/// [`PersistError::Crash`]; the store then holds exactly the bytes a
/// real power loss would have left, and calling this function again
/// (with the plan disarmed) recovers and completes the run.
///
/// The `trace` and `params` must be the ones the store was written
/// with — determinism is the redo log, so a mismatch is detected as
/// replay divergence rather than silently blended into the recovered
/// state. A run that ended in a true overflow or a typed LP failure is
/// checkpointed at its abort point; re-invoking on such a store resumes
/// the trace past that point and is not generally meaningful.
pub fn run_sim_resumable(
    trace: &Trace,
    params: SimParams,
    store: &mut CrashStore,
) -> Result<SimResult, PersistError> {
    let (mut d, mut prims, start, journaled) = match store.checkpoint() {
        None => {
            // Fresh run: build, seed, install the initial checkpoint.
            let lp = ListProcessor::with_sink(
                TwoPointerController::new(params.heap_cells, 256),
                lp_config(&params),
                JournalSink::new(NoopSink, 0),
            );
            let mut d = Driver {
                trace,
                np_pool: crate::clark::np_pool(&trace.uids),
                params,
                lp,
                rng: StdRng::seed_from_u64(params.seed),
                frames: Vec::new(),
                globals: Vec::new(),
                tos: None,
                cache: None,
                addrs: FxHashMap::default(),
                next_addr: 0,
                access_hits: 0,
                access_misses: 0,
            };
            match d.seed_globals() {
                Ok(()) => {}
                Err(LpError::TrueOverflow) => return Ok(finish(d, true, 0, None)),
                Err(e) => {
                    let msg = e.to_string();
                    return Ok(finish(d, false, 0, Some(msg)));
                }
            }
            // Seeding precedes the durability epoch: its effects are
            // folded into the initial checkpoint, not the journal.
            d.lp.drain_unroots();
            let _ = d.lp.sink_mut().take_batch(0);
            store.install_checkpoint(export_checkpoint(&d, 0, 0));
            (d, 0usize, 0usize, Vec::new())
        }
        Some(bytes) => {
            // Recovery: validate the checkpoint, truncate the torn
            // journal tail, rebuild the machine, gate on consistency.
            let ckpt = decode_checkpoint(bytes)?;
            let (batches, valid) = scan_journal(store.journal())?;
            store.truncate_journal(valid);
            let controller = TwoPointerController::import_image(&ckpt.controller)?;
            if controller.heap().capacity() != params.heap_cells {
                return Err(PersistError::CorruptCheckpoint(
                    "heap capacity differs from the run's parameters",
                ));
            }
            let lp = ListProcessor::from_image(
                controller,
                lp_config(&params),
                &ckpt.lp,
                JournalSink::new(NoopSink, ckpt.journal_seq),
            )?;
            let (d, prims) = decode_driver(trace, params, lp, &ckpt.driver)?;
            recovery_gate(&d)?;
            if ckpt.event_index > trace.events.len() as u64 {
                return Err(PersistError::CorruptCheckpoint("event index past trace"));
            }
            (d, prims as usize, ckpt.event_index as usize, batches)
        }
    };

    let mut batches = journaled.iter().peekable();
    let mut i = start;
    while i < trace.events.len() {
        let mode = match batches.peek() {
            Some(b) if (i as u64) == b.event_index => Mode::ReplayVerify(batches.next().unwrap()),
            Some(b) if (i as u64) > b.event_index => {
                return Err(PersistError::CorruptJournal {
                    offset: 0,
                    reason: "journal batches out of order",
                });
            }
            Some(_) => Mode::ReplayQuiet,
            None => Mode::Live,
        };
        let replaying = !matches!(mode, Mode::Live);
        let abort = step_boundary(&mut d, &mut prims, i, store, mode)?;
        i += 1;
        if let Some((true_overflow, failure)) = abort {
            store.rotate(export_checkpoint(&d, i as u64, prims as u64));
            return Ok(finish(d, true_overflow, prims, failure));
        }
        // Periodic rotation — but never while durable frames remain to
        // be replayed: rotating would discard them from the store.
        if params.checkpoint_every > 0
            && (i as u64).is_multiple_of(params.checkpoint_every)
            && !(replaying && batches.peek().is_some())
        {
            store.rotate(export_checkpoint(&d, i as u64, prims as u64));
        }
    }
    if batches.next().is_some() {
        return Err(PersistError::CorruptJournal {
            offset: 0,
            reason: "journal batches past end of trace",
        });
    }
    let bytes = export_checkpoint(&d, i as u64, prims as u64);
    store.rotate(bytes);
    Ok(finish(d, false, prims, None))
}

enum Mode<'b> {
    Live,
    ReplayQuiet,
    ReplayVerify(&'b JournalBatch),
}

/// Execute trace event `i` and commit (live) or verify (replay) its
/// journal batch. The unroot queue is drained before the batch is
/// taken so every event boundary is also a valid checkpoint boundary.
/// A run-ending LP condition is returned as `Ok(Some(abort))` after
/// its partial batch is committed/verified — deterministic
/// re-execution reproduces the same abort during replay.
fn step_boundary(
    d: &mut DurableDriver<'_>,
    prims: &mut usize,
    i: usize,
    store: &mut CrashStore,
    mode: Mode<'_>,
) -> Result<Option<Abort>, PersistError> {
    let ev = &d.trace.events[i];
    let abort = match d.step(ev, prims) {
        Ok(()) => None,
        Err(LpError::TrueOverflow) => Some((true, None)),
        Err(e) => Some((false, Some(e.to_string()))),
    };
    d.lp.drain_unroots();
    let produced = d.lp.sink_mut().take_batch(i as u64);
    match (mode, produced) {
        (Mode::Live, Some(batch)) => store.append_journal(&encode_frame(&batch))?,
        (Mode::Live, None) => {}
        (Mode::ReplayQuiet, None) => {}
        (Mode::ReplayQuiet, Some(batch)) => {
            return Err(PersistError::ReplayDivergence {
                seq: batch.records.first().map_or(0, |r| r.seq),
                expected: 0,
                actual: batch.records.len() as u64,
            });
        }
        (Mode::ReplayVerify(journaled), Some(batch)) => verify_batch(journaled, &batch)?,
        (Mode::ReplayVerify(journaled), None) => {
            return Err(PersistError::ReplayDivergence {
                seq: journaled.records.first().map_or(0, |r| r.seq),
                expected: journaled.records.len() as u64,
                actual: 0,
            });
        }
    }
    Ok(abort)
}

#[cfg(test)]
mod tests {
    use super::*;
    use small_persist::CrashPlan;
    use small_workloads::synthetic;

    fn trace() -> Trace {
        let mut p = synthetic::table_5_1("slang");
        p.primitives = 300;
        p.functions = 80;
        synthetic::generate(&p)
    }

    fn params() -> SimParams {
        // A small backing heap keeps checkpoint images (which embed the
        // whole arena) cheap; these workloads use a few thousand cells.
        SimParams {
            heap_cells: 1 << 14,
            ..SimParams::default()
        }
        .with_table(512)
        .with_checkpoint_every(64)
    }

    #[test]
    fn durable_run_matches_plain_run_and_is_byte_identical() {
        let t = trace();
        let plain = crate::run_sim(&t, params(), None);
        let mut s1 = CrashStore::new();
        let r1 = run_sim_resumable(&t, params(), &mut s1).unwrap();
        let mut s2 = CrashStore::new();
        let r2 = run_sim_resumable(&t, params(), &mut s2).unwrap();
        // The journal sink only observes. The durable path additionally
        // drains deferred releases at every event boundary (checkpoints
        // need settled state), so the tail releases the plain run leaves
        // queued at exit are processed here: refops/frees run slightly
        // ahead, while the allocation and access streams are identical.
        assert_eq!(plain.lpt.gets, r1.lpt.gets);
        assert_eq!(plain.lpt.hits, r1.lpt.hits);
        assert_eq!(plain.lpt.misses, r1.lpt.misses);
        assert_eq!(plain.lpt.max_occupancy, r1.lpt.max_occupancy);
        assert_eq!(plain.lpt.occupancy_sum, r1.lpt.occupancy_sum);
        assert_eq!(plain.access_misses, r1.access_misses);
        assert_eq!(plain.access_hits, r1.access_hits);
        assert!(plain.lpt.refops <= r1.lpt.refops);
        assert_eq!(r1.prims_executed, 300);
        assert!(!r1.true_overflow && r1.failure.is_none());
        // Double-run byte identity of the final store.
        assert_eq!(s1.checkpoint().unwrap(), s2.checkpoint().unwrap());
        assert!(s1.journal().is_empty() && s2.journal().is_empty());
        assert_eq!(r1.lpt, r2.lpt);
    }

    #[test]
    fn reinvoking_a_completed_store_reproduces_the_run() {
        let t = trace();
        let mut s = CrashStore::new();
        let a = run_sim_resumable(&t, params(), &mut s).unwrap();
        let before = s.checkpoint().unwrap().to_vec();
        let b = run_sim_resumable(&t, params(), &mut s).unwrap();
        assert_eq!(a.lpt, b.lpt);
        assert_eq!(a.prims_executed, b.prims_executed);
        assert_eq!(before.as_slice(), s.checkpoint().unwrap());
    }

    #[test]
    fn crash_recover_resume_matches_uninterrupted() {
        let t = trace();
        let mut base = CrashStore::new();
        let clean = run_sim_resumable(&t, params(), &mut base).unwrap();
        for (kill, torn) in [(1, None), (5, Some(3)), (17, None), (40, Some(0))] {
            let mut s = CrashStore::with_plan(CrashPlan {
                kill_at_append: kill,
                torn_keep: torn,
            });
            let err = run_sim_resumable(&t, params(), &mut s).unwrap_err();
            assert!(matches!(err, PersistError::Crash { .. }), "kill {kill}");
            s.disarm();
            let r = run_sim_resumable(&t, params(), &mut s).unwrap();
            assert_eq!(clean.lpt, r.lpt, "kill {kill}");
            assert_eq!(clean.access_misses, r.access_misses, "kill {kill}");
            assert_eq!(clean.prims_executed, r.prims_executed, "kill {kill}");
            assert_eq!(
                base.checkpoint().unwrap(),
                s.checkpoint().unwrap(),
                "final store diverges after kill {kill}"
            );
            assert!(s.journal().is_empty());
        }
    }

    #[test]
    fn corrupted_journal_fails_closed() {
        let t = trace();
        // checkpoint_every 0: the journal holds every frame at crash time.
        let p = params().with_checkpoint_every(0);
        let mut s = CrashStore::with_plan(CrashPlan {
            kill_at_append: 5,
            torn_keep: None,
        });
        run_sim_resumable(&t, p, &mut s).unwrap_err();
        s.disarm();
        assert!(!s.journal().is_empty());
        // Flip a payload byte of the first complete frame: the CRC must
        // catch it and recovery must refuse to proceed.
        s.flip_journal_byte(8);
        let err = run_sim_resumable(&t, p, &mut s).unwrap_err();
        assert!(
            matches!(err, PersistError::CorruptJournal { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn truncated_checkpoint_fails_closed() {
        let t = trace();
        let p = params().with_checkpoint_every(0);
        let mut s = CrashStore::with_plan(CrashPlan {
            kill_at_append: 5,
            torn_keep: None,
        });
        run_sim_resumable(&t, p, &mut s).unwrap_err();
        s.disarm();
        let len = s.checkpoint().unwrap().len();
        s.truncate_checkpoint(len / 2);
        let err = run_sim_resumable(&t, p, &mut s).unwrap_err();
        assert!(
            matches!(err, PersistError::CorruptCheckpoint(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn mismatched_parameters_surface_as_divergence() {
        let t = trace();
        let p = params().with_checkpoint_every(0);
        let mut s = CrashStore::with_plan(CrashPlan {
            kill_at_append: 20,
            torn_keep: None,
        });
        run_sim_resumable(&t, p, &mut s).unwrap_err();
        s.disarm();
        // Recovering under a different decrement policy re-executes the
        // trace differently; the digest gate must refuse the blend.
        let wrong = SimParams {
            decrement: small_core::DecrementPolicy::Recursive,
            ..p
        };
        let err = run_sim_resumable(&t, wrong, &mut s).unwrap_err();
        assert!(
            matches!(err, PersistError::ReplayDivergence { .. }),
            "got {err:?}"
        );
    }
}
