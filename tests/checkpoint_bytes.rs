//! Golden checkpoint bytes. Checkpoints are an on-disk and on-the-wire
//! format, so the encoder and its CRC-32 may get faster but must never
//! change a byte within a format version. Each golden pins the length
//! and the FNV-1a-64 digest of one encoding: a serving session's
//! suspend blob, and the simulator's final durable-run checkpoint.
//!
//! Version 2 writes only the allocated part of the heap. The version-1
//! goldens stay as decode tests: [`to_v1`] rebuilds a version-1 image
//! from a version-2 one the way version 1 exported it, that image must
//! hash to the old fingerprint, and resuming it must behave exactly
//! like resuming the version-2 image, allocation order included.
//!
//! Decoding fails closed on arbitrary bytes: a proptest damages session
//! and simulator images of both versions and re-seals their CRC, and
//! each must then either resume to a machine that runs on without a
//! panic or be refused with a typed error. It runs 48 cases in a
//! debug build and 4000 in a release build, where arena access is
//! unchecked.

use proptest::prelude::*;
use small_repro::heap::{HeapAddr, Word};
use small_repro::persist::{
    crc32, decode_checkpoint, digest_bytes, encode_checkpoint, CrashPlan, CrashStore, PersistError,
    DIGEST_SEED,
};
use small_repro::serve::{ServeConfig, Session};
use small_repro::simulator::{run_sim_resumable, SimParams};
use small_repro::workloads::synthetic;
use std::sync::OnceLock;

#[path = "../crates/serve/tests/peak_alloc/mod.rs"]
mod peak_alloc;
use peak_alloc::PEAK;

fn fingerprint(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), digest_bytes(DIGEST_SEED, bytes))
}

/// The version-1 encoding of a checkpoint: the two-pointer heap
/// exported the way version 1 did, with its arena threaded eagerly to
/// the last cell (virgin cell `i` links to `i + 1`, the last to none)
/// and no frontier scalar, behind a version-1 header. An image already
/// at `frontier == capacity` only loses its frontier scalar.
fn to_v1(bytes: &[u8]) -> Vec<u8> {
    let mut ckpt = decode_checkpoint(bytes).expect("decodes");
    let sections = &mut ckpt.controller.sections;
    let heap = &mut sections.iter_mut().find(|(n, _)| *n == "heap").unwrap().1;
    let capacity = heap[2] as usize;
    let frontier = heap.pop().expect("a version-2 heap carries its frontier") as usize;
    let arena = &mut sections.iter_mut().find(|(n, _)| *n == "arena").unwrap().1;
    assert_eq!(arena.len(), 2 * frontier);
    arena.resize(capacity * 2, 0);
    for i in frontier..capacity {
        let next = (i + 1 < capacity).then(|| HeapAddr((i + 1) as u32));
        arena[2 * i] = Word::free_link(next).bits();
        arena[2 * i + 1] = Word::UNUSED.bits();
    }
    let mut v1 = encode_checkpoint(&ckpt);
    // The CRC covers the payload only, so the header version is free.
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    v1
}

/// The two-pointer heap scalars of a checkpoint: `[free_head, live,
/// capacity, allocs, frees, high_water]`, then the frontier in
/// version 2.
fn heap(bytes: &[u8]) -> Vec<u64> {
    let ckpt = decode_checkpoint(bytes).unwrap();
    ckpt.controller.section("heap").unwrap().to_vec()
}

/// The golden session: a few globals, a typed error, two sequenced
/// requests.
fn golden_session(cfg: &ServeConfig) -> Session {
    let mut s = Session::new(3, cfg);
    for src in [
        "(setq acc (cons 1 (cons 2 (cons 3 nil))))",
        "(setq n 5)",
        "(setq tag (quote done))",
        "(setq acc (cons n acc))",
        "(car 5)",
    ] {
        s.eval(src);
    }
    s.eval_seq(0, "(setq m (cons n nil))");
    s.eval_seq(1, "(add n 1)");
    s
}

#[test]
fn session_suspend_blob_is_pinned() {
    let blob = golden_session(&ServeConfig::default()).suspend();
    assert_eq!(fingerprint(&blob), (17_239, 0x4ec3_3eda_6a49_491a));
    assert_eq!(fingerprint(&to_v1(&blob)), (279_375, 0x461d_3042_b6d3_8f55));
}

/// Functions live only as long as the request that defines them.
const LIB: &str =
    "(def iota (lambda (n acc) (cond ((lessp n 1) acc) (t (iota (sub n 1) (cons n acc)))))) \
(def len (lambda (a) (cond ((null a) 0) (t (add 1 (len (cdr a)))))))";

/// Keeps about 600 cells live against the 512-entry table, so the LP
/// spills into the heap and allocates past the suspended frontier.
const SPILL_SCRIPT: &[&str] = &[
    "(setq a (iota 200 nil))",
    "(setq b (iota 230 acc))",
    "(setq c (iota 180 nil))",
    "(add (len a) (add (len b) (len c)))",
    "(setq a (cons (car c) (cdr b)))",
    "(progn (setq b nil) (setq c nil) (len a))",
];

#[test]
fn session_v1_blob_resumes_like_v2() {
    let cfg = ServeConfig::default();
    let spill = |s: &mut Session| -> Vec<String> {
        SPILL_SCRIPT
            .iter()
            .map(|p| s.eval(&format!("{LIB} {p}")).encode())
            .collect()
    };
    let mut s = golden_session(&cfg);
    spill(&mut s);
    let v2 = s.suspend();
    // The explicit free list is not empty.
    let at_suspend = heap(&v2);
    assert!(at_suspend[0] < at_suspend[6], "{at_suspend:?}");
    let v1 = to_v1(&v2);
    assert_eq!(&v1[8..12], &1u32.to_le_bytes());
    let run = |mut s: Session| {
        let replies = spill(&mut s);
        let ledger = s.ledger_reply().encode();
        let digest = s.digest_reply().encode();
        (replies, ledger, digest, to_v1(&s.suspend()))
    };
    let resume = |blob: &[u8]| Session::resume(3, &cfg, blob).expect("resume");
    let (a, b) = (run(resume(&v1)), run(resume(&v2)));
    assert!(a.0.iter().all(|r| r.starts_with("(ok value")), "{:?}", a.0);
    assert_eq!(a.0, b.0, "replies");
    assert_eq!(a.1, b.1, "ledger");
    assert_eq!(a.2, b.2, "digest");
    assert!(a.3 == b.3, "the next exported images differ");
    // Both also match the session that was never suspended.
    let mut resident = golden_session(&cfg);
    spill(&mut resident);
    assert!(run(resident) == b, "suspending changed the session");
    // The script used up the free list and went on past the frontier.
    let free = at_suspend[6] - at_suspend[1];
    assert!(heap(&a.3)[3] > at_suspend[3] + free);
}

fn simulator_run() -> (small_repro::trace::Trace, SimParams) {
    let mut p = synthetic::table_5_1("slang");
    p.primitives = 400;
    p.functions = 100;
    let trace = synthetic::generate(&p);
    let params = SimParams {
        heap_cells: 1 << 12,
        ..SimParams::default()
    }
    .with_table(128);
    (trace, params)
}

#[test]
fn simulator_checkpoint_is_pinned() {
    let (trace, params) = simulator_run();
    let mut store = CrashStore::new();
    let r = run_sim_resumable(&trace, params, &mut store).expect("durable run");
    assert!(!r.true_overflow && r.failure.is_none());
    let ckpt = store.checkpoint().expect("final checkpoint");
    assert_eq!(fingerprint(ckpt), (11_426, 0xd0fe_8691_dd31_8efa));
    assert_eq!(fingerprint(&to_v1(ckpt)), (70_826, 0x0b8d_16e9_179b_6977));
}

/// A store the simulator crashed in mid-run, after a few checkpoint
/// rotations.
fn crashed_store(trace: &small_repro::trace::Trace, params: SimParams) -> CrashStore {
    let mut store = CrashStore::with_plan(CrashPlan {
        kill_at_append: 40,
        torn_keep: None,
    });
    assert!(matches!(
        run_sim_resumable(trace, params, &mut store),
        Err(PersistError::Crash { .. })
    ));
    store.disarm();
    store
}

#[test]
fn simulator_v1_checkpoint_recovers_like_v2() {
    let (trace, params) = simulator_run();
    let params = params.with_checkpoint_every(16);
    let mut v2 = crashed_store(&trace, params);
    let at_crash = heap(v2.checkpoint().unwrap());
    assert!(at_crash[6] < at_crash[2], "{at_crash:?}");
    let mut v1 = v2.clone();
    v1.install_checkpoint(to_v1(v2.checkpoint().unwrap()));
    let a = run_sim_resumable(&trace, params, &mut v1).expect("v1 recovery");
    let b = run_sim_resumable(&trace, params, &mut v2).expect("v2 recovery");
    assert!(!a.true_overflow && a.failure.is_none());
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    let (a, b) = (v1.checkpoint().unwrap(), v2.checkpoint().unwrap());
    assert!(to_v1(a) == to_v1(b), "the next exported images differ");
    let free = at_crash[6] - at_crash[1];
    assert!(
        heap(b)[3] > at_crash[3] + free,
        "recovery stayed below the frontier"
    );
}

/// A checkpoint whose heap claims 2^30 more cells than the run's
/// parameters build must not recover into a heap that may grow past
/// them.
#[test]
fn simulator_inflated_heap_capacity_fails_closed() {
    let (trace, params) = simulator_run();
    let params = params.with_checkpoint_every(16);
    let store = crashed_store(&trace, params);
    let mut ckpt = decode_checkpoint(store.checkpoint().unwrap()).unwrap();
    let heap = &mut ckpt
        .controller
        .sections
        .iter_mut()
        .find(|(n, _)| *n == "heap")
        .unwrap()
        .1;
    assert_eq!(heap[2], params.heap_cells as u64);
    heap[2] |= 1 << 30;
    let mut store = CrashStore::new();
    store.install_checkpoint(encode_checkpoint(&ckpt));
    assert_eq!(
        run_sim_resumable(&trace, params, &mut store).map(drop),
        Err(PersistError::CorruptCheckpoint(
            "heap capacity differs from the run's parameters"
        ))
    );
}

/// Session and simulator images of both versions, each holding a heap
/// with live cells and a non-empty free list.
struct Images {
    trace: small_repro::trace::Trace,
    params: SimParams,
    /// `(is_session, bytes)`.
    images: Vec<(bool, Vec<u8>)>,
    /// The largest allocation a clean simulator recovery makes: the
    /// machine and trace bookkeeping it sizes from its parameters.
    sim_peak: usize,
}

/// Recover the simulator from `checkpoint` with an empty journal and
/// run the rest of the trace; returns the largest allocation made.
fn recover_sim(trace: &small_repro::trace::Trace, params: SimParams, checkpoint: Vec<u8>) -> usize {
    let mut store = CrashStore::new();
    store.install_checkpoint(checkpoint);
    PEAK.set(0);
    let _ = run_sim_resumable(trace, params, &mut store);
    PEAK.get()
}

fn images() -> &'static Images {
    static IMAGES: OnceLock<Images> = OnceLock::new();
    IMAGES.get_or_init(|| {
        let cfg = ServeConfig::default();
        let mut s = golden_session(&cfg);
        for p in SPILL_SCRIPT {
            s.eval(&format!("{LIB} {p}"));
        }
        let session = s.suspend();
        let (trace, params) = simulator_run();
        let params = params.with_checkpoint_every(16);
        let sim = crashed_store(&trace, params).checkpoint().unwrap().to_vec();
        let sim_peak = recover_sim(&trace, params, to_v1(&sim));
        let images = vec![
            (true, to_v1(&session)),
            (true, session),
            (false, to_v1(&sim)),
            (false, sim),
        ];
        Images {
            trace,
            params,
            images,
            sim_peak,
        }
    })
}

/// Re-seal the envelope: the payload length and CRC match the bytes,
/// so damage reaches the decoder body instead of stopping at the CRC.
fn reseal(b: &mut [u8]) {
    if b.len() >= 24 {
        let len = (b.len() - 24) as u64;
        b[16..24].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&b[24..]);
        b[12..16].copy_from_slice(&crc.to_le_bytes());
    }
}

/// One damaged copy of `ours`: a bit flip, a truncation, a splice onto
/// the tail of `theirs`, or an inflated length field (any eight bytes
/// of the payload that read as a plausible length), re-sealed.
fn mutate(ours: &[u8], theirs: &[u8], kind: u8, (a, b): (u64, u64)) -> Vec<u8> {
    let mut m = ours.to_vec();
    let n = m.len();
    match kind {
        0 => {
            let bit = (a % (8 * n as u64)) as usize;
            m[bit / 8] ^= 1 << (bit % 8);
        }
        1 => m.truncate(a as usize % n),
        2 => {
            m.truncate(a as usize % n);
            m.extend_from_slice(&theirs[b as usize % theirs.len()..]);
        }
        _ => {
            let word = |o: usize| u64::from_le_bytes(m[o..o + 8].try_into().unwrap());
            let lengths: Vec<usize> = (24..n - 8)
                .filter(|&o| (1..=n as u64).contains(&word(o)))
                .collect();
            let at = lengths[a as usize % lengths.len()];
            let big = [u64::from(u32::MAX), u64::MAX, n as u64, word(at) + 1];
            m[at..at + 8].copy_from_slice(&big[b as usize % big.len()].to_le_bytes());
        }
    }
    reseal(&mut m);
    m
}

const MUTATION_CASES: u32 = if cfg!(debug_assertions) { 48 } else { 4000 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(MUTATION_CASES))]

    #[test]
    fn damaged_checkpoints_resume_cleanly_or_fail_closed(
        which in 0usize..4,
        other in 1usize..4,
        kind in 0u8..4,
        r in (any::<u64>(), any::<u64>()),
    ) {
        let all = images();
        let (session, ours) = &all.images[which];
        let theirs = &all.images[(which + other) % 4].1;
        let m = mutate(ours, theirs, kind, r);
        // Decoding and restoring may allocate in proportion to the
        // bytes, never to a count the bytes claim.
        let bound = 8 * m.len();
        if *session {
            let cfg = ServeConfig::default();
            PEAK.set(0);
            let resumed = Session::resume(3, &cfg, &m);
            let peak = PEAK.get();
            prop_assert!(peak <= bound, "{} bytes drove a {peak}-byte allocation", m.len());
            if let Ok(mut s) = resumed {
                // Spill into the heap, then touch every golden global.
                let script = ["(setq a (iota 150 acc))", "(len a)", "acc", "m", "tag", "(add n 1)"];
                for p in script {
                    s.eval(&format!("{LIB} {p}"));
                }
                s.close();
            }
        } else {
            let len = m.len();
            let peak = recover_sim(&all.trace, all.params, m);
            let bound = bound.max(all.sim_peak);
            prop_assert!(peak <= bound, "{len} bytes drove a {peak}-byte allocation");
        }
    }
}
