//! Golden checkpoint bytes. Checkpoints are an on-disk and on-the-wire
//! format, so the encoder and its CRC-32 may get faster but must never
//! change a byte within a format version. Each golden pins the length
//! and the FNV-1a-64 digest of one encoding: a serving session's
//! suspend blob, and the simulator's final durable-run checkpoint.
//!
//! Version 3 writes plain free LPT entries as their free-list order and
//! every other entry in full with its id; version 2 writes every entry
//! in full, and only the allocated part of the heap. The older goldens
//! stay as decode tests: [`to_v2`] and [`to_v1`] rebuild a version-2 or
//! version-1 image from a version-3 one the way those versions exported
//! it (the library only writes version 3), each must hash to its old
//! fingerprint, and resuming it must behave exactly like resuming the
//! version-3 image, allocation order included.
//!
//! Decoding fails closed on arbitrary bytes: a proptest damages session
//! and simulator images of all three versions and re-seals their CRC,
//! and each must then either resume to a machine that runs on without a
//! panic or be refused with a typed error. Neither may allocate more
//! than 8 times its bytes, or what a clean run with the same
//! configuration allocates anyway. It runs 48 cases in a debug build
//! and 4000 in a release build, where arena access is unchecked.

use proptest::prelude::*;
use small_repro::heap::{HeapAddr, ImageError, Word};
use small_repro::persist::{
    crc32, decode_checkpoint, digest_bytes, encode_checkpoint, CrashPlan, CrashStore, PersistError,
    DIGEST_SEED,
};
use small_repro::serve::protocol::StatsBody;
use small_repro::serve::{Reply, ServeConfig, Session};
use small_repro::simulator::{run_sim_resumable, SimParams};
use small_repro::small::FieldImage;
use small_repro::workloads::synthetic;
use std::sync::OnceLock;

#[path = "../crates/serve/tests/peak_alloc/mod.rs"]
mod peak_alloc;
use peak_alloc::PEAK;

fn fingerprint(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), digest_bytes(DIGEST_SEED, bytes))
}

/// Byte offset, in a version-3 checkpoint, of its LP section's entry
/// counts: behind the 24-byte header and the two progress counters, and
/// the table size.
const V3_COUNTS: usize = 24 + 16 + 8;

fn word_at(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

/// Byte offset, in a checkpoint of any version, of what follows the LP
/// entries: the free head.
fn entries_end(bytes: &[u8]) -> usize {
    if bytes[8..12] == 3u32.to_le_bytes() {
        let (full, order) = (word_at(bytes, V3_COUNTS), word_at(bytes, V3_COUNTS + 8));
        V3_COUNTS + 16 + 35 * full + 4 * order
    } else {
        V3_COUNTS + 8 + 31 * word_at(bytes, V3_COUNTS)
    }
}

/// The dense encoding of a version-3 checkpoint, as versions 1 and 2
/// wrote its LP section: the entry count, then every entry in full and
/// in id order, with no ids and no free order, behind a `version`
/// header. Everything else is the same bytes.
fn to_dense(v3: &[u8], version: u32) -> Vec<u8> {
    let lp = decode_checkpoint(v3).expect("decodes").lp;
    let mut b = v3[..V3_COUNTS].to_vec();
    b[8..12].copy_from_slice(&version.to_le_bytes());
    b.extend_from_slice(&(lp.entries.len() as u64).to_le_bytes());
    let opt = |v: Option<u32>| v.unwrap_or(u32::MAX).to_le_bytes();
    for e in &lp.entries {
        for f in [e.car, e.cdr] {
            let (tag, payload) = match f {
                FieldImage::Empty => (0u8, 0),
                FieldImage::Atom(bits) => (1, bits),
                FieldImage::Obj(id) => (2, u64::from(id)),
            };
            b.push(tag);
            b.extend_from_slice(&payload.to_le_bytes());
        }
        b.extend_from_slice(&e.rc.to_le_bytes());
        b.extend_from_slice(&opt(e.addr));
        b.extend_from_slice(&opt(e.free_next));
        b.push(e.stack_bit as u8 | (e.live as u8) << 1 | (e.lazy as u8) << 2);
    }
    b.extend_from_slice(&v3[entries_end(v3)..]);
    reseal(&mut b);
    b
}

/// The version-2 encoding of a version-3 checkpoint.
fn to_v2(v3: &[u8]) -> Vec<u8> {
    to_dense(v3, 2)
}

/// The version-1 encoding of a version-3 checkpoint: dense, with the
/// two-pointer heap exported the way version 1 did, its arena threaded
/// eagerly to the last cell (virgin cell `i` links to `i + 1`, the last
/// to none) and no frontier scalar. An image already at `frontier ==
/// capacity` only loses its frontier scalar.
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
    to_dense(&encode_checkpoint(&ckpt), 1)
}

/// The two-pointer heap scalars of a checkpoint: `[free_head, live,
/// capacity, allocs, frees, high_water]`, then the frontier from
/// version 2 on.
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
    assert_eq!(fingerprint(&blob), (3_578, 0x2c57_dff5_d3e6_b04f));
    assert_eq!(fingerprint(&to_v2(&blob)), (17_239, 0x4ec3_3eda_6a49_491a));
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
fn session_v1_and_v2_blobs_resume_like_v3() {
    let cfg = ServeConfig::default();
    let spill = |s: &mut Session| -> Vec<String> {
        SPILL_SCRIPT
            .iter()
            .map(|p| s.eval(&format!("{LIB} {p}")).encode())
            .collect()
    };
    let mut s = golden_session(&cfg);
    spill(&mut s);
    let v3 = s.suspend();
    // The explicit free list is not empty.
    let at_suspend = heap(&v3);
    assert!(at_suspend[0] < at_suspend[6], "{at_suspend:?}");
    let (v1, v2) = (to_v1(&v3), to_v2(&v3));
    assert_eq!(&v1[8..12], &1u32.to_le_bytes());
    assert_eq!(&v2[8..12], &2u32.to_le_bytes());
    let run = |mut s: Session| {
        let replies = spill(&mut s);
        let ledger = s.ledger_reply().encode();
        let digest = s.digest_reply().encode();
        (replies, ledger, digest, s.suspend())
    };
    let resume = |blob: &[u8]| Session::resume(3, &cfg, blob).expect("resume");
    let (a, b, c) = (run(resume(&v1)), run(resume(&v2)), run(resume(&v3)));
    assert!(c.0.iter().all(|r| r.starts_with("(ok value")), "{:?}", c.0);
    for old in [&a, &b] {
        assert_eq!(old.0, c.0, "replies");
        assert_eq!(old.1, c.1, "ledger");
        assert_eq!(old.2, c.2, "digest");
    }
    // A version-1 heap has no frontier, so its next image matches only
    // in the version-1 form.
    assert!(
        to_v1(&a.3) == to_v1(&c.3),
        "the next exported images differ"
    );
    assert!(b.3 == c.3, "the next exported images differ");
    // All three also match the session that was never suspended.
    let mut resident = golden_session(&cfg);
    spill(&mut resident);
    assert!(run(resident) == c, "suspending changed the session");
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
    assert_eq!(fingerprint(ckpt), (9_187, 0xdd38_1b69_8ce1_05e4));
    assert_eq!(fingerprint(&to_v2(ckpt)), (11_426, 0xd0fe_8691_dd31_8efa));
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
fn simulator_v1_and_v2_checkpoints_recover_like_v3() {
    let (trace, params) = simulator_run();
    let params = params.with_checkpoint_every(16);
    let mut v3 = crashed_store(&trace, params);
    let at_crash = heap(v3.checkpoint().unwrap());
    assert!(at_crash[6] < at_crash[2], "{at_crash:?}");
    let (mut v1, mut v2) = (v3.clone(), v3.clone());
    v1.install_checkpoint(to_v1(v3.checkpoint().unwrap()));
    v2.install_checkpoint(to_v2(v3.checkpoint().unwrap()));
    let a = run_sim_resumable(&trace, params, &mut v1).expect("v1 recovery");
    let b = run_sim_resumable(&trace, params, &mut v2).expect("v2 recovery");
    let c = run_sim_resumable(&trace, params, &mut v3).expect("v3 recovery");
    assert!(!c.true_overflow && c.failure.is_none());
    assert_eq!(format!("{a:?}"), format!("{c:?}"));
    assert_eq!(format!("{b:?}"), format!("{c:?}"));
    let (a, b, c) = (
        v1.checkpoint().unwrap(),
        v2.checkpoint().unwrap(),
        v3.checkpoint().unwrap(),
    );
    assert!(to_v1(a) == to_v1(c), "the next exported images differ");
    assert!(b == c, "the next exported images differ");
    let free = at_crash[6] - at_crash[1];
    assert!(
        heap(c)[3] > at_crash[3] + free,
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

/// Byte offsets, in an encoded checkpoint, of the retired overflow-mode
/// byte and of the first LPT stats word: behind the entries come the
/// free head and tail and `live`; behind the retired byte, the two
/// counted vectors and then the 20 stats words.
fn retired_offsets(bytes: &[u8]) -> (usize, usize) {
    let lp = decode_checkpoint(bytes).unwrap().lp;
    let retired = entries_end(bytes) + 4 + 4 + 8;
    let stats = retired + 1 + 8 + 8 * lp.ep_counts.len() + 8 + 8 * lp.recent_overflows.len();
    (retired, stats)
}

/// The slots the removed §4.3.2.3 overflow mode used stay zero, and
/// every decoder refuses a non-zero one with a typed error: the
/// checkpoint's overflow-mode byte and stats words 17–19 (session and
/// simulator images of all three versions), the session's event-count words
/// 20–21, an EP root that is a pointer atom, and the wire ledger's and
/// stats reply's retired words.
#[test]
fn retired_overflow_mode_slots_fail_closed() {
    let all = images();
    for (session, image) in &all.images {
        let (retired, stats) = retired_offsets(image);
        assert_eq!(image[retired], 0);
        let mut damaged = vec![image.clone()];
        damaged[0][retired] = 1;
        for k in 17..20 {
            let at = stats + 8 * k;
            assert_eq!(image[at..at + 8], [0; 8]);
            let mut m = image.clone();
            m[at] = 1;
            damaged.push(m);
        }
        for (k, mut m) in damaged.into_iter().enumerate() {
            reseal(&mut m);
            let want = if k == 0 {
                "image taken in the removed overflow mode"
            } else {
                "stats field overflow or retired word set"
            };
            let err = Some(PersistError::CorruptCheckpoint(want));
            assert_eq!(decode_checkpoint(&m).err(), err);
            if *session {
                let cfg = ServeConfig::default();
                assert_eq!(Session::resume(3, &cfg, &m).err(), err);
            } else {
                let mut store = CrashStore::new();
                store.install_checkpoint(m);
                let r = run_sim_resumable(&all.trace, all.params, &mut store);
                assert_eq!(r.err(), err);
            }
        }
    }

    // A session's driver section carries two progress words, then the
    // 22 event-count words.
    let session = &all.images[2].1;
    for k in 20..22 {
        let mut ckpt = decode_checkpoint(session).unwrap();
        let at = 16 + 8 * k;
        assert_eq!(ckpt.driver[at..at + 8], [0; 8]);
        ckpt.driver[at] = 1;
        let r = Session::resume(3, &ServeConfig::default(), &encode_checkpoint(&ckpt));
        assert_eq!(
            r.err(),
            Some(PersistError::CorruptCheckpoint(
                "retired event-count word is non-zero"
            ))
        );
    }

    // The simulator's driver section: four RNG words, then the TOS
    // flag and value (a tag byte and a word). A TOS that is a pointer
    // atom, even to a cell the heap holds, is refused.
    for (_, image) in all.images.iter().filter(|(session, _)| !session) {
        let mut ckpt = decode_checkpoint(image).unwrap();
        let held = ckpt.lp.entries.iter().find_map(|e| e.addr).unwrap();
        let old_tos = if ckpt.driver[32] == 1 { 10 } else { 1 };
        let mut driver = ckpt.driver[..32].to_vec();
        driver.extend_from_slice(&[1, 0]);
        driver.extend_from_slice(&Word::ptr(HeapAddr(held)).bits().to_le_bytes());
        driver.extend_from_slice(&ckpt.driver[32 + old_tos..]);
        ckpt.driver = driver;
        let mut store = CrashStore::new();
        store.install_checkpoint(encode_checkpoint(&ckpt));
        assert_eq!(
            run_sim_resumable(&all.trace, all.params, &mut store).err(),
            Some(PersistError::MalformedImage(ImageError::Malformed))
        );
    }

    // The wire: a ledger or stats reply with a retired word set does
    // not decode.
    let ledger = golden_session(&ServeConfig::default())
        .ledger_reply()
        .encode();
    let stats = Reply::Stats(Box::new(StatsBody {
        sessions: 1,
        evictions: 0,
        resumes: 0,
        requests: 9,
        counts: [0; 22],
    }))
    .encode();
    for (text, slot) in [
        (&ledger, "(overflow-entries 0)"),
        (&ledger, "(overflow-exits 0)"),
        (&ledger, "(heap-direct-ops 0)"),
        (&stats, "(overflow-mode-entries 0)"),
        (&stats, "(overflow-mode-exits 0)"),
    ] {
        assert!(Reply::decode(text).is_some(), "{text}");
        let set = slot.replace(" 0)", " 1)");
        assert_eq!(Reply::decode(&text.replace(slot, &set)), None, "{set}");
    }
}

/// Session and simulator images of all three versions, each holding a
/// heap with live cells and a non-empty free list, and last the golden
/// session's small version-3 image, whose table is mostly free order.
struct Images {
    trace: small_repro::trace::Trace,
    params: SimParams,
    /// `(is_session, bytes)`.
    images: Vec<(bool, Vec<u8>)>,
    /// The largest allocation a clean simulator recovery makes: the
    /// machine and trace bookkeeping it sizes from its parameters.
    sim_peak: usize,
    /// The largest allocation a clean resume of the small session image
    /// makes: the table that `ServeConfig` sizes, which is more than 8
    /// times that image's bytes.
    session_peak: usize,
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
        let small = golden_session(&cfg).suspend();
        PEAK.set(0);
        Session::resume(3, &cfg, &small).expect("resume");
        let session_peak = PEAK.get();
        let images = vec![
            (true, to_v1(&session)),
            (true, to_v2(&session)),
            (true, session),
            (false, to_v1(&sim)),
            (false, to_v2(&sim)),
            (false, sim),
            (true, small),
        ];
        Images {
            trace,
            params,
            images,
            sim_peak,
            session_peak,
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
        which in 0usize..7,
        other in 1usize..7,
        kind in 0u8..4,
        r in (any::<u64>(), any::<u64>()),
    ) {
        let all = images();
        let (session, ours) = &all.images[which];
        let theirs = &all.images[(which + other) % 7].1;
        let m = mutate(ours, theirs, kind, r);
        // Decoding and restoring may allocate in proportion to the
        // bytes, never to a count the bytes claim.
        let bound = 8 * m.len();
        if *session {
            let cfg = ServeConfig::default();
            PEAK.set(0);
            let resumed = Session::resume(3, &cfg, &m);
            let peak = PEAK.get();
            let bound = bound.max(all.session_peak);
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
