//! The one `[len|crc|payload]` frame scanner fails closed through both
//! callers: the durability journal (`small_persist::scan_journal`,
//! which drops a torn tail) and the replication WAL
//! (`small_serve::repl::decode_frames`, which rejects one). Valid
//! batches are truncated at every offset, hit by a bit flip, or spliced
//! together; each scan must return exactly the original frames before
//! the damage, then a torn tail (journal only) or a typed error at the
//! damage. No length field read from the input may size an allocation,
//! and neither may a word count inside a CRC-valid session checkpoint,
//! nor may a heap address inside one reach the arena unchecked.

use proptest::prelude::*;
use small_heap::ImageError;
use small_persist::{
    crc32, decode_checkpoint, encode_checkpoint, encode_frame, scan_journal, JournalBatch,
    JournalRecord, PersistError,
};
use small_serve::repl::{decode_frames, ReplError, WalOp, WalRecord};
use small_serve::{ServeConfig, Session, Wal};

mod peak_alloc;
use peak_alloc::PEAK;

/// Truncate `ours` at every offset, flip one of its bits, and splice it
/// with `theirs` (`ours[..i] ++ theirs[k..]`). Each scan must return the
/// original frames that open the input and stop where they end: less
/// than a header after them, or a length running past the end, is a
/// torn tail; anything else is a typed error at that offset.
fn damage<T: Clone + PartialEq + std::fmt::Debug>(
    ours: Vec<(Vec<u8>, T)>,
    theirs: Vec<(Vec<u8>, T)>,
    (bit, i, k): (u64, u64, u64),
    drops_torn_tail: bool,
    scan: impl Fn(&[u8]) -> Result<(Vec<T>, usize), (usize, &'static str)>,
) {
    let a: Vec<u8> = ours.iter().flat_map(|f| f.0.clone()).collect();
    let b: Vec<u8> = theirs.iter().flat_map(|f| f.0.clone()).collect();
    let mut flipped = a.clone();
    let bit = (bit % (8 * a.len() as u64)) as usize;
    flipped[bit / 8] ^= 1 << (bit % 8);
    let (i, k) = (i as usize % (a.len() + 1), k as usize % (b.len() + 1));
    let spliced = [&a[..i], &b[k..]].concat();
    let cuts = (0..=a.len()).map(|cut| &a[..cut]);
    for input in cuts.chain([&flipped[..], &spliced[..]]) {
        PEAK.set(0);
        let got = scan(input);
        // Decoded values outweigh their bytes and vectors grow by
        // doubling; a length field (up to 4 GiB) sizing an allocation
        // would overshoot this bound by orders of magnitude.
        let (peak, len) = (PEAK.get(), input.len());
        assert!(
            peak <= 8 * len + 512,
            "{len} bytes drove a {peak}-byte allocation"
        );
        let (mut intact, mut at) = (Vec::new(), 0);
        while let Some(f) = ours
            .iter()
            .chain(&theirs)
            .find(|f| input[at..].starts_with(&f.0))
        {
            intact.push(f.1.clone());
            at += f.0.len();
        }
        let rest = &input[at..];
        let torn = match rest.len() {
            0 => None,
            n if n < 8 => Some("torn header"),
            n if 8 + u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize > n => {
                Some("torn payload")
            }
            // A complete frame that is not an original fails its CRC, or
            // its decode when the CRC happens to hold (eight zero bytes
            // are a valid empty frame).
            _ => {
                assert!(
                    matches!(got, Err((o, _)) if o == at),
                    "{got:?} for {input:?}"
                );
                continue;
            }
        };
        let want = match torn {
            Some(reason) if !drops_torn_tail => Err((at, reason)),
            _ => Ok((intact, at)),
        };
        assert_eq!(got, want, "input {input:?}");
    }
}

fn journal() -> impl Strategy<Value = Vec<(Vec<u8>, JournalBatch)>> {
    let record = (any::<u64>(), any::<u8>(), any::<u8>(), any::<u64>()).prop_map(
        |(seq, prim, class, digest)| JournalRecord {
            seq,
            prim,
            class,
            digest,
        },
    );
    let batch =
        (any::<u64>(), prop::collection::vec(record, 0..4)).prop_map(|(event_index, records)| {
            JournalBatch {
                event_index,
                records,
            }
        });
    prop::collection::vec(batch.prop_map(|b| (encode_frame(&b), b)), 1..4)
}

/// A WAL, each frame paired with the record appended.
fn wal() -> impl Strategy<Value = Vec<(Vec<u8>, WalRecord)>> {
    let op = (0u8..6, any::<u64>(), "[a-z0-9]{0,12}").prop_map(|(kind, n, src)| match kind {
        0 => WalOp::Open { token: None },
        1 => WalOp::Open { token: Some(n) },
        2 => WalOp::Eval { seq: None, src },
        3 => WalOp::Eval { seq: Some(n), src },
        4 => WalOp::Close { seq: None },
        _ => WalOp::Close { seq: Some(n) },
    });
    prop::collection::vec((any::<u64>(), op, any::<u64>()), 1..5).prop_map(|ops| {
        let mut wal = Wal::new();
        let frames = ops.into_iter().map(|(session, op, reply_digest)| {
            let lsn = wal.append(session, op.clone(), reply_digest);
            let record = WalRecord {
                lsn,
                session,
                op,
                reply_digest,
            };
            // A zero byte budget pulls exactly one frame.
            (wal.frames_from(lsn, 0).0, record)
        });
        frames.collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn damaged_batches_keep_their_intact_frames_or_fail_closed(
        j in (journal(), journal()),
        w in (wal(), wal()),
        r in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        damage(j.0, j.1, r, true, |x| {
            scan_journal(x).map_err(|e| match e {
                PersistError::CorruptJournal { offset, reason } => (offset, reason),
                e => panic!("journal scan failed outside its taxonomy: {e}"),
            })
        });
        damage(w.0, w.1, r, false, |x| match decode_frames(x) {
            Ok(records) => Ok((records, x.len())),
            Err(ReplError::BadFrame { offset, reason }) => Err((offset, reason)),
            Err(e) => panic!("WAL decode failed outside its taxonomy: {e}"),
        });
    }
}

/// A real suspend blob whose `arena` section claims `u32::MAX` words,
/// its CRC re-sealed so only the count is wrong: both decode paths must
/// fail closed instead of sizing a 32 GiB vector from that count.
#[test]
fn inflated_checkpoint_section_fails_closed() {
    let cfg = ServeConfig::default();
    let mut s = Session::new(0, &cfg);
    s.eval("(setq acc (cons 1 (cons 2 nil)))");
    let mut blob = s.suspend();
    let name = [&5u64.to_le_bytes()[..], b"arena"].concat();
    let at = blob.windows(name.len()).position(|w| w == name).unwrap() + name.len();
    blob[at..at + 8].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
    // The header is magic, version, CRC, length; the payload follows.
    let crc = crc32(&blob[24..]);
    blob[12..16].copy_from_slice(&crc.to_le_bytes());
    let want = Err(PersistError::CorruptCheckpoint("length past end of input"));
    PEAK.set(0);
    assert_eq!(decode_checkpoint(&blob).map(drop), want);
    assert_eq!(Session::resume(0, &cfg, &blob).map(drop), want);
    let (peak, len) = (PEAK.get(), blob.len());
    assert!(
        peak <= 8 * len,
        "{len} bytes drove a {peak}-byte allocation"
    );
}

/// A CRC-valid suspend blob whose free-list head lies a million cells
/// past the heap's capacity. Resuming it used to succeed, and the next
/// allocation then read far outside the arena: a debug panic, and a
/// segfault in release, where arena reads are unchecked.
#[test]
fn out_of_range_free_head_fails_closed() {
    let cfg = ServeConfig::default();
    let mut s = Session::new(0, &cfg);
    s.eval("(setq acc (cons 1 (cons 2 nil)))");
    let mut ckpt = decode_checkpoint(&s.suspend()).unwrap();
    let (_, heap) = ckpt
        .controller
        .sections
        .iter_mut()
        .find(|(name, _)| *name == "heap")
        .unwrap();
    heap[0] = cfg.heap_cells as u64 + 1_000_000;
    let blob = encode_checkpoint(&ckpt);
    assert_eq!(
        Session::resume(0, &cfg, &blob).map(drop),
        Err(PersistError::MalformedImage(ImageError::Malformed))
    );
}

/// A CRC-valid suspend blob whose heap claims 2^30 more cells than the
/// configured heap. A version-2 image holds only the cells below the
/// frontier, so nothing else in it ties the capacity to the bytes;
/// resuming it must not hand back a session whose heap may grow past
/// `heap_cells`.
#[test]
fn inflated_heap_capacity_fails_closed() {
    let cfg = ServeConfig::default();
    let mut s = Session::new(0, &cfg);
    s.eval("(setq acc (cons 1 (cons 2 nil)))");
    let mut ckpt = decode_checkpoint(&s.suspend()).unwrap();
    let (_, heap) = ckpt
        .controller
        .sections
        .iter_mut()
        .find(|(name, _)| *name == "heap")
        .unwrap();
    assert_eq!(heap[2], cfg.heap_cells as u64);
    heap[2] |= 1 << 30;
    let blob = encode_checkpoint(&ckpt);
    assert_eq!(
        Session::resume(0, &cfg, &blob).map(drop),
        Err(PersistError::CorruptCheckpoint(
            "heap capacity differs from the configured heap"
        ))
    );
}
