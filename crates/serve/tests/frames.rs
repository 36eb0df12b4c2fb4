//! The one `[len|crc|payload]` frame scanner fails closed through both
//! callers: the durability journal (`small_persist::scan_journal`,
//! which drops a torn tail) and the replication WAL
//! (`small_serve::repl::decode_frames`, which rejects one). Valid
//! batches are truncated at every offset, hit by a bit flip, spliced
//! together, given an inflated length field, or given a mutated or
//! arbitrary payload under a re-sealed CRC, so the payload decoders see
//! bytes the CRC no longer screens. Each scan must return exactly the
//! original frames before the damage, then a torn tail (journal only),
//! a typed error at the damage, or — for a payload that decodes — a
//! value whose canonical frame is exactly the damaged bytes. The WAL's
//! block codec (`small_persist::decompress`) runs over the same inputs
//! and over a damaged compressed batch. No length field read from the
//! input may size an allocation, and neither may a word count inside a
//! CRC-valid session checkpoint, nor may a heap address inside one
//! reach the arena unchecked.

use proptest::prelude::*;
use small_heap::ImageError;
use small_persist::{
    compress, crc32, decode_checkpoint, decompress, encode_checkpoint, encode_frame, frame,
    scan_journal, JournalBatch, JournalRecord, PersistError,
};
use small_serve::repl::{decode_frames, ReplError, WalOp, WalRecord};
use small_serve::{ServeConfig, Session, Wal};

mod peak_alloc;
use peak_alloc::PEAK;

/// Cases per property: few in a debug build, many in release.
const DAMAGE_CASES: u32 = if cfg!(debug_assertions) { 128 } else { 3000 };

/// Assert that the largest allocation `run` made is within what an
/// input of `len` bytes justifies. Decoded values outweigh their bytes
/// and vectors grow by doubling; a length field (up to 4 GiB) sizing an
/// allocation would overshoot this bound by orders of magnitude.
fn within_alloc_bound<R>(len: usize, run: impl FnOnce() -> R) -> R {
    PEAK.set(0);
    let got = run();
    let peak = PEAK.get();
    assert!(
        peak <= 8 * len + 512,
        "{len} bytes drove a {peak}-byte allocation"
    );
    got
}

/// Frame `payload` with its length and CRC sealed.
fn sealed(payload: &[u8]) -> Vec<u8> {
    let len = (payload.len() as u32).to_le_bytes();
    [&len[..], &crc32(payload).to_le_bytes(), payload].concat()
}

/// Damage `ours` in every way the harness knows, and check each scan.
///
/// The inputs: `ours` truncated at every offset, one bit flipped,
/// spliced with `theirs` (`ours[..i] ++ theirs[k..]`), one frame's
/// length field inflated by `grow`, and one frame's payload given the
/// byte `x` at some offset, or replaced by `junk`, its CRC re-sealed.
///
/// Each scan must return the original frames that open the input and
/// stop where they end: less than a header after them, or a length
/// running past the end, is a torn tail; a complete frame that is no
/// original is a typed error at its offset, unless its payload decodes
/// to a value whose canonical frame (`encode`) is exactly those bytes.
fn damage<T: Clone + PartialEq + std::fmt::Debug>(
    ours: Vec<(Vec<u8>, T)>,
    theirs: Vec<(Vec<u8>, T)>,
    (bit, i, k): (u64, u64, u64),
    (grow, x, junk): (u32, u8, &[u8]),
    drops_torn_tail: bool,
    encode: impl Fn(&T) -> Vec<u8>,
    scan: impl Fn(&[u8]) -> Result<(Vec<T>, usize), (usize, &'static str)>,
) {
    let a: Vec<u8> = ours.iter().flat_map(|f| f.0.clone()).collect();
    let b: Vec<u8> = theirs.iter().flat_map(|f| f.0.clone()).collect();
    let mut flipped = a.clone();
    let bit = (bit % (8 * a.len() as u64)) as usize;
    flipped[bit / 8] ^= 1 << (bit % 8);
    let (i, k) = (i as usize % (a.len() + 1), k as usize % (b.len() + 1));
    let spliced = [&a[..i], &b[k..]].concat();
    // The frame the length and payload damage hits, and where it starts.
    let f = bit % ours.len();
    let at_f: usize = ours[..f].iter().map(|f| f.0.len()).sum();
    let (frame_f, after_f) = (&ours[f].0, &a[at_f + ours[f].0.len()..]);
    let mut inflated = a.clone();
    let len_f = u32::from_le_bytes(frame_f[..4].try_into().unwrap());
    inflated[at_f..at_f + 4].copy_from_slice(&len_f.saturating_add(grow.max(1)).to_le_bytes());
    let mut payload = frame_f[8..].to_vec();
    if !payload.is_empty() {
        let at = k % payload.len();
        payload[at] = x;
    }
    let resealed = [&a[..at_f], &sealed(&payload), after_f].concat();
    let replaced = [&a[..at_f], &sealed(junk), after_f].concat();
    let cuts = (0..=a.len()).map(|cut| &a[..cut]);
    let damaged = [&flipped, &spliced, &inflated, &resealed, &replaced];
    'inputs: for input in cuts.chain(damaged.into_iter().map(|v| &v[..])) {
        let got = within_alloc_bound(input.len(), || scan(input));
        // The block codec takes the same bytes as a compressed block:
        // garbage to it, so any answer but a panic or an oversized
        // allocation will do.
        let _ = within_alloc_bound(input.len(), || decompress(input, 2 * input.len()));
        let (mut intact, mut at) = (Vec::new(), 0);
        let torn = loop {
            if let Some(f) = ours
                .iter()
                .chain(&theirs)
                .find(|f| input[at..].starts_with(&f.0))
            {
                intact.push(f.1.clone());
                at += f.0.len();
                continue;
            }
            let rest = &input[at..];
            let len = match rest.len() {
                0 => break None,
                n if n < 8 => break Some("torn header"),
                n => match 8 + u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize {
                    len if len > n => break Some("torn payload"),
                    len => len,
                },
            };
            // A complete frame that is no original fails its CRC, or its
            // decode when the CRC holds (a re-sealed payload, or eight
            // zero bytes: a valid empty frame), or decodes canonically.
            let decoded = match &got {
                Ok((values, _)) => values.get(intact.len()),
                Err(_) => None,
            };
            match decoded {
                Some(v) if encode(v) == rest[..len] => {
                    intact.push(v.clone());
                    at += len;
                }
                _ => {
                    assert!(
                        matches!(got, Err((o, _)) if o == at),
                        "{got:?} for {input:?}"
                    );
                    continue 'inputs;
                }
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

/// A WAL record's frame as the format defines it, written here apart
/// from the WAL's own encoder: the canonical form a decoded record must
/// reproduce. Tags: 0 open, 1 eval, 2 close; plus 3 when the optional
/// token or seq follows.
fn wal_frame(rec: &WalRecord) -> Vec<u8> {
    let (tag, opt, src) = match &rec.op {
        WalOp::Open { token } => (0, *token, None),
        WalOp::Eval { seq, src } => (1, *seq, Some(src)),
        WalOp::Close { seq } => (2, *seq, None),
    };
    frame::encode(0, |w| {
        w.put_u64(rec.lsn);
        w.put_u64(rec.session);
        w.put_u8(tag + if opt.is_some() { 3 } else { 0 });
        if let Some(v) = opt {
            w.put_u64(v);
        }
        if let Some(s) = src {
            w.put_str(s);
        }
        w.put_u64(rec.reply_digest);
    })
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
            let frame = wal.frames_from(lsn, 0).0;
            assert_eq!(frame, wal_frame(&record));
            (frame, record)
        });
        frames.collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(DAMAGE_CASES))]

    #[test]
    fn damaged_batches_keep_their_intact_frames_or_fail_closed(
        j in (journal(), journal()),
        w in (wal(), wal()),
        r in (any::<u64>(), any::<u64>(), any::<u64>()),
        grow in prop_oneof![Just(u32::MAX), 1u32..64],
        x in any::<u8>(),
        junk in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        damage(j.0, j.1, r, (grow, x, &junk), true, encode_frame, |x| {
            scan_journal(x).map_err(|e| match e {
                PersistError::CorruptJournal { offset, reason } => (offset, reason),
                e => panic!("journal scan failed outside its taxonomy: {e}"),
            })
        });
        damage(w.0, w.1, r, (grow, x, &junk), false, wal_frame, |x| match decode_frames(x) {
            Ok(records) => Ok((records, x.len())),
            Err(ReplError::BadFrame { offset, reason }) => Err((offset, reason)),
            Err(e) => panic!("WAL decode failed outside its taxonomy: {e}"),
        });
    }

    /// A compressed WAL batch, truncated at every offset, bit-flipped
    /// or spliced, decompresses to an error or to a block of the
    /// expected size, within that size's allocation; the intact block
    /// round-trips exactly.
    #[test]
    fn damaged_compressed_blocks_fail_closed(
        w in (wal(), wal()),
        r in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let raw: Vec<u8> = w.0.iter().flat_map(|f| f.0.clone()).collect();
        let packed = compress(&raw);
        let other = compress(&w.1.iter().flat_map(|f| f.0.clone()).collect::<Vec<u8>>());
        prop_assert_eq!(decompress(&packed, raw.len()), Ok(raw.clone()));
        let (bit, i, k) = r;
        let mut flipped = packed.clone();
        let bit = (bit % (8 * packed.len() as u64)) as usize;
        flipped[bit / 8] ^= 1 << (bit % 8);
        let spliced = [&packed[..i as usize % (packed.len() + 1)], &other[k as usize % (other.len() + 1)..]].concat();
        let cuts = (0..packed.len()).map(|cut| &packed[..cut]);
        for input in cuts.chain([&flipped[..], &spliced[..]]) {
            PEAK.set(0);
            let got = decompress(input, raw.len());
            prop_assert!(PEAK.get() <= raw.len(), "{} bytes allocated", PEAK.get());
            if input.len() < packed.len() && packed.starts_with(input) {
                prop_assert!(got.is_err(), "a cut block decoded");
            }
            if let Ok(out) = got {
                prop_assert_eq!(out.len(), raw.len());
            }
        }
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
