//! WAL-shipping replication: primary → warm standby.
//!
//! The primary appends the journal [`SessionStore::execute`] returns —
//! one record per *mutating* request (`open`, `eval`, `close`) that took
//! effect — to an in-memory write-ahead log. Each record is a
//! [`small_persist::frame`] (the journal's `[u32 len][u32 crc32][payload]`
//! codec) carrying the request itself plus the FNV-1a digest of the
//! encoded reply the primary produced. Appending happens **before** the
//! reply is posted to the client, so an acknowledged request is always
//! shipped: the standby can never be missing state a client has seen
//! confirmed.
//!
//! The log keeps its frames in blocks ([`Wal`]): one open block of raw
//! frames takes the appends, and a full block is sealed by compressing
//! it with [`small_persist::compress`]. The records repeat each other,
//! so a sealed block keeps about a third of its bytes. Pulls return
//! the appended frames byte for byte, decompressing only the sealed
//! blocks they touch.
//!
//! A standby connects with a `(hello <version> replica)` handshake and
//! pulls frames with `(pull <lsn>)`, receiving `(ok frames <next>
//! <h-hex>)` batches. It replays each record through its own
//! [`SessionStore`]'s `execute` — re-executing the request exactly as
//! the primary did, not patching state — and verifies that the digest of its own reply matches the digest
//! the primary recorded. Any mismatch is a typed
//! [`ReplError::Divergence`] and replication **fails closed**: a
//! standby that cannot prove byte-identical behaviour must not be
//! promoted. Read-only requests (`ledger`, `digest`, `stats`) are not
//! logged; they cannot change state, and the post-failover harness
//! queries them directly against the promoted store.
//!
//! LRU suspend/resume is deliberately invisible here: eviction is
//! stats-neutral, so primary and standby may evict entirely different
//! sessions at different times and still agree byte-for-byte on every
//! reply, ledger, and digest. The failover campaign runs the standby
//! with a *different* residency cap than the primary to keep that
//! honest.
//!
//! # Chained shipping (primary → S1 → S2)
//!
//! Replay retains every applied frame in the standby's own [`Wal`]
//! (byte-identical to the primary's — the record encoding is
//! canonical), so a standby can serve `(pull <lsn>)` to a *downstream*
//! replica. A networked standby is the ordinary sharded server started
//! in the standby role ([`crate::server::start_standby`]): it answers
//! `(hello …)`/`(ping)` as [`crate::protocol::NodeRole::Standby`],
//! ships retained frames to replica connections, publishes per-hop
//! relay lag through `(metrics)`, and refuses session traffic with
//! `(err repl not-primary)`. Promotion flips its role in place
//! ([`crate::server::ServerHandle::promote`]): same listener, same
//! connections, same LSN space — the downstream replica keeps pulling
//! the same endpoint with its cursor intact, and the chain heals to a
//! fresh primary/standby pair.

use crate::manager::{SessionOp, SessionStore};
use crate::protocol::Reply;
use crate::session::ServeConfig;
use crate::telemetry::VolatileMetrics;
use small_persist::frame::{self, FrameError};
use small_persist::{digest_bytes, ByteReader, DIGEST_SEED};
use std::fmt;
use std::sync::Mutex;

/// Byte budget for one `(pull …)` batch (hex-doubled on the wire, so
/// comfortably inside `MAX_FRAME`).
const PULL_BATCH_BYTES: usize = 64 * 1024;

/// The digest a WAL record stores for a reply: FNV-1a over the
/// canonical encoded reply text.
pub fn reply_digest(reply: &Reply) -> u64 {
    digest_bytes(DIGEST_SEED, reply.encode().as_bytes())
}

/// A mutating operation, as shipped to the standby. The optional
/// idempotency fields (open token, request seq) ride in the record so
/// the standby's replay rebuilds the *same dedup state* the primary
/// held — a retry that lands after failover still gets its cached
/// reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// `(open)` / `(open <token>)` that allocated the record's session
    /// id.
    Open {
        /// Idempotency token, when the open carried one.
        token: Option<u64>,
    },
    /// `(eval <id> …)` / `(seval <id> <seq> …)` with the canonical
    /// program text.
    Eval {
        /// Per-session sequence number, when the eval carried one.
        seq: Option<u64>,
        /// Canonical program text.
        src: String,
    },
    /// `(close <id>)` / `(close <id> <seq>)`.
    Close {
        /// Per-session sequence number, when the close carried one.
        seq: Option<u64>,
    },
}

/// One replicated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Log sequence number (dense, from 0).
    pub lsn: u64,
    /// The session the operation targets (for `Open`: the id assigned).
    pub session: u64,
    /// The operation.
    pub op: WalOp,
    /// FNV-1a digest of the primary's encoded reply.
    pub reply_digest: u64,
}

impl WalRecord {
    /// The record's tag, optional word and program text. Tags: 0
    /// `open`, 1 `eval`, 2 `close`; plus 3 when the optional token or
    /// seq follows the tag.
    fn parts(&self) -> (u8, Option<u64>, Option<&str>) {
        let (tag, opt, src) = match &self.op {
            WalOp::Open { token } => (0, *token, None),
            WalOp::Eval { seq, src } => (1, *seq, Some(src.as_str())),
            WalOp::Close { seq } => (2, *seq, None),
        };
        (tag + if opt.is_some() { 3 } else { 0 }, opt, src)
    }

    /// Bytes of the record's frame, header included.
    fn frame_len(&self) -> usize {
        let (_, opt, src) = self.parts();
        frame::HEADER + 8 + 8 + 1 + opt.map_or(0, |_| 8) + src.map_or(0, |s| 8 + s.len()) + 8
    }

    /// Append the record's frame to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        let (tag, opt, src) = self.parts();
        frame::encode_into(out, |w| {
            w.put_u64(self.lsn);
            w.put_u64(self.session);
            w.put_u8(tag);
            if let Some(v) = opt {
                w.put_u64(v);
            }
            if let Some(s) = src {
                w.put_str(s);
            }
            w.put_u64(self.reply_digest);
        });
    }
}

fn decode_record(payload: &[u8]) -> Result<WalRecord, &'static str> {
    let short = |_| "short payload";
    let mut r = ByteReader::new(payload);
    let (lsn, session) = (r.u64().map_err(short)?, r.u64().map_err(short)?);
    let tag = r.u8().map_err(short)?;
    if tag > 5 {
        return Err("bad op tag");
    }
    let opt = (tag >= 3).then(|| r.u64()).transpose().map_err(short)?;
    let op = match tag % 3 {
        0 => WalOp::Open { token: opt },
        1 => WalOp::Eval {
            seq: opt,
            src: r.str().map_err(short)?.to_string(),
        },
        _ => WalOp::Close { seq: opt },
    };
    let reply_digest = r.u64().map_err(short)?;
    r.expect_end()?;
    Ok(WalRecord {
        lsn,
        session,
        op,
        reply_digest,
    })
}

/// Replication failures. Transport is TCP (reliable), so unlike the
/// on-disk journal there is no torn-tail tolerance: any damage or gap
/// in a pulled batch fails closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplError {
    /// A frame failed structural or CRC validation.
    BadFrame {
        /// Byte offset of the bad frame within the batch.
        offset: usize,
        /// What was wrong.
        reason: &'static str,
    },
    /// Records arrived out of sequence.
    Gap {
        /// The LSN the standby expected next.
        expected: u64,
        /// The LSN that actually arrived.
        got: u64,
    },
    /// The standby's replay produced a different reply than the
    /// primary recorded — the standby must not be promoted.
    Divergence {
        /// LSN of the diverging record.
        lsn: u64,
        /// Digest the primary recorded.
        expected: u64,
        /// Digest of the standby's own reply.
        actual: u64,
    },
}

impl fmt::Display for ReplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplError::BadFrame { offset, reason } => {
                write!(f, "bad WAL frame at byte {offset}: {reason}")
            }
            ReplError::Gap { expected, got } => {
                write!(f, "WAL gap: expected lsn {expected}, got {got}")
            }
            ReplError::Divergence {
                lsn,
                expected,
                actual,
            } => write!(
                f,
                "replay divergence at lsn {lsn}: primary d{expected:016x}, standby d{actual:016x}"
            ),
        }
    }
}

impl std::error::Error for ReplError {}

/// Decode a batch of concatenated WAL frames. Strict: a torn tail,
/// bad CRC, or malformed payload is an error, never a truncation.
pub fn decode_frames(bytes: &[u8]) -> Result<Vec<WalRecord>, ReplError> {
    frame::scan_whole(bytes, decode_record)
        .map_err(|FrameError { offset, reason }| ReplError::BadFrame { offset, reason })
}

/// Raw frame bytes from which the [`Wal`]'s open block is due to be
/// sealed by [`seal_full`].
const BLOCK_BYTES: usize = 16 * 1024;

/// The open block's limit: an append that would take it past this
/// seals it first, so a log that nobody calls [`seal_full`] on (a busy
/// server, an in-process standby) still seals.
const OPEN_LIMIT: usize = 2 * BLOCK_BYTES;

/// A sealed block of the [`Wal`]: consecutive frames, compressed.
struct SealedBlock {
    /// LSN of the block's first frame. The block holds the records up
    /// to the next block's first LSN.
    first_lsn: u64,
    /// Bytes of the frames before compression.
    raw_len: usize,
    /// The frames, compressed by [`small_persist::compress`].
    bytes: Box<[u8]>,
}

/// The in-memory write-ahead log: encoded frames indexed by LSN, kept
/// in blocks. Shards append under a brief mutex (the server wraps this
/// in `Mutex<Wal>`).
///
/// Appends encode each frame straight into one open block of raw
/// frames. Sealing LZ-compresses the open block into an exactly sized
/// buffer, and an index entry keeps its first LSN. A server shard seals
/// a full block ([`BLOCK_BYTES`]) in an idle pass, compressing a copy
/// outside the mutex ([`seal_full`]), so the compression delays neither
/// a reply nor another shard's append; an append that would take the
/// open block past [`OPEN_LIMIT`] seals it first, in place. The log's
/// records repeat each other (the same programs, sessions and
/// libraries), so a sealed block keeps about a third of its raw bytes.
/// [`Wal::frames_from`] binary-searches the index and decompresses only
/// the sealed blocks a pull touches, and keeps the one a pull stops
/// inside for the next pull, which starts there; it reads the open
/// block raw, so a caught-up replica never runs the codec.
pub struct Wal {
    /// Sealed blocks in LSN order: the sparse index and the bytes.
    sealed: Vec<SealedBlock>,
    /// Compressed bytes over all sealed blocks.
    sealed_bytes: usize,
    /// Raw frames of the open block.
    open: Vec<u8>,
    /// LSN of the open block's first frame.
    open_first: u64,
    /// The LSN the next append gets.
    next: u64,
    /// Whether a copy of the open block is out being compressed
    /// ([`seal_full`]), until the next install. Another shard's idle
    /// pass then leaves the block alone instead of compressing it too:
    /// two shards compressing at once took both cores from the clients
    /// (`wire-small` p99 +0.4%).
    sealing: bool,
    /// The sealed block the last pull stopped inside, decompressed.
    /// Behind a lock of its own because pulls read the log through
    /// `&self`.
    pulled: Mutex<PullCache>,
}

/// The sealed block a [`Wal::frames_from`] stopped inside, so a replica
/// catching up in batches decompresses each block once, not once per
/// batch that touches it. Sealed blocks never change, so it cannot go
/// stale. It is not counted in [`Wal::resident_bytes`]: it is at most
/// one block's raw frames, for one catching-up replica.
#[derive(Default)]
struct PullCache {
    /// The block's index in `Wal::sealed`, and its raw frames.
    block: Option<(usize, Vec<u8>)>,
    /// Sealed blocks pulls have decompressed so far.
    #[cfg(test)]
    decompressed: usize,
}

impl Default for Wal {
    fn default() -> Wal {
        Wal::new()
    }
}

impl Wal {
    /// An empty log.
    pub fn new() -> Wal {
        Wal {
            sealed: Vec::new(),
            sealed_bytes: 0,
            open: Vec::with_capacity(OPEN_LIMIT),
            open_first: 0,
            next: 0,
            sealing: false,
            pulled: Mutex::default(),
        }
    }

    /// Append one record; assigns and returns its LSN.
    pub fn append(&mut self, session: u64, op: WalOp, reply_digest: u64) -> u64 {
        let lsn = self.next;
        self.push(&WalRecord {
            lsn,
            session,
            op,
            reply_digest,
        });
        lsn
    }

    /// Append an already-decoded record verbatim (the standby's
    /// retention path). The encoding is canonical, so the retained
    /// frame is byte-identical to the one the upstream shipped.
    pub fn append_record(&mut self, rec: &WalRecord) {
        debug_assert_eq!(rec.lsn, self.next, "retention gap");
        self.push(rec);
    }

    fn push(&mut self, rec: &WalRecord) {
        if !self.open.is_empty() && self.open.len() + rec.frame_len() > OPEN_LIMIT {
            self.seal();
        }
        rec.encode_into(&mut self.open);
        self.next += 1;
    }

    /// Copy the open block into `copy` if it holds at least
    /// [`BLOCK_BYTES`] and no other copy is out; returns whether it did.
    fn copy_full(&mut self, copy: &mut OpenCopy) -> bool {
        if self.open.len() < BLOCK_BYTES || self.sealing {
            return false;
        }
        self.sealing = true;
        copy.first = self.open_first;
        copy.next = self.next;
        copy.raw.clear();
        copy.raw.extend_from_slice(&self.open);
        true
    }

    /// Compress the open block into the sealed index and start an
    /// empty one.
    fn seal(&mut self) {
        let bytes = small_persist::compress(&self.open);
        self.install(self.open_first, self.next, self.open.len(), bytes);
    }

    /// Make the records `first..next`, whose `raw_len` frame bytes
    /// compress to `bytes`, the newest sealed block, and drop them from
    /// the front of the open block. Nothing happens if the open block
    /// no longer starts at `first`: the records were sealed since they
    /// were copied out (by an append past [`OPEN_LIMIT`], or by another
    /// shard's [`seal_full`]). Either way it clears `sealing`: an inline
    /// seal leaves any copy still out stale.
    fn install(&mut self, first: u64, next: u64, raw_len: usize, bytes: Vec<u8>) {
        self.sealing = false;
        if self.open_first != first {
            return;
        }
        let bytes = bytes.into_boxed_slice();
        self.sealed_bytes += bytes.len();
        self.sealed.push(SealedBlock {
            first_lsn: first,
            raw_len,
            bytes,
        });
        self.open_first = next;
        self.open.drain(..raw_len);
        // A frame larger than the limit grew the buffer; give that back.
        self.open.shrink_to(OPEN_LIMIT);
    }

    /// The LSN the next append will get (== records logged so far).
    pub fn next_lsn(&self) -> u64 {
        self.next
    }

    /// Bytes the log keeps in memory: the sealed blocks, the open
    /// block's buffer and the index.
    pub fn resident_bytes(&self) -> usize {
        self.sealed_bytes
            + self.open.capacity()
            + self.sealed.capacity() * std::mem::size_of::<SealedBlock>()
    }

    /// Concatenated frames starting at `from`, bounded by `max_bytes`
    /// (at least one frame if any remain, so pulls always progress).
    /// Returns the batch and the LSN to pull from next.
    pub fn frames_from(&self, from: u64, max_bytes: usize) -> (Vec<u8>, u64) {
        let mut out = Vec::new();
        let mut next = from;
        if from >= self.next {
            return (out, next);
        }
        let mut block = self.sealed.partition_point(|b| b.first_lsn <= from);
        let mut pulled = self.pulled.lock().unwrap_or_else(|e| e.into_inner());
        let mut kept = pulled.block.take();
        while next < self.open_first {
            if !out.is_empty() && out.len() >= max_bytes {
                return (out, next); // not even a header fits
            }
            let b = &self.sealed[block - 1];
            let raw = match kept.take() {
                Some((at, raw)) if at == block - 1 => raw,
                _ => {
                    #[cfg(test)]
                    {
                        pulled.decompressed += 1;
                    }
                    small_persist::decompress(&b.bytes, b.raw_len)
                        .expect("a sealed block decompresses to its frames")
                }
            };
            if !copy_frames(&raw, b.first_lsn, &mut next, &mut out, max_bytes) {
                pulled.block = Some((block - 1, raw));
                return (out, next);
            }
            block += 1;
        }
        copy_frames(&self.open, self.open_first, &mut next, &mut out, max_bytes);
        (out, next)
    }
}

/// The open block of a [`Wal`] as [`Wal::copy_full`] last copied it
/// out. A shard keeps one and reuses its buffer for every seal, so the
/// copy allocates nothing: a fresh 16–32 KiB buffer per seal, freed
/// between the long-lived sealed blocks, fragments the heap.
#[derive(Default)]
pub(crate) struct OpenCopy {
    /// LSN of its first frame.
    first: u64,
    /// LSN after its last frame.
    next: u64,
    /// Its raw frames.
    raw: Vec<u8>,
}

/// Seal `wal`'s open block if it holds at least [`BLOCK_BYTES`]. The
/// lock is held only to copy the block out and to install it; the
/// compression runs outside it, so appends on other shards do not wait
/// for the codec. Appends that land meanwhile stay in the open block,
/// behind the sealed prefix. A server shard calls this in its idle
/// passes, with its own `copy`.
pub(crate) fn seal_full(wal: &Mutex<Wal>, copy: &mut OpenCopy) {
    let lock = || wal.lock().unwrap_or_else(|e| e.into_inner());
    if !lock().copy_full(copy) {
        return;
    }
    let bytes = small_persist::compress(&copy.raw);
    lock().install(copy.first, copy.next, copy.raw.len(), bytes);
}

/// Append to `out` the frames of `block`, whose first frame has LSN
/// `first`, from LSN `*next` on, while `max_bytes` allows (and at least
/// one frame while `out` is empty), advancing `*next` past them.
/// Returns whether the rest of the block fit.
fn copy_frames(
    block: &[u8],
    first: u64,
    next: &mut u64,
    out: &mut Vec<u8>,
    max_bytes: usize,
) -> bool {
    let frame_end = |at: usize| {
        let len = u32::from_le_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]]);
        at + frame::HEADER + len as usize
    };
    let mut start = 0;
    for _ in first..*next {
        start = frame_end(start);
    }
    let (mut end, mut fits) = (start, true);
    while end < block.len() {
        let after = frame_end(end);
        let taken = out.len() + (end - start);
        if taken > 0 && taken + (after - end) > max_bytes {
            fits = false;
            break;
        }
        end = after;
        *next += 1;
    }
    out.extend_from_slice(&block[start..end]);
    fits
}

/// Answer a replica's `(pull <from>)` from `wal` and count the shipped
/// batch in `vol`.
pub(crate) fn serve_pull(wal: &Wal, from: u64, vol: &mut VolatileMetrics) -> Reply {
    let (bytes, next) = wal.frames_from(from, PULL_BATCH_BYTES);
    vol.wal_pull_batches.inc();
    vol.wal_shipped.add(next.saturating_sub(from));
    // `(pull <from>)` is the replica's applied-LSN confession:
    // everything below `from` has been replayed on its side.
    vol.note_wal_applied(from);
    Reply::Frames { next, bytes }
}

/// An in-process warm standby: replays pulled WAL batches through its
/// own store under digest verification, ready to be promoted. Every
/// applied frame is retained in the standby's own [`Wal`], so the
/// retained log is also the replay cursor. The networked standby
/// ([`crate::server::start_standby`]) runs the same [`replay`] loop and
/// ships its retained log downstream.
pub struct Standby {
    store: SessionStore,
    wal: Wal,
}

impl Standby {
    /// A cold standby (no state, expecting LSN 0).
    pub fn new(cfg: ServeConfig) -> Standby {
        Standby {
            store: SessionStore::new(cfg),
            wal: Wal::new(),
        }
    }

    /// The LSN this standby wants next — the argument for its next
    /// `(pull …)`, and the count of records applied so far.
    pub fn next_lsn(&self) -> u64 {
        self.wal.next_lsn()
    }

    /// Replay one pulled batch. Returns the number of records applied.
    ///
    /// Each record runs through [`SessionStore::execute`], the executor
    /// the primary's shard ran it through. Records the standby has
    /// already applied (`lsn < next_lsn`) are
    /// *skipped*, making a duplicated pull — a retried `(pull …)` after
    /// a reset, or an at-least-once shipping layer — idempotent. A
    /// record *ahead* of the cursor is still a fail-closed
    /// [`ReplError::Gap`], as are damage and divergence; a failed
    /// standby must be discarded, not promoted. The batch is fully
    /// decoded before any record applies, so a corrupt batch changes
    /// nothing.
    pub fn apply(&mut self, bytes: &[u8]) -> Result<usize, ReplError> {
        let records = decode_frames(bytes)?;
        replay(&mut self.store, &mut self.wal, &records)
    }

    /// Read-only view of the standby's store (harness assertions).
    pub fn store(&self) -> &SessionStore {
        &self.store
    }

    /// Promote: the standby's store becomes the serving store. After
    /// promotion the caller serves requests against it directly.
    pub fn promote(self) -> SessionStore {
        self.store
    }
}

/// Replay decoded `records` through `store`, retaining each applied
/// frame in `wal`, whose next LSN is the replay cursor. The one replay
/// loop behind [`Standby::apply`] and a standby server's
/// [`crate::server::ServerHandle::apply`]; the rules are
/// [`Standby::apply`]'s.
pub(crate) fn replay(
    store: &mut SessionStore,
    wal: &mut Wal,
    records: &[WalRecord],
) -> Result<usize, ReplError> {
    let mut applied = 0;
    for rec in records {
        let expected = wal.next_lsn();
        if rec.lsn < expected {
            continue; // already applied: duplicated pull
        }
        if rec.lsn > expected {
            return Err(ReplError::Gap {
                expected,
                got: rec.lsn,
            });
        }
        let op = SessionOp::Write(rec.op.clone());
        let actual = reply_digest(&store.execute(rec.session, &op).0);
        if actual != rec.reply_digest {
            return Err(ReplError::Divergence {
                lsn: rec.lsn,
                expected: rec.reply_digest,
                actual,
            });
        }
        wal.append_record(rec);
        applied += 1;
    }
    Ok(applied)
}

// ---------------------------------------------------------------------
// Primary lease
// ---------------------------------------------------------------------

/// Parameters of the standby's primary lease.
#[derive(Debug, Clone, Copy)]
pub struct LeaseParams {
    /// Consecutive missed heartbeats before the lease expires and the
    /// standby self-promotes.
    pub miss_threshold: u32,
    /// Per-heartbeat connect/read timeout the prober should use.
    pub ping_timeout: std::time::Duration,
}

impl Default for LeaseParams {
    fn default() -> LeaseParams {
        LeaseParams {
            miss_threshold: 3,
            ping_timeout: std::time::Duration::from_millis(250),
        }
    }
}

/// The standby's lease on its primary, driven by `(ping)` heartbeat
/// outcomes.
///
/// This is a pure state machine — it owns no clock and no socket. The
/// caller probes the primary (e.g. [`crate::client::ping`]) at
/// whatever cadence it likes and reports each outcome with
/// [`Lease::beat`] (answered) or [`Lease::miss`] (connect refused,
/// timed out, or the connection died). After `miss_threshold`
/// *consecutive* misses the lease expires — permanently — and the
/// standby must stop pulling and promote. Keeping time out of the type
/// keeps expiry deterministic: a harness that drops the primary and
/// then probes `miss_threshold` times always observes expiry at the
/// same beat, regardless of scheduling.
#[derive(Debug)]
pub struct Lease {
    params: LeaseParams,
    misses: u32,
    expired: bool,
    /// The primary's next-LSN from the last answered heartbeat.
    last_lsn: u64,
}

impl Lease {
    /// A fresh, unexpired lease.
    pub fn new(params: LeaseParams) -> Lease {
        Lease {
            params,
            misses: 0,
            expired: false,
            last_lsn: 0,
        }
    }

    /// The lease's parameters.
    pub fn params(&self) -> LeaseParams {
        self.params
    }

    /// An answered heartbeat carrying the primary's next WAL LSN:
    /// clears the consecutive-miss counter (unless already expired —
    /// expiry is final; a zombie primary answering late must not
    /// un-promote the standby).
    pub fn beat(&mut self, lsn: u64) {
        if !self.expired {
            self.misses = 0;
            self.last_lsn = lsn;
        }
    }

    /// An unanswered heartbeat. Returns `true` once the lease has
    /// expired (misses reached the threshold).
    pub fn miss(&mut self) -> bool {
        if !self.expired {
            self.misses += 1;
            if self.misses >= self.params.miss_threshold {
                self.expired = true;
            }
        }
        self.expired
    }

    /// True once the lease has expired; never reverts.
    pub fn is_expired(&self) -> bool {
        self.expired
    }

    /// Current consecutive-miss count.
    pub fn misses(&self) -> u32 {
        self.misses
    }

    /// The primary's next-LSN from the last answered heartbeat.
    pub fn last_lsn(&self) -> u64 {
        self.last_lsn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_resident: usize) -> ServeConfig {
        ServeConfig {
            heap_cells: 1 << 12,
            table_size: 256,
            max_resident,
            ..ServeConfig::default()
        }
    }

    /// A primary in miniature: run `op` on session `id` and append the
    /// journal [`SessionStore::execute`] returns.
    fn primary_run(store: &mut SessionStore, wal: &mut Wal, id: u64, op: WalOp) -> Reply {
        let op = SessionOp::Write(op);
        let (reply, journal) = store.execute(id, &op);
        if let Some(op) = journal {
            wal.append(id, op.clone(), reply_digest(&reply));
        }
        reply
    }

    fn seval(seq: u64, src: &str) -> WalOp {
        let src = src.to_string();
        WalOp::Eval {
            seq: Some(seq),
            src,
        }
    }

    /// The tokenized, sequenced session 0 every failover test starts
    /// from: open under `token`, then `(setq acc …)` twice.
    fn sequenced_log(token: u64) -> (SessionStore, Wal, Reply) {
        let mut primary = SessionStore::new(cfg(2));
        let mut wal = Wal::new();
        let open = WalOp::Open { token: Some(token) };
        assert!(!primary_run(&mut primary, &mut wal, 0, open).is_err());
        let first = primary_run(
            &mut primary,
            &mut wal,
            0,
            seval(0, "(setq acc (cons 1 nil))"),
        );
        let second = primary_run(
            &mut primary,
            &mut wal,
            0,
            seval(1, "(setq acc (cons 2 acc))"),
        );
        assert!(!first.is_err() && !second.is_err());
        assert_eq!(wal.next_lsn(), 3);
        (primary, wal, second)
    }

    #[test]
    fn corrupt_batch_fails_closed() {
        let mut wal = Wal::new();
        wal.append(0, WalOp::Open { token: None }, 7);
        let src = "(add 1 2)".to_string();
        wal.append(0, WalOp::Eval { seq: None, src }, 9);
        let (mut batch, _) = wal.frames_from(0, usize::MAX);
        // Flip a payload byte: CRC must catch it.
        let last = batch.len() - 1;
        batch[last] ^= 0xff;
        let mut standby = Standby::new(cfg(2));
        assert!(matches!(
            standby.apply(&batch),
            Err(ReplError::BadFrame { .. })
        ));
        // A torn tail is also fatal — TCP delivered it, so it is damage.
        let (whole, _) = wal.frames_from(0, usize::MAX);
        assert!(matches!(
            standby.apply(&whole[..whole.len() - 3]),
            Err(ReplError::BadFrame { .. })
        ));
    }

    #[test]
    fn gap_and_divergence_fail_closed() {
        let (_, wal, _) = sequenced_log(3);
        // Skip the first record: gap.
        let mut standby = Standby::new(cfg(2));
        let (tail, _) = wal.frames_from(1, usize::MAX);
        assert_eq!(
            standby.apply(&tail),
            Err(ReplError::Gap {
                expected: 0,
                got: 1
            })
        );
        // Lie about a reply digest: divergence at that lsn.
        let mut lying = Wal::new();
        lying.append(0, WalOp::Open { token: None }, 0xdead_beef);
        let (batch, _) = lying.frames_from(0, usize::MAX);
        let mut standby = Standby::new(cfg(2));
        assert!(matches!(
            standby.apply(&batch),
            Err(ReplError::Divergence { lsn: 0, .. })
        ));
    }

    #[test]
    fn frames_round_trip_and_batches_bound_bytes() {
        let mut wal = Wal::new();
        for k in 0..10u64 {
            wal.append(
                k,
                WalOp::Eval {
                    seq: Some(k),
                    src: format!("(add {k} {k})"),
                },
                k * 3,
            );
        }
        let (all, next) = wal.frames_from(0, usize::MAX);
        assert_eq!(next, 10);
        let records = decode_frames(&all).expect("decode");
        assert_eq!(records.len(), 10);
        assert_eq!(
            records[4].op,
            WalOp::Eval {
                seq: Some(4),
                src: "(add 4 4)".to_string()
            }
        );
        // Bounded pulls always progress and cover the log exactly.
        let mut at = 0;
        let mut seen = 0;
        while at < wal.next_lsn() {
            let (batch, next) = wal.frames_from(at, 64);
            assert!(next > at);
            seen += decode_frames(&batch).expect("decode").len();
            at = next;
        }
        assert_eq!(seen, 10);
    }

    /// The gen mix as a primary logs it: `sessions` clients taking
    /// turns, each running `programs_for(seed, client, n)` seq'd.
    fn gen_mix_log(seed: u64, sessions: u64, n: usize) -> Wal {
        let mut store = SessionStore::new(ServeConfig::default());
        let mut shared = Mutex::new(Wal::new());
        let mut copy = OpenCopy::default();
        let scripts: Vec<_> = (0..sessions)
            .map(|c| crate::gen::programs_for(seed, c, n))
            .collect();
        for id in 0..sessions {
            let wal = shared.get_mut().unwrap();
            primary_run(&mut store, wal, id, WalOp::Open { token: None });
        }
        for k in 0..scripts[0].len() {
            for (id, script) in scripts.iter().enumerate() {
                let wal = shared.get_mut().unwrap();
                primary_run(&mut store, wal, id as u64, seval(k as u64, &script[k]));
                // As a shard seals: in the idle pass after the reply.
                seal_full(&shared, &mut copy);
            }
        }
        shared.into_inner().unwrap()
    }

    #[test]
    fn gen_mix_log_keeps_under_two_fifths_of_its_frame_bytes() {
        let wal = gen_mix_log(11, 24, 300);
        let (frames, next) = wal.frames_from(0, usize::MAX);
        assert_eq!(next, wal.next_lsn());
        assert_eq!(decode_frames(&frames).map(|r| r.len() as u64), Ok(next));
        let resident = wal.resident_bytes();
        assert!(
            resident * 5 <= frames.len() * 2,
            "{resident} resident bytes for {} frame bytes",
            frames.len()
        );
        // Deterministic: the log, its blocks and their codec output
        // are pure functions of the programs.
        assert_eq!((next, frames.len(), resident), (7728, 806_907, 307_319));
    }

    #[test]
    fn a_cold_pull_in_batches_decompresses_each_sealed_block_once() {
        let wal = gen_mix_log(11, 24, 300);
        let (mut pulled, mut from) = (Vec::new(), 0);
        while from < wal.next_lsn() {
            let (batch, next) = wal.frames_from(from, 64 * 1024);
            pulled.extend_from_slice(&batch);
            from = next;
        }
        let blocks = wal.sealed.len();
        assert!(blocks > 40, "{blocks} sealed blocks");
        assert_eq!(wal.pulled.lock().unwrap().decompressed, blocks);
        assert_eq!(pulled, wal.frames_from(0, usize::MAX).0);
    }

    /// A copy of `wal`'s open block, if it is full.
    fn copied(wal: &mut Wal) -> Option<OpenCopy> {
        let mut copy = OpenCopy::default();
        wal.copy_full(&mut copy).then_some(copy)
    }

    #[test]
    fn a_seal_installs_behind_later_appends_unless_the_block_was_sealed_meanwhile() {
        let mut big = Wal::new();
        let mut frames = Vec::new();
        let append = |wal: &mut Wal| {
            let lsn = wal.next_lsn();
            wal.append(lsn % 3, seval(lsn, &"(car acc)".repeat(20)), lsn);
            wal.frames_from(lsn, usize::MAX).0
        };
        let block = loop {
            if let Some(block) = copied(&mut big) {
                break block;
            }
            frames.extend(append(&mut big));
        };
        assert!(copied(&mut big).is_none(), "one copy out at a time");
        let bytes = small_persist::compress(&block.raw);
        // Appends between the copy and the install stay open, behind
        // the sealed prefix.
        frames.extend(append(&mut big));
        big.install(block.first, block.next, block.raw.len(), bytes);
        assert_eq!(big.sealed.len(), 1);
        assert_eq!(
            (big.open_first, big.next_lsn()),
            (block.next, block.next + 1)
        );
        assert_eq!(big.frames_from(0, usize::MAX).0, frames);
        // A copy whose records an append past the limit sealed first is
        // dropped, as is a second install of the same copy.
        let block = loop {
            frames.extend(append(&mut big));
            if let Some(block) = copied(&mut big) {
                break block;
            }
        };
        while big.sealed.len() == 1 {
            frames.extend(append(&mut big));
        }
        let bytes = small_persist::compress(&block.raw);
        big.install(block.first, block.next, block.raw.len(), bytes);
        assert_eq!(big.sealed.len(), 2);
        assert_eq!(big.frames_from(0, usize::MAX).0, frames);
        let (first, next) = (big.open_first, big.next_lsn());
        big.install(block.first, block.next, block.raw.len(), Vec::new());
        assert_eq!(
            (big.sealed.len(), big.open_first, big.next_lsn()),
            (2, first, next)
        );
        assert_eq!(big.frames_from(0, usize::MAX).0, frames);
    }

    #[test]
    fn duplicated_pulls_are_idempotent() {
        let (_, wal, _) = sequenced_log(9);
        let (batch, _) = wal.frames_from(0, usize::MAX);
        let mut standby = Standby::new(cfg(2));
        assert_eq!(standby.apply(&batch).expect("first apply"), 3);
        // The same batch again — a duplicated pull — applies nothing
        // and changes nothing.
        let ledger_before = standby.store.execute(0, &SessionOp::Ledger).0;
        assert_eq!(standby.apply(&batch).expect("duplicate apply"), 0);
        assert_eq!(standby.next_lsn(), 3);
        assert_eq!(
            standby.store.execute(0, &SessionOp::Ledger).0,
            ledger_before
        );
        // An overlapping batch (middle of the log onward) also skips
        // cleanly; a batch starting beyond the cursor is still a gap.
        let (tail, _) = wal.frames_from(1, usize::MAX);
        assert_eq!(standby.apply(&tail).expect("overlap apply"), 0);
        let mut behind = Standby::new(cfg(2));
        let (ahead, _) = wal.frames_from(2, usize::MAX);
        assert!(matches!(behind.apply(&ahead), Err(ReplError::Gap { .. })));
    }

    /// A retry of the last pre-failover mutating request, landing on a
    /// promoted store, is answered from the replicated replay window —
    /// not re-executed — and a retried tokenized open resolves to the
    /// original id.
    fn assert_dedup_survives(promoted: &mut SessionStore, token: u64, last: &Reply) {
        let ledger_before = promoted.execute(0, &SessionOp::Ledger).0;
        let retry = SessionOp::Write(seval(1, "(setq acc (cons 2 acc))"));
        let (reply, journal) = promoted.execute(0, &retry);
        assert!(journal.is_none(), "retry must hit the replicated window");
        assert_eq!(&reply, last);
        assert_eq!(promoted.execute(0, &SessionOp::Ledger).0, ledger_before);
        let reopen = SessionOp::Write(WalOp::Open { token: Some(token) });
        let (reply, journal) = promoted.execute(99, &reopen);
        assert!(journal.is_none());
        assert_eq!(reply, Reply::Opened { id: 0 });
    }

    #[test]
    fn replay_rebuilds_the_dedup_state() {
        let (_, wal, last) = sequenced_log(41);
        let mut standby = Standby::new(cfg(2));
        let (batch, _) = wal.frames_from(0, usize::MAX);
        standby.apply(&batch).expect("replay");
        assert_dedup_survives(&mut standby.promote(), 41, &last);
    }

    #[test]
    fn cyclic_structure_gets_typed_replies_and_replays() {
        // Comparing or printing a cycle built by `rplacd` answers the
        // typed `(err lp cyclic)` a cyclic top-level result gets; the
        // session keeps serving, and a standby replays the log.
        let mut primary = SessionStore::new(cfg(2));
        let mut wal = Wal::new();
        let open = WalOp::Open { token: None };
        assert!(!primary_run(&mut primary, &mut wal, 0, open).is_err());
        let mut run = |src: &str| {
            let op = WalOp::Eval {
                seq: None,
                src: src.to_string(),
            };
            primary_run(&mut primary, &mut wal, 0, op).encode()
        };
        assert_eq!(run("(setq x (cons 1 nil))"), "(ok value (1))");
        assert_eq!(run("(rplacd x x)"), "(err lp cyclic)");
        for src in ["(equal x x)", "(= x x)", "(print x)", "(write x)"] {
            assert_eq!(run(src), "(err lp cyclic)", "{src}");
        }
        assert_eq!(run("(car x)"), "(ok value 1)");
        let (batch, _) = wal.frames_from(0, usize::MAX);
        let mut standby = Standby::new(cfg(2));
        assert_eq!(standby.apply(&batch), Ok(wal.next_lsn() as usize));
    }

    #[test]
    fn relay_ships_downstream_and_promotes_with_its_listener() {
        use crate::client::Client;
        use crate::protocol::{NodeRole, Request, Role, PROTO_VERSION};
        use crate::server::{start_standby, ServerParams};

        // A primary log with a tokenized open and seq'd mutations —
        // the state a failover must preserve.
        let (_, wal, last) = sequenced_log(7);
        let lsn = wal.next_lsn();

        // S1: a standby server fed by the harness (the upstream hop).
        let params = ServerParams {
            shards: 1,
            replicate: true,
            ..ServerParams::default()
        };
        let s1 = start_standby("127.0.0.1:0", cfg(1), params).expect("bind standby");
        let addr = s1.addr();
        let mut c = Client::connect(addr, Role::Client).expect("dial as client");
        let volatile = |c: &mut Client| match c.request(&Request::Metrics).expect("metrics") {
            Reply::Metrics { volatile, .. } => volatile,
            other => panic!("want metrics, got {}", other.encode()),
        };
        // The upstream's LSN reaches `(metrics)` before anything is
        // applied, and the lag closes once the standby has caught up.
        s1.note_upstream(lsn);
        let lagging = volatile(&mut c);
        assert!(
            lagging.contains(&format!("\"relay_lag\":{lsn}")),
            "{lagging}"
        );
        while let Some(from) = s1.wal_next_lsn().filter(|&at| at < lsn) {
            let (batch, _) = wal.frames_from(from, 96);
            s1.apply(&batch).expect("standby apply");
        }
        let caught_up = volatile(&mut c);
        assert!(caught_up.contains("\"relay_lag\":0"), "{caught_up}");
        // Three records sit in the open block; nothing is sealed.
        assert!(
            caught_up.contains("\"resident_bytes\":32768"),
            "{caught_up}"
        );

        // S2: a downstream standby catching up over the wire — the
        // second hop of the chain.
        let mut s2 = Standby::new(cfg(3));
        let mut down = Client::connect(addr, Role::Replica).expect("dial standby");
        assert_eq!(down.node_role(), NodeRole::Standby);
        down.catch_up(&mut s2, lsn).expect("chain catchup");
        assert_eq!(s2.next_lsn(), lsn);

        // The standby surface, reply by reply: discovery answers as a
        // standby, session and node-control traffic is refused, and
        // pulls are gated on the replica role.
        let refused = "(err repl not-primary)".to_string();
        let eval = |src: &str| Request::Eval {
            id: 0,
            seq: None,
            src: src.to_string(),
        };
        let table = [
            (
                Request::Hello {
                    version: PROTO_VERSION,
                    role: Role::Client,
                },
                format!("(ok hello {PROTO_VERSION} standby)"),
            ),
            (Request::Ping, format!("(ok pong {lsn} standby)")),
            (Request::Open { token: None }, refused.clone()),
            (eval("(add 1 2)"), refused.clone()),
            (Request::Close { id: 0, seq: None }, refused.clone()),
            (Request::Ledger { id: 0 }, refused.clone()),
            (Request::Digest { id: 0 }, refused.clone()),
            (Request::Stats, refused.clone()),
            (Request::Shutdown, refused.clone()),
            (
                Request::Pull { from: 0 },
                "(err proto not-a-replica)".to_string(),
            ),
        ];
        for (req, want) in &table {
            assert_eq!(&c.request_text(&req.encode()).unwrap(), want, "{req:?}");
        }

        // Promotion in place: same address, same LSN space, and the
        // replica connection opened before it keeps pulling.
        s1.promote();
        assert_eq!(s1.addr(), addr);
        assert_eq!(s1.wal_next_lsn(), Some(lsn));
        assert_eq!(c.ping().expect("ping"), lsn);
        assert_eq!(
            c.request_text(&Request::Ping.encode()).unwrap(),
            format!("(ok pong {lsn} primary)")
        );

        // Only a live standby applies or promotes; the refusal leaves
        // the promoted node serving.
        let (batch, _) = wal.frames_from(0, usize::MAX);
        let s1_ref = std::panic::AssertUnwindSafe(&s1);
        assert!(std::panic::catch_unwind(|| s1_ref.apply(&batch)).is_err());
        assert!(std::panic::catch_unwind(|| s1_ref.promote()).is_err());

        // Retries of pre-failover requests are answered from the
        // replicated dedup windows, change no session and log nothing;
        // a fresh open takes the next id after the replicated ones.
        let retry = Request::Eval {
            id: 0,
            seq: Some(1),
            src: "(setq acc (cons 2 acc))".to_string(),
        };
        let ledger = Request::Ledger { id: 0 }.encode();
        let ledger_before = c.request_text(&ledger).unwrap();
        assert!(ledger_before.starts_with("(ok ledger"), "{ledger_before}");
        assert_eq!(c.request_text(&retry.encode()).unwrap(), last.encode());
        assert_eq!(c.request_text(&ledger).unwrap(), ledger_before);
        let reopen = Request::Open { token: Some(7) };
        assert_eq!(c.request_text(&reopen.encode()).unwrap(), "(ok opened 0)");
        assert_eq!(s1.wal_next_lsn(), Some(lsn));
        assert_eq!(c.open().expect("fresh open"), 1);
        assert_eq!(s1.wal_next_lsn(), Some(lsn + 1));

        // The downstream cursor continues on the same connection.
        down.catch_up(&mut s2, lsn + 1)
            .expect("pull across promotion");
        assert_eq!(s2.next_lsn(), lsn + 1);
        drop((c, down));
        s1.shutdown();
    }

    #[test]
    fn standby_sheds_connections_past_the_cap() {
        use crate::client::Client;
        use crate::protocol::{read_frame, Role};
        use crate::server::{raw_connect, start_standby, ServerParams};

        let params = ServerParams {
            shards: 1,
            replicate: true,
            max_conns_per_shard: 2,
            ..ServerParams::default()
        };
        let node = start_standby("127.0.0.1:0", cfg(1), params).expect("bind standby");
        // Each handshake completes only once the shard owns the
        // connection, so the third one is past the cap.
        let held: Vec<Client> = (0..2)
            .map(|_| Client::connect(node.addr(), Role::Client).expect("dial"))
            .collect();
        let mut third = raw_connect(node.addr()).expect("dial third");
        third
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        assert_eq!(
            read_frame(&mut third).expect("shed reply").as_deref(),
            Some("(err busy too-many-connections 0)")
        );
        drop(held);
        node.shutdown();
    }

    mod wal_props {
        use super::*;
        use proptest::prelude::*;

        const WAL_CASES: u32 = if cfg!(debug_assertions) { 6 } else { 300 };

        /// Records whose program texts repeat fragments, long enough
        /// that a few hundred of them seal several blocks.
        fn records() -> impl Strategy<Value = Vec<(u64, WalOp, u64)>> {
            let op = (0u8..6, any::<u64>(), "[a-d() ]{0,60}", 0usize..12).prop_map(
                |(kind, n, piece, times)| {
                    let src = piece.repeat(times);
                    match kind {
                        0 => WalOp::Open { token: None },
                        1 => WalOp::Open { token: Some(n) },
                        2 => WalOp::Eval { seq: None, src },
                        3 => WalOp::Eval { seq: Some(n), src },
                        4 => WalOp::Close { seq: None },
                        _ => WalOp::Close { seq: Some(n) },
                    }
                },
            );
            prop::collection::vec((0u64..40, op, any::<u64>()), 900..1300)
        }

        /// The log as one frame per record: what `frames_from` must
        /// return, byte for byte.
        fn model_pull(frames: &[Vec<u8>], from: u64, max_bytes: usize) -> (Vec<u8>, u64) {
            let mut out = Vec::new();
            let mut next = from;
            while let Some(frame) = frames.get(next as usize) {
                if !out.is_empty() && out.len() + frame.len() > max_bytes {
                    break;
                }
                out.extend_from_slice(frame);
                next += 1;
            }
            (out, next)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(WAL_CASES))]

            /// Block storage is invisible to readers: every pull, from
            /// any LSN (past the end too) under any byte budget (zero
            /// too), equals the pull from a frame-per-record log, for
            /// appends and for a standby's verbatim retention alike.
            /// An idle-pass seal copies a full block out and installs
            /// it up to 160 appends later, as a shard that compresses
            /// outside the lock does while others append: the appends
            /// in between, and any inline seal at the open block's
            /// limit, fall between the copy and the install.
            #[test]
            fn wal_props_pulls_match_a_frame_per_record_log(
                recs in records(),
                retain in any::<bool>(),
                idle in prop::collection::vec((0u8..8, 0usize..160), 1300..1301),
                pulls in prop::collection::vec((any::<u64>(), 0usize..4, 0usize..20_000), 1..32),
            ) {
                let mut wal = Wal::new();
                let mut frames = Vec::new();
                // A copied-out block, compressed, and the LSN after
                // whose append it is installed.
                let mut pending: Option<(OpenCopy, Vec<u8>, usize)> = None;
                let install = |wal: &mut Wal, (block, bytes, _): (OpenCopy, Vec<u8>, usize)| {
                    wal.install(block.first, block.next, block.raw.len(), bytes);
                };
                for (lsn, (session, op, reply_digest)) in recs.into_iter().enumerate() {
                    let rec = WalRecord { lsn: lsn as u64, session, op, reply_digest };
                    if retain {
                        wal.append_record(&rec);
                    } else {
                        let got = wal.append(session, rec.op.clone(), reply_digest);
                        prop_assert_eq!(got, rec.lsn);
                    }
                    let mut frame = Vec::new();
                    rec.encode_into(&mut frame);
                    prop_assert_eq!(frame.len(), rec.frame_len());
                    frames.push(frame);
                    prop_assert_eq!(wal.next_lsn(), frames.len() as u64);
                    if pending.as_ref().is_some_and(|p| p.2 <= lsn) {
                        install(&mut wal, pending.take().unwrap());
                    }
                    // Some appends are followed by an idle pass that
                    // copies out a full block; the others fill toward
                    // the limit.
                    let (pass, delay) = idle[lsn];
                    if pass == 0 && pending.is_none() {
                        pending = copied(&mut wal).map(|block| {
                            let bytes = small_persist::compress(&block.raw);
                            (block, bytes, lsn + delay)
                        });
                    }
                }
                if let Some(p) = pending.take() {
                    install(&mut wal, p);
                }
                prop_assert!(wal.sealed.len() >= 3, "{} sealed blocks", wal.sealed.len());
                let n = frames.len() as u64;
                for (from, kind, budget) in pulls {
                    let from = from % (n + 3);
                    // A budget that some run of frames fills exactly.
                    let exact = frames.iter().skip(from as usize).take(budget % 400);
                    let exact = exact.map(Vec::len).sum();
                    let max_bytes = [0, budget, usize::MAX, exact][kind];
                    prop_assert_eq!(wal.frames_from(from, max_bytes), model_pull(&frames, from, max_bytes));
                }
                for from in [0, n - 1, n, n + 1] {
                    prop_assert_eq!(wal.frames_from(from, 0), model_pull(&frames, from, 0));
                }
                // A replica pulling batch after batch sees the whole log.
                let (mut at, mut all) = (0, Vec::new());
                while at < n {
                    let (batch, next) = wal.frames_from(at, PULL_BATCH_BYTES);
                    all.extend_from_slice(&batch);
                    at = next;
                }
                prop_assert_eq!(all, frames.concat());
            }
        }
    }

    mod lease_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Model check for the lease state machine over arbitrary
            /// beat/miss interleavings: expiry fires at exactly
            /// `miss_threshold` *consecutive* misses, never before,
            /// and never reverts.
            #[test]
            fn lease_expiry_matches_the_consecutive_miss_model(
                threshold in 1u32..6,
                events in prop::collection::vec(any::<bool>(), 0..64),
            ) {
                let mut lease = Lease::new(LeaseParams {
                    miss_threshold: threshold,
                    ..LeaseParams::default()
                });
                let mut consecutive = 0u32;
                let mut expired = false;
                let mut last_lsn = 0u64;
                for (i, &is_beat) in events.iter().enumerate() {
                    if is_beat {
                        lease.beat(i as u64 + 1);
                        if !expired {
                            consecutive = 0;
                            last_lsn = i as u64 + 1;
                        }
                    } else {
                        let fired = lease.miss();
                        if !expired {
                            consecutive += 1;
                            if consecutive >= threshold {
                                expired = true;
                            }
                        }
                        prop_assert_eq!(fired, expired);
                    }
                    prop_assert_eq!(lease.is_expired(), expired);
                    if !expired {
                        prop_assert!(lease.misses() < threshold);
                    }
                    prop_assert_eq!(lease.last_lsn(), last_lsn);
                }
            }
        }
    }

    #[test]
    fn lease_expires_after_consecutive_misses_and_stays_expired() {
        let mut lease = Lease::new(LeaseParams {
            miss_threshold: 3,
            ..LeaseParams::default()
        });
        lease.beat(5);
        assert_eq!((lease.misses(), lease.last_lsn()), (0, 5));
        // Two misses, then an answered beat: the counter clears.
        assert!(!lease.miss());
        assert!(!lease.miss());
        lease.beat(8);
        assert_eq!(lease.misses(), 0);
        // Three consecutive misses expire the lease — exactly at the
        // threshold, deterministically.
        assert!(!lease.miss());
        assert!(!lease.miss());
        assert!(lease.miss());
        assert!(lease.is_expired());
        // Expiry is final: a zombie primary answering late cannot
        // un-expire it.
        lease.beat(11);
        assert!(lease.is_expired());
        assert_eq!(lease.last_lsn(), 8);
    }
}
