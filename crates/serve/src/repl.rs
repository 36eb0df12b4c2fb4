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
//! A [`Standby`] retains every frame it applies in its own [`Wal`]
//! (byte-identical to the primary's — the record encoding is
//! canonical), so it can serve `(pull <lsn>)` to a *downstream*
//! replica: [`RelayNode`] wraps a standby in a TCP listener that
//! answers `(hello …)`/`(ping)` with [`NodeRole::Standby`], ships
//! retained frames to replica connections, publishes per-hop relay lag
//! through `(metrics)`, and refuses session traffic with
//! `(err repl not-primary)`. On promotion the relay hands back its
//! *bound listener* along with the store and retained WAL, so the
//! successor server ([`crate::server::start_promoted`]) serves on the
//! same address with LSN continuity — the downstream replica keeps
//! pulling the same endpoint with its cursor intact, and the chain
//! heals to a fresh primary/standby pair.

use crate::manager::{SessionOp, SessionStore};
use crate::protocol::{err, hello_reply, write_frame, FrameBuf, NodeRole, Reply, Request, Role};
use crate::session::ServeConfig;
use crate::telemetry::VolatileMetrics;
use small_persist::frame::{self, FrameError};
use small_persist::{digest_bytes, ByteReader, DIGEST_SEED};
use std::fmt;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

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

/// Record tags: 0 `open`, 1 `eval`, 2 `close`; plus 3 when the
/// optional token or seq follows the tag.
fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let (tag, opt, src) = match &rec.op {
        WalOp::Open { token } => (0, *token, None),
        WalOp::Eval { seq, src } => (1, *seq, Some(src)),
        WalOp::Close { seq } => (2, *seq, None),
    };
    // The exact payload size: the log retains every frame as built.
    let len = 8 + 8 + 1 + opt.map_or(0, |_| 8) + src.map_or(0, |s| 8 + s.len()) + 8;
    frame::encode(len, |w| {
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

/// The primary's in-memory write-ahead log: encoded frames indexed by
/// LSN. Shards append under a brief mutex held only for the push (the
/// server wraps this in `Arc<Mutex<Wal>>`).
#[derive(Default)]
pub struct Wal {
    frames: Vec<Vec<u8>>,
}

impl Wal {
    /// An empty log.
    pub fn new() -> Wal {
        Wal::default()
    }

    /// Append one record; assigns and returns its LSN.
    pub fn append(&mut self, session: u64, op: WalOp, reply_digest: u64) -> u64 {
        let lsn = self.frames.len() as u64;
        self.frames.push(encode_record(&WalRecord {
            lsn,
            session,
            op,
            reply_digest,
        }));
        lsn
    }

    /// Append an already-decoded record verbatim (the standby's relay
    /// retention path). The encoding is canonical, so the retained
    /// frame is byte-identical to the one the upstream shipped.
    pub fn append_record(&mut self, rec: &WalRecord) {
        debug_assert_eq!(rec.lsn, self.frames.len() as u64, "retention gap");
        self.frames.push(encode_record(rec));
    }

    /// The LSN the next append will get (== records logged so far).
    pub fn next_lsn(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Concatenated frames starting at `from`, bounded by `max_bytes`
    /// (at least one frame if any remain, so pulls always progress).
    /// Returns the batch and the LSN to pull from next.
    pub fn frames_from(&self, from: u64, max_bytes: usize) -> (Vec<u8>, u64) {
        let mut out = Vec::new();
        let mut next = from;
        while (next as usize) < self.frames.len() {
            let frame = &self.frames[next as usize];
            if !out.is_empty() && out.len() + frame.len() > max_bytes {
                break;
            }
            out.extend_from_slice(frame);
            next += 1;
        }
        (out, next)
    }
}

/// Answer a replica's `(pull <from>)` from `wal` — on a primary and a
/// relay alike — and count the shipped batch in `vol`.
pub(crate) fn serve_pull(wal: &Wal, from: u64, vol: &mut VolatileMetrics) -> Reply {
    let (bytes, next) = wal.frames_from(from, PULL_BATCH_BYTES);
    vol.wal_pull_batches.inc();
    vol.wal_shipped.add(next.saturating_sub(from));
    // `(pull <from>)` is the replica's applied-LSN confession:
    // everything below `from` has been replayed on its side.
    vol.note_wal_applied(from);
    Reply::Frames { next, bytes }
}

/// A warm standby: replays pulled WAL batches through its own store
/// under digest verification, ready to be promoted. Every applied frame
/// is retained in the standby's own [`Wal`], so the retained log is
/// also the replay cursor, and the standby can relay it to a
/// downstream replica (and, on promotion, keep shipping from the same
/// LSN space).
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
        let mut applied = 0;
        for rec in &records {
            let expected = self.next_lsn();
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
            let actual = reply_digest(&self.store.execute(rec.session, &op).0);
            if actual != rec.reply_digest {
                return Err(ReplError::Divergence {
                    lsn: rec.lsn,
                    expected: rec.reply_digest,
                    actual,
                });
            }
            self.wal.append_record(rec);
            applied += 1;
        }
        Ok(applied)
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

    /// Promote, keeping the retained WAL: the successor server seeds
    /// its log from it so downstream pull cursors stay valid across
    /// the handover.
    pub fn promote_parts(self) -> (SessionStore, Wal) {
        (self.store, self.wal)
    }
}

// ---------------------------------------------------------------------
// Relay node: a standby that serves downstream replicas
// ---------------------------------------------------------------------

/// Per-connection read timeout on the relay listener: short enough
/// that conn threads notice a stop promptly, long enough to idle
/// cheaply.
const RELAY_READ_TIMEOUT: Duration = Duration::from_millis(50);

struct RelayCore {
    standby: Standby,
    vol: VolatileMetrics,
}

/// What a stopped [`RelayNode`] dismantles into for promotion: the
/// **still-bound listener** (so the successor serves on the same
/// address and the downstream replica's connection target never
/// changes), the replayed store, the retained WAL (LSN continuity for
/// downstream pull cursors), and the relay's volatile metrics.
pub struct RelayParts {
    /// The relay's bound listener, ready to be inherited.
    pub listener: TcpListener,
    /// The replayed session store (dedup windows, token map, id cursor
    /// all warm).
    pub store: SessionStore,
    /// The retained WAL, byte-identical to the upstream's prefix.
    pub wal: Wal,
    /// Relay-side volatile metrics (pull serving counters, hop lag).
    pub vol: VolatileMetrics,
}

/// A chained standby serving the replication protocol over TCP: it
/// answers `(hello …)` and `(ping)` with [`NodeRole::Standby`], ships
/// its retained WAL to downstream `(pull …)`s, publishes per-hop relay
/// lag via `(metrics)`, and refuses session traffic with
/// `(err repl not-primary)` — a cluster-aware client that dials it
/// moves on to the next endpoint. The relay's *own* upstream pulls are
/// driven by the caller through [`RelayNode::apply`] (the campaign
/// drivers pull in lockstep to stay deterministic).
pub struct RelayNode {
    addr: SocketAddr,
    core: Arc<Mutex<RelayCore>>,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<(TcpListener, Vec<JoinHandle<()>>)>,
}

impl RelayNode {
    /// Bind `addr` and start serving the relay protocol.
    pub fn start(addr: &str, cfg: ServeConfig) -> io::Result<RelayNode> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let core = Arc::new(Mutex::new(RelayCore {
            standby: Standby::new(cfg),
            vol: VolatileMetrics::default(),
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if stop.load(Ordering::SeqCst) {
                                break; // the stop() self-connect wakeup
                            }
                            let core = Arc::clone(&core);
                            let stop = Arc::clone(&stop);
                            conns.push(thread::spawn(move || {
                                relay_conn(&core, &stop, stream);
                            }));
                        }
                        Err(_) => {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                        }
                    }
                }
                (listener, conns)
            })
        };
        Ok(RelayNode {
            addr: local,
            core,
            stop,
            accept,
        })
    }

    /// The bound address downstream replicas (and failing-over
    /// clients) dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Apply a batch pulled from the upstream, retaining the frames
    /// for downstream serving (see [`Standby::apply`] for the
    /// fail-closed semantics).
    pub fn apply(&self, bytes: &[u8]) -> Result<usize, ReplError> {
        let mut core = self.lock();
        let n = core.standby.apply(bytes)?;
        let applied = core.standby.next_lsn();
        core.vol.note_relay_applied(applied);
        Ok(n)
    }

    /// Record the upstream's next-LSN (observed by the caller's pull
    /// loop) so `(metrics)` can report this hop's lag.
    pub fn note_upstream(&self, lsn: u64) {
        self.lock().vol.note_relay_upstream(lsn);
    }

    /// The LSN this relay wants next from its upstream: every record
    /// below it is applied and servable downstream.
    pub fn next_lsn(&self) -> u64 {
        self.lock().standby.next_lsn()
    }

    /// This hop's upstream-minus-applied lag.
    pub fn relay_lag(&self) -> u64 {
        self.lock().vol.relay_lag()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RelayCore> {
        self.core.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Stop serving and dismantle into [`RelayParts`]. Connection
    /// threads are joined (they notice the flag within one read
    /// timeout), the accept thread hands the bound listener back, and
    /// the standby is promoted with its retained WAL.
    pub fn stop(self) -> RelayParts {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let (listener, conns) = self.accept.join().expect("relay accept thread");
        for c in conns {
            let _ = c.join();
        }
        let core = Arc::try_unwrap(self.core)
            .map_err(|_| ())
            .expect("relay conns joined")
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        let (store, wal) = core.standby.promote_parts();
        RelayParts {
            listener,
            store,
            wal,
            vol: core.vol,
        }
    }
}

/// One relay connection: incremental frame reassembly through
/// [`FrameBuf`] (torn writes from a faulty transport reassemble
/// cleanly), replies written inline. Exits on EOF, any I/O error, a
/// framing violation, or the relay's stop flag.
fn relay_conn(core: &Arc<Mutex<RelayCore>>, stop: &Arc<AtomicBool>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(RELAY_READ_TIMEOUT));
    let mut fb = FrameBuf::new();
    let mut chunk = [0u8; 4096];
    let mut replica = false;
    loop {
        loop {
            match fb.pop_ref() {
                Ok(Some(text)) => {
                    let reply = relay_reply(core, text, &mut replica);
                    if write_frame(&mut (&stream), &reply.encode()).is_err() {
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => return, // oversized/corrupt framing: drop
            }
        }
        match (&stream).read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => fb.extend(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Map one request to the relay's reply. Only the replication and
/// discovery surface is served; session traffic is refused with a
/// typed `(err repl not-primary)` so a scanning client moves on.
fn relay_reply(core: &Arc<Mutex<RelayCore>>, text: &str, replica: &mut bool) -> Reply {
    let req = match Request::decode(text) {
        Ok(r) => r,
        Err(reply) => return reply,
    };
    match req {
        Request::Hello { version, role } => {
            let reply = hello_reply(version, NodeRole::Standby);
            if matches!(reply, Reply::Hello { .. }) && role == Role::Replica {
                *replica = true;
            }
            reply
        }
        Request::Ping => {
            let core = core.lock().unwrap_or_else(|e| e.into_inner());
            Reply::Pong {
                lsn: core.standby.next_lsn(),
                node: NodeRole::Standby,
            }
        }
        Request::Pull { from } => {
            if !*replica {
                return err("proto", "not-a-replica");
            }
            let mut core = core.lock().unwrap_or_else(|e| e.into_inner());
            let core = &mut *core;
            serve_pull(&core.standby.wal, from, &mut core.vol)
        }
        Request::Metrics => {
            let core = core.lock().unwrap_or_else(|e| e.into_inner());
            Reply::Metrics {
                deterministic: core.standby.store().telemetry().deterministic_json(),
                volatile: core.vol.json(core.standby.store().telemetry()),
            }
        }
        _ => err("repl", "not-primary"),
    }
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
    fn relay_ships_downstream_and_promotes_with_its_listener() {
        use crate::client::Client;
        use crate::protocol::{NodeRole, Role};

        // A primary log with a tokenized open and seq'd mutations —
        // the state a failover must preserve.
        let (_, wal, last) = sequenced_log(7);

        // S1: relay fed by the harness (the upstream hop), serving TCP.
        let relay = RelayNode::start("127.0.0.1:0", cfg(1)).expect("bind relay");
        let addr = relay.addr();
        relay.note_upstream(wal.next_lsn());
        assert_eq!(relay.relay_lag(), wal.next_lsn());
        while relay.next_lsn() < wal.next_lsn() {
            let (batch, _) = wal.frames_from(relay.next_lsn(), 96);
            relay.apply(&batch).expect("relay apply");
        }
        assert_eq!(relay.relay_lag(), 0);

        // S2: a downstream standby catching up over the wire — the
        // second hop of the chain.
        let mut s2 = Standby::new(cfg(3));
        let mut down = Client::connect(addr, Role::Replica).expect("dial relay");
        assert_eq!(down.node_role(), NodeRole::Standby);
        down.catch_up(&mut s2, wal.next_lsn())
            .expect("chain catchup");
        assert_eq!(s2.next_lsn(), wal.next_lsn());

        // Discovery surface: standby role on hello and ping, session
        // traffic refused, pulls gated on the replica role, metrics
        // expose the hop lag.
        let mut c = Client::connect(addr, Role::Client).expect("dial as client");
        assert_eq!(c.node_role(), NodeRole::Standby);
        assert_eq!(c.ping().expect("ping"), wal.next_lsn());
        assert_eq!(c.request_text("(open)").unwrap(), "(err repl not-primary)");
        assert_eq!(
            c.request_text("(pull 0)").unwrap(),
            "(err proto not-a-replica)"
        );
        match c.request(&Request::Metrics).expect("metrics") {
            Reply::Metrics { volatile, .. } => {
                assert!(volatile.contains("\"relay_lag\":0"), "{volatile}");
            }
            other => panic!("want metrics, got {}", other.encode()),
        }
        drop(c);
        drop(down);

        // Stop → promotion parts: the listener survives still bound to
        // the same address, the retained WAL keeps LSN continuity, and
        // the store answers a retried pre-failover mutation from the
        // replicated dedup window.
        let mut parts = relay.stop();
        assert_eq!(parts.listener.local_addr().unwrap(), addr);
        assert_eq!(parts.wal.next_lsn(), wal.next_lsn());
        assert_dedup_survives(&mut parts.store, 7, &last);
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
