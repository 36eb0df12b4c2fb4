//! Shard event loops: pinned sessions, bounded queues, ordered drain.
//!
//! The server runs `nshards` single-threaded event loops. Every
//! session is *pinned* to the shard `id % nshards`; that shard's
//! [`SessionStore`] is touched by that shard's thread only, so
//! per-session request serialization is structural — no lock protects
//! a session, because no two threads can ever want one.
//!
//! Connections are distributed round-robin across shards by the
//! acceptor. The owning shard decodes frames and routes each
//! session-targeting request to the home shard's **bounded run queue**
//! ([`RunQueue::try_push`]). A full queue sheds the request *at decode
//! time* with a typed `(err busy queue-full <shard>)` reply in the
//! request's reply slot — deterministic back-pressure in place of
//! unbounded accept; the connection stays open and ordered. Requests
//! that touch no session (`hello`, `stats`, `pull`, malformed frames)
//! are answered immediately by the owning shard.
//!
//! # Drain (the shutdown/suspend race, fixed structurally)
//!
//! Graceful shutdown is a two-barrier protocol over [`SharedState`]:
//!
//! 1. Each shard, on observing `stop`, stops adopting connections and
//!    decoding frames, then acknowledges on `decode_done`. Once all
//!    `nshards` have acknowledged, **no new job can ever be enqueued**.
//! 2. Each shard then drains its own run queue to empty — executing
//!    every remaining job, including the LRU suspends those jobs
//!    trigger, which run synchronously inside the loop — and
//!    acknowledges on `queues_done`. Once all have acknowledged, every
//!    reply has been completed and every suspend-to-checkpoint blob is
//!    fully written.
//!
//! Only then do shards flush remaining bytes and return their stores
//! to the joiner. A suspend can therefore never be in flight when the
//! server exits: the old drain path could race an in-flight
//! suspend-to-checkpoint and tear the blob; this one cannot, and
//! [`crate::server::DrainOutcome::verify_suspended`] checks it.

use crate::manager::{SessionOp, SessionStore, TokenRoutes};
use crate::protocol::{
    busy_reply, err, err_with, hello_reply, NodeRole, Reply, Request, Role, StatsBody,
};
use crate::reactor::{Conn, Outbox};
use crate::repl::{reply_digest, serve_pull, Wal, WalOp};
use crate::telemetry::{ShardMetrics, TraceLog, VolatileMetrics};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Idle sleep between event-loop passes that did no work.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// How long the final flush may take per shard before giving up on
/// unresponsive peers.
const DRAIN_FLUSH_DEADLINE: Duration = Duration::from_secs(2);

/// One queued unit of work: a session op plus the reply slot it must
/// fill.
pub struct Job {
    /// Reply slot in the connection's outbox.
    pub seq: u64,
    /// The connection's outbox (shared with the owning shard).
    pub outbox: Arc<Outbox>,
    /// The target session (for an open: the id the decoding shard
    /// reserved, or resolved through the token routes for a retried
    /// tokenized open). It pins the job to its home shard.
    pub id: u64,
    /// What to do.
    pub op: SessionOp,
}

/// A bounded MPSC run queue: any shard pushes, the home shard drains.
pub struct RunQueue {
    cap: usize,
    q: Mutex<VecDeque<Job>>,
}

impl RunQueue {
    /// A queue admitting at most `cap` jobs.
    pub fn new(cap: usize) -> RunQueue {
        RunQueue {
            cap,
            q: Mutex::new(VecDeque::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.q.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Push unless full. On `Err` the caller sheds the job with a
    /// typed busy reply — never silently.
    pub fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut q = self.lock();
        if q.len() >= self.cap {
            Err(job)
        } else {
            q.push_back(job);
            Ok(())
        }
    }

    /// Take everything currently queued, in FIFO order.
    pub fn drain_all(&self) -> Vec<Job> {
        self.lock().drain(..).collect()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

/// State shared by the acceptor, every shard, and the server handle.
pub struct SharedState {
    /// One bounded run queue per shard.
    pub queues: Vec<Arc<RunQueue>>,
    /// One incoming-connection inbox per shard (acceptor → shard).
    pub inboxes: Vec<Mutex<Vec<TcpStream>>>,
    /// Per-shard published stats (each shard writes its own cell).
    pub stats: Vec<Mutex<StatsBody>>,
    /// Per-shard published request telemetry (each shard copies its
    /// store's registry into its own cell, before releasing replies —
    /// same publication discipline as `stats`).
    pub telemetry: Vec<Mutex<ShardMetrics>>,
    /// Per-shard volatile observables (queue depth, sheds, WAL lag).
    pub volatile: Vec<Mutex<VolatileMetrics>>,
    /// Wall-clock span log, when tracing is on.
    pub trace: Option<Arc<TraceLog>>,
    /// Drain flag: set by `(shutdown)` or the server handle.
    pub stop: AtomicBool,
    /// Shards that have permanently stopped decoding (barrier 1).
    pub decode_done: AtomicUsize,
    /// Shards whose run queue has fully drained (barrier 2).
    pub queues_done: AtomicUsize,
    /// Global session-id allocator (decode-order dense).
    pub next_id: AtomicU64,
    /// Idempotency-token → session-id routes ([`TokenRoutes`]): the
    /// owning store performs the authoritative dedup; this map only
    /// guarantees a retried `(open <token>)` pins to the same shard.
    pub open_tokens: Mutex<TokenRoutes>,
    /// The replication log, when the server runs as a primary.
    pub wal: Option<Mutex<Wal>>,
    /// The listen address (shards self-connect to unblock the
    /// acceptor when a client-initiated shutdown sets `stop`).
    pub addr: SocketAddr,
}

impl SharedState {
    /// Shard count.
    pub fn nshards(&self) -> usize {
        self.queues.len()
    }

    /// The shard session `id` is pinned to.
    pub fn home(&self, id: u64) -> usize {
        (id % self.nshards() as u64) as usize
    }

    /// Begin drain (idempotent) and unblock the acceptor.
    pub fn begin_stop(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            // Fire-and-forget self-connect; the acceptor wakes, sees
            // `stop`, and exits. Failure is harmless (listener gone).
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Sum every shard's published stats cell.
    pub fn stats_reply(&self) -> Reply {
        let mut body = StatsBody {
            sessions: 0,
            evictions: 0,
            resumes: 0,
            requests: 0,
            counts: [0u64; 22],
        };
        for cell in &self.stats {
            let c = cell.lock().unwrap_or_else(|e| e.into_inner());
            body.sessions += c.sessions;
            body.evictions += c.evictions;
            body.resumes += c.resumes;
            body.requests += c.requests;
            for (total, v) in body.counts.iter_mut().zip(c.counts.iter()) {
                *total += v;
            }
        }
        Reply::Stats(Box::new(body))
    }

    /// Merge every shard's published telemetry cells into one snapshot.
    /// Histogram merging is order-independent, so the deterministic
    /// section depends only on the multiset of served requests — not on
    /// which shard served what or when the cells are read.
    pub fn merged_telemetry(&self) -> (ShardMetrics, VolatileMetrics) {
        let mut reqs = ShardMetrics::default();
        for cell in &self.telemetry {
            reqs.merge(&cell.lock().unwrap_or_else(|e| e.into_inner()));
        }
        let mut vol = VolatileMetrics::default();
        for cell in &self.volatile {
            vol.merge(&cell.lock().unwrap_or_else(|e| e.into_inner()));
        }
        (reqs, vol)
    }

    /// The `(ok metrics …)` reply: both JSON sections from the merged
    /// snapshot.
    pub fn metrics_reply(&self) -> Reply {
        let (reqs, vol) = self.merged_telemetry();
        Reply::Metrics {
            deterministic: reqs.deterministic_json(),
            volatile: vol.json(&reqs),
        }
    }
}

/// Run the jobs currently in this shard's queue; returns how many ran.
///
/// WAL appends happen *before* the reply is completed into its outbox:
/// by the time a client can observe an acknowledgement, the record is
/// pullable. Mutating error replies (`no-such-session`, even a
/// contained panic) are logged too, so a standby replays the exact
/// request stream and the digest check keeps both sides honest.
fn run_queue_jobs(me: usize, store: &mut SessionStore, shared: &SharedState) -> usize {
    let jobs = shared.queues[me].drain_all();
    if jobs.is_empty() {
        return 0;
    }
    let tid = me as u32 + 1;
    let mut wal_appends = 0u64;
    // Sample run-queue occupancy at every non-empty drain (volatile:
    // depends on arrival timing).
    shared.volatile[me]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .queue_depth
        .record(jobs.len() as u64);
    let mut completions: Vec<(Arc<Outbox>, u64, Reply)> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let span = shared.trace.as_ref().map(|log| {
            let name = match &job.op {
                SessionOp::Write(WalOp::Open { .. }) => "run:open",
                SessionOp::Write(WalOp::Eval { .. }) => "run:eval",
                SessionOp::Write(WalOp::Close { .. }) => "run:close",
                SessionOp::Ledger => "run:ledger",
                SessionOp::Digest => "run:digest",
            };
            log.span(tid, name)
        });
        // A contained panic journals the mutation it interrupted.
        let (reply, journal) = catch_unwind(AssertUnwindSafe(|| store.execute(job.id, &job.op)))
            .unwrap_or_else(|_| (err("session", "panicked"), job.op.write()));
        drop(span);
        if let (Some(wal), Some(op)) = (&shared.wal, journal) {
            wal.lock().unwrap_or_else(|e| e.into_inner()).append(
                job.id,
                op.clone(),
                reply_digest(&reply),
            );
            wal_appends += 1;
        }
        if matches!(job.op, SessionOp::Write(WalOp::Close { .. }))
            && matches!(reply, Reply::Closed { .. })
        {
            // The session is gone: retire its token route so the
            // decode-time map stays bounded (duplicate retries stay
            // answerable for TOKEN_RETENTION closes).
            shared
                .open_tokens
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .note_close(job.id);
        }
        completions.push((job.outbox, job.seq, reply));
    }
    let ran = completions.len();
    // Publish this shard's stats and telemetry before releasing any
    // reply: a client that sees an acknowledgement and immediately asks
    // `(stats)` or `(metrics)` on another shard gets counters that
    // already include its request.
    *shared.stats[me].lock().unwrap_or_else(|e| e.into_inner()) = store.stats_body();
    *shared.telemetry[me]
        .lock()
        .unwrap_or_else(|e| e.into_inner()) = store.telemetry().clone();
    if wal_appends > 0 {
        shared.volatile[me]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .wal_appended
            .add(wal_appends);
    }
    for (outbox, seq, reply) in completions {
        outbox.complete(seq, &reply);
    }
    ran
}

/// Decode-time handling of one decoded frame: answer connection-scoped
/// requests immediately, route session-scoped ones to their home
/// shard's bounded queue. `decoded` is [`Conn::next_request`]'s output
/// — the typed request, or the typed error reply a malformed frame
/// earned.
fn handle_request(
    me: usize,
    decoded: Result<Request, Reply>,
    conn: &mut Conn,
    shared: &SharedState,
) {
    let seq = conn.outbox.alloc();
    let req = match decoded {
        Ok(r) => r,
        Err(reply) => {
            conn.outbox.complete(seq, &reply);
            return;
        }
    };
    let route = |id: u64, op: SessionOp, conn: &Conn| {
        let target = shared.home(id);
        let job = Job {
            seq,
            outbox: Arc::clone(&conn.outbox),
            id,
            op,
        };
        if shared.queues[target].try_push(job).is_err() {
            // Shed at decode time: typed, ordered, connection intact.
            // The shed is charged to the shard whose queue was full.
            shared.volatile[target]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .busy_sheds
                .inc();
            conn.outbox.complete(seq, &busy_reply(target));
        }
    };
    match req {
        Request::Hello { version, role } => {
            let reply = hello_reply(version, NodeRole::Primary);
            if matches!(reply, Reply::Hello { .. }) {
                conn.role = Some(role);
            } else {
                conn.close_after_flush = true;
            }
            conn.outbox.complete(seq, &reply);
        }
        Request::Stats => conn.outbox.complete(seq, &shared.stats_reply()),
        Request::Metrics => conn.outbox.complete(seq, &shared.metrics_reply()),
        Request::Ping => {
            // Answered at decode time so heartbeats stay cheap and
            // cannot be shed by a full run queue.
            let lsn = shared
                .wal
                .as_ref()
                .map(|w| w.lock().unwrap_or_else(|e| e.into_inner()).next_lsn())
                .unwrap_or(0);
            conn.outbox.complete(
                seq,
                &Reply::Pong {
                    lsn,
                    node: NodeRole::Primary,
                },
            );
        }
        Request::Shutdown => {
            conn.outbox.complete(seq, &Reply::Draining);
            shared.begin_stop();
        }
        Request::Pull { from } => {
            let reply = match (&conn.role, &shared.wal) {
                (Some(Role::Replica), Some(wal)) => {
                    let _span = shared
                        .trace
                        .as_ref()
                        .map(|log| log.span(me as u32 + 1, "wal_ship"));
                    let wal = wal.lock().unwrap_or_else(|e| e.into_inner());
                    let mut vol = shared.volatile[me]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    serve_pull(&wal, from, &mut vol)
                }
                (_, None) => err("repl", "disabled"),
                _ => err("proto", "not-a-replica"),
            };
            conn.outbox.complete(seq, &reply);
        }
        Request::Open { token } => {
            let alloc = || shared.next_id.fetch_add(1, Ordering::SeqCst);
            // Resolve a token to a stable id *before* pinning, so a
            // retried open routes to the same home shard as the
            // original and the store-level dedup can see it.
            let id = match token {
                None => alloc(),
                Some(t) => shared
                    .open_tokens
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .resolve_or_insert(t, alloc),
            };
            route(id, WalOp::Open { token }.into(), conn);
        }
        Request::Eval { id, seq, src } => route(id, WalOp::Eval { seq, src }.into(), conn),
        Request::Ledger { id } => route(id, SessionOp::Ledger, conn),
        Request::Digest { id } => route(id, SessionOp::Digest, conn),
        Request::Close { id, seq } => route(id, WalOp::Close { seq }.into(), conn),
    }
}

/// The shard event loop. Returns the shard's store once drained, so
/// the joiner can audit suspended blobs and aggregate final state.
pub fn shard_loop(
    me: usize,
    mut store: SessionStore,
    shared: Arc<SharedState>,
    max_conns: usize,
) -> SessionStore {
    let mut conns: Vec<Conn> = Vec::new();
    let mut decode_acked = false;
    let mut queue_acked = false;
    let nshards = shared.nshards();
    loop {
        let mut worked = 0usize;

        if !decode_acked {
            if shared.stop.load(Ordering::SeqCst) {
                // Barrier 1: this shard will never adopt, read, or
                // route again.
                decode_acked = true;
                shared.decode_done.fetch_add(1, Ordering::SeqCst);
            } else {
                // Adopt newly accepted connections, shedding over the
                // cap with a typed reply (never a silent close).
                let incoming: Vec<TcpStream> = shared.inboxes[me]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .drain(..)
                    .collect();
                let accept_span = (!incoming.is_empty())
                    .then(|| shared.trace.as_ref())
                    .flatten()
                    .map(|log| log.span(me as u32 + 1, "accept"));
                for stream in incoming {
                    worked += 1;
                    if conns.len() >= max_conns {
                        let mut stream = stream;
                        let reject = err_with("busy", "too-many-connections", &[&me.to_string()]);
                        let _ = crate::protocol::write_frame(&mut stream, &reject.encode());
                        shared.volatile[me]
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .conn_sheds
                            .inc();
                        continue; // dropped: peer got the typed reply first
                    }
                    if let Ok(conn) = Conn::adopt(stream) {
                        conns.push(conn);
                    }
                }
                drop(accept_span);
                // Decode and route everything readable. Frames are
                // decoded borrowed straight out of the receive buffer
                // ([`Conn::next_request`]) — no per-frame text
                // allocation on this path.
                for conn in conns.iter_mut() {
                    conn.fill();
                    let mut decode_span = None;
                    while let Some(decoded) = conn.next_request() {
                        if decode_span.is_none() {
                            decode_span = shared
                                .trace
                                .as_ref()
                                .map(|log| log.span(me as u32 + 1, "decode"));
                        }
                        worked += 1;
                        handle_request(me, decoded, conn, &shared);
                    }
                    drop(decode_span);
                }
            }
        }

        // Execute whatever reached this shard's queue.
        worked += run_queue_jobs(me, &mut store, &shared);

        // Flush replies; retire finished connections. The span is only
        // recorded when some outbox actually had bytes in flight.
        let flush_t0 = shared.trace.as_ref().map(|log| log.now_us());
        let mut flushed_any = false;
        for conn in &mut conns {
            flushed_any |= conn.flush();
        }
        if flushed_any {
            if let (Some(log), Some(t0)) = (shared.trace.as_ref(), flush_t0) {
                log.record(me as u32 + 1, "flush", t0);
            }
        }
        conns.retain(|c| !c.finished());

        if decode_acked && shared.decode_done.load(Ordering::SeqCst) == nshards {
            // No producer remains anywhere. Drain to empty (each pass
            // may trigger synchronous LRU suspends — they complete
            // inside `run_queue_jobs`, so barrier 2 implies every
            // checkpoint blob is fully written).
            while !shared.queues[me].is_empty() {
                run_queue_jobs(me, &mut store, &shared);
            }
            if !queue_acked {
                queue_acked = true;
                shared.queues_done.fetch_add(1, Ordering::SeqCst);
            }
            if shared.queues_done.load(Ordering::SeqCst) == nshards {
                // Every reply in the system is completed; push the
                // remaining bytes out and go home.
                let deadline = Instant::now() + DRAIN_FLUSH_DEADLINE;
                loop {
                    let mut pending = false;
                    for conn in &mut conns {
                        pending |= conn.flush();
                    }
                    conns.retain(|c| !c.finished());
                    if !pending || Instant::now() >= deadline {
                        break;
                    }
                    std::thread::sleep(IDLE_SLEEP);
                }
                *shared.stats[me].lock().unwrap_or_else(|e| e.into_inner()) = store.stats_body();
                *shared.telemetry[me]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner()) = store.telemetry().clone();
                return store;
            }
        }

        if worked == 0 {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(seq: u64) -> Job {
        Job {
            seq,
            outbox: Outbox::new(),
            id: seq,
            op: SessionOp::Ledger,
        }
    }

    #[test]
    fn bounded_queue_sheds_deterministically() {
        let q = RunQueue::new(1);
        assert!(q.try_push(job(0)).is_ok());
        // Queue of one: the second push is always rejected, the
        // rejected job comes back intact for its busy reply.
        let back = q.try_push(job(1)).unwrap_err();
        assert_eq!(back.seq, 1);
        let drained = q.drain_all();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].seq, 0);
        assert!(q.is_empty());
        // Space freed: pushes succeed again.
        assert!(q.try_push(job(2)).is_ok());
    }
}
