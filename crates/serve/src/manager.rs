//! The per-shard session store: N independent machines, one owner.
//!
//! The sharded server pins every session to the shard selected by
//! `id % nshards`, and each shard's event loop is the *only* thread
//! that ever touches that shard's [`SessionStore`]. Per-session request
//! serialization is therefore **structural** — there is no checkout
//! protocol, no condvar, no `Busy` state, and no lock anywhere in this
//! module. (The previous serving core mediated ownership through a
//! `Mutex`/`Condvar` checkout discipline; the shard architecture made
//! all of that machinery unnecessary, and it was deleted rather than
//! kept dormant.)
//!
//! Sessions live in two states: **resident** (machine in memory) and
//! **suspended** (serialized to a `small-persist` checkpoint blob by
//! LRU eviction). Eviction runs after every touch: while more than
//! [`ServeConfig::max_resident`] sessions are resident, the
//! least-recently-used is suspended to bytes. The slot keeps the event
//! counts serialized in the blob beside it, so `(stats)` and
//! `(metrics)` publication never reads a blob: a suspended session
//! costs nothing until it is touched. Suspension is
//! stats-neutral (see [`Session::suspend`]), so eviction policy cannot
//! influence any session's replies or ledger; the soak and failover
//! harnesses gate on exactly that.
//!
//! Because suspension happens synchronously inside the owning shard's
//! loop, a suspend is always complete — blob fully written — before
//! the store can be drained at shutdown. [`SessionStore::verify_suspended`]
//! makes that checkable: the drain path decodes every suspended blob
//! and fails loudly if any is torn.
//!
//! Every session request reaches the store through one executor,
//! [`SessionStore::execute`]: the shard runs routed jobs through it, a
//! standby replays WAL records through it, and [`SessionStore::apply`]
//! (the serial **twin** the soak and campaign harnesses compare wire
//! transcripts against) maps a typed [`Request`] onto it. What a
//! request does to the store, and what a primary journals for it, is
//! therefore decided in exactly one place.

use crate::protocol::{
    err, hello_reply, seq_gap_reply, seq_too_old_reply, NodeRole, Reply, Request, StatsBody,
};
use crate::repl::WalOp;
use crate::session::{ServeConfig, Session};
use crate::telemetry::{ReqKind, ShardMetrics, TraceLog, VolatileMetrics};
use small_metrics::EventCounts;
use small_persist::PersistError;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// How many *closed* sessions' idempotency tokens stay answerable.
/// A live session's token is never evicted; once the session closes its
/// token moves to a FIFO retention ring of this capacity, deep enough
/// to answer any plausibly-in-flight duplicate `(open <token>)` retry
/// without letting the map grow without bound.
pub const TOKEN_RETENTION: usize = 64;

/// How many cached sequenced-close replies are retained (same FIFO
/// discipline as [`TOKEN_RETENTION`]): enough to answer a retried
/// `(close <id> <seq>)` that raced a reset, bounded so the cache cannot
/// grow with session churn.
pub const CLOSED_RETENTION: usize = 64;

/// A session-scoped operation: what [`SessionStore::execute`] runs
/// against one session id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOp {
    /// `open`, `eval` or `close`. The op is its own journal record:
    /// when it takes effect, a primary appends exactly this.
    Write(WalOp),
    /// `(ledger <id>)`.
    Ledger,
    /// `(digest <id>)`.
    Digest,
}

impl From<WalOp> for SessionOp {
    fn from(op: WalOp) -> SessionOp {
        SessionOp::Write(op)
    }
}

impl SessionOp {
    /// The mutation this op would journal, if it is one.
    pub fn write(&self) -> Option<&WalOp> {
        match self {
            SessionOp::Write(op) => Some(op),
            SessionOp::Ledger | SessionOp::Digest => None,
        }
    }
}

/// Idempotency-token → session-id routes with bounded retention.
///
/// Routes for **live** sessions are pinned; once the session closes its
/// route moves to a [`TOKEN_RETENTION`]-deep FIFO that keeps recently
/// closed opens answerable for duplicate retries while bounding the map
/// for any workload length. The store holds one to dedup `(open
/// <token>)`; the server holds one to resolve a token to its id at
/// decode time, so a retried open reaches the same home shard.
#[derive(Default)]
pub struct TokenRoutes {
    by_token: HashMap<u64, u64>,
    /// Reverse map for live sessions only (id → token).
    by_id: HashMap<u64, u64>,
    /// Closed sessions' tokens, oldest first.
    retired: VecDeque<u64>,
}

impl TokenRoutes {
    /// An empty routing table.
    pub fn new() -> TokenRoutes {
        TokenRoutes::default()
    }

    /// The session `token` opened, while its route is held.
    pub fn get(&self, token: u64) -> Option<u64> {
        self.by_token.get(&token).copied()
    }

    /// Resolve `token` to its stable session id, allocating through
    /// `alloc` on first sight.
    pub fn resolve_or_insert(&mut self, token: u64, alloc: impl FnOnce() -> u64) -> u64 {
        if let Some(id) = self.get(token) {
            return id;
        }
        let id = alloc();
        self.bind(token, id);
        id
    }

    /// Bind `token` to live session `id`.
    pub fn bind(&mut self, token: u64, id: u64) {
        self.by_token.insert(token, id);
        self.by_id.insert(id, token);
    }

    /// The session closed: move its token (if any) into the retired
    /// ring, evicting the oldest route once over the retention cap.
    pub fn note_close(&mut self, id: u64) {
        let Some(token) = self.by_id.remove(&id) else {
            return;
        };
        self.retired.push_back(token);
        while self.retired.len() > TOKEN_RETENTION {
            if let Some(old) = self.retired.pop_front() {
                self.by_token.remove(&old);
            }
        }
    }

    /// Every held route (live and retired) as `(token, id)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.by_token.iter().map(|(&t, &id)| (t, id))
    }

    /// Total routes currently held (live + retired).
    pub fn len(&self) -> usize {
        self.by_token.len()
    }

    /// Whether no routes are held.
    pub fn is_empty(&self) -> bool {
        self.by_token.is_empty()
    }
}

enum Slot {
    Resident(Box<Session>),
    /// A [`Session::suspend`] blob and the event counts serialized in
    /// it, carried alongside so `(stats)` never decodes the blob.
    Suspended(Vec<u8>, EventCounts),
}

/// Owns every session pinned to one shard (or, in the serial-twin and
/// standby roles, every session outright).
pub struct SessionStore {
    cfg: ServeConfig,
    slots: HashMap<u64, Slot>,
    /// id → last-touch tick, for LRU victim selection.
    touch: HashMap<u64, u64>,
    clock: u64,
    next_id: u64,
    evictions: u64,
    resumes: u64,
    /// Counts carried by sessions that have been closed (so `(stats)`
    /// keeps covering them).
    retired: EventCounts,
    /// The `(open <token>)` dedup routes: a retried tokenized open
    /// returns the original `(ok opened <id>)` instead of creating a
    /// second session.
    tokens: TokenRoutes,
    /// Per-id cached reply of the last *sequenced* close, so a retried
    /// `(close <id> <seq>)` that raced a reset is answered from cache
    /// instead of `no-such-session`. Bounded by [`CLOSED_RETENTION`]
    /// via `closed_order`.
    closed: HashMap<u64, (u64, Reply)>,
    /// FIFO of ids in `closed`, oldest first.
    closed_order: VecDeque<u64>,
    /// Per-request-kind latency telemetry for every request this store
    /// served. The virtual-cycle histograms are deterministic (latency
    /// is a pure function of each request's operation stream — see
    /// [`Session::take_cycles`]); the wall histograms fill only under
    /// [`SessionStore::with_wall`].
    telemetry: ShardMetrics,
    wall: bool,
    /// Wall-clock span log and this store's trace thread, when tracing.
    trace: Option<(Arc<TraceLog>, u32)>,
}

impl SessionStore {
    /// An empty store.
    pub fn new(cfg: ServeConfig) -> SessionStore {
        SessionStore {
            cfg,
            slots: HashMap::new(),
            touch: HashMap::new(),
            clock: 0,
            next_id: 0,
            evictions: 0,
            resumes: 0,
            retired: EventCounts::default(),
            tokens: TokenRoutes::new(),
            closed: HashMap::new(),
            closed_order: VecDeque::new(),
            telemetry: ShardMetrics::default(),
            wall: false,
            trace: None,
        }
    }

    /// Enable wall-clock request timing (the volatile half of the
    /// telemetry; off by default so unpinned machines don't report
    /// noise).
    pub fn with_wall(mut self, wall: bool) -> SessionStore {
        self.wall = wall;
        self
    }

    /// Attach a span log; suspend/resume lifecycle events on this store
    /// record to trace thread `tid`.
    pub fn with_trace(mut self, log: Arc<TraceLog>, tid: u32) -> SessionStore {
        self.trace = Some((log, tid));
        self
    }

    /// The store's request telemetry.
    pub fn telemetry(&self) -> &ShardMetrics {
        &self.telemetry
    }

    /// The configuration sessions are built with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    fn wall_start(&self) -> Option<Instant> {
        self.wall.then(Instant::now)
    }

    fn record_req(&mut self, kind: ReqKind, cycles: u64, t0: Option<Instant>) {
        let wall_us = t0.map(|t| t.elapsed().as_micros() as u64);
        self.telemetry.record(kind, cycles, wall_us);
    }

    /// Run one session op on session `id` (for an open: the id to
    /// create). Returns the reply and the journal: the [`WalOp`] a
    /// primary appends for it, or `None` for a read or a no-effect
    /// answer — a deduplicated retry, a seq gap or a stale seq, none of
    /// which may re-enter the WAL. Seq-less mutations are journaled even
    /// when they fail (`no-such-session`), so a standby replays the
    /// exact request stream and the digest check keeps both sides
    /// honest.
    pub fn execute<'a>(&mut self, id: u64, op: &'a SessionOp) -> (Reply, Option<&'a WalOp>) {
        let (reply, took_effect) = match op {
            SessionOp::Write(WalOp::Open { token }) => self.open(id, *token),
            SessionOp::Write(WalOp::Eval { seq, src }) => self.eval(id, *seq, src),
            SessionOp::Write(WalOp::Close { seq }) => self.close(id, *seq),
            SessionOp::Ledger => (self.read(id, ReqKind::Ledger, Session::ledger_reply), false),
            SessionOp::Digest => (self.read(id, ReqKind::Digest, Session::digest_reply), false),
        };
        (reply, op.write().filter(|_| took_effect))
    }

    /// Create session `id`, idempotently under `token`: a held token
    /// answers the original `(ok opened <id>)` and creates nothing.
    /// Advances the store's own id cursor past `id`, so store-allocated
    /// ids never collide with server-assigned ones (promotion relies on
    /// this).
    fn open(&mut self, id: u64, token: Option<u64>) -> (Reply, bool) {
        if let Some(existing) = token.and_then(|t| self.tokens.get(t)) {
            return (Reply::Opened { id: existing }, false);
        }
        if self.slots.contains_key(&id) {
            return (err("session", "duplicate-session"), token.is_none());
        }
        let t0 = self.wall_start();
        self.next_id = self.next_id.max(id + 1);
        let session = Box::new(Session::new(id, &self.cfg));
        self.slots.insert(id, Slot::Resident(session));
        self.touch(id);
        self.enforce_lru();
        self.record_req(ReqKind::Open, 0, t0);
        if let Some(t) = token {
            self.tokens.bind(t, id);
        }
        (Reply::Opened { id }, true)
    }

    fn touch(&mut self, id: u64) {
        self.clock += 1;
        self.touch.insert(id, self.clock);
    }

    /// Evict least-recently-touched resident sessions until at most
    /// `max_resident` remain resident.
    fn enforce_lru(&mut self) {
        while self.resident_count() > self.cfg.max_resident {
            let victim = self
                .slots
                .iter()
                .filter(|(_, s)| matches!(s, Slot::Resident(_)))
                .map(|(&id, _)| id)
                .min_by_key(|id| self.touch.get(id).copied().unwrap_or(0))
                .expect("resident set non-empty");
            let Some(Slot::Resident(session)) = self.slots.remove(&victim) else {
                unreachable!("victim chosen from resident set");
            };
            // Synchronous suspend: by the time this statement finishes
            // the blob is fully written. There is no in-flight state
            // for a drain to race.
            let trace = self.trace.clone();
            let _span = trace.as_ref().map(|(log, tid)| log.span(*tid, "suspend"));
            let (blob, counts) = session.suspend_with_counts();
            self.slots.insert(victim, Slot::Suspended(blob, counts));
            self.evictions += 1;
        }
    }

    fn resident_count(&self) -> usize {
        self.slots
            .values()
            .filter(|s| matches!(s, Slot::Resident(_)))
            .count()
    }

    /// Run `f` against session `id`, resuming it if it was evicted.
    /// A corrupt blob fails closed: the session is dropped and the
    /// typed persist error is the reply.
    fn with_session(&mut self, id: u64, f: impl FnOnce(&mut Session) -> Reply) -> Reply {
        match self.slots.get_mut(&id) {
            None => err("session", "no-such-session"),
            Some(Slot::Resident(_)) => {
                self.touch(id);
                let Some(Slot::Resident(s)) = self.slots.get_mut(&id) else {
                    unreachable!("matched resident above");
                };
                let reply = f(s);
                self.enforce_lru();
                reply
            }
            Some(Slot::Suspended(..)) => {
                let Some(Slot::Suspended(bytes, _)) = self.slots.remove(&id) else {
                    unreachable!("matched suspended above");
                };
                let trace = self.trace.clone();
                let resume_span = trace.as_ref().map(|(log, tid)| log.span(*tid, "resume"));
                let resumed = Session::resume(id, &self.cfg, &bytes);
                drop(resume_span);
                match resumed {
                    Ok(mut s) => {
                        self.resumes += 1;
                        // Discard any cycles the resume machinery
                        // accrued (handle re-wrapping): request latency
                        // must not depend on whether the session was
                        // evicted, or the twin comparison would break.
                        let _ = s.take_cycles();
                        let reply = f(&mut s);
                        self.slots.insert(id, Slot::Resident(Box::new(s)));
                        self.touch(id);
                        self.enforce_lru();
                        reply
                    }
                    Err(e) => {
                        self.touch.remove(&id);
                        Session::persist_reply(&e)
                    }
                }
            }
        }
    }

    /// Compile and run a request program on session `id`; under `seq`,
    /// exactly once (see [`Session::eval_seq`]). The request's
    /// virtual-cycle cost (priced by the session's
    /// [`crate::telemetry::ServeSink`]) lands in this store's telemetry.
    fn eval(&mut self, id: u64, seq: Option<u64>, src: &str) -> (Reply, bool) {
        let t0 = self.wall_start();
        let mut cycles = 0;
        let mut took_effect = seq.is_none();
        let reply = self.with_session(id, |s| {
            let r = match seq {
                None => s.eval(src),
                Some(seq) => {
                    let (r, applied) = s.eval_seq(seq, src);
                    took_effect = applied;
                    r
                }
            };
            cycles = s.take_cycles();
            r
        });
        self.record_req(ReqKind::Eval, cycles, t0);
        (reply, took_effect)
    }

    /// A read-only reply about session `id`. Reads run no machine
    /// operations, so their virtual-cycle cost is 0 by definition; the
    /// histogram still counts them.
    fn read(&mut self, id: u64, kind: ReqKind, f: fn(&Session) -> Reply) -> Reply {
        let t0 = self.wall_start();
        let reply = self.with_session(id, |s| f(s));
        self.record_req(kind, 0, t0);
        reply
    }

    /// Close a session: shut its machine down and remove it. The reply
    /// carries the residual LPT occupancy (0 unless the session leaked
    /// cyclic garbage). Under `seq` the close happens exactly once: a
    /// retry after the session is gone returns the cached
    /// `(ok closed …)` instead of `no-such-session`, and a seq other
    /// than the session's cursor is rejected without effect.
    fn close(&mut self, id: u64, seq: Option<u64>) -> (Reply, bool) {
        if let Some(seq) = seq {
            if !self.slots.contains_key(&id) {
                return match self.closed.get(&id) {
                    Some((s, reply)) if *s == seq => (reply.clone(), false),
                    _ => (err("session", "no-such-session"), false),
                };
            }
            // Materialize the session (resuming if evicted) to consult
            // its seq cursor; a failed resume is the typed persist error.
            let mut cursor = None;
            let probe = self.with_session(id, |s| {
                cursor = Some(s.next_seq());
                Reply::Draining
            });
            let Some(cursor) = cursor else {
                return (probe, false);
            };
            if seq > cursor {
                return (seq_gap_reply(cursor, seq), false);
            } else if seq < cursor {
                return (seq_too_old_reply(seq), false);
            }
        }
        let t0 = self.wall_start();
        let reply = match self.slots.remove(&id) {
            None => err("session", "no-such-session"),
            Some(slot) => {
                // The slot is gone on every path below (even a failed
                // resume drops it), so the token retires with it.
                self.tokens.note_close(id);
                self.touch.remove(&id);
                let session = match slot {
                    Slot::Resident(session) => Ok(*session),
                    Slot::Suspended(bytes, _) => Session::resume(id, &self.cfg, &bytes),
                };
                match session {
                    Ok(session) => {
                        let counts = session.counts();
                        let (occupancy, _) = session.close();
                        self.retired.merge(&counts);
                        Reply::Closed {
                            occupancy: occupancy as u64,
                        }
                    }
                    Err(e) => Session::persist_reply(&e),
                }
            }
        };
        self.record_req(ReqKind::Close, 0, t0);
        if let Some(seq) = seq {
            if self.closed.insert(id, (seq, reply.clone())).is_none() {
                self.closed_order.push_back(id);
            }
            while self.closed_order.len() > CLOSED_RETENTION {
                if let Some(old) = self.closed_order.pop_front() {
                    self.closed.remove(&old);
                }
            }
        }
        (reply, true)
    }

    /// The store's next session id (promotion seeds the successor's
    /// global id allocator from this so fresh ids never collide with
    /// replicated ones).
    pub fn next_session_id(&self) -> u64 {
        self.next_id
    }

    /// Every answerable `(open <token>)` route — live sessions' pinned
    /// tokens plus the retained ring of recently closed ones — as
    /// `(token, id)` pairs. Promotion primes the successor server's
    /// shared token routes from this.
    pub fn token_routes(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.tokens.iter()
    }

    /// Map any typed request to its reply, exactly as the server does —
    /// this is the serial twin the soak and campaign harnesses compare
    /// wire transcripts against. An open takes the store's next id.
    /// `Pull` is a replication-transport request and has no twin
    /// semantics.
    pub fn apply(&mut self, req: &Request) -> Reply {
        let (id, op) = match req {
            Request::Open { token } => (self.next_id, WalOp::Open { token: *token }.into()),
            Request::Eval { id, seq, src } => {
                let src = src.clone();
                (*id, WalOp::Eval { seq: *seq, src }.into())
            }
            Request::Close { id, seq } => (*id, WalOp::Close { seq: *seq }.into()),
            Request::Ledger { id } => (*id, SessionOp::Ledger),
            Request::Digest { id } => (*id, SessionOp::Digest),
            Request::Hello { version, .. } => return hello_reply(*version, NodeRole::Primary),
            Request::Stats => return Reply::Stats(Box::new(self.stats_body())),
            Request::Metrics => {
                return Reply::Metrics {
                    deterministic: self.telemetry.deterministic_json(),
                    // A serial twin has no queues, sheds, or WAL — its
                    // volatile section is structurally present but empty.
                    volatile: VolatileMetrics::default().json(&self.telemetry),
                };
            }
            // The twin has no WAL; a real server answers its next LSN.
            Request::Ping => {
                return Reply::Pong {
                    lsn: 0,
                    node: NodeRole::Primary,
                }
            }
            Request::Shutdown => return Reply::Draining,
            Request::Pull { .. } => return err("proto", "not-a-replica"),
        };
        self.execute(id, &op).0
    }

    /// Aggregate event counts across every session — suspended
    /// sessions contribute the counts carried beside their blobs, so no
    /// blob is read; retired sessions stay included.
    pub fn aggregate_counts(&self) -> EventCounts {
        let mut total = self.retired;
        for slot in self.slots.values() {
            match slot {
                Slot::Resident(s) => total.merge(&s.counts()),
                Slot::Suspended(_, counts) => total.merge(counts),
            }
        }
        total
    }

    /// This store's contribution to the `(ok stats …)` body.
    pub fn stats_body(&self) -> StatsBody {
        StatsBody {
            sessions: self.slots.len() as u64,
            evictions: self.evictions,
            resumes: self.resumes,
            requests: self.telemetry.requests(),
            counts: self.aggregate_counts().to_words(),
        }
    }

    /// Lifetime eviction / resume counters (scheduling-dependent; used
    /// by harness assertions, never in deterministic reports).
    pub fn eviction_counters(&self) -> (u64, u64) {
        (self.evictions, self.resumes)
    }

    /// Ids of all live sessions (any state), ascending.
    pub fn session_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.slots.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Number of live sessions (any state).
    pub fn session_count(&self) -> usize {
        self.slots.len()
    }

    /// Decode every suspended blob, failing on the first torn one.
    /// The drain path runs this after the shards stop: because
    /// suspends are synchronous in the owning shard, shutdown must
    /// never observe a partially written checkpoint.
    pub fn verify_suspended(&self) -> Result<usize, PersistError> {
        let mut checked = 0;
        for (id, slot) in &self.slots {
            if let Slot::Suspended(bytes, _) = slot {
                // A full resume exercises CRC, version, image decode,
                // and the table audit.
                let s = Session::resume(*id, &self.cfg, bytes)?;
                let _ = s.close();
                checked += 1;
            }
        }
        Ok(checked)
    }

    /// The suspended blobs by session id (ascending), for harness
    /// assertions about checkpoint integrity at drain time.
    pub fn suspended_blobs(&self) -> Vec<(u64, Vec<u8>)> {
        let mut out: Vec<(u64, Vec<u8>)> = self
            .slots
            .iter()
            .filter_map(|(&id, s)| match s {
                Slot::Suspended(bytes, _) => Some((id, bytes.clone())),
                Slot::Resident(_) => None,
            })
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Role, PROTO_VERSION};

    fn cfg(max_resident: usize) -> ServeConfig {
        ServeConfig {
            heap_cells: 1 << 12,
            table_size: 256,
            max_resident,
            ..ServeConfig::default()
        }
    }

    fn open(store: &mut SessionStore) -> u64 {
        match store.apply(&Request::Open { token: None }) {
            Reply::Opened { id } => id,
            other => panic!("open failed: {}", other.encode()),
        }
    }

    fn eval(store: &mut SessionStore, id: u64, src: &str) -> Reply {
        let src = src.to_string();
        store.apply(&Request::Eval { id, seq: None, src })
    }

    /// Execute `op` on `id`; the flag says whether it was journaled.
    fn run(store: &mut SessionStore, id: u64, op: impl Into<SessionOp>) -> (Reply, bool) {
        let op = op.into();
        let (reply, journal) = store.execute(id, &op);
        (reply, journal.is_some())
    }

    fn seval(store: &mut SessionStore, id: u64, seq: u64, src: &str) -> (Reply, bool) {
        let src = src.to_string();
        run(
            store,
            id,
            WalOp::Eval {
                seq: Some(seq),
                src,
            },
        )
    }

    #[test]
    fn open_eval_close_round_trip() {
        let mut store = SessionStore::new(cfg(4));
        let id = open(&mut store);
        assert_eq!(eval(&mut store, id, "(add 1 2)").encode(), "(ok value 3)");
        let close = Request::Close { id, seq: None };
        assert_eq!(store.apply(&close).encode(), "(ok closed 0)");
        assert_eq!(
            eval(&mut store, id, "(add 1 2)").encode(),
            "(err session no-such-session)"
        );
    }

    #[test]
    fn execute_journals_only_what_took_effect() {
        let mut store = SessionStore::new(cfg(4));
        let open = WalOp::Open { token: Some(5) };
        assert_eq!(
            run(&mut store, 0, open.clone()),
            (Reply::Opened { id: 0 }, true)
        );
        // A retried tokenized open and both reads journal nothing.
        assert_eq!(run(&mut store, 1, open), (Reply::Opened { id: 0 }, false));
        assert!(!run(&mut store, 0, SessionOp::Ledger).1);
        assert!(!run(&mut store, 0, SessionOp::Digest).1);
        // Sequenced: the cursor journals; a retry, a gap and a stale
        // seq do not.
        assert!(seval(&mut store, 0, 0, "(setq n 1)").1);
        assert!(!seval(&mut store, 0, 0, "(setq n 1)").1);
        assert!(!seval(&mut store, 0, 5, "(setq n 1)").1);
        assert!(!run(&mut store, 0, WalOp::Close { seq: Some(0) }).1);
        // Seq-less mutations journal even when they fail.
        let (reply, journaled) = run(&mut store, 9, WalOp::Close { seq: None });
        assert_eq!(reply.encode(), "(err session no-such-session)");
        assert!(journaled);
        assert!(run(&mut store, 0, WalOp::Close { seq: Some(1) }).1);
    }

    #[test]
    fn lru_eviction_is_invisible_to_sessions() {
        let mut thrash = SessionStore::new(cfg(1));
        let mut roomy = SessionStore::new(cfg(usize::MAX));
        let a = [open(&mut thrash), open(&mut roomy)];
        let b = [open(&mut thrash), open(&mut roomy)];
        let script = [
            "(setq acc nil)",
            "(setq acc (cons 1 acc))",
            "(prog (x) (setq x (cons 9 acc)) (rplaca x 8) (return (car x)))",
            "(car acc)",
        ];
        for r in script {
            assert_eq!(eval(&mut thrash, a[0], r), eval(&mut roomy, a[1], r));
            assert_eq!(eval(&mut thrash, b[0], r), eval(&mut roomy, b[1], r));
        }
        assert_eq!(
            run(&mut thrash, a[0], SessionOp::Ledger),
            run(&mut roomy, a[1], SessionOp::Ledger)
        );
        assert_eq!(
            run(&mut thrash, b[0], SessionOp::Digest),
            run(&mut roomy, b[1], SessionOp::Digest)
        );
        let (ev, res) = thrash.eviction_counters();
        assert!(ev > 0 && res > 0, "cap 1 must thrash: {ev}/{res}");
        assert_eq!(roomy.eviction_counters(), (0, 0));
    }

    #[test]
    fn suspended_slots_carry_their_blobs_counts() {
        let c = cfg(1);
        let mut thrash = SessionStore::new(c);
        let mut roomy = SessionStore::new(cfg(usize::MAX));
        let ids: Vec<u64> = (0..3).map(|_| open(&mut thrash)).collect();
        for &id in &ids {
            assert_eq!(open(&mut roomy), id);
        }
        let script = [
            "(setq acc (cons 1 (cons 2 nil)))",
            "(setq acc (cons 0 acc))",
            "(prog (x) (setq x (cons 9 acc)) (rplaca x 8) (return (car x)))",
            "(car 5)",
            "(setq acc nil)",
        ];
        for (k, src) in script.iter().cycle().take(4 * script.len()).enumerate() {
            let id = ids[k % ids.len()];
            assert_eq!(eval(&mut thrash, id, src), eval(&mut roomy, id, src));
            assert_eq!(thrash.stats_body().counts, roomy.stats_body().counts);
            for (&id, slot) in &thrash.slots {
                if let Slot::Suspended(blob, carried) = slot {
                    let resumed = Session::resume(id, &c, blob).expect("resume");
                    assert_eq!(*carried, resumed.counts(), "session {id}");
                }
            }
        }
        assert!(thrash.eviction_counters().0 > 0);
    }

    #[test]
    fn open_advances_the_cursor() {
        let mut store = SessionStore::new(cfg(4));
        let open_op = WalOp::Open { token: None };
        assert_eq!(
            run(&mut store, 7, open_op.clone()),
            (Reply::Opened { id: 7 }, true)
        );
        assert_eq!(
            run(&mut store, 7, open_op).0.encode(),
            "(err session duplicate-session)"
        );
        // A store-allocated id never collides with a caller-assigned one.
        assert_eq!(open(&mut store), 8);
    }

    #[test]
    fn token_and_close_caches_stay_bounded() {
        let mut store = SessionStore::new(cfg(2));
        let topen = |token| WalOp::Open { token: Some(token) };
        let close = WalOp::Close { seq: Some(0) };
        // Churn far more tokenized sessions than the retention rings
        // hold; every one is opened, sequenced-closed, and gone.
        let churn = TOKEN_RETENTION + CLOSED_RETENTION;
        for k in 0..churn as u64 {
            let opened = run(&mut store, k, topen(10_000 + k));
            assert_eq!(opened, (Reply::Opened { id: k }, true));
            let closed = run(&mut store, k, close.clone());
            assert_eq!(closed, (Reply::Closed { occupancy: 0 }, true));
        }
        // Closed sessions' tokens are retained only TOKEN_RETENTION
        // deep; the close cache is bounded the same way.
        assert_eq!(store.tokens.len(), TOKEN_RETENTION);
        assert_eq!(store.closed.len(), CLOSED_RETENTION);
        // A duplicate retry of a *recently* closed token is still
        // answered with the original id, not a fresh session …
        let last = churn as u64 - 1;
        let retried = run(&mut store, 9999, topen(10_000 + last));
        assert_eq!(retried, (Reply::Opened { id: last }, false));
        // … and so is a retried sequenced close.
        let retried = run(&mut store, last, close);
        assert_eq!(retried, (Reply::Closed { occupancy: 0 }, false));
        // The oldest token fell out of the ring: retrying it now
        // (legitimately) creates a fresh session.
        let fresh = churn as u64;
        assert_eq!(
            run(&mut store, fresh, topen(10_000)),
            (Reply::Opened { id: fresh }, true)
        );
        // A *live* session's token is pinned regardless of churn.
        assert_eq!(store.tokens.get(10_000), Some(fresh));
    }

    #[test]
    fn token_routes_stay_bounded_but_pin_live_sessions() {
        let mut routes = TokenRoutes::new();
        let next = std::cell::Cell::new(0u64);
        let alloc = || {
            let id = next.get();
            next.set(id + 1);
            id
        };
        // A live session's route is pinned no matter how much churn
        // follows.
        let live = routes.resolve_or_insert(9999, alloc);
        for k in 0..(2 * TOKEN_RETENTION as u64) {
            let id = routes.resolve_or_insert(k, alloc);
            routes.note_close(id);
        }
        assert_eq!(routes.len(), TOKEN_RETENTION + 1);
        assert_eq!(routes.resolve_or_insert(9999, alloc), live);
        // A recently closed token still resolves to its original id…
        let recent = 2 * TOKEN_RETENTION as u64 - 1;
        let before = next.get();
        assert_eq!(routes.resolve_or_insert(recent, alloc), recent + 1);
        assert_eq!(next.get(), before, "recent retry must not allocate");
        // …while one evicted from the ring allocates fresh.
        assert_eq!(routes.resolve_or_insert(0, alloc), before);
        // Closing an untokenized session is a no-op.
        routes.note_close(u64::MAX);
    }

    #[test]
    fn suspended_blobs_verify_clean() {
        let mut store = SessionStore::new(cfg(1));
        let _a = open(&mut store);
        let b = open(&mut store); // evicts a
        eval(&mut store, b, "(setq acc (cons 1 nil))");
        assert_eq!(store.suspended_blobs().len(), 1);
        assert_eq!(store.verify_suspended().expect("clean"), 1);
    }

    #[test]
    fn apply_mirrors_the_wire_semantics() {
        let mut store = SessionStore::new(cfg(4));
        assert_eq!(open(&mut store), 0);
        assert_eq!(eval(&mut store, 0, "(add 2 2)").encode(), "(ok value 4)");
        let hello = |version| Request::Hello {
            version,
            role: Role::Client,
        };
        assert_eq!(
            store.apply(&hello(PROTO_VERSION)),
            Reply::Hello {
                version: PROTO_VERSION,
                node: NodeRole::Primary
            }
        );
        assert_eq!(
            store.apply(&hello(99)).encode(),
            "(err proto unsupported-version 99 4)"
        );
        assert_eq!(
            store.apply(&Request::Ping),
            Reply::Pong {
                lsn: 0,
                node: NodeRole::Primary
            }
        );
        assert_eq!(store.apply(&Request::Shutdown), Reply::Draining);
        assert_eq!(
            store.apply(&Request::Pull { from: 0 }).encode(),
            "(err proto not-a-replica)"
        );
        assert_eq!(
            store.apply(&Request::Close { id: 0, seq: None }),
            Reply::Closed { occupancy: 0 }
        );
    }

    #[test]
    fn tokenized_open_is_idempotent() {
        let mut store = SessionStore::new(cfg(4));
        let topen = |token| WalOp::Open { token: Some(token) };
        assert_eq!(
            run(&mut store, 0, topen(77)),
            (Reply::Opened { id: 0 }, true)
        );
        // Retrying the token — even with a different candidate id —
        // returns the original reply and creates nothing.
        assert_eq!(
            run(&mut store, 5, topen(77)),
            (Reply::Opened { id: 0 }, false)
        );
        assert_eq!(store.session_count(), 1);
        // A different token gets a fresh session.
        assert_eq!(
            run(&mut store, 5, topen(78)),
            (Reply::Opened { id: 5 }, true)
        );
    }

    #[test]
    fn sequenced_close_retries_come_from_cache() {
        let mut store = SessionStore::new(cfg(4));
        let id = open(&mut store);
        assert!(seval(&mut store, id, 0, "(setq x 1)").1);
        let close = |seq| WalOp::Close { seq: Some(seq) };
        let (closed, applied) = run(&mut store, id, close(1));
        assert!(applied);
        assert_eq!(closed.encode(), "(ok closed 0)");
        // The retry after the session is gone replays the cached reply.
        assert_eq!(run(&mut store, id, close(1)), (closed, false));
        // A different seq against the dead session stays typed.
        assert_eq!(
            run(&mut store, id, close(3)).0.encode(),
            "(err session no-such-session)"
        );
    }

    #[test]
    fn sequenced_eval_survives_eviction() {
        let mut store = SessionStore::new(cfg(1));
        let a = open(&mut store);
        let b = open(&mut store); // evicts a
        assert!(seval(&mut store, a, 0, "(setq n 4)").1);
        assert!(seval(&mut store, b, 0, "(setq n 9)").1); // evicts a again
        let (reply, applied) = seval(&mut store, a, 0, "(setq n 4)");
        assert!(!applied, "retry must come from the resumed window");
        assert_eq!(reply.encode(), "(ok value 4)");
        let (reply, applied) = seval(&mut store, a, 1, "(add n 1)");
        assert!(applied);
        assert_eq!(reply.encode(), "(ok value 5)");
    }
}
