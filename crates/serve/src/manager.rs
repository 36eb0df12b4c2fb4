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
//! The store also implements the serial **twin** used by the soak and
//! failover harnesses: [`SessionStore::apply`] maps any typed
//! [`Request`] to the exact [`Reply`] the server would produce, so an
//! uninterrupted in-process run is byte-comparable with wire traffic.

use crate::protocol::{
    err, seq_gap_reply, seq_too_old_reply, NodeRole, Reply, Request, StatsBody, PROTO_VERSION,
};
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
    /// Idempotency-token → session-id map for `(open <token>)`: a
    /// retried tokenized open returns the original `(ok opened <id>)`
    /// instead of creating a second session. Live sessions' tokens are
    /// pinned; closed sessions' tokens survive only while they sit in
    /// the [`TOKEN_RETENTION`]-deep `retired_tokens` ring.
    open_tokens: HashMap<u64, u64>,
    /// id → token reverse map for live tokenized sessions, so a close
    /// can retire its token without scanning.
    token_of: HashMap<u64, u64>,
    /// FIFO of closed sessions' tokens still answerable; overflow
    /// evicts the oldest from `open_tokens`.
    retired_tokens: VecDeque<u64>,
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
            open_tokens: HashMap::new(),
            token_of: HashMap::new(),
            retired_tokens: VecDeque::new(),
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

    /// Create a session with a store-allocated id (serial twin and
    /// tests; the sharded server allocates ids globally and uses
    /// [`SessionStore::open_with_id`]).
    pub fn open(&mut self) -> u64 {
        let id = self.next_id;
        self.open_with_id(id);
        id
    }

    /// Create a session under a caller-assigned id. Advances the
    /// store's own id cursor past `id`, so store-allocated ids never
    /// collide with server-assigned ones (promotion relies on this).
    pub fn open_with_id(&mut self, id: u64) -> Reply {
        if self.slots.contains_key(&id) {
            return err("session", "duplicate-session");
        }
        let t0 = self.wall_start();
        self.next_id = self.next_id.max(id + 1);
        let session = Box::new(Session::new(id, &self.cfg));
        self.slots.insert(id, Slot::Resident(session));
        self.touch(id);
        self.enforce_lru();
        self.record_req(ReqKind::Open, 0, t0);
        Reply::Opened { id }
    }

    /// Create a session under a caller-assigned id, idempotently: if
    /// `token` has already opened a session, the original
    /// `(ok opened <id>)` is returned and nothing is created.
    ///
    /// The `applied` flag is `true` only when a session was actually
    /// created (the journal-this signal).
    pub fn open_with_token(&mut self, id: u64, token: u64) -> (Reply, bool) {
        if let Some(&existing) = self.open_tokens.get(&token) {
            return (Reply::Opened { id: existing }, false);
        }
        let reply = self.open_with_id(id);
        if let Reply::Opened { id } = reply {
            self.open_tokens.insert(token, id);
            self.token_of.insert(id, token);
            (Reply::Opened { id }, true)
        } else {
            (reply, false)
        }
    }

    /// Move a closing session's idempotency token (if any) from the
    /// pinned live set into the bounded retention ring; the overflow
    /// victim stops being answerable.
    fn retire_token(&mut self, id: u64) {
        if let Some(token) = self.token_of.remove(&id) {
            self.retired_tokens.push_back(token);
            while self.retired_tokens.len() > TOKEN_RETENTION {
                if let Some(old) = self.retired_tokens.pop_front() {
                    self.open_tokens.remove(&old);
                }
            }
        }
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

    /// Compile and run a request program on session `id`. The request's
    /// virtual-cycle cost (priced by the session's [`crate::telemetry::ServeSink`])
    /// lands in this store's telemetry.
    pub fn eval(&mut self, id: u64, src: &str) -> Reply {
        let t0 = self.wall_start();
        let mut cycles = 0;
        let reply = self.with_session(id, |s| {
            let r = s.eval(src);
            cycles = s.take_cycles();
            r
        });
        self.record_req(ReqKind::Eval, cycles, t0);
        reply
    }

    /// Run one sequenced request on session `id` (see
    /// [`Session::eval_seq`]): executes exactly once; retries are
    /// answered from the session's replay window. `applied` is `true`
    /// only when the request actually executed.
    pub fn eval_seq(&mut self, id: u64, seq: u64, src: &str) -> (Reply, bool) {
        let t0 = self.wall_start();
        let mut cycles = 0;
        let mut applied = false;
        let reply = self.with_session(id, |s| {
            let (r, a) = s.eval_seq(seq, src);
            applied = a;
            cycles = s.take_cycles();
            r
        });
        self.record_req(ReqKind::Eval, cycles, t0);
        (reply, applied)
    }

    /// The session's `LptStats` ledger reply. Ledger reads run no
    /// machine operations, so their virtual-cycle cost is 0 by
    /// definition; the histogram still counts them.
    pub fn ledger(&mut self, id: u64) -> Reply {
        let t0 = self.wall_start();
        let reply = self.with_session(id, |s| s.ledger_reply());
        self.record_req(ReqKind::Ledger, 0, t0);
        reply
    }

    /// The session's transcript digest reply.
    pub fn digest(&mut self, id: u64) -> Reply {
        let t0 = self.wall_start();
        let reply = self.with_session(id, |s| s.digest_reply());
        self.record_req(ReqKind::Digest, 0, t0);
        reply
    }

    /// Close a session: shut its machine down and remove it. The reply
    /// carries the residual LPT occupancy (0 unless the session leaked
    /// cyclic garbage).
    pub fn close(&mut self, id: u64) -> Reply {
        let t0 = self.wall_start();
        if self.slots.contains_key(&id) {
            // The slot is removed on every path below (even a failed
            // resume drops it), so the token retires with the session.
            self.retire_token(id);
        }
        let reply = match self.slots.remove(&id) {
            None => err("session", "no-such-session"),
            Some(Slot::Resident(session)) => {
                self.touch.remove(&id);
                let counts = session.counts();
                let (occupancy, _) = session.close();
                self.retired.merge(&counts);
                Reply::Closed {
                    occupancy: occupancy as u64,
                }
            }
            Some(Slot::Suspended(bytes, _)) => {
                self.touch.remove(&id);
                match Session::resume(id, &self.cfg, &bytes) {
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
        reply
    }

    /// Close session `id` under sequence number `seq`, exactly once: a
    /// retry after the session is gone returns the cached
    /// `(ok closed …)` instead of `no-such-session`. `applied` is
    /// `true` only when the machine was actually shut down.
    pub fn close_seq(&mut self, id: u64, seq: u64) -> (Reply, bool) {
        if !self.slots.contains_key(&id) {
            return match self.closed.get(&id) {
                Some((s, reply)) if *s == seq => (reply.clone(), false),
                _ => (err("session", "no-such-session"), false),
            };
        }
        // Materialize the session (resuming if evicted) to consult its
        // seq cursor; a failed resume is the typed persist error.
        let mut cursor = None;
        let probe = self.with_session(id, |s| {
            cursor = Some(s.next_seq());
            Reply::Draining
        });
        let Some(cursor) = cursor else {
            return (probe, false);
        };
        if seq > cursor {
            (seq_gap_reply(cursor, seq), false)
        } else if seq < cursor {
            (seq_too_old_reply(seq), false)
        } else {
            let reply = self.close(id);
            if self.closed.insert(id, (seq, reply.clone())).is_none() {
                self.closed_order.push_back(id);
            }
            while self.closed_order.len() > CLOSED_RETENTION {
                if let Some(old) = self.closed_order.pop_front() {
                    self.closed.remove(&old);
                }
            }
            (reply, true)
        }
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
        self.open_tokens.iter().map(|(&t, &id)| (t, id))
    }

    /// Map any typed request to its reply, exactly as the server does —
    /// this is the serial twin the soak and failover harnesses compare
    /// wire transcripts against. `Pull` is a replication-transport
    /// request and has no twin semantics.
    pub fn apply(&mut self, req: &Request) -> Reply {
        match req {
            Request::Hello { version, .. } => {
                if *version == PROTO_VERSION {
                    Reply::Hello {
                        version: PROTO_VERSION,
                        node: NodeRole::Primary,
                    }
                } else {
                    crate::protocol::unsupported_version_reply(*version)
                }
            }
            Request::Open { token: None } => {
                let id = self.next_id;
                self.open_with_id(id)
            }
            Request::Open { token: Some(t) } => {
                let id = self.next_id;
                self.open_with_token(id, *t).0
            }
            Request::Eval { id, seq: None, src } => self.eval(*id, src),
            Request::Eval {
                id,
                seq: Some(s),
                src,
            } => self.eval_seq(*id, *s, src).0,
            Request::Ledger { id } => self.ledger(*id),
            Request::Digest { id } => self.digest(*id),
            Request::Stats => Reply::Stats(Box::new(self.stats_body())),
            Request::Metrics => Reply::Metrics {
                deterministic: self.telemetry.deterministic_json(),
                // A serial twin has no queues, sheds, or WAL — its
                // volatile section is structurally present but empty.
                volatile: VolatileMetrics::default().json(&self.telemetry),
            },
            Request::Close { id, seq: None } => self.close(*id),
            Request::Close { id, seq: Some(s) } => self.close_seq(*id, *s).0,
            // The twin has no WAL; a real server answers its next LSN.
            Request::Ping => Reply::Pong {
                lsn: 0,
                node: NodeRole::Primary,
            },
            Request::Shutdown => Reply::Draining,
            Request::Pull { .. } => err("proto", "not-a-replica"),
        }
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

    fn cfg(max_resident: usize) -> ServeConfig {
        ServeConfig {
            heap_cells: 1 << 12,
            table_size: 256,
            max_resident,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn open_eval_close_round_trip() {
        let mut store = SessionStore::new(cfg(4));
        let id = store.open();
        assert_eq!(store.eval(id, "(add 1 2)").encode(), "(ok value 3)");
        assert_eq!(store.close(id).encode(), "(ok closed 0)");
        assert_eq!(
            store.eval(id, "(add 1 2)").encode(),
            "(err session no-such-session)"
        );
    }

    #[test]
    fn lru_eviction_is_invisible_to_sessions() {
        let mut thrash = SessionStore::new(cfg(1));
        let mut roomy = SessionStore::new(cfg(usize::MAX));
        let a = [thrash.open(), roomy.open()];
        let b = [thrash.open(), roomy.open()];
        let script = [
            "(setq acc nil)",
            "(setq acc (cons 1 acc))",
            "(prog (x) (setq x (cons 9 acc)) (rplaca x 8) (return (car x)))",
            "(car acc)",
        ];
        for r in script {
            assert_eq!(thrash.eval(a[0], r), roomy.eval(a[1], r));
            assert_eq!(thrash.eval(b[0], r), roomy.eval(b[1], r));
        }
        assert_eq!(thrash.ledger(a[0]), roomy.ledger(a[1]));
        assert_eq!(thrash.digest(b[0]), roomy.digest(b[1]));
        let (ev, res) = thrash.eviction_counters();
        assert!(ev > 0 && res > 0, "cap 1 must thrash: {ev}/{res}");
        assert_eq!(roomy.eviction_counters(), (0, 0));
    }

    #[test]
    fn suspended_slots_carry_their_blobs_counts() {
        let c = cfg(1);
        let mut thrash = SessionStore::new(c);
        let mut roomy = SessionStore::new(cfg(usize::MAX));
        let ids: Vec<u64> = (0..3).map(|_| thrash.open()).collect();
        for &id in &ids {
            assert_eq!(roomy.open(), id);
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
            assert_eq!(thrash.eval(id, src), roomy.eval(id, src));
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
    fn open_with_id_advances_the_cursor() {
        let mut store = SessionStore::new(cfg(4));
        assert_eq!(store.open_with_id(7), Reply::Opened { id: 7 });
        assert_eq!(
            store.open_with_id(7).encode(),
            "(err session duplicate-session)"
        );
        // A store-allocated id never collides with a caller-assigned one.
        assert_eq!(store.open(), 8);
    }

    #[test]
    fn token_and_close_caches_stay_bounded() {
        let mut store = SessionStore::new(cfg(2));
        // Churn far more tokenized sessions than the retention rings
        // hold; every one is opened, sequenced-closed, and gone.
        let churn = TOKEN_RETENTION + CLOSED_RETENTION;
        for k in 0..churn as u64 {
            let (reply, applied) = store.open_with_token(k, 10_000 + k);
            assert!(applied);
            assert_eq!(reply, Reply::Opened { id: k });
            let (reply, applied) = store.close_seq(k, 0);
            assert!(applied);
            assert_eq!(reply, Reply::Closed { occupancy: 0 });
        }
        // Closed sessions' tokens are retained only TOKEN_RETENTION
        // deep; the close cache is bounded the same way.
        assert_eq!(store.open_tokens.len(), TOKEN_RETENTION);
        assert_eq!(store.closed.len(), CLOSED_RETENTION);
        // A duplicate retry of a *recently* closed token is still
        // answered with the original id, not a fresh session …
        let last = churn as u64 - 1;
        let (reply, applied) = store.open_with_token(9999, 10_000 + last);
        assert!(!applied);
        assert_eq!(reply, Reply::Opened { id: last });
        // … and so is a retried sequenced close.
        let (reply, applied) = store.close_seq(last, 0);
        assert!(!applied);
        assert_eq!(reply, Reply::Closed { occupancy: 0 });
        // The oldest token fell out of the ring: retrying it now
        // (legitimately) creates a fresh session.
        let (reply, applied) = store.open_with_token(churn as u64, 10_000);
        assert!(applied);
        assert_eq!(reply, Reply::Opened { id: churn as u64 });
        // A *live* session's token is pinned regardless of churn.
        assert!(store.open_tokens.contains_key(&10_000));
    }

    #[test]
    fn suspended_blobs_verify_clean() {
        let mut store = SessionStore::new(cfg(1));
        let a = store.open();
        let b = store.open(); // evicts a
        store.eval(b, "(setq acc (cons 1 nil))");
        assert_eq!(store.suspended_blobs().len(), 1);
        assert_eq!(store.verify_suspended().expect("clean"), 1);
        let _ = a;
    }

    #[test]
    fn apply_mirrors_the_wire_semantics() {
        let mut store = SessionStore::new(cfg(4));
        assert_eq!(
            store.apply(&Request::Open { token: None }),
            Reply::Opened { id: 0 }
        );
        assert_eq!(
            store
                .apply(&Request::Eval {
                    id: 0,
                    seq: None,
                    src: "(add 2 2)".to_string()
                })
                .encode(),
            "(ok value 4)"
        );
        assert_eq!(
            store.apply(&Request::Hello {
                version: PROTO_VERSION,
                role: crate::protocol::Role::Client
            }),
            Reply::Hello {
                version: PROTO_VERSION,
                node: NodeRole::Primary
            }
        );
        assert_eq!(
            store
                .apply(&Request::Hello {
                    version: 99,
                    role: crate::protocol::Role::Client
                })
                .encode(),
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
        let (first, applied) = store.open_with_token(0, 77);
        assert!(applied);
        assert_eq!(first, Reply::Opened { id: 0 });
        // Retrying the token — even with a different candidate id —
        // returns the original reply and creates nothing.
        let (retry, applied) = store.open_with_token(5, 77);
        assert!(!applied);
        assert_eq!(retry, Reply::Opened { id: 0 });
        assert_eq!(store.session_count(), 1);
        // A different token gets a fresh session.
        let (other, applied) = store.open_with_token(5, 78);
        assert!(applied);
        assert_eq!(other, Reply::Opened { id: 5 });
    }

    #[test]
    fn sequenced_close_retries_come_from_cache() {
        let mut store = SessionStore::new(cfg(4));
        let id = store.open();
        assert!(store.eval_seq(id, 0, "(setq x 1)").1);
        let (closed, applied) = store.close_seq(id, 1);
        assert!(applied);
        assert_eq!(closed.encode(), "(ok closed 0)");
        // The retry after the session is gone replays the cached reply.
        let (retry, applied) = store.close_seq(id, 1);
        assert!(!applied);
        assert_eq!(retry, closed);
        // A different seq against the dead session stays typed.
        assert_eq!(
            store.close_seq(id, 3).0.encode(),
            "(err session no-such-session)"
        );
    }

    #[test]
    fn sequenced_eval_survives_eviction() {
        let mut store = SessionStore::new(cfg(1));
        let a = store.open();
        let b = store.open(); // evicts a
        assert!(store.eval_seq(a, 0, "(setq n 4)").1);
        assert!(store.eval_seq(b, 0, "(setq n 9)").1); // evicts a again
        let (reply, applied) = store.eval_seq(a, 0, "(setq n 4)");
        assert!(!applied, "retry must come from the resumed window");
        assert_eq!(reply.encode(), "(ok value 4)");
        let (reply, applied) = store.eval_seq(a, 1, "(add n 1)");
        assert!(applied);
        assert_eq!(reply.encode(), "(ok value 5)");
    }
}
