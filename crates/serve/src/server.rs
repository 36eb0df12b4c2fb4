//! The sharded server front end: listener, acceptor, lifecycle.
//!
//! [`start`] binds a listener and spawns one acceptor thread plus
//! [`ServerParams::shards`] shard event loops ([`crate::shard`]). The
//! acceptor does nothing but `accept`, deal connections round-robin
//! into per-shard inboxes and wake the shard it dealt to — admission
//! control (per-shard connection caps, bounded run queues) lives in the
//! shards, where it can always answer with a typed reply instead of
//! silently refusing.
//! [`start_standby`] starts the same server in the standby role; its
//! handle feeds it pulled WAL batches and promotes it in place.
//!
//! Shutdown — client-initiated via `(shutdown)` or caller-initiated
//! via [`ServerHandle::shutdown`] — runs the two-barrier drain
//! documented in [`crate::shard`] and yields a [`DrainOutcome`]: the
//! per-shard session stores, with every suspend-to-checkpoint known
//! complete. Callers that care (the soak and failover harnesses do)
//! call [`DrainOutcome::verify_suspended`] to prove no blob was torn
//! at exit.

use crate::manager::{SessionStore, TokenRoutes};
use crate::protocol::StatsBody;
use crate::repl::{decode_frames, replay, ReplError, Wal};
use crate::session::ServeConfig;
use crate::shard::{shard_loop, Job, RunQueue, SharedState};
use crate::telemetry::{prometheus_text, ShardMetrics, TraceLog, VolatileMetrics};
use small_metrics::EventCounts;
use small_persist::PersistError;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Concurrency and admission knobs for one server instance.
#[derive(Debug, Clone, Copy)]
pub struct ServerParams {
    /// Shard event loops; session `id % shards` pins each session.
    pub shards: usize,
    /// Bounded run-queue capacity per shard; overflow is shed with
    /// `(err busy queue-full <shard>)`.
    pub queue_cap: usize,
    /// Connections a single shard will own at once; overflow is shed
    /// with `(err busy too-many-connections <shard>)` before close —
    /// admission is bounded but never silent.
    pub max_conns_per_shard: usize,
    /// Run as a replication primary: append every mutating request to
    /// the WAL and serve `(pull …)` to replica-role connections.
    pub replicate: bool,
    /// Record wall-clock request latency (the volatile half of the
    /// telemetry; same opt-in as the bench harness's `--wall`). The
    /// virtual-cycle histograms are always on — they cost a few adds
    /// per operation and are deterministic.
    pub wall: bool,
    /// Record wall-clock spans (accept → decode → run → flush,
    /// suspend/resume, WAL ship) for Chrome-trace export at drain.
    pub trace: bool,
}

impl Default for ServerParams {
    fn default() -> ServerParams {
        ServerParams {
            shards: 4,
            queue_cap: 64,
            max_conns_per_shard: 64,
            replicate: false,
            wall: false,
            trace: false,
        }
    }
}

/// A running server: address plus the threads to join at shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<SharedState>,
    acceptor: JoinHandle<()>,
    shards: Vec<JoinHandle<SessionStore>>,
}

/// What a drained server leaves behind.
pub struct DrainOutcome {
    /// Each shard's session store, in shard order. Every suspended
    /// session's checkpoint blob in here is fully written — barrier 2
    /// of the drain protocol guarantees it.
    pub stores: Vec<SessionStore>,
    /// Per-shard volatile observables at drain, in shard order.
    pub volatile: Vec<VolatileMetrics>,
    /// The span log, when the server ran with [`ServerParams::trace`].
    pub trace: Option<Arc<TraceLog>>,
}

impl DrainOutcome {
    /// The merged request telemetry across shards (order-independent:
    /// the deterministic section depends only on the multiset of
    /// served requests).
    pub fn telemetry(&self) -> ShardMetrics {
        let mut total = ShardMetrics::default();
        for store in &self.stores {
            total.merge(store.telemetry());
        }
        total
    }

    /// The merged volatile observables across shards.
    pub fn volatile_total(&self) -> VolatileMetrics {
        let mut total = VolatileMetrics::default();
        for v in &self.volatile {
            total.merge(v);
        }
        total
    }

    /// The Prometheus-style text exposition of the final merged
    /// snapshot (the `--metrics-out` dump).
    pub fn prometheus(&self) -> String {
        prometheus_text(&self.telemetry(), &self.volatile_total())
    }

    /// The Chrome Trace Format JSON of the span log, when tracing was
    /// on (open in `chrome://tracing` or Perfetto).
    pub fn chrome_trace(&self) -> Option<String> {
        self.trace
            .as_ref()
            .map(|log| log.chrome_trace_json(self.stores.len()))
    }
    /// Aggregate event counts across every shard (resident, suspended,
    /// and retired sessions included).
    pub fn aggregate_counts(&self) -> EventCounts {
        let mut total = EventCounts::default();
        for store in &self.stores {
            total.merge(&store.aggregate_counts());
        }
        total
    }

    /// Summed lifetime (evictions, resumes) across shards.
    pub fn eviction_counters(&self) -> (u64, u64) {
        self.stores
            .iter()
            .map(|s| s.eviction_counters())
            .fold((0, 0), |(e, r), (se, sr)| (e + se, r + sr))
    }

    /// Ids of every live session across shards, ascending.
    pub fn session_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.stores.iter().flat_map(|s| s.session_ids()).collect();
        ids.sort_unstable();
        ids
    }

    /// Decode every suspended blob across every shard; the count of
    /// verified blobs on success, the first damage found otherwise.
    /// This is the teeth behind "drain waits for suspends": a torn
    /// blob here means the drain protocol failed.
    pub fn verify_suspended(&self) -> Result<usize, PersistError> {
        let mut total = 0;
        for store in &self.stores {
            total += store.verify_suspended()?;
        }
        Ok(total)
    }
}

/// Bind `addr` and start the acceptor and shard threads.
pub fn start(addr: &str, cfg: ServeConfig, params: ServerParams) -> io::Result<ServerHandle> {
    start_on(addr, cfg, params, false)
}

/// Bind `addr` and start a warm standby: the same server in the standby
/// role. It answers `(hello …)` and `(ping)` as a standby, ships its
/// retained WAL to downstream `(pull …)`s, reports its hop lag through
/// `(metrics)`, and refuses everything else with
/// `(err repl not-primary)`. The caller feeds it batches pulled from
/// the upstream ([`ServerHandle::apply`]) and promotes it in place
/// ([`ServerHandle::promote`]).
///
/// A standby replays one serial record stream into one store, so
/// `params.shards` must be 1; and it keeps shipping after promotion,
/// so `params.replicate` must be set.
pub fn start_standby(
    addr: &str,
    cfg: ServeConfig,
    params: ServerParams,
) -> io::Result<ServerHandle> {
    assert_eq!(params.shards, 1, "a standby is single-sharded");
    assert!(params.replicate, "a standby retains and ships its WAL");
    start_on(addr, cfg, params, true)
}

/// Shared body of [`start`] and [`start_standby`].
fn start_on(
    addr: &str,
    cfg: ServeConfig,
    params: ServerParams,
    standby: bool,
) -> io::Result<ServerHandle> {
    assert!(params.shards > 0, "at least one shard");
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let trace = params.trace.then(|| Arc::new(TraceLog::new()));
    let shared = Arc::new(SharedState {
        queues: (0..params.shards)
            .map(|_| Arc::new(RunQueue::new(params.queue_cap)))
            .collect(),
        inboxes: (0..params.shards).map(|_| Mutex::new(Vec::new())).collect(),
        stats: (0..params.shards)
            .map(|_| {
                Mutex::new(StatsBody {
                    sessions: 0,
                    evictions: 0,
                    resumes: 0,
                    requests: 0,
                    counts: [0u64; 22],
                })
            })
            .collect(),
        telemetry: (0..params.shards)
            .map(|_| Mutex::new(ShardMetrics::default()))
            .collect(),
        volatile: (0..params.shards)
            .map(|_| Mutex::new(VolatileMetrics::default()))
            .collect(),
        trace: trace.clone(),
        stop: AtomicBool::new(false),
        decode_done: AtomicUsize::new(0),
        queues_done: AtomicUsize::new(0),
        next_id: AtomicU64::new(0),
        open_tokens: Mutex::new(TokenRoutes::new()),
        wal: params.replicate.then(|| Mutex::new(Wal::new())),
        standby: AtomicBool::new(standby),
        addr: local,
        threads: (0..params.shards).map(|_| OnceLock::new()).collect(),
    });

    let shards: Vec<JoinHandle<SessionStore>> = (0..params.shards)
        .map(|me| {
            let shared = Arc::clone(&shared);
            let mut store = SessionStore::new(cfg).with_wall(params.wall);
            if let Some(log) = &trace {
                store = store.with_trace(Arc::clone(log), me as u32 + 1);
            }
            let max_conns = params.max_conns_per_shard;
            std::thread::Builder::new()
                .name(format!("shard-{me}"))
                .spawn(move || shard_loop(me, store, shared, max_conns))
                .expect("spawn shard")
        })
        .collect();

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("acceptor".to_string())
            .spawn(move || {
                let mut rr = 0usize;
                for stream in listener.incoming() {
                    if shared.stop.load(Ordering::SeqCst) {
                        break; // the wakeup (or any late) connection is dropped
                    }
                    let Ok(stream) = stream else { continue };
                    shared.inboxes[rr]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(stream);
                    shared.wake(rr);
                    rr = (rr + 1) % shared.nshards();
                }
            })
            .expect("spawn acceptor")
    };

    Ok(ServerHandle {
        addr: local,
        shared,
        acceptor,
        shards,
    })
}

impl ServerHandle {
    /// The bound address (use `"127.0.0.1:0"` to let the OS pick).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether drain has begun (a client may have sent `(shutdown)`).
    pub fn draining(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Records logged so far, when replicating (`None` otherwise). On
    /// a standby this is the LSN it wants next from its upstream.
    pub fn wal_next_lsn(&self) -> Option<u64> {
        self.shared
            .wal
            .as_ref()
            .map(|w| w.lock().unwrap_or_else(|e| e.into_inner()).next_lsn())
    }

    /// Standby: replay a batch pulled from the upstream into shard 0's
    /// store, retaining its frames in the WAL this node ships from. The
    /// batch is decoded whole before any record runs, so a corrupt
    /// batch changes nothing; see [`Standby::apply`](crate::repl::Standby::apply)
    /// for the skip, gap and divergence rules. Returns the number of
    /// records applied.
    ///
    /// Panics unless the node is a standby that has not begun draining.
    pub fn apply(&self, bytes: &[u8]) -> Result<usize, ReplError> {
        self.assert_live_standby();
        let records = decode_frames(bytes)?;
        self.on_shard0(move |store, shared| {
            let mut wal = shared
                .wal
                .as_ref()
                .expect("a standby replicates")
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let applied = replay(store, &mut wal, &records);
            shared.volatile[0]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .note_relay_applied(wal.next_lsn());
            applied
        })
    }

    /// Standby: record the upstream's next LSN (seen by the caller's
    /// pull loop) so `(metrics)` reports this hop's `relay_lag`.
    pub fn note_upstream(&self, lsn: u64) {
        self.shared.volatile[0]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .note_relay_upstream(lsn);
    }

    /// Promote a standby in place. On shard 0 the session-id allocator
    /// and the token routes are seeded from the replayed store, so
    /// fresh ids never collide with replicated ones and a retried
    /// tokenized open reaches its original session; then the role
    /// flips to primary. The listener, the open connections and the
    /// WAL's LSN space are untouched, so clients redial the same
    /// address and a downstream replica keeps pulling with its cursor
    /// intact.
    ///
    /// Panics unless the node is a standby that has not begun draining.
    pub fn promote(&self) {
        self.assert_live_standby();
        self.on_shard0(|store, shared| {
            // Checked again here, where the flip happens: two racing
            // promotions both pass the handle's check.
            assert!(shared.standby.load(Ordering::SeqCst), "promoted twice");
            shared
                .next_id
                .store(store.next_session_id(), Ordering::SeqCst);
            let mut routes = shared.open_tokens.lock().unwrap_or_else(|e| e.into_inner());
            for (token, id) in store.token_routes() {
                routes.bind(token, id);
            }
            shared.standby.store(false, Ordering::SeqCst);
        });
    }

    /// The precondition of [`ServerHandle::apply`] and
    /// [`ServerHandle::promote`]. A standby refuses `(shutdown)`, so
    /// only [`ServerHandle::shutdown`], which consumes the handle, can
    /// drain it: shard 0 is still running when the job is queued.
    fn assert_live_standby(&self) {
        assert!(
            self.shared.standby.load(Ordering::SeqCst),
            "only a standby applies or promotes"
        );
        assert!(!self.draining(), "the standby is draining");
    }

    /// Run `work` on shard 0's thread, against its store, and wait for
    /// the result. A panic in `work` is contained on the shard and
    /// re-raised here.
    fn on_shard0<R: Send + 'static>(
        &self,
        work: impl FnOnce(&mut SessionStore, &SharedState) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = mpsc::channel();
        let job = Job::Control(Box::new(move |store, shared| {
            let _ = tx.send(work(store, shared));
        }));
        if self.shared.queues[0].try_push(job).is_err() {
            panic!("shard 0's run queue is full");
        }
        self.shared.wake(0);
        rx.recv().expect("control job panicked on shard 0")
    }

    /// Begin (idempotently) and complete the drain: joins the acceptor
    /// and every shard, returning their stores. Blocks until barrier 2
    /// has passed on all shards — i.e. until every queued request has
    /// replied and every LRU suspend has fully written its blob.
    pub fn shutdown(self) -> DrainOutcome {
        self.shared.begin_stop();
        self.join()
    }

    /// Wait for a drain someone else starts (a client's `(shutdown)`
    /// request) and collect the stores. The `serve` binary's main
    /// loop is exactly this call.
    pub fn join(self) -> DrainOutcome {
        let _ = self.acceptor.join();
        let stores: Vec<SessionStore> = self
            .shards
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect();
        let mut volatile: Vec<VolatileMetrics> = self
            .shared
            .volatile
            .iter()
            .map(|cell| cell.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        self.shared.note_wal_resident(&mut volatile[0]);
        DrainOutcome {
            stores,
            volatile,
            trace: self.shared.trace.clone(),
        }
    }
}

/// Connect a raw socket (no client machinery) to an address — for
/// tests that need to speak below the typed client.
pub fn raw_connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::{Reply, Request, Role, PROTO_VERSION};

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            heap_cells: 1 << 12,
            table_size: 256,
            max_resident: 2,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serves_typed_requests_across_shards() {
        let handle = start("127.0.0.1:0", small_cfg(), ServerParams::default()).unwrap();
        let mut c = Client::connect(handle.addr(), Role::Client).unwrap();
        // Enough sessions to land on every shard.
        let ids: Vec<u64> = (0..6).map(|_| c.open().unwrap()).collect();
        assert_eq!(ids, (0..6).collect::<Vec<u64>>());
        for &id in &ids {
            assert_eq!(
                c.request(&Request::Eval {
                    id,
                    seq: None,
                    src: format!("(setq acc (cons {id} nil))"),
                })
                .unwrap()
                .encode(),
                format!("(ok value ({id}))")
            );
        }
        // Sessions are isolated even though they share shards.
        for &id in &ids {
            assert_eq!(
                c.request(&Request::Eval {
                    id,
                    seq: None,
                    src: "(car acc)".to_string(),
                })
                .unwrap()
                .encode(),
                format!("(ok value {id})")
            );
        }
        match c.request(&Request::Stats).unwrap() {
            Reply::Stats(body) => assert_eq!(body.sessions, 6),
            other => panic!("want stats, got {}", other.encode()),
        }
        for &id in &ids {
            assert_eq!(
                c.request(&Request::Close { id, seq: None }).unwrap(),
                Reply::Closed { occupancy: 0 }
            );
        }
        assert_eq!(c.request(&Request::Shutdown).unwrap(), Reply::Draining);
        let outcome = handle.shutdown();
        assert_eq!(outcome.session_ids(), Vec::<u64>::new());
    }

    #[test]
    fn handshake_rejects_version_mismatch() {
        let handle = start("127.0.0.1:0", small_cfg(), ServerParams::default()).unwrap();
        let err = Client::connect_with_version(handle.addr(), Role::Client, PROTO_VERSION + 1)
            .expect_err("mismatched hello must be rejected");
        assert!(err.to_string().contains("unsupported-version"), "{err}");
        // A correct handshake still works.
        let mut c = Client::connect(handle.addr(), Role::Client).unwrap();
        assert!(!c.request(&Request::Stats).unwrap().is_err());
        handle.shutdown();
    }

    #[test]
    fn unknown_session_and_bad_frames_get_typed_errors() {
        let handle = start("127.0.0.1:0", small_cfg(), ServerParams::default()).unwrap();
        let mut c = Client::connect(handle.addr(), Role::Client).unwrap();
        assert_eq!(
            c.request(&Request::Eval {
                id: 404,
                seq: None,
                src: "(add 1 2)".to_string(),
            })
            .unwrap()
            .encode(),
            "(err session no-such-session)"
        );
        assert_eq!(
            c.request_text("(nonsense request)").unwrap(),
            "(err proto bad-request)"
        );
        assert_eq!(
            c.request_text("(open").unwrap(),
            "(err proto unexpected-eof)"
        );
        assert_eq!(
            c.request_text("(pull 0)").unwrap(),
            "(err repl disabled)",
            "pull against a non-replicating server"
        );
        handle.shutdown();
    }

    #[test]
    fn drain_leaves_only_verified_suspended_blobs() {
        // Cap 1 per shard and eight sessions: the final requests force
        // suspend-to-checkpoint churn right up to the drain. Barrier 2
        // must wait for those suspends, so every blob verifies.
        let cfg = ServeConfig {
            max_resident: 1,
            ..small_cfg()
        };
        let handle = start("127.0.0.1:0", cfg, ServerParams::default()).unwrap();
        let mut c = Client::connect(handle.addr(), Role::Client).unwrap();
        let ids: Vec<u64> = (0..8).map(|_| c.open().unwrap()).collect();
        for &id in &ids {
            c.request(&Request::Eval {
                id,
                seq: None,
                src: "(setq acc (cons 1 (cons 2 nil)))".to_string(),
            })
            .unwrap();
        }
        drop(c);
        let outcome = handle.shutdown();
        assert_eq!(outcome.session_ids(), ids);
        let verified = outcome.verify_suspended().expect("no torn blob at exit");
        let (evictions, _) = outcome.eviction_counters();
        assert!(evictions > 0, "cap 1 must have evicted");
        assert!(verified > 0, "some sessions must be suspended at exit");
    }

    #[test]
    fn a_panicking_control_job_leaves_the_standby_serving() {
        let params = ServerParams {
            shards: 1,
            replicate: true,
            ..ServerParams::default()
        };
        let handle = start_standby("127.0.0.1:0", small_cfg(), params).unwrap();
        let h = std::panic::AssertUnwindSafe(&handle);
        let lost = std::panic::catch_unwind(|| h.on_shard0(|_, _| panic!("injected")));
        assert!(lost.is_err(), "the panic reaches the caller");
        // Shard 0 survived: it still answers (a dead shard would leave
        // this read to time out), and still runs control jobs.
        let mut raw = raw_connect(handle.addr()).unwrap();
        raw.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        crate::protocol::write_frame(&mut raw, "(ping)").unwrap();
        let pong = crate::protocol::read_frame(&mut raw).expect("shard 0 answers");
        assert_eq!(pong.as_deref(), Some("(ok pong 0 standby)"));
        let mut c = Client::connect(handle.addr(), Role::Client).unwrap();
        assert_eq!(handle.apply(&[]).unwrap(), 0);
        handle.promote();
        assert!(!c.request(&Request::Stats).unwrap().is_err());
        handle.shutdown();
    }
}
