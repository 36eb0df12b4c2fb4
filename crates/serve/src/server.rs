//! The sharded server front end: listener, acceptor, lifecycle.
//!
//! [`start`] binds a listener and spawns one acceptor thread plus
//! [`ServerParams::shards`] shard event loops ([`crate::shard`]). The
//! acceptor does nothing but `accept` and deal connections round-robin
//! into per-shard inboxes — admission control (per-shard connection
//! caps, bounded run queues) lives in the shards, where it can always
//! answer with a typed reply instead of silently refusing.
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
use crate::repl::Wal;
use crate::session::ServeConfig;
use crate::shard::{shard_loop, RunQueue, SharedState};
use crate::telemetry::{prometheus_text, ShardMetrics, TraceLog, VolatileMetrics};
use small_metrics::EventCounts;
use small_persist::PersistError;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
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
pub fn start(addr: &str, cfg: ServeConfig, params: ServerParams) -> std::io::Result<ServerHandle> {
    assert!(params.shards > 0, "at least one shard");
    let listener = TcpListener::bind(addr)?;
    let stores = (0..params.shards).map(|_| SessionStore::new(cfg)).collect();
    start_on(listener, params, stores, None)
}

/// Start a server on an **already-bound** listener from a promoted
/// standby's replayed state ([`crate::repl::RelayNode::stop`] hands
/// both over). The listener keeps its file descriptor, so clients that
/// redial the standby's advertised address land on the new primary
/// without a rebind race. The retained WAL is installed as-is: its
/// next LSN continues the chain, so a downstream replica's `(pull …)`
/// cursor stays valid across the promotion.
///
/// The replayed store is necessarily single-sharded (a standby applies
/// one serial record stream), so `params.shards` must be 1; dedup
/// windows, the session-id allocator, and the token routes are all
/// seeded from the store, making retried pre-failover requests
/// answerable with their original replies.
pub fn start_promoted(
    listener: TcpListener,
    params: ServerParams,
    store: SessionStore,
    wal: Wal,
) -> std::io::Result<ServerHandle> {
    assert_eq!(params.shards, 1, "a promoted standby is single-sharded");
    assert!(params.replicate, "a promoted primary keeps shipping");
    start_on(listener, params, vec![store], Some(wal))
}

/// Shared tail of [`start`] and [`start_promoted`]: spawn the shard
/// loops over `stores` and the acceptor over `listener`.
fn start_on(
    listener: TcpListener,
    params: ServerParams,
    stores: Vec<SessionStore>,
    retained_wal: Option<Wal>,
) -> std::io::Result<ServerHandle> {
    assert_eq!(stores.len(), params.shards, "one store per shard");
    let local = listener.local_addr()?;
    let trace = params.trace.then(|| Arc::new(TraceLog::new()));
    let next_id = stores
        .iter()
        .map(|s| s.next_session_id())
        .max()
        .unwrap_or(0);
    let mut routes = TokenRoutes::new();
    for store in &stores {
        for (token, id) in store.token_routes() {
            routes.bind(token, id);
        }
    }
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
        next_id: AtomicU64::new(next_id),
        open_tokens: Mutex::new(routes),
        wal: match retained_wal {
            Some(wal) => Some(Mutex::new(wal)),
            None => params.replicate.then(|| Mutex::new(Wal::new())),
        },
        addr: local,
    });

    let shards: Vec<JoinHandle<SessionStore>> = stores
        .into_iter()
        .enumerate()
        .map(|(me, store)| {
            let shared = Arc::clone(&shared);
            let mut store = store.with_wall(params.wall);
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

    /// Records logged so far, when running as a primary (`None`
    /// otherwise). Lets a harness confirm a standby is caught up.
    pub fn wal_next_lsn(&self) -> Option<u64> {
        self.shared
            .wal
            .as_ref()
            .map(|w| w.lock().unwrap_or_else(|e| e.into_inner()).next_lsn())
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
        let volatile = self
            .shared
            .volatile
            .iter()
            .map(|cell| cell.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
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
}
