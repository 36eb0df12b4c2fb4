//! The deterministic soak harness: a concurrent client fleet against
//! the sharded TCP server, compared byte-for-byte with a serial
//! in-process twin.
//!
//! For every pinned seed, `clients` threads each open a session and
//! replay the seed's generated requests (see [`crate::gen`]); the same
//! streams then run serially through a never-evicting
//! [`SessionStore`] twin. Session isolation and eviction transparency
//! reduce to one check: **every transcript must be byte-identical**,
//! although the server interleaved requests across shards and
//! suspended/resumed sessions under per-shard LRU pressure. Fleet
//! session ids are racy, so fleet transcripts exclude the `(ok opened
//! …)` reply; every other reply is id-free.
//!
//! A deterministic *eviction sweep* follows on both sides:
//! `max_resident + 2` sessions driven round-robin over one lockstep
//! connection, so suspend/resume churn happens in a fixed order (with
//! fixed ids, so its transcript includes the opens) however the fleet
//! was scheduled. Then a live `(metrics)` snapshot's deterministic
//! section (per-kind counts and virtual-cycle latency histograms) must
//! equal the twin's: virtual latency is a pure function of each
//! request's operation stream and histogram merging is
//! order-independent. An optional **churn phase** (`churn > 0`) rolls
//! thousands of short-lived sessions through a fresh server across a
//! small worker fleet.
//!
//! The report (`results/soak_report.json`) holds only
//! schedule-independent data — digests, aggregate event counts, the
//! deterministic snapshot, match flags — so CI `cmp`s a double run.
//! Scheduling-dependent observables (evictions, req/s, per-shard
//! latency, Prometheus text, Chrome traces) go to the caller and
//! stderr, never to the report.

use crate::campaign::{
    clean_dial, digest_json, list_json, retry_client, serial_twin, transcript_digest,
    ClientCounters, Json,
};
use crate::client::Client;
use crate::gen::programs_for;
use crate::manager::SessionStore;
use crate::protocol::{Reply, Request, Role, PROTO_VERSION};
use crate::server::{self, DrainOutcome, ServerParams};
use crate::session::ServeConfig;
use crate::telemetry::{prometheus_text, ReqKind, ShardMetrics, VolatileMetrics};
use small_metrics::EventCounts;
use std::io;
use std::net::SocketAddr;
use std::time::Instant;

/// Soak run shape.
#[derive(Debug, Clone)]
pub struct SoakParams {
    /// Seeds to run (one server per seed).
    pub seeds: Vec<u64>,
    /// Concurrent clients per seed.
    pub clients: usize,
    /// Generated eval requests per client (plus fixed prologue/teardown).
    pub requests: usize,
    /// Per-session machine configuration; a small `max_resident` keeps
    /// every shard's LRU evictor busy during the fleet phase.
    pub cfg: ServeConfig,
    /// Server shape (shards, queue bounds, connection caps).
    pub server: ServerParams,
    /// Total short-lived sessions for the churn phase (0 = skip).
    pub churn: usize,
    /// Concurrent churn workers.
    pub churn_workers: usize,
}

impl Default for SoakParams {
    fn default() -> Self {
        SoakParams {
            seeds: vec![11, 23, 47],
            clients: 8,
            requests: 32,
            cfg: ServeConfig {
                heap_cells: 1 << 13,
                table_size: 384,
                // One resident session per shard: any two sessions
                // sharing a shard thrash suspend/resume.
                max_resident: 1,
                ..ServeConfig::default()
            },
            server: ServerParams {
                shards: 2,
                queue_cap: 64,
                max_conns_per_shard: 64,
                replicate: false,
                ..ServerParams::default()
            },
            churn: 0,
            churn_workers: 4,
        }
    }
}

/// What a soak run produced.
#[derive(Default)]
pub struct SoakOutcome {
    /// The deterministic JSON report body.
    pub report: String,
    /// Divergent transcripts, aggregate counts and metrics snapshots.
    pub mismatches: usize,
    /// Total LRU evictions across all servers (scheduling-dependent).
    pub evictions: u64,
    /// Total resume-on-touch events (scheduling-dependent).
    pub resumes: u64,
    /// Per-seed/per-shard stderr lines: sustained req/s and virtual
    /// eval latency p50/p99 (scheduling-dependent).
    pub summary: Vec<String>,
    /// Prometheus-style text exposition of the telemetry merged across
    /// every seed's server (the `--metrics-out` payload).
    pub prometheus: String,
    /// Chrome Trace Format JSON from the last seed's server, when the
    /// soak ran with [`ServerParams::trace`].
    pub chrome_trace: Option<String>,
    /// Retry totals of every fleet and churn worker: expected zero on
    /// clean local TCP, from the same client the chaos campaigns use.
    pub clients: ClientCounters,
}

/// One session's typed requests after its open: the programs as
/// evals, an audited session's ledger and digest, then the close.
fn session_requests(id: u64, programs: Vec<String>, audit: bool) -> Vec<Request> {
    let mut reqs: Vec<Request> = programs
        .into_iter()
        .map(|src| Request::Eval { id, seq: None, src })
        .collect();
    if audit {
        reqs.extend([Request::Ledger { id }, Request::Digest { id }]);
    }
    reqs.push(Request::Close { id, seq: None });
    reqs
}

/// A worker's wire transcript plus its retry counters.
type WireRun = io::Result<(Vec<String>, ClientCounters)>;

/// One worker's conversation over TCP: per session, open, then send
/// its requests and transcript every reply but the open's (session ids
/// are racy across concurrent workers).
fn wire_worker(addr: SocketAddr, jitter: u64, sessions: Vec<Vec<String>>, audit: bool) -> WireRun {
    let mut c = retry_client(vec![clean_dial(addr)], jitter);
    let mut t = Vec::new();
    for programs in sessions {
        let id = match c.request(&Request::Open { token: None })? {
            Reply::Opened { id } => id,
            other => return Err(io::Error::new(io::ErrorKind::InvalidData, other.encode())),
        };
        for req in session_requests(id, programs, audit) {
            t.push(c.request_text(&req.encode())?);
        }
    }
    Ok((t, ClientCounters::of(&c)))
}

/// The serial twin of [`wire_worker`]: same typed requests, one
/// thread, no eviction, each reply kept as `read` makes it.
fn twin_worker<R>(
    twin: &mut SessionStore,
    sessions: Vec<Vec<String>>,
    audit: bool,
    read: impl Fn(Reply) -> R,
) -> Vec<R> {
    let mut t = Vec::new();
    for programs in sessions {
        let Reply::Opened { id } = twin.apply(&Request::Open { token: None }) else {
            unreachable!("a twin open always succeeds");
        };
        for req in session_requests(id, programs, audit) {
            t.push(read(twin.apply(&req)));
        }
    }
    t
}

/// Run `n` workers on scoped threads; a panicked worker reads as an
/// error.
fn fleet(n: usize, work: impl Fn(u64) -> WireRun + Sync) -> Vec<WireRun> {
    std::thread::scope(|s| {
        let work = &work;
        let joins: Vec<_> = (0..n as u64).map(|w| s.spawn(move || work(w))).collect();
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|_| Err(io::Error::other("worker panicked")))
            })
            .collect()
    })
}

/// The deterministic eviction sweep over any transport: two sessions
/// more than `max_resident`, driven round-robin, so every round
/// suspends and resumes in a fixed order. Lockstep, so the opens are
/// deterministic and transcripted; `opened` reads the id out of one.
fn run_sweep<R>(
    seed: u64,
    cfg: &ServeConfig,
    mut send: impl FnMut(&Request) -> io::Result<R>,
    opened: impl Fn(&R) -> Option<u64>,
) -> io::Result<Vec<R>> {
    let fleet = cfg.max_resident + 2;
    let sweep_seed = seed.wrapping_add(0x5eed);
    let mut t = Vec::new();
    let mut ids = Vec::new();
    for _ in 0..fleet {
        let reply = send(&Request::Open { token: None })?;
        let id = opened(&reply)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "sweep open refused"))?;
        t.push(reply);
        ids.push(id);
    }
    let progs: Vec<Vec<String>> = (0..fleet)
        .map(|k| programs_for(sweep_seed, k as u64, 6))
        .collect();
    let rounds = progs[0].len();
    for round in 0..rounds {
        for (&id, prog) in ids.iter().zip(progs.iter()) {
            t.push(send(&Request::Eval {
                id,
                seq: None,
                src: prog[round].clone(),
            })?);
        }
    }
    for &id in &ids {
        t.push(send(&Request::Ledger { id })?);
        t.push(send(&Request::Digest { id })?);
        t.push(send(&Request::Close { id, seq: None })?);
    }
    Ok(t)
}

fn opened_id(reply: &Reply) -> Option<u64> {
    match reply {
        Reply::Opened { id } => Some(*id),
        _ => None,
    }
}

/// [`run_sweep`] with replies read as transcript text.
fn text_sweep(
    seed: u64,
    cfg: &ServeConfig,
    send: impl FnMut(&Request) -> io::Result<String>,
) -> io::Result<Vec<String>> {
    run_sweep(seed, cfg, send, |text: &String| {
        Reply::decode(text).as_ref().and_then(opened_id)
    })
}

/// Run one seed's serial twin alone — the fleet scripts plus the
/// eviction sweep, no TCP, no threads — and return its request
/// telemetry. This is the deterministic "soak cell" the bench
/// trajectory commits: virtual-cycle latency histograms that any
/// machine reproduces byte-identically from the seed.
pub fn twin_telemetry(
    seed: u64,
    clients: usize,
    requests: usize,
    cfg: &ServeConfig,
) -> ShardMetrics {
    let mut twin = serial_twin(cfg);
    // The same requests as the transcripted path, but nobody reads the
    // replies here — telemetry is recorded inside `apply` — so no reply
    // is ever encoded.
    for c in 0..clients as u64 {
        twin_worker(&mut twin, vec![programs_for(seed, c, requests)], true, drop);
    }
    run_sweep(seed, cfg, |req| Ok(twin.apply(req)), opened_id).expect("serial sweep is infallible");
    twin.telemetry().clone()
}

fn counts_json(c: &EventCounts) -> String {
    let mut json = Json::default();
    for (name, value) in EventCounts::WORD_NAMES.iter().zip(c.to_words()) {
        json.put(*name, value);
    }
    json.render()
}

/// The totals accumulate in the outcome as the soak runs.
impl SoakOutcome {
    /// Count every failed check as a mismatch.
    fn check(&mut self, oks: &[bool]) {
        self.mismatches += oks.iter().filter(|ok| !**ok).count();
    }

    /// Add a drained server's eviction/resume counters.
    fn drained(&mut self, outcome: &DrainOutcome) {
        let (evictions, resumes) = outcome.eviction_counters();
        self.evictions += evictions;
        self.resumes += resumes;
    }

    /// Replay each worker's sessions through the twin and compare with
    /// its wire transcript (one that could not be collected cannot
    /// match): one `{who, reply_digest, match}` entry per worker.
    fn compare(
        &mut self,
        twin: &mut SessionStore,
        wire: &[WireRun],
        who: &str,
        sessions: impl Fn(u64) -> Vec<Vec<String>>,
        audit: bool,
    ) -> String {
        let mut entries = Vec::new();
        for (w, got) in wire.iter().enumerate() {
            let serial = twin_worker(twin, sessions(w as u64), audit, |r| r.encode());
            let ok = matches!(got, Ok((t, _)) if *t == serial);
            if let Ok((_, c)) = got {
                self.clients += *c;
            }
            self.check(&[ok]);
            let mut entry = Json::default();
            entry.put(who, w);
            entry.put("reply_digest", digest_json(transcript_digest(&serial)));
            entries.push(entry.put("match", ok).render());
        }
        list_json(&entries)
    }
}

/// The churn phase: `p.churn` sessions rolled through a fresh server by
/// `p.churn_workers` concurrent connections, vs. a serial twin.
fn run_churn(p: &SoakParams, seed: u64, out: &mut SoakOutcome) -> io::Result<String> {
    let workers = p.churn_workers.max(1);
    let per_worker = p.churn.div_ceil(workers);
    let handle = server::start("127.0.0.1:0", p.cfg, p.server)?;
    let addr = handle.addr();
    // Each worker rolls `per_worker` short-lived sessions: open, a
    // short generated script, close.
    let sessions = |w: u64| -> Vec<Vec<String>> {
        (0..per_worker as u64)
            .map(|k| programs_for(seed ^ 0xc4a0, w * 1_000_003 + k, 2))
            .collect()
    };
    let wire = fleet(workers, |w| {
        wire_worker(addr, seed ^ w.rotate_left(48), sessions(w), false)
    });
    let outcome = handle.shutdown();
    out.drained(&outcome);

    // Serial twin: every worker's scripts, one store, no eviction.
    let mut twin = serial_twin(&p.cfg);
    let transcripts = out.compare(&mut twin, &wire, "worker", sessions, false);
    let counts_ok = outcome.aggregate_counts() == twin.aggregate_counts();
    out.check(&[counts_ok]);
    Ok(Json::default()
        .put("sessions", per_worker * workers)
        .put("workers", workers)
        .put("counts_match", counts_ok)
        .put("transcripts", transcripts)
        .render())
}

/// Run the full soak campaign. IO errors from the TCP leg surface as
/// mismatches (a transcript that could not be collected can't match),
/// not process aborts.
pub fn run_soak(p: &SoakParams) -> io::Result<SoakOutcome> {
    let mut runs = Vec::new();
    let mut out = SoakOutcome::default();
    let mut total_reqs = ShardMetrics::default();
    let mut total_vol = VolatileMetrics::default();

    for &seed in &p.seeds {
        let handle = server::start("127.0.0.1:0", p.cfg, p.server)?;
        let addr = handle.addr();
        let t_run = Instant::now();

        // Phase 1: the concurrent fleet.
        // One audited session per client.
        let sessions = |c| vec![programs_for(seed, c, p.requests)];
        let wire = fleet(p.clients, |c| {
            wire_worker(addr, seed ^ c.rotate_left(32), sessions(c), true)
        });

        // Phase 2: the deterministic eviction sweep over one connection.
        let sweep_server: io::Result<Vec<String>> = (|| {
            let mut c = Client::connect(addr, Role::Client)?;
            text_sweep(seed, &p.cfg, |req| c.request_text(&req.encode()))
        })();

        let elapsed = t_run.elapsed();

        // The live wire surface: a `(metrics)` snapshot fetched after
        // every fleet and sweep reply has been received. Reply release
        // happens only after the owning shard publishes its telemetry
        // cell, so this merged snapshot is final — its deterministic
        // section must equal the serial twin's, byte for byte.
        let wire_metrics: io::Result<String> = (|| {
            let mut c = Client::connect(addr, Role::Client)?;
            match c.request(&Request::Metrics)? {
                Reply::Metrics { deterministic, .. } => Ok(deterministic),
                other => Err(io::Error::new(io::ErrorKind::InvalidData, other.encode())),
            }
        })();

        // Graceful drain; the outcome carries final state for audit.
        if let Ok(mut c) = Client::connect(addr, Role::Client) {
            let _ = c.request(&Request::Shutdown);
        }
        let outcome = handle.shutdown();
        out.drained(&outcome);

        // Per-shard virtual-clock latency summary (scheduling-dependent:
        // fleet session ids are racy, so shard assignment varies).
        let seed_reqs: u64 = outcome
            .stores
            .iter()
            .map(|s| s.telemetry().requests())
            .sum();
        let secs = elapsed.as_secs_f64().max(1e-9);
        out.summary.push(format!(
            "seed {seed}: {seed_reqs} requests in {secs:.3}s ({:.0} req/s sustained)",
            seed_reqs as f64 / secs
        ));
        for (k, store) in outcome.stores.iter().enumerate() {
            let t = store.telemetry();
            let e = t.kind(ReqKind::Eval);
            out.summary.push(format!(
                "  shard {k}: {} requests, {} evals, eval latency p50={} p99={} cycles",
                t.requests(),
                e.count.get(),
                e.cycles.quantile(0.5),
                e.cycles.quantile(0.99),
            ));
        }
        total_reqs.merge(&outcome.telemetry());
        total_vol.merge(&outcome.volatile_total());
        if let Some(json) = outcome.chrome_trace() {
            out.chrome_trace = Some(json);
        }
        // The drain guarantee has teeth: every suspended blob written
        // by the final evictions must decode cleanly.
        let blobs_ok = outcome.verify_suspended().is_ok();

        // Serial twin: same typed requests, one thread, no eviction.
        let mut twin = serial_twin(&p.cfg);
        let sessions_json = out.compare(&mut twin, &wire, "client", sessions, true);
        let sweep_serial = text_sweep(seed, &p.cfg, |req| Ok(twin.apply(req).encode()))
            .expect("serial sweep is infallible");
        let serial_counts = twin.aggregate_counts();
        let twin_metrics = twin.telemetry().deterministic_json();

        let sweep_ok = matches!(&sweep_server, Ok(t) if *t == sweep_serial);
        let counts_ok = outcome.aggregate_counts() == serial_counts;
        // The telemetry gate: the sharded, racy, eviction-thrashed
        // server's snapshot must be byte-identical to the twin's.
        let metrics_ok = matches!(&wire_metrics, Ok(det) if *det == twin_metrics);
        out.check(&[sweep_ok, counts_ok, blobs_ok, metrics_ok]);
        runs.push(
            Json::default()
                .put("seed", seed)
                .put("sessions", sessions_json)
                .put(
                    "sweep_digest",
                    digest_json(transcript_digest(&sweep_serial)),
                )
                .put("sweep_match", sweep_ok)
                .put("counts_match", counts_ok)
                .put("metrics_match", metrics_ok)
                .put("drain_blobs_ok", blobs_ok)
                .put("metrics", twin_metrics)
                .put("aggregate", counts_json(&serial_counts))
                .render(),
        );
    }

    // Phase 3 (optional): multi-thousand-session churn on the first seed.
    let churn_json = match p.churn {
        0 => "null".to_string(),
        _ => run_churn(p, p.seeds.first().copied().unwrap_or(11), &mut out)?,
    };

    out.report = Json::default()
        .put("schema", "\"soak_report_v3\"")
        .put("proto_version", PROTO_VERSION)
        .put("clients", p.clients)
        .put("requests", p.requests)
        .put("shards", p.server.shards)
        .put("queue_cap", p.server.queue_cap)
        .put("seeds", list_json(&p.seeds))
        .put("all_match", out.mismatches == 0)
        .put("churn", churn_json)
        .put("runs", format!("[{}]", runs.join(",")))
        .render()
        + "\n";
    out.prometheus = prometheus_text(&total_reqs, &total_vol);
    Ok(out)
}
