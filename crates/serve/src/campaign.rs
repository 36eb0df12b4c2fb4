//! The lockstep campaign engine: one driver, three scenarios.
//!
//! A campaign is declared as data — a [`Scenario`]: topology (a chain
//! of [`server::start_standby`] relays behind a replicating primary) ×
//! [`Faults`] × kills (one per relay) × script × epilogue — and
//! [`FAILOVER`], [`NETCHAOS`] and [`CLUSTERCHAOS`] reproduce the three
//! committed `results/*_report.json` files. The engine drives the
//! script in lockstep through a cluster-aware [`RetryClient`], ships
//! the WAL one step down the chain after every acknowledged request,
//! and kills the serving node at pinned operation indices. Promotion
//! is the standby's own decision: its [`Lease`], fed by `(ping)`
//! heartbeats, expires after consecutive missed probes and it promotes
//! in place on its own listener, so everything after a kill travels
//! the wire.
//!
//! The oracle is the uninterrupted serial twin, a never-evicting
//! [`SessionStore`] fed the same requests: every reply, the survivor's
//! event counts and its live sessions must match it byte for byte.
//! Drains, leases, promotions, re-sent mutations (answered from the
//! replicated dedup window) and seeded faults are checked along the
//! way, and a run is clean only if no check fails. Reports hold only
//! schedule-independent data; retry counts go to stderr.
//!
//! The module also holds what the soak harness shares with it, and
//! the one argument parser of the serving bins.

use crate::client::{self, splitmix64, Client, DialFn, RetryClient, RetryPolicy, Transport};
use crate::gen::{programs_for, PINNED_SEEDS};
use crate::manager::SessionStore;
use crate::protocol::{Reply, Request, Role, PROTO_VERSION};
use crate::repl::{Lease, LeaseParams, ReplError};
use crate::server::{self, ServerHandle, ServerParams};
use crate::session::ServeConfig;
use small_persist::{digest_bytes, DIGEST_SEED};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One `(ping)` heartbeat per this many script ops feeds the lease; the
/// beat count is a deterministic function of the kill points.
const HEARTBEAT_EVERY: usize = 8;

/// Tokens for sequenced opens start here, far from the session ids.
const TOKEN_BASE: u64 = 1000;

/// What the wire and the replication path suffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faults {
    /// Clean TCP, clean pulls.
    Clean,
    /// A seeded [`FaultPlan`] until the first kill, where pending
    /// resets are dropped: a seq-less epilogue cannot be re-sent.
    UntilFirstKill,
    /// The plan plus six more resets, firing across every kill.
    Throughout,
}

/// One campaign, declared as data.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Bin name; the default report is `results/<name>_report.json`.
    pub name: &'static str,
    /// Report schema tag.
    pub schema: &'static str,
    /// The standby chain behind the primary, one `max_resident` per
    /// relay (each unlike the primary's, so replay eviction cannot leak
    /// into replicated state). Each kill promotes the next relay.
    pub relays: &'static [usize],
    /// Fault injection.
    pub faults: Faults,
    /// Script opens carry tokens and evals carry sequence numbers.
    pub sequenced_script: bool,
    /// Epilogue opens carry tokens and closes carry sequence numbers.
    pub sequenced_epilogue: bool,
    /// Default seeds.
    pub seeds: &'static [u64],
    /// Default first-kill indices; later kills are derived.
    pub kill_points: &'static [usize],
    /// Report header keys in order, whitespace-separated; `key=fact`
    /// writes a measured fact under another key.
    pub header: &'static str,
    /// Per-run keys, in order, same convention.
    pub run_fields: &'static str,
}

/// One standby, one kill, no faults, seq-less script and epilogue.
pub const FAILOVER: Scenario = Scenario {
    name: "failover",
    schema: "failover_report_v2",
    relays: &[1],
    faults: Faults::Clean,
    sequenced_script: false,
    sequenced_epilogue: false,
    seeds: &[11, 23],
    // Script length is sessions * (requests + 4) = 48 ops: early
    // (mid-open ramp), middle, late.
    kill_points: &[5, 23, 41],
    header: "schema proto_version sessions requests kill_points seeds all_match runs",
    run_fields: "seed kill_at=kill1 ops replicated_lsn=replicated_lsn1 lease_beats=lease1_beats \
                 lease_misses=lease1_misses lease_expired=lease1_expired transcript_digest \
                 transcript_match counts_match primary_drain_ok=drain1_ok",
};

/// One standby, one kill, seeded faults, sequenced script.
pub const NETCHAOS: Scenario = Scenario {
    name: "netchaos",
    schema: "netchaos_report_v1",
    relays: &[1],
    faults: Faults::UntilFirstKill,
    sequenced_script: true,
    sequenced_epilogue: false,
    seeds: &[11, 23, 47],
    kill_points: &[5, 31],
    header: "schema proto_version sessions requests kill_points seeds fault_points all_match runs",
    run_fields: "seed kill_at=kill1 ops resets_planned resets_fired dup_pulls delayed_pulls \
                 corrupt_probes max_pull_lag=max_hop1_lag replicated_lsn=replicated_lsn1 \
                 lease_beats=lease1_beats lease_misses=lease1_misses lease_expired=lease1_expired \
                 transcript_digest transcript_match counts_match retry_cached=retry1_cached \
                 dup_idempotent corrupt_failed_closed primary_drain_ok=drain1_ok",
};

/// Two chained relays (primary → S1 → S2), two kills, seeded faults
/// throughout, sequenced script and wire epilogue.
pub const CLUSTERCHAOS: Scenario = Scenario {
    name: "clusterchaos",
    schema: "clusterchaos_report_v2",
    relays: &[1, 3],
    faults: Faults::Throughout,
    sequenced_script: true,
    sequenced_epilogue: true,
    seeds: &[11, 23],
    // kill1 = 5 → kill2 = 26, kill1 = 31 → kill2 = 39.
    kill_points: &[5, 31],
    header: "schema proto_version chain sessions requests kill_points seeds fault_points \
             all_match runs",
    run_fields: "seed kill1 kill2 ops resets_planned resets_fired dup_pulls delayed_pulls \
                 corrupt_probes chain_dup_pulls max_hop1_lag max_hop2_lag replicated_lsn1 \
                 replicated_lsn2 lease1_beats lease2_beats transcript_digest transcript_match \
                 counts_match sessions_match retry1_cached retry2_cached window1_survives \
                 relay_metrics_ok lease1_expired lease2_expired promote1_ok promote2_ok \
                 dup_idempotent chain_dup_idempotent corrupt_failed_closed drains_ok",
};

/// Campaign shape: the knobs the bins expose, plus machine and server
/// configuration.
#[derive(Debug, Clone)]
pub struct CampaignParams {
    /// Seeds to run; every seed runs once per kill point.
    pub seeds: Vec<u64>,
    /// Sessions opened before the eval rounds.
    pub sessions: usize,
    /// Generated eval requests per session (the generator adds three).
    pub requests: usize,
    /// Operation indices at which the primary is first killed.
    pub kill_points: Vec<usize>,
    /// Primary and twin machine configuration (relays: see `relays`).
    pub cfg: ServeConfig,
    /// Primary server shape; `replicate` is forced on.
    pub server: ServerParams,
}

impl Scenario {
    /// The scenario's default campaign.
    pub fn params(&self) -> CampaignParams {
        CampaignParams {
            seeds: self.seeds.to_vec(),
            sessions: 4,
            requests: 8,
            kill_points: self.kill_points.to_vec(),
            cfg: ServeConfig {
                heap_cells: 1 << 13,
                table_size: 384,
                max_resident: 2,
                ..ServeConfig::default()
            },
            server: ServerParams {
                shards: 2,
                queue_cap: 64,
                max_conns_per_shard: 16,
                replicate: true,
                ..ServerParams::default()
            },
        }
    }
}

/// Retry, reconnect and redial totals of [`RetryClient`]s. Attempt
/// counts are timing-dependent, so they are only ever printed — never
/// put in a byte-compared report.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientCounters([u64; 3]);

impl ClientCounters {
    /// One client's counters.
    pub fn of<T: Transport>(c: &RetryClient<T>) -> ClientCounters {
        ClientCounters([c.retries(), c.reconnects(), c.redials()])
    }
}

impl std::ops::AddAssign for ClientCounters {
    fn add_assign(&mut self, o: ClientCounters) {
        for (sum, n) in self.0.iter_mut().zip(o.0) {
            *sum += n;
        }
    }
}

impl fmt::Display for ClientCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [r, c, d] = self.0;
        write!(f, "retries={r} reconnects={c} redials={d}")
    }
}

/// What a campaign produced.
pub struct CampaignOutcome {
    /// The deterministic JSON report body.
    pub report: String,
    /// Runs with any divergence or an unsurvived fault.
    pub mismatches: usize,
    /// Fault points injected across the whole campaign.
    pub fault_points: usize,
    /// Client retry totals (stderr material).
    pub clients: ClientCounters,
}

/// Digest of a reply transcript, as the reports print it.
pub(crate) fn transcript_digest(replies: &[String]) -> u64 {
    replies
        .iter()
        .fold(DIGEST_SEED, |h, r| digest_bytes(h, r.as_bytes()))
}

/// The oracle: a store that never evicts, fed the same typed requests.
pub(crate) fn serial_twin(cfg: &ServeConfig) -> SessionStore {
    SessionStore::new(ServeConfig {
        max_resident: usize::MAX,
        ..*cfg
    })
}

/// A clean-TCP dial closure for one endpoint.
pub(crate) fn clean_dial(addr: SocketAddr) -> DialFn<TcpStream> {
    Box::new(move || Client::connect(addr, Role::Client))
}

/// A faulty-transport dial closure for one endpoint. The plain
/// `connect` runs *outside* the fault state, so a dead endpoint
/// (connection refused) consumes no fault-schedule bytes and the
/// reset offsets stay a pure function of the run key.
fn faulty_dial(addr: SocketAddr, state: &Arc<Mutex<FaultState>>) -> DialFn<FaultyStream> {
    let state = Arc::clone(state);
    Box::new(move || {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Client::from_transport(FaultyStream::new(stream, Arc::clone(&state)), Role::Client)
    })
}

/// The retrying client every harness drives: an ordered endpoint list
/// (one entry against a single server) scanned for the current
/// primary, with a seeded jitter stream.
pub(crate) fn retry_client<T: Transport>(endpoints: Vec<DialFn<T>>, seed: u64) -> RetryClient<T> {
    RetryClient::with_endpoints(
        endpoints,
        RetryPolicy {
            attempts: 10,
            seed,
            ..RetryPolicy::default()
        },
    )
}

/// The one report writer: a JSON object with keys in insertion order
/// and values already rendered.
#[derive(Debug, Default)]
pub(crate) struct Json(Vec<(String, String)>);

impl Json {
    /// Append `key: value`, `value` rendered by its `Display`.
    pub(crate) fn put(&mut self, key: impl Into<String>, value: impl fmt::Display) -> &mut Json {
        self.0.push((key.into(), value.to_string()));
        self
    }

    /// The object, keys in insertion order.
    pub(crate) fn render(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", fields.join(","))
    }

    /// The object restricted to the whitespace-separated `fields`, in
    /// that order; `key=fact` writes the value of `fact` under `key`.
    fn select(&self, fields: &str) -> String {
        let mut out = Json::default();
        for spec in fields.split_whitespace() {
            let (key, fact) = spec.split_once('=').unwrap_or((spec, spec));
            let (_, value) = self
                .0
                .iter()
                .find(|(k, _)| k == fact)
                .unwrap_or_else(|| panic!("report field `{fact}` was never measured"));
            out.put(key, value);
        }
        out.render()
    }
}

/// A digest as the reports print it.
pub(crate) fn digest_json(h: u64) -> String {
    format!("\"d{h:016x}\"")
}

/// A JSON array of already-rendered items.
pub(crate) fn list_json<T: fmt::Display>(items: &[T]) -> String {
    let items: Vec<String> = items.iter().map(T::to_string).collect();
    format!("[{}]", items.join(","))
}

/// The seeded fault schedule for one run. Everything here is computed
/// up front from `(seed, kill_at)` — nothing is drawn during I/O — so
/// the faults a run experiences are a pure function of its key.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Cumulative client-connection byte offsets (reads + writes
    /// combined, across reconnects) at which the connection is reset.
    pub reset_offsets: Vec<u64>,
    /// Script indices after which the standby re-applies an
    /// already-applied batch (must be skipped as a duplicate).
    pub dup_pulls: Vec<usize>,
    /// Script indices whose catch-up is skipped (applied lag grows).
    /// Never includes the final pre-kill index, so the standby is
    /// always caught up when the primary dies.
    pub delayed_pulls: Vec<usize>,
    /// Script indices where a corrupted copy of the next batch is
    /// probed (must fail closed) before the clean batch applies.
    pub corrupt_pulls: Vec<usize>,
}

impl FaultPlan {
    /// Build the plan for one `(seed, kill_at)` run.
    pub fn new(seed: u64, kill_at: usize) -> FaultPlan {
        let mut rng = seed ^ 0x6E65_7463_6861_6F73; // "netchaos"
        let mut reset_offsets = Vec::new();
        // First reset lands inside the early frames; spacing leaves a
        // full retry cycle (redial handshake + re-send + reply) of
        // headroom so a bounded attempt budget always wins through.
        let mut at = 200 + splitmix64(&mut rng) % 256;
        for _ in 0..6 {
            reset_offsets.push(at);
            at += 384 + splitmix64(&mut rng) % 512;
        }
        let (mut dup_pulls, mut delayed_pulls, mut corrupt_pulls) =
            (Vec::new(), Vec::new(), Vec::new());
        for i in 1..kill_at {
            match splitmix64(&mut rng) % 8 {
                0 => dup_pulls.push(i),
                1 if i + 1 < kill_at => delayed_pulls.push(i),
                2 => corrupt_pulls.push(i),
                _ => {}
            }
        }
        FaultPlan {
            reset_offsets,
            dup_pulls,
            delayed_pulls,
            corrupt_pulls,
        }
    }

    /// Distinct fault points this plan schedules (resets are counted
    /// as planned here; the report also records how many fired).
    pub fn points(&self) -> usize {
        self.reset_offsets.len()
            + self.dup_pulls.len()
            + self.delayed_pulls.len()
            + self.corrupt_pulls.len()
    }
}

/// Six extra reset offsets continuing the plan's spacing, for a wire
/// that stays faulty across every kill and so moves far more bytes.
fn extended_resets(seed: u64, base: &[u64]) -> Vec<u64> {
    let mut rng = seed ^ 0x0063_6C75_7374_6572; // "cluster"
    let mut offsets = base.to_vec();
    let mut at = offsets.last().copied().unwrap_or(200);
    for _ in 0..6 {
        at += 384 + splitmix64(&mut rng) % 512;
        offsets.push(at);
    }
    offsets
}

/// Shared fault-injection state: one per run, threaded through every
/// [`FaultyStream`] the run's client dials, so byte counters and the
/// reset queue survive reconnects.
#[derive(Debug)]
pub struct FaultState {
    /// Chunk-size stream. Private to the transport: its consumption
    /// rate depends on call timing, which is why reset offsets are
    /// *not* drawn from it during I/O.
    rng: u64,
    /// Cumulative bytes moved (reads + writes) across every connection
    /// sharing this state.
    transferred: u64,
    /// Pending reset offsets against `transferred`, ascending.
    resets: VecDeque<u64>,
    /// Offsets consumed so far.
    resets_fired: u64,
}

impl FaultState {
    /// Fresh shared state with a seeded chunker and a reset queue.
    pub fn shared(seed: u64, reset_offsets: &[u64]) -> Arc<Mutex<FaultState>> {
        Arc::new(Mutex::new(FaultState {
            rng: seed ^ 0x5DEE_CE66_D1CE_4E5B,
            transferred: 0,
            resets: reset_offsets.iter().copied().collect(),
            resets_fired: 0,
        }))
    }

    /// Resets injected so far.
    pub fn resets_fired(&self) -> u64 {
        self.resets_fired
    }

    /// Total bytes moved through faulty streams so far.
    pub fn transferred(&self) -> u64 {
        self.transferred
    }

    /// Budget for one I/O call of at most `len` bytes: `None` means
    /// the call must inject a reset *now* (the counter sits exactly on
    /// a planned offset); otherwise the allowed size, clamped to the
    /// seeded chunk and to the distance to the next offset so the
    /// counter can never jump past one.
    fn pre_io(&mut self, len: usize) -> Option<usize> {
        if let Some(&next) = self.resets.front() {
            if self.transferred >= next {
                self.resets.pop_front();
                self.resets_fired += 1;
                return None;
            }
        }
        let chunk = 1 + (splitmix64(&mut self.rng) % 64) as usize;
        let room = self
            .resets
            .front()
            .map(|&next| (next - self.transferred) as usize)
            .unwrap_or(usize::MAX);
        Some(len.min(chunk).min(room))
    }
}

fn lock_faults(state: &Mutex<FaultState>) -> std::sync::MutexGuard<'_, FaultState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

/// A [`TcpStream`] that tears frames and dies on schedule: every read
/// and write is clamped to a seeded chunk size, and when the shared
/// cumulative byte counter reaches a planned offset the socket is shut
/// down and the call fails with `ConnectionReset`. Implements
/// [`Transport`], so a [`Client`] runs over it unchanged.
#[derive(Debug)]
pub struct FaultyStream {
    inner: TcpStream,
    state: Arc<Mutex<FaultState>>,
}

impl FaultyStream {
    /// Wrap a connected stream in a run's shared fault state.
    pub fn new(inner: TcpStream, state: Arc<Mutex<FaultState>>) -> FaultyStream {
        FaultyStream { inner, state }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        lock_faults(&self.state)
    }

    fn inject_reset(&self) -> io::Error {
        let _ = self.inner.shutdown(Shutdown::Both);
        io::Error::new(io::ErrorKind::ConnectionReset, "injected reset")
    }
}

impl Read for FaultyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let cap = match self.lock().pre_io(buf.len()) {
            Some(cap) => cap,
            None => return Err(self.inject_reset()),
        };
        let n = self.inner.read(&mut buf[..cap])?;
        self.lock().transferred += n as u64;
        Ok(n)
    }
}

impl Write for FaultyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let cap = match self.lock().pre_io(buf.len()) {
            Some(cap) => cap,
            None => return Err(self.inject_reset()),
        };
        let n = self.inner.write(&buf[..cap])?;
        self.lock().transferred += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Transport for FaultyStream {
    fn try_split(&self) -> io::Result<FaultyStream> {
        Ok(FaultyStream {
            inner: self.inner.try_clone()?,
            state: Arc::clone(&self.state),
        })
    }
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(timeout)
    }
}

/// The campaign script: open every session (lockstep, so session `s`
/// has id `s`), then deal the generated programs round-robin. A
/// sequenced script tokenizes the opens and numbers each session's
/// evals densely, so every mutating request can be re-sent verbatim.
fn script(seed: u64, sessions: usize, requests: usize, sequenced: bool) -> Vec<Request> {
    let mut ops: Vec<Request> = (0..sessions as u64)
        .map(|s| Request::Open {
            token: sequenced.then_some(TOKEN_BASE + s),
        })
        .collect();
    let progs: Vec<Vec<String>> = (0..sessions)
        .map(|s| programs_for(seed, s as u64, requests))
        .collect();
    let rounds = progs.first().map_or(0, Vec::len);
    for round in 0..rounds {
        for (s, prog) in progs.iter().enumerate() {
            ops.push(Request::Eval {
                id: s as u64,
                seq: sequenced.then_some(round as u64),
                src: prog[round].clone(),
            });
        }
    }
    ops
}

/// The post-promotion epilogue: a fresh session proving id continuity,
/// then ledger/digest/close for every original session. A sequenced
/// epilogue tokenizes the open and numbers each original session's
/// close after that session's last sequenced eval in `script`, so the
/// close takes effect and the session ends closed.
fn epilogue(script: &[Request], sessions: usize, sequenced: bool) -> Vec<Request> {
    let fresh = sessions as u64;
    let seq = |s: u64| sequenced.then_some(s);
    let mut ops = vec![
        Request::Open {
            token: sequenced.then_some(TOKEN_BASE + fresh),
        },
        Request::Eval {
            id: fresh,
            seq: seq(0),
            src: "(setq acc (cons 7 nil))".to_string(),
        },
        Request::Close {
            id: fresh,
            seq: seq(1),
        },
    ];
    for s in 0..fresh {
        let next = script
            .iter()
            .filter_map(|op| match op {
                Request::Eval {
                    id, seq: Some(q), ..
                } if *id == s => Some(q + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        ops.push(Request::Ledger { id: s });
        ops.push(Request::Digest { id: s });
        ops.push(Request::Close {
            id: s,
            seq: seq(next),
        });
    }
    ops
}

/// The kill after `kill`: halfway through the script remaining after
/// it, at least two ops later, and always inside the script.
fn second_kill(kill: usize, ops: usize) -> usize {
    (kill + 2.max(ops.saturating_sub(kill) / 2))
        .min(ops.saturating_sub(1))
        .max(kill)
}

/// Index of the last re-sendable mutation before `end`.
fn last_mutation(ops: &[Request], end: usize) -> Option<usize> {
    ops[..end].iter().rposition(|op| {
        matches!(
            op,
            Request::Eval { seq: Some(_), .. } | Request::Open { token: Some(_) }
        )
    })
}

/// One `(ping)` probe of `addr` folded into `lease`; true if answered.
fn heartbeat(addr: SocketAddr, lease: &mut Lease) -> bool {
    let pong = client::ping(addr, lease.params().ping_timeout);
    match pong {
        Some(lsn) => lease.beat(lsn),
        None => _ = lease.miss(),
    }
    pong.is_some()
}

/// Wait out a lease against a dead primary (bounded, in case a
/// concurrent listener grabs the freed port). Clean expiry means no
/// miss before the kill and exactly `miss_threshold` ones after.
fn expire_lease(addr: SocketAddr, lease: &mut Lease) -> bool {
    let misses_before = lease.misses();
    for _ in 0..lease.params().miss_threshold * 10 {
        if lease.is_expired() {
            break;
        }
        heartbeat(addr, lease);
    }
    misses_before == 0 && lease.is_expired() && lease.misses() == lease.params().miss_threshold
}

fn repl_io(e: ReplError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// The LSN a replicating node logs next: a primary's log length, a
/// standby's replay cursor.
fn next_lsn(node: &ServerHandle) -> u64 {
    node.wal_next_lsn().expect("every campaign node replicates")
}

/// Pull a standby up to `target` through a replica-role connection.
fn pull_to(puller: &mut Client, relay: &ServerHandle, target: u64) -> io::Result<()> {
    while next_lsn(relay) < target {
        let from = next_lsn(relay);
        let (next, bytes) = puller.pull(from)?;
        if next == from {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("upstream cannot serve lsn {from} (target {target})"),
            ));
        }
        relay.apply(&bytes).map_err(repl_io)?;
    }
    Ok(())
}

/// Whether the relay at `addr` reports itself caught up on the
/// `(metrics)` discovery surface.
fn relay_caught_up(addr: SocketAddr) -> io::Result<bool> {
    let mut probe = Client::connect(addr, Role::Client)?;
    Ok(matches!(
        probe.request(&Request::Metrics)?,
        Reply::Metrics { volatile, .. } if volatile.contains("\"relay_lag\":0")
    ))
}

/// Re-send an acknowledged mutation over the wire. The answer must be
/// byte-equal to the original acknowledgement and must not touch the
/// WAL — exactly-once across however many failovers sit between.
fn resend_cached<T: Transport>(
    client: &mut RetryClient<T>,
    live: &ServerHandle,
    op: &Request,
    original: &str,
) -> io::Result<bool> {
    let lsn_before = live.wal_next_lsn();
    let reply = client.request_text(&op.encode())?;
    Ok(reply == original && live.wal_next_lsn() == lsn_before)
}

/// Replication-side fault tallies of one run. Index 0 of `dups` is
/// the first hop, index 1 every chained hop behind it.
#[derive(Default)]
struct Pulls {
    delayed: u64,
    corrupt: u64,
    /// A corrupt batch was accepted or moved the cursor.
    corrupt_leaked: bool,
    dups: [u64; 2],
    /// A duplicated batch applied records.
    dups_reapplied: [bool; 2],
    /// Per relay, in chain order.
    max_lag: Vec<u64>,
}

/// Ship the WAL one step down the standing chain after op `i`, with
/// `killed` nodes dead: each relay pulls from the node before it. The
/// chain's first relay pulls through the fault plan and its lag is
/// sampled where the plan delays it; later relays inherit those
/// delays, so theirs is sampled before every pull.
fn ship(
    i: usize,
    killed: usize,
    live: &ServerHandle,
    standbys: &VecDeque<ServerHandle>,
    pullers: &mut [Client],
    plan: &FaultPlan,
    t: &mut Pulls,
) -> io::Result<()> {
    for (h, (relay, puller)) in standbys.iter().zip(pullers.iter_mut()).enumerate() {
        let hop = killed + h;
        let target = match h {
            0 => next_lsn(live),
            _ => next_lsn(&standbys[h - 1]),
        };
        relay.note_upstream(target);
        let lag = target.saturating_sub(next_lsn(relay));
        if hop == 0 && plan.delayed_pulls.contains(&i) {
            t.delayed += 1;
            t.max_lag[0] = t.max_lag[0].max(lag);
            continue;
        }
        if hop > 0 {
            t.max_lag[hop] = t.max_lag[hop].max(lag);
        }
        if hop == 0 && plan.corrupt_pulls.contains(&i) && next_lsn(relay) < target {
            let (_, bytes) = puller.pull(next_lsn(relay))?;
            if !bytes.is_empty() {
                let mut bad = bytes.clone();
                let last = bad.len() - 1;
                bad[last] ^= 0xff;
                // Fail closed: the corrupt batch must change nothing.
                let before = next_lsn(relay);
                t.corrupt_leaked |= !matches!(relay.apply(&bad), Err(ReplError::BadFrame { .. }));
                t.corrupt_leaked |= next_lsn(relay) != before;
                relay.apply(&bytes).map_err(repl_io)?;
                t.corrupt += 1;
            }
        }
        pull_to(puller, relay, target)?;
        if plan.dup_pulls.contains(&i) && next_lsn(relay) > 0 {
            // Re-pull a window the relay already applied: at-least-once
            // shipping in miniature. It must apply nothing.
            let (_, bytes) = puller.pull(next_lsn(relay).saturating_sub(2))?;
            let c = hop.min(1);
            t.dups_reapplied[c] |= relay.apply(&bytes).map_err(repl_io)? != 0;
            t.dups[c] += 1;
        }
    }
    Ok(())
}

struct Run {
    json: String,
    clean: bool,
    fault_points: usize,
    clients: ClientCounters,
}

/// One `(seed, kill_point)` run over the transport `dial` builds.
fn run_one<T: Transport>(
    sc: &Scenario,
    p: &CampaignParams,
    seed: u64,
    kill_point: usize,
    dial: impl Fn(SocketAddr, &Arc<Mutex<FaultState>>) -> DialFn<T>,
) -> io::Result<Run> {
    let params = ServerParams {
        replicate: true,
        ..p.server
    };
    let ops = script(seed, p.sessions, p.requests, sc.sequenced_script);
    let mut kills = vec![kill_point.min(ops.len().saturating_sub(1))];
    while kills.len() < sc.relays.len() {
        kills.push(second_kill(kills[kills.len() - 1], ops.len()));
    }
    let plan = match sc.faults {
        Faults::Clean => FaultPlan::default(),
        _ => FaultPlan::new(seed, kills[0]),
    };
    let resets = match sc.faults {
        Faults::Throughout => extended_resets(seed, &plan.reset_offsets),
        _ => plan.reset_offsets.clone(),
    };
    let state = FaultState::shared(seed, &resets);

    // The chain: a sharded primary, then the relays in order.
    let mut live = server::start("127.0.0.1:0", p.cfg, params)?;
    let standby = |max_resident| {
        let cfg = ServeConfig {
            max_resident,
            ..p.cfg
        };
        let params = ServerParams {
            shards: 1,
            ..params
        };
        server::start_standby("127.0.0.1:0", cfg, params)
    };
    let mut standbys = sc
        .relays
        .iter()
        .map(|&r| standby(r))
        .collect::<io::Result<VecDeque<_>>>()?;
    let addrs: Vec<SocketAddr> = std::iter::once(live.addr())
        .chain(standbys.iter().map(ServerHandle::addr))
        .collect();
    let mut client = retry_client(addrs.iter().map(|&a| dial(a, &state)).collect(), seed);
    let mut twin = serial_twin(&p.cfg);

    let mut facts = Json::default();
    facts.put("seed", seed).put("ops", ops.len());
    let mut pulls = Pulls {
        max_lag: vec![0; sc.relays.len()],
        ..Pulls::default()
    };
    let mut transcript = Vec::new();
    let mut oracle = Vec::new();
    let mut windows = vec![true; kills.len() - 1];
    let (mut drains_ok, mut relays_ok) = (true, true);

    let mut from = 0;
    for (k, &kill) in kills.iter().enumerate() {
        // Node k serves ops[from..kill] while the standing relays pull
        // in lockstep and the next in line feeds its lease.
        let n = k + 1;
        let mut lease = Lease::new(LeaseParams::default());
        let mut beats = 0u64;
        let mut pullers = (k..sc.relays.len())
            .map(|r| Client::connect(addrs[r], Role::Replica))
            .collect::<io::Result<Vec<_>>>()?;
        for (i, op) in ops.iter().enumerate().take(kill).skip(from) {
            transcript.push(client.request_text(&op.encode())?);
            oracle.push(twin.apply(op).encode());
            ship(i, k, &live, &standbys, &mut pullers, &plan, &mut pulls)?;
            if i % HEARTBEAT_EVERY == 0 && heartbeat(addrs[k], &mut lease) {
                beats += 1;
            }
        }
        if k == 0 && sc.faults == Faults::UntilFirstKill {
            lock_faults(&state).resets.clear();
        }
        // Relay lag is on the discovery surface: the promotee is caught
        // up at the kill boundary and must say so.
        relays_ok &= relay_caught_up(addrs[n])?;

        // The kill: the serving node dies for real, and the next relay
        // promotes itself on its own listener once its lease expires.
        client.disconnect();
        drop(pullers);
        let replicated = next_lsn(&standbys[0]);
        let drained = live.shutdown().verify_suspended().is_ok();
        let lease_ok = expire_lease(addrs[k], &mut lease);
        live = standbys.pop_front().expect("one standby per kill");
        live.promote();
        let promote_ok = live.addr() == addrs[n] && live.wal_next_lsn() == Some(replicated);

        // Exactly-once across this failover and every earlier one: the
        // last mutation acked before each kill so far is re-sent and
        // must come back from the replicated dedup window.
        for j in (0..=k).rev() {
            let ok = match last_mutation(&ops, kills[j]) {
                Some(idx) => resend_cached(&mut client, &live, &ops[idx], &transcript[idx])?,
                None => true,
            };
            if j == k {
                facts.put(format!("retry{n}_cached"), ok);
            } else {
                windows[j] &= ok;
            }
        }
        facts
            .put(format!("kill{n}"), kill)
            .put(format!("replicated_lsn{n}"), replicated)
            .put(format!("lease{n}_beats"), beats)
            .put(format!("lease{n}_misses"), lease.misses())
            .put(format!("lease{n}_expired"), lease_ok)
            .put(format!("promote{n}_ok"), promote_ok)
            .put(format!("drain{n}_ok"), drained);
        drains_ok &= drained;
        from = kill;
    }

    // The survivor serves the tail of the script and the epilogue.
    let tail = epilogue(&ops, p.sessions, sc.sequenced_epilogue);
    for op in ops[from..].iter().chain(&tail) {
        transcript.push(client.request_text(&op.encode())?);
        oracle.push(twin.apply(op).encode());
    }
    client.disconnect();
    let clients = ClientCounters::of(&client);
    drop(client);
    let survivor = live.shutdown();
    drains_ok &= survivor.verify_suspended().is_ok();
    let counts_ok = survivor.aggregate_counts() == twin.aggregate_counts();
    let sessions_ok = survivor.session_ids() == twin.session_ids();
    let resets_fired = lock_faults(&state).resets_fired() as usize;

    for (j, ok) in windows.iter().enumerate() {
        facts.put(format!("window{}_survives", j + 1), ok);
    }
    for (r, lag) in pulls.max_lag.iter().enumerate() {
        facts.put(format!("max_hop{}_lag", r + 1), lag);
    }
    facts
        .put("resets_planned", resets.len())
        .put("resets_fired", resets_fired)
        .put("dup_pulls", pulls.dups[0])
        .put("chain_dup_pulls", pulls.dups[1])
        .put("delayed_pulls", pulls.delayed)
        .put("corrupt_probes", pulls.corrupt)
        .put("transcript_digest", digest_json(transcript_digest(&oracle)))
        .put("transcript_match", transcript == oracle)
        .put("counts_match", counts_ok)
        .put("sessions_match", sessions_ok)
        .put("relay_metrics_ok", relays_ok)
        .put("dup_idempotent", !pulls.dups_reapplied[0])
        .put("chain_dup_idempotent", !pulls.dups_reapplied[1])
        .put("corrupt_failed_closed", !pulls.corrupt_leaked)
        .put("drains_ok", drains_ok);
    Ok(Run {
        json: facts.select(sc.run_fields),
        // Every check is a fact: a run is clean when none reads false.
        clean: facts.0.iter().all(|(_, v)| v != "false"),
        fault_points: resets_fired
            + (pulls.dups[0] + pulls.dups[1] + pulls.delayed + pulls.corrupt) as usize,
        clients,
    })
}

/// Run a scenario: every seed at every kill point. The facts a report
/// can select are those [`CLUSTERCHAOS`] lists, with per-kill and
/// per-relay names (`kill<n>`, `max_hop<n>_lag`, …) numbered from 1,
/// plus `lease<n>_misses` and `drain<n>_ok`.
pub fn run_campaign(sc: &Scenario, p: &CampaignParams) -> io::Result<CampaignOutcome> {
    let mut runs = Vec::new();
    let (mut mismatches, mut fault_points) = (0, 0);
    let mut clients = ClientCounters::default();
    for &seed in &p.seeds {
        for &kill in &p.kill_points {
            let run = match sc.faults {
                Faults::Clean => run_one(sc, p, seed, kill, |addr, _| clean_dial(addr))?,
                _ => run_one(sc, p, seed, kill, faulty_dial)?,
            };
            mismatches += usize::from(!run.clean);
            fault_points += run.fault_points;
            clients += run.clients;
            runs.push(run.json);
        }
    }
    let mut head = Json::default();
    head.put("schema", format!("\"{}\"", sc.schema))
        .put("proto_version", PROTO_VERSION)
        .put("chain", sc.relays.len() + 1)
        .put("sessions", p.sessions)
        .put("requests", p.requests)
        .put("kill_points", list_json(&p.kill_points))
        .put("seeds", list_json(&p.seeds))
        .put("fault_points", fault_points)
        .put("all_match", mismatches == 0)
        .put("runs", format!("[{}]", runs.join(",")));
    Ok(CampaignOutcome {
        report: head.select(sc.header) + "\n",
        mismatches,
        fault_points,
        clients,
    })
}

/// Command-line flags of a serving bin, parsed against its declared
/// flag set.
#[derive(Debug)]
pub struct Args(Vec<(String, String)>);

impl Args {
    /// Parse `--flag value` pairs for the whitespace-separated `valued`
    /// flags and bare `switches`. Unknown or repeated flags, stray
    /// words and missing values are errors; the bins exit 2 on them.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        valued: &str,
        switches: &str,
    ) -> Result<Args, String> {
        let declared = |set: &str, flag: &str| set.split_whitespace().any(|f| f == flag);
        let mut out: Vec<(String, String)> = Vec::new();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = if declared(valued, &flag) {
                args.next().ok_or_else(|| format!("{flag} needs a value"))?
            } else if declared(switches, &flag) {
                String::new()
            } else {
                return Err(format!("unknown argument: {flag}"));
            };
            if out.iter().any(|(f, _)| *f == flag) {
                return Err(format!("{flag} given twice"));
            }
            out.push((flag, value));
        }
        Ok(Args(out))
    }

    /// The raw value of `flag` (empty for a switch), if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.0.iter().find(|(f, _)| f == flag)?;
        Some(value)
    }

    /// The value of `flag` parsed as `T`, or `default` if not given.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        self.value(flag).map_or(Ok(default), |s| parse_as(flag, s))
    }

    /// The comma-separated values of `flag`, or `default`.
    pub fn list<T: FromStr>(&self, flag: &str, default: Vec<T>) -> Result<Vec<T>, String> {
        let items = |spec: &str| spec.split(',').map(|s| parse_as(flag, s)).collect();
        self.value(flag).map_or(Ok(default), items)
    }

    /// `--seeds`, or `default`: a comma list pins explicit seeds; a
    /// single integer `N` takes the first `N` pinned seeds, so
    /// `--seeds 3` is a stable CI invocation.
    pub fn seeds(&self, default: Vec<u64>) -> Result<Vec<u64>, String> {
        match self.value("--seeds") {
            Some(spec) if !spec.contains(',') => {
                let n: usize = parse_as("--seeds", spec)?;
                match PINNED_SEEDS.get(..n) {
                    Some(seeds) if n > 0 => Ok(seeds.to_vec()),
                    _ => Err(format!("--seeds must be 1..={}", PINNED_SEEDS.len())),
                }
            }
            _ => self.list("--seeds", default),
        }
    }
}

fn parse_as<T: FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.trim().parse().map_err(|_| format!("bad {flag}: {s}"))
}

/// Print a command-line error; exit status 2.
pub fn usage_error(bin: &str, msg: &str) -> ExitCode {
    eprintln!("{bin}: {msg}");
    ExitCode::from(2)
}

/// Write a report, creating its directory if needed.
pub fn write_report(path: &str, body: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, body).map_err(|e| format!("{path}: {e}"))
}

/// A campaign bin's flags over the scenario's defaults; returns the
/// campaign and the report path.
fn campaign_args(
    sc: &Scenario,
    args: impl IntoIterator<Item = String>,
) -> Result<(CampaignParams, String), String> {
    let a = Args::parse(
        args,
        "--seeds --sessions --requests --kill-points --out",
        "",
    )?;
    let mut p = sc.params();
    p.seeds = a.seeds(p.seeds)?;
    p.sessions = a.get("--sessions", p.sessions)?;
    p.requests = a.get("--requests", p.requests)?;
    p.kill_points = a.list("--kill-points", p.kill_points)?;
    if p.sessions == 0 {
        return Err("--sessions must be at least 1".to_string());
    }
    if p.kill_points.is_empty() {
        return Err("need at least one kill point".to_string());
    }
    let out = a.value("--out").map_or_else(
        || format!("results/{}_report.json", sc.name),
        str::to_string,
    );
    Ok((p, out))
}

/// The whole `main` of a campaign bin: parse, run, write the report,
/// summarize on stderr. Exit 0 on a clean campaign, 1 on any
/// divergence or I/O failure, 2 on bad flags.
pub fn cli_main(sc: &Scenario) -> ExitCode {
    let bin = sc.name;
    let (p, out) = match campaign_args(sc, std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => return usage_error(bin, &e),
    };
    let run = run_campaign(sc, &p).map_err(|e| e.to_string());
    let outcome = match run.and_then(|o| write_report(&out, &o.report).map(|()| o)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{bin}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{bin}: {} seeds x {} kill points ({} sessions x {} requests, chain of {}) -> {out}\n\
         {bin}: fault_points={} mismatches={}, client {}",
        p.seeds.len(),
        p.kill_points.len(),
        p.sessions,
        p.requests,
        sc.relays.len() + 1,
        outcome.fault_points,
        outcome.mismatches,
        outcome.clients,
    );
    if outcome.mismatches > 0 {
        eprintln!("{bin}: FAILED: a fault was not survived or the twin diverged");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn faulty_stream_resets_at_the_pinned_offset() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = TcpStream::connect(addr).unwrap();
        let (sink, _) = listener.accept().unwrap();
        let state = FaultState::shared(7, &[100]);
        let mut faulty = FaultyStream::new(peer, Arc::clone(&state));

        // Chunking: a large write is always clamped below the chunk cap.
        let n = faulty.write(&[0u8; 500]).unwrap();
        assert!((1..=64).contains(&n), "chunked write returned {n}");

        // Writing through the boundary fails exactly at byte 100, with
        // the socket dead afterwards.
        let mut total = n as u64;
        let err = loop {
            match faulty.write(&[0u8; 500]) {
                Ok(n) => total += n as u64,
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(total, 100, "reset fired at the pinned offset");
        let st = state.lock().unwrap();
        assert_eq!((st.resets_fired(), st.transferred()), (1, 100));
        drop(sink);
    }

    #[test]
    fn fault_plans_are_pure_functions_of_their_key() {
        let a = FaultPlan::new(11, 31);
        let b = FaultPlan::new(11, 31);
        assert_eq!(a.reset_offsets, b.reset_offsets);
        assert_eq!(a.dup_pulls, b.dup_pulls);
        assert_eq!(a.delayed_pulls, b.delayed_pulls);
        assert_eq!(a.corrupt_pulls, b.corrupt_pulls);
        assert!(a.points() > 0);
        // Delays never land on the final pre-kill op.
        assert!(!a.delayed_pulls.contains(&30));
        let c = FaultPlan::new(23, 31);
        assert_ne!(a.reset_offsets, c.reset_offsets, "seeds must differ");
    }

    #[test]
    fn second_kill_stays_inside_the_script() {
        assert_eq!(second_kill(5, 36), 20);
        assert_eq!(second_kill(31, 36), 33);
        assert_eq!(second_kill(35, 36), 35); // degenerate but legal
        assert!(second_kill(0, 4) > 0);
        assert_eq!(second_kill(0, 0), 0); // no underflow on an empty script
    }

    #[test]
    fn sequenced_epilogue_closes_every_original_session() {
        let p = CLUSTERCHAOS.params();
        for &seed in CLUSTERCHAOS.seeds {
            let ops = script(seed, p.sessions, p.requests, true);
            let mut twin = serial_twin(&p.cfg);
            let mut next_seq = vec![0; p.sessions];
            for op in &ops {
                if let Request::Eval {
                    id, seq: Some(q), ..
                } = op
                {
                    next_seq[*id as usize] = q + 1;
                }
                assert!(!twin.apply(op).encode().starts_with("(err session"));
            }
            // Every close carries its session's next seq and closes it.
            for op in epilogue(&ops, p.sessions, true) {
                let reply = twin.apply(&op);
                if let Request::Close { id, seq } = op {
                    if let Some(&next) = next_seq.get(id as usize) {
                        assert_eq!(seq, Some(next), "seed {seed}: session {id}'s close");
                    }
                    assert!(matches!(reply, Reply::Closed { .. }), "{}", reply.encode());
                }
            }
            assert!(twin.session_ids().is_empty(), "{:?}", twin.session_ids());
        }
    }

    #[test]
    fn kill_at_zero_promotes_an_empty_standby() {
        // Degenerate but legal: nothing was replicated; the promoted
        // node must serve the entire script from scratch.
        let p = CampaignParams {
            seeds: vec![23],
            kill_points: vec![0],
            ..FAILOVER.params()
        };
        let out = run_campaign(&FAILOVER, &p).expect("campaign runs");
        assert_eq!(out.mismatches, 0, "report: {}", out.report);
    }

    #[test]
    fn campaign_bins_reject_unknown_flags() {
        // Singular spellings of real flags used to run the default
        // campaign silently.
        let err = campaign_args(&FAILOVER, args(&["--seed", "3", "--kill-point", "1"]));
        assert_eq!(err.unwrap_err(), "unknown argument: --seed");
        let err = campaign_args(&NETCHAOS, args(&["extra"]));
        assert_eq!(err.unwrap_err(), "unknown argument: extra");
        let err = campaign_args(&NETCHAOS, args(&["--out"]));
        assert_eq!(err.unwrap_err(), "--out needs a value");
        let (p, out) = campaign_args(&CLUSTERCHAOS, args(&["--seeds", "1"])).unwrap();
        assert_eq!(
            (p.seeds, out.as_str()),
            (vec![11], "results/clusterchaos_report.json")
        );
    }

    #[test]
    fn campaign_bins_reject_zero_sessions() {
        for sc in [FAILOVER, NETCHAOS, CLUSTERCHAOS] {
            let err = campaign_args(&sc, args(&["--sessions", "0"]));
            assert_eq!(err.unwrap_err(), "--sessions must be at least 1");
        }
    }
}
