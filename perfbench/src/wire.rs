//! The loopback pass: server start, session setup, and the closed-loop
//! timed window.
//!
//! Each client owns one connection and one thread and waits for every
//! reply before sending its next request. Every reply is compared with
//! the twin's; the twin's cycle counts of the served requests rebuild
//! the `(metrics)` snapshot the server must report.

use crate::twin::{request_for, Expect, Twin};
use crate::workload::{Picker, Slot, Step, Workload, CLIENTS};
use small_serve::{
    Client, DrainOutcome, Reply, ReqKind, Request, Role, ServeConfig, ServerHandle, ServerParams,
    ShardMetrics,
};
use std::io;
use std::time::{Duration, Instant};

/// Step index recorded for an `(open)` retried to reach the slot's
/// shard, and for closing the misplaced session.
pub const RETRY_STEP: u32 = u32::MAX;

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Send-to-decoded-reply latency.
    pub ns: u64,
    /// Slot the request belonged to.
    pub slot: u32,
    /// Script step, or [`RETRY_STEP`].
    pub step: u32,
    /// When the reply arrived, in ms since the window opened.
    pub at_ms: u32,
}

struct Cursor {
    id: u64,
    pos: usize,
}

/// One client connection and its bookkeeping.
pub struct Conn {
    client: Client,
    cursors: Vec<Cursor>,
    /// Twin telemetry of every request this connection had served.
    pub served: ShardMetrics,
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose reply was wrong or never came.
    pub failed: u64,
    /// Latency of every request sent since the last [`Conn::reset`].
    pub samples: Vec<Sample>,
    /// The first few failures, for the report.
    pub problems: Vec<String>,
    /// Origin of [`Sample::at_ms`].
    epoch: Instant,
}

impl Conn {
    fn new(client: Client, slots: usize) -> Conn {
        Conn {
            client,
            cursors: (0..slots).map(|_| Cursor { id: 0, pos: 0 }).collect(),
            served: ShardMetrics::default(),
            attempted: 0,
            failed: 0,
            samples: Vec::new(),
            problems: Vec::new(),
            epoch: Instant::now(),
        }
    }

    /// Forget set-up counts; the timed window starts clean.
    fn reset(&mut self, epoch: Instant) {
        self.attempted = 0;
        self.failed = 0;
        self.samples.clear();
        self.problems.clear();
        self.epoch = epoch;
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    /// Send one request text; the reply text, timed to its decode.
    fn send(&mut self, text: &str, slot: usize, step: u32) -> io::Result<(String, Option<Reply>)> {
        let t0 = Instant::now();
        let reply = self.client.request_text(text)?;
        let decoded = Reply::decode(&reply);
        let t1 = Instant::now();
        self.attempted += 1;
        self.samples.push(Sample {
            ns: (t1 - t0).as_nanos() as u64,
            slot: slot as u32,
            step,
            at_ms: (t1 - self.epoch).as_millis() as u32,
        });
        Ok((reply, decoded))
    }

    fn record(&mut self, (kind, cycles): (ReqKind, u64)) {
        self.served.record(kind, cycles, None);
    }

    /// Run the next step of slot `r`.
    fn step(&mut self, r: usize, slot: &Slot, expect: &[Expect], twin: &Twin) -> io::Result<()> {
        let pos = self.cursors[r].pos;
        let want = &expect[pos];
        self.cursors[r].pos = (pos + 1) % slot.script.len();
        match &slot.script[pos] {
            // Session ids are dealt in decode order across all
            // connections; reopen until the id lands on the slot's
            // shard, closing any misplaced session unused.
            Step::Open => loop {
                let (text, reply) = self.send("(open)", r, pos as u32)?;
                let Some(Reply::Opened { id }) = reply else {
                    self.fail(format!("open: {text}"));
                    return Ok(());
                };
                if id as usize % CLIENTS == slot.shard {
                    self.record((want.kind, want.cycles));
                    self.cursors[r].id = id;
                    return Ok(());
                }
                self.samples.last_mut().expect("just sent").step = RETRY_STEP;
                self.record(twin.bare_open[0]);
                let close = Request::Close { id, seq: None }.encode();
                let (text, _) = self.send(&close, r, RETRY_STEP)?;
                self.record(twin.bare_open[1]);
                if text != "(ok closed 0)" {
                    self.fail(format!("close of a misplaced session: {text}"));
                }
            },
            step => {
                let text = request_for(step, self.cursors[r].id).encode();
                let (reply, decoded) = self.send(&text, r, pos as u32)?;
                self.record((want.kind, want.cycles));
                if decoded.is_none() || reply != want.reply || reply.starts_with("(err lp") {
                    self.fail(format!(
                        "slot {r} step {pos}: got {reply}, want {}",
                        want.reply
                    ));
                }
                Ok(())
            }
        }
    }
}

/// A started server and its set-up client connections.
pub struct Server {
    /// The in-process server.
    pub handle: ServerHandle,
    /// One connection per client, sessions open.
    pub conns: Vec<Conn>,
}

/// Shape of the server a workload runs against.
pub fn server_params(w: Workload) -> ServerParams {
    ServerParams {
        shards: CLIENTS,
        replicate: w == Workload::WireSmall,
        ..ServerParams::default()
    }
}

/// Start a server, connect every client, open each slot's first session
/// and, under `evict-churn`, run each slot's first eval so that the
/// LRU holds every session before timing starts.
pub fn setup(w: Workload, plan: &[Vec<Slot>], twin: &Twin) -> io::Result<Server> {
    let handle = small_serve::start("127.0.0.1:0", ServeConfig::default(), server_params(w))?;
    let mut conns = Vec::with_capacity(CLIENTS);
    // Connected one after another, so the acceptor deals client k to
    // shard k.
    for slots in plan {
        conns.push(Conn::new(
            Client::connect(handle.addr(), Role::Client)?,
            slots.len(),
        ));
    }
    let warm_steps = if w == Workload::EvictChurn { 2 } else { 1 };
    for (c, conn) in conns.iter_mut().enumerate() {
        for (r, slot) in plan[c].iter().enumerate() {
            for _ in 0..warm_steps {
                conn.step(r, slot, &twin.steps[c][r], twin)?;
            }
        }
    }
    Ok(Server { handle, conns })
}

/// What the timed window measured.
pub struct Window {
    /// The connections, with their counts and samples.
    pub conns: Vec<Conn>,
    /// Process user+system CPU seconds at the start of each whole
    /// second of the window, and at its end.
    pub cpu_marks: Vec<f64>,
    /// The process's resident high-water mark when the window closed.
    pub peak_rss_mb: f64,
}

/// Drive every client closed-loop for `seconds`.
pub fn timed(
    w: Workload,
    seed: u64,
    mut conns: Vec<Conn>,
    plan: &[Vec<Slot>],
    twin: &Twin,
    seconds: u64,
) -> Window {
    let t0 = Instant::now();
    for conn in &mut conns {
        conn.reset(t0);
    }
    let mut cpu_marks = vec![cpu_seconds()];
    let deadline = t0 + Duration::from_secs(seconds);
    let conns = std::thread::scope(|s| {
        let threads: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let (slots, expect) = (&plan[c], &twin.steps[c]);
                s.spawn(move || {
                    let mut picker = Picker::new(w, seed, c);
                    while Instant::now() < deadline {
                        let r = picker.next_slot();
                        if let Err(e) = conn.step(r, &slots[r], &expect[r], twin) {
                            conn.fail(format!("transport: {e}"));
                            break;
                        }
                    }
                    conn
                })
            })
            .collect();
        for second in 1..=seconds {
            let mark = t0 + Duration::from_secs(second);
            std::thread::sleep(mark.saturating_duration_since(Instant::now()));
            cpu_marks.push(cpu_seconds());
        }
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    Window {
        conns,
        cpu_marks,
        peak_rss_mb: peak_rss_mb(),
    }
}

impl Window {
    /// Requests completed and CPU seconds spent in each whole second.
    pub fn per_second(&self) -> Vec<(u64, f64)> {
        let mut done = vec![0u64; self.cpu_marks.len().saturating_sub(1)];
        for s in self.conns.iter().flat_map(|c| &c.samples) {
            if let Some(n) = done.get_mut(s.at_ms as usize / 1000) {
                *n += 1;
            }
        }
        let cpu = self.cpu_marks.windows(2).map(|m| m[1] - m[0]);
        done.into_iter().zip(cpu).collect()
    }

    /// Every latency sample in µs, in the order the replies arrived.
    pub fn latencies_us(&self) -> Vec<f64> {
        let mut all: Vec<&Sample> = self.conns.iter().flat_map(|c| &c.samples).collect();
        all.sort_by_key(|s| s.at_ms);
        all.iter().map(|s| s.ns as f64 / 1e3).collect()
    }
}

/// The server's state after the window.
pub struct Finish {
    /// Deterministic section of the final `(metrics)` reply.
    pub deterministic: String,
    /// The primary's WAL as pulled batches (replicating servers only).
    pub wal_batches: Vec<Vec<u8>>,
    /// The drained server.
    pub drain: DrainOutcome,
}

/// Read the final `(metrics)`, pull the WAL if the server ships one,
/// and drain the server.
pub fn finish(handle: ServerHandle, pull_wal: bool) -> io::Result<Finish> {
    let mut ctl = Client::connect(handle.addr(), Role::Client)?;
    let deterministic = match ctl.request(&Request::Metrics)? {
        Reply::Metrics { deterministic, .. } => deterministic,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("metrics refused: {}", other.encode()),
            ))
        }
    };
    let mut wal_batches = Vec::new();
    if pull_wal {
        let mut replica = Client::connect(handle.addr(), Role::Replica)?;
        let mut from = 0;
        loop {
            let (next, bytes) = replica.pull(from)?;
            if next == from {
                break;
            }
            wal_batches.push(bytes);
            from = next;
        }
    }
    drop(ctl);
    Ok(Finish {
        deterministic,
        wal_batches,
        drain: handle.shutdown(),
    })
}

/// Process user+system CPU seconds, from `/proc/self/stat` (fields 14
/// and 15, in clock ticks of 1/100 s on Linux).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let tick = |k: usize| {
        fields
            .get(k)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// The resident high-water mark in MiB, from `/proc/self/status`. The
/// kernel keeps it exact, where sampling the resident set would miss
/// short peaks at random.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
