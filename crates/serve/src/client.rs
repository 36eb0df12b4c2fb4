//! The typed blocking client, and the retrying client built on it.
//!
//! Everything in-tree that talks to a server — the soak fleet, the
//! churn workers, the standby's frame puller, the failover campaign,
//! and every integration test — goes through [`Client`]. It speaks
//! only [`Request`]/[`Reply`] values; the framing and text live in
//! [`crate::protocol`] and nowhere else.
//!
//! Connecting performs the versioned `(hello <version> <role>)`
//! handshake immediately and fails if the server rejects it, so a
//! constructed `Client` is always protocol-compatible.
//!
//! [`Client`] is generic over a [`Transport`] so the network-chaos
//! campaigns ([`crate::campaign`]) can slide a fault-injecting stream
//! underneath it without the client noticing. [`RetryClient`] layers
//! deadline + seeded-jitter-backoff + reconnect-with-resume on top:
//! a request that dies mid-flight is re-sent *verbatim* on a fresh
//! connection, which is safe exactly when the request carries the
//! protocol-v3 idempotency fields (a token on `(open …)`, a sequence
//! number on `(seval …)`/`(close …)`) — the server's replay window
//! turns the duplicate into a cached reply.

use crate::protocol::{read_frame, write_frame, NodeRole, Reply, Request, Role, PROTO_VERSION};
use crate::repl::{ReplError, Standby};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A byte stream a [`Client`] can run over.
///
/// The client needs three things beyond `Read + Write`: a second
/// handle onto the same stream (it buffers the read and write halves
/// separately), and read/write timeouts so a stalled server turns
/// into an error instead of a hang. [`TcpStream`] is the production
/// implementation; the chaos harness's fault-injecting stream is the
/// other one.
pub trait Transport: Read + Write + Send + std::fmt::Debug {
    /// A second handle onto the same underlying stream (the reader
    /// half of the split).
    fn try_split(&self) -> io::Result<Self>
    where
        Self: Sized;
    /// Bound how long a read may block. `None` blocks forever.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// Bound how long a write may block. `None` blocks forever.
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Transport for TcpStream {
    fn try_split(&self) -> io::Result<TcpStream> {
        self.try_clone()
    }
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }
}

/// A blocking request/reply client with the handshake already done.
#[derive(Debug)]
pub struct Client<T: Transport = TcpStream> {
    reader: BufReader<T>,
    writer: BufWriter<T>,
    /// Cluster role the server announced in its handshake.
    node: NodeRole,
}

fn data_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Client<TcpStream> {
    /// Connect and handshake as `role` at the current protocol
    /// version.
    pub fn connect(addr: SocketAddr, role: Role) -> io::Result<Client> {
        Client::connect_with_version(addr, role, PROTO_VERSION)
    }

    /// Connect and handshake announcing an explicit `version` (tests
    /// use this to exercise the mismatch path).
    pub fn connect_with_version(addr: SocketAddr, role: Role, version: u32) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Client::from_transport_with_version(stream, role, version)
    }
}

impl<T: Transport> Client<T> {
    /// Handshake over an already-connected transport as `role` at the
    /// current protocol version. The chaos harness uses this to run
    /// the client over a fault-injecting stream.
    pub fn from_transport(transport: T, role: Role) -> io::Result<Client<T>> {
        Client::from_transport_with_version(transport, role, PROTO_VERSION)
    }

    /// Handshake over an already-connected transport announcing an
    /// explicit `version`.
    pub fn from_transport_with_version(
        transport: T,
        role: Role,
        version: u32,
    ) -> io::Result<Client<T>> {
        let mut client = Client {
            reader: BufReader::new(transport.try_split()?),
            writer: BufWriter::new(transport),
            node: NodeRole::Primary,
        };
        match client.request(&Request::Hello { version, role })? {
            Reply::Hello { node, .. } => {
                client.node = node;
                Ok(client)
            }
            other => Err(data_err(format!("handshake refused: {}", other.encode()))),
        }
    }

    /// The cluster role the server announced in its `(ok hello …)` —
    /// a cluster-aware client scans its endpoint list for the one
    /// answering [`NodeRole::Primary`].
    pub fn node_role(&self) -> NodeRole {
        self.node
    }

    /// Bound how long a single read or write may block. The retrying
    /// client sets this so a server stalled by a fault plan turns into
    /// a timeout error it can retry, instead of a hang.
    pub fn set_timeouts(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.writer.get_ref().set_write_timeout(timeout)
    }

    /// Send one request and read its typed reply.
    pub fn request(&mut self, req: &Request) -> io::Result<Reply> {
        let text = self.request_text(&req.encode())?;
        Reply::decode(&text).ok_or_else(|| data_err(format!("unparseable reply: {text}")))
    }

    /// Send raw request text and return the raw reply text. The soak
    /// harness transcripts use this (byte-level comparison); tests use
    /// it to probe malformed-input handling. Framing still happens in
    /// `protocol` — this never touches bytes itself.
    pub fn request_text(&mut self, text: &str) -> io::Result<String> {
        write_frame(&mut self.writer, text)?;
        read_frame(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }

    /// Pipeline: write every request back-to-back in one burst, then
    /// read exactly one reply per request, in order. This is how the
    /// back-pressure test fills a bounded run queue faster than the
    /// shard drains it.
    pub fn pipeline(&mut self, reqs: &[Request]) -> io::Result<Vec<String>> {
        for req in reqs {
            write_frame(&mut self.writer, &req.encode())?;
        }
        self.writer.flush()?;
        let mut replies = Vec::with_capacity(reqs.len());
        for _ in reqs {
            replies.push(read_frame(&mut self.reader)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-pipeline")
            })?);
        }
        Ok(replies)
    }

    /// `(open)` and return the new session id.
    pub fn open(&mut self) -> io::Result<u64> {
        match self.request(&Request::Open { token: None })? {
            Reply::Opened { id } => Ok(id),
            other => Err(data_err(format!("open refused: {}", other.encode()))),
        }
    }

    /// `(open <token>)` and return the session id — the same id every
    /// time for the same token, so a retried open cannot leak a
    /// second session.
    pub fn open_with_token(&mut self, token: u64) -> io::Result<u64> {
        match self.request(&Request::Open { token: Some(token) })? {
            Reply::Opened { id } => Ok(id),
            other => Err(data_err(format!("open refused: {}", other.encode()))),
        }
    }

    /// `(ping)` and return the primary's durable LSN. Answered at
    /// decode time on the server, so it works even when the run
    /// queues are saturated — which is what makes it usable as a
    /// liveness heartbeat.
    pub fn ping(&mut self) -> io::Result<u64> {
        match self.request(&Request::Ping)? {
            Reply::Pong { lsn, .. } => Ok(lsn),
            other => Err(data_err(format!("ping refused: {}", other.encode()))),
        }
    }

    /// Pull WAL frames once from `from`; returns `(next_lsn, bytes)`.
    /// The connection must have hand-shaken as [`Role::Replica`].
    pub fn pull(&mut self, from: u64) -> io::Result<(u64, Vec<u8>)> {
        match self.request(&Request::Pull { from })? {
            Reply::Frames { next, bytes } => Ok((next, bytes)),
            other => Err(data_err(format!("pull refused: {}", other.encode()))),
        }
    }

    /// Pull-and-replay until the standby has applied everything up to
    /// `target_lsn`. Digest or frame damage fails closed as
    /// `InvalidData` carrying the [`ReplError`] text.
    pub fn catch_up(&mut self, standby: &mut Standby, target_lsn: u64) -> io::Result<()> {
        while standby.next_lsn() < target_lsn {
            let from = standby.next_lsn();
            let (next, bytes) = self.pull(from)?;
            if next == from {
                return Err(data_err(format!(
                    "primary cannot serve lsn {from} (target {target_lsn})"
                )));
            }
            standby
                .apply(&bytes)
                .map_err(|e: ReplError| data_err(e.to_string()))?;
        }
        Ok(())
    }
}

/// One liveness probe: dial `addr`, handshake, `(ping)`, and return
/// the primary's durable LSN — or `None` if any step fails or
/// exceeds `timeout`. This is the heartbeat a lease monitor
/// ([`crate::repl::Lease`]) feeds: each `None` is a miss, each
/// `Some(lsn)` a beat.
pub fn ping(addr: SocketAddr, timeout: Duration) -> Option<u64> {
    probe(addr, timeout).map(|(lsn, _)| lsn)
}

/// One discovery probe: dial `addr`, handshake, `(ping)`, and return
/// the node's durable LSN *and announced cluster role* — or `None` if
/// any step fails or exceeds `timeout`. Failing-over clients use the
/// role to tell the new primary apart from the standbys on the same
/// endpoint list.
pub fn probe(addr: SocketAddr, timeout: Duration) -> Option<(u64, NodeRole)> {
    let stream = TcpStream::connect_timeout(&addr, timeout).ok()?;
    stream.set_nodelay(true).ok()?;
    stream.set_read_timeout(Some(timeout)).ok()?;
    stream.set_write_timeout(Some(timeout)).ok()?;
    let mut client = Client::from_transport(stream, Role::Client).ok()?;
    let lsn = client.ping().ok()?;
    Some((lsn, client.node_role()))
}

/// Retry/backoff knobs for [`RetryClient`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Send attempts per request (first try included).
    pub attempts: u32,
    /// First backoff step; doubles per attempt up to [`max_delay`].
    ///
    /// [`max_delay`]: RetryPolicy::max_delay
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Per-*request* wall-clock budget across all attempts, and the
    /// per-read/write timeout on the underlying transport.
    pub deadline: Duration,
    /// Seeds the private jitter stream. Jitter decorrelates retry
    /// storms; seeding it keeps a chaos campaign reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 8,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(100),
            deadline: Duration::from_secs(2),
            seed: 0xC1A0,
        }
    }
}

/// A boxed dial closure producing a fresh handshaken [`Client`].
pub type DialFn<T> = Box<dyn FnMut() -> io::Result<Client<T>> + Send>;

/// Where a [`RetryClient`] gets its connections: a single dial
/// closure, or an ordered endpoint list it scans for the current
/// primary on every (re)connect.
enum Dialer<T: Transport> {
    Single(DialFn<T>),
    Cluster(Vec<DialFn<T>>),
}

/// A client that survives connection loss: on any transport error it
/// reconnects (via the dial closure) with seeded-jitter exponential
/// backoff and re-sends the request verbatim, up to
/// [`RetryPolicy::attempts`] tries or the [`RetryPolicy::deadline`].
///
/// Re-sending verbatim is only exactly-once when the request is
/// idempotent on the wire — which protocol v3 makes true for every
/// mutating request the harnesses send (tokenized opens, sequenced
/// evals and closes). A bare v2-style `(eval …)` retried through this
/// client may execute twice; that is the caller's choice to make.
///
/// A *cluster* client ([`RetryClient::with_endpoints`]) holds an
/// ordered endpoint list instead of one dial closure. On every
/// (re)connect it scans the list in order and keeps the first endpoint
/// whose `(ok hello …)` announces [`NodeRole::Primary`] — standbys are
/// dropped and skipped, dead endpoints are dial errors absorbed by the
/// backoff loop. Combined with verbatim re-send, a mutation acked by a
/// primary that then died is re-sent to its promoted successor and
/// answered from the *replicated* dedup window: no client-visible
/// anomaly across failover.
pub struct RetryClient<T: Transport> {
    dial: Dialer<T>,
    policy: RetryPolicy,
    conn: Option<Client<T>>,
    jitter: u64,
    retries: u64,
    reconnects: u64,
    redials: u64,
}

impl<T: Transport> std::fmt::Debug for RetryClient<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryClient")
            .field("policy", &self.policy)
            .field("connected", &self.conn.is_some())
            .field("retries", &self.retries)
            .field("reconnects", &self.reconnects)
            .field("redials", &self.redials)
            .finish()
    }
}

/// splitmix64 over a private state word — the same tiny generator the
/// fault schedules use, so backoff jitter never perturbs any other
/// seeded stream.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<T: Transport> RetryClient<T> {
    /// Wrap a dial closure. Nothing connects until the first request
    /// (or a failure forces a redial).
    pub fn new(
        dial: impl FnMut() -> io::Result<Client<T>> + Send + 'static,
        policy: RetryPolicy,
    ) -> RetryClient<T> {
        RetryClient {
            dial: Dialer::Single(Box::new(dial)),
            policy,
            conn: None,
            jitter: policy.seed ^ 0x5DEE_CE66_D1CE_4E5B,
            retries: 0,
            reconnects: 0,
            redials: 0,
        }
    }

    /// Wrap an *ordered endpoint list* (one dial closure per cluster
    /// node, primary first by convention). Every (re)connect scans the
    /// list in order and keeps the first endpoint answering
    /// [`NodeRole::Primary`]; standbys and dead endpoints are skipped.
    pub fn with_endpoints(endpoints: Vec<DialFn<T>>, policy: RetryPolicy) -> RetryClient<T> {
        RetryClient {
            dial: Dialer::Cluster(endpoints),
            policy,
            conn: None,
            jitter: policy.seed ^ 0x5DEE_CE66_D1CE_4E5B,
            retries: 0,
            reconnects: 0,
            redials: 0,
        }
    }

    /// Transport errors absorbed by re-sends so far (timing-dependent
    /// under real faults — never put this in a deterministic report).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Successful redials after a connection died.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Endpoint dials attempted, including failed dials and standby
    /// answers skipped during cluster scans (like [`Self::retries`],
    /// timing-dependent — reported, never byte-compared).
    pub fn redials(&self) -> u64 {
        self.redials
    }

    /// Drop the current connection (the failover harness does this
    /// when it kills the primary, so the next request dials the
    /// promoted standby).
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    /// One connection attempt. A single dialer is called as-is; a
    /// cluster dialer scans its endpoint list in order and returns the
    /// first connection whose handshake announced
    /// [`NodeRole::Primary`] — a standby's connection is dropped on
    /// the spot (it would refuse session traffic anyway).
    fn dial_once(dial: &mut Dialer<T>, redials: &mut u64) -> io::Result<Client<T>> {
        match dial {
            Dialer::Single(d) => {
                *redials += 1;
                d()
            }
            Dialer::Cluster(list) => {
                let mut last = io::Error::new(
                    io::ErrorKind::NotConnected,
                    "no endpoint answered as primary",
                );
                for d in list.iter_mut() {
                    *redials += 1;
                    match d() {
                        Ok(conn) if conn.node_role() == NodeRole::Primary => return Ok(conn),
                        Ok(_) => {
                            last = io::Error::new(
                                io::ErrorKind::NotConnected,
                                "endpoint answered as standby",
                            );
                        }
                        Err(e) => last = e,
                    }
                }
                Err(last)
            }
        }
    }

    fn backoff(&mut self, attempt: u32) {
        let base = self.policy.base_delay.as_micros().max(1) as u64;
        let cap = self.policy.max_delay.as_micros().max(1) as u64;
        let step = base.saturating_mul(1u64 << attempt.min(20)).min(cap);
        // Half fixed, half jittered: never zero, never synchronized.
        let sleep = step / 2 + splitmix64(&mut self.jitter) % (step / 2 + 1);
        std::thread::sleep(Duration::from_micros(sleep));
    }

    /// Send one request, retrying through reconnects, and read its
    /// typed reply.
    pub fn request(&mut self, req: &Request) -> io::Result<Reply> {
        let text = self.request_text(&req.encode())?;
        Reply::decode(&text).ok_or_else(|| data_err(format!("unparseable reply: {text}")))
    }

    /// Send raw request text, retrying through reconnects, and return
    /// the raw reply text.
    pub fn request_text(&mut self, text: &str) -> io::Result<String> {
        let start = Instant::now();
        let mut last = io::Error::other("no attempt made");
        for attempt in 0..self.policy.attempts.max(1) {
            if attempt > 0 {
                if start.elapsed() >= self.policy.deadline {
                    break;
                }
                self.backoff(attempt - 1);
                self.retries += 1;
            }
            if self.conn.is_none() {
                match Self::dial_once(&mut self.dial, &mut self.redials) {
                    Ok(conn) => {
                        // A hung read under faults must become an
                        // error the next attempt can absorb.
                        let _ = conn.set_timeouts(Some(self.policy.deadline));
                        if attempt > 0 {
                            self.reconnects += 1;
                        }
                        self.conn = Some(conn);
                    }
                    Err(e) => {
                        last = e;
                        continue;
                    }
                }
            }
            let conn = self.conn.as_mut().expect("just dialed");
            match conn.request_text(text) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    // The connection is in an unknown state (the
                    // request may or may not have landed); only a
                    // fresh dial and a verbatim re-send is sound.
                    self.conn = None;
                    last = e;
                }
            }
        }
        Err(last)
    }

    /// `(open <token>)` through the retry machinery.
    pub fn open_with_token(&mut self, token: u64) -> io::Result<u64> {
        match self.request(&Request::Open { token: Some(token) })? {
            Reply::Opened { id } => Ok(id),
            other => Err(data_err(format!("open refused: {}", other.encode()))),
        }
    }

    /// `(ping)` through the retry machinery.
    pub fn ping(&mut self) -> io::Result<u64> {
        match self.request(&Request::Ping)? {
            Reply::Pong { lsn, .. } => Ok(lsn),
            other => Err(data_err(format!("ping refused: {}", other.encode()))),
        }
    }
}
