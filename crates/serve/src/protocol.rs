//! The typed wire protocol: framing, grammar, and the public
//! [`Request`]/[`Reply`] API.
//!
//! This module is the **single home of the wire format**. No other
//! module (and no test) assembles or parses raw protocol text; they
//! construct [`Request`] values, encode them here, and decode the peer's
//! bytes back into [`Reply`] values. The blocking client in
//! [`crate::client`] and the nonblocking server connections in
//! [`crate::reactor`] both call into this module for every byte that
//! crosses the wire.
//!
//! # Wire grammar (protocol version [`PROTO_VERSION`])
//!
//! Every message — request or reply — is one *frame*: a 4-byte
//! little-endian payload length followed by that many bytes of UTF-8
//! s-expression text (one expression per frame, at most [`MAX_FRAME`]
//! bytes).
//!
//! ```text
//! request = (hello <version:int> <role>)     role = client | replica
//!         | (open)
//!         | (open <token:int>)               idempotent open
//!         | (eval <id:int> <form>...)
//!         | (seval <id:int> <seq:int> <form>...)   sequenced eval
//!         | (ledger <id:int>)
//!         | (digest <id:int>)
//!         | (stats)
//!         | (metrics)
//!         | (close <id:int>)
//!         | (close <id:int> <seq:int>)       sequenced close
//!         | (ping)
//!         | (shutdown)
//!         | (pull <lsn:int>)                 replica connections only
//!
//! reply   = (ok hello <version:int> <node>)   node = primary | standby
//!         | (ok opened <id:int>)
//!         | (ok value <form>)
//!         | (ok ledger (<field:sym> <n:int>)*20)
//!         | (ok digest d<hex16>)
//!         | (ok stats (sessions <n>) (evictions <n>) (resumes <n>)
//!                     (requests <n>) (<counter:sym> <n:int>)*22)
//!         | (ok metrics <det-json:h-hex> <vol-json:h-hex>)
//!         | (ok closed <occupancy:int>)
//!         | (ok pong <lsn:int> <node>)
//!         | (ok draining)
//!         | (ok frames <next-lsn:int> <h-hex:sym>)
//!         | (err <class:sym> <code:sym> <atom>...)
//! ```
//!
//! `d<hex16>` is a symbol: `d` followed by 16 lowercase hex digits (the
//! reader has no token for a full 64-bit unsigned integer). `<h-hex>`
//! is a symbol `h` followed by an even number of lowercase hex digits
//! carrying a binary payload (possibly zero digits — an empty one):
//! concatenated WAL frames in `(ok frames …)`, UTF-8 JSON snapshot text
//! in `(ok metrics …)`. The metrics reply carries two payloads — the
//! *deterministic* snapshot (virtual-cycle latency histograms; byte-
//! identical across same-seed runs) and the *volatile* one (wall-clock
//! histograms, queue depth, shed counters, WAL lag).
//!
//! The first request on a connection should be the versioned
//! handshake. A `hello` whose version is not [`PROTO_VERSION`] is
//! rejected with `(err proto unsupported-version <got> <want>)` and the
//! connection is closed; a `(pull …)` on a connection that did not
//! hand-shake as `replica` is rejected with `(err proto not-a-replica)`.
//! Requests other than `hello` are accepted without a handshake so
//! hand-rolled probes stay possible, but every in-tree client
//! hand-shakes first.
//!
//! Error replies carry a *class* naming the failing layer (`proto`,
//! `busy`, `session`, `compile`, `vm`, `heap`, `lp`, `persist`, `repl`)
//! and a kebab-case *code* naming the typed error variant — the full
//! `VmError`/`LpError`/`PersistError` surface maps to a reply; nothing
//! panics across the wire. `(err busy queue-full <shard>)` is the
//! back-pressure reply: the target shard's bounded run queue was full
//! and the request was shed (the connection stays open).
//!
//! # Exactly-once retries (version 3)
//!
//! Version 3 adds the optional *idempotency* surface a retrying client
//! uses after a connection reset: `(open <token>)` re-routes a retried
//! open to the session the token already created and returns the same
//! `(ok opened <id>)`; `(seval <id> <seq> <form>...)` and
//! `(close <id> <seq>)` carry a dense per-session sequence number so a
//! retried mutating request is answered from the server's dedup window
//! instead of re-executing. A seq ahead of the session's cursor is
//! `(err session seq-gap <expected> <got>)`; one that has fallen out of
//! the window is `(err session seq-too-old <seq>)`. Seq-less requests
//! keep the version-2 at-most-once semantics unchanged. `(ping)` →
//! `(ok pong <lsn> <node>)` is the liveness heartbeat the standby's
//! primary lease counts; `lsn` is the primary's next WAL sequence
//! number (0 when replication is off).
//!
//! # Cluster role discovery (version 4)
//!
//! Version 4 adds a [`NodeRole`] atom to the two discovery replies:
//! `(ok hello <version> <node>)` and `(ok pong <lsn> <node>)`, where
//! `<node>` is `primary` or `standby`. A cluster-aware client redials
//! an ordered endpoint list after a reset and picks the first endpoint
//! whose handshake answers `primary`, so failover needs no extra
//! round-trips; a standby relay answers `standby` and refuses session
//! traffic with `(err repl not-primary)` while still serving
//! `(pull …)`, `(ping)`, and `(metrics)` to its own downstream chain.
//! Neither reply ever enters the byte-compared transcripts, so v3
//! transcripts stay byte-identical under v4.

use small_core::{LpError, LptStats};
use small_lisp::compiler::CompileError;
use small_lisp::vm::{BackendError, VmError};
use small_metrics::EventCounts;
use small_persist::PersistError;
use small_sexpr::{parse, print, print_into, Interner, ParseError, SExpr};
use std::borrow::Cow;
use std::io::{self, Read, Write};

/// Current protocol version, announced in the `(hello …)` handshake.
/// Version 2 added the `(metrics)` request and the `(requests <n>)`
/// field in `(ok stats …)`. Version 3 added `(ping)` heartbeats and
/// the optional idempotency fields: `(open <token>)`,
/// `(seval <id> <seq> …)`, `(close <id> <seq>)`. Version 4 added the
/// [`NodeRole`] atom to `(ok hello …)` and `(ok pong …)` for cluster
/// role discovery.
pub const PROTO_VERSION: u32 = 4;

/// Upper bound on a frame payload; a peer announcing more is corrupt
/// (or hostile) and the connection is dropped.
pub const MAX_FRAME: usize = 1 << 20;

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Write one frame: 4-byte LE length, then the payload.
pub fn write_frame(w: &mut impl Write, text: &str) -> io::Result<()> {
    let len = u32::try_from(text.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    if text.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(text.as_bytes())?;
    w.flush()
}

/// Read one frame. `Ok(None)` is a clean end-of-stream *at a frame
/// boundary*; EOF mid-frame, an oversized announcement, or non-UTF-8
/// payload are errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// Incremental frame decoder for nonblocking reads: bytes go in as they
/// arrive, complete frames come out. Used by the server's event-loop
/// connections, which cannot block in [`read_frame`].
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    at: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Append freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, if one is buffered, as an owned
    /// `String`. An oversized length announcement or non-UTF-8 payload
    /// is a protocol error — the connection should be dropped.
    pub fn pop(&mut self) -> io::Result<Option<String>> {
        Ok(self.pop_ref()?.map(str::to_string))
    }

    /// Pop the next complete frame *borrowed straight from the receive
    /// buffer* — the zero-copy variant of [`FrameBuf::pop`]. The text
    /// stays valid until the next call that touches the buffer; decode
    /// it (or copy it out) before feeding more bytes. Error conditions
    /// are identical to [`FrameBuf::pop`].
    pub fn pop_ref(&mut self) -> io::Result<Option<&str>> {
        if self.buf.len() - self.at < 4 {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[self.at..self.at + 4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame exceeds MAX_FRAME",
            ));
        }
        if self.buf.len() - self.at < 4 + len {
            self.compact();
            return Ok(None);
        }
        let start = self.at + 4;
        let text = std::str::from_utf8(&self.buf[start..start + len])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
        self.at = start + len;
        Ok(Some(text))
    }

    /// True if a partial frame is buffered (EOF now would be torn).
    pub fn has_partial(&self) -> bool {
        self.at < self.buf.len()
    }

    fn compact(&mut self) {
        if self.at > 0 {
            self.buf.drain(..self.at);
            self.at = 0;
        }
    }
}

// ---------------------------------------------------------------------
// Hex-symbol codec (binary payloads inside the symbolic reader)
// ---------------------------------------------------------------------

/// Encode bytes as the `h<hex>` symbol used by `(ok frames …)`.
/// Payloads run up to [`MAX_FRAME`], so the digits are pushed directly
/// rather than through a per-byte `format!`.
pub fn hex_sym(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(1 + bytes.len() * 2);
    s.push('h');
    for &b in bytes {
        s.push(DIGITS[(b >> 4) as usize] as char);
        s.push(DIGITS[(b & 0xf) as usize] as char);
    }
    s
}

/// Decode an `h<hex>` symbol back to bytes.
pub fn parse_hex_sym(sym: &str) -> Option<Vec<u8>> {
    let hex = sym.strip_prefix('h')?;
    if hex.len() % 2 != 0 {
        return None;
    }
    let mut out = Vec::with_capacity(hex.len() / 2);
    let b = hex.as_bytes();
    for pair in b.chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        if pair[0].is_ascii_uppercase() || pair[1].is_ascii_uppercase() {
            return None; // canonical form is lowercase
        }
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

// ---------------------------------------------------------------------
// Typed requests
// ---------------------------------------------------------------------

/// Connection role declared in the `(hello …)` handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// An ordinary session client.
    Client,
    /// A warm-standby replica pulling WAL frames.
    Replica,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Client => "client",
            Role::Replica => "replica",
        }
    }
}

/// Cluster role a node announces in its `(ok hello …)` and
/// `(ok pong …)` replies (version 4). A cluster-aware client scans its
/// endpoint list for the node answering [`NodeRole::Primary`]; a
/// standby relay answers [`NodeRole::Standby`] and refuses session
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// The node executing sessions and appending to the WAL.
    Primary,
    /// A warm standby replaying the primary's WAL (possibly relaying
    /// it further down the chain).
    Standby,
}

impl NodeRole {
    /// The wire atom for this role.
    pub fn name(self) -> &'static str {
        match self {
            NodeRole::Primary => "primary",
            NodeRole::Standby => "standby",
        }
    }

    fn parse(text: &str) -> Option<NodeRole> {
        match text {
            "primary" => Some(NodeRole::Primary),
            "standby" => Some(NodeRole::Standby),
            _ => None,
        }
    }
}

/// A client→server request, one per frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `(hello <version> <role>)` — the versioned handshake.
    Hello {
        /// Protocol version the peer speaks.
        version: u32,
        /// Declared connection role.
        role: Role,
    },
    /// `(open)` / `(open <token>)` — create a session. A token makes
    /// the open idempotent: retrying the same token returns the same
    /// `(ok opened <id>)` instead of creating a second session.
    Open {
        /// Optional idempotency token (client-chosen, globally unique).
        token: Option<u64>,
    },
    /// `(eval <id> <form>...)` / `(seval <id> <seq> <form>...)` — run
    /// forms on the session's machine. `src` is the canonical printed
    /// text of the forms, space-joined.
    Eval {
        /// Target session.
        id: u64,
        /// Optional per-session sequence number (dense from 0). A
        /// sequenced request is executed at most once; retries are
        /// answered from the dedup window.
        seq: Option<u64>,
        /// Canonical program text.
        src: String,
    },
    /// `(ledger <id>)` — the session's `LptStats` ledger.
    Ledger {
        /// Target session.
        id: u64,
    },
    /// `(digest <id>)` — the session's running transcript digest.
    Digest {
        /// Target session.
        id: u64,
    },
    /// `(stats)` — server-wide aggregate counters.
    Stats,
    /// `(metrics)` — the server-wide telemetry snapshot (deterministic
    /// and volatile JSON sections as hex-symbol payloads).
    Metrics,
    /// `(close <id>)` / `(close <id> <seq>)` — shut the session's
    /// machine down.
    Close {
        /// Target session.
        id: u64,
        /// Optional per-session sequence number (same space as
        /// sequenced evals).
        seq: Option<u64>,
    },
    /// `(ping)` — liveness heartbeat; answered at decode time.
    Ping,
    /// `(shutdown)` — begin graceful server drain.
    Shutdown,
    /// `(pull <lsn>)` — fetch WAL frames starting at `from` (replica
    /// connections only).
    Pull {
        /// First log sequence number wanted.
        from: u64,
    },
}

/// Re-print payload forms, space-joined, into one buffer — the
/// session compiles canonical text with its own interner. One
/// allocation regardless of form count.
fn join_forms(forms: &[&SExpr], interner: &Interner) -> String {
    let mut src = String::new();
    for (k, f) in forms.iter().enumerate() {
        if k > 0 {
            src.push(' ');
        }
        print_into(&mut src, f, interner);
    }
    src
}

impl Request {
    /// Canonical wire text of the request.
    pub fn encode(&self) -> String {
        match self {
            Request::Hello { version, role } => {
                format!("(hello {version} {})", role.name())
            }
            Request::Open { token: None } => "(open)".to_string(),
            Request::Open { token: Some(t) } => format!("(open {t})"),
            Request::Eval { id, seq: None, src } => format!("(eval {id} {src})"),
            Request::Eval {
                id,
                seq: Some(s),
                src,
            } => format!("(seval {id} {s} {src})"),
            Request::Ledger { id } => format!("(ledger {id})"),
            Request::Digest { id } => format!("(digest {id})"),
            Request::Stats => "(stats)".to_string(),
            Request::Metrics => "(metrics)".to_string(),
            Request::Close { id, seq: None } => format!("(close {id})"),
            Request::Close { id, seq: Some(s) } => format!("(close {id} {s})"),
            Request::Ping => "(ping)".to_string(),
            Request::Shutdown => "(shutdown)".to_string(),
            Request::Pull { from } => format!("(pull {from})"),
        }
    }

    /// Decode one request frame. On failure the caller gets the typed
    /// error [`Reply`] to send back (`proto` class: parse error or
    /// `bad-request`).
    pub fn decode(text: &str) -> Result<Request, Reply> {
        let mut scratch = Interner::new();
        let expr = match parse(text, &mut scratch) {
            Ok(e) => e,
            Err(e) => return Err(parse_error_reply(&e)),
        };
        let bad = || Err(err("proto", "bad-request"));
        let items: Vec<&SExpr> = expr.iter().collect();
        let Some(head) = items.first().and_then(|h| h.as_sym()) else {
            return bad();
        };
        let uint = |k: usize| -> Option<u64> {
            items
                .get(k)
                .and_then(|e| e.as_int())
                .and_then(|i| u64::try_from(i).ok())
        };
        match scratch.name(head) {
            "hello" if items.len() == 3 => {
                let Some(version) = uint(1).and_then(|v| u32::try_from(v).ok()) else {
                    return bad();
                };
                let role = match items[2].as_sym().map(|s| scratch.name(s)) {
                    Some("client") => Role::Client,
                    Some("replica") => Role::Replica,
                    _ => return bad(),
                };
                Ok(Request::Hello { version, role })
            }
            "open" if items.len() == 1 => Ok(Request::Open { token: None }),
            "open" if items.len() == 2 => match uint(1) {
                Some(t) => Ok(Request::Open { token: Some(t) }),
                None => bad(),
            },
            "eval" if items.len() >= 3 => {
                let Some(id) = uint(1) else { return bad() };
                Ok(Request::Eval {
                    id,
                    seq: None,
                    src: join_forms(&items[2..], &scratch),
                })
            }
            "seval" if items.len() >= 4 => {
                let (Some(id), Some(seq)) = (uint(1), uint(2)) else {
                    return bad();
                };
                Ok(Request::Eval {
                    id,
                    seq: Some(seq),
                    src: join_forms(&items[3..], &scratch),
                })
            }
            "ledger" if items.len() == 2 => match uint(1) {
                Some(id) => Ok(Request::Ledger { id }),
                None => bad(),
            },
            "digest" if items.len() == 2 => match uint(1) {
                Some(id) => Ok(Request::Digest { id }),
                None => bad(),
            },
            "stats" if items.len() == 1 => Ok(Request::Stats),
            "metrics" if items.len() == 1 => Ok(Request::Metrics),
            "close" if items.len() == 2 => match uint(1) {
                Some(id) => Ok(Request::Close { id, seq: None }),
                None => bad(),
            },
            "close" if items.len() == 3 => match (uint(1), uint(2)) {
                (Some(id), Some(seq)) => Ok(Request::Close { id, seq: Some(seq) }),
                _ => bad(),
            },
            "ping" if items.len() == 1 => Ok(Request::Ping),
            "shutdown" if items.len() == 1 => Ok(Request::Shutdown),
            "pull" if items.len() == 2 => match uint(1) {
                Some(from) => Ok(Request::Pull { from }),
                None => bad(),
            },
            _ => bad(),
        }
    }
}

// ---------------------------------------------------------------------
// Typed replies
// ---------------------------------------------------------------------

/// The `(ok stats …)` body: manager-level counters plus the 22
/// aggregated event-count words (in [`EventCounts::WORD_NAMES`] order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsBody {
    /// Live sessions (any state).
    pub sessions: u64,
    /// Lifetime LRU evictions.
    pub evictions: u64,
    /// Lifetime resume-on-touch events.
    pub resumes: u64,
    /// Session-targeting requests served (all kinds).
    pub requests: u64,
    /// Aggregated [`EventCounts`] words.
    pub counts: [u64; 22],
}

/// A server→client reply, one per frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `(ok hello <version> <node>)` — handshake accepted.
    Hello {
        /// Version the server speaks (always [`PROTO_VERSION`]).
        version: u32,
        /// Cluster role of the answering node.
        node: NodeRole,
    },
    /// `(ok opened <id>)`.
    Opened {
        /// The new session's id.
        id: u64,
    },
    /// `(ok value <form>)` — an evaluation result, canonically printed.
    Value {
        /// Canonical printed text of the value.
        text: String,
    },
    /// `(ok ledger …)` — the session's full `LptStats`.
    Ledger(Box<LptStats>),
    /// `(ok digest d<hex16>)`.
    Digest {
        /// The session's running transcript digest.
        digest: u64,
    },
    /// `(ok stats …)`.
    Stats(Box<StatsBody>),
    /// `(ok metrics <h-hex> <h-hex>)` — the telemetry snapshot's
    /// deterministic and volatile JSON sections, hex-encoded so
    /// harnesses can byte-compare the deterministic payload without
    /// parsing JSON.
    Metrics {
        /// Fixed-key-order JSON: virtual-cycle latency histograms and
        /// per-kind request counts. Byte-identical across same-seed
        /// runs.
        deterministic: String,
        /// Fixed-key-order JSON: wall-clock histograms, queue depth,
        /// shed counters, WAL-replication lag. Never byte-compared.
        volatile: String,
    },
    /// `(ok closed <occupancy>)`.
    Closed {
        /// Residual LPT occupancy the closed session left behind.
        occupancy: u64,
    },
    /// `(ok pong <lsn> <node>)` — heartbeat answer carrying the
    /// answering node's next WAL sequence number (a standby answers
    /// its applied LSN; 0 when replication is off).
    Pong {
        /// Next WAL LSN on the answering server.
        lsn: u64,
        /// Cluster role of the answering node.
        node: NodeRole,
    },
    /// `(ok draining)` — shutdown acknowledged.
    Draining,
    /// `(ok frames <next-lsn> <h-hex>)` — a batch of WAL frames.
    Frames {
        /// LSN to pull from next.
        next: u64,
        /// Concatenated encoded WAL frames (possibly empty).
        bytes: Vec<u8>,
    },
    /// `(err <class> <code> <atom>...)`.
    ///
    /// Class and code are `Cow`s: the typed error constructors below
    /// borrow their `'static` vocabulary (no allocation on the error
    /// path), while [`Reply::decode`] owns what it read off the wire.
    /// `Cow`'s `PartialEq` compares contents, so the two origins are
    /// interchangeable.
    Err {
        /// Failing layer (`proto`, `busy`, `vm`, …).
        class: Cow<'static, str>,
        /// Kebab-case variant code.
        code: Cow<'static, str>,
        /// Extra atoms (each printed as one token).
        detail: Vec<String>,
    },
}

/// The ledger field names, in `LptStats` declaration order — shared by
/// the encoder, the decoder, and anything formatting ledgers. The last
/// three name retired words (they counted the removed §4.3.2.3 overflow
/// mode): always encoded as 0, and a reply carrying anything else does
/// not decode.
pub const LEDGER_FIELDS: [&str; 20] = [
    "refops",
    "ep-refops",
    "gets",
    "frees",
    "hits",
    "misses",
    "pseudo-overflows",
    "compressed",
    "cycle-collections",
    "cycles-reclaimed",
    "max-occupancy",
    "occupancy-sum",
    "occupancy-samples",
    "max-refcount",
    "max-ep-refcount",
    "faults-detected",
    "faults-recovered",
    "overflow-entries",
    "overflow-exits",
    "heap-direct-ops",
];

impl Reply {
    /// Canonical wire text of the reply.
    pub fn encode(&self) -> String {
        match self {
            Reply::Hello { version, node } => {
                format!("(ok hello {version} {})", node.name())
            }
            Reply::Opened { id } => format!("(ok opened {id})"),
            Reply::Value { text } => format!("(ok value {text})"),
            Reply::Ledger(stats) => {
                let words = stats.to_words();
                let mut out = String::from("(ok ledger");
                for (name, v) in LEDGER_FIELDS.iter().zip(words.iter()) {
                    out.push_str(&format!(" ({name} {v})"));
                }
                out.push(')');
                out
            }
            Reply::Digest { digest } => format!("(ok digest d{digest:016x})"),
            Reply::Stats(body) => {
                let mut out = format!(
                    "(ok stats (sessions {}) (evictions {}) (resumes {}) (requests {})",
                    body.sessions, body.evictions, body.resumes, body.requests
                );
                for (name, v) in EventCounts::WORD_NAMES.iter().zip(body.counts.iter()) {
                    out.push_str(&format!(" ({} {v})", name.replace('_', "-")));
                }
                out.push(')');
                out
            }
            Reply::Metrics {
                deterministic,
                volatile,
            } => format!(
                "(ok metrics {} {})",
                hex_sym(deterministic.as_bytes()),
                hex_sym(volatile.as_bytes())
            ),
            Reply::Closed { occupancy } => format!("(ok closed {occupancy})"),
            Reply::Pong { lsn, node } => format!("(ok pong {lsn} {})", node.name()),
            Reply::Draining => "(ok draining)".to_string(),
            Reply::Frames { next, bytes } => {
                format!("(ok frames {next} {})", hex_sym(bytes))
            }
            Reply::Err {
                class,
                code,
                detail,
            } => {
                let mut out = format!("(err {class} {code}");
                for d in detail {
                    out.push(' ');
                    out.push_str(d);
                }
                out.push(')');
                out
            }
        }
    }

    /// Decode one reply frame. `None` means the text is not a
    /// well-formed reply of this protocol version.
    pub fn decode(text: &str) -> Option<Reply> {
        let mut scratch = Interner::new();
        let expr = parse(text, &mut scratch).ok()?;
        let items: Vec<&SExpr> = expr.iter().collect();
        let head = scratch.name(items.first()?.as_sym()?).to_string();
        match head.as_str() {
            "ok" => {
                let tag = scratch.name(items.get(1)?.as_sym()?).to_string();
                match tag.as_str() {
                    "hello" if items.len() == 4 => Some(Reply::Hello {
                        version: u32::try_from(items[2].as_int()?).ok()?,
                        node: NodeRole::parse(scratch.name(items[3].as_sym()?))?,
                    }),
                    "opened" if items.len() == 3 => Some(Reply::Opened {
                        id: u64::try_from(items[2].as_int()?).ok()?,
                    }),
                    "value" if items.len() == 3 => Some(Reply::Value {
                        text: print(items[2], &scratch),
                    }),
                    "ledger" if items.len() == 2 + LEDGER_FIELDS.len() => {
                        let mut words = [0u64; 20];
                        for (k, slot) in words.iter_mut().enumerate() {
                            let pair: Vec<&SExpr> = items[2 + k].iter().collect();
                            if pair.len() != 2 {
                                return None;
                            }
                            let name = scratch.name(pair[0].as_sym()?);
                            if name != LEDGER_FIELDS[k] {
                                return None;
                            }
                            *slot = u64::try_from(pair[1].as_int()?).ok()?;
                        }
                        Some(Reply::Ledger(Box::new(LptStats::from_words(&words)?)))
                    }
                    "digest" if items.len() == 3 => {
                        let sym = scratch.name(items[2].as_sym()?);
                        let hex = sym.strip_prefix('d')?;
                        if hex.len() != 16 {
                            return None;
                        }
                        Some(Reply::Digest {
                            digest: u64::from_str_radix(hex, 16).ok()?,
                        })
                    }
                    "stats" if items.len() == 6 + EventCounts::WORD_NAMES.len() => {
                        let pair = |k: usize, want: &str| -> Option<u64> {
                            let p: Vec<&SExpr> = items[k].iter().collect();
                            if p.len() != 2 || scratch.name(p[0].as_sym()?) != want {
                                return None;
                            }
                            u64::try_from(p[1].as_int()?).ok()
                        };
                        let sessions = pair(2, "sessions")?;
                        let evictions = pair(3, "evictions")?;
                        let resumes = pair(4, "resumes")?;
                        let requests = pair(5, "requests")?;
                        let mut counts = [0u64; 22];
                        for (k, slot) in counts.iter_mut().enumerate() {
                            let want = EventCounts::WORD_NAMES[k].replace('_', "-");
                            *slot = pair(6 + k, &want)?;
                        }
                        // Refuses non-zero retired words.
                        EventCounts::from_words(&counts)?;
                        Some(Reply::Stats(Box::new(StatsBody {
                            sessions,
                            evictions,
                            resumes,
                            requests,
                            counts,
                        })))
                    }
                    "metrics" if items.len() == 4 => {
                        let det = parse_hex_sym(scratch.name(items[2].as_sym()?))?;
                        let vol = parse_hex_sym(scratch.name(items[3].as_sym()?))?;
                        Some(Reply::Metrics {
                            deterministic: String::from_utf8(det).ok()?,
                            volatile: String::from_utf8(vol).ok()?,
                        })
                    }
                    "closed" if items.len() == 3 => Some(Reply::Closed {
                        occupancy: u64::try_from(items[2].as_int()?).ok()?,
                    }),
                    "pong" if items.len() == 4 => Some(Reply::Pong {
                        lsn: u64::try_from(items[2].as_int()?).ok()?,
                        node: NodeRole::parse(scratch.name(items[3].as_sym()?))?,
                    }),
                    "draining" if items.len() == 2 => Some(Reply::Draining),
                    "frames" if items.len() == 4 => {
                        let next = u64::try_from(items[2].as_int()?).ok()?;
                        let bytes = parse_hex_sym(scratch.name(items[3].as_sym()?))?;
                        Some(Reply::Frames { next, bytes })
                    }
                    _ => None,
                }
            }
            "err" if items.len() >= 3 => {
                let class = Cow::Owned(scratch.name(items[1].as_sym()?).to_string());
                let code = Cow::Owned(scratch.name(items[2].as_sym()?).to_string());
                let detail = items[3..]
                    .iter()
                    .map(|e| print(e, &scratch))
                    .collect::<Vec<_>>();
                Some(Reply::Err {
                    class,
                    code,
                    detail,
                })
            }
            _ => None,
        }
    }

    /// True for `(err …)` replies.
    pub fn is_err(&self) -> bool {
        matches!(self, Reply::Err { .. })
    }
}

// ---------------------------------------------------------------------
// Typed error-reply constructors
// ---------------------------------------------------------------------

/// Build an `(err <class> <code>)` reply. The class/code vocabulary is
/// `'static`, so no allocation happens until the reply is encoded.
pub fn err(class: &'static str, code: &'static str) -> Reply {
    Reply::Err {
        class: Cow::Borrowed(class),
        code: Cow::Borrowed(code),
        detail: Vec::new(),
    }
}

/// An `(err <class> <code> <detail>...)` reply with extra atoms.
pub fn err_with(class: &'static str, code: &'static str, detail: &[&str]) -> Reply {
    Reply::Err {
        class: Cow::Borrowed(class),
        code: Cow::Borrowed(code),
        detail: detail.iter().map(|d| d.to_string()).collect(),
    }
}

/// The back-pressure reply: `shard`'s bounded run queue was full.
pub fn busy_reply(shard: usize) -> Reply {
    err_with("busy", "queue-full", &[&shard.to_string()])
}

/// The dedup-window reply for a sequence number ahead of the session's
/// cursor: the client skipped a request.
pub fn seq_gap_reply(expected: u64, got: u64) -> Reply {
    err_with(
        "session",
        "seq-gap",
        &[&expected.to_string(), &got.to_string()],
    )
}

/// The dedup-window reply for a sequence number that has fallen out of
/// the replay window — the retry arrived too late to be answered from
/// cache.
pub fn seq_too_old_reply(seq: u64) -> Reply {
    err_with("session", "seq-too-old", &[&seq.to_string()])
}

/// A `node`'s answer to `(hello <version> …)`: the one place a peer's
/// version is checked against [`PROTO_VERSION`]. Any reply but
/// [`Reply::Hello`] rejects the handshake.
pub fn hello_reply(version: u32, node: NodeRole) -> Reply {
    if version == PROTO_VERSION {
        Reply::Hello { version, node }
    } else {
        err_with(
            "proto",
            "unsupported-version",
            &[&version.to_string(), &PROTO_VERSION.to_string()],
        )
    }
}

fn heap_code(e: small_heap::controller::HeapError) -> &'static str {
    use small_heap::controller::HeapError;
    match e {
        HeapError::Exhausted => "exhausted",
        HeapError::NotAnObject => "not-an-object",
        HeapError::BadAddress => "bad-address",
        HeapError::Transient => "transient",
    }
}

/// Typed reply for a parse failure of the client's payload.
pub fn parse_error_reply(e: &ParseError) -> Reply {
    let code = match e {
        ParseError::UnexpectedEof => "unexpected-eof",
        ParseError::UnbalancedClose(_) => "unbalanced-close",
        ParseError::BadDot(_) => "bad-dot",
        ParseError::TrailingInput(_) => "trailing-input",
    };
    err("proto", code)
}

/// Typed reply for a compile failure of the client's program.
pub fn compile_error_reply(e: &CompileError) -> Reply {
    let code = match e {
        CompileError::BadForm(_) => "bad-form",
        CompileError::NoSuchLabel(_) => "no-such-label",
        CompileError::BadCallHead => "bad-call-head",
        CompileError::NestedDef => "nested-def",
    };
    err("compile", code)
}

/// Typed reply for an LP failure (cyclic write-out, …) surfaced
/// outside the VM's error chain.
pub fn lp_error_reply(e: &LpError) -> Reply {
    match e {
        LpError::TrueOverflow => err("lp", "true-overflow"),
        LpError::Heap(h) => err_with("lp", "heap", &[heap_code(*h)]),
        LpError::NotAList => err("lp", "not-a-list"),
        LpError::UnexpectedTag(_) => err("lp", "unexpected-tag"),
        LpError::Cyclic => err("lp", "cyclic"),
    }
}

/// Typed reply for every VM runtime failure, including the backend
/// chain (`VmError::Backend(BackendError::…)`).
pub fn vm_error_reply(e: &VmError) -> Reply {
    match e {
        VmError::Unbound(_) => err("vm", "unbound"),
        VmError::NoSuchFunction(_) => err("vm", "no-such-function"),
        VmError::TypeError(op) => err_with("vm", "type-error", &[op]),
        VmError::DivideByZero => err("vm", "divide-by-zero"),
        VmError::FixnumOverflow => err("vm", "fixnum-overflow"),
        VmError::StackUnderflow => err("vm", "stack-underflow"),
        VmError::ReadEof => err("vm", "read-eof"),
        VmError::StepBudget => err("vm", "step-budget"),
        VmError::Backend(b) => match b {
            BackendError::TrueOverflow => err("lp", "true-overflow"),
            BackendError::Heap(h) => err_with("heap", "fault", &[heap_code(*h)]),
            BackendError::NotAList => err("lp", "not-a-list"),
            BackendError::UnexpectedTag(_) => err("lp", "unexpected-tag"),
            BackendError::Cyclic => err("lp", "cyclic"),
        },
    }
}

/// Typed reply for a persistence failure while suspending or resuming
/// a session (a corrupt checkpoint blob fails closed as an error reply
/// on the session that touched it, never a panic).
pub fn persist_error_reply(e: &PersistError) -> Reply {
    let code = match e {
        PersistError::NoCheckpoint => "no-checkpoint",
        PersistError::CorruptCheckpoint(_) => "corrupt-checkpoint",
        PersistError::UnsupportedVersion(_) => "unsupported-version",
        PersistError::CorruptJournal { .. } => "corrupt-journal",
        PersistError::ReplayDivergence { .. } => "replay-divergence",
        PersistError::MalformedImage(_) => "malformed-image",
        PersistError::Crash { .. } => "crash",
    };
    err("persist", code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every typed error reply the server can build decodes on the
    /// client to the reply it was: each detail is one atom. The type
    /// errors come from evaluating programs that raise each of them.
    #[test]
    fn every_error_reply_decodes_to_itself() {
        use small_heap::controller::HeapError;
        use small_heap::Tag;
        let heap = [
            HeapError::Exhausted,
            HeapError::NotAnObject,
            HeapError::BadAddress,
            HeapError::Transient,
        ];
        let mut replies = Vec::new();
        for lp in [
            LpError::TrueOverflow,
            LpError::NotAList,
            LpError::UnexpectedTag(Tag::FreeLink),
            LpError::Cyclic,
        ]
        .into_iter()
        .chain(heap.map(LpError::Heap))
        {
            replies.push(lp_error_reply(&lp));
        }
        let backend = [
            BackendError::TrueOverflow,
            BackendError::NotAList,
            BackendError::UnexpectedTag(Tag::FreeLink),
            BackendError::Cyclic,
        ]
        .into_iter()
        .chain(heap.map(BackendError::Heap));
        for src in [
            "(car 5)",
            "(cdr 5)",
            "(rplaca 5 nil)",
            "(rplacd 5 nil)",
            "(lessp 1 nil)",
        ] {
            let r = crate::session::Session::new(0, &crate::ServeConfig::default()).eval(src);
            assert!(r.encode().starts_with("(err vm type-error"), "{src}");
            replies.push(r);
        }
        for vm in [
            VmError::Unbound("x".into()),
            VmError::NoSuchFunction("f".into()),
            VmError::DivideByZero,
            VmError::FixnumOverflow,
            VmError::StackUnderflow,
            VmError::ReadEof,
            VmError::StepBudget,
        ]
        .into_iter()
        .chain(backend.map(VmError::Backend))
        {
            replies.push(vm_error_reply(&vm));
        }
        for c in [
            CompileError::BadForm("(x".into()),
            CompileError::NoSuchLabel("l".into()),
            CompileError::BadCallHead,
            CompileError::NestedDef,
        ] {
            replies.push(compile_error_reply(&c));
        }
        for p in [
            PersistError::NoCheckpoint,
            PersistError::CorruptCheckpoint("bad magic"),
            PersistError::UnsupportedVersion(9),
            PersistError::CorruptJournal {
                offset: 3,
                reason: "crc",
            },
            PersistError::ReplayDivergence {
                seq: 1,
                expected: 2,
                actual: 3,
            },
            PersistError::MalformedImage(small_heap::ImageError::Malformed),
            PersistError::Crash { appends: 4 },
        ] {
            replies.push(persist_error_reply(&p));
        }
        for e in [
            ParseError::UnexpectedEof,
            ParseError::UnbalancedClose(1),
            ParseError::BadDot(2),
            ParseError::TrailingInput(3),
        ] {
            replies.push(parse_error_reply(&e));
        }
        replies.extend([busy_reply(3), seq_gap_reply(4, 6), seq_too_old_reply(2)]);
        for node in [NodeRole::Primary, NodeRole::Standby] {
            replies.push(hello_reply(PROTO_VERSION, node));
            replies.push(hello_reply(PROTO_VERSION + 1, node));
        }
        // The replies the shard loop builds itself.
        for (class, code) in [
            ("repl", "not-primary"),
            ("repl", "disabled"),
            ("proto", "not-a-replica"),
            ("session", "panicked"),
        ] {
            replies.push(err(class, code));
        }
        for r in replies {
            assert_eq!(
                Reply::decode(&r.encode()),
                Some(r.clone()),
                "{}",
                r.encode()
            );
        }
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "(open)").unwrap();
        write_frame(&mut buf, "(eval 0 (add 1 2))").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("(open)"));
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("(eval 0 (add 1 2))")
        );
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn torn_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "(open)").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = buf.as_slice();
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_frame_refused() {
        let mut buf = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        assert!(read_frame(&mut buf.as_slice()).is_err());
        let mut fb = FrameBuf::new();
        fb.extend(&buf);
        assert!(fb.pop().is_err());
    }

    #[test]
    fn frame_buf_reassembles_split_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "(open)").unwrap();
        write_frame(&mut wire, "(stats)").unwrap();
        // Feed the bytes one at a time; frames pop exactly at their
        // boundaries.
        let mut fb = FrameBuf::new();
        let mut seen = Vec::new();
        for &b in &wire {
            fb.extend(&[b]);
            while let Some(f) = fb.pop().unwrap() {
                seen.push(f);
            }
        }
        assert_eq!(seen, vec!["(open)".to_string(), "(stats)".to_string()]);
        assert!(!fb.has_partial());
    }

    #[test]
    fn hex_sym_round_trips() {
        for bytes in [&b""[..], &b"\x00\xff\x10"[..], &b"hello"[..]] {
            let sym = hex_sym(bytes);
            assert_eq!(parse_hex_sym(&sym).as_deref(), Some(bytes));
        }
        assert_eq!(parse_hex_sym("habc"), None, "odd digit count");
        assert_eq!(parse_hex_sym("xff"), None, "bad prefix");
        assert_eq!(parse_hex_sym("hAB"), None, "uppercase is non-canonical");
    }

    #[test]
    fn borrowed_pop_at_every_split_boundary() {
        // One frame with a binary hex-armored payload, torn at every
        // possible byte boundary (through the length prefix and
        // through the payload): the borrowed pop never yields early,
        // never yields torn text, and the completed frame decodes to
        // the original reply.
        let reply = Reply::Frames {
            next: 7,
            bytes: (0u8..=63).collect(),
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &reply.encode()).unwrap();
        for cut in 0..=wire.len() {
            let mut fb = FrameBuf::new();
            fb.extend(&wire[..cut]);
            let early = fb.pop_ref().unwrap().map(str::to_string);
            assert_eq!(
                early.is_some(),
                cut == wire.len(),
                "pop at cut {cut}/{}",
                wire.len()
            );
            if cut < wire.len() {
                assert_eq!(fb.has_partial(), cut > 0, "partial at cut {cut}");
                fb.extend(&wire[cut..]);
            }
            let text = match early {
                Some(t) => t,
                None => fb.pop_ref().unwrap().expect("frame complete").to_string(),
            };
            assert_eq!(Reply::decode(&text).as_ref(), Some(&reply));
            assert!(!fb.has_partial());
            assert_eq!(fb.pop_ref().unwrap(), None);
        }
    }

    #[test]
    fn request_decode_matches_grammar() {
        assert_eq!(Request::decode("(open)"), Ok(Request::Open { token: None }));
        assert_eq!(
            Request::decode("(open 99)"),
            Ok(Request::Open { token: Some(99) })
        );
        assert_eq!(
            Request::decode("(hello 1 replica)"),
            Ok(Request::Hello {
                version: 1,
                role: Role::Replica
            })
        );
        assert_eq!(
            Request::decode("(eval 3 (add 1 2) (car x))"),
            Ok(Request::Eval {
                id: 3,
                seq: None,
                src: "(add 1 2) (car x)".to_string()
            })
        );
        assert_eq!(
            Request::decode("(seval 3 7 (add 1 2))"),
            Ok(Request::Eval {
                id: 3,
                seq: Some(7),
                src: "(add 1 2)".to_string()
            })
        );
        assert_eq!(
            Request::decode("(close 4 2)"),
            Ok(Request::Close {
                id: 4,
                seq: Some(2)
            })
        );
        assert_eq!(Request::decode("(ping)"), Ok(Request::Ping));
        assert_eq!(Request::decode("(pull 17)"), Ok(Request::Pull { from: 17 }));
        assert_eq!(Request::decode("(metrics)"), Ok(Request::Metrics));
        // Arity matters: `(metrics 1)` is not a request.
        assert_eq!(
            Request::decode("(metrics 1)"),
            Err(err("proto", "bad-request"))
        );
        // Malformed requests come back as typed proto errors.
        assert_eq!(
            Request::decode("(nonsense)"),
            Err(err("proto", "bad-request"))
        );
        assert_eq!(
            Request::decode("(open"),
            Err(err("proto", "unexpected-eof"))
        );
        assert_eq!(
            Request::decode("(eval x 1)"),
            Err(err("proto", "bad-request"))
        );
    }

    #[test]
    fn every_error_reply_parses_as_a_symbol_only_sexpr() {
        use small_sexpr::parse;
        let replies = [
            vm_error_reply(&VmError::TypeError("car")),
            vm_error_reply(&VmError::Backend(BackendError::Heap(
                small_heap::controller::HeapError::Exhausted,
            ))),
            lp_error_reply(&LpError::Cyclic),
            persist_error_reply(&PersistError::NoCheckpoint),
            compile_error_reply(&CompileError::BadCallHead),
            parse_error_reply(&ParseError::UnexpectedEof),
            busy_reply(3),
            hello_reply(9, NodeRole::Primary),
            seq_gap_reply(4, 7),
            seq_too_old_reply(1),
        ];
        for r in replies {
            let text = r.encode();
            let mut i = Interner::new();
            parse(&text, &mut i).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert!(text.starts_with("(err "), "{text}");
            assert_eq!(Reply::decode(&text).as_ref(), Some(&r), "{text}");
        }
    }

    #[test]
    fn metrics_reply_round_trips_json_payloads() {
        let reply = Reply::Metrics {
            deterministic: "{\"schema\":\"small-metrics-snapshot/1\",\"requests\":2}".to_string(),
            volatile: "{\"busy_sheds\":0,\"wal\":{\"lag\":3}}".to_string(),
        };
        let text = reply.encode();
        // The payloads ride as hex symbols — braces and quotes never
        // touch the s-expression reader.
        assert!(text.starts_with("(ok metrics h"), "{text}");
        assert!(!text.contains('{'), "{text}");
        assert_eq!(Reply::decode(&text).as_ref(), Some(&reply));
    }

    fn arb_request() -> impl Strategy<Value = Request> {
        let id = 0u64..1_000_000;
        let seq = prop_oneof![Just(None), (0u64..1_000).prop_map(Some)].boxed();
        prop_oneof![
            Just(Request::Stats),
            Just(Request::Metrics),
            Just(Request::Ping),
            Just(Request::Shutdown),
            prop_oneof![Just(None), (0u64..1_000_000).prop_map(Some)]
                .prop_map(|token| Request::Open { token }),
            (
                0u32..10,
                prop_oneof![Just(Role::Client), Just(Role::Replica)]
            )
                .prop_map(|(version, role)| Request::Hello { version, role }),
            id.clone().prop_map(|id| Request::Ledger { id }),
            id.clone().prop_map(|id| Request::Digest { id }),
            (id.clone(), seq.clone()).prop_map(|(id, seq)| Request::Close { id, seq }),
            (0u64..1_000_000).prop_map(|from| Request::Pull { from }),
            (
                id,
                seq,
                prop_oneof![
                    Just("(add 1 2)".to_string()),
                    Just("(setq acc (cons 1 acc))".to_string()),
                    Just("nil".to_string()),
                    Just("(prog (x) (setq x (cons 1 nil)) (return x)) (car acc)".to_string()),
                ]
            )
                .prop_map(|(id, seq, src)| Request::Eval { id, seq, src }),
        ]
    }

    fn arb_reply() -> impl Strategy<Value = Reply> {
        prop_oneof![
            Just(Reply::Draining),
            (
                0u32..10,
                prop_oneof![Just(NodeRole::Primary), Just(NodeRole::Standby)]
            )
                .prop_map(|(version, node)| Reply::Hello { version, node }),
            (0u64..1_000_000).prop_map(|id| Reply::Opened { id }),
            (0u64..100).prop_map(|occupancy| Reply::Closed { occupancy }),
            (
                0u64..1_000_000,
                prop_oneof![Just(NodeRole::Primary), Just(NodeRole::Standby)]
            )
                .prop_map(|(lsn, node)| Reply::Pong { lsn, node }),
            any::<u64>().prop_map(|digest| Reply::Digest { digest }),
            prop_oneof![
                Just("42".to_string()),
                Just("(1 2 3)".to_string()),
                Just("nil".to_string()),
                Just("(a (b . 7) c)".to_string()),
            ]
            .prop_map(|text| Reply::Value { text }),
            // Words 17–19 are retired and stay zero.
            prop::collection::vec(0u64..1_000_000, 17).prop_map(|v| {
                let mut w = [0u64; 20];
                w[..17].copy_from_slice(&v);
                Reply::Ledger(Box::new(LptStats::from_words(&w).unwrap()))
            }),
            (
                0u64..100,
                0u64..100,
                0u64..100,
                0u64..10_000,
                // Words 20–21 are retired and stay zero.
                prop::collection::vec(0u64..1_000_000, 20)
            )
                .prop_map(|(sessions, evictions, resumes, requests, v)| {
                    let mut counts = [0u64; 22];
                    counts[..20].copy_from_slice(&v);
                    Reply::Stats(Box::new(StatsBody {
                        sessions,
                        evictions,
                        resumes,
                        requests,
                        counts,
                    }))
                }),
            (
                prop_oneof![
                    Just("{\"requests\":0}".to_string()),
                    Just("{\"kinds\":{\"eval\":{\"count\":3}}}".to_string()),
                    Just(String::new()),
                ],
                prop_oneof![Just("{\"busy_sheds\":1}".to_string()), Just(String::new()),]
            )
                .prop_map(|(deterministic, volatile)| Reply::Metrics {
                    deterministic,
                    volatile
                }),
            (0u64..1_000_000, prop::collection::vec(any::<u8>(), 0..48))
                .prop_map(|(next, bytes)| Reply::Frames { next, bytes }),
            (
                prop_oneof![Just("vm"), Just("lp"), Just("busy"), Just("proto")],
                prop_oneof![Just("type-error"), Just("queue-full"), Just("cyclic")],
                prop::collection::vec(
                    prop_oneof![Just("car".to_string()), Just("7".to_string())],
                    0..3
                )
            )
                .prop_map(|(class, code, detail)| Reply::Err {
                    class: Cow::Borrowed(class),
                    code: Cow::Borrowed(code),
                    detail,
                }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn request_encode_decode_round_trips(req in arb_request()) {
            let text = req.encode();
            prop_assert_eq!(Request::decode(&text), Ok(req));
        }

        #[test]
        fn reply_encode_decode_round_trips(reply in arb_reply()) {
            let text = reply.encode();
            let back = Reply::decode(&text);
            prop_assert_eq!(back.as_ref(), Some(&reply), "{}", text);
            // Re-encoding the decoded value is byte-identical: the
            // encoding is canonical.
            prop_assert_eq!(back.unwrap().encode(), text);
        }

        /// Any chunking of a valid frame stream — down to 1-byte reads
        /// that tear every length prefix — decodes through [`FrameBuf`]
        /// to exactly the frames a one-shot [`read_frame`] loop sees.
        #[test]
        fn frame_buf_chunking_equals_one_shot(
            reqs in prop::collection::vec(arb_request(), 1..8),
            splits in prop::collection::vec(1usize..9, 1..64),
        ) {
            let mut wire = Vec::new();
            for r in &reqs {
                write_frame(&mut wire, &r.encode()).unwrap();
            }
            let mut expected = Vec::new();
            let mut rd = wire.as_slice();
            while let Some(f) = read_frame(&mut rd).unwrap() {
                expected.push(f);
            }
            let mut fb = FrameBuf::new();
            let mut seen = Vec::new();
            let mut at = 0;
            let mut turn = 0;
            while at < wire.len() {
                let end = (at + splits[turn % splits.len()]).min(wire.len());
                turn += 1;
                fb.extend(&wire[at..end]);
                at = end;
                while let Some(f) = fb.pop().unwrap() {
                    seen.push(f);
                }
            }
            prop_assert_eq!(seen, expected);
            prop_assert!(!fb.has_partial());
        }

        /// The borrowed pop ([`FrameBuf::pop_ref`]) yields exactly the
        /// frames the owned pop does under any chunking, over the full
        /// reply grammar — including the hex-armored metrics and WAL
        /// payloads — and each borrowed frame decodes back to the
        /// reply that produced it.
        #[test]
        fn borrowed_pop_equals_owned_pop(
            replies in prop::collection::vec(arb_reply(), 1..6),
            splits in prop::collection::vec(1usize..17, 1..64),
        ) {
            let mut wire = Vec::new();
            for r in &replies {
                write_frame(&mut wire, &r.encode()).unwrap();
            }
            let mut owned = FrameBuf::new();
            let mut borrowed = FrameBuf::new();
            let mut seen_owned = Vec::new();
            let mut seen_borrowed = Vec::new();
            let mut at = 0;
            let mut turn = 0;
            while at < wire.len() {
                let end = (at + splits[turn % splits.len()]).min(wire.len());
                turn += 1;
                owned.extend(&wire[at..end]);
                borrowed.extend(&wire[at..end]);
                at = end;
                while let Some(f) = owned.pop().unwrap() {
                    seen_owned.push(f);
                }
                while let Some(f) = borrowed.pop_ref().unwrap() {
                    seen_borrowed.push(f.to_string());
                }
            }
            prop_assert_eq!(&seen_owned, &seen_borrowed);
            prop_assert!(!borrowed.has_partial());
            prop_assert_eq!(seen_borrowed.len(), replies.len());
            for (f, r) in seen_borrowed.iter().zip(replies.iter()) {
                prop_assert_eq!(Reply::decode(f).as_ref(), Some(r), "{}", f);
            }
        }

        /// An oversized length prefix is refused the moment the 4
        /// header bytes are in — before any payload is buffered.
        #[test]
        fn oversized_prefix_rejects_before_buffering(
            announced in (MAX_FRAME as u32 + 1)..u32::MAX,
        ) {
            let hdr = announced.to_le_bytes();
            let mut fb = FrameBuf::new();
            // Feed the header one byte at a time; while it is torn the
            // buffer just waits.
            for &b in &hdr[..3] {
                fb.extend(&[b]);
                prop_assert!(fb.pop().unwrap().is_none());
            }
            fb.extend(&hdr[3..]);
            prop_assert!(fb.pop().is_err());
        }
    }
}
