//! Multi-session serving layer for the SMALL machine.
//!
//! The paper's EP/LP split is already a client/server protocol — the
//! EP issues `cons`/`car`/`cdr` requests against an LP that owns all
//! list structure. This crate lifts that shape one level up: many
//! complete SMALL machines (EP + LP + metrics sink) behind a sharded,
//! dependency-free nonblocking TCP server speaking a length-framed
//! s-expression protocol, with WAL-shipping replication onto a warm
//! standby.
//!
//! Every session request takes one path: **decode → route → execute →
//! journal → reply**. A shard decodes the frame ([`protocol`]) and
//! routes the session op to its home shard's run queue ([`shard`]),
//! which runs it through [`SessionStore::execute`] ([`manager`]) — the
//! only code that maps a session op onto a session. `execute` also
//! returns the journal: the [`repl::WalOp`] to append, or nothing for a
//! read or a deduplicated retry. The shard appends it to the WAL, then
//! completes the reply. A standby replays WAL records through the same
//! `execute`, and the serial twin ([`SessionStore::apply`]) maps typed
//! requests onto it, so a primary, its standbys and the twin run a
//! request the same way by construction. Node-scoped requests
//! (`hello`, `ping`, `stats`, `metrics`, `pull`, `shutdown`) are
//! answered at decode time; [`protocol::hello_reply`] is the one
//! version check.
//!
//! * [`protocol`] — the single home of the wire format: framing, the
//!   documented grammar, the versioned handshake, and the public typed
//!   [`protocol::Request`]/[`protocol::Reply`] API (round-trip
//!   proptested). No raw framing exists outside this module and the
//!   I/O edges that call it.
//! * [`client`] — the typed blocking client every in-tree consumer
//!   uses (soak fleet, churn workers, standby puller, tests).
//! * [`session`] — one machine per session; compile-and-run requests,
//!   `setq` globals persisting across requests, suspend/resume through
//!   `small-persist` checkpoints with a stats-neutral guarantee.
//! * [`manager`] — the per-shard [`SessionStore`]: single-owner, no
//!   locks; LRU suspend-to-checkpoint; the session-op executor; also
//!   the serial twin the harnesses compare wire transcripts against.
//! * [`reactor`] / [`shard`] / [`server`] — nonblocking connections
//!   with ordered reply outboxes; N shard event loops with sessions
//!   pinned by `id % shards` and bounded run queues that shed with
//!   typed `(err busy …)` replies; the acceptor/lifecycle front end
//!   with a two-barrier drain that can never tear a suspend blob.
//! * [`repl`] — WAL-shipping replication: journal frames pulled by a
//!   warm [`repl::Standby`] and replayed under digest verification, so
//!   failover promotes byte-identical state; primaries and relays
//!   answer pulls through one function.
//! * [`telemetry`] — the request-path observability layer: per-shard
//!   [`telemetry::ShardMetrics`] latency histograms on two clocks
//!   (deterministic virtual cycles, opt-in wall time), volatile
//!   queue/shed/WAL-lag observables, a Prometheus text dump, and a
//!   wall-clock [`telemetry::TraceLog`] exporting Chrome traces.
//! * [`gen`] / [`soak`] — seeded load generation and the
//!   fleet-vs-serial-twin soak (plus multi-thousand-session churn),
//!   with a byte-deterministic report.
//! * [`campaign`] — the lockstep replication campaigns as data: a
//!   [`campaign::Scenario`] (relay chain × faults × kills × script ×
//!   epilogue) run by one engine against the serial twin, with
//!   lease-driven promotion and seeded wire/replication faults.
//!   [`campaign::FAILOVER`], [`campaign::NETCHAOS`] and
//!   [`campaign::CLUSTERCHAOS`] are the three committed campaigns; the
//!   module also holds the serving bins' one argument parser.

#![warn(missing_docs)]

pub mod campaign;
pub mod client;
pub mod gen;
pub mod manager;
pub mod protocol;
pub mod reactor;
pub mod repl;
pub mod server;
pub mod session;
pub mod shard;
pub mod soak;
pub mod telemetry;

pub use campaign::{
    run_campaign, CampaignOutcome, CampaignParams, ClientCounters, FaultPlan, FaultyStream,
    Scenario,
};
pub use client::{Client, RetryClient, RetryPolicy, Transport};
pub use manager::{SessionOp, SessionStore};
pub use protocol::{Reply, Request, Role, PROTO_VERSION};
pub use repl::{Lease, LeaseParams, RelayNode, RelayParts, Standby, Wal};
pub use server::{start, start_promoted, DrainOutcome, ServerHandle, ServerParams};
pub use session::{ServeConfig, Session};
pub use soak::{run_soak, SoakOutcome, SoakParams};
pub use telemetry::{prometheus_text, ReqKind, ServeSink, ShardMetrics, TraceLog, VolatileMetrics};
