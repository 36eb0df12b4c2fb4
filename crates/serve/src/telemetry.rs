//! Request-path telemetry for the serving layer: per-`Request`-kind
//! latency histograms on two clocks, shard-level occupancy samples,
//! WAL-replication lag counters, and a wall-clock span tracer feeding
//! the `small-profile` Chrome-trace exporter.
//!
//! # The two clocks
//!
//! Every request is priced on the **virtual clock** — the machine's
//! [`CycleClock`], the one §4.3.2.5 recurrence that
//! `TimingModel::run_stream` and the profiler also advance, stepped one
//! operation at a time by [`ServeSink`]. The clock resets at
//! every request boundary, so a request's cycle cost is a pure function
//! of its own operation stream: independent of shard scheduling,
//! eviction churn, and wall time. Virtual-cycle histograms are
//! therefore **deterministic** — byte-identical across same-seed runs —
//! and live in the snapshot the soak harness gates on.
//!
//! The **wall clock** (enabled by the same `--wall` switch as the bench
//! harness) measures the same requests in microseconds of real time.
//! Wall histograms, run-queue depth samples, shed counters, and WAL
//! lag are machine- and schedule-dependent; they are reported in the
//! *volatile* section of the `(metrics)` reply and the Prometheus dump,
//! and never byte-compared.

use crate::protocol::Request;
use small_core::timing::CycleClock;
use small_metrics::{
    histogram_json, Counter, Event, EventCounts, EventSink, Histogram, JsonObject, OpClass,
};
use small_profile::chrome::TraceBuilder;
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------
// ServeSink — the per-session event sink: counts + virtual clock
// ---------------------------------------------------------------------

/// The event sink every serving session machine runs with: the
/// [`EventCounts`] the `(stats)` surface aggregates (persisted across
/// suspend/resume), plus a [`CycleClock`] advanced at every operation
/// boundary. The clock is *not* persisted — it is drained at each
/// request boundary by [`ServeSink::take_cycles`], so suspension
/// between requests cannot observe (or perturb) it.
#[derive(Debug, Clone, Default)]
pub struct ServeSink {
    /// Per-kind event counts (the suspend blob carries these words).
    pub counts: EventCounts,
    clock: CycleClock,
}

impl ServeSink {
    /// A sink resuming from persisted counts (the clock starts fresh —
    /// it never spans a request boundary).
    pub fn with_counts(counts: EventCounts) -> ServeSink {
        ServeSink {
            counts,
            clock: CycleClock::default(),
        }
    }

    /// Virtual cycles accumulated since the last call; resets the
    /// clock. Called once per request.
    pub fn take_cycles(&mut self) -> u64 {
        self.clock.take()
    }
}

impl EventSink for ServeSink {
    #[inline]
    fn record(&mut self, event: Event) {
        self.counts.record(event);
    }

    #[inline]
    fn op_end(&mut self, class: OpClass) {
        self.clock.advance(class);
    }
}

// ---------------------------------------------------------------------
// Per-request-kind registry
// ---------------------------------------------------------------------

/// The session-targeting request kinds latency is recorded for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// `(open)`.
    Open,
    /// `(eval …)`.
    Eval,
    /// `(ledger …)`.
    Ledger,
    /// `(digest …)`.
    Digest,
    /// `(close …)`.
    Close,
}

impl ReqKind {
    /// All kinds, in the stable snapshot order.
    pub const ALL: [ReqKind; 5] = [
        ReqKind::Open,
        ReqKind::Eval,
        ReqKind::Ledger,
        ReqKind::Digest,
        ReqKind::Close,
    ];

    /// Stable lowercase name (the JSON/Prometheus label).
    pub fn name(self) -> &'static str {
        match self {
            ReqKind::Open => "open",
            ReqKind::Eval => "eval",
            ReqKind::Ledger => "ledger",
            ReqKind::Digest => "digest",
            ReqKind::Close => "close",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// The kind of a session-targeting request (`None` for
    /// connection-scoped requests, which never reach a store).
    pub fn of(req: &Request) -> Option<ReqKind> {
        match req {
            Request::Open { .. } => Some(ReqKind::Open),
            Request::Eval { .. } => Some(ReqKind::Eval),
            Request::Ledger { .. } => Some(ReqKind::Ledger),
            Request::Digest { .. } => Some(ReqKind::Digest),
            Request::Close { .. } => Some(ReqKind::Close),
            _ => None,
        }
    }
}

/// One request kind's telemetry: a throughput counter plus latency
/// histograms on both clocks.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ReqTelemetry {
    /// Requests of this kind served.
    pub count: Counter,
    /// Virtual-cycle latency (deterministic).
    pub cycles: Histogram,
    /// Wall-clock latency in microseconds (recorded only under
    /// `--wall`; always volatile).
    pub wall_us: Histogram,
}

/// The per-store (hence per-shard, or twin-wide) request-telemetry
/// registry: [`ReqTelemetry`] per [`ReqKind`], built on the
/// `small-metrics` primitives. Shards publish a copy after every run
/// batch; the `(metrics)` surface merges the copies.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ShardMetrics {
    kinds: [ReqTelemetry; 5],
}

impl ShardMetrics {
    /// Record one served request.
    pub fn record(&mut self, kind: ReqKind, cycles: u64, wall_us: Option<u64>) {
        let t = &mut self.kinds[kind.index()];
        t.count.inc();
        t.cycles.record(cycles);
        if let Some(us) = wall_us {
            t.wall_us.record(us);
        }
    }

    /// One kind's telemetry.
    pub fn kind(&self, kind: ReqKind) -> &ReqTelemetry {
        &self.kinds[kind.index()]
    }

    /// Total requests served across kinds.
    pub fn requests(&self) -> u64 {
        self.kinds.iter().map(|t| t.count.get()).sum()
    }

    /// Fold another registry in (shard cells → server-wide snapshot).
    /// Order-independent: merged histograms depend only on the combined
    /// sample multiset.
    pub fn merge(&mut self, other: &ShardMetrics) {
        for (a, b) in self.kinds.iter_mut().zip(other.kinds.iter()) {
            a.count.merge(b.count);
            a.cycles.merge(&b.cycles);
            a.wall_us.merge(&b.wall_us);
        }
    }

    /// The deterministic snapshot: fixed key order, virtual-cycle data
    /// only. Byte-identical across same-seed runs — the soak harness
    /// byte-compares the server-merged snapshot against the serial
    /// twin's.
    pub fn deterministic_json(&self) -> String {
        let mut root = JsonObject::new();
        root.field_str("schema", "small-metrics-snapshot/1");
        root.field_u64("requests", self.requests());
        let mut kinds = String::from("{");
        for (k, kind) in ReqKind::ALL.iter().enumerate() {
            let t = self.kind(*kind);
            if k > 0 {
                kinds.push(',');
            }
            let mut o = JsonObject::new();
            o.field_u64("count", t.count.get());
            o.field_raw("cycles", &histogram_json(&t.cycles));
            kinds.push_str(&format!("\"{}\":{}", kind.name(), o.finish()));
        }
        kinds.push('}');
        root.field_raw("kinds", &kinds);
        root.finish()
    }

    /// The wall-clock histograms as JSON (volatile; empty histograms
    /// when `--wall` was off).
    fn wall_json(&self) -> String {
        let mut out = String::from("{");
        for (k, kind) in ReqKind::ALL.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{}",
                kind.name(),
                histogram_json(&self.kind(*kind).wall_us)
            ));
        }
        out.push('}');
        out
    }
}

// ---------------------------------------------------------------------
// Volatile shard observables
// ---------------------------------------------------------------------

/// Schedule-dependent per-shard observables: queue occupancy, shed
/// counters, WAL-replication lag. Reported, never byte-compared.
#[derive(Debug, Default, Clone)]
pub struct VolatileMetrics {
    /// Run-queue depth sampled at every non-empty drain.
    pub queue_depth: Histogram,
    /// Requests shed with `(err busy queue-full …)`.
    pub busy_sheds: Counter,
    /// Connections shed with `(err busy too-many-connections …)`.
    pub conn_sheds: Counter,
    /// WAL records appended (primary side of replication lag).
    pub wal_appended: Counter,
    /// WAL records served to pullers (shipped side of the lag; each
    /// carried a reply digest for the standby's round-trip check).
    pub wal_shipped: Counter,
    /// `(pull …)` batches served.
    pub wal_pull_batches: Counter,
    /// Highest LSN a replica has confessed to having applied (the
    /// `from` of its latest `(pull …)`). A high-water mark, not a
    /// counter: merged by max, so the merged snapshot reports the most
    /// advanced replica.
    wal_applied: u64,
    /// Relay hop: the upstream primary's next-LSN as last observed by
    /// this node when it is a chained standby. Max-merged high-water
    /// mark; 0 on a primary.
    relay_upstream: u64,
    /// Relay hop: the LSN this node has applied (and can therefore
    /// serve downstream). Max-merged high-water mark; 0 on a primary.
    relay_applied: u64,
}

impl VolatileMetrics {
    /// Fold another cell in.
    pub fn merge(&mut self, other: &VolatileMetrics) {
        self.queue_depth.merge(&other.queue_depth);
        self.busy_sheds.merge(other.busy_sheds);
        self.conn_sheds.merge(other.conn_sheds);
        self.wal_appended.merge(other.wal_appended);
        self.wal_shipped.merge(other.wal_shipped);
        self.wal_pull_batches.merge(other.wal_pull_batches);
        self.wal_applied = self.wal_applied.max(other.wal_applied);
        self.relay_upstream = self.relay_upstream.max(other.relay_upstream);
        self.relay_applied = self.relay_applied.max(other.relay_applied);
    }

    /// Record a replica's applied-LSN high-water mark (from the `from`
    /// argument of a `(pull …)`).
    pub fn note_wal_applied(&mut self, lsn: u64) {
        self.wal_applied = self.wal_applied.max(lsn);
    }

    /// The applied-LSN high-water mark.
    pub fn wal_applied(&self) -> u64 {
        self.wal_applied
    }

    /// Shipped-minus-applied lag: records a replica has been handed
    /// but has not yet confessed to replaying.
    pub fn wal_applied_lag(&self) -> u64 {
        self.wal_shipped.get().saturating_sub(self.wal_applied)
    }

    /// Record the upstream primary's next-LSN as seen by a chained
    /// standby (its pull target).
    pub fn note_relay_upstream(&mut self, lsn: u64) {
        self.relay_upstream = self.relay_upstream.max(lsn);
    }

    /// Record the LSN a chained standby has applied and can relay.
    pub fn note_relay_applied(&mut self, lsn: u64) {
        self.relay_applied = self.relay_applied.max(lsn);
    }

    /// Per-hop relay lag: records the upstream has logged that this
    /// chained standby has not yet applied (0 on a primary).
    pub fn relay_lag(&self) -> u64 {
        self.relay_upstream.saturating_sub(self.relay_applied)
    }

    /// The volatile snapshot section (fixed key order, but the values
    /// are schedule-dependent): queue/shed observables, WAL lag, and
    /// the wall-clock histograms from `reqs`.
    pub fn json(&self, reqs: &ShardMetrics) -> String {
        let mut root = JsonObject::new();
        root.field_raw("queue_depth", &histogram_json(&self.queue_depth));
        root.field_u64("busy_sheds", self.busy_sheds.get());
        root.field_u64("conn_sheds", self.conn_sheds.get());
        let mut wal = JsonObject::new();
        wal.field_u64("appended", self.wal_appended.get());
        wal.field_u64("shipped", self.wal_shipped.get());
        wal.field_u64(
            "lag",
            self.wal_appended
                .get()
                .saturating_sub(self.wal_shipped.get()),
        );
        wal.field_u64("pull_batches", self.wal_pull_batches.get());
        wal.field_u64("applied", self.wal_applied);
        wal.field_u64("applied_lag", self.wal_applied_lag());
        wal.field_u64("relay_upstream", self.relay_upstream);
        wal.field_u64("relay_applied", self.relay_applied);
        wal.field_u64("relay_lag", self.relay_lag());
        root.field_raw("wal", &wal.finish());
        root.field_raw("wall_us", &reqs.wall_json());
        root.finish()
    }
}

/// Prometheus-style text exposition of a merged snapshot (the
/// `--metrics-out` dump written at shutdown).
pub fn prometheus_text(reqs: &ShardMetrics, vol: &VolatileMetrics) -> String {
    let mut out = String::new();
    out.push_str("# TYPE small_requests_total counter\n");
    for kind in ReqKind::ALL {
        out.push_str(&format!(
            "small_requests_total{{kind=\"{}\"}} {}\n",
            kind.name(),
            reqs.kind(kind).count.get()
        ));
    }
    for (metric, pick) in [
        ("small_request_cycles", true),
        ("small_request_wall_us", false),
    ] {
        out.push_str(&format!("# TYPE {metric} summary\n"));
        for kind in ReqKind::ALL {
            let t = reqs.kind(kind);
            let h = if pick { &t.cycles } else { &t.wall_us };
            for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "{metric}{{kind=\"{}\",quantile=\"{label}\"}} {}\n",
                    kind.name(),
                    h.quantile(q)
                ));
            }
            out.push_str(&format!(
                "{metric}_sum{{kind=\"{}\"}} {}\n",
                kind.name(),
                h.sum()
            ));
            out.push_str(&format!(
                "{metric}_count{{kind=\"{}\"}} {}\n",
                kind.name(),
                h.count()
            ));
        }
    }
    out.push_str("# TYPE small_queue_depth summary\n");
    for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
        out.push_str(&format!(
            "small_queue_depth{{quantile=\"{label}\"}} {}\n",
            vol.queue_depth.quantile(q)
        ));
    }
    out.push_str(&format!(
        "small_queue_depth_count {}\n",
        vol.queue_depth.count()
    ));
    out.push_str("# TYPE small_busy_sheds_total counter\n");
    out.push_str(&format!(
        "small_busy_sheds_total {}\n",
        vol.busy_sheds.get()
    ));
    out.push_str("# TYPE small_conn_sheds_total counter\n");
    out.push_str(&format!(
        "small_conn_sheds_total {}\n",
        vol.conn_sheds.get()
    ));
    out.push_str("# TYPE small_wal_appended_total counter\n");
    out.push_str(&format!(
        "small_wal_appended_total {}\n",
        vol.wal_appended.get()
    ));
    out.push_str("# TYPE small_wal_shipped_total counter\n");
    out.push_str(&format!(
        "small_wal_shipped_total {}\n",
        vol.wal_shipped.get()
    ));
    out.push_str("# TYPE small_wal_lag gauge\n");
    out.push_str(&format!(
        "small_wal_lag {}\n",
        vol.wal_appended.get().saturating_sub(vol.wal_shipped.get())
    ));
    out.push_str("# TYPE small_wal_applied gauge\n");
    out.push_str(&format!("small_wal_applied {}\n", vol.wal_applied()));
    out.push_str("# TYPE small_wal_applied_lag gauge\n");
    out.push_str(&format!(
        "small_wal_applied_lag {}\n",
        vol.wal_applied_lag()
    ));
    out.push_str("# TYPE small_relay_upstream gauge\n");
    out.push_str(&format!("small_relay_upstream {}\n", vol.relay_upstream));
    out.push_str("# TYPE small_relay_applied gauge\n");
    out.push_str(&format!("small_relay_applied {}\n", vol.relay_applied));
    out.push_str("# TYPE small_relay_lag gauge\n");
    out.push_str(&format!("small_relay_lag {}\n", vol.relay_lag()));
    out
}

// ---------------------------------------------------------------------
// TraceLog — wall-clock spans over the shard event loop and session
// lifecycle, exported in Chrome Trace Format.
// ---------------------------------------------------------------------

/// One recorded wall-clock interval on a shard's timeline.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Trace thread (shard index + 1; 0 is the acceptor).
    pub tid: u32,
    /// Span label (`decode`, `run:eval`, `suspend`, `wal_ship`, …).
    pub name: &'static str,
    /// Microseconds since the log's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// A shared wall-clock span log: shard loops and session stores record
/// accept → decode → run → flush, suspend/resume/checkpoint, and WAL
/// shipping spans into it; at drain it exports Chrome Trace JSON (open
/// it in `chrome://tracing` or Perfetto) and folded stacks. Purely an
/// artifact surface — wall timestamps are machine-dependent, so traces
/// are never byte-compared.
#[derive(Debug)]
pub struct TraceLog {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::new()
    }
}

impl TraceLog {
    /// An empty log; its epoch is now.
    pub fn new() -> TraceLog {
        TraceLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds since the epoch (span start stamps).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Record a span that started at `start_us` and ends now.
    pub fn record(&self, tid: u32, name: &'static str, start_us: u64) {
        let dur_us = self.now_us().saturating_sub(start_us);
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(SpanRec {
                tid,
                name,
                start_us,
                dur_us,
            });
    }

    /// Open a span closed by the guard's drop.
    pub fn span(&self, tid: u32, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            log: self,
            tid,
            name,
            start_us: self.now_us(),
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Chrome Trace Format JSON: one named thread per shard (tid 0 is
    /// the acceptor), complete events in microseconds.
    pub fn chrome_trace_json(&self, nshards: usize) -> String {
        let mut spans: Vec<SpanRec> = self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone();
        spans.sort_by_key(|s| (s.tid, s.start_us));
        let mut b = TraceBuilder::new("small serve");
        b.thread(0, "acceptor");
        for shard in 0..nshards {
            b.thread(shard as u32 + 1, &format!("shard-{shard}"));
        }
        for s in &spans {
            b.complete(s.name, "serve", s.tid, s.start_us, s.dur_us);
        }
        b.finish()
    }

    /// Folded-stack text (`serve;<thread>;<name> <µs>`) for flamegraph
    /// tools, aggregated by thread and label.
    pub fn folded_stacks(&self) -> String {
        let spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        let mut agg: Vec<((u32, &'static str), u64)> = Vec::new();
        for s in spans.iter() {
            match agg
                .iter_mut()
                .find(|((tid, name), _)| *tid == s.tid && *name == s.name)
            {
                Some((_, total)) => *total += s.dur_us,
                None => agg.push(((s.tid, s.name), s.dur_us)),
            }
        }
        agg.sort_by_key(|((tid, name), _)| (*tid, *name));
        let mut out = String::new();
        for ((tid, name), total) in agg {
            let thread = if tid == 0 {
                "acceptor".to_string()
            } else {
                format!("shard-{}", tid - 1)
            };
            out.push_str(&format!("serve;{thread};{name} {total}\n"));
        }
        out
    }
}

/// Drop guard closing a [`TraceLog::span`].
pub struct SpanGuard<'a> {
    log: &'a TraceLog,
    tid: u32,
    name: &'static str,
    start_us: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.log.record(self.tid, self.name, self.start_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_metrics_merge_is_order_independent() {
        let mut a = ShardMetrics::default();
        let mut b = ShardMetrics::default();
        a.record(ReqKind::Eval, 120, None);
        a.record(ReqKind::Open, 0, None);
        b.record(ReqKind::Eval, 4000, Some(17));
        b.record(ReqKind::Close, 30, None);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.deterministic_json(), ba.deterministic_json());
        assert_eq!(ab.requests(), 4);
    }

    #[test]
    fn deterministic_json_has_fixed_shape_and_no_wall_data() {
        let mut m = ShardMetrics::default();
        m.record(ReqKind::Eval, 512, Some(999));
        let json = m.deterministic_json();
        assert!(json.starts_with("{\"schema\":\"small-metrics-snapshot/1\",\"requests\":1,"));
        for kind in ReqKind::ALL {
            assert!(json.contains(&format!("\"{}\":{{\"count\":", kind.name())));
        }
        assert!(!json.contains("999"), "wall samples must not leak: {json}");
        assert!(!json.contains("wall"), "no wall keys in the snapshot");
    }

    #[test]
    fn prometheus_dump_covers_every_surface() {
        let mut m = ShardMetrics::default();
        m.record(ReqKind::Eval, 512, Some(40));
        let mut v = VolatileMetrics::default();
        v.queue_depth.record(3);
        v.busy_sheds.inc();
        v.wal_appended.add(10);
        v.wal_shipped.add(7);
        v.note_wal_applied(5);
        let text = prometheus_text(&m, &v);
        assert!(text.contains("small_requests_total{kind=\"eval\"} 1"));
        assert!(text.contains("small_request_cycles{kind=\"eval\",quantile=\"0.5\"} 512"));
        assert!(text.contains("small_request_wall_us_count{kind=\"eval\"} 1"));
        assert!(text.contains("small_busy_sheds_total 1"));
        assert!(text.contains("small_wal_lag 3"));
        assert!(text.contains("small_wal_applied 5"));
        assert!(text.contains("small_wal_applied_lag 2"));
    }

    #[test]
    fn applied_lag_is_a_max_merged_high_water_mark() {
        let mut a = VolatileMetrics::default();
        a.wal_shipped.add(9);
        a.note_wal_applied(4);
        a.note_wal_applied(2); // stale confession never regresses it
        assert_eq!(a.wal_applied(), 4);
        assert_eq!(a.wal_applied_lag(), 5);
        let mut b = VolatileMetrics::default();
        b.note_wal_applied(7);
        a.merge(&b);
        assert_eq!(a.wal_applied(), 7, "merge takes the max, not the sum");
        assert_eq!(a.wal_applied_lag(), 2);
        let json = a.json(&ShardMetrics::default());
        assert!(json.contains("\"applied\":7"), "{json}");
        assert!(json.contains("\"applied_lag\":2"), "{json}");
    }

    #[test]
    fn relay_lag_tracks_the_upstream_hop() {
        let mut v = VolatileMetrics::default();
        v.note_relay_upstream(12);
        v.note_relay_applied(9);
        assert_eq!(v.relay_lag(), 3);
        // High-water marks: a stale observation never regresses them.
        v.note_relay_upstream(10);
        assert_eq!(v.relay_lag(), 3);
        let mut other = VolatileMetrics::default();
        other.note_relay_applied(11);
        v.merge(&other);
        assert_eq!(v.relay_lag(), 1, "merge takes the max per side");
        let json = v.json(&ShardMetrics::default());
        assert!(json.contains("\"relay_upstream\":12"), "{json}");
        assert!(json.contains("\"relay_applied\":11"), "{json}");
        assert!(json.contains("\"relay_lag\":1"), "{json}");
        let text = prometheus_text(&ShardMetrics::default(), &v);
        assert!(text.contains("small_relay_upstream 12"));
        assert!(text.contains("small_relay_applied 11"));
        assert!(text.contains("small_relay_lag 1"));
    }

    #[test]
    fn trace_log_exports_chrome_trace_and_folded_stacks() {
        let log = TraceLog::new();
        {
            let _g = log.span(1, "run:eval");
        }
        log.record(2, "decode", 0);
        assert_eq!(log.len(), 2);
        let json = log.chrome_trace_json(2);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"shard-1\""));
        assert!(json.contains("\"name\":\"run:eval\""));
        assert!(json.contains("\"ph\":\"X\""));
        let folded = log.folded_stacks();
        assert!(folded.contains("serve;shard-0;run:eval "));
        assert!(folded.contains("serve;shard-1;decode "));
    }
}
