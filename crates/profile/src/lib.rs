//! Cycle-stamped span tracing and profiling for the EP/LP machine.
//!
//! The §4.3.2.5 timing diagrams (Figures 4.10–4.13) are *temporal*
//! claims: the EP idles here, the LP tail overlaps there, a chained
//! request stalls for so-many cycles. The aggregate counters of
//! `small-metrics` cannot answer those questions; this crate turns the
//! diagrams into queryable data.
//!
//! [`SpanSink`] is an [`EventSink`] that advances a [`CycleClock`] —
//! the one §4.3.2.5 recurrence, which [`TimingModel::run_stream`] folds
//! over a whole stream — one operation at a time as the List Processor
//! announces request boundaries via
//! [`EventSink::op_begin`]/[`EventSink::op_end`]. From the window the
//! clock returns for each operation, it records open/close span
//! intervals for EP requests, LP busy windows, LP tail (post-response)
//! work, heap splits/merges/read-ins, and overflow/cycle-collection
//! episodes. The profile's totals (elapsed cycles, EP idle,
//! chaining-stall cycles, overlapped LP tail work) are therefore the
//! batch accounting of the same operation stream.
//!
//! Three exporters are provided on the finished [`Profile`]:
//!
//! 1. [`Profile::chrome_trace_json`] — Chrome Trace Format JSON with EP,
//!    LP, heap, and GC as separate tracks; loadable in Perfetto or
//!    `chrome://tracing`.
//! 2. [`Profile::folded_stacks`] — folded-stack text
//!    (`workload;primitive;phase cycles`) for `flamegraph.pl`-style
//!    tools.
//! 3. [`Profile::attribution_table`] / [`Profile::attribution_json`] —
//!    a deterministic per-primitive table of cycles and event counts.
//!
//! Like `NoopSink`, a disabled sink (`SpanSink<false>`) must cost
//! nothing: every method body is behind `if !ACTIVE`, a const the
//! compiler erases.

use small_core::timing::{CycleClock, StreamTiming, TimingModel, DEFAULT_EP_GAP};
use small_metrics::{Event, EventSink, JsonObject, OpClass, PrimKind};

/// Trace tracks: one per hardware agent of the §4.3 machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// The Evaluation Processor: request issue, stalls, blocked waits.
    Ep = 1,
    /// The List Processor: request service and tail work.
    Lp = 2,
    /// The heap controller: splits, merges, list input.
    Heap = 3,
    /// Storage-reclamation episodes: pseudo/true overflow, cycle breaks.
    Gc = 4,
}

impl Track {
    /// All tracks, in tid order.
    pub const ALL: [Track; 4] = [Track::Ep, Track::Lp, Track::Heap, Track::Gc];

    /// Thread id in the exported trace.
    pub fn tid(self) -> u32 {
        self as u32
    }

    /// Human-readable track name (trace thread-name metadata).
    pub fn name(self) -> &'static str {
        match self {
            Track::Ep => "EP (evaluation processor)",
            Track::Lp => "LP (list processor)",
            Track::Heap => "heap controller",
            Track::Gc => "reclamation",
        }
    }
}

/// One closed interval on a track, in virtual cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The track the interval lives on.
    pub track: Track,
    /// Span label (primitive name or phase name).
    pub name: &'static str,
    /// Start cycle.
    pub start: u64,
    /// Duration in cycles (0-length spans are not recorded).
    pub dur: u64,
    /// The primitive this span is attributed to, if any.
    pub prim: Option<PrimKind>,
}

impl Span {
    /// End cycle (exclusive).
    pub fn end(&self) -> u64 {
        self.start + self.dur
    }
}

/// Cycle and event attribution for one primitive.
///
/// The interval identities: `blocked` is the Figure 4.10–4.13 response
/// latency (the LP's service window seen from the EP side), so
/// `blocked + lp_tail` is total LP busy time and `stall + blocked` is
/// the primitive's contribution to EP idle time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PrimAttribution {
    /// Operations executed.
    pub ops: u64,
    /// EP cycles interrogating the environment before the request.
    pub ep_pre: u64,
    /// Chaining-stall cycles: the EP waited for the previous
    /// operation's LP tail before the LP would accept this request.
    pub stall: u64,
    /// Cycles the EP spent blocked on the response (= LP service).
    pub blocked: u64,
    /// LP tail cycles overlapped with continued EP execution.
    pub lp_tail: u64,
    /// Metrics events recorded while this primitive was in flight.
    pub events: u64,
    /// The subset of `events` that touched the heap controller.
    pub heap_events: u64,
}

impl PrimAttribution {
    /// Total LP busy cycles for this primitive.
    pub fn lp_busy(&self) -> u64 {
        self.blocked + self.lp_tail
    }

    fn add_event(&mut self, event: &Event) {
        self.events += 1;
        if matches!(
            event,
            Event::HeapSplit | Event::HeapMerge | Event::HeapReadIn | Event::HeapFree
        ) {
            self.heap_events += 1;
        }
    }
}

/// A cycle-stamped tracing sink.
///
/// `ACTIVE = false` compiles to a no-op (all state updates are behind a
/// const condition); use [`SpanSink::disabled`] where a statically-dead
/// profiler is wanted without changing the processor's type structure.
#[derive(Debug, Clone)]
pub struct SpanSink<const ACTIVE: bool = true> {
    clock: CycleClock,
    workload: String,
    keep_spans: bool,
    // Monotone placement cursors for the heap and GC tracks.
    heap_cursor: u64,
    gc_cursor: u64,
    cur: Option<PrimKind>,
    /// Scratch buffer for the open operation's events, reused across
    /// operations (a per-op `Vec` was measurable on the sweep path).
    buf: Vec<Event>,
    spans: Vec<Span>,
    attr: [PrimAttribution; PrimKind::ALL.len()],
    outside: PrimAttribution,
}

impl SpanSink<true> {
    /// A full-fidelity profiler: spans and attribution, under the
    /// default [`TimingModel`] and [`DEFAULT_EP_GAP`].
    pub fn new(workload: &str) -> Self {
        Self::with_model(workload, TimingModel::default(), DEFAULT_EP_GAP)
    }
}

impl<const ACTIVE: bool> SpanSink<ACTIVE> {
    /// A profiler under an explicit cost model and inter-operation EP
    /// gap (the `run_stream` parameters).
    pub fn with_model(workload: &str, model: TimingModel, ep_gap: u64) -> Self {
        SpanSink {
            clock: CycleClock::new(model, ep_gap),
            workload: workload.to_string(),
            keep_spans: true,
            heap_cursor: 0,
            gc_cursor: 0,
            cur: None,
            buf: Vec::new(),
            spans: Vec::new(),
            attr: [PrimAttribution::default(); PrimKind::ALL.len()],
            outside: PrimAttribution::default(),
        }
    }

    /// Drop per-span storage: the virtual clock and attribution still
    /// run, but no timeline is kept. This is the configuration the
    /// sweep engine uses — O(1) memory per cell.
    pub fn summary_only(mut self) -> Self {
        self.keep_spans = false;
        self
    }

    /// Close the books and return the finished [`Profile`].
    pub fn finish(self) -> Profile {
        Profile {
            workload: self.workload,
            model: self.clock.model,
            ep_gap: self.clock.ep_gap,
            timing: self.clock.timing(),
            spans: self.spans,
            attribution: self.attr,
            outside: self.outside,
        }
    }

    /// Advance the virtual clock over one completed operation, then
    /// attribute its window to `prim` and place its spans.
    fn close_op(&mut self, prim: PrimKind, class: OpClass, events: &[Event]) {
        let w = self.clock.advance(class);
        let (ep_pre, latency, lp_tail) = (
            w.pre_end - w.op_start,
            w.service_end - w.service_start,
            w.tail_end - w.service_end,
        );
        let a = &mut self.attr[prim.index()];
        a.ops += 1;
        a.ep_pre += ep_pre;
        a.stall += w.stall;
        a.blocked += latency;
        a.lp_tail += lp_tail;
        for e in events {
            a.add_event(e);
        }

        if self.keep_spans {
            // EP track: the op owns [issue, response); phases nest inside.
            self.spans.push(Span {
                track: Track::Ep,
                name: prim.name(),
                start: w.op_start,
                dur: w.service_end - w.op_start,
                prim: Some(prim),
            });
            for (name, start, dur) in [
                ("ep_pre", w.op_start, ep_pre),
                ("stall", w.pre_end, w.stall),
                ("blocked", w.service_start, latency),
            ] {
                if dur > 0 {
                    self.spans.push(Span {
                        track: Track::Ep,
                        name,
                        start,
                        dur,
                        prim: Some(prim),
                    });
                }
            }
            // LP track: service plus overlapped tail.
            self.spans.push(Span {
                track: Track::Lp,
                name: prim.name(),
                start: w.service_start,
                dur: w.tail_end - w.service_start,
                prim: Some(prim),
            });
            for (name, start, dur) in [
                ("service", w.service_start, latency),
                ("tail", w.service_end, lp_tail),
            ] {
                if dur > 0 {
                    self.spans.push(Span {
                        track: Track::Lp,
                        name,
                        start,
                        dur,
                        prim: Some(prim),
                    });
                }
            }
        }
        self.place_episode_spans(events, w.service_start, Some(prim));
    }

    /// Heap and reclamation episodes get their own tracks. They are
    /// placed at a monotone cursor anchored to the service window that
    /// caused them and priced by the cost model — *illustrative*
    /// placement that deliberately does not feed back into the EP/LP
    /// clock.
    fn place_episode_spans(&mut self, events: &[Event], anchor: u64, prim: Option<PrimKind>) {
        if !self.keep_spans {
            return;
        }
        for e in events {
            let (track, name, dur) = match e {
                Event::HeapSplit => (Track::Heap, "heap_split", self.clock.model.heap_split),
                Event::HeapMerge => (Track::Heap, "heap_merge", self.clock.model.heap_split),
                Event::HeapReadIn => (Track::Heap, "heap_read_in", self.clock.model.heap_io),
                Event::PseudoOverflow { reclaimed } => (
                    Track::Gc,
                    "pseudo_overflow",
                    (*reclaimed).max(1) as u64 * self.clock.model.heap_split,
                ),
                Event::CycleCollection { reclaimed } => (
                    Track::Gc,
                    "cycle_collection",
                    (*reclaimed).max(1) as u64 * self.clock.model.lpt_access,
                ),
                Event::TrueOverflow => (Track::Gc, "true_overflow", self.clock.model.heap_io),
                _ => continue,
            };
            let cursor = match track {
                Track::Heap => &mut self.heap_cursor,
                _ => &mut self.gc_cursor,
            };
            let start = (*cursor).max(anchor);
            *cursor = start + dur;
            self.spans.push(Span {
                track,
                name,
                start,
                dur,
                prim,
            });
        }
    }
}

impl SpanSink<false> {
    /// A statically-dead profiler: every sink method compiles away.
    pub fn disabled() -> Self {
        Self::with_model("", TimingModel::default(), DEFAULT_EP_GAP)
    }
}

impl<const ACTIVE: bool> EventSink for SpanSink<ACTIVE> {
    fn record(&mut self, event: Event) {
        if !ACTIVE {
            return;
        }
        if self.cur.is_some() {
            self.buf.push(event);
        } else {
            self.outside.add_event(&event);
            self.place_episode_spans(&[event], self.clock.now(), None);
        }
    }

    fn op_begin(&mut self, prim: PrimKind) {
        if !ACTIVE {
            return;
        }
        self.cur = Some(prim);
        self.buf.clear();
    }

    fn op_end(&mut self, class: OpClass) {
        if !ACTIVE {
            return;
        }
        if let Some(prim) = self.cur.take() {
            // The scratch buffer is moved out for the duration of the
            // close (borrow discipline) and returned to keep its
            // allocation warm for the next operation.
            let events = std::mem::take(&mut self.buf);
            self.close_op(prim, class, &events);
            self.buf = events;
        }
    }
}

/// The finished, immutable result of a profiled run.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Workload label (folded-stack root frame).
    pub workload: String,
    /// The cost model the virtual clock ran under.
    pub model: TimingModel,
    /// EP cycles between operations fed to the clock.
    pub ep_gap: u64,
    /// Aggregate accounting: the [`CycleClock`] totals of the run.
    pub timing: StreamTiming,
    /// The recorded timeline (empty in summary-only mode).
    pub spans: Vec<Span>,
    /// Per-primitive attribution, indexed by [`PrimKind::index`].
    pub attribution: [PrimAttribution; PrimKind::ALL.len()],
    /// Events recorded outside any operation window (drains, shutdown).
    pub outside: PrimAttribution,
}

impl Profile {
    /// Total §4.3.2.5 chaining-stall cycles.
    pub fn stall_cycles(&self) -> u64 {
        self.attribution.iter().map(|a| a.stall).sum()
    }

    /// LP tail cycles overlapped with EP execution — the concurrency
    /// win the thesis claims.
    pub fn overlap_cycles(&self) -> u64 {
        self.attribution.iter().map(|a| a.lp_tail).sum()
    }

    /// Chrome Trace Format JSON (the array-of-events form inside an
    /// object, loadable by Perfetto and `chrome://tracing`). Each track
    /// is a named thread; spans are `B`/`E` duration events stamped in
    /// virtual cycles (1 cycle = 1 µs of trace time).
    pub fn chrome_trace_json(&self) -> String {
        fn duration_event(ph: char, name: &str, cat: &str, ts: u64, tid: u32) -> String {
            format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\
                 \"ts\":{ts},\"pid\":1,\"tid\":{tid}}}"
            )
        }
        let mut parts: Vec<String> = Vec::new();
        parts.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"small EP/LP machine\"}}"
                .to_string(),
        );
        for track in Track::ALL {
            parts.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                track.tid(),
                track.name()
            ));
        }
        for track in Track::ALL {
            // Spans were recorded parent-before-child with monotone
            // starts, so a stack suffices to close them in nesting order.
            let (cat, tid) = (track.name(), track.tid());
            let mut open: Vec<&Span> = Vec::new();
            for s in self.spans.iter().filter(|s| s.track == track) {
                while let Some(top) = open.last() {
                    if top.end() <= s.start {
                        parts.push(duration_event('E', top.name, cat, top.end(), tid));
                        open.pop();
                    } else {
                        break;
                    }
                }
                parts.push(duration_event('B', s.name, cat, s.start, tid));
                open.push(s);
            }
            while let Some(top) = open.pop() {
                parts.push(duration_event('E', top.name, cat, top.end(), tid));
            }
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
            parts.join(",")
        )
    }

    /// Folded-stack text for flamegraph tools: one line per
    /// `workload;primitive;phase` frame with its cycle count. Built
    /// from the attribution (works in summary-only mode too).
    pub fn folded_stacks(&self) -> String {
        let mut out = String::new();
        for prim in PrimKind::ALL {
            let a = &self.attribution[prim.index()];
            if a.ops == 0 {
                continue;
            }
            for (phase, cycles) in [
                ("ep_pre", a.ep_pre),
                ("stall", a.stall),
                ("service", a.blocked),
                ("tail", a.lp_tail),
            ] {
                if cycles > 0 {
                    out.push_str(&format!(
                        "{};{};{} {}\n",
                        self.workload,
                        prim.name(),
                        phase,
                        cycles
                    ));
                }
            }
        }
        out
    }

    /// The per-primitive attribution as an aligned text table.
    pub fn attribution_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<9} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7}\n",
            "prim", "ops", "ep_pre", "stall", "blocked", "lp_tail", "lp_busy", "events", "heap"
        ));
        for prim in PrimKind::ALL {
            let a = &self.attribution[prim.index()];
            if a.ops == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<9} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7}\n",
                prim.name(),
                a.ops,
                a.ep_pre,
                a.stall,
                a.blocked,
                a.lp_tail,
                a.lp_busy(),
                a.events,
                a.heap_events
            ));
        }
        if self.outside.events > 0 {
            out.push_str(&format!(
                "{:<9} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7}\n",
                "(outside)",
                "-",
                "-",
                "-",
                "-",
                "-",
                "-",
                self.outside.events,
                self.outside.heap_events
            ));
        }
        out
    }

    /// The attribution and aggregate timing as deterministic JSON
    /// (fixed key order, stable float formatting).
    pub fn attribution_json(&self) -> String {
        let mut root = JsonObject::new();
        root.field_str("workload", &self.workload)
            .field_u64("ep_gap", self.ep_gap)
            .field_u64("total_cycles", self.timing.total)
            .field_u64("ep_idle_cycles", self.timing.ep_idle)
            .field_u64("lp_idle_cycles", self.timing.lp_idle)
            .field_u64("stall_cycles", self.stall_cycles())
            .field_u64("overlap_cycles", self.overlap_cycles())
            .field_f64("ep_utilization", self.timing.ep_utilization())
            .field_u64("ops", self.timing.ops);
        let mut prims = String::from("{");
        let mut first = true;
        for prim in PrimKind::ALL {
            let a = &self.attribution[prim.index()];
            if a.ops == 0 {
                continue;
            }
            if !first {
                prims.push(',');
            }
            first = false;
            let mut o = JsonObject::new();
            o.field_u64("ops", a.ops)
                .field_u64("ep_pre", a.ep_pre)
                .field_u64("stall", a.stall)
                .field_u64("blocked", a.blocked)
                .field_u64("lp_tail", a.lp_tail)
                .field_u64("lp_busy", a.lp_busy())
                .field_u64("events", a.events)
                .field_u64("heap_events", a.heap_events);
            prims.push_str(&format!("\"{}\":{}", prim.name(), o.finish()));
        }
        prims.push('}');
        root.field_raw("primitives", &prims);
        root.field_u64("outside_events", self.outside.events);
        root.finish()
    }
}

// ---------------------------------------------------------------------
// chrome — the Chrome Trace Format emitter, reusable by layers that
// trace wall-clock spans (the serve layer's shard event loops) rather
// than virtual cycles.
// ---------------------------------------------------------------------

/// Incremental Chrome Trace Format builder: named threads plus
/// complete (`"X"`) duration events, loadable in `chrome://tracing`
/// and Perfetto. [`Profile::chrome_trace_json`] emits the virtual-cycle
/// timeline in the same envelope; this builder serves wall-clock span
/// logs whose intervals are known at record time.
pub mod chrome {
    /// A trace under construction. Events appear in emission order;
    /// timestamps and durations are microseconds.
    #[derive(Debug, Default)]
    pub struct TraceBuilder {
        parts: Vec<String>,
    }

    impl TraceBuilder {
        /// A trace whose single process carries `process_name`.
        pub fn new(process_name: &str) -> TraceBuilder {
            let mut b = TraceBuilder { parts: Vec::new() };
            b.parts.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
                 \"args\":{{\"name\":\"{process_name}\"}}}}"
            ));
            b
        }

        /// Name thread `tid` in the trace viewer.
        pub fn thread(&mut self, tid: u32, name: &str) {
            self.parts.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }

        /// One complete duration event on thread `tid`.
        pub fn complete(&mut self, name: &str, cat: &str, tid: u32, ts_us: u64, dur_us: u64) {
            self.parts.push(format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\
                 \"ts\":{ts_us},\"dur\":{dur_us},\"pid\":1,\"tid\":{tid}}}"
            ));
        }

        /// Close the trace and return the JSON text.
        pub fn finish(self) -> String {
            format!(
                "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
                self.parts.join(",")
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use small_core::{ListProcessor, LpConfig};
    use small_heap::controller::TwoPointerController;
    use small_sexpr::{parse, Interner};

    /// Run a small scripted workload through an LP instrumented with the
    /// given sink and return the sink.
    fn scripted<S: EventSink>(sink: S) -> S {
        let mut i = Interner::new();
        let mut lp = ListProcessor::with_sink(
            TwoPointerController::new(65536, 64),
            LpConfig {
                table_size: 256,
                ..LpConfig::default()
            },
            sink,
        );
        let e = parse("((a b) (c d) e)", &mut i).unwrap();
        let v = lp.readlist(None, &e).unwrap();
        let id = v.obj().unwrap();
        let car = lp.car(id).unwrap(); // miss (split)
        let cdr = lp.cdr(id).unwrap(); // hit
        let cid = lp.cons(car, cdr).unwrap();
        lp.rplaca(id, small_core::LpValue::Obj(cid)).unwrap();
        let _ = lp.car(id).unwrap(); // hit
        let _ = lp.cdr(cid).unwrap(); // hit
        lp.rplacd(cid, small_core::LpValue::Atom(small_heap::Word::NIL))
            .unwrap();
        lp.into_sink()
    }

    #[test]
    fn summary_only_keeps_accounting_drops_spans() {
        let full = scripted(SpanSink::new("w")).finish();
        assert!(full.timing.ops >= 8);
        // The attribution decomposes the clock's totals: EP idle is
        // chaining stalls plus blocked waits.
        let blocked: u64 = full.attribution.iter().map(|a| a.blocked).sum();
        assert_eq!(full.timing.ep_idle, full.stall_cycles() + blocked);
        let summary = scripted(SpanSink::new("w").summary_only()).finish();
        assert_eq!(summary.timing, full.timing);
        assert_eq!(summary.attribution, full.attribution);
        assert!(summary.spans.is_empty());
        assert!(!full.spans.is_empty());
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let profile = scripted(SpanSink::<false>::disabled()).finish();
        assert_eq!(profile.timing.ops, 0);
        assert_eq!(profile.timing.total, 0);
        assert!(profile.spans.is_empty());
    }

    #[test]
    fn noop_and_disabled_spansink_agree() {
        // Behavioral check that the disabled profiler changes nothing
        // about the run (the perf claim is pinned by the bench).
        let _ = scripted(small_metrics::NoopSink);
        let profile = scripted(SpanSink::<false>::disabled()).finish();
        assert_eq!(profile.timing.ops, 0);
    }

    /// Satellite: Chrome-trace invariants — every `B` has a matching
    /// `E` (same name, LIFO order) and timestamps are monotone per
    /// track.
    #[test]
    fn chrome_trace_b_e_invariants() {
        let profile = scripted(SpanSink::new("scripted")).finish();
        let json = profile.chrome_trace_json();
        // Pull out (ph, name, ts, tid) tuples with a scan over the
        // fixed emission shape.
        let mut events: Vec<(char, String, u64, u32)> = Vec::new();
        for chunk in json.split("{\"name\":\"").skip(1) {
            let name = chunk.split('"').next().unwrap().to_string();
            // Metadata events nest another {"name": inside their args;
            // those inner chunks carry no phase marker.
            let Some(ph) = chunk
                .split("\"ph\":\"")
                .nth(1)
                .and_then(|s| s.chars().next())
            else {
                continue;
            };
            if ph == 'M' {
                continue;
            }
            let ts: u64 = chunk
                .split("\"ts\":")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            let tid: u32 = chunk
                .split("\"tid\":")
                .nth(1)
                .unwrap()
                .split('}')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            events.push((ph, name, ts, tid));
        }
        assert!(!events.is_empty());
        for track in Track::ALL {
            let tid = track.tid();
            let mut stack: Vec<&str> = Vec::new();
            let mut last_ts = 0u64;
            let mut seen = 0usize;
            for (ph, name, ts, _) in events.iter().filter(|e| e.3 == tid) {
                assert!(*ts >= last_ts, "track {tid} time went backwards");
                last_ts = *ts;
                seen += 1;
                match ph {
                    'B' => stack.push(name),
                    'E' => {
                        let open = stack.pop().unwrap_or_else(|| {
                            panic!("track {tid}: E \"{name}\" without open span")
                        });
                        assert_eq!(open, name, "track {tid}: mismatched close");
                    }
                    other => panic!("unexpected phase {other}"),
                }
            }
            assert!(stack.is_empty(), "track {tid}: unclosed spans {stack:?}");
            if track == Track::Ep || track == Track::Lp {
                assert!(seen > 0, "track {tid} must carry the op timeline");
            }
        }
    }

    #[test]
    fn folded_stacks_cover_every_executed_prim() {
        let profile = scripted(SpanSink::new("wl")).finish();
        let folded = profile.folded_stacks();
        for prim in ["readlist", "car", "cdr", "cons", "rplaca", "rplacd"] {
            assert!(
                folded.contains(&format!("wl;{prim};")),
                "missing {prim} in:\n{folded}"
            );
        }
        // Total cycles in the folded stacks = everything the machine
        // spent except inter-op EP gaps (by the interval identities).
        let folded_total: u64 = folded
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        let a_total: u64 = profile
            .attribution
            .iter()
            .map(|a| a.ep_pre + a.stall + a.blocked + a.lp_tail)
            .sum();
        assert_eq!(folded_total, a_total);
    }

    #[test]
    fn attribution_json_is_deterministic() {
        let a = scripted(SpanSink::new("w")).finish().attribution_json();
        let b = scripted(SpanSink::new("w")).finish().attribution_json();
        assert_eq!(a, b);
        assert!(a.contains("\"stall_cycles\""));
        assert!(a.contains("\"readlist\""));
    }

    #[test]
    fn spans_nest_inside_their_parents() {
        let profile = scripted(SpanSink::new("w")).finish();
        // Phase spans sit inside the op span recorded just before them.
        let mut cur_op: Option<Span> = None;
        for s in profile.spans.iter().filter(|s| s.track == Track::Ep) {
            if PrimKind::ALL.iter().any(|p| p.name() == s.name) {
                cur_op = Some(*s);
            } else {
                let op = cur_op.expect("phase span before any op span");
                assert!(s.start >= op.start && s.end() <= op.end(), "{s:?} ⊄ {op:?}");
            }
        }
        // LP spans never start before their EP issue completes: tail
        // work is the only LP activity after the response.
        let lp_busy: u64 = profile
            .spans
            .iter()
            .filter(|s| s.track == Track::Lp && (s.name == "service" || s.name == "tail"))
            .map(|s| s.dur)
            .sum();
        assert_eq!(
            lp_busy,
            profile.timing.total - profile.timing.lp_idle,
            "LP span coverage equals busy accounting"
        );
    }

    #[test]
    fn profiles_a_full_vm_run_through_small_backend() {
        // The machine.rs wiring: a compiled Lisp program on the LP
        // backend with a SpanSink attached, recovered via into_sink.
        use small_core::machine::SmallBackend;
        use small_core::LpConfig;
        use small_lisp::compiler::compile_program;
        use small_lisp::vm::Vm;
        use small_sexpr::Interner;

        let src = "
            (def rev (lambda (a acc)
              (cond ((null a) acc)
                    (t (rev (cdr a) (cons (car a) acc))))))
            (rev (quote (1 2 3 4 5 6 7 8)) nil)";
        let mut i = Interner::new();
        let p = compile_program(src, &mut i).unwrap();
        let backend =
            SmallBackend::with_sink(1 << 14, LpConfig::default(), SpanSink::new("vm-rev"));
        let mut vm = Vm::new(p, backend);
        vm.run().unwrap();
        vm.shutdown();
        let profile = vm.backend.into_sink().finish();
        assert!(profile.timing.ops > 0, "VM primitives must be profiled");
        let per_prim: u64 = profile.attribution.iter().map(|a| a.ops).sum();
        assert_eq!(per_prim, profile.timing.ops);
    }
}
