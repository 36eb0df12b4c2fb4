//! Loopback end-to-end benchmark of `small-serve`, with a traced
//! per-layer ledger. See NOTES.md for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. A human-readable table goes to standard error.

mod traced;
mod twin;
mod wire;
mod workload;

use small_serve::{ReqKind, ShardMetrics};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Slot, Workload, CLIENTS};

/// Server set-ups per run: at least [`SETUPS`], then more until
/// [`SETUP_BUDGET`] is spent or [`MAX_SETUPS`] are made. `setup_s` is
/// their median, so a cheap set-up (a millisecond, quantized by the
/// shards' idle sleep) is taken over many tries.
const SETUPS: usize = 7;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const MAX_SETUPS: usize = 101;

/// How far the in-process median plus the wire-residual median may sit
/// from the client p50, as a share of the p50. Medians do not add: a
/// request's wait for the shard's idle sleep shrinks as its own
/// in-process time grows, so the two parts are anti-correlated on
/// workloads whose requests differ widely in cost (`lpt-spill`).
const RECONCILE_TOL: f64 = 0.2;

/// How far the layer self times may sum from the separately measured
/// traced total, as a share of it.
const LAYER_SUM_TOL: f64 = 0.01;

/// The band `evict-churn`'s resume share must fall in: a third, give or
/// take, and never near one half.
const RESUME_BAND: (f64, f64) = (0.15, 0.42);

/// Timed repetitions of a shard's per-batch stats republication.
const PUBLISH_ROUNDS: usize = 5;

/// Wall time spent replaying WAL on a standby in a traced run.
const STANDBY_BUDGET: Duration = Duration::from_millis(400);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let name = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(name).ok_or(format!("unknown workload {name}"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything a run prints.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name, value, unit });
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Samples per block of [`blocked_p99`] and fewest requests in a
/// sub-window of [`sub_windows`]: ten beyond the 99th percentile.
const BLOCK: usize = 1000;

/// Consecutive whole seconds of the window merged into as many equal
/// sub-windows as hold at least [`BLOCK`] requests each (one, the whole
/// window, for slow workloads): requests, seconds and CPU seconds of
/// each. Rates are taken as medians over these, so a few seconds of
/// contention from elsewhere on the host do not move them.
fn sub_windows(per_second: &[(u64, f64)]) -> Vec<(u64, f64, f64)> {
    let total: u64 = per_second.iter().map(|&(n, _)| n).sum();
    let spans = (total as usize / BLOCK).clamp(1, per_second.len().max(1));
    let len = (per_second.len() / spans).max(1);
    per_second
        .chunks(len)
        .take(spans)
        .map(|c| {
            let n = c.iter().map(|&(n, _)| n).sum();
            (n, c.len() as f64, c.iter().map(|&(_, cpu)| cpu).sum())
        })
        .collect()
}

/// The median of the 99th percentiles of consecutive blocks of at least
/// [`BLOCK`] samples, taken in arrival order (the whole window when
/// it holds fewer than two blocks). A stall elsewhere on the host lifts
/// the p99 of the blocks it falls in, not the median over blocks.
fn blocked_p99(in_order: &[f64]) -> f64 {
    let blocks = (in_order.len() / BLOCK).max(1);
    let size = in_order.len() / blocks;
    let p99s = in_order
        .chunks(size.max(1))
        .take(blocks)
        .map(|b| quantile(&sorted(b.to_vec()), 0.99))
        .collect();
    quantile(&sorted(p99s), 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean virtual cycles per eval, read from a deterministic `(metrics)`
/// section: `"eval":{"count":N,"cycles":{"count":N,"sum":S,…`.
fn vcycles_per_eval(deterministic: &str) -> Option<f64> {
    let eval = &deterministic[deterministic.find("\"eval\":")?..];
    let number = |key: &str| -> Option<f64> {
        let at = eval.find(key)? + key.len();
        let digits: String = eval[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().ok()
    };
    Some(number("\"sum\":")? / number("\"count\":")?)
}

fn run(args: &Args) -> std::io::Result<Report> {
    let w = args.workload;
    let plan: Vec<Vec<Slot>> = (0..CLIENTS)
        .map(|c| workload::slots(w, args.seed, c))
        .collect();
    let twin = twin::run(&plan, w.has_probes());
    let mut report = Report {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: twin.problems.clone(),
    };

    // Set up several times; time each, keep the last server.
    let mut setup_s = Vec::with_capacity(MAX_SETUPS);
    let mut kept = None;
    let started = Instant::now();
    while setup_s.len() < SETUPS || (started.elapsed() < SETUP_BUDGET && setup_s.len() < MAX_SETUPS)
    {
        if let Some(old) = kept.take() {
            let wire::Server { handle, conns } = old;
            drop(conns);
            handle.shutdown();
        }
        let t0 = Instant::now();
        let server = wire::setup(w, &plan, &twin)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some(server);
    }
    let wire::Server { handle, conns } = kept.expect("at least one set-up");
    for conn in &conns {
        report.attempted += conn.attempted;
        report.failed += conn.failed;
        report.problems.extend(conn.problems.iter().cloned());
    }

    let window = wire::timed(w, args.seed, conns, &plan, &twin, args.seconds);
    let per_second = window.per_second();
    let latencies = window.latencies_us();
    let p99 = blocked_p99(&latencies);
    let latency = sorted(latencies);
    let p50 = quantile(&latency, 0.5);
    let mut served = ShardMetrics::default();
    let mut samples = Vec::with_capacity(CLIENTS);
    for conn in window.conns {
        served.merge(&conn.served);
        report.attempted += conn.attempted;
        report.failed += conn.failed;
        report.problems.extend(conn.problems);
        samples.push(conn.samples);
    }
    let ok = report.attempted.saturating_sub(report.failed) as f64;
    let spans = sub_windows(&per_second);
    // Process CPU per request. On a host whose speed drifts it spreads
    // more than any end-to-end bound holds, so only the traced run
    // reports it.
    let cpu_us_per_req = sorted(
        spans
            .iter()
            .map(|&(n, _, cpu)| ratio(cpu * 1e6, n as f64))
            .collect(),
    );

    let finish = wire::finish(handle, args.trace && w == Workload::WireSmall)?;
    report.check(finish.deterministic == served.deterministic_json(), || {
        "final (metrics) deterministic section differs from the twin's".to_string()
    });
    let (evictions, resumes) = finish.drain.eviction_counters();
    let evals = finish.drain.telemetry().kind(ReqKind::Eval).count.get() as f64;
    let resume_frac = ratio(resumes as f64, evals);
    let busy_sheds = finish.drain.volatile_total().busy_sheds.get();
    let compressed: u64 = twin.lives.iter().map(|l| l.compressed).sum();

    // Self-checks: each workload loads the layer it names.
    report.check(busy_sheds == 0, || format!("{busy_sheds} busy sheds"));
    match w {
        Workload::EvictChurn => report.check(
            (RESUME_BAND.0..=RESUME_BAND.1).contains(&resume_frac),
            || format!("resume share {resume_frac:.3} outside {RESUME_BAND:?}"),
        ),
        _ => report.check(evictions == 0, || format!("{evictions} evictions")),
    }
    match w {
        Workload::LptSpill => report.check(compressed > 0, || "lpt-spill never compressed".into()),
        Workload::VmFit => report.check(compressed == 0, || {
            format!("vm-fit compressed {compressed}")
        }),
        _ => {}
    }

    if !args.trace {
        let rate: Vec<f64> = spans.iter().map(|&(n, s, _)| n as f64 / s).collect();
        eprintln!("  requests per second by sub-window: {rate:.0?}");
        let rate = sorted(rate);
        report.put("req_per_s", quantile(&rate, 0.5), "1/s");
        report.put("latency_p50_us", p50, "us");
        report.put("latency_p99_us", p99, "us");
        eprintln!("  latency percentiles over {} samples", latency.len());
        report.put("ok_ratio", ratio(ok, report.attempted as f64), "ratio");
        report.put("peak_rss_mb", window.peak_rss_mb, "MiB");
        let vcycles = vcycles_per_eval(&finish.deterministic);
        report.check(vcycles.is_some(), || "no eval cycles in (metrics)".into());
        report.put("vcycles_per_eval", vcycles.unwrap_or(0.0), "cycles");
        report.put("setup_s", quantile(&sorted(setup_s), 0.5), "s");
        return Ok(report);
    }

    // The traced run.
    let rep = traced::replay(&plan, &twin);
    report.failed += rep.mismatches.len() as u64;
    report
        .problems
        .extend(rep.mismatches.iter().take(8).cloned());
    let l = &rep.layers;
    let steps = rep.steps as f64;
    let us = |ns: u64| ns as f64 / steps / 1e3;
    let layer_gap = ratio(
        (l.layer_sum() as f64 - l.total as f64).abs(),
        l.total as f64,
    );
    report.check(layer_gap <= LAYER_SUM_TOL, || {
        format!("layer self times miss the traced total by {layer_gap:.4}")
    });

    let (mut inproc, mut residual, mut cross) = (Vec::new(), Vec::new(), 0u64);
    for (c, per_client) in samples.iter().enumerate() {
        for s in per_client {
            let slot = s.slot as usize;
            cross += (plan[c][slot].shard != c) as u64;
            if s.step != wire::RETRY_STEP {
                let t = rep.step_ns[c][slot][s.step as usize] as f64 / 1e3;
                inproc.push(t);
                residual.push(s.ns as f64 / 1e3 - t);
            }
        }
    }
    let inproc_p50 = quantile(&sorted(inproc), 0.5);
    let residual_p50 = quantile(&sorted(residual), 0.5);
    let reconcile = ratio((inproc_p50 + residual_p50 - p50).abs(), p50);
    report.check(reconcile <= RECONCILE_TOL, || {
        format!("in-process {inproc_p50:.1}us + residual {residual_p50:.1}us vs p50 {p50:.1}us")
    });

    let persist = traced::persist_probe(&plan).map_err(std::io::Error::other)?;
    let pipeline_wal = traced::wal_batches(&rep.wal);
    let wal_bytes: usize = pipeline_wal.iter().map(Vec::len).sum();
    let shipped = if finish.wal_batches.is_empty() {
        &pipeline_wal
    } else {
        &finish.wal_batches
    };
    let apply_ns = traced::standby_apply(shipped, STANDBY_BUDGET).map_err(std::io::Error::other)?;
    // What a shard republishes after every run batch, timed on the
    // drained stores (their suspended sessions as the window left them).
    let publish_us = {
        let stores = &finish.drain.stores;
        let t0 = Instant::now();
        for _ in 0..PUBLISH_ROUNDS {
            for store in stores {
                std::hint::black_box((store.stats_body(), store.telemetry().clone()));
            }
        }
        t0.elapsed().as_secs_f64() * 1e6 / (PUBLISH_ROUNDS * stores.len()) as f64
    };

    report.put("wire.residual_us", residual_p50, "us");
    report.put(
        "shard.cross_frac",
        ratio(
            cross as f64,
            samples.iter().map(Vec::len).sum::<usize>() as f64,
        ),
        "ratio",
    );
    report.put("protocol.decode_us", us(l.decode), "us");
    report.put("protocol.encode_us", us(l.encode), "us");
    report.put("protocol.req_bytes", l.req_bytes as f64 / steps, "B");
    report.put("sexpr.parse_us", us(l.parse), "us");
    report.put("sexpr.print_us", us(l.print), "us");
    report.put("compiler.compile_us", us(l.compile), "us");
    report.put("vm.self_us", us(l.vm), "us");
    report.put("vm.instructions", l.instructions as f64 / steps, "count");
    report.put(
        "vm.ns_per_instr",
        ratio(l.vm as f64, l.instructions as f64),
        "ns",
    );
    report.put("lp.self_us", us(l.lp), "us");
    report.put("lp.calls", l.lp_calls as f64 / steps, "count");
    report.put(
        "lp.ns_per_call",
        ratio(l.lp as f64, l.lp_calls as f64),
        "ns",
    );
    let ledger = &rep.ledger;
    report.put(
        "lp.hit_rate",
        ratio(ledger.hits as f64, (ledger.hits + ledger.misses) as f64),
        "ratio",
    );
    report.put(
        "lp.inline_hit_rate",
        ratio(rep.cache_hits as f64, rep.cache_probes as f64),
        "ratio",
    );
    report.put(
        "lp.pseudo_overflows",
        ledger.pseudo_overflows as f64 / steps,
        "count",
    );
    report.put("lp.compressed", ledger.compressed as f64 / steps, "count");
    report.put(
        "lp.cycle_collections",
        ledger.cycle_collections as f64 / steps,
        "count",
    );
    report.put("lp.max_occupancy", ledger.max_occupancy as f64, "count");
    report.put("heap.us", us(l.heap), "us");
    report.put("heap.calls", l.heap_calls as f64 / steps, "count");
    report.put("manager.resume_frac", resume_frac, "ratio");
    report.put("manager.evictions", evictions as f64, "count");
    report.put("manager.publish_us", publish_us, "us/batch");
    report.put("persist.suspend_us", persist.suspend_ns / 1e3, "us/op");
    report.put("persist.resume_us", persist.resume_ns / 1e3, "us/op");
    report.put("persist.blob_bytes", persist.blob_bytes, "B/op");
    report.put("wal.append_us", us(l.wal), "us");
    report.put(
        "wal.bytes_per_record",
        ratio(wal_bytes as f64, rep.wal.next_lsn() as f64),
        "B",
    );
    report.put("repl.apply_us_per_record", apply_ns / 1e3, "us");
    report.put("trace.inproc_us", inproc_p50, "us");
    report.put(
        "trace.overhead_frac",
        ratio(l.apply_part() as f64, rep.untraced_apply_ns as f64) - 1.0,
        "ratio",
    );
    report.put("trace.reconcile_frac", reconcile, "ratio");
    report.put("serve.busy_sheds", busy_sheds as f64, "count");
    report.put(
        "process.cpu_us_per_req",
        quantile(&cpu_us_per_req, 0.5),
        "us",
    );
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{} seed {} trace {}: {} requests, {} failed",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        report.attempted,
        report.failed
    );
    for m in &report.metrics {
        eprintln!("  {:<26} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        eprintln!("  problem: {p}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_windows_hold_at_least_a_block_each() {
        // 10 seconds of 450 requests: 4500 in all, so 4 sub-windows of
        // 2 seconds (the last 2 seconds dropped).
        let spans = sub_windows(&[(450, 0.1); 10]);
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|&(n, s, _)| n == 900 && s == 2.0));
        // A slow workload is measured over the whole window.
        let slow = sub_windows(&[(110, 1.5); 10]);
        assert_eq!(slow, vec![(1100, 10.0, 15.0)]);
    }

    #[test]
    fn blocked_p99_ignores_one_stalled_block() {
        let mut samples = vec![1.0; 5000];
        samples[4000..].iter_mut().for_each(|s| *s = 100.0);
        assert_eq!(blocked_p99(&samples), 1.0);
        // Fewer than two blocks: the plain p99.
        let few: Vec<f64> = (0..500).map(f64::from).collect();
        assert_eq!(blocked_p99(&few), 494.0);
    }

    #[test]
    fn vcycles_are_read_from_the_eval_histogram() {
        let mut m = ShardMetrics::default();
        m.record(ReqKind::Open, 8, None);
        for cycles in [10, 20, 30, 40] {
            m.record(ReqKind::Eval, cycles, None);
        }
        assert_eq!(vcycles_per_eval(&m.deterministic_json()), Some(25.0));
        assert_eq!(vcycles_per_eval(r#"{"open":{}}"#), None);
    }
}
