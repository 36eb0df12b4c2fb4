//! `soak` — deterministic soak harness: concurrent client fleet vs a
//! serial in-process twin, with a byte-deterministic JSON report.
//!
//! ```text
//! soak [--seeds N | --seeds a,b,c] [--clients N] [--requests N]
//!      [--max-resident N] [--shards N] [--queue-cap N]
//!      [--churn N] [--churn-workers N] [--out PATH]
//!      [--wall] [--metrics-out PATH] [--trace-out PATH]
//! ```
//!
//! `--seeds N` takes the first `N` pinned seeds; a comma list pins
//! explicit ones. `--churn N` adds a phase rolling `N` short-lived
//! sessions through a fresh server. `--wall` records wall-clock
//! latency, `--metrics-out` writes the Prometheus exposition and
//! `--trace-out` a Chrome trace. Exit 1 on any mismatch or if no
//! suspend/resume churn happened, 2 on bad flags.

use small_serve::campaign::{usage_error, write_report, Args};
use small_serve::soak::{run_soak, SoakParams};
use std::process::ExitCode;

fn parse() -> Result<(Args, SoakParams), String> {
    let a = Args::parse(
        std::env::args().skip(1),
        "--seeds --clients --requests --max-resident --shards --queue-cap --churn \
         --churn-workers --out --metrics-out --trace-out",
        "--wall",
    )?;
    let mut p = SoakParams::default();
    p.seeds = a.seeds(p.seeds)?;
    p.clients = a.get("--clients", p.clients)?;
    p.requests = a.get("--requests", p.requests)?;
    p.cfg.max_resident = a.get("--max-resident", p.cfg.max_resident)?;
    p.server.shards = a.get("--shards", p.server.shards)?;
    p.server.queue_cap = a.get("--queue-cap", p.server.queue_cap)?;
    p.churn = a.get("--churn", p.churn)?;
    p.churn_workers = a.get("--churn-workers", p.churn_workers)?;
    p.server.wall = a.value("--wall").is_some();
    p.server.trace = a.value("--trace-out").is_some();
    Ok((a, p))
}

fn run(a: &Args, p: &SoakParams) -> Result<ExitCode, String> {
    let out = a.value("--out").unwrap_or("results/soak_report.json");
    let outcome = run_soak(p).map_err(|e| e.to_string())?;
    write_report(out, &outcome.report)?;
    for line in &outcome.summary {
        eprintln!("soak: {line}");
    }
    if let Some(path) = a.value("--metrics-out") {
        write_report(path, &outcome.prometheus)?;
        eprintln!("soak: metrics exposition written to {path}");
    }
    if let Some(path) = a.value("--trace-out") {
        let json = outcome
            .chrome_trace
            .as_deref()
            .ok_or("trace was enabled but no trace was collected")?;
        write_report(path, json)?;
        eprintln!("soak: chrome trace written to {path} (open in chrome://tracing)");
    }

    // Client retry counts are timing-dependent: reported here, never in
    // the byte-compared report.
    eprintln!(
        "soak: {} seeds x {} clients x {} requests ({} shards, churn {}) -> {out}\n\
         soak: evictions={} resumes={} mismatches={}, client {}",
        p.seeds.len(),
        p.clients,
        p.requests,
        p.server.shards,
        p.churn,
        outcome.evictions,
        outcome.resumes,
        outcome.mismatches,
        outcome.clients,
    );
    if outcome.mismatches > 0 {
        eprintln!("soak: FAILED: server transcripts diverged from the serial twin");
        return Ok(ExitCode::FAILURE);
    }
    if outcome.evictions < 2 || outcome.resumes < 2 {
        eprintln!("soak: FAILED: suspend/resume churn was not exercised");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let (args, params) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => return usage_error("soak", &e),
    };
    match run(&args, &params) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("soak: {e}");
            ExitCode::FAILURE
        }
    }
}
