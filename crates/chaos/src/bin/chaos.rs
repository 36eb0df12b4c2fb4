//! `chaos` — replay seeded heap-fault schedules over the simulator.
//!
//! ```text
//! chaos [--seeds 11,23,47] [--count N] [--aggressive] [--prims P] [--out PATH]
//! ```
//!
//! Each seed drives one case at each of the two presets (a mid-sized
//! 512-entry table, a tight 16-entry table that true-overflows); the
//! report is written as deterministic JSON (byte-identical across runs
//! for the same arguments) and the process exits nonzero if any case
//! violated the robustness contract.

use small_chaos::{run_campaign, Severity};
use small_workloads::synthetic;
use std::process::ExitCode;

/// The CI smoke job's pinned seeds.
const PINNED_SEEDS: [u64; 3] = [11, 23, 47];

struct Args {
    seeds: Vec<u64>,
    severity: Severity,
    prims: usize,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: PINNED_SEEDS.to_vec(),
        severity: Severity::Standard,
        prims: 2_000,
        out: "results/chaos_report.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--seeds" => {
                args.seeds = val("--seeds")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u64>()
                            .map_err(|e| format!("bad seed: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--count" => {
                let n: u64 = val("--count")?
                    .parse()
                    .map_err(|e| format!("bad count: {e}"))?;
                args.seeds = (1..=n).collect();
            }
            "--aggressive" => args.severity = Severity::Aggressive,
            "--prims" => {
                args.prims = val("--prims")?
                    .parse()
                    .map_err(|e| format!("bad prims: {e}"))?;
            }
            "--out" => args.out = val("--out")?,
            "--help" | "-h" => {
                return Err("usage: chaos [--seeds a,b,c | --count N] [--aggressive] \
                     [--prims P] [--out PATH]"
                    .to_string())
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.seeds.is_empty() {
        return Err("no seeds given".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut p = synthetic::table_5_1("slang");
    p.primitives = args.prims;
    p.functions = (args.prims / 4).max(8);
    let trace = synthetic::generate(&p);

    let (mid, tight) = small_chaos::preset_params();
    let mid_r = run_campaign(&trace, mid, &args.seeds, args.severity);
    let tight_r = run_campaign(&trace, tight, &args.seeds, args.severity);

    print!("{}", mid_r.summary_table());
    print!("{}", tight_r.summary_table());

    let json = format!(
        "{{\"mid\":{},\"tight\":{}}}\n",
        mid_r.to_json(),
        tight_r.to_json()
    );
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
    }
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    println!("report written to {}", args.out);

    if mid_r.all_pass() && tight_r.all_pass() {
        ExitCode::SUCCESS
    } else {
        eprintln!("chaos contract violated — see report");
        ExitCode::FAILURE
    }
}
