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
use small_serve::campaign::{usage_error, write_report, Args};
use small_workloads::synthetic;
use std::process::ExitCode;

/// The CI smoke job's pinned seeds.
const PINNED_SEEDS: [u64; 3] = [11, 23, 47];

const USAGE: &str =
    "usage: chaos [--seeds a,b,c | --count N] [--aggressive] [--prims P] [--out PATH]";

struct Opts {
    seeds: Vec<u64>,
    severity: Severity,
    prims: usize,
    out: String,
}

/// `--seeds` lists seeds; `--count N` runs seeds `1..=N` instead.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let a = Args::parse(args, "--seeds --count --prims --out", "--aggressive")?;
    let seeds = match a.value("--count") {
        Some(_) => (1..=a.get("--count", 0u64)?).collect(),
        None => a.list("--seeds", PINNED_SEEDS.to_vec())?,
    };
    if seeds.is_empty() {
        return Err("no seeds given".to_string());
    }
    Ok(Opts {
        seeds,
        severity: match a.value("--aggressive") {
            Some(_) => Severity::Aggressive,
            None => Severity::Standard,
        },
        prims: a.get("--prims", 2_000)?,
        out: a
            .value("--out")
            .unwrap_or("results/chaos_report.json")
            .to_string(),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return usage_error("chaos", &format!("{e}\n{USAGE}")),
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
    if let Err(e) = write_report(&args.out, &json) {
        eprintln!("cannot write {e}");
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn chaos_rejects_unknown_flags() {
        let err = |a: &[&str]| parse(args(a)).err().unwrap();
        assert_eq!(err(&["--seed", "3"]), "unknown argument: --seed");
        assert_eq!(err(&["--aggressive", "1"]), "unknown argument: 1");
        assert_eq!(err(&["--count"]), "--count needs a value");
        let o = parse(args(&["--seeds", "5", "--aggressive"])).unwrap();
        assert_eq!(o.seeds, vec![5], "a lone seed is that seed");
        assert_eq!(o.severity, Severity::Aggressive);
        assert_eq!(parse(args(&["--count", "3"])).unwrap().seeds, vec![1, 2, 3]);
        assert_eq!(parse(args(&[])).unwrap().out, "results/chaos_report.json");
    }

    #[test]
    fn chaos_rejects_zero_seeds() {
        let err = parse(args(&["--count", "0"])).err().unwrap();
        assert_eq!(err, "no seeds given");
    }
}
