//! `crash` — seeded crash-point campaigns over the durable simulator.
//!
//! ```text
//! crash [--seeds 11,23,47] [--per-seed N] [--prims P]
//!       [--checkpoint-every K] [--out PATH]
//! ```
//!
//! For each seed: run the workload to completion through
//! `run_sim_resumable` (checkpoints + write-ahead journal), then kill
//! it at `--per-seed` planned journal appends — cycling lost and torn
//! tails — recover, resume, and require the final checkpoint bytes and
//! LPT stats ledger to equal the uninterrupted run's. Two corruption
//! probes per seed (flipped journal byte, truncated checkpoint) must
//! fail closed with typed errors. The report is deterministic JSON
//! (byte-identical across runs for the same arguments); the process
//! exits nonzero on any contract violation.

use small_chaos::crash::run_crash_campaign;
use small_serve::campaign::{usage_error, write_report, Args};
use small_simulator::SimParams;
use small_workloads::synthetic;
use std::process::ExitCode;

/// The CI crash-smoke job's pinned seeds.
const PINNED_SEEDS: [u64; 3] = [11, 23, 47];

const USAGE: &str = "usage: crash [--seeds a,b,c] [--per-seed N] [--prims P] \
     [--checkpoint-every K] [--out PATH]";

struct Opts {
    seeds: Vec<u64>,
    per_seed: usize,
    prims: usize,
    checkpoint_every: u64,
    out: String,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let a = Args::parse(
        args,
        "--seeds --per-seed --prims --checkpoint-every --out",
        "",
    )?;
    Ok(Opts {
        seeds: a.list("--seeds", PINNED_SEEDS.to_vec())?,
        per_seed: a.get("--per-seed", 35)?,
        prims: a.get("--prims", 300)?,
        checkpoint_every: a.get("--checkpoint-every", 48)?,
        out: a
            .value("--out")
            .unwrap_or("results/crash_report.json")
            .to_string(),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return usage_error("crash", &format!("{e}\n{USAGE}")),
    };

    let mut p = synthetic::table_5_1("slang");
    p.primitives = args.prims;
    p.functions = (args.prims / 4).max(8);
    let trace = synthetic::generate(&p);

    // A small backing heap keeps checkpoint images (which embed the
    // whole arena) cheap; these workloads use a few thousand cells.
    let params = SimParams {
        heap_cells: 1 << 14,
        ..SimParams::default()
    }
    .with_table(512)
    .with_checkpoint_every(args.checkpoint_every);
    let report = run_crash_campaign(&trace, params, &args.seeds, args.per_seed);

    print!("{}", report.summary_table());

    let json = format!("{}\n", report.to_json());
    if let Err(e) = write_report(&args.out, &json) {
        eprintln!("cannot write {e}");
        return ExitCode::from(2);
    }
    println!("report written to {}", args.out);

    if report.all_pass() {
        ExitCode::SUCCESS
    } else {
        eprintln!("crash-consistency contract violated — see report");
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
    fn crash_rejects_unknown_flags() {
        let err = |a: &[&str]| parse(args(a)).err().unwrap();
        assert_eq!(err(&["--per-seeds", "3"]), "unknown argument: --per-seeds");
        assert_eq!(err(&["--count", "3"]), "unknown argument: --count");
        assert_eq!(err(&["--out"]), "--out needs a value");
        assert_eq!(err(&["--prims", "x"]), "bad --prims: x");
        let o = parse(args(&["--seeds", "5,6", "--per-seed", "2"])).unwrap();
        assert_eq!((o.seeds, o.per_seed), (vec![5, 6], 2));
        let o = parse(args(&[])).unwrap();
        assert_eq!((o.prims, o.checkpoint_every), (300, 48));
        assert_eq!(o.out, "results/crash_report.json");
    }

    #[test]
    fn crash_rejects_an_empty_seed_list() {
        let err = parse(args(&["--seeds", ""])).err().unwrap();
        assert_eq!(err, "bad --seeds: ");
    }
}
