//! The perf-trajectory runner: executes the pinned workload grid and
//! writes `BENCH_small.json` at the repository root.
//!
//! ```text
//! cargo run -p small-bench --bin regress --release            # deterministic payload
//! cargo run -p small-bench --bin regress --release -- --wall  # + wall-time medians
//! cargo run -p small-bench --bin regress --release -- --out path.json
//! cargo run -p small-bench --bin regress --release -- --check # verify committed file
//! cargo run -p small-bench --bin regress --release -- --loc   # non-test line counts
//! ```
//!
//! Without `--wall` the payload contains only virtual-cycle totals,
//! event counts, and latency quantiles and is byte-identical across
//! consecutive runs. `--check` regenerates that deterministic payload
//! and byte-compares it against the committed file with wall-time
//! medians normalized to `null` (the CI trajectory gate: committed
//! wall data is machine-local, everything else must reproduce exactly).
//! `--loc` runs no workload: it prints the non-test line counts of
//! `crates/` (run from the repository root) per file, per crate and in
//! total.

use small_bench::{loc, regress};

fn main() {
    let mut wall = false;
    let mut check = false;
    let mut out = String::from("BENCH_small.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--wall" => wall = true,
            "--check" => check = true,
            "--loc" => {
                match loc::count_crates(std::path::Path::new("crates")) {
                    Ok(counts) => print!("{}", loc::report(&counts)),
                    Err(e) => {
                        eprintln!("could not read crates/: {e}");
                        std::process::exit(1);
                    }
                }
                return;
            }
            "--out" => match args.next() {
                Some(p) => out = p,
                None => {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: regress [--wall] [--check] [--out <path>] | --loc");
                std::process::exit(2);
            }
        }
    }
    if check && wall {
        eprintln!("--check regenerates the deterministic payload; drop --wall");
        std::process::exit(2);
    }

    let results = regress::run(wall);
    for r in &results {
        println!(
            "{:<14} ops {:>6}  cycles {:>8}  stalls {:>6}  overlap {:>6}  hit {:>5.1}%{}",
            r.point.workload,
            r.ops,
            r.total_cycles,
            r.stall_cycles,
            r.overlap_cycles,
            r.lpt_hit_rate * 100.0,
            r.wall_us
                .map(|us| format!("  wall {us}us"))
                .unwrap_or_default(),
        );
    }
    let soak = regress::run_soak_cells(wall);
    for r in &soak {
        println!(
            "soak seed {:<3} {}x{}  reqs {:>5}  evals {:>5}  eval p50 {:>5} p99 {:>5} cycles{}",
            r.cell.seed,
            r.cell.clients,
            r.cell.requests,
            r.requests_total,
            r.evals,
            r.eval_p50_cycles,
            r.eval_p99_cycles,
            r.wall_us
                .map(|us| format!("  wall {us}us"))
                .unwrap_or_default(),
        );
    }
    let json = regress::to_json(&results, &soak);

    if check {
        let committed = match std::fs::read_to_string(&out) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("could not read {out}: {e}");
                std::process::exit(1);
            }
        };
        if regress::normalize_wall(committed.trim_end()) == json {
            println!("{out} matches the regenerated trajectory (wall medians ignored)");
        } else {
            eprintln!("{out} diverges from the regenerated trajectory");
            eprintln!(
                "regenerate with: cargo run -p small-bench --bin regress --release -- --wall"
            );
            std::process::exit(1);
        }
        return;
    }

    match std::fs::write(&out, &json) {
        Ok(()) => println!(
            "wrote {out} ({} bytes, schema {})",
            json.len(),
            regress::SCHEMA
        ),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            std::process::exit(1);
        }
    }
}
