//! Cycle-accurate EP/LP span tracing, end to end.
//!
//! ```text
//! cargo run --release --example profile_timeline
//! ```
//!
//! Runs a synthetic Table-5.1 trace through the simulator with a
//! full-fidelity [`SpanSink`] attached, then:
//!
//! * writes a Perfetto-loadable Chrome trace (EP, LP, heap, and GC as
//!   separate named tracks) to `results/profile/timeline.trace.json`,
//! * writes folded stacks (`workload;primitive;phase cycles`) to
//!   `results/profile/timeline.folded`,
//! * writes the deterministic attribution JSON to
//!   `results/profile/attribution.json`,
//! * prints the per-primitive attribution table and the §4.3.2.5
//!   EP/LP-overlap summary, and
//! * asserts that the attribution decomposes the clock's EP idle time
//!   into chaining stalls and blocked waits.
//!
//! [`SpanSink`]: small_repro::profile::SpanSink

use small_repro::profile::SpanSink;
use small_repro::simulator::driver::{run_sim_profiled, run_sim_with_sink};
use small_repro::simulator::SimParams;
use small_repro::small::timing::TimingModel;
use small_repro::workloads::synthetic;
use std::path::Path;

fn main() {
    let mut params = synthetic::table_5_1("slang");
    params.primitives = 2000;
    let trace = synthetic::generate(&params);

    let (result, profile) = run_sim_profiled(&trace, SimParams::default(), None);
    assert!(!result.true_overflow, "workload must complete");

    let blocked: u64 = profile.attribution.iter().map(|a| a.blocked).sum();
    assert_eq!(
        profile.timing.ep_idle,
        profile.stall_cycles() + blocked,
        "EP idle decomposes into chaining stalls + blocked waits"
    );

    println!("profiled {} ops over '{}'", profile.timing.ops, trace.name);
    println!("\nper-primitive attribution (cycles):");
    print!("{}", profile.attribution_table());
    println!(
        "\nEP/LP concurrency (§4.3.2.5): {} total cycles, EP idle {}, LP idle {}",
        profile.timing.total, profile.timing.ep_idle, profile.timing.lp_idle
    );
    println!(
        "  chaining stalls: {} cycles | overlapped LP tail work: {} cycles | EP utilization {:.1}%",
        profile.stall_cycles(),
        profile.overlap_cycles(),
        profile.timing.ep_utilization() * 100.0
    );

    // The §4.3.2.5 caveat made visible: re-run the same workload with
    // *no* EP work between requests. Back-to-back requests must now wait
    // for the previous operation's LP tail — the chaining stall.
    let tight_sink: SpanSink =
        SpanSink::with_model(&trace.name, TimingModel::default(), 0).summary_only();
    let (_, tight) = run_sim_with_sink(&trace, SimParams::default(), None, tight_sink);
    let tight = tight.finish();
    assert!(
        tight.stall_cycles() >= profile.stall_cycles(),
        "removing inter-op EP work cannot reduce chaining stalls"
    );
    println!(
        "  back-to-back requests (ep_gap 0): {} stall cycles, EP utilization {:.1}%",
        tight.stall_cycles(),
        tight.timing.ep_utilization() * 100.0
    );

    let dir = Path::new("results/profile");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("could not create {}: {e}", dir.display());
        return;
    }
    let outputs = [
        ("timeline.trace.json", profile.chrome_trace_json()),
        ("timeline.folded", profile.folded_stacks()),
        ("attribution.json", profile.attribution_json()),
    ];
    for (name, body) in outputs {
        let path = dir.join(name);
        match std::fs::write(&path, body) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!("open timeline.trace.json in https://ui.perfetto.dev or chrome://tracing");
}
