//! Each campaign scenario, run at its defaults, must reproduce its
//! committed `results/*_report.json` byte for byte. The reports carry
//! `all_match:true` and nonzero fault counts, so every run stayed clean
//! and the planned faults fired.

use small_repro::serve::campaign::{run_campaign, CLUSTERCHAOS, FAILOVER, NETCHAOS};

#[test]
fn committed_campaign_reports_regenerate_byte_for_byte() {
    // One test, scenarios in sequence: a concurrent campaign could bind
    // a killed primary's freed port and answer its lease probes.
    for sc in [FAILOVER, NETCHAOS, CLUSTERCHAOS] {
        let path = format!(
            "{}/results/{}_report.json",
            env!("CARGO_MANIFEST_DIR"),
            sc.name
        );
        let committed = std::fs::read_to_string(&path).expect("committed report");
        let outcome = run_campaign(&sc, &sc.params()).expect("campaign runs");
        assert_eq!(outcome.report, committed, "{} drifted from {path}", sc.name);
    }
}
