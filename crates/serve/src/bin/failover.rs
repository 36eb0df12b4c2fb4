//! `failover` — kill-primary replication campaign:
//! [`small_serve::campaign::FAILOVER`].
//!
//! ```text
//! failover [--seeds N | --seeds a,b,c] [--sessions N] [--requests N]
//!          [--kill-points a,b,c] [--out PATH]
//! ```
//!
//! Writes `results/failover_report.json`; exit 1 on any divergence
//! from the serial twin, 2 on bad flags.

fn main() -> std::process::ExitCode {
    small_serve::campaign::cli_main(&small_serve::campaign::FAILOVER)
}
