//! `clusterchaos` — replication-chain chaos campaign, primary killed
//! twice: [`small_serve::campaign::CLUSTERCHAOS`].
//!
//! ```text
//! clusterchaos [--seeds N | --seeds a,b,c] [--sessions N] [--requests N]
//!              [--kill-points a,b,c] [--out PATH]
//! ```
//!
//! Writes `results/clusterchaos_report.json`; exit 1 on any divergence
//! or unsurvived fault, 2 on bad flags.

fn main() -> std::process::ExitCode {
    small_serve::campaign::cli_main(&small_serve::campaign::CLUSTERCHAOS)
}
