//! `netchaos` — network-fault chaos campaign for the serving stack:
//! [`small_serve::campaign::NETCHAOS`].
//!
//! ```text
//! netchaos [--seeds N | --seeds a,b,c] [--sessions N] [--requests N]
//!          [--kill-points a,b,c] [--out PATH]
//! ```
//!
//! Writes `results/netchaos_report.json`; exit 1 on any divergence or
//! unsurvived fault, 2 on bad flags.

fn main() -> std::process::ExitCode {
    small_serve::campaign::cli_main(&small_serve::campaign::NETCHAOS)
}
