//! `perfbench-smtd`: `smtd` in a process of its own, so the benchmark
//! measures the daemon's memory apart from its load generator.
//!
//! ```text
//! perfbench-smtd <shards>
//! ```
//!
//! Starts the daemon on an ephemeral loopback port with the default
//! configuration and `<shards>` reactor shards, prints
//! `listening <addr>`, and serves until its standard input is closed. It
//! then shuts the daemon down and prints `peak_rss_kb <n>`, its own peak
//! resident memory (`VmHWM` of `/proc/self/status`).

use std::io::{Read, Write};
use std::process::ExitCode;

use smt_service::{spawn, ServerConfig};

fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn main() -> ExitCode {
    let shards = match std::env::args().nth(1).map(|s| s.parse::<usize>()) {
        Some(Ok(n)) if n > 0 => n,
        _ => {
            eprintln!("usage: perfbench-smtd <shards>");
            return ExitCode::from(2);
        }
    };
    let handle = match spawn(ServerConfig::default().shards(shards)) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perfbench-smtd: starting smtd: {e}");
            return ExitCode::from(1);
        }
    };
    let mut stdout = std::io::stdout();
    let _ = writeln!(stdout, "listening {}", handle.local_addr());
    let _ = stdout.flush();
    // Serve until the benchmark closes our stdin (or exits).
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    handle.trigger_shutdown();
    handle.join();
    match peak_rss_kb() {
        Ok(kb) => {
            let _ = writeln!(stdout, "peak_rss_kb {kb}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-smtd: {e}");
            ExitCode::from(1)
        }
    }
}
