//! Host facts and per-process resource counters (Linux `/proc`).

use std::path::Path;
use std::process::Command;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux architecture).
const USER_HZ: f64 = 100.0;

/// Usable hardware parallelism (respects CPU affinity and cgroup limits).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn proc_file(pid: Option<u32>, file: &str) -> Result<String, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/{file}"),
        None => format!("/proc/self/{file}"),
    };
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// User + system CPU seconds consumed so far by process `pid` (`None` = this
/// process), all threads included.
pub fn cpu_seconds(pid: Option<u32>) -> Result<f64, String> {
    let stat = proc_file(pid, "stat")?;
    // Fields after the parenthesized command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| "malformed /proc stat times".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let status = proc_file(pid, "status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc status".to_string())
}

/// The commit of the checkout in the working directory, or `"unknown"` when
/// it is not a git repository (the lookup never walks into parent
/// directories).
pub fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}
