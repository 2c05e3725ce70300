//! What the host says about this process: CPU time and peak memory.

use std::fs;

/// Worker threads `mssim::sweep` starts in this process: it sizes its
/// pool from `available_parallelism`, which follows the affinity mask.
pub fn sweep_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU time this process has used so far, in seconds.
///
/// With one sweep worker all work runs on the main thread, whose
/// scheduler run time (`/proc/thread-self/schedstat`) has nanosecond
/// resolution and leaves out time spent waiting for a CPU. With more
/// workers the process-wide user+system ticks of `/proc/self/stat` are
/// used instead, since sweep threads come and go.
pub fn cpu_seconds() -> f64 {
    if sweep_workers() == 1 {
        if let Some(ns) = fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        {
            return ns as f64 * 1e-9;
        }
    }
    process_ticks().map_or(0.0, |ticks| ticks as f64 / 100.0)
}

/// `utime + stime` of the whole process, in clock ticks (100 per second).
fn process_ticks() -> Option<u64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set of this process's own memory, in MiB: `VmHWM` less
/// the file-backed pages now resident (`RssFile`: the binary and its
/// libraries), whose count follows the page cache, not the program.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (kib("VmHWM:") - kib("RssFile:")).max(0.0) / 1024.0
}
