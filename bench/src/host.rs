//! Host facts recorded beside every result, so a noisy or differently
//! sized host is visible in the result file rather than in the numbers.

use mwn_obs::json::Obj;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The first `model name` of `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The 1-minute load average, or 0 where `/proc/loadavg` does not exist.
pub fn load_1min() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` off
/// Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A run that starts on a host already busier than half its cores is
/// labelled `noisy`: its timings are kept but `compare` flags them. A set
/// is judged by the load before its first child starts — the benchmark's
/// own single thread holds the 1-minute average near 1 from then on.
pub fn is_noisy(load_start: f64) -> bool {
    load_start > 0.5 * nproc() as f64
}

/// The `host` object of a result file.
pub fn to_json(load_start: f64, load_end: f64, threads: usize) -> String {
    Obj::new()
        .usize("nproc", nproc())
        .str("cpu_model", &cpu_model())
        .f64("load_1min_start", load_start)
        .f64("load_1min_end", load_end)
        .usize("threads", threads)
        .raw(
            "noisy",
            if is_noisy(load_start) {
                "true"
            } else {
                "false"
            },
        )
        .finish()
}
