//! The few `/proc` reads the harness needs: peak RSS and CPU time of itself
//! or of a child it spawned. Linux only, like the `serve` child it measures.

/// `self` or a child's pid, as a `/proc` path component.
#[derive(Debug, Clone, Copy)]
pub enum Who {
    /// The harness process.
    Me,
    /// A spawned child.
    Pid(u32),
}

impl Who {
    fn dir(self) -> String {
        match self {
            Who::Me => "/proc/self".into(),
            Who::Pid(p) => format!("/proc/{p}"),
        }
    }
}

/// Peak resident set (`VmHWM`) in KiB.
pub fn peak_rss_kb(who: Who) -> Result<u64, String> {
    let path = format!("{}/status", who.dir());
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_status_kb(&status, "VmHWM:").ok_or_else(|| format!("{path}: no VmHWM line"))
}

fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Resets this process's `VmHWM` to its current RSS, so the peak that is
/// reported afterwards belongs to the engine and not to the reference
/// computation that ran before it. Returns whether the kernel allowed it;
/// when it does not, the peak simply includes the reference engine (and the
/// run says so).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// CPU seconds the process's *current* threads have consumed so far.
///
/// Summed from `/proc/<pid>/task/*/schedstat` (nanosecond resolution), so a
/// few milliseconds of work are measurable; threads that already exited are
/// not included, which is why callers only take deltas across phases whose
/// threads all outlive the phase (pool workers, a connection's handler).
pub fn cpu_seconds(who: Who) -> Result<f64, String> {
    schedstat_ns(who)
        .map(|ns| ns as f64 / 1e9)
        .ok_or_else(|| format!("{}/task/*/schedstat: unreadable", who.dir()))
}

fn schedstat_ns(who: Who) -> Option<u64> {
    let mut total = 0u64;
    for task in std::fs::read_dir(format!("{}/task", who.dir())).ok()? {
        // A thread may exit between the listing and the read; skip it.
        let Ok(text) = std::fs::read_to_string(task.ok()?.path().join("schedstat")) else {
            continue;
        };
        total += text.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_lines() {
        let status = "Name:\taeetes\nVmPeak:\t  999 kB\nVmHWM:\t  214616 kB\nVmRSS:\t 9812 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(214_616));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn reads_own_counters() {
        assert!(peak_rss_kb(Who::Me).unwrap() > 0);
        assert!(cpu_seconds(Who::Me).unwrap() >= 0.0);
    }
}
