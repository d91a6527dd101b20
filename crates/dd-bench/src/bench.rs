//! Process measurements for the repository benchmark (`perf`).

/// Peak RSS of this process in KiB, from `/proc/self/status` `VmHWM`
/// (Linux). Returns 0 where the proc file is unavailable.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_on_linux() {
        // On Linux this must be nonzero; elsewhere 0 is the documented
        // fallback.
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kb() > 0);
        }
    }
}
