//! The kernel's view of this process's memory: the resident-set high-water
//! mark `benchmark/` reports as `peak_rss_mb` and the `substrate_scale`
//! experiment prints beside its accounted byte counts, so unaccounted
//! allocations show up as a gap.

/// Peak resident set size (high-water mark) of this process, from
/// `/proc/self/status` `VmHWM`. `None` off Linux.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status.lines().find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn rss_probes_read_proc() {
        let hwm = peak_rss_bytes().expect("VmHWM should exist on Linux");
        assert!(hwm > 0);
    }
}
