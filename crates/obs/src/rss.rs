//! Peak-RSS introspection: the kernel's resident-set high-water mark.
//!
//! The server's `peak_rss_bytes` gauge and the repository benchmark's
//! `peak_rss_mb` need one number: the most physical memory this process
//! ever held. Linux tracks exactly that as `VmHWM` in `/proc/self/status`
//! — no sampling thread, no allocator hooks, and it captures transient
//! spikes a poller would miss. Off Linux the reader returns `None`, so
//! callers can emit the field as optional instead of carrying their own
//! `cfg` forks.

/// Peak resident set size of this process in bytes (`VmHWM` × 1024), or
/// `None` off Linux / when procfs is unavailable. Sandboxed kernels (e.g.
/// gVisor) export `VmRSS` but not the high-water mark; there the current
/// RSS is returned as a lower bound so the gauge stays meaningful.
pub fn peak_rss_bytes() -> Option<u64> {
    read_vm_hwm_kb().map(|kb| kb * 1024)
}

#[cfg(target_os = "linux")]
fn read_vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status)
}

#[cfg(not(target_os = "linux"))]
fn read_vm_hwm_kb() -> Option<u64> {
    None
}

#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let field = |key: &str| {
        status
            .lines()
            .find_map(|line| line.strip_prefix(key))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
    };
    field("VmHWM:").or_else(|| field("VmRSS:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\tsteam-cli\nVmPeak:\t  999999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        // High-water mark missing (sandboxed kernels): VmRSS lower bound.
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 100 kB\n"), Some(100));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_peak_rss_covers_a_resident_allocation() {
        // Touch 32 MiB so both VmHWM and the VmRSS fallback cover it while
        // the block is still resident.
        let block = vec![7u8; 32 << 20];
        let peak = peak_rss_bytes().expect("procfs available on Linux");
        assert!(peak >= 32 << 20, "peak {peak} should cover the 32 MiB block");
        let checksum: u64 = block.iter().map(|&b| u64::from(b)).sum();
        assert_eq!(checksum, 7 * (32 << 20));
    }
}
