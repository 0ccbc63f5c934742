//! The process's own CPU, page-fault and peak-memory counters from
//! `/proc/self`. One process runs one workload, so these belong to it.

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// architecture the kernel supports (it is ABI, not the scheduler's HZ).
const TICK_US: f64 = 10_000.0;

/// Counters of `/proc/self/stat` the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcStat {
    /// Minor page faults since process start.
    pub minflt: u64,
    /// User-mode CPU time of all threads, µs.
    pub utime_us: f64,
    /// Kernel-mode CPU time of all threads, µs.
    pub stime_us: f64,
}

/// Parse `/proc/<pid>/stat`. The `comm` field may hold spaces and parens,
/// so fields are indexed after the *last* `)`: state = 0, minflt = 7,
/// utime = 11, stime = 12.
pub fn parse_stat(stat: &str) -> Option<ProcStat> {
    let tail = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = tail.split_whitespace().collect();
    let num = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some(ProcStat {
        minflt: num(7)?,
        utime_us: num(11)? as f64 * TICK_US,
        stime_us: num(12)? as f64 * TICK_US,
    })
}

/// Parse a `Key:   N kB` line of `/proc/<pid>/status` (e.g. `VmHWM`), kB.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// First CPU of a `Cpus_allowed_list` value such as `0-3,8`.
pub fn parse_first_cpu(list: &str) -> Option<usize> {
    list.trim().split([',', '-']).next()?.parse().ok()
}

extern "C" {
    // From the C library std already links; declared here because the
    // build is offline and has no `libc` crate.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and every thread spawned after this call, to
/// the first CPU this process may run on. Returns that CPU, or `None` if
/// the process stays unpinned (no procfs, or the kernel refused).
pub fn pin_to_one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = parse_first_cpu(list)?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the
    // `size_of_val(&mask)` bytes passed as its length, and the kernel only
    // reads it; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Current counters of this process. Panics off Linux: the benchmark's CPU
/// and memory metrics have no other source.
pub fn stat() -> ProcStat {
    let s = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat(&s).expect("parse /proc/self/stat")
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn rss_peak_mb() -> f64 {
    let s = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kb(&s, "VmHWM").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_indexed_after_the_last_paren() {
        let line = "4242 (sads) bench (x)) R 1 4242 1 0 -1 4194304 1234 0 5 0 321 45 0 0 20 0 3 0 \
                    2125606 2703360 284 18446744073709551615";
        let s = parse_stat(line).expect("parses");
        assert_eq!(s.minflt, 1234);
        assert_eq!(s.utime_us, 3_210_000.0);
        assert_eq!(s.stime_us, 450_000.0);
    }

    #[test]
    fn stat_rejects_truncated_or_malformed_lines() {
        assert_eq!(parse_stat("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat("no paren at all"), None);
        assert_eq!(parse_stat("1 (x) R 1 1 1 0 -1 0 x 0 0 0 1 1"), None);
    }

    #[test]
    fn status_finds_the_exact_key() {
        let status = "Name:\tsads\nVmPeak:\t  999 kB\nVmHWM:\t    1836 kB\nVmRSS:\t 1700 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(1836));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1700));
        assert_eq!(parse_status_kb(status, "Vm"), None);
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWM:\t12 MB\n", "VmHWM"), None);
    }

    #[test]
    fn first_cpu_of_an_allowed_list() {
        assert_eq!(parse_first_cpu("\t0-1\n"), Some(0));
        assert_eq!(parse_first_cpu("3,5-7"), Some(3));
        assert_eq!(parse_first_cpu("12"), Some(12));
        assert_eq!(parse_first_cpu(""), None);
    }

    #[test]
    fn live_counters_read_on_this_host() {
        assert!(rss_peak_mb() > 0.0);
        let _ = stat();
    }
}
