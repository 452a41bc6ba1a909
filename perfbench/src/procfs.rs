//! Process accounting from `/proc`: peak resident set (`VmHWM`), CPU
//! time (`utime + stime`), CPU affinity, and host facts for provenance.
//! Linux only, like the rest of the benchmark.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// reports these in `USER_HZ`, which is 100 on every mainstream
/// architecture.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib)
}

/// `(utime, stime)` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: field 3 (state) is index 0, so utime (field 14)
    // is index 11 and stime (field 15) index 12.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    Some((fields.get(11)?.parse().ok()?, fields.get(12)?.parse().ok()?))
}

/// Peak resident set of process `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let text = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_kib(&text).map(|kib| kib as f64 / 1024.0)
}

/// User plus system CPU seconds consumed so far by process `pid`.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_stat_ticks(&text).map(|(u, s)| (u + s) as f64 / CLOCK_TICKS_PER_S)
}

/// Steal time in clock ticks, summed over CPUs, from the text of
/// `/proc/stat`: time the host ran something else while this machine's
/// CPUs had work.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Host steal time so far in seconds, summed over CPUs (0 where the
/// kernel does not report it).
pub fn steal_seconds() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| parse_steal_ticks(&t))
        .map_or(0.0, |t| t as f64 / CLOCK_TICKS_PER_S)
}

/// A `cpu_set_t`: 1 024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// CPUs the calling thread may run on (empty where unknown).
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread, and the threads it starts afterwards,
/// to `cpus`.
pub fn pin_current_thread(cpus: &[usize]) -> Result<(), String> {
    let mut set: CpuSet = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity({cpus:?}) failed"))
    }
}

/// Online CPUs as the standard library sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model name from `/proc/cpuinfo` (`"unknown"` if absent).
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tdasc\nVmPeak:\t  20000 kB\nVmHWM:\t    1680 kB\nVmRSS:\t 1500 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(1680));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn parses_stat_with_awkward_command_names() {
        let tail = "S 1 2 3 4 5 6 7 8 9 10 1234 56 0 0 20 0 3 0 100";
        assert_eq!(
            parse_stat_ticks(&format!("42 (dasc) {tail}")),
            Some((1234, 56))
        );
        assert_eq!(
            parse_stat_ticks(&format!("42 (a b) c)) {tail}")),
            Some((1234, 56))
        );
        assert_eq!(parse_stat_ticks("42 (dasc) S 1 2"), None);
        assert_eq!(parse_stat_ticks("no parens here"), None);
    }

    #[test]
    fn parses_steal() {
        let stat = "cpu  437992 0 45859 676063 451 0 8932 19685 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(19685));
        assert_eq!(parse_steal_ticks("cpu  1 2 3\n"), None);
        assert_eq!(parse_steal_ticks("intr 5\n"), None);
    }

    #[test]
    fn pins_and_restores_a_thread() {
        std::thread::spawn(|| {
            let all = allowed_cpus();
            assert!(!all.is_empty());
            pin_current_thread(&all[..1]).unwrap();
            assert_eq!(allowed_cpus(), &all[..1]);
            pin_current_thread(&all).unwrap();
            assert_eq!(allowed_cpus(), all);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn reads_own_process() {
        let pid = std::process::id();
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
    }
}
