//! What the host and the measured processes report about themselves:
//! `/proc`, `/sys` and the process CPU clock. Readers return `None` where
//! the kernel does not expose a value, so the benchmark degrades to
//! fewer host notes instead of failing.

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const USER_HZ: u64 = 100;

/// `(steal, total)` jiffies over all CPUs since boot, from `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of all CPU time the hypervisor stole between two
/// [`cpu_jiffies`] readings.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in bytes.
pub fn peak_rss_bytes(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = fs::read_to_string(path).ok()?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<u64>()
        .ok()?;
    Some(kb * 1024)
}

/// CPU time (user + system, all threads) `pid` has used, in nanoseconds
/// at the kernel's 10 ms tick resolution.
pub fn process_cpu_ticks_ns(pid: u32) -> Option<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / USER_HZ))
}

/// Size of the last-level (L3) cache of CPU 0, in bytes.
pub fn l3_bytes() -> Option<u64> {
    let raw = fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let raw = raw.trim();
    let (num, mult) = match raw.strip_suffix('K') {
        Some(n) => (n, 1024),
        None => match raw.strip_suffix('M') {
            Some(n) => (n, 1024 * 1024),
            None => (raw, 1),
        },
    };
    Some(num.parse::<u64>().ok()? * mult)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_readings_are_plausible() {
        assert!(peak_rss_bytes(None).is_some_and(|b| b > 0));
        assert!(process_cpu_ticks_ns(std::process::id()).is_some());
        let (steal, total) = cpu_jiffies().expect("/proc/stat");
        assert!(steal <= total && total > 0);
    }
}
