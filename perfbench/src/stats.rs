//! Order statistics and what Linux reports about this process.

use std::time::Duration;

/// The `q` quantile (0..=1) of `values` by the nearest-rank method; 0 for
/// no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`), which
/// Linux fixes at 100 on every architecture it exposes to user space.
const USER_HZ: u64 = 100;

/// User plus system CPU time of this process, all threads included.
pub fn process_cpu() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line; `rest` starts at 3.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_millis((ticks(11) + ticks(12)) * 1000 / USER_HZ)
}

/// The machine's CPU time so far, in `/proc/stat` ticks: the time its CPUs
/// were busy or wanted to be (every state but idle and iowait), and steal
/// alone. Steal is time a virtual machine's CPUs were ready to run while
/// the hypervisor ran something else; it slows every wall-clock figure
/// without showing in this process's CPU time.
pub fn machine_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user.
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    let idle: u64 = fields.iter().skip(3).take(2).sum();
    (
        fields.iter().sum::<u64>() - idle,
        fields.get(7).copied().unwrap_or(0),
    )
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(50) {
            std::hint::black_box(0u64);
        }
        assert!(process_cpu() > Duration::ZERO);
    }
}
