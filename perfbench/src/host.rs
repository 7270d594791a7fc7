//! Host readings from `/proc`: hypervisor steal and this process's peak
//! resident memory.

/// `(steal, total)` CPU ticks summed over all CPUs since boot.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_cpu_line(stat.lines().next()?)
}

/// Parses the aggregate `cpu` line: user nice system idle iowait irq
/// softirq steal [guest guest_nice]. Guest time is already counted in
/// user and nice, so it is left out of the total.
fn parse_cpu_line(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let ticks: Vec<u64> = fields
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().sum()))
}

/// Share of CPU time stolen by the hypervisor between two readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_line_yields_steal_and_total() {
        let line = "cpu  100 5 50 800 10 1 2 32 7 0";
        assert_eq!(parse_cpu_line(line), Some((32, 1000)));
        assert_eq!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(steal_frac((32, 1000), (42, 1100)), 0.1);
        assert_eq!(steal_frac((0, 5), (0, 5)), 0.0);
    }
}
