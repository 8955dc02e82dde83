//! Order statistics over pass times, and process readings from `/proc`.

/// The median (mean of the two middle values for an even count); 0 for no
/// values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of a timing distribution: the highest whole percentile with at
/// least ten samples beyond it, by nearest rank. Returns
/// `(percentile, value, samples beyond)`. With ten samples or fewer no
/// percentile qualifies, and the maximum is returned as percentile 100.
pub fn tail(values: &[f64]) -> (u32, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (100, v.last().copied().unwrap_or(0.0), 0);
    }
    // Largest p with n - ceil(p·n/100) >= 10.
    let p = (100 * (n - 10) / n) as u32;
    let rank = (p as usize * n).div_ceil(100).max(1);
    (p, v[rank - 1], n - rank)
}

/// User plus system CPU time of the whole process, in seconds, from
/// `/proc/self/stat` (ticks of `USER_HZ` = 100 on Linux).
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Peak resident set size (`VmHWM`) in MiB, from `/proc/self/status`.
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
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90, 90.0, 10));
        let v: Vec<f64> = (1..=37).map(f64::from).collect();
        let (p, value, beyond) = tail(&v);
        assert_eq!((p, beyond), (72, 10));
        assert_eq!(value, 27.0);
        assert_eq!(tail(&[5.0, 1.0]), (100, 5.0, 0));
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(process_cpu_s().is_some());
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
