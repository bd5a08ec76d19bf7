//! Process-level measurements (CPU time, peak memory) and the order
//! statistics every workload reports with.

use std::time::{Duration, Instant};

/// Kernel clock ticks per second of `/proc/self/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used so far, all threads
/// (exited ones included).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, so 12 and 13 here.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// The process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall and CPU time of one timed phase.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process user + system seconds.
    pub cpu_s: f64,
}

/// Runs `f`, timing its wall and process CPU time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Phase) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    (
        out,
        Phase {
            wall_s,
            cpu_s: cpu_seconds() - cpu0,
        },
    )
}

/// Median of `values` (mean of the middle two for an even count); 0.0
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` of `values`; 0.0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Calls `rep(0)`, `rep(1)`, … until `budget` is spent, at least once,
/// and not again when another repetition of average length would
/// overrun the budget. Stops at the first error.
///
/// Also returns the process's peak resident memory (MiB) as it stood
/// after the first repetition: how many repetitions fit the budget
/// depends on the host's speed, and memory a repetition leaves behind
/// would otherwise make the peak depend on it too.
pub fn repeat<T>(
    budget: Duration,
    mut rep: impl FnMut(usize) -> Result<T, String>,
) -> Result<(Vec<T>, f64), String> {
    let t0 = Instant::now();
    let mut done = vec![rep(0)?];
    let first_peak_rss_mb = peak_rss_mb();
    loop {
        let elapsed = t0.elapsed();
        let mean = elapsed / u32::try_from(done.len()).unwrap_or(u32::MAX);
        if elapsed + mean > budget {
            return Ok((done, first_peak_rss_mb));
        }
        done.push(rep(done.len())?);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
    }

    #[test]
    fn process_counters_are_live() {
        assert!(peak_rss_mb() > 0.0);
        let (_, phase) = timed(|| (0..3_000_000u64).map(|x| x.wrapping_mul(x)).sum::<u64>());
        assert!(phase.wall_s > 0.0);
        assert!(phase.cpu_s >= 0.0);
    }
}
