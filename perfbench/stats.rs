//! Summary statistics, the reply digest, and readings of the host and of
//! process memory.

use std::process::Command;

/// Median of `xs` (mean of the middle pair for an even count; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The reported tail: the nearest-rank p99 when at least ten samples lie
/// beyond it, otherwise the highest percentile that still has ten samples
/// beyond it. Returns `(percentile, value)`; `None` below 11 samples,
/// where no percentile has ten samples beyond it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let p99 = (n * 99).div_ceil(100) - 1;
    let idx = p99.min(n - 11);
    Some((100.0 * (idx + 1) as f64 / n as f64, sorted(xs)[idx]))
}

/// The tail every figure reports: [`tail`] from 21 samples on, where it
/// lies above the median. Below that no percentile above the median has
/// ten samples beyond it, and the nearest-rank p75 is reported: on the
/// ten or so builds of a census-build run, a p90 or the maximum followed
/// whichever one or two builds the host stalled (run-to-run spread 0.32
/// of the median, against 0.11 for the median).
pub fn reported_tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    if n >= 21 {
        if let Some(t) = tail(xs) {
            return t;
        }
    }
    if n == 0 {
        return (100.0, 0.0);
    }
    let idx = (n * 3).div_ceil(4) - 1;
    (100.0 * (idx + 1) as f64 / n as f64, sorted(xs)[idx])
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// A fast 64-bit digest of a byte string, for comparing replies and
/// files with their expected bytes. Not collision-resistant against an
/// adversary; a mismatch by accident passes with probability 2^-64.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = 0x243f_6a88_85a3_08d3 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let mut b = [0u8; 8];
        b.copy_from_slice(w);
        h = (h ^ u64::from_le_bytes(b)).wrapping_mul(K).rotate_left(31);
    }
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    h = (h ^ u64::from_le_bytes(last)).wrapping_mul(K);
    h ^ (h >> 29)
}

/// A `kB` field of `/proc/<pid>/status` (`pid` `None` = this process).
pub fn status_kb(pid: Option<u32>, field: &str) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    status_kb(pid, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                Some(
                    l.strip_prefix("model name")?
                        .split_once(':')?
                        .1
                        .trim()
                        .to_owned(),
                )
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// First line of a command's standard output, or `unknown`.
pub fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the helpers cannot rely on input order.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        for n in [1000, 1001, 2000, 5000] {
            let (p, v) = tail(&ramp(n)).expect("enough samples");
            let beyond = ramp(n).iter().filter(|&&x| x > v).count();
            assert!(beyond >= 10, "n={n}: {beyond} beyond");
            assert!((99.0..99.1).contains(&p), "n={n}: p{p}");
        }
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        for n in [11, 12, 50, 100, 999] {
            let (p, v) = tail(&ramp(n)).expect("enough samples");
            let beyond = ramp(n).iter().filter(|&&x| x > v).count();
            assert_eq!(beyond, 10, "n={n}");
            assert!((p - 100.0 * (n - 10) as f64 / n as f64).abs() < 1e-9);
        }
        assert_eq!(tail(&ramp(100)), Some((90.0, 89.0)));
    }

    #[test]
    fn tail_needs_eleven_samples() {
        assert_eq!(tail(&ramp(10)), None);
    }

    #[test]
    fn reported_tail_is_p75_below_21_samples_and_never_below_the_median() {
        for n in 1..300 {
            let xs = ramp(n);
            assert!(reported_tail(&xs).1 >= median(&xs), "n={n}");
        }
        assert_eq!(reported_tail(&ramp(1)), (100.0, 0.0));
        assert_eq!(reported_tail(&ramp(10)).1, 7.0);
        assert_eq!(reported_tail(&ramp(20)), (75.0, 14.0));
        assert_eq!(Some(reported_tail(&ramp(21))), tail(&ramp(21)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn digest_sees_every_byte_and_the_length() {
        let a = b"{\"ok\":true,\"results\":[]}".to_vec();
        for i in 0..a.len() {
            let mut b = a.clone();
            b[i] ^= 1;
            assert_ne!(digest(&a), digest(&b), "byte {i}");
        }
        assert_ne!(digest(b"abc"), digest(b"abc\0"));
        assert_eq!(digest(&a), digest(&a.clone()));
    }
}
