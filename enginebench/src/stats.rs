//! Sample statistics and process resource usage.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample such that at least `p` percent of all samples are at or below
/// it. `p` is clamped to `(0, 100]`; an empty slice yields `None`.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // p·n first, so whole-number products (99·100) stay exact.
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The highest percentile that still has at least `min_beyond` samples
/// strictly above its rank — how far into the tail `n` samples can speak.
pub fn resolvable_percentile(n: usize, min_beyond: usize) -> f64 {
    if n <= min_beyond {
        return 0.0;
    }
    100.0 * (n - min_beyond) as f64 / n as f64
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage_self() -> Rusage {
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // RUSAGE_SELF = 0: every thread of this process.
    // SAFETY: `r` is a properly sized, writable `struct rusage`.
    let rc = unsafe { getrusage(0, &mut r) };
    assert_eq!(rc, 0, "getrusage failed");
    r
}

/// User + system CPU time consumed so far by the whole process (seconds).
pub fn process_cpu_s() -> f64 {
    let r = rusage_self();
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&r.utime) + tv(&r.stime)
}

/// Peak resident set of the process so far (MiB).
pub fn peak_rss_mib() -> f64 {
    rusage_self().maxrss_kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), Some(50));
        assert_eq!(percentile(&s, 99.0), Some(99));
        assert_eq!(percentile(&s, 99.5), Some(100));
        assert_eq!(percentile(&s, 100.0), Some(100));
        assert_eq!(percentile(&s, 0.0), Some(1));
    }

    #[test]
    fn nearest_rank_small_and_empty() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7], 99.0), Some(7));
        // Ten samples: p50 is the 5th, p99 the 10th (never interpolated).
        let s = [10, 20, 30, 40, 50, 60, 70, 80, 90, 1000];
        assert_eq!(percentile(&s, 50.0), Some(50));
        assert_eq!(percentile(&s, 90.0), Some(90));
        assert_eq!(percentile(&s, 99.0), Some(1000));
    }

    #[test]
    fn tail_resolution() {
        assert_eq!(resolvable_percentile(1000, 10), 99.0);
        assert_eq!(resolvable_percentile(10_000, 10), 99.9);
        assert_eq!(resolvable_percentile(5, 10), 0.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn rusage_reads() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
