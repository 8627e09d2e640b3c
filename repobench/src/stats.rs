//! Order statistics and the seeded open-loop arrival schedule.

use qnn_tensor::rng::{derive_seed, seeded};

/// Fewest samples that must lie beyond a reported tail percentile.
const TAIL_SAMPLES: usize = 10;

/// Median of unsorted samples (mean of the middle pair for an even count);
/// 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least a share `q` of all samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail percentile that leaves at least [`TAIL_SAMPLES`] samples beyond
/// it: `q` itself when the sample supports it, otherwise the highest
/// nearest-rank percentile that does (the median when there are fewer
/// than 11 samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The reported value.
    pub value: f64,
    /// The percentile actually reported, in `(0, 1]`.
    pub q: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// See [`Tail`].
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(sorted: &[f64], q: f64) -> Tail {
    let n = sorted.len();
    let r = if n > TAIL_SAMPLES {
        rank(n, q).min(n - TAIL_SAMPLES)
    } else {
        rank(n, 0.5)
    };
    Tail {
        value: sorted[r - 1],
        q: r as f64 / n as f64,
        beyond: n - r,
    }
}

/// One request of an open-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, seconds after the run starts.
    pub due_s: f64,
    /// Precision tag, uniform over `0..tags`.
    pub tag: u8,
    /// Index into the image pool, uniform over `0..images`.
    pub image: usize,
}

/// `n` Poisson arrivals at `rate` per second, each with a uniformly drawn
/// tag and image. The same arguments give the same schedule.
pub fn poisson_schedule(seed: u64, rate: f64, n: usize, tags: u8, images: usize) -> Vec<Arrival> {
    let mut r = seeded(derive_seed(seed, 0xA221));
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // Inverse-CDF exponential gap; `1 - u` keeps the log finite.
            t += -(1.0 - r.next_f64()).ln() / rate;
            Arrival {
                due_s: t,
                tag: r.gen_range(0..tags),
                image: r.gen_range(0..images),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 2000 samples: p99 is rank 1980, with 20 beyond — supported.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v, 0.99);
        assert_eq!((t.value, t.beyond), (1980.0, 20));
        assert_eq!(t.q, 0.99);
        // 1000 samples: p99 would leave exactly 10 beyond — still allowed.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99).beyond, 10);
        // 500 samples: p99 (rank 495) leaves 5, so fall back to rank 490.
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = tail(&v, 0.99);
        assert_eq!((t.value, t.beyond), (490.0, 10));
        assert!(t.q < 0.99);
        // Too few samples for any tail: the median.
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99).value, 4.0);
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(7, 1000.0, 5000, 7, 64);
        assert_eq!(a, poisson_schedule(7, 1000.0, 5000, 7, 64));
        assert_ne!(a, poisson_schedule(8, 1000.0, 5000, 7, 64));
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
        assert!(a.iter().all(|x| x.tag < 7 && x.image < 64));
        // Mean rate within 5% of the target over 5000 arrivals.
        let rate = a.len() as f64 / a.last().unwrap().due_s;
        assert!((rate / 1000.0 - 1.0).abs() < 0.05, "rate {rate}");
        // Every tag drawn.
        for tag in 0..7 {
            assert!(a.iter().any(|x| x.tag == tag));
        }
    }
}
