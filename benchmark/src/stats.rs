//! Summary statistics and the seeded generator behind query orders and
//! arrival mixes.

use std::time::Duration;

/// Median of a sample (NaN when empty).
pub fn median(sample: &[f64]) -> f64 {
    percentile(sample, 0.5)
}

/// Nearest-rank percentile `p` in `[0, 1]` of an unsorted sample (NaN
/// when empty).
pub fn percentile(sample: &[f64], p: f64) -> f64 {
    if sample.is_empty() {
        return f64::NAN;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Geometric mean of a sample of positive values (NaN when empty).
pub fn geomean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = sample.iter().map(|v| v.max(1e-9).ln()).sum();
    (log_sum / sample.len() as f64).exp()
}

/// Seconds as a float.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// SplitMix64: small, seedable, and identical on every platform, so one
/// `--seed` always yields the same query orders and arrival mixes.
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`, decorrelated from other uses of the same seed
    /// by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The SplitMix64 output function: a bijective 64-bit mixer.
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let s = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn shuffle_is_seeded_permutation() {
        let mut a: Vec<u32> = (1..=22).collect();
        let mut b = a.clone();
        Rng::new(7, 1).shuffle(&mut a);
        Rng::new(7, 1).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=22).collect::<Vec<u32>>());
    }
}
