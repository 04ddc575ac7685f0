//! Order statistics and the seeded generator the workloads draw from.

/// The `p`-th percentile (`0.0..=100.0`) of `xs` by linear interpolation
/// between closest ranks (the "R-7" rule NumPy and spreadsheets default
/// to). `None` for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `xs`; `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// The interquartile mean of `xs`: the mean of what is left once the
/// lowest and the highest quarter (rounded down) are dropped. Like the
/// median it ignores the tails, but it moves smoothly when the samples sit
/// on a coarse grid, as daemon round trips do, where the median jumps a
/// whole step. `None` for an empty sample.
pub fn interquartile_mean(xs: &[f64]) -> Option<f64> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    (!middle.is_empty()).then(|| middle.iter().sum::<f64>() / middle.len() as f64)
}

/// How many samples lie strictly above the `p`-th percentile — a
/// percentile is reported only when at least ten do.
pub fn samples_above(xs: &[f64], p: f64) -> usize {
    percentile(xs, p).map_or(0, |q| xs.iter().filter(|&&x| x > q).count())
}

/// SplitMix64: a tiny, fully specified generator, so a seed names the same
/// inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so no value is favoured.
    pub fn below(&mut self, n: usize) -> usize {
        let n = n as u64;
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return (x % n) as usize;
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(11.0));
        assert_eq!(percentile(&xs, 95.0), Some(10.5));
        assert_eq!(percentile(&[1.0, 2.0], 25.0), Some(1.25));
        // Unsorted input and out-of-range p are handled.
        assert_eq!(percentile(&[5.0, 1.0], 150.0), Some(5.0));
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_at_each_end() {
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, -50.0]), Some(2.5));
        assert_eq!(interquartile_mean(&[7.0]), Some(7.0));
        assert_eq!(interquartile_mean(&[]), None);
        // Half the samples on one grid step, half on the next: when one
        // sample moves down a step the median jumps half a step, the mean
        // of the middle by one sample's share of a step.
        let mut xs = vec![0.03; 50];
        xs.extend(vec![0.04; 50]);
        let before = interquartile_mean(&xs).unwrap();
        assert!((median(&xs).unwrap() - 0.035).abs() < 1e-12);
        xs[50] = 0.03;
        assert!((before - interquartile_mean(&xs).unwrap() - 0.01 / 50.0).abs() < 1e-12);
        assert_eq!(median(&xs), Some(0.03));
    }

    #[test]
    fn p95_needs_two_hundred_samples_for_ten_above() {
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(samples_above(&xs, 95.0), 10);
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(samples_above(&xs, 95.0) < 10);
    }

    #[test]
    fn generator_is_deterministic_and_uniform_enough() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = SplitMix64::new(7);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[r.below(4)] += 1;
        }
        assert!(
            counts.iter().all(|&c| (800..1200).contains(&c)),
            "{counts:?}"
        );
        let mut items: Vec<u32> = (0..10).collect();
        r.shuffle(&mut items);
        items.sort_unstable();
        assert_eq!(items, (0..10).collect::<Vec<_>>());
    }
}
