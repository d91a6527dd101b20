//! Integer-valued histograms.
//!
//! DayDream's predictor operates on the histogram of *phase concurrency*:
//! how many phases of a run had concurrency 1, 2, 3, … (paper Fig. 9).
//! [`Histogram`] is that structure — a dense count vector indexed by the
//! observed integer value.

/// A histogram over non-negative integer observations.
///
/// Counts are stored densely: `counts()[v]` is the number of observations
/// equal to `v`. The vector is grown on demand and trailing zero bins are
/// retained (callers that care can use [`Histogram::trimmed_len`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a histogram from an iterator of observations.
    pub fn from_samples<I: IntoIterator<Item = u32>>(samples: I) -> Self {
        let mut h = Self::new();
        for s in samples {
            h.record(s);
        }
        h
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u32) {
        let idx = value as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Records `n` observations of `value`.
    pub fn record_n(&mut self, value: u32, n: u64) {
        let idx = value as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.total += n;
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `true` when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The dense count vector (index = observed value).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count of observations equal to `value`.
    pub fn count(&self, value: u32) -> u64 {
        self.counts.get(value as usize).copied().unwrap_or(0)
    }

    /// Length of the count vector with trailing zero bins removed.
    pub fn trimmed_len(&self) -> usize {
        self.counts
            .iter()
            .rposition(|&c| c != 0)
            .map_or(0, |i| i + 1)
    }

    /// Largest observed value, or `None` when empty.
    pub fn max_value(&self) -> Option<u32> {
        self.counts.iter().rposition(|&c| c != 0).map(|i| i as u32)
    }

    /// Mean of the observations.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(v, &c)| v as f64 * c as f64)
            .sum();
        sum / self.total as f64
    }

    /// Population variance of the observations.
    pub fn variance(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let m = self.mean();
        let ss: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(v, &c)| {
                let d = v as f64 - m;
                d * d * c as f64
            })
            .sum();
        ss / self.total as f64
    }

    /// Relative frequencies: `counts[v] / total` for each bin.
    pub fn frequencies(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.total += other.total;
    }

    /// Iterates over `(value, count)` pairs with non-zero counts.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(v, &c)| (v as u32, c))
    }

    /// The `q`-th quantile of the observations (`q ∈ [0, 1]`), by counting
    /// up the cumulative distribution. Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u32> {
        if self.total == 0 {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile requires q in [0,1]");
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (v, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(v as u32);
            }
        }
        self.max_value()
    }
}

impl FromIterator<u32> for Histogram {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Self::from_samples(iter)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let h = Histogram::from_samples([3, 3, 1, 5]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.count(3), 2);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(5), 1);
        assert_eq!(h.count(0), 0);
        assert_eq!(h.count(100), 0);
        assert_eq!(h.max_value(), Some(5));
        assert_eq!(h.trimmed_len(), 6);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.variance(), 0.0);
        assert_eq!(h.max_value(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.trimmed_len(), 0);
    }

    #[test]
    fn mean_and_variance() {
        let h = Histogram::from_samples([2, 4, 4, 4, 5, 5, 7, 9]);
        assert!((h.mean() - 5.0).abs() < 1e-12);
        assert!((h.variance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn frequencies_sum_to_one() {
        let h = Histogram::from_samples([1, 2, 2, 3, 3, 3]);
        let sum: f64 = h.frequencies().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::from_samples([1, 2]);
        let b = Histogram::from_samples([2, 3, 10]);
        a.merge(&b);
        assert_eq!(a.total(), 5);
        assert_eq!(a.count(2), 2);
        assert_eq!(a.count(10), 1);
    }

    #[test]
    fn quantiles() {
        let h = Histogram::from_samples([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(5));
        assert_eq!(h.quantile(1.0), Some(10));
    }

    #[test]
    fn record_n_bulk() {
        let mut h = Histogram::new();
        h.record_n(4, 1000);
        assert_eq!(h.total(), 1000);
        assert_eq!(h.count(4), 1000);
        assert!((h.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn iter_nonzero_skips_gaps() {
        let h = Histogram::from_samples([0, 5, 5]);
        let pairs: Vec<_> = h.iter_nonzero().collect();
        assert_eq!(pairs, vec![(0, 1), (5, 2)]);
    }
}
