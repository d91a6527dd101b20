//! Order statistics and the output digest.

use std::fmt;

/// Median of `xs` (the mean of the two middle values for even lengths);
/// `None` when empty.
pub(crate) fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice: the
/// smallest sample with at least `p` % of the samples at or below it.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    Some(((p / 100.0 * n as f64).ceil() as usize).clamp(1, n))
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it — the tail a run of `n` samples can report.
pub(crate) fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| rank(n, p).is_some_and(|r| n - r >= 10))
}

/// FNV-1a, 64-bit. Implements [`fmt::Write`] so `Debug` output can be
/// hashed without building the string: for finite floats `Debug` prints
/// the shortest representation that round-trips, so equal digests mean
/// bit-equal outputs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes the `Debug` rendering of `value`.
    pub(crate) fn debug(&mut self, value: &impl fmt::Debug) {
        fmt::write(self, format_args!("{value:?}")).expect("hashing never fails");
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 150 samples (one des_replay pass): p95 has 7 beyond it, p90 15.
        assert_eq!(tail_percentile(150), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(8_000), Some(99.0));
        assert_eq!(tail_percentile(10), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(75.0));
        assert_eq!(percentile(&xs, 90.0), Some(135.0));
        assert_eq!(percentile(&xs, 100.0), Some(150.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&xs, 0.0), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fnv_matches_reference_and_debug_hashing() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut via_debug = Fnv::new();
        via_debug.debug(&(1.5f64, "x"));
        let mut direct = Fnv::new();
        direct.bytes(b"(1.5, \"x\")");
        assert_eq!(via_debug.finish(), direct.finish());
    }
}
