//! Property-based tests of the statistics substrate.

// Exact float equality below asserts bit-reproducibility (determinism contract).
#![allow(clippy::float_cmp)]

use dd_stats::incremental::{moments_centered_grid_fit, IncrementalWeibullFit};
use dd_stats::{
    autocorrelation, chi2_p_value, chi2_statistic, fit_polynomial, fit_weibull_grid,
    fit_weibull_grid_reference, mean, normalized_chi2_error, pearson, std_dev, Histogram, Normal,
    Poisson, SeedStream, Weibull,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CDF is a valid distribution function for any parameters.
    #[test]
    fn weibull_cdf_monotone(alpha in 0.1f64..100.0, beta in 0.2f64..15.0, x in 0.0f64..500.0) {
        let w = Weibull::new(alpha, beta).unwrap();
        let c = w.cdf(x);
        prop_assert!((0.0..=1.0).contains(&c));
        prop_assert!(w.cdf(x + 1.0) >= c);
        prop_assert_eq!(w.cdf(0.0), 0.0);
    }

    /// Quantile inverts CDF for any parameters.
    #[test]
    fn weibull_quantile_inverts(alpha in 0.5f64..50.0, beta in 0.5f64..10.0, q in 0.001f64..0.999) {
        let w = Weibull::new(alpha, beta).unwrap();
        let x = w.quantile(q);
        prop_assert!((w.cdf(x) - q).abs() < 1e-9);
    }

    /// Samples fall where the CDF says they should (median check).
    #[test]
    fn weibull_median_matches(alpha in 1.0f64..40.0, beta in 0.8f64..8.0, seed in 0u64..50) {
        let w = Weibull::new(alpha, beta).unwrap();
        let mut rng = SeedStream::new(seed).rng();
        let below: usize = (0..2_000)
            .filter(|_| w.sample(&mut rng) < w.quantile(0.5))
            .count();
        // Binomial(2000, 0.5): ±5σ ≈ ±112.
        prop_assert!((888..=1112).contains(&below), "below-median count {}", below);
    }

    /// Histogram totals and means are consistent with the raw samples.
    #[test]
    fn histogram_consistency(samples in proptest::collection::vec(0u32..500, 1..200)) {
        let h: Histogram = samples.iter().copied().collect();
        prop_assert_eq!(h.total() as usize, samples.len());
        let raw_mean = samples.iter().map(|&s| f64::from(s)).sum::<f64>() / samples.len() as f64;
        prop_assert!((h.mean() - raw_mean).abs() < 1e-9);
        prop_assert_eq!(h.max_value(), samples.iter().copied().max());
        // Quantile 1.0 is the max, quantile 0.0 the min.
        prop_assert_eq!(h.quantile(1.0), samples.iter().copied().max());
        prop_assert_eq!(h.quantile(0.0), samples.iter().copied().min());
    }

    /// Merging histograms is the same as concatenating samples.
    #[test]
    fn histogram_merge_is_concat(
        a in proptest::collection::vec(0u32..100, 0..100),
        b in proptest::collection::vec(0u32..100, 0..100),
    ) {
        let mut ha: Histogram = a.iter().copied().collect();
        let hb: Histogram = b.iter().copied().collect();
        ha.merge(&hb);
        let concat: Histogram = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(ha.total(), concat.total());
        prop_assert_eq!(ha.mean(), concat.mean());
    }

    /// χ² statistic is zero iff observed == expected, non-negative always.
    #[test]
    fn chi2_nonnegative(obs in proptest::collection::vec(0.0f64..100.0, 1..50)) {
        prop_assert_eq!(chi2_statistic(&obs, &obs), 0.0);
        let shifted: Vec<f64> = obs.iter().map(|&x| x + 1.0).collect();
        prop_assert!(chi2_statistic(&obs, &shifted) >= 0.0);
    }

    /// p-values live in [0, 1] and decrease with the statistic.
    #[test]
    fn p_values_bounded(stat in 0.0f64..200.0, dof in 1usize..30) {
        let p = chi2_p_value(stat, dof);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!(chi2_p_value(stat + 10.0, dof) <= p + 1e-12);
    }

    /// Pearson correlation is symmetric, bounded, and exactly 1 on self.
    #[test]
    fn pearson_properties(xs in proptest::collection::vec(-100.0f64..100.0, 3..60)) {
        let ys: Vec<f64> = xs.iter().map(|&x| -2.0 * x + 3.0).collect();
        let r = pearson(&xs, &ys);
        prop_assert!((-1.0..=1.0).contains(&r));
        if std_dev(&xs) > 1e-6 {
            prop_assert!((pearson(&xs, &xs) - 1.0).abs() < 1e-9);
            prop_assert!((r + 1.0).abs() < 1e-6, "negated affine map must give -1, got {}", r);
        }
        prop_assert_eq!(autocorrelation(&xs, 0), 1.0);
    }

    /// A polynomial fit of degree ≥ the generating degree is near-perfect;
    /// the normalized error is always within [0, 1].
    #[test]
    fn polynomial_fit_errors_bounded(
        a in -5.0f64..5.0, b in -5.0f64..5.0, c in -5.0f64..5.0,
        n in 10usize..80,
    ) {
        let ys: Vec<f64> = (0..n).map(|i| {
            let t = i as f64;
            a + b * t + c * t * t
        }).collect();
        let rep = fit_polynomial(&ys, 2);
        prop_assert!((0.0..=1.0).contains(&rep.error));
        if std_dev(&ys) > 1e-3 {
            prop_assert!(rep.error < 1e-4, "exact quadratic must fit: {}", rep.error);
        }
        prop_assert_eq!(rep.fitted.len(), n);
    }

    /// Normalized χ² error of the mean-fit is exactly 1 for non-constant
    /// series.
    #[test]
    fn mean_fit_scores_one(ys in proptest::collection::vec(0.0f64..50.0, 3..40)) {
        let m = mean(&ys);
        let fit = vec![m; ys.len()];
        let e = normalized_chi2_error(&ys, &fit);
        if std_dev(&ys) > 1e-6 {
            prop_assert!((e - 1.0).abs() < 1e-9);
        } else {
            prop_assert!(e < 1e-9 || (e - 1.0).abs() < 1e-9);
        }
    }

    /// Normal and Poisson masses are proper distributions after fitting
    /// arbitrary histograms.
    #[test]
    fn fitted_masses_are_distributions(samples in proptest::collection::vec(0u32..60, 4..100)) {
        let h: Histogram = samples.iter().copied().collect();
        if let Some(n) = Normal::fit(&h) {
            let total: f64 = (0..400).map(|k| n.bin_mass(k)).sum();
            prop_assert!(total <= 1.0 + 1e-6);
            prop_assert!(total > 0.5, "normal mass {total}");
        }
        if let Some(p) = Poisson::fit(&h) {
            let total: f64 = (0..400).map(|k| p.bin_mass(k)).sum();
            prop_assert!((total - 1.0).abs() < 1e-6, "poisson mass {total}");
        }
    }

    /// Seed streams: identical derivations agree, sibling labels differ.
    #[test]
    fn seed_stream_determinism(seed in 0u64..10_000, idx in 0u64..1_000) {
        let a = SeedStream::new(seed).derive("x").derive_index(idx);
        let b = SeedStream::new(seed).derive("x").derive_index(idx);
        prop_assert_eq!(a.seed(), b.seed());
        let c = SeedStream::new(seed).derive("y").derive_index(idx);
        prop_assert_ne!(a.seed(), c.seed());
    }

    /// The incremental Weibull/χ² re-fit agrees with a from-scratch fit
    /// over the same observations to 1e-12 in every parameter — for any
    /// observation stream and any interleaving of record/fit calls.
    /// (The contract is in fact bit-identity; the 1e-12 tolerance is the
    /// stated API guarantee, and the exact check rides along.)
    #[test]
    fn incremental_refit_agrees_with_full_refit(
        samples in proptest::collection::vec(0u32..90, 2..180),
        fit_every in 1usize..13,
        grid_steps in 4usize..28,
    ) {
        let mut inc = IncrementalWeibullFit::new(grid_steps);
        let mut seen: Vec<u32> = Vec::new();
        for (i, &v) in samples.iter().enumerate() {
            inc.record(v);
            seen.push(v);
            if i % fit_every == 0 {
                let full = moments_centered_grid_fit(
                    &seen.iter().copied().collect(),
                    grid_steps,
                );
                let lazy = inc.fit();
                prop_assert_eq!(lazy.is_some(), full.is_some());
                if let (Some(a), Some(b)) = (lazy, full) {
                    prop_assert!((a.dist.alpha() - b.dist.alpha()).abs() <= 1e-12,
                        "alpha {} vs {}", a.dist.alpha(), b.dist.alpha());
                    prop_assert!((a.dist.beta() - b.dist.beta()).abs() <= 1e-12,
                        "beta {} vs {}", a.dist.beta(), b.dist.beta());
                    prop_assert!((a.chi2 - b.chi2).abs() <= 1e-12,
                        "chi2 {} vs {}", a.chi2, b.chi2);
                    // The stronger truth the 1e-12 guarantee rides on.
                    prop_assert_eq!(a.dist, b.dist);
                    prop_assert_eq!(a.chi2, b.chi2);
                }
            }
        }
    }

    /// Batched recording (`record_n`) is equivalent to repeated single
    /// records: the resulting fit agrees to 1e-12 (and bitwise).
    #[test]
    fn record_n_equals_repeated_records(
        pairs in proptest::collection::vec((0u32..60, 1u64..9), 1..40),
    ) {
        let mut batched = IncrementalWeibullFit::new(16);
        let mut single = IncrementalWeibullFit::new(16);
        for &(v, n) in &pairs {
            batched.record_n(v, n);
            for _ in 0..n {
                single.record(v);
            }
        }
        let a = batched.fit();
        let b = single.fit();
        prop_assert_eq!(a.is_some(), b.is_some());
        if let (Some(a), Some(b)) = (a, b) {
            prop_assert!((a.dist.alpha() - b.dist.alpha()).abs() <= 1e-12);
            prop_assert!((a.dist.beta() - b.dist.beta()).abs() <= 1e-12);
            prop_assert_eq!(a.dist, b.dist);
        }
    }
}

/// A histogram of one of three shapes built from the same draws:
/// sparse (a few counts scattered with gaps), one dominant bin over a
/// thin background, or a wide support reaching bin 400.
fn shaped_histogram(shape: u32, bins: &[(u32, u64)], dominant: (u32, u64)) -> Histogram {
    let mut hist = Histogram::new();
    match shape {
        0 => {
            for &(v, n) in bins {
                hist.record_n(v % 16 * 9, n % 4 + 1);
            }
        }
        1 => {
            hist.record_n(dominant.0, dominant.1);
            for &(v, _) in bins {
                hist.record(v % 60);
            }
        }
        _ => {
            for &(v, n) in bins {
                hist.record_n(v, n);
            }
        }
    }
    hist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The branch-and-bound χ² grid fit picks the same winner as the
    /// dense-scan oracle, bit for bit, on sparse, dominant-bin and
    /// wide-support histograms over random ranges and grid sizes.
    #[test]
    fn grid_fit_matches_dense_oracle_bitwise(
        shape in 0u32..3,
        bins in proptest::collection::vec((0u32..401, 1u64..50), 1..24),
        dominant in (0u32..60, 100u64..5_000),
        alpha in (0.2f64..10.0, 0.0f64..60.0),
        beta in (0.2f64..3.0, 0.0f64..12.0),
        steps in 2usize..30,
    ) {
        let hist = shaped_histogram(shape, &bins, dominant);
        let alpha_range = (alpha.0, alpha.0 + alpha.1);
        let beta_range = (beta.0, beta.0 + beta.1);
        let fast = fit_weibull_grid(&hist, alpha_range, beta_range, steps);
        let oracle = fit_weibull_grid_reference(&hist, alpha_range, beta_range, steps);
        prop_assert_eq!(fast.is_some(), oracle.is_some());
        if let (Some(fast), Some(oracle)) = (fast, oracle) {
            prop_assert_eq!(fast.dist.alpha().to_bits(), oracle.dist.alpha().to_bits());
            prop_assert_eq!(fast.dist.beta().to_bits(), oracle.dist.beta().to_bits());
            prop_assert_eq!(fast.chi2.to_bits(), oracle.chi2.to_bits());
            prop_assert_eq!(fast.fit_fraction.to_bits(), oracle.fit_fraction.to_bits());
        }
    }
}
