//! Alternative distributions: Gaussian and Poisson.
//!
//! The paper motivates its Weibull choice by noting that "the Weibull
//! distribution provides more flexibility in data modeling than other
//! distributions like Gaussian, Poisson" (Sec. III, citing Oguntunde et
//! al.). These two are implemented with the same binned-mass interface as
//! [`crate::weibull::Weibull`] so the claim can be tested head-to-head on
//! the same χ² machinery (`report distfit`).

use crate::histogram::Histogram;
use crate::weibull::gamma;

/// A normal (Gaussian) distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution; `std_dev` must be positive and both
    /// parameters finite.
    pub fn new(mean: f64, std_dev: f64) -> Option<Self> {
        (mean.is_finite() && std_dev.is_finite() && std_dev > 0.0).then_some(Self { mean, std_dev })
    }

    /// Mean μ.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation σ.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Maximum-likelihood fit (sample mean / population σ) of a histogram.
    pub fn fit(hist: &Histogram) -> Option<Self> {
        if hist.total() < 2 {
            return None;
        }
        Self::new(hist.mean(), hist.variance().sqrt())
    }

    /// Cumulative distribution Φ((x − μ)/σ).
    pub fn cdf(&self, x: f64) -> f64 {
        0.5 * (1.0 + erf((x - self.mean) / (self.std_dev * std::f64::consts::SQRT_2)))
    }

    /// Probability mass of the integer bin `[k − ½, k + ½)`, truncated at
    /// zero (concurrency is non-negative).
    pub fn bin_mass(&self, k: u32) -> f64 {
        let lo = if k == 0 {
            f64::NEG_INFINITY
        } else {
            k as f64 - 0.5
        };
        (self.cdf(k as f64 + 0.5) - if lo.is_finite() { self.cdf(lo) } else { 0.0 }).max(0.0)
    }
}

/// A Poisson distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with positive finite rate λ.
    pub fn new(lambda: f64) -> Option<Self> {
        (lambda.is_finite() && lambda > 0.0).then_some(Self { lambda })
    }

    /// Rate λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Maximum-likelihood fit (λ = sample mean).
    pub fn fit(hist: &Histogram) -> Option<Self> {
        if hist.is_empty() {
            return None;
        }
        Self::new(hist.mean())
    }

    /// Probability mass `P(X = k) = λ^k e^{−λ} / k!`, computed in log
    /// space for numeric stability at large k.
    pub fn pmf(&self, k: u32) -> f64 {
        let kf = f64::from(k);
        let ln_p = kf * self.lambda.ln() - self.lambda - ln_factorial(k);
        ln_p.exp()
    }

    /// Alias of [`Poisson::pmf`], matching the binned interface of the
    /// continuous distributions.
    pub fn bin_mass(&self, k: u32) -> f64 {
        self.pmf(k)
    }
}

/// ln(k!) via lnΓ(k + 1).
fn ln_factorial(k: u32) -> f64 {
    gamma(f64::from(k) + 1.0).ln()
}

/// Error function approximation (Abramowitz & Stegun 7.1.26, |ε| < 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// χ² statistic of a fitted distribution against an integer histogram,
/// using the same regularized form the Weibull grid search uses (so the
/// three families are directly comparable).
pub fn binned_chi2(hist: &Histogram, bin_mass: impl Fn(u32) -> f64) -> f64 {
    let len = hist.trimmed_len().max(1);
    let total = hist.total() as f64;
    let observed: Vec<f64> = hist.counts()[..len].iter().map(|&c| c as f64).collect();
    let expected: Vec<f64> = (0..len).map(|k| total * bin_mass(k as u32)).collect();
    crate::chi2::chi2_statistic_regularized(&observed, &expected, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedStream;
    use crate::weibull::Weibull;

    #[test]
    fn erf_known_values() {
        // The A&S 7.1.26 approximation is accurate to ~1.5e-7.
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!(erf(4.0) > 0.999_99);
    }

    #[test]
    fn normal_cdf_symmetry() {
        let n = Normal::new(10.0, 2.0).unwrap();
        assert!((n.cdf(10.0) - 0.5).abs() < 1e-9);
        assert!((n.cdf(12.0) + n.cdf(8.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normal_bin_masses_sum_to_one() {
        let n = Normal::new(20.0, 5.0).unwrap();
        let total: f64 = (0..200).map(|k| n.bin_mass(k)).sum();
        assert!((total - 1.0).abs() < 1e-6, "sum {total}");
    }

    #[test]
    fn poisson_pmf_sums_to_one() {
        let p = Poisson::new(9.0).unwrap();
        let total: f64 = (0..100).map(|k| p.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        // Mode near λ.
        assert!(p.pmf(9) > p.pmf(3));
        assert!(p.pmf(9) > p.pmf(20));
    }

    #[test]
    fn fits_recover_parameters() {
        let hist: Histogram = [8u32, 9, 10, 10, 11, 12, 10, 9, 11, 10]
            .into_iter()
            .collect();
        let n = Normal::fit(&hist).unwrap();
        assert!((n.mean() - 10.0).abs() < 0.2);
        let p = Poisson::fit(&hist).unwrap();
        assert!((p.lambda() - 10.0).abs() < 0.2);
    }

    #[test]
    fn degenerate_fits_are_none() {
        assert!(Normal::fit(&Histogram::new()).is_none());
        assert!(Poisson::fit(&Histogram::new()).is_none());
        assert!(Normal::new(1.0, 0.0).is_none());
        assert!(Poisson::new(-1.0).is_none());
    }

    #[test]
    fn weibull_beats_both_on_skewed_concurrency() {
        // The paper's justification, tested: on left-skewed Weibull
        // concurrency data (high shape), the Weibull fit's χ² must be
        // lower than the best Gaussian and Poisson fits.
        let truth = Weibull::new(10.0, 6.0).unwrap();
        let mut rng = SeedStream::new(3).rng();
        let hist: Histogram = (0..2_000).map(|_| truth.sample_count(&mut rng)).collect();

        let weibull_fit =
            crate::fit::fit_weibull_grid(&hist, (5.0, 15.0), (2.0, 10.0), 32).expect("weibull fit");
        let normal = Normal::fit(&hist).unwrap();
        let poisson = Poisson::fit(&hist).unwrap();

        let chi_w = binned_chi2(&hist, |k| weibull_fit.dist.bin_mass(k));
        let chi_n = binned_chi2(&hist, |k| normal.bin_mass(k));
        let chi_p = binned_chi2(&hist, |k| poisson.bin_mass(k));
        assert!(chi_w < chi_n, "weibull {chi_w:.1} vs normal {chi_n:.1}");
        assert!(chi_w < chi_p, "weibull {chi_w:.1} vs poisson {chi_p:.1}");
    }
}
