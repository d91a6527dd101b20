//! The two-parameter Weibull distribution.
//!
//! The DayDream paper (Sec. III, Eq. 1) models the histogram of phase
//! concurrency with a Weibull distribution parameterized by a *scale* α and
//! a *shape* β:
//!
//! ```text
//! f(p) = (β/α) · (p/α)^(β−1) · exp(−(p/α)^β)
//! ```
//!
//! The paper reports fitted parameters (α, β) of (6, 3) for ExaFEL,
//! (10, 3.2) for Cosmoscout-VR and (10, 6) for CCL.

use rand::Rng;

/// A two-parameter Weibull distribution with scale `alpha` (α) and shape
/// `beta` (β), matching the paper's notation in Eq. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    alpha: f64,
    beta: f64,
}

/// Error constructing a [`Weibull`] with non-positive parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidWeibull;

impl std::fmt::Display for InvalidWeibull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Weibull parameters must be finite and positive")
    }
}

impl std::error::Error for InvalidWeibull {}

impl Weibull {
    /// Creates a Weibull distribution with scale `alpha` and shape `beta`.
    ///
    /// Returns an error unless both parameters are finite and positive.
    pub fn new(alpha: f64, beta: f64) -> Result<Self, InvalidWeibull> {
        if alpha.is_finite() && beta.is_finite() && alpha > 0.0 && beta > 0.0 {
            Ok(Self { alpha, beta })
        } else {
            Err(InvalidWeibull)
        }
    }

    /// Scale parameter α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Shape parameter β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Probability density `f(x)` (Eq. 1 of the paper).
    pub fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        if x == 0.0 {
            // Degenerate edge: density at 0 is finite only for β >= 1.
            return if self.beta > 1.0 {
                0.0
            } else if (self.beta - 1.0).abs() < f64::EPSILON {
                1.0 / self.alpha
            } else {
                f64::INFINITY
            };
        }
        let z = x / self.alpha;
        (self.beta / self.alpha) * z.powf(self.beta - 1.0) * (-z.powf(self.beta)).exp()
    }

    /// Cumulative distribution `F(x) = 1 − exp(−(x/α)^β)`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-(x / self.alpha).powf(self.beta)).exp()
        }
    }

    /// Quantile (inverse CDF): the `q`-th quantile for `q ∈ [0, 1)`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q), "quantile requires q in [0,1)");
        self.alpha * (-(1.0 - q).ln()).powf(1.0 / self.beta)
    }

    /// Mean `α·Γ(1 + 1/β)`.
    pub fn mean(&self) -> f64 {
        self.alpha * gamma(1.0 + 1.0 / self.beta)
    }

    /// Variance `α²·[Γ(1 + 2/β) − Γ(1 + 1/β)²]`.
    pub fn variance(&self) -> f64 {
        let g1 = gamma(1.0 + 1.0 / self.beta);
        let g2 = gamma(1.0 + 2.0 / self.beta);
        self.alpha * self.alpha * (g2 - g1 * g1)
    }

    /// Draws one continuous sample via inverse-transform sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // gen::<f64>() yields [0,1); pass it directly as the quantile so
        // the result is always finite.
        self.quantile(rng.gen::<f64>())
    }

    /// Draws one sample rounded to the nearest non-negative integer.
    ///
    /// DayDream uses this to decide *how many* serverless function
    /// instances to hot start for a phase (Algorithm 1, line 4).
    pub fn sample_count<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        self.sample(rng).round().max(0.0) as u32
    }

    /// Probability mass assigned to the integer bin `[k − 0.5, k + 0.5)`
    /// (with the `k = 0` bin truncated at zero).
    ///
    /// This discretization makes the continuous Weibull comparable to the
    /// integer histogram of phase concurrency in the χ² fit (Eq. 2).
    pub fn bin_mass(&self, k: u32) -> f64 {
        let lo = if k == 0 { 0.0 } else { k as f64 - 0.5 };
        let hi = k as f64 + 0.5;
        (self.cdf(hi) - self.cdf(lo)).max(0.0)
    }
}

/// Lanczos approximation of the gamma function Γ(x) for x > 0.
///
/// Coefficients from Lanczos (g = 7, n = 9); accurate to ~15 significant
/// digits over the range used here (arguments in (1, 3]).
pub fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula for small arguments.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedStream;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1.0)
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Weibull::new(0.0, 1.0).is_err());
        assert!(Weibull::new(1.0, -1.0).is_err());
        assert!(Weibull::new(f64::NAN, 1.0).is_err());
        assert!(Weibull::new(f64::INFINITY, 1.0).is_err());
        assert!(Weibull::new(6.0, 3.0).is_ok());
    }

    #[test]
    fn gamma_known_values() {
        assert!(close(gamma(1.0), 1.0, 1e-10));
        assert!(close(gamma(2.0), 1.0, 1e-10));
        assert!(close(gamma(3.0), 2.0, 1e-10));
        assert!(close(gamma(4.0), 6.0, 1e-10));
        assert!(close(gamma(0.5), std::f64::consts::PI.sqrt(), 1e-10));
        assert!(close(gamma(1.5), 0.5 * std::f64::consts::PI.sqrt(), 1e-10));
    }

    #[test]
    fn exponential_special_case() {
        // β = 1 reduces to Exponential(1/α): pdf(x) = (1/α)·e^(−x/α).
        let w = Weibull::new(2.0, 1.0).unwrap();
        assert!(close(w.pdf(0.0), 0.5, 1e-12));
        assert!(close(w.pdf(2.0), 0.5 * (-1.0f64).exp(), 1e-12));
        assert!(close(w.cdf(2.0), 1.0 - (-1.0f64).exp(), 1e-12));
        assert!(close(w.mean(), 2.0, 1e-10));
        assert!(close(w.variance(), 4.0, 1e-10));
    }

    #[test]
    fn rayleigh_special_case() {
        // β = 2 is the Rayleigh distribution; mean = α·√π/2.
        let w = Weibull::new(3.0, 2.0).unwrap();
        assert!(close(
            w.mean(),
            3.0 * std::f64::consts::PI.sqrt() / 2.0,
            1e-10
        ));
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let w = Weibull::new(6.0, 3.0).unwrap();
        let mut prev = 0.0;
        for i in 0..200 {
            let x = i as f64 * 0.1;
            let c = w.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev);
            prev = c;
        }
        assert!(w.cdf(1e6) > 0.999_999);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let w = Weibull::new(10.0, 3.2).unwrap();
        for q in [0.01, 0.1, 0.5, 0.9, 0.99] {
            let x = w.quantile(q);
            assert!(close(w.cdf(x), q, 1e-10));
        }
    }

    #[test]
    fn sample_mean_matches_analytic() {
        let w = Weibull::new(6.0, 3.0).unwrap();
        let mut rng = SeedStream::new(1).rng();
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| w.sample(&mut rng)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            close(sample_mean, w.mean(), 0.01),
            "sample mean {sample_mean} vs analytic {}",
            w.mean()
        );
    }

    #[test]
    fn bin_masses_sum_to_one() {
        let w = Weibull::new(10.0, 6.0).unwrap();
        let total: f64 = (0..1000).map(|k| w.bin_mass(k)).sum();
        assert!(close(total, 1.0, 1e-9), "bin masses sum to {total}");
    }

    #[test]
    fn sample_count_non_negative() {
        let w = Weibull::new(0.5, 0.7).unwrap();
        let mut rng = SeedStream::new(2).rng();
        for _ in 0..1000 {
            // Must never underflow; u32 by construction, just exercise it.
            let _ = w.sample_count(&mut rng);
        }
    }

    #[test]
    fn paper_parameters_have_sane_means() {
        // The three fitted parameter pairs reported in Fig. 9.
        let exafel = Weibull::new(6.0, 3.0).unwrap();
        let cosmoscout = Weibull::new(10.0, 3.2).unwrap();
        let ccl = Weibull::new(10.0, 6.0).unwrap();
        assert!(exafel.mean() > 4.0 && exafel.mean() < 7.0);
        assert!(cosmoscout.mean() > 8.0 && cosmoscout.mean() < 10.0);
        assert!(ccl.mean() > 8.5 && ccl.mean() < 10.0);
    }
}
