//! # dd-stats — statistics substrate for DayDream
//!
//! Every statistical mechanism the DayDream paper relies on, implemented
//! from scratch:
//!
//! * [`weibull`] — the Weibull distribution used to model phase-concurrency
//!   histograms (paper Eq. 1 and Fig. 9),
//! * [`distributions`] — the Gaussian and Poisson alternatives the paper
//!   rejects (the `distfit` experiment tests that rejection),
//! * [`histogram`] — integer histograms of phase concurrency,
//! * [`chi2`] — χ² statistics and goodness-of-fit machinery (paper Eq. 2),
//! * [`fit`] — Weibull grid-search fitting plus the polynomial, sinusoidal
//!   and logarithmic least-squares fits used in the Sec. III
//!   characterization,
//! * [`arima`] — ARIMA time-series forecasting, the prediction engine of the
//!   "Serverless in the Wild" baseline,
//! * [`series`] — descriptive statistics, Pearson correlation and
//!   autocorrelation,
//! * [`rng`] — deterministic, hierarchically seeded random number handles so
//!   every experiment is reproducible from a single seed.
//!
//! The crate is dependency-light by design (only `rand`), and all
//! numerics are `f64`.
//!
//! ```
//! use dd_stats::{fit_weibull_grid, Histogram, SeedStream, Weibull};
//!
//! // Sample a concurrency-like histogram and recover its parameters with
//! // the paper's χ² grid search (Eq. 2).
//! let truth = Weibull::new(10.0, 3.2).unwrap();
//! let mut rng = SeedStream::new(7).rng();
//! let hist: Histogram = (0..4000).map(|_| truth.sample_count(&mut rng)).collect();
//! let fit = fit_weibull_grid(&hist, (5.0, 15.0), (1.0, 6.0), 32).unwrap();
//! assert!((fit.dist.alpha() - 10.0).abs() < 1.0);
//! assert!((fit.dist.beta() - 3.2).abs() < 0.8);
//! ```

pub mod arima;
pub mod chi2;
pub mod distributions;
pub mod fit;
pub mod histogram;
pub mod incremental;
pub mod ks;
pub mod linalg;
pub mod rng;
pub mod series;
pub mod weibull;

pub use arima::{Arima, ArimaConfig, ArimaScratch};
pub use chi2::{chi2_p_value, chi2_statistic, chi2_statistic_regularized, normalized_chi2_error};
pub use distributions::{binned_chi2, Normal, Poisson};
pub use fit::{
    fit_logarithmic, fit_polynomial, fit_sinusoid, fit_weibull_grid, fit_weibull_grid_reference,
    fit_weibull_moments, FitReport, WeibullFit,
};
pub use histogram::Histogram;
pub use incremental::IncrementalWeibullFit;
pub use ks::{ks_p_value, ks_statistic};
pub use rng::SeedStream;
pub use series::{autocorrelation, mean, mean_window_correlation, pearson, std_dev, variance};
pub use weibull::Weibull;
