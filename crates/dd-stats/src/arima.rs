//! ARIMA(p, d, q) time-series modeling.
//!
//! This is the prediction engine behind the "Serverless in the Wild"
//! baseline (Shahrad et al., ATC'20), which the paper applies to phase
//! concurrency in Fig. 8 — and which fails there precisely because the
//! concurrency series is (near) i.i.d. rather than temporally correlated.
//!
//! Estimation uses the Hannan–Rissanen procedure: a long autoregression
//! provides innovation estimates, then the ARMA coefficients are obtained
//! by ordinary least squares on lagged values and lagged innovations. That
//! is entirely adequate for the short, noisy series this repository feeds
//! it, and avoids iterative maximum-likelihood machinery.

use crate::linalg::{least_squares_ridge_into, least_squares_ridge_rows, LsScratch};
use crate::series::mean;

/// Order specification for an ARIMA model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArimaConfig {
    /// Autoregressive order (number of lagged values).
    pub p: usize,
    /// Degree of differencing.
    pub d: usize,
    /// Moving-average order (number of lagged innovations).
    pub q: usize,
}

impl ArimaConfig {
    /// The configuration used by the Wild baseline in this repository:
    /// ARIMA(3, 1, 1), a standard choice for bursty arrival series.
    pub fn wild_default() -> Self {
        Self { p: 3, d: 1, q: 1 }
    }
}

/// A fitted ARIMA model, ready to forecast.
#[derive(Debug, Clone, PartialEq)]
pub struct Arima {
    config: ArimaConfig,
    /// AR coefficients φ₁…φ_p on the differenced series.
    ar: Vec<f64>,
    /// MA coefficients θ₁…θ_q.
    ma: Vec<f64>,
    /// Intercept of the differenced series.
    intercept: f64,
    /// Tail of the differenced series (most recent last), for forecasting.
    diff_tail: Vec<f64>,
    /// Tail of the innovation estimates (most recent last).
    resid_tail: Vec<f64>,
    /// Last `d` levels of the original series, for integration.
    last_levels: Vec<f64>,
}

impl Arima {
    /// Fits an ARIMA model to `series` with the given orders.
    ///
    /// Returns `None` when the series is too short to estimate the
    /// requested orders (fewer than `p + q + d + 2` usable points) or the
    /// regression is singular. Callers should fall back to a mean forecast
    /// in that case (see [`Arima::forecast_or_mean`]).
    pub fn fit(series: &[f64], config: ArimaConfig) -> Option<Self> {
        let ArimaConfig { p, d, q } = config;
        if series.len() < p + q + d + 2 {
            return None;
        }

        // 1. Difference d times, remembering the last level at each stage
        //    so forecasts can be integrated back.
        let mut diff = series.to_vec();
        let mut last_levels = Vec::with_capacity(d);
        for _ in 0..d {
            last_levels.push(*diff.last().expect("non-empty by length check"));
            diff = diff.windows(2).map(|w| w[1] - w[0]).collect();
            if diff.len() < p + q + 2 {
                return None;
            }
        }

        // 2. Long autoregression for innovation estimates.
        let long = (p + q + 2).min(diff.len().saturating_sub(1)).max(1);
        let residuals = long_ar_residuals(&diff, long)?;

        // 3. OLS on p value lags and q innovation lags.
        //    Row t predicts diff[t] from diff[t−1..t−p] and resid[t−1..t−q].
        //    The design matrix is flat row-major: Wild refits an ARIMA per
        //    scheduling decision, so per-row `Vec`s here dominated the
        //    whole baseline's allocation profile.
        let start = long + p.max(q);
        if start >= diff.len() {
            return None;
        }
        let cols = 1 + p + q;
        let mut design = Vec::with_capacity((diff.len() - start) * cols);
        let mut target = Vec::with_capacity(diff.len() - start);
        for t in start..diff.len() {
            design.push(1.0);
            for lag in 1..=p {
                design.push(diff[t - lag]);
            }
            for lag in 1..=q {
                // residuals[i] estimates the innovation of diff[long + i].
                let idx = t - lag;
                design.push(residuals[idx - long]);
            }
            target.push(diff[t]);
        }
        let beta = least_squares_ridge_rows(&design, cols, &target, 1e-6).ok()?;
        if beta.iter().any(|b| !b.is_finite()) {
            return None;
        }

        let intercept = beta[0];
        let ar = beta[1..=p].to_vec();
        let ma = beta[p + 1..].to_vec();

        // Keep the tails needed to roll the recursion forward.
        let keep_v = p.max(1);
        let keep_r = q.max(1);
        let diff_tail = diff[diff.len().saturating_sub(keep_v)..].to_vec();
        let resid_tail = residuals[residuals.len().saturating_sub(keep_r)..].to_vec();

        Some(Self {
            config,
            ar,
            ma,
            intercept,
            diff_tail,
            resid_tail,
            last_levels,
        })
    }

    /// Model orders.
    pub fn config(&self) -> ArimaConfig {
        self.config
    }

    /// AR coefficients on the differenced series.
    pub fn ar_coefficients(&self) -> &[f64] {
        &self.ar
    }

    /// MA coefficients.
    pub fn ma_coefficients(&self) -> &[f64] {
        &self.ma
    }

    /// Forecasts `steps` future values of the *original* series.
    ///
    /// Future innovations are set to zero (the conditional expectation);
    /// differencing is undone against the recorded last levels.
    pub fn forecast(&self, steps: usize) -> Vec<f64> {
        let mut values = self.diff_tail.clone();
        let mut resids = self.resid_tail.clone();
        let mut diffs = Vec::with_capacity(steps);
        for _ in 0..steps {
            let mut next = self.intercept;
            for (lag, phi) in self.ar.iter().enumerate() {
                if let Some(&v) = values.get(values.len().wrapping_sub(lag + 1)) {
                    next += phi * v;
                }
            }
            for (lag, theta) in self.ma.iter().enumerate() {
                if let Some(&r) = resids.get(resids.len().wrapping_sub(lag + 1)) {
                    next += theta * r;
                }
            }
            values.push(next);
            resids.push(0.0);
            diffs.push(next);
        }

        // Integrate d times. Each integration pass undoes one differencing,
        // starting from the innermost recorded level.
        let mut out = diffs;
        for level in self.last_levels.iter().rev() {
            let mut acc = *level;
            for v in out.iter_mut() {
                acc += *v;
                *v = acc;
            }
        }
        out
    }

    /// One-step-ahead forecast of the original series.
    pub fn forecast_one(&self) -> f64 {
        self.forecast(1)[0]
    }

    /// Fits and produces a one-step forecast, falling back to the series
    /// mean when fitting is impossible. Never panics on short input; an
    /// empty series forecasts `0.0`.
    pub fn forecast_or_mean(series: &[f64], config: ArimaConfig) -> f64 {
        match Self::fit(series, config) {
            Some(model) => model.forecast_one(),
            None => mean(series),
        }
    }

    /// [`Arima::forecast_or_mean`] with every intermediate buffer drawn
    /// from `scratch` — the allocation-free path for callers that refit
    /// per scheduling decision (the Wild baseline fits tens of thousands
    /// of these per simulated run). Bit-identical to the allocating
    /// entry point: same differencing, estimation, and forecast
    /// arithmetic in the same order (pinned by unit + property tests).
    pub fn forecast_or_mean_with(
        series: &[f64],
        config: ArimaConfig,
        scratch: &mut ArimaScratch,
    ) -> f64 {
        match Self::forecast_one_with(series, config, scratch) {
            Some(f) => f,
            None => mean(series),
        }
    }

    /// The fused fit + one-step-forecast behind
    /// [`Arima::forecast_or_mean_with`]. Mirrors [`Arima::fit`] followed
    /// by [`Arima::forecast_one`], without materializing the model: the
    /// forecast reads the differenced series, residuals and recorded
    /// levels directly from the scratch buffers the fit just filled.
    /// `None` exactly when `fit` would return `None`.
    fn forecast_one_with(series: &[f64], config: ArimaConfig, s: &mut ArimaScratch) -> Option<f64> {
        let ArimaConfig { p, d, q } = config;
        if series.len() < p + q + d + 2 {
            return None;
        }

        // 1. Difference d times, in place (position k of each pass holds
        //    w[k+1] − w[k], the same value the collecting version builds).
        s.diff.clear();
        s.diff.extend_from_slice(series);
        s.levels.clear();
        for _ in 0..d {
            s.levels
                .push(*s.diff.last().expect("non-empty by length check"));
            for i in 0..s.diff.len() - 1 {
                s.diff[i] = s.diff[i + 1] - s.diff[i];
            }
            s.diff.pop();
            if s.diff.len() < p + q + 2 {
                return None;
            }
        }

        // 2. Long autoregression for innovation estimates.
        let long = (p + q + 2).min(s.diff.len().saturating_sub(1)).max(1);
        if s.diff.len() <= long {
            return None;
        }
        let cols_long = long + 1;
        s.design.clear();
        s.target.clear();
        for t in long..s.diff.len() {
            s.design.push(1.0);
            for lag in 1..=long {
                s.design.push(s.diff[t - lag]);
            }
            s.target.push(s.diff[t]);
        }
        s.resid.clear();
        match least_squares_ridge_into(
            &s.design,
            cols_long,
            &s.target,
            1e-6,
            &mut s.ls,
            &mut s.beta,
        ) {
            Ok(()) => s.resid.extend(
                s.design
                    .chunks_exact(cols_long)
                    .zip(&s.target)
                    .map(|(row, &y)| y - row.iter().zip(&s.beta).map(|(x, b)| x * b).sum::<f64>()),
            ),
            // Constant or collinear series: innovations are deviations
            // from the mean (all zero for a constant series).
            Err(_) => {
                let m = mean(&s.target);
                s.resid.extend(s.target.iter().map(|&y| y - m));
            }
        }

        // 3. OLS on p value lags and q innovation lags.
        let start = long + p.max(q);
        if start >= s.diff.len() {
            return None;
        }
        let cols = 1 + p + q;
        s.design.clear();
        s.target.clear();
        for t in start..s.diff.len() {
            s.design.push(1.0);
            for lag in 1..=p {
                s.design.push(s.diff[t - lag]);
            }
            for lag in 1..=q {
                // s.resid[i] estimates the innovation of diff[long + i].
                s.design.push(s.resid[t - lag - long]);
            }
            s.target.push(s.diff[t]);
        }
        least_squares_ridge_into(&s.design, cols, &s.target, 1e-6, &mut s.ls, &mut s.beta).ok()?;
        if s.beta.iter().any(|b| !b.is_finite()) {
            return None;
        }

        // 4. One-step forecast. `fit` keeps the last max(p, 1) diffs and
        //    max(q, 1) residuals as tails; `start < diff.len()` above
        //    guarantees both tails are fully populated, so tail slot
        //    `len − 1 − lag` is diff/resid slot `len − 1 − lag` here.
        let intercept = s.beta[0];
        let mut next = intercept;
        for (lag, phi) in s.beta[1..=p].iter().enumerate() {
            next += phi * s.diff[s.diff.len() - 1 - lag];
        }
        for (lag, theta) in s.beta[p + 1..].iter().enumerate() {
            next += theta * s.resid[s.resid.len() - 1 - lag];
        }
        // Integrate d times: one-step integration adds the innermost
        // recorded level first (IEEE addition commutes bit-for-bit, so
        // the accumulation order matches the allocating path exactly).
        for level in s.levels.iter().rev() {
            next += *level;
        }
        Some(next)
    }
}

/// Reusable buffers for [`Arima::forecast_or_mean_with`]. One instance
/// per forecasting call site; contents are overwritten on every call.
#[derive(Debug, Clone, Default)]
pub struct ArimaScratch {
    diff: Vec<f64>,
    levels: Vec<f64>,
    resid: Vec<f64>,
    design: Vec<f64>,
    target: Vec<f64>,
    beta: Vec<f64>,
    ls: LsScratch,
}

/// Fits a long AR(`order`) by OLS and returns the in-sample residuals
/// (one per predicted point, i.e. `series.len() − order` values).
fn long_ar_residuals(series: &[f64], order: usize) -> Option<Vec<f64>> {
    if series.len() <= order {
        return None;
    }
    let cols = order + 1;
    let mut design = Vec::with_capacity((series.len() - order) * cols);
    let mut target = Vec::with_capacity(series.len() - order);
    for t in order..series.len() {
        design.push(1.0);
        for lag in 1..=order {
            design.push(series[t - lag]);
        }
        target.push(series[t]);
    }
    let beta = match least_squares_ridge_rows(&design, cols, &target, 1e-6) {
        Ok(b) => b,
        // Constant or collinear series: innovations are deviations from
        // the mean, which for a constant series are all zero.
        Err(_) => {
            let m = mean(&target);
            return Some(target.iter().map(|&y| y - m).collect());
        }
    };
    Some(
        design
            .chunks_exact(cols)
            .zip(&target)
            .map(|(row, &y)| y - row.iter().zip(&beta).map(|(x, b)| x * b).sum::<f64>())
            .collect(),
    )
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;
    use crate::rng::SeedStream;
    use rand::Rng;

    #[test]
    fn too_short_series_is_none() {
        assert!(Arima::fit(&[1.0, 2.0], ArimaConfig { p: 3, d: 1, q: 1 }).is_none());
        assert!(Arima::fit(&[], ArimaConfig::wild_default()).is_none());
    }

    #[test]
    fn forecast_or_mean_falls_back() {
        let f = Arima::forecast_or_mean(&[4.0, 6.0], ArimaConfig::wild_default());
        assert!((f - 5.0).abs() < 1e-12);
        assert_eq!(
            Arima::forecast_or_mean(&[], ArimaConfig::wild_default()),
            0.0
        );
    }

    #[test]
    fn fits_linear_trend_with_differencing() {
        // x_t = 2t: after one difference the series is constant 2, so the
        // forecast must continue the line.
        let series: Vec<f64> = (0..60).map(|t| 2.0 * t as f64).collect();
        let model = Arima::fit(&series, ArimaConfig { p: 1, d: 1, q: 0 }).unwrap();
        let f = model.forecast(3);
        for (i, &v) in f.iter().enumerate() {
            let want = 2.0 * (60 + i) as f64;
            assert!((v - want).abs() < 0.5, "step {i}: {v} vs {want}");
        }
    }

    #[test]
    fn fits_ar1_process() {
        // Simulate x_t = 0.8·x_{t−1} + ε and check the AR coefficient.
        let mut rng = SeedStream::new(3).rng();
        let mut series = vec![0.0f64];
        for _ in 0..3000 {
            let eps: f64 = rng.gen::<f64>() - 0.5;
            let prev = *series.last().unwrap();
            series.push(0.8 * prev + eps);
        }
        let model = Arima::fit(&series, ArimaConfig { p: 1, d: 0, q: 0 }).unwrap();
        let phi = model.ar_coefficients()[0];
        assert!((phi - 0.8).abs() < 0.05, "phi = {phi}");
    }

    #[test]
    fn forecast_of_constant_series_is_constant() {
        let series = vec![7.0; 50];
        let f = Arima::forecast_or_mean(&series, ArimaConfig { p: 2, d: 0, q: 1 });
        assert!((f - 7.0).abs() < 1e-6, "forecast = {f}");
    }

    #[test]
    fn forecast_horizon_length() {
        let series: Vec<f64> = (0..40).map(|t| (t as f64 * 0.3).sin() + 5.0).collect();
        let model = Arima::fit(&series, ArimaConfig { p: 2, d: 0, q: 1 }).unwrap();
        assert_eq!(model.forecast(7).len(), 7);
    }

    #[test]
    fn coefficient_accessors_match_fitted_orders() {
        let series: Vec<f64> = (0..80).map(|t| (t as f64 * 0.2).cos() + 3.0).collect();
        let model = Arima::fit(&series, ArimaConfig { p: 2, d: 0, q: 1 }).unwrap();
        assert_eq!(model.ar_coefficients().len(), 2);
        assert_eq!(model.ma_coefficients().len(), 1);
        assert!(model.ma_coefficients()[0].is_finite());
    }

    #[test]
    fn iid_noise_forecast_near_mean() {
        // For i.i.d. noise the best ARIMA can do is ~the mean; verify the
        // forecast does not explode (the failure mode the paper exposes is
        // *error*, not divergence).
        let mut rng = SeedStream::new(8).rng();
        let series: Vec<f64> = (0..300)
            .map(|_| 10.0 + (rng.gen::<f64>() - 0.5) * 8.0)
            .collect();
        let f = Arima::forecast_or_mean(&series, ArimaConfig::wild_default());
        assert!((f - 10.0).abs() < 3.0, "forecast = {f}");
    }

    #[test]
    fn scratch_forecast_matches_allocating_forecast_bitwise() {
        // The fused scratch path must agree bit for bit with
        // fit + forecast_one across every fallback branch: series too
        // short, constant (singular long AR), integer-ish noise, and
        // ordinary series — with the scratch reused across all of them.
        let mut rng = SeedStream::new(77).rng();
        let mut scratch = ArimaScratch::default();
        let configs = [
            ArimaConfig::wild_default(),
            ArimaConfig { p: 1, d: 0, q: 0 },
            ArimaConfig { p: 2, d: 1, q: 2 },
            ArimaConfig { p: 0, d: 1, q: 1 },
        ];
        for case in 0..400 {
            let len = case % 60;
            let series: Vec<f64> = match case % 4 {
                0 => (0..len).map(|_| (rng.gen::<f64>() * 8.0).round()).collect(),
                1 => vec![5.0; len],
                2 => (0..len).map(|t| 2.0 * t as f64).collect(),
                _ => (0..len).map(|_| rng.gen::<f64>() * 100.0 - 50.0).collect(),
            };
            let config = configs[case % configs.len()];
            assert_eq!(
                Arima::forecast_or_mean(&series, config),
                Arima::forecast_or_mean_with(&series, config, &mut scratch),
                "case {case} (len {len}, {config:?})"
            );
        }
    }

    #[test]
    fn seasonal_pattern_partially_captured() {
        // A strongly periodic series with period 4 and p = 4: ARIMA should
        // do clearly better than the mean.
        let series: Vec<f64> = (0..200).map(|t| [1.0, 5.0, 9.0, 5.0][t % 4]).collect();
        let model = Arima::fit(&series, ArimaConfig { p: 4, d: 0, q: 0 }).unwrap();
        let f = model.forecast_one();
        // Next value (t = 200) should be 1.0.
        assert!((f - 1.0).abs() < 1.0, "forecast = {f}");
    }
}
