//! The Weibull phase-concurrency predictor (paper Eqs. 1–3).
//!
//! DayDream does not try to predict the concurrency of a *specific* phase
//! from its predecessors (that is what fails for Wild's ARIMA in Fig. 8).
//! Instead it models the *distribution* of phase concurrency:
//!
//! 1. a run starts with the historic parameters (α_h, β_h) fitted on the
//!    first run of the workflow;
//! 2. for each phase, the number of instances to hot start is a sample
//!    from the current Weibull (Eq. 1);
//! 3. after every `p_int` phases, the parameters are re-fitted to the
//!    current run's concurrency histogram by χ² grid search (Eq. 2) and
//!    averaged with the historic value and all previous interval fits
//!    (Eq. 3) — so a drifting distribution is tracked without forgetting
//!    history.

use crate::config::DayDreamConfig;
use dd_stats::incremental::moments_centered_grid_fit_memo;
use dd_stats::{Histogram, SeedStream, Weibull};
use rand::rngs::StdRng;

/// The dynamic Weibull predictor.
#[derive(Debug, Clone)]
pub struct WeibullPredictor {
    /// Historic parameters (α_h, β_h).
    historic: Weibull,
    /// Parameters fitted in each completed interval of the current run
    /// ((α_i, β_i) of Eq. 3).
    interval_fits: Vec<Weibull>,
    /// Running sums of the interval-fit parameters, maintained in push
    /// order so `current()` is O(1) instead of re-summing every phase.
    /// Each equals `interval_fits.iter().map(…).sum::<f64>()` bit for bit
    /// (same left-to-right fold from 0.0).
    fit_alpha_sum: f64,
    fit_beta_sum: f64,
    /// Histogram of phase concurrency observed in the current run.
    observed: Histogram,
    /// Phases observed since the last re-fit.
    since_refit: usize,
    /// Re-fit interval (p_int).
    phase_interval: usize,
    /// Grid resolution for re-fits.
    grid_steps: usize,
    rng: StdRng,
}

impl WeibullPredictor {
    /// Creates a predictor from historic parameters.
    pub fn new(historic: Weibull, config: &DayDreamConfig, seeds: SeedStream) -> Self {
        Self {
            historic,
            interval_fits: Vec::new(),
            fit_alpha_sum: 0.0,
            fit_beta_sum: 0.0,
            observed: Histogram::new(),
            since_refit: 0,
            phase_interval: config.phase_interval.max(1),
            grid_steps: config.fit_grid_steps.max(4),
            rng: seeds.rng_for("weibull-predictor"),
        }
    }

    /// The historic parameters this run started from.
    pub fn historic(&self) -> Weibull {
        self.historic
    }

    /// The current optimal parameters (β_n^opt, α_n^opt of Eq. 3): the
    /// mean of the historic parameters and every interval fit so far.
    pub fn current(&self) -> Weibull {
        if self.interval_fits.is_empty() {
            return self.historic;
        }
        let n = self.interval_fits.len() as f64;
        let alpha = (self.historic.alpha() + self.fit_alpha_sum) / (n + 1.0);
        let beta = (self.historic.beta() + self.fit_beta_sum) / (n + 1.0);
        Weibull::new(alpha, beta).unwrap_or(self.historic)
    }

    /// Samples the number of serverless function instances to hot start
    /// for the next phase (Algorithm 1, line 4). Never returns 0 — a phase
    /// always has at least one component.
    pub fn sample_hot_starts(&mut self) -> u32 {
        let current = self.current();
        current.sample_count(&mut self.rng).max(1)
    }

    /// Records the observed concurrency of a completed phase; re-fits the
    /// distribution when a full interval has accumulated.
    pub fn observe(&mut self, concurrency: u32) {
        self.observed.record(concurrency);
        self.since_refit += 1;
        if self.since_refit >= self.phase_interval {
            self.since_refit = 0;
            if let Some(fit) = refit(&self.observed, self.grid_steps) {
                self.fit_alpha_sum += fit.alpha();
                self.fit_beta_sum += fit.beta();
                self.interval_fits.push(fit);
            }
        }
    }

    /// Number of completed re-fit intervals.
    pub fn interval_count(&self) -> usize {
        self.interval_fits.len()
    }

    /// The histogram observed so far in this run.
    pub fn observed_histogram(&self) -> &Histogram {
        &self.observed
    }
}

/// Fits a Weibull to the observed histogram: a method-of-moments estimate
/// centers a χ² grid search (Eq. 2) at ±60% around it, which keeps the
/// grid small without assuming the workflow's concurrency scale.
/// (The kernel lives in `dd_stats::incremental` so the incremental re-fit
/// API and the predictor share one definition; the memoized entry point
/// dedupes the identical re-fit streams that experiment sweeps replay
/// across figures, vendors, and sensitivity configurations.)
pub fn refit(observed: &Histogram, grid_steps: usize) -> Option<Weibull> {
    moments_centered_grid_fit_memo(observed, grid_steps).map(|fit| fit.dist)
}

/// Fits the historic parameters from a whole run's concurrency histogram —
/// what DayDream does on the *first* run of a workflow.
pub fn fit_historic(
    concurrency: impl IntoIterator<Item = u32>,
    grid_steps: usize,
) -> Option<Weibull> {
    let hist: Histogram = concurrency.into_iter().collect();
    refit(&hist, grid_steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds() -> SeedStream {
        SeedStream::new(99)
    }

    fn predictor(historic: Weibull, p_int: usize) -> WeibullPredictor {
        let config = DayDreamConfig::default().with_phase_interval(p_int);
        WeibullPredictor::new(historic, &config, seeds())
    }

    #[test]
    fn starts_from_historic() {
        let h = Weibull::new(17.0, 3.0).unwrap();
        let p = predictor(h, 25);
        assert_eq!(p.current(), h);
        assert_eq!(p.interval_count(), 0);
    }

    #[test]
    fn samples_positive() {
        let mut p = predictor(Weibull::new(5.0, 2.0).unwrap(), 25);
        for _ in 0..500 {
            assert!(p.sample_hot_starts() >= 1);
        }
    }

    #[test]
    fn sample_mean_tracks_distribution() {
        let h = Weibull::new(90.0, 3.2).unwrap();
        let mut p = predictor(h, 25);
        let n = 2_000;
        let mean: f64 = (0..n)
            .map(|_| f64::from(p.sample_hot_starts()))
            .sum::<f64>()
            / f64::from(n);
        assert!(
            (mean - h.mean()).abs() < h.mean() * 0.05,
            "sample mean {mean:.1} vs {:.1}",
            h.mean()
        );
    }

    #[test]
    fn refits_after_interval() {
        let truth = Weibull::new(30.0, 4.0).unwrap();
        let mut rng = seeds().rng_for("gen");
        let mut p = predictor(Weibull::new(10.0, 2.0).unwrap(), 10);
        for _ in 0..10 {
            p.observe(truth.sample_count(&mut rng));
        }
        assert_eq!(p.interval_count(), 1);
        // After one interval, current = mean(historic, fit): pulled toward
        // the truth relative to the historic start.
        let cur = p.current();
        assert!(cur.alpha() > 10.0, "alpha = {}", cur.alpha());
    }

    #[test]
    fn converges_toward_shifted_distribution() {
        // Historic says α = 10 but the current run draws from α = 40:
        // after many intervals the estimate must move most of the way.
        let truth = Weibull::new(40.0, 3.0).unwrap();
        let mut rng = seeds().rng_for("gen2");
        let mut p = predictor(Weibull::new(10.0, 3.0).unwrap(), 20);
        for _ in 0..200 {
            p.observe(truth.sample_count(&mut rng));
        }
        assert_eq!(p.interval_count(), 10);
        let cur = p.current();
        assert!(
            cur.alpha() > 30.0,
            "estimate should approach 40, got α = {:.1}",
            cur.alpha()
        );
    }

    #[test]
    fn stable_distribution_estimate_stays_put() {
        // When the run matches history, re-fits must not wander.
        let truth = Weibull::new(17.0, 3.0).unwrap();
        let mut rng = seeds().rng_for("gen3");
        let mut p = predictor(truth, 25);
        for _ in 0..150 {
            p.observe(truth.sample_count(&mut rng));
        }
        let cur = p.current();
        assert!(
            (cur.alpha() - 17.0).abs() < 3.0,
            "alpha drifted to {:.1}",
            cur.alpha()
        );
        assert!(
            (cur.beta() - 3.0).abs() < 1.2,
            "beta drifted to {:.1}",
            cur.beta()
        );
    }

    #[test]
    fn fit_historic_recovers_generating_parameters() {
        let truth = Weibull::new(90.0, 3.2).unwrap();
        let mut rng = seeds().rng_for("gen4");
        let samples: Vec<u32> = (0..1_000).map(|_| truth.sample_count(&mut rng)).collect();
        let fitted = fit_historic(samples, 24).expect("fit succeeds");
        assert!(
            (fitted.alpha() - 90.0).abs() < 10.0,
            "alpha = {:.1}",
            fitted.alpha()
        );
        assert!(
            (fitted.beta() - 3.2).abs() < 1.0,
            "beta = {:.1}",
            fitted.beta()
        );
    }

    #[test]
    fn fit_historic_degenerate_is_none() {
        assert!(fit_historic(std::iter::empty(), 24).is_none());
        assert!(fit_historic([5, 5, 5, 5], 24).is_none());
    }

    #[test]
    fn refit_interval_boundary_exact() {
        let mut p = predictor(Weibull::new(10.0, 3.0).unwrap(), 5);
        let mut rng = seeds().rng_for("gen5");
        let truth = Weibull::new(10.0, 3.0).unwrap();
        for i in 1..=14 {
            p.observe(truth.sample_count(&mut rng));
            assert_eq!(p.interval_count(), i / 5, "after {i} observations");
        }
    }
}
