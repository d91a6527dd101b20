//! Cross-run learning state.
//!
//! "Typically, HPC workflows are executed multiple times as separate runs
//! with different inputs and operations" (paper Sec. III). DayDream
//! exploits that: the **first** run of a workflow fits the Weibull
//! parameters of its phase-concurrency histogram; every later run starts
//! from those historic parameters (and from the learned high-end-friendly
//! fraction) instead of from nothing.

use crate::predictor::fit_historic;
use dd_stats::Weibull;
use dd_wfdag::WorkflowRun;

/// Accumulated knowledge about a workflow across runs.
#[derive(Debug, Clone, Default)]
pub struct DayDreamHistory {
    weibull: Option<Weibull>,
    friendly_sum: f64,
    runs_learned: usize,
}

impl DayDreamHistory {
    /// Empty history (before the first run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Learns from a completed run: fits/refreshes the historic Weibull
    /// from its concurrency histogram and folds in its high-end-friendly
    /// fraction at `threshold`.
    ///
    /// The Weibull is refitted on each call from the latest run (the paper
    /// found optimal parameters vary < 10% run to run, so the most recent
    /// fit is as good as any); the friendly fraction is averaged.
    pub fn learn_from_run(&mut self, run: &WorkflowRun, threshold: f64, grid_steps: usize) {
        if let Some(w) = fit_historic(run.concurrency_series(), grid_steps) {
            self.weibull = Some(w);
        }
        let fractions: Vec<f64> = run
            .phases
            .iter()
            .map(|p| p.high_end_friendly_fraction(threshold))
            .collect();
        self.friendly_sum += dd_stats::mean(&fractions);
        self.runs_learned += 1;
    }

    /// The historic Weibull parameters (α_h, β_h), if any run has been
    /// learned.
    pub fn historic_weibull(&self) -> Option<Weibull> {
        self.weibull
    }

    /// Prior estimate of the high-end-friendly fraction (0.5 when no runs
    /// have been learned).
    pub fn friendly_prior(&self) -> f64 {
        if self.runs_learned == 0 {
            0.5
        } else {
            self.friendly_sum / self.runs_learned as f64
        }
    }

    /// Number of runs learned from.
    pub fn runs_learned(&self) -> usize {
        self.runs_learned
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;
    use dd_wfdag::{RunGenerator, Workflow, WorkflowSpec};

    #[test]
    fn empty_history_defaults() {
        let h = DayDreamHistory::new();
        assert!(h.historic_weibull().is_none());
        assert_eq!(h.friendly_prior(), 0.5);
        assert_eq!(h.runs_learned(), 0);
    }

    #[test]
    fn learns_distribution_from_run() {
        let gen = RunGenerator::new(WorkflowSpec::new(Workflow::Ccl), 5);
        let run = gen.generate(0);
        let mut h = DayDreamHistory::new();
        h.learn_from_run(&run, 0.2, 24);
        let w = h.historic_weibull().expect("fit succeeds");
        // CCL raw concurrency ≈ Weibull(α ≈ 9.7, β = 6).
        assert!(
            (w.mean() - 9.0).abs() < 3.0,
            "historic mean {:.1} should approximate CCL's ~9",
            w.mean()
        );
        assert_eq!(h.runs_learned(), 1);
        // Friendly prior reflects the catalog's ~40%.
        assert!((0.25..=0.55).contains(&h.friendly_prior()));
    }

    #[test]
    fn friendly_prior_averages_runs() {
        let gen = RunGenerator::new(WorkflowSpec::new(Workflow::Ccl).scaled_down(8), 5);
        let mut h = DayDreamHistory::new();
        for i in 0..3 {
            h.learn_from_run(&gen.generate(i), 0.2, 16);
        }
        assert_eq!(h.runs_learned(), 3);
        assert!((0.2..=0.6).contains(&h.friendly_prior()));
    }
}
