//! DayDream configuration.
//!
//! Every knob the paper names, with its default and quoted sensitivity:
//!
//! * `p_int = 25` — phases per re-fit interval; results change < 2% over
//!   10–100,
//! * slowdown threshold `20%` — high-end-friendly classification; results
//!   change < 3% over 5–30%,
//! * equal weights on normalized service time and cost ("DayDream gives
//!   equal weight … but it can be easily modified").

/// Tunable parameters of the DayDream scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayDreamConfig {
    /// Phases between Weibull re-fits (the paper's `p_int`).
    pub phase_interval: usize,
    /// Low-end slowdown above which a component is high-end friendly.
    pub friendly_threshold: f64,
    /// Weight on normalized service time in the joint objective.
    pub weight_time: f64,
    /// Weight on normalized service cost in the joint objective.
    pub weight_cost: f64,
    /// Grid-search resolution (points per axis) for Weibull re-fits.
    pub fit_grid_steps: usize,
    /// Maximum phase size for which the local-search optimizer runs;
    /// larger phases use the greedy Algorithm-1 policy directly.
    pub optimizer_max_components: usize,
    /// Per-phase scheduling overhead in seconds (paper: 0.028% of the
    /// 3.56 s mean component execution ≈ 1 ms).
    pub overhead_secs: f64,
    /// Ablation: force a single (high-end) tier instead of the two-tier
    /// pool, to isolate the cost benefit of low-end instances.
    pub single_tier: bool,
}

impl Default for DayDreamConfig {
    fn default() -> Self {
        Self {
            phase_interval: 25,
            friendly_threshold: 0.20,
            weight_time: 1.0,
            weight_cost: 1.0,
            fit_grid_steps: 24,
            optimizer_max_components: 128,
            overhead_secs: 0.001,
            single_tier: false,
        }
    }
}

impl DayDreamConfig {
    /// Config with a different re-fit interval (the p_int ablation).
    pub fn with_phase_interval(mut self, p_int: usize) -> Self {
        self.phase_interval = p_int.max(1);
        self
    }

    /// Config with a different friendly threshold (the 5–30% ablation).
    pub fn with_friendly_threshold(mut self, threshold: f64) -> Self {
        self.friendly_threshold = threshold;
        self
    }

    /// Config with custom objective weights.
    pub fn with_weights(mut self, time: f64, cost: f64) -> Self {
        self.weight_time = time;
        self.weight_cost = cost;
        self
    }

    /// Config with the single-tier ablation enabled.
    pub fn single_tier(mut self) -> Self {
        self.single_tier = true;
        self
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DayDreamConfig::default();
        assert_eq!(c.phase_interval, 25);
        assert!((c.friendly_threshold - 0.20).abs() < 1e-12);
        assert_eq!(c.weight_time, c.weight_cost);
        // Overhead ≈ 0.028% of 3.56 s.
        assert!((c.overhead_secs - 0.00028 * 3.56).abs() < 0.0005);
    }

    #[test]
    fn builders() {
        let c = DayDreamConfig::default()
            .with_phase_interval(50)
            .with_friendly_threshold(0.05)
            .with_weights(2.0, 1.0);
        assert_eq!(c.phase_interval, 50);
        assert_eq!(c.friendly_threshold, 0.05);
        assert_eq!(c.weight_time, 2.0);
        // Degenerate interval clamps to 1.
        assert_eq!(c.with_phase_interval(0).phase_interval, 1);
    }
}
