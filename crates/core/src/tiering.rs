//! High-end-friendly tracking and the two-tier pool split.
//!
//! The paper observes that the fraction of high-end-friendly components
//! (those with > 20% slowdown on a low-end instance) "remains almost the
//! same (vary by less than 5%) from one phase to the next". DayDream
//! therefore sizes the next phase's pool tiers by the fraction observed in
//! the phase before it: `N·F_{p−1}` high-end and `N·(1 − F_{p−1})` low-end
//! instances (Algorithm 1, lines 5–6).

/// Tracks the observed high-end-friendly fraction phase to phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FriendlyTracker {
    /// Fraction observed in the most recent phase (F_{p−1}).
    fraction: f64,
}

impl FriendlyTracker {
    /// Creates a tracker with a prior fraction (from workflow history, or
    /// 0.5 if nothing is known).
    pub fn new(prior: f64) -> Self {
        Self {
            fraction: prior.clamp(0.0, 1.0),
        }
    }

    /// The current estimate F_{p−1}.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// Records the fraction observed in a completed phase.
    pub fn observe(&mut self, fraction: f64) {
        self.fraction = fraction.clamp(0.0, 1.0);
    }

    /// Splits a pool of `n` instances into (high-end, low-end) counts
    /// following F_{p−1}.
    pub fn split(&self, n: u32) -> (u32, u32) {
        let he = ((f64::from(n) * self.fraction).round() as u32).min(n);
        (he, n - he)
    }
}

impl Default for FriendlyTracker {
    fn default() -> Self {
        Self::new(0.5)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;

    #[test]
    fn split_follows_fraction() {
        let t = FriendlyTracker::new(0.4);
        assert_eq!(t.split(10), (4, 6));
        assert_eq!(t.split(0), (0, 0));
        assert_eq!(t.split(1), (0, 1)); // 0.4 rounds to 0
    }

    #[test]
    fn split_extremes() {
        assert_eq!(FriendlyTracker::new(0.0).split(7), (0, 7));
        assert_eq!(FriendlyTracker::new(1.0).split(7), (7, 0));
    }

    #[test]
    fn observe_updates_and_clamps() {
        let mut t = FriendlyTracker::new(0.5);
        t.observe(0.75);
        assert_eq!(t.fraction(), 0.75);
        t.observe(3.0);
        assert_eq!(t.fraction(), 1.0);
        t.observe(-1.0);
        assert_eq!(t.fraction(), 0.0);
    }

    #[test]
    fn split_counts_always_sum() {
        for frac in [0.0, 0.13, 0.5, 0.77, 1.0] {
            let t = FriendlyTracker::new(frac);
            for n in 0..50 {
                let (he, le) = t.split(n);
                assert_eq!(he + le, n);
            }
        }
    }
}
