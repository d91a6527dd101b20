//! Incremental Weibull/χ² re-fitting.
//!
//! DayDream's predictor re-fits its phase-concurrency distribution every
//! `p_int` phases. Re-scanning the full observation history each time
//! would make re-fit cost grow with run length; instead, observations
//! accumulate into a running [`Histogram`] (O(1) per observation) and the
//! grid search runs against the histogram alone. [`IncrementalWeibullFit`]
//! packages that pattern: record observations as they arrive, and the fit
//! is recomputed lazily — only when asked for *and* new observations have
//! arrived since the last fit.
//!
//! The incremental path is defined to agree with a from-scratch
//! [`moments_centered_grid_fit`] over the same observations (property
//! tests pin agreement to 1e-12; in fact the two are bit-identical, since
//! the running histogram is exactly the histogram a full re-scan would
//! build).

use crate::fit::{fit_weibull_grid, fit_weibull_moments, WeibullFit};
use crate::histogram::Histogram;
// dd-lint: allow(hash-container): memo table is point-lookup only; iteration order is never observed
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Fits a Weibull to a histogram with a χ² grid search centered on a
/// method-of-moments estimate, ±60% in each parameter (β floored at 0.2).
///
/// This is the re-fit kernel of paper Eq. 2 as DayDream's predictor uses
/// it: the moments estimate pins the scale so the grid stays small without
/// assuming the workflow's concurrency range. Returns `None` when the
/// histogram is degenerate (fewer than two distinct values).
pub fn moments_centered_grid_fit(hist: &Histogram, grid_steps: usize) -> Option<WeibullFit> {
    let center = fit_weibull_moments(hist)?;
    fit_weibull_grid(
        hist,
        (center.alpha() * 0.4, center.alpha() * 1.6),
        ((center.beta() * 0.4).max(0.2), center.beta() * 1.6),
        grid_steps,
    )
}

/// Memo key: (grid resolution, dense histogram count vector).
type FitMemoKey = (usize, Vec<u64>);

/// Process-wide memo table for [`moments_centered_grid_fit_memo`], keyed
/// by exact histogram contents. Bounded: at [`FIT_MEMO_CAP`] entries the
/// table is cleared (the memo is a pure cache, so eviction only costs
/// recomputation).
// dd-lint: allow(hash-container): memo table is point-lookup only; iteration order is never observed
static FIT_MEMO: OnceLock<Mutex<HashMap<FitMemoKey, Option<WeibullFit>>>> = OnceLock::new();
const FIT_MEMO_CAP: usize = 32_768;

/// [`moments_centered_grid_fit`], memoized process-wide.
///
/// The grid fit is a pure function of (histogram contents, grid
/// resolution), so identical inputs always return the identical — bit
/// for bit — fit, and memoization is invisible to callers. It pays off
/// because experiment sweeps re-fit the same observation streams many
/// times over: the same (workflow, run) pair recurs across figures,
/// across cloud-vendor columns (the predictor's observations don't
/// depend on the vendor), and across sensitivity configurations that
/// vary non-predictor parameters.
///
/// The key is the dense count vector itself: `Histogram` guarantees no
/// trailing zero bins, so equal observation multisets always produce
/// equal keys.
pub fn moments_centered_grid_fit_memo(hist: &Histogram, grid_steps: usize) -> Option<WeibullFit> {
    let key = (grid_steps, hist.counts().to_vec());
    // dd-lint: allow(hash-container, par-purity): memo table is point-lookup only and a hit returns exactly what recomputation would; neither iteration order nor thread interleaving is observable in results
    let memo = FIT_MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(fit) = memo
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
    {
        return *fit;
    }
    // Not held across the fit: concurrent sweep workers may race to
    // compute the same entry, but they insert identical values.
    let fit = moments_centered_grid_fit(hist, grid_steps);
    let mut guard = memo.lock().unwrap_or_else(PoisonError::into_inner);
    if guard.len() >= FIT_MEMO_CAP {
        guard.clear();
    }
    guard.insert(key, fit);
    fit
}

/// A Weibull fit maintained incrementally over a stream of observations.
///
/// `record` is O(1) (one histogram bump); `fit` re-runs the grid search
/// only when observations have arrived since the last call, so interleaved
/// record/fit patterns never pay for redundant re-fits.
#[derive(Debug, Clone)]
pub struct IncrementalWeibullFit {
    observed: Histogram,
    grid_steps: usize,
    cached: Option<WeibullFit>,
    dirty: bool,
}

impl IncrementalWeibullFit {
    /// Creates an empty incremental fit with the given grid resolution.
    pub fn new(grid_steps: usize) -> Self {
        Self {
            observed: Histogram::new(),
            grid_steps,
            cached: None,
            dirty: false,
        }
    }

    /// Records one observation. O(1); invalidates the cached fit.
    pub fn record(&mut self, value: u32) {
        self.observed.record(value);
        self.dirty = true;
    }

    /// Records `n` identical observations.
    pub fn record_n(&mut self, value: u32, n: u64) {
        if n > 0 {
            self.observed.record_n(value, n);
            self.dirty = true;
        }
    }

    /// The running observation histogram.
    pub fn observations(&self) -> &Histogram {
        &self.observed
    }

    /// Total observations recorded so far.
    pub fn count(&self) -> u64 {
        self.observed.total()
    }

    /// The current fit, recomputing only if observations arrived since the
    /// last call. `None` while the observations are too degenerate to fit.
    pub fn fit(&mut self) -> Option<WeibullFit> {
        if self.dirty {
            self.cached = moments_centered_grid_fit_memo(&self.observed, self.grid_steps);
            self.dirty = false;
        }
        self.cached
    }

    /// The last computed fit without triggering a recomputation (stale if
    /// observations arrived since the last [`fit`](Self::fit) call).
    pub fn last_fit(&self) -> Option<WeibullFit> {
        self.cached
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;
    use crate::rng::SeedStream;
    use crate::weibull::Weibull;

    #[test]
    fn incremental_matches_full_refit() {
        let truth = Weibull::new(14.0, 2.5).unwrap();
        let mut rng = SeedStream::new(41).rng();
        let mut inc = IncrementalWeibullFit::new(16);
        let mut all = Vec::new();
        for i in 0..300 {
            let v = truth.sample_count(&mut rng);
            inc.record(v);
            all.push(v);
            if i % 37 == 0 {
                let full = moments_centered_grid_fit(&all.iter().copied().collect(), 16);
                let lazy = inc.fit();
                assert_eq!(
                    lazy.map(|f| (f.dist, f.chi2)),
                    full.map(|f| (f.dist, f.chi2)),
                    "after {} observations",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn fit_is_cached_until_dirty() {
        let truth = Weibull::new(8.0, 3.0).unwrap();
        let mut rng = SeedStream::new(42).rng();
        let mut inc = IncrementalWeibullFit::new(12);
        for _ in 0..50 {
            inc.record(truth.sample_count(&mut rng));
        }
        let first = inc.fit();
        assert_eq!(inc.fit(), first, "no new data: cached result returned");
        assert_eq!(inc.last_fit(), first);
        inc.record(3);
        // New observation: the fit may change, and last_fit is stale until
        // fit() runs again.
        let _ = inc.fit();
        assert!(!inc.observations().is_empty());
    }

    #[test]
    fn degenerate_observations_fit_none() {
        let mut inc = IncrementalWeibullFit::new(12);
        assert!(inc.fit().is_none());
        inc.record_n(5, 10); // single distinct value: variance 0
        assert!(inc.fit().is_none());
        assert_eq!(inc.count(), 10);
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut inc = IncrementalWeibullFit::new(12);
        inc.record_n(4, 0);
        assert_eq!(inc.count(), 0);
        assert!(inc.observations().is_empty());
    }
}
