//! Process-wide simulation throughput counters.
//!
//! The repository benchmark (`perf`, `crates/dd-bench/src/bin/perf`)
//! reads them around each timed region for its `starts_per_s`,
//! `sim.starts`, `sim.des_events` and `platform.faas_des.events_per_s`
//! metrics. Both executors accumulate
//! into per-run local integers and flush here **once per run**, so the
//! hot loops never touch an atomic; the flush itself is a single relaxed
//! `fetch_add`. The counters are observability only — they never feed
//! back into simulation state, so they cannot perturb the deterministic
//! output contract.

use std::sync::atomic::{AtomicU64, Ordering};

static COMPONENT_STARTS: AtomicU64 = AtomicU64::new(0);
static DES_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Point-in-time reading of the throughput counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Serverless component starts simulated (warm + hot + cold), summed
    /// over every completed run in this process.
    pub component_starts: u64,
    /// Events popped from the DES event queue, summed over every
    /// completed DES run in this process.
    pub des_events: u64,
}

impl CounterSnapshot {
    /// Counter deltas accumulated since `earlier` was taken.
    pub fn since(self, earlier: CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            component_starts: self.component_starts - earlier.component_starts,
            des_events: self.des_events - earlier.des_events,
        }
    }
}

/// Reads both counters. Monotonic within a process.
pub fn snapshot() -> CounterSnapshot {
    CounterSnapshot {
        component_starts: COMPONENT_STARTS.load(Ordering::Relaxed),
        des_events: DES_EVENTS.load(Ordering::Relaxed),
    }
}

/// Flushes one run's component-start count. Called once per completed
/// run by both executors.
pub fn add_component_starts(n: u64) {
    if n > 0 {
        // dd-lint: allow(par-purity): relaxed monotonic counter flushed once per run; totals are read only after the parallel barrier and never feed simulated results
        COMPONENT_STARTS.fetch_add(n, Ordering::Relaxed);
    }
}

/// Flushes one run's popped-event count. Called once per completed run
/// by the DES executor.
pub fn add_des_events(n: u64) {
    if n > 0 {
        // dd-lint: allow(par-purity): relaxed monotonic counter flushed once per run; totals are read only after the parallel barrier and never feed simulated results
        DES_EVENTS.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_is_monotonic() {
        let before = snapshot();
        add_component_starts(7);
        add_des_events(3);
        let delta = snapshot().since(before);
        // Other tests in the same process may add concurrently, so the
        // delta is a lower bound, never less than what we flushed.
        assert!(delta.component_starts >= 7);
        assert!(delta.des_events >= 3);
    }

    #[test]
    fn zero_flush_is_noop() {
        let before = snapshot();
        add_component_starts(0);
        add_des_events(0);
        // No guarantee other tests didn't run in between, but at minimum
        // the call itself must not panic and must not decrease anything.
        let after = snapshot();
        assert!(after.component_starts >= before.component_starts);
        assert!(after.des_events >= before.des_events);
    }
}
