//! Cost ledger and run outcome records.
//!
//! Everything the evaluation reads comes through here: the service cost
//! decomposition (execution + keep-alive + wasted keep-alive + storage,
//! paper Sec. IV "Evaluation Metrics"), per-phase records (prediction
//! error, pre-load success, start kinds — Figs. 13 and 16d), and resource
//! utilization (Fig. 16a–c).

use crate::faults::FaultStats;
use crate::tier::Tier;

/// The service-cost decomposition of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostLedger {
    /// Cost of instance-seconds spent starting, executing and writing.
    pub execution: f64,
    /// Keep-alive cost of pre-started instances that *were* used
    /// (from request until their component started).
    pub keep_alive_used: f64,
    /// Keep-alive cost of pre-started instances that were never used
    /// (terminated at phase start) — Fig. 16d's wasted keep-alive.
    pub keep_alive_wasted: f64,
    /// Back-end storage maintenance over the run.
    pub storage: f64,
    /// Instance-seconds burned on failed, timed-out, or superseded
    /// attempts under fault injection (`0.0` on clean runs).
    pub retry: f64,
}

impl CostLedger {
    /// Total service cost.
    pub fn total(&self) -> f64 {
        self.execution + self.keep_alive_used + self.keep_alive_wasted + self.storage + self.retry
    }

    /// Total keep-alive cost (used + wasted).
    pub fn keep_alive(&self) -> f64 {
        self.keep_alive_used + self.keep_alive_wasted
    }

    /// The ledger growth since `mark` (an earlier snapshot of the same
    /// ledger). Executors use this to attribute costs to individual
    /// phases: the run-level ledger stays the single accumulating sum
    /// (so totals are not re-derived through a different float-addition
    /// order), and each phase records the difference.
    pub fn delta_since(&self, mark: &CostLedger) -> CostLedger {
        CostLedger {
            execution: self.execution - mark.execution,
            keep_alive_used: self.keep_alive_used - mark.keep_alive_used,
            keep_alive_wasted: self.keep_alive_wasted - mark.keep_alive_wasted,
            storage: self.storage - mark.storage,
            retry: self.retry - mark.retry,
        }
    }

    /// Accumulates another ledger.
    pub fn merge(&mut self, other: &CostLedger) {
        self.execution += other.execution;
        self.keep_alive_used += other.keep_alive_used;
        self.keep_alive_wasted += other.keep_alive_wasted;
        self.storage += other.storage;
        self.retry += other.retry;
    }

    /// Debug-build conservation check: money is only ever *added* to a
    /// ledger, so every component must be finite and non-negative and the
    /// total must carry no hidden terms. Executors call this before
    /// publishing a [`RunOutcome`]; release builds compile it out.
    pub fn debug_validate(&self) {
        for (name, value) in [
            ("execution", self.execution),
            ("keep_alive_used", self.keep_alive_used),
            ("keep_alive_wasted", self.keep_alive_wasted),
            ("storage", self.storage),
            ("retry", self.retry),
        ] {
            dd_debug_invariant!(
                value.is_finite() && value >= 0.0,
                "cost ledger {name} is {value}, expected finite and non-negative"
            );
        }
        dd_debug_invariant!(
            (self.total() - (self.execution + self.keep_alive() + self.storage + self.retry)).abs()
                < 1e-9,
            "cost ledger total {} diverged from its components",
            self.total()
        );
    }
}

/// Resource utilization summary: used ÷ billed resource-seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Utilization {
    used_core_secs: f64,
    billed_core_secs: f64,
    used_mem_gb_secs: f64,
    billed_mem_gb_secs: f64,
    io_active_secs: f64,
    billed_io_secs: f64,
}

impl Utilization {
    /// Records a component execution on `tier`: `exec_secs` of useful
    /// compute inside `billed_secs` of billed instance time, with
    /// `demand_cores` / `demand_mem_gb` of demand and `io_secs` spent
    /// moving data (fetch + write).
    pub fn record_execution(
        &mut self,
        tier: Tier,
        exec_secs: f64,
        billed_secs: f64,
        demand_cores: f64,
        demand_mem_gb: f64,
        io_secs: f64,
    ) {
        self.used_core_secs += demand_cores.min(tier.vcpus()) * exec_secs;
        self.billed_core_secs += tier.vcpus() * billed_secs;
        self.used_mem_gb_secs += demand_mem_gb.min(tier.memory_gb()) * exec_secs;
        self.billed_mem_gb_secs += tier.memory_gb() * billed_secs;
        self.io_active_secs += io_secs.min(billed_secs);
        self.billed_io_secs += billed_secs;
    }

    /// Records idle billed capacity (keep-alive, or an idle cluster node):
    /// billed but unused.
    pub fn record_idle(&mut self, tier: Tier, billed_secs: f64) {
        self.billed_core_secs += tier.vcpus() * billed_secs;
        self.billed_mem_gb_secs += tier.memory_gb() * billed_secs;
        self.billed_io_secs += billed_secs;
    }

    /// CPU utilization in `[0, 1]`.
    pub fn cpu(&self) -> f64 {
        ratio(self.used_core_secs, self.billed_core_secs)
    }

    /// Memory utilization in `[0, 1]`.
    pub fn memory(&self) -> f64 {
        ratio(self.used_mem_gb_secs, self.billed_mem_gb_secs)
    }

    /// I/O bandwidth utilization in `[0, 1]`: the fraction of billed
    /// instance time actively moving data to/from back-end storage.
    pub fn io(&self) -> f64 {
        ratio(self.io_active_secs, self.billed_io_secs)
    }
}

fn ratio(used: f64, billed: f64) -> f64 {
    if billed <= 0.0 {
        0.0
    } else {
        (used / billed).clamp(0.0, 1.0)
    }
}

/// What happened in one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseRecord {
    /// Phase index.
    pub index: usize,
    /// Actual phase concurrency.
    pub concurrency: u32,
    /// Pre-started instances available at phase start (the prediction).
    pub pool_size: u32,
    /// Components started warm / hot / cold.
    pub warm_starts: u32,
    /// Hot starts.
    pub hot_starts: u32,
    /// Cold starts.
    pub cold_starts: u32,
    /// Pool instances that executed a component (successful pre-loads).
    pub used_instances: u32,
    /// Pool instances terminated unused (wasted pre-loads).
    pub wasted_instances: u32,
    /// Phase execution time (start of phase → last output in storage).
    pub exec_secs: f64,
    /// Mean per-component start-up overhead in this phase.
    pub mean_start_overhead_secs: f64,
    /// Cost accrued by this phase alone. Phase ledgers use the same
    /// [`CostLedger`] accessors as the run-level view; their `storage`
    /// component is 0 because storage maintenance is billed once for the
    /// whole run.
    pub ledger: CostLedger,
    /// Fault/recovery counters of this phase alone (all zero on clean
    /// runs), same [`FaultStats`] shape as [`RunOutcome::faults`].
    pub faults: FaultStats,
}

impl PhaseRecord {
    /// Absolute prediction error: |pool size − concurrency|.
    pub fn prediction_error(&self) -> u32 {
        self.pool_size.abs_diff(self.concurrency)
    }

    /// Keep-alive cost (used + wasted) of this phase — the per-phase
    /// analogue of [`CostLedger::keep_alive`] on the run ledger.
    pub fn keep_alive(&self) -> f64 {
        self.ledger.keep_alive()
    }

    /// Fraction of this phase's pre-loads that were successful, per the
    /// paper's definition (used ÷ requested). 1.0 when nothing was
    /// pre-started (nothing wasted).
    pub fn preload_success_fraction(&self) -> f64 {
        let total = self.used_instances + self.wasted_instances;
        if total == 0 {
            1.0
        } else {
            f64::from(self.used_instances) / f64::from(total)
        }
    }
}

/// Complete outcome of executing one run under one scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Scheduler that produced this outcome.
    pub scheduler: String,
    /// End-to-end service time (invocation → final output), seconds.
    pub service_time_secs: f64,
    /// Service-cost decomposition.
    pub ledger: CostLedger,
    /// Per-phase records.
    pub phases: Vec<PhaseRecord>,
    /// Resource utilization.
    pub utilization: Utilization,
    /// Fault-injection and recovery counters (all zero on clean runs).
    pub faults: FaultStats,
}

impl RunOutcome {
    /// Total service cost in dollars.
    pub fn service_cost(&self) -> f64 {
        self.ledger.total()
    }

    /// Mean absolute phase-concurrency prediction error (Fig. 13a).
    pub fn mean_prediction_error(&self) -> f64 {
        if self.phases.is_empty() {
            return 0.0;
        }
        self.phases
            .iter()
            .map(|p| f64::from(p.prediction_error()))
            .sum::<f64>()
            / self.phases.len() as f64
    }

    /// Mean successful pre-load fraction across phases (Fig. 13b).
    pub fn mean_preload_success(&self) -> f64 {
        if self.phases.is_empty() {
            return 0.0;
        }
        self.phases
            .iter()
            .map(PhaseRecord::preload_success_fraction)
            .sum::<f64>()
            / self.phases.len() as f64
    }

    /// Totals of (warm, hot, cold) starts over the run.
    pub fn start_counts(&self) -> (u64, u64, u64) {
        self.phases.iter().fold((0, 0, 0), |(w, h, c), p| {
            (
                w + u64::from(p.warm_starts),
                h + u64::from(p.hot_starts),
                c + u64::from(p.cold_starts),
            )
        })
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;

    #[test]
    fn ledger_totals() {
        let l = CostLedger {
            execution: 1.0,
            keep_alive_used: 0.2,
            keep_alive_wasted: 0.3,
            storage: 0.4,
            retry: 0.1,
        };
        assert!((l.total() - 2.0).abs() < 1e-12);
        assert!((l.keep_alive() - 0.5).abs() < 1e-12);
        let mut m = CostLedger::default();
        m.merge(&l);
        m.merge(&l);
        assert!((m.total() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_ratios() {
        let mut u = Utilization::default();
        // 3 demanded cores for 2 s inside 4 billed seconds on high-end,
        // with 1 s of I/O activity.
        u.record_execution(Tier::HighEnd, 2.0, 4.0, 3.0, 5.0, 1.0);
        assert!((u.cpu() - (3.0 * 2.0) / (6.0 * 4.0)).abs() < 1e-12);
        assert!((u.memory() - (5.0 * 2.0) / (10.0 * 4.0)).abs() < 1e-12);
        assert!((u.io() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn utilization_demand_capped_at_capacity() {
        let mut u = Utilization::default();
        // Demand 12 cores on a 3-core low-end instance for the full
        // billed window: utilization is exactly 1, never above.
        u.record_execution(Tier::LowEnd, 4.0, 4.0, 12.0, 50.0, 0.0);
        assert!((u.cpu() - 1.0).abs() < 1e-12);
        assert!((u.memory() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_capacity_dilutes_utilization() {
        let mut u = Utilization::default();
        u.record_execution(Tier::HighEnd, 2.0, 2.0, 6.0, 10.0, 0.0);
        assert!((u.cpu() - 1.0).abs() < 1e-12);
        u.record_idle(Tier::HighEnd, 2.0);
        assert!((u.cpu() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_utilization_is_zero() {
        let u = Utilization::default();
        assert_eq!(u.cpu(), 0.0);
        assert_eq!(u.memory(), 0.0);
        assert_eq!(u.io(), 0.0);
    }

    #[test]
    fn phase_record_metrics() {
        let p = PhaseRecord {
            index: 0,
            concurrency: 10,
            pool_size: 7,
            warm_starts: 0,
            hot_starts: 7,
            cold_starts: 3,
            used_instances: 7,
            wasted_instances: 0,
            exec_secs: 5.0,
            mean_start_overhead_secs: 1.0,
            ..PhaseRecord::default()
        };
        assert_eq!(p.prediction_error(), 3);
        assert_eq!(p.preload_success_fraction(), 1.0);

        let over = PhaseRecord {
            pool_size: 12,
            used_instances: 10,
            wasted_instances: 2,
            ..p
        };
        assert_eq!(over.prediction_error(), 2);
        assert!((over.preload_success_fraction() - 10.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn ledger_delta_since_is_fieldwise() {
        let mark = CostLedger {
            execution: 1.0,
            keep_alive_used: 0.25,
            ..Default::default()
        };
        let later = CostLedger {
            execution: 1.5,
            keep_alive_used: 0.25,
            keep_alive_wasted: 0.125,
            ..Default::default()
        };
        let d = later.delta_since(&mark);
        assert_eq!(d.execution, 0.5);
        assert_eq!(d.keep_alive_used, 0.0);
        assert_eq!(d.keep_alive_wasted, 0.125);
    }

    #[test]
    fn phase_keep_alive_matches_ledger_accessor() {
        let p = PhaseRecord {
            ledger: CostLedger {
                keep_alive_used: 0.5,
                keep_alive_wasted: 0.25,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(p.keep_alive(), p.ledger.keep_alive());
        assert_eq!(p.keep_alive(), 0.75);
    }

    #[test]
    fn outcome_aggregates() {
        let outcome = RunOutcome {
            scheduler: "test".into(),
            service_time_secs: 10.0,
            ledger: CostLedger {
                execution: 1.0,
                ..Default::default()
            },
            phases: vec![
                PhaseRecord {
                    concurrency: 5,
                    pool_size: 5,
                    hot_starts: 5,
                    used_instances: 5,
                    ..Default::default()
                },
                PhaseRecord {
                    concurrency: 8,
                    pool_size: 4,
                    hot_starts: 4,
                    cold_starts: 4,
                    used_instances: 4,
                    ..Default::default()
                },
            ],
            utilization: Utilization::default(),
            faults: FaultStats::default(),
        };
        assert!((outcome.mean_prediction_error() - 2.0).abs() < 1e-12);
        assert_eq!(outcome.start_counts(), (0, 9, 4));
        assert!((outcome.service_cost() - 1.0).abs() < 1e-12);
        assert_eq!(outcome.mean_preload_success(), 1.0);
    }

    #[test]
    fn empty_outcome_metrics() {
        let outcome = RunOutcome {
            scheduler: "x".into(),
            service_time_secs: 0.0,
            ledger: CostLedger::default(),
            phases: vec![],
            utilization: Utilization::default(),
            faults: FaultStats::default(),
        };
        assert_eq!(outcome.mean_prediction_error(), 0.0);
        assert_eq!(outcome.mean_preload_success(), 0.0);
    }
}
