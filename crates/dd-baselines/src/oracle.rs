//! The Oracle: perfect, practically infeasible scheduling.
//!
//! "It hot starts the exact number of serverless function instances as the
//! phase concurrency to avoid any cold starts and cost wastage … it
//! provides the upper bound on performance and cost benefits" (paper
//! Sec. IV). The Oracle is constructed with the full run — knowledge no
//! real scheduler has — and requests, for every phase, exactly one
//! instance per component.
//!
//! Tier choice is also clairvoyant: high-end-friendly components get
//! high-end instances, and a non-friendly component is *upgraded* to
//! high-end whenever its low-end completion time would stretch the phase
//! beyond the all-high-end makespan — low-end savings must never extend
//! service time (the Oracle "minimizes both service time and service
//! cost").

use dd_platform::pool::PoolEntryRequest;
use dd_platform::{
    InstanceView, PhaseObservation, Placement, PoolRequest, RunInfo, ServerlessScheduler, SimTime,
    StartupModel, Tier,
};
use dd_wfdag::{Phase, WorkflowRun};

/// The clairvoyant scheduler: exact hot starts per phase.
#[derive(Debug, Clone)]
pub struct OracleScheduler {
    run: WorkflowRun,
    friendly_threshold: f64,
    startup: StartupModel,
}

impl OracleScheduler {
    /// Crate-internal constructor the registry's [`crate::OraclePolicy`]
    /// builds through.
    pub(crate) fn build(run: WorkflowRun, friendly_threshold: f64) -> Self {
        Self {
            run,
            friendly_threshold,
            startup: StartupModel::aws(),
        }
    }

    /// Per-component tier plan for a phase: friendly components high-end;
    /// non-friendly components low-end unless that would lengthen the
    /// phase past the all-high-end makespan.
    fn tier_plan(&self, phase: &Phase) -> Vec<Tier> {
        let he_time = |c: &dd_wfdag::ComponentInstance| {
            self.startup.hot_overhead_secs(c, Tier::HighEnd)
                + c.exec_he_secs
                + self.startup.output_write_secs(c, Tier::HighEnd)
        };
        let le_time = |c: &dd_wfdag::ComponentInstance| {
            self.startup.hot_overhead_secs(c, Tier::LowEnd)
                + c.exec_le_secs
                + self.startup.output_write_secs(c, Tier::LowEnd)
        };
        let he_makespan = phase.components.iter().map(he_time).fold(0.0f64, f64::max);
        phase
            .components
            .iter()
            .map(|c| {
                if c.is_high_end_friendly(self.friendly_threshold) || le_time(c) > he_makespan {
                    Tier::HighEnd
                } else {
                    Tier::LowEnd
                }
            })
            .collect()
    }

    /// Exact pool for phase `index`: one hot instance per component, on
    /// its planned tier.
    fn exact_pool(&self, index: usize) -> PoolRequest {
        let Some(phase) = self.run.phases.get(index) else {
            return PoolRequest::none();
        };
        PoolRequest {
            entries: self
                .tier_plan(phase)
                .into_iter()
                .map(|tier| PoolEntryRequest {
                    tier,
                    preload: None,
                })
                .collect(),
        }
    }
}

impl ServerlessScheduler for OracleScheduler {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn initial_pool(&mut self, _: &RunInfo) -> PoolRequest {
        self.exact_pool(0)
    }

    fn pool_for_next_phase(&mut self, half_of: usize, _: &PhaseObservation) -> PoolRequest {
        self.exact_pool(half_of + 1)
    }

    fn place(&mut self, phase: &Phase, available: &[InstanceView], _: SimTime) -> Vec<Placement> {
        // The pool was requested to match this phase's tier plan exactly:
        // pair each component with an instance of its planned tier.
        let mut he: Vec<&InstanceView> = available
            .iter()
            .filter(|i| i.tier == Tier::HighEnd)
            .collect();
        let mut le: Vec<&InstanceView> = available
            .iter()
            .filter(|i| i.tier == Tier::LowEnd)
            .collect();
        self.tier_plan(phase)
            .into_iter()
            .map(|tier| {
                let pool = if tier == Tier::HighEnd {
                    &mut he
                } else {
                    &mut le
                };
                match pool.pop().or_else(|| he.pop()).or_else(|| le.pop()) {
                    Some(inst) => Placement {
                        tier: inst.tier,
                        instance: Some(inst.id),
                    },
                    // Unreachable when the pool matches the phase, but the
                    // Oracle stays total for robustness (e.g. pool caps).
                    None => Placement {
                        tier: Tier::HighEnd,
                        instance: None,
                    },
                }
            })
            .collect()
    }

    fn overhead_secs(&self) -> f64 {
        // The Oracle needs no prediction machinery at all.
        0.0
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;
    use dd_platform::FaasExecutor;
    use dd_platform::{Executor, RunRequest};
    use dd_wfdag::{RunGenerator, Workflow, WorkflowSpec};

    fn setup() -> (WorkflowRun, Vec<dd_wfdag::LanguageRuntime>) {
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(10);
        let runtimes = spec.runtimes.clone();
        (RunGenerator::new(spec, 2).generate(0), runtimes)
    }

    #[test]
    fn oracle_never_cold_never_wastes() {
        let (run, runtimes) = setup();
        let mut oracle = OracleScheduler::build(run.clone(), 0.20);
        let outcome = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut oracle))
            .into_outcome();
        let (w, h, c) = outcome.start_counts();
        assert_eq!(w, 0);
        assert_eq!(c, 0, "oracle must not cold start");
        assert_eq!(h as usize, run.total_components());
        assert_eq!(outcome.ledger.keep_alive_wasted, 0.0);
        assert_eq!(outcome.mean_prediction_error(), 0.0);
        assert_eq!(outcome.mean_preload_success(), 1.0);
    }

    #[test]
    fn low_end_never_extends_the_phase() {
        // The dominance rule: every low-end placement completes within
        // the all-high-end makespan.
        let (run, _) = setup();
        let oracle = OracleScheduler::build(run.clone(), 0.20);
        let startup = StartupModel::aws();
        for phase in &run.phases {
            let plan = oracle.tier_plan(phase);
            let he_makespan = phase
                .components
                .iter()
                .map(|c| {
                    startup.hot_overhead_secs(c, Tier::HighEnd)
                        + c.exec_he_secs
                        + startup.output_write_secs(c, Tier::HighEnd)
                })
                .fold(0.0f64, f64::max);
            for (c, tier) in phase.components.iter().zip(&plan) {
                if *tier == Tier::LowEnd {
                    let t = startup.hot_overhead_secs(c, Tier::LowEnd)
                        + c.exec_le_secs
                        + startup.output_write_secs(c, Tier::LowEnd);
                    assert!(
                        t <= he_makespan + 1e-9,
                        "low-end placement ({t:.2}s) extends the phase ({he_makespan:.2}s)"
                    );
                }
            }
        }
    }

    #[test]
    fn mismatched_pool_degrades_gracefully() {
        // An Oracle built for a *different* run still returns valid
        // placements (cold-starting when the pool runs short).
        let (run, runtimes) = setup();
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(10);
        let other = RunGenerator::new(spec, 999).generate(7);
        let mut oracle = OracleScheduler::build(other, 0.20);
        let outcome = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut oracle))
            .into_outcome();
        assert_eq!(outcome.phases.len(), run.phase_count());
    }
}
