//! Schedulers and runs shared by the executor unit tests.

use crate::des::SimTime;
use crate::pool::{InstanceView, PoolRequest};
use crate::sched::{PhaseObservation, Placement, RunInfo, ServerlessScheduler};
use crate::telemetry::RunOutcome;
use crate::tier::Tier;
use dd_wfdag::{LanguageRuntime, Phase, RunGenerator, Workflow, WorkflowRun, WorkflowSpec};

/// A scheduler that cold starts everything on high-end instances.
pub(crate) struct AllCold;

impl ServerlessScheduler for AllCold {
    fn name(&self) -> &'static str {
        "all-cold"
    }
    fn initial_pool(&mut self, _: &RunInfo) -> PoolRequest {
        PoolRequest::none()
    }
    fn pool_for_next_phase(&mut self, _: usize, _: &PhaseObservation) -> PoolRequest {
        PoolRequest::none()
    }
    fn place(&mut self, phase: &Phase, _: &[InstanceView], _: SimTime) -> Vec<Placement> {
        phase
            .components
            .iter()
            .map(|_| Placement {
                tier: Tier::HighEnd,
                instance: None,
            })
            .collect()
    }
}

/// Places greedily on whatever the pool offers, cold starting the rest.
pub(crate) fn place_greedily(phase: &Phase, available: &[InstanceView]) -> Vec<Placement> {
    let mut pool = available.iter();
    phase
        .components
        .iter()
        .map(|_| match pool.next() {
            Some(i) => Placement {
                tier: i.tier,
                instance: Some(i.id),
            },
            None => Placement {
                tier: Tier::HighEnd,
                instance: None,
            },
        })
        .collect()
}

/// A deterministic scheduler exercising hot pools: requests the previous
/// phase's concurrency, places greedily.
pub(crate) struct Echo;

impl ServerlessScheduler for Echo {
    fn name(&self) -> &'static str {
        "echo"
    }
    fn initial_pool(&mut self, _: &RunInfo) -> PoolRequest {
        PoolRequest::hot(4, 4)
    }
    fn pool_for_next_phase(&mut self, _: usize, obs: &PhaseObservation) -> PoolRequest {
        let last = obs.concurrency as usize;
        PoolRequest::hot(last / 2, last - last / 2)
    }
    fn place(&mut self, phase: &Phase, available: &[InstanceView], _: SimTime) -> Vec<Placement> {
        place_greedily(phase, available)
    }
}

/// A scheduler that hot starts exactly the next phase's concurrency (an
/// oracle for pool *size*, high-end only).
pub(crate) struct PerfectHot {
    pub(crate) run: WorkflowRun,
}

impl ServerlessScheduler for PerfectHot {
    fn name(&self) -> &'static str {
        "perfect-hot"
    }
    fn initial_pool(&mut self, _: &RunInfo) -> PoolRequest {
        PoolRequest::hot(self.run.phases[0].components.len(), 0)
    }
    fn pool_for_next_phase(&mut self, half_of: usize, _: &PhaseObservation) -> PoolRequest {
        PoolRequest::hot(self.run.phases[half_of + 1].components.len(), 0)
    }
    fn place(&mut self, phase: &Phase, available: &[InstanceView], _: SimTime) -> Vec<Placement> {
        place_greedily(phase, available)
    }
}

/// Run 0 of a CCL workflow scaled down by `scale`, with its runtimes.
pub(crate) fn ccl_run(scale: usize, seed: u64) -> (WorkflowRun, Vec<LanguageRuntime>) {
    let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(scale);
    let runtimes = spec.runtimes.clone();
    (RunGenerator::new(spec, seed).generate(0), runtimes)
}

/// Asserts bitwise-equal outcomes (Debug rendering is the cheap proxy).
pub(crate) fn assert_same(a: &RunOutcome, b: &RunOutcome) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
