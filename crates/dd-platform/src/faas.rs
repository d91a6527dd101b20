//! The serverless platform executor.
//!
//! [`FaasExecutor`] walks a [`WorkflowRun`] phase by phase, exactly as the
//! paper's three-level stack does (Sec. IV):
//!
//! 1. at phase start the DAG scheduler places each component on a pooled
//!    (hot/warm) instance or cold starts a fresh one;
//! 2. components run in parallel, each in its own microVM; outputs land in
//!    the back-end store;
//! 3. when **half** of the phase's outputs are present, the store notifies
//!    the scheduler, which requests the next phase's pool (hot starts
//!    begin booting in the background);
//! 4. when **all** outputs are present, unused pool instances were already
//!    terminated at placement time (Algorithm 1 line 11) and the next
//!    phase starts.
//!
//! Placement, dispatch and the phase books are the shared
//! `kernel` module. This executor only advances time, analytically:
//! microVMs don't preempt each other, so finish times are known at
//! dispatch and each phase's notifications are order statistics of them.

use crate::des::SimTime;
use crate::executor::{Executor, RunReport, RunRequest};
use crate::faults::{FaultConfig, RecoveryPolicy};
use crate::kernel::{self, Scratch};
use crate::pricing::{CloudVendor, PriceSheet};
use crate::startup::StartupModel;

/// When the next phase's pool request is issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolTrigger {
    /// When half of the current phase's outputs are in storage —
    /// DayDream's design (Sec. IV).
    HalfPhase,
    /// Only when the phase fully completes (ablation: hot starts then
    /// race the next phase's start and may not be ready).
    PhaseComplete,
}

/// Executor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaasConfig {
    /// Cloud vendor (scales start-up latencies and prices).
    pub vendor: CloudVendor,
    /// Slowdown threshold classifying high-end-friendly components
    /// (paper: 20%, with <3% sensitivity over 5–30%).
    pub friendly_threshold: f64,
    /// Provisioned concurrency: hard cap on pool size (paper: 1000).
    pub provisioned_concurrency: usize,
    /// When the next phase's pool is requested.
    pub trigger: PoolTrigger,
    /// Maximum concurrently *executing* instances the platform grants.
    /// The paper provisions 1000 "so that upon invocation of a component
    /// there is always a function instance available … and no wait time
    /// is incurred"; lowering this models a constrained account limit —
    /// excess components wait for a slot (`report concurrency`).
    pub invocation_limit: usize,
    /// Fault-injection rates and seed (all zero = the paper's clean
    /// environment; the engine is then a strict no-op).
    pub faults: FaultConfig,
    /// What the platform does about faulty attempts (retry backoff,
    /// timeout, speculation). Irrelevant while `faults` is clean.
    pub recovery: RecoveryPolicy,
}

impl Default for FaasConfig {
    fn default() -> Self {
        Self {
            vendor: CloudVendor::Aws,
            friendly_threshold: 0.20,
            provisioned_concurrency: 1_000,
            trigger: PoolTrigger::HalfPhase,
            invocation_limit: 1_000,
            faults: FaultConfig::none(),
            recovery: RecoveryPolicy::backoff(),
        }
    }
}

/// The serverless platform simulator.
#[derive(Debug, Clone)]
pub struct FaasExecutor {
    pricing: PriceSheet,
    startup: StartupModel,
    config: FaasConfig,
}

impl FaasExecutor {
    /// Creates an executor for the configured vendor with calibrated
    /// pricing and start-up models.
    pub fn new(config: FaasConfig) -> Self {
        Self {
            pricing: PriceSheet::for_vendor(config.vendor),
            startup: StartupModel::aws().with_vendor_multiplier(config.vendor.startup_multiplier()),
            config,
        }
    }

    /// AWS executor with paper-default configuration.
    pub fn aws() -> Self {
        Self::new(FaasConfig::default())
    }

    /// The active price sheet.
    pub fn pricing(&self) -> &PriceSheet {
        &self.pricing
    }

    /// The active start-up model.
    pub fn startup(&self) -> &StartupModel {
        &self.startup
    }

    /// The active configuration.
    pub fn config(&self) -> &FaasConfig {
        &self.config
    }
}

impl Executor for FaasExecutor {
    /// Runs the phases back to back. Finish times are known at dispatch,
    /// so each phase's storage notifications are two order statistics of
    /// them: the trigger-rank-th smallest and the largest.
    fn run(&mut self, req: RunRequest<'_>) -> RunReport {
        let mut finishes = Vec::new();
        kernel::execute(self, &mut Scratch::default(), req, |k| {
            let mut at = SimTime::ZERO;
            for phase in 0..k.phase_count() {
                finishes.clear();
                let now = k.start_phase(phase, at, |finish| finishes.push(finish));
                let (rank, n) = (k.trigger_rank(), finishes.len());
                // rank < n implies rank >= 1: the trigger fires before the
                // last output, so it needs its own order statistic.
                if rank < n {
                    let (_, &mut trigger, _) = finishes.select_nth_unstable(rank - 1);
                    k.outputs_in(rank, trigger);
                }
                at = finishes.iter().copied().fold(now, SimTime::max);
                k.outputs_in(n, at);
            }
        })
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;
    use crate::pool::{InstanceView, PoolRequest};
    use crate::sched::{PhaseObservation, Placement, RunInfo, ServerlessScheduler};
    use crate::test_support::{ccl_run, place_greedily, AllCold, PerfectHot};
    use dd_wfdag::{LanguageRuntime, Phase, WorkflowRun};

    fn small_run() -> (WorkflowRun, Vec<LanguageRuntime>) {
        ccl_run(10, 7)
    }

    #[test]
    fn all_cold_run_completes() {
        let (run, runtimes) = small_run();
        let outcome = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        assert_eq!(outcome.phases.len(), run.phase_count());
        assert!(outcome.service_time_secs > 0.0);
        assert!(outcome.ledger.execution > 0.0);
        assert_eq!(outcome.ledger.keep_alive_used, 0.0);
        assert_eq!(outcome.ledger.keep_alive_wasted, 0.0);
        let (w, h, c) = outcome.start_counts();
        assert_eq!(w, 0);
        assert_eq!(h, 0);
        assert_eq!(c as usize, run.total_components());
    }

    #[test]
    fn perfect_hot_beats_all_cold_on_time() {
        let (run, runtimes) = small_run();
        let mut exec = FaasExecutor::aws();
        let cold = exec
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        let hot = exec
            .run(RunRequest::new(
                &run,
                &runtimes,
                &mut PerfectHot { run: run.clone() },
            ))
            .into_outcome();
        assert!(
            hot.service_time_secs < cold.service_time_secs,
            "hot {:.1}s vs cold {:.1}s",
            hot.service_time_secs,
            cold.service_time_secs
        );
        // Perfect sizing wastes nothing.
        assert_eq!(hot.ledger.keep_alive_wasted, 0.0);
        assert_eq!(hot.mean_prediction_error(), 0.0);
        assert_eq!(hot.mean_preload_success(), 1.0);
    }

    #[test]
    fn phase_times_sum_to_service_time() {
        let (run, runtimes) = small_run();
        let mut sched = AllCold;
        let outcome = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut sched))
            .into_outcome();
        let phase_sum: f64 = outcome.phases.iter().map(|p| p.exec_secs).sum();
        let overheads = run.phase_count() as f64 * sched.overhead_secs();
        assert!(
            (phase_sum + overheads - outcome.service_time_secs).abs() < 1e-6,
            "phases {phase_sum} + overhead {overheads} vs service {}",
            outcome.service_time_secs
        );
    }

    #[test]
    fn storage_cost_scales_with_time() {
        let (run, runtimes) = small_run();
        let mut exec = FaasExecutor::aws();
        let outcome = exec
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        let want = exec.pricing().storage_per_sec * outcome.service_time_secs;
        assert!((outcome.ledger.storage - want).abs() < 1e-12);
    }

    #[test]
    fn provisioned_concurrency_caps_pool() {
        let (run, runtimes) = small_run();
        let mut exec = FaasExecutor::new(FaasConfig {
            provisioned_concurrency: 2,
            ..FaasConfig::default()
        });

        /// Requests an absurd pool; the cap must hold it to 2.
        struct Greedy;
        impl ServerlessScheduler for Greedy {
            fn name(&self) -> &'static str {
                "greedy"
            }
            fn initial_pool(&mut self, _: &RunInfo) -> PoolRequest {
                PoolRequest::hot(10_000, 0)
            }
            fn pool_for_next_phase(&mut self, _: usize, _: &PhaseObservation) -> PoolRequest {
                PoolRequest::hot(10_000, 0)
            }
            fn place(
                &mut self,
                phase: &Phase,
                available: &[InstanceView],
                _: SimTime,
            ) -> Vec<Placement> {
                place_greedily(phase, available)
            }
        }

        let outcome = exec
            .run(RunRequest::new(&run, &runtimes, &mut Greedy))
            .into_outcome();
        for p in &outcome.phases {
            assert!(p.pool_size <= 2, "pool {} exceeds cap", p.pool_size);
        }
    }

    #[test]
    #[should_panic(expected = "placements")]
    fn wrong_placement_count_panics() {
        struct Broken;
        impl ServerlessScheduler for Broken {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn initial_pool(&mut self, _: &RunInfo) -> PoolRequest {
                PoolRequest::none()
            }
            fn pool_for_next_phase(&mut self, _: usize, _: &PhaseObservation) -> PoolRequest {
                PoolRequest::none()
            }
            fn place(&mut self, _: &Phase, _: &[InstanceView], _: SimTime) -> Vec<Placement> {
                vec![]
            }
        }
        let (run, runtimes) = small_run();
        let _ = FaasExecutor::aws().run(RunRequest::new(&run, &runtimes, &mut Broken));
    }

    #[test]
    fn vendor_multiplier_slows_service_time() {
        let (run, runtimes) = small_run();
        let aws = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        let azure = FaasExecutor::new(FaasConfig {
            vendor: CloudVendor::Azure,
            ..FaasConfig::default()
        })
        .run(RunRequest::new(&run, &runtimes, &mut AllCold))
        .into_outcome();
        assert!(
            azure.service_time_secs > aws.service_time_secs,
            "azure {:.1}s vs aws {:.1}s",
            azure.service_time_secs,
            aws.service_time_secs
        );
    }
}
