//! The DayDream scheduler: Algorithm 1 wired into the platform callbacks.
//!
//! Per phase (paper Algorithm 1):
//!
//! 1. compute the current Weibull parameters (β_n^opt, α_n^opt — Eq. 3),
//! 2. sample N_f(p), the number of instances to hot start,
//! 3. split the pool by the previous phase's high-end-friendly fraction
//!    F_{p−1}: `N·F` high-end + `N·(1−F)` low-end hot starts,
//! 4. at phase start, place components on the pool via the joint
//!    time/cost optimizer; components beyond the pool cold start on
//!    high-end instances,
//! 5. surplus instances are terminated by the platform (wasted
//!    keep-alive).
//!
//! Hot starts for phase p+1 are requested when **half** of phase p's
//! components have finished — the platform's storage-notification trigger.

use crate::config::DayDreamConfig;
use crate::history::DayDreamHistory;
use crate::optimizer::{ObjectiveWeights, PlacementOptimizer};
use crate::predictor::WeibullPredictor;
use crate::tiering::FriendlyTracker;
use dd_platform::pricing::PriceSheet;
use dd_platform::{
    CloudVendor, InstanceView, PhaseObservation, Placement, PoolRequest, RunInfo, SchedulerEvent,
    ServerlessScheduler, SimTime, StartupModel,
};
use dd_stats::{SeedStream, Weibull};
use dd_wfdag::{LanguageRuntime, Phase};

/// The DayDream scheduler.
///
/// Build one per run via [`DayDreamScheduler::new`]; the cross-run state
/// lives in [`DayDreamHistory`].
#[derive(Debug, Clone)]
pub struct DayDreamScheduler {
    config: DayDreamConfig,
    predictor: WeibullPredictor,
    tracker: FriendlyTracker,
    optimizer: PlacementOptimizer,
    runtimes: Vec<LanguageRuntime>,
    // Write-only observability buffer (see `ServerlessScheduler::
    // set_event_recording`): decisions never read it.
    record_events: bool,
    events: Vec<SchedulerEvent>,
}

/// Bootstrap prior used when no history exists yet (the first run of a
/// workflow): a deliberately wide distribution that the dynamic re-fits
/// (every `p_int` phases) quickly pull toward the run's real one.
fn bootstrap_prior() -> Weibull {
    Weibull::new(10.0, 1.5).expect("static parameters")
}

impl DayDreamScheduler {
    /// Creates a scheduler from workflow history for the given vendor.
    pub fn new(
        history: &DayDreamHistory,
        config: DayDreamConfig,
        vendor: CloudVendor,
        seeds: SeedStream,
    ) -> Self {
        let historic = history.historic_weibull().unwrap_or_else(bootstrap_prior);
        let startup = StartupModel::aws().with_vendor_multiplier(vendor.startup_multiplier());
        let pricing = PriceSheet::for_vendor(vendor);
        Self {
            predictor: WeibullPredictor::new(historic, &config, seeds.derive("daydream")),
            tracker: FriendlyTracker::new(history.friendly_prior()),
            optimizer: PlacementOptimizer::new(
                startup,
                pricing,
                ObjectiveWeights {
                    time: config.weight_time,
                    cost: config.weight_cost,
                },
                config.friendly_threshold,
                config.optimizer_max_components,
            ),
            config,
            runtimes: Vec::new(),
            record_events: false,
            events: Vec::new(),
        }
    }

    /// AWS scheduler with default configuration.
    pub fn aws(history: &DayDreamHistory, seeds: SeedStream) -> Self {
        Self::new(history, DayDreamConfig::default(), CloudVendor::Aws, seeds)
    }

    /// The predictor's current Weibull parameters (for inspection).
    pub fn current_distribution(&self) -> Weibull {
        self.predictor.current()
    }

    /// The current high-end-friendly fraction estimate F_{p−1}.
    pub fn friendly_fraction(&self) -> f64 {
        self.tracker.fraction()
    }

    /// Samples a pool request: N ~ current Weibull, split by F_{p−1}
    /// (all high-end under the single-tier ablation).
    fn sample_pool(&mut self) -> PoolRequest {
        let n = self.predictor.sample_hot_starts();
        if self.config.single_tier {
            return PoolRequest::hot(n as usize, 0);
        }
        let (he, le) = self.tracker.split(n);
        if self.record_events {
            self.events.push(SchedulerEvent::TierSplit {
                pool: n,
                high_end: he,
                low_end: le,
            });
        }
        PoolRequest::hot(he as usize, le as usize)
    }
}

impl ServerlessScheduler for DayDreamScheduler {
    fn name(&self) -> &'static str {
        "daydream"
    }

    fn initial_pool(&mut self, info: &RunInfo) -> PoolRequest {
        self.runtimes = info.runtimes.clone();
        self.sample_pool()
    }

    fn pool_for_next_phase(
        &mut self,
        _half_of: usize,
        observed_so_far: &PhaseObservation,
    ) -> PoolRequest {
        // The observation feeds the predictor here (not in
        // `observe_phase`) so the *next* phase's sample already reflects
        // it; each phase is observed exactly once.
        let fits_before = self.predictor.interval_count();
        self.predictor.observe(observed_so_far.concurrency);
        if self.record_events && self.predictor.interval_count() > fits_before {
            let current = self.predictor.current();
            self.events.push(SchedulerEvent::WeibullRefit {
                alpha: current.alpha(),
                beta: current.beta(),
                intervals: self.predictor.interval_count(),
            });
        }
        self.tracker.observe(observed_so_far.friendly_fraction);
        let mut request = self.sample_pool();
        // Retry-aware headroom: when the previous phase needed recovery
        // (fault-injected retries / speculation), pad the pool with a few
        // extra high-end hot starts — bounded by a quarter of the sampled
        // pool so a pathological phase cannot blow the keep-alive bill.
        // With fault injection off `retried_components` is always zero and
        // this is a strict no-op.
        let headroom = (observed_so_far.retried_components as usize).min(request.entries.len() / 4);
        for _ in 0..headroom {
            request.entries.push(dd_platform::PoolEntryRequest {
                tier: dd_platform::Tier::HighEnd,
                preload: None,
            });
        }
        request
    }

    fn place(&mut self, phase: &Phase, available: &[InstanceView], now: SimTime) -> Vec<Placement> {
        self.optimizer.place(phase, available, now, &self.runtimes)
    }

    fn overhead_secs(&self) -> f64 {
        self.config.overhead_secs
    }

    fn set_event_recording(&mut self, enabled: bool) {
        self.record_events = enabled;
        if enabled {
            self.events.clear();
        }
    }

    fn drain_events(&mut self) -> Vec<SchedulerEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_platform::FaasExecutor;
    use dd_platform::{Executor, RunRequest};
    use dd_wfdag::{RunGenerator, Workflow, WorkflowSpec};

    fn setup(scale: usize) -> (dd_wfdag::WorkflowRun, Vec<LanguageRuntime>, DayDreamHistory) {
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(scale);
        let runtimes = spec.runtimes.clone();
        let gen = RunGenerator::new(spec, 11);
        let mut history = DayDreamHistory::new();
        history.learn_from_run(&gen.generate(0), 0.2, 24);
        (gen.generate(1), runtimes, history)
    }

    #[test]
    fn executes_run_end_to_end() {
        let (run, runtimes, history) = setup(4);
        let mut sched = DayDreamScheduler::aws(&history, SeedStream::new(1));
        let outcome = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut sched))
            .into_outcome();
        assert_eq!(outcome.scheduler, "daydream");
        assert_eq!(outcome.phases.len(), run.phase_count());
        // DayDream hot starts aggressively: most components must not be
        // cold.
        let (warm, hot, cold) = outcome.start_counts();
        assert_eq!(warm, 0, "DayDream never warm-pairs");
        assert!(
            hot > cold,
            "hot starts ({hot}) should dominate cold starts ({cold})"
        );
    }

    #[test]
    fn beats_all_cold_on_service_time() {
        let (run, runtimes, history) = setup(4);
        let mut exec = FaasExecutor::aws();

        struct AllCold;
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
                        tier: dd_platform::Tier::HighEnd,
                        instance: None,
                    })
                    .collect()
            }
        }

        let cold = exec
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        let mut sched = DayDreamScheduler::aws(&history, SeedStream::new(1));
        let daydream = exec
            .run(RunRequest::new(&run, &runtimes, &mut sched))
            .into_outcome();
        assert!(
            daydream.service_time_secs < cold.service_time_secs,
            "daydream {:.1}s vs all-cold {:.1}s",
            daydream.service_time_secs,
            cold.service_time_secs
        );
    }

    #[test]
    fn bootstrap_without_history_works() {
        let (run, runtimes, _) = setup(6);
        let empty = DayDreamHistory::new();
        let mut sched = DayDreamScheduler::aws(&empty, SeedStream::new(2));
        let outcome = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut sched))
            .into_outcome();
        assert!(outcome.service_time_secs > 0.0);
        // Without history the first phases mispredict, but the dynamic
        // re-fit must still produce hot starts overall.
        let (_, hot, _) = outcome.start_counts();
        assert!(hot > 0);
    }

    #[test]
    fn predictor_learns_during_run() {
        let (run, runtimes, history) = setup(2);
        let mut sched = DayDreamScheduler::new(
            &history,
            DayDreamConfig::default().with_phase_interval(10),
            CloudVendor::Aws,
            SeedStream::new(3),
        );
        let before = sched.current_distribution();
        let _ = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut sched))
            .into_outcome();
        let after = sched.current_distribution();
        // With ≥ 10 observed phases, at least one interval re-fit ran and
        // the averaged parameters moved.
        assert!(
            (after.alpha() - before.alpha()).abs() > 1e-9
                || (after.beta() - before.beta()).abs() > 1e-9,
            "distribution never updated"
        );
    }

    #[test]
    fn prediction_error_small_with_history() {
        let (run, runtimes, history) = setup(2);
        let mut sched = DayDreamScheduler::aws(&history, SeedStream::new(4));
        let outcome = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut sched))
            .into_outcome();
        let err = outcome.mean_prediction_error();
        let mean_conc = 9.0; // CCL
        assert!(
            err < mean_conc,
            "mean |pool − concurrency| = {err:.1} should be below the mean concurrency"
        );
    }

    #[test]
    fn overhead_matches_config() {
        let history = DayDreamHistory::new();
        let sched = DayDreamScheduler::aws(&history, SeedStream::new(5));
        assert!((sched.overhead_secs() - 0.001).abs() < 1e-12);
    }
}
