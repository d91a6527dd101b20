//! Event-driven executor: the DES cross-check of [`crate::faas`].
//!
//! This module drives the same `kernel` module as
//! [`crate::faas::FaasExecutor`], but advances time on the discrete-event
//! core ([`crate::des::EventQueue`]): phase starts and component
//! completions are events popped in time order.
//!
//! The two executors must agree **exactly** (outcome, trace and recorder
//! output) for every scheduler; the test suites assert it. Placement and
//! accounting are shared, so a divergence is a bug in the analytic
//! order-statistic shortcut or in the event queue.

use crate::des::{EventQueue, SimTime};
use crate::executor::{Executor, RunReport, RunRequest};
use crate::faas::{FaasConfig, FaasExecutor};
use crate::kernel::{self, Scratch};
use crate::pricing::PriceSheet;
use crate::startup::StartupModel;

/// Events of the serverless execution.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// A phase begins (placement happens here).
    PhaseStart { phase: usize },
    /// A component's output reached the back-end store.
    ComponentDone { phase: usize },
}

/// Reusable simulation state for [`DesFaasExecutor`].
///
/// Keeps the event queue and per-phase scratch buffers allocated across
/// [`DesFaasExecutor::run_with`] calls. It is reset at the start of each
/// execution, so results are bit-identical to a fresh [`Executor::run`].
#[derive(Debug, Default)]
pub struct DesSession {
    queue: EventQueue<Event>,
    scratch: Scratch,
}

impl DesSession {
    /// Creates an empty session.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The event-driven executor; construction mirrors [`FaasExecutor`].
#[derive(Debug, Clone)]
pub struct DesFaasExecutor {
    platform: FaasExecutor,
}

impl DesFaasExecutor {
    /// Creates an event-driven executor with the given configuration.
    pub fn new(config: FaasConfig) -> Self {
        Self {
            platform: FaasExecutor::new(config),
        }
    }

    /// AWS configuration.
    pub fn aws() -> Self {
        Self::new(FaasConfig::default())
    }

    /// The active price sheet.
    pub fn pricing(&self) -> &PriceSheet {
        self.platform.pricing()
    }

    /// The active start-up model.
    pub fn startup(&self) -> &StartupModel {
        self.platform.startup()
    }

    /// The active configuration.
    pub fn config(&self) -> &FaasConfig {
        self.platform.config()
    }

    /// Executes a [`RunRequest`] reusing `session`'s allocations — the
    /// fast path for multi-run sweeps. Produces exactly the same report as
    /// [`Executor::run`] regardless of what the session ran before.
    pub fn run_with(&self, session: &mut DesSession, req: RunRequest<'_>) -> RunReport {
        self.serve_with(session, req)
    }

    /// The event loop behind [`DesFaasExecutor::run_with`] and
    /// [`Executor::run`]: pops one `PhaseStart` per phase and one
    /// `ComponentDone` per component; the kernel decides from the running
    /// completion count when the pool trigger fires and the phase closes.
    fn serve_with(&self, session: &mut DesSession, req: RunRequest<'_>) -> RunReport {
        let DesSession { queue, scratch } = session;
        queue.clear();
        kernel::execute(&self.platform, scratch, req, |k| {
            if k.phase_count() > 0 {
                queue.push(SimTime::ZERO, Event::PhaseStart { phase: 0 });
            }
            // Local event tally flushed once to the process-wide throughput
            // counters after the run — the pop loop stays atomic-free.
            let mut events_popped: u64 = 0;
            let mut outputs = 0;
            while let Some((at, event)) = queue.pop() {
                events_popped += 1;
                let (phase, at) = match event {
                    Event::PhaseStart { phase } => {
                        outputs = 0;
                        let now = k.start_phase(phase, at, |finish| {
                            queue.push(finish, Event::ComponentDone { phase });
                        });
                        (phase, now)
                    }
                    Event::ComponentDone { phase } => {
                        outputs += 1;
                        (phase, at)
                    }
                };
                if k.outputs_in(outputs, at) && phase + 1 < k.phase_count() {
                    queue.push(at, Event::PhaseStart { phase: phase + 1 });
                }
            }
            crate::counters::add_des_events(events_popped);
        })
    }
}

impl Executor for DesFaasExecutor {
    fn run(&mut self, req: RunRequest<'_>) -> RunReport {
        self.serve_with(&mut DesSession::new(), req)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;
    use crate::faas::PoolTrigger;
    use crate::faults::{straggler_multiplier, FaultConfig, RecoveryPolicy};
    use crate::sched::ServerlessScheduler;
    use crate::telemetry::RunOutcome;
    use crate::test_support::{assert_same, ccl_run, AllCold, Echo};
    use dd_wfdag::{LanguageRuntime, RunGenerator, Workflow, WorkflowRun, WorkflowSpec};

    /// Runs `run` on both executors with `config` (a fresh scheduler from
    /// `sched` each) and asserts bitwise agreement; returns the outcome.
    fn both<S: ServerlessScheduler>(
        config: FaasConfig,
        run: &WorkflowRun,
        runtimes: &[LanguageRuntime],
        sched: impl Fn() -> S,
    ) -> RunOutcome {
        let analytic = FaasExecutor::new(config)
            .run(RunRequest::new(run, runtimes, &mut sched()))
            .into_outcome();
        let des = DesFaasExecutor::new(config)
            .run(RunRequest::new(run, runtimes, &mut sched()))
            .into_outcome();
        assert_same(&analytic, &des);
        analytic
    }

    #[test]
    fn des_and_analytic_agree_exactly() {
        let (run, runtimes) = ccl_run(8, 17);
        for trigger in [PoolTrigger::HalfPhase, PoolTrigger::PhaseComplete] {
            let config = FaasConfig {
                trigger,
                ..FaasConfig::default()
            };
            both(config, &run, &runtimes, || Echo);
        }
    }

    #[test]
    fn reused_session_matches_fresh_executions() {
        // The fast path's contract: executing through a dirty session is
        // bit-identical to a fresh execute, for every run in a sweep.
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(10);
        let runtimes = spec.runtimes.clone();
        let gen = RunGenerator::new(spec, 17);
        let mut executor = DesFaasExecutor::aws();
        let mut session = DesSession::new();
        for idx in 0..3 {
            let run = gen.generate(idx);
            let reused = executor
                .run_with(&mut session, RunRequest::new(&run, &runtimes, &mut Echo))
                .into_outcome();
            let fresh = executor
                .run(RunRequest::new(&run, &runtimes, &mut Echo))
                .into_outcome();
            assert_same(&reused, &fresh);
        }
    }

    #[test]
    fn des_handles_empty_run() {
        let (mut run, runtimes) = ccl_run(8, 17);
        run.phases.clear();
        let out = DesFaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut Echo))
            .into_outcome();
        assert_eq!(out.service_time_secs, 0.0);
        assert!(out.phases.is_empty());
    }

    #[test]
    fn empty_phase_completes_at_its_placement_instant() {
        // A phase with no components closes where it is placed: its pool
        // trigger and phase end both fire there, and the run goes on.
        let (mut run, runtimes) = ccl_run(10, 7);
        run.phases[1].components.clear();
        for trigger in [PoolTrigger::HalfPhase, PoolTrigger::PhaseComplete] {
            let config = FaasConfig {
                trigger,
                ..FaasConfig::default()
            };
            let cold = both(config, &run, &runtimes, || AllCold);
            let echo = both(config, &run, &runtimes, || Echo);
            for outcome in [cold, echo] {
                assert_eq!(outcome.phases.len(), run.phases.len());
                assert_eq!(outcome.phases[1].exec_secs, 0.0);
            }
        }
    }

    #[test]
    fn invocation_limit_binds_and_both_executors_agree() {
        let (run, runtimes) = ccl_run(15, 5);
        let unconstrained = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        let config = FaasConfig {
            invocation_limit: 2,
            ..FaasConfig::default()
        };
        let constrained = both(config, &run, &runtimes, || AllCold);
        assert!(
            constrained.service_time_secs > unconstrained.service_time_secs * 1.5,
            "a 2-slot limit must serialize phases: {:.1}s vs {:.1}s",
            constrained.service_time_secs,
            unconstrained.service_time_secs
        );
    }

    /// 10% of starts straggle at 8x overhead; every other channel clean.
    fn straggler_config() -> FaasConfig {
        FaasConfig {
            faults: FaultConfig {
                straggler_fraction: 0.10,
                straggler_multiplier: 8.0,
                ..FaultConfig::none()
            },
            ..FaasConfig::default()
        }
    }

    #[test]
    fn stragglers_inflate_service_time_deterministically() {
        let (run, runtimes) = ccl_run(12, 6);
        let clean = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        let faulty = both(straggler_config(), &run, &runtimes, || AllCold);
        assert!(
            faulty.service_time_secs > clean.service_time_secs * 1.05,
            "10% 8x stragglers should hurt: {:.1}s vs {:.1}s",
            faulty.service_time_secs,
            clean.service_time_secs
        );
        // Deterministic: same config, same outcome.
        let again = both(straggler_config(), &run, &runtimes, || AllCold);
        assert_same(&faulty, &again);
    }

    #[test]
    fn different_run_indices_place_stragglers_differently() {
        // Regression for the hardcoded-zero seed: both executors used to
        // draw stragglers with a zero seed for every run, so every run
        // of a sweep straggled in exactly the same places. Re-labelling
        // the *same* run content with a different run index must move the
        // placement — and both executors must agree on either variant.
        let (run, runtimes) = ccl_run(12, 6);
        let mut relabeled = run.clone();
        relabeled.label.run_index = 1;

        let a = both(straggler_config(), &run, &runtimes, || AllCold);
        let b = both(straggler_config(), &relabeled, &runtimes, || AllCold);
        assert!(
            (a.service_time_secs - b.service_time_secs).abs() > 1e-6,
            "straggler placement identical across run indices: {} vs {}",
            a.service_time_secs,
            b.service_time_secs
        );

        // With the engine disabled the run index has no effect at all.
        let config = FaasConfig::default();
        let clean_a = both(config, &run, &runtimes, || AllCold);
        let clean_b = both(config, &relabeled, &runtimes, || AllCold);
        assert_eq!(clean_a.service_time_secs, clean_b.service_time_secs);
    }

    #[test]
    fn zero_fraction_is_identity() {
        let clean = FaultConfig::none();
        for phase in 0..50 {
            for slot in 0..20 {
                let m = straggler_multiplier(
                    clean.straggler_fraction,
                    clean.straggler_multiplier,
                    phase,
                    slot,
                    0,
                );
                assert_eq!(m, 1.0);
            }
        }
    }

    #[test]
    fn straggler_rate_matches_fraction() {
        let hits = (0..100_000)
            .filter(|&i| straggler_multiplier(0.2, 8.0, i / 100, i % 100, 7) > 1.0)
            .count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.2).abs() < 0.01, "straggler rate {rate}");
    }

    #[test]
    fn executors_agree_on_faulty_runs_under_every_policy() {
        // The acceptance criterion of the fault engine: with every fault
        // channel live, the analytic and event-driven executors resolve
        // the same timelines — same service time, same ledger including
        // the retry component — because both query one FaultPlan.
        let (run, runtimes) = ccl_run(12, 6);
        for policy in [
            RecoveryPolicy::none(),
            RecoveryPolicy::backoff(),
            RecoveryPolicy::timeout(),
            RecoveryPolicy::speculative(),
        ] {
            let config = FaasConfig {
                faults: FaultConfig::uniform(0.08).with_seed(0xFA17),
                recovery: policy,
                ..FaasConfig::default()
            };
            let analytic = both(config, &run, &runtimes, || AllCold);
            // Faults actually fired, retry cost is a real non-negative
            // component, and conservation holds with it included.
            assert!(analytic.faults.failures() > 0, "{policy:?}");
            assert!(analytic.ledger.retry > 0.0, "{policy:?}");
            let l = analytic.ledger;
            assert!(
                (l.total()
                    - (l.execution
                        + l.keep_alive_used
                        + l.keep_alive_wasted
                        + l.storage
                        + l.retry))
                    .abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn clean_config_is_strict_noop() {
        // Every rate zero: outcomes must be *bit-identical* to an
        // executor that predates the fault engine — same service time,
        // zero retry cost, zero counters.
        let (run, runtimes) = ccl_run(10, 17);
        let default_cfg = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        let explicit_clean = FaasExecutor::new(FaasConfig {
            faults: FaultConfig::none().with_seed(0xDEAD),
            recovery: RecoveryPolicy::speculative(),
            ..FaasConfig::default()
        })
        .run(RunRequest::new(&run, &runtimes, &mut AllCold))
        .into_outcome();
        assert_same(&default_cfg, &explicit_clean);
        assert_eq!(default_cfg.ledger.retry, 0.0);
        assert_eq!(default_cfg.faults, crate::faults::FaultStats::default());
    }
}
