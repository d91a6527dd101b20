//! The unified run API: [`Executor`] + [`RunRequest`] + [`RunReport`].
//!
//! Both executors ([`crate::faas::FaasExecutor`] analytic,
//! [`crate::faas_des::DesFaasExecutor`] event-driven) implement the one
//! [`Executor`] trait; callers build a [`RunRequest`] and get back a
//! [`RunReport`].
//!
//! The request is passed **by value**, not by reference: it carries the
//! `&mut` scheduler and recorder borrows for the duration of the run, so
//! a shared `&RunRequest` could not hand them to the executor.
//!
//! # Canonical observability emission order
//!
//! When a [`Recorder`] is attached, both executors emit the identical
//! event stream (the obs determinism tests compare exports byte for
//! byte). Every emission below happens in the shared `kernel` module,
//! so the order holds for both executors by construction:
//!
//! 1. run start: scheduler events from `initial_pool`, then the phase-0
//!    `pool_preboot` span at t = 0;
//! 2. per phase: `sched_place` span (decision overhead) → scheduler
//!    events from `place` → one `component` span per component in slot
//!    order (with `fault_attempt` instants) → wasted keep-alive samples
//!    → scheduler events from `pool_for_next_phase` + the next
//!    `pool_preboot` span at the trigger instant → `observe` instant and
//!    scheduler events from `observe_phase` → the `phase` span;
//! 3. run end: the `service_time_secs` gauge.

use crate::des::SimTime;
use crate::faults::{AttemptOutcome, ComponentTimeline, FaultKind};
use crate::pool::PooledInstance;
use crate::sched::{PhaseObservation, SchedulerEvent, ServerlessScheduler, StartKind};
use crate::telemetry::{PhaseRecord, RunOutcome};
use crate::tier::Tier;
use crate::trace::ExecutionTrace;
use dd_obs::{label, Event, MetricId, Recorder};
use dd_wfdag::{LanguageRuntime, WorkflowRun};

/// Everything one execution needs, assembled with a builder.
///
/// ```
/// # use dd_platform::{Executor, FaasExecutor, RunRequest};
/// # use dd_wfdag::{RunGenerator, Workflow, WorkflowSpec};
/// # struct S;
/// # impl dd_platform::ServerlessScheduler for S {
/// #     fn name(&self) -> &'static str { "s" }
/// #     fn initial_pool(&mut self, _: &dd_platform::RunInfo) -> dd_platform::PoolRequest {
/// #         dd_platform::PoolRequest::none()
/// #     }
/// #     fn pool_for_next_phase(&mut self, _: usize, _: &dd_platform::PhaseObservation) -> dd_platform::PoolRequest {
/// #         dd_platform::PoolRequest::none()
/// #     }
/// #     fn place(&mut self, phase: &dd_wfdag::Phase, _: &[dd_platform::InstanceView], _: dd_platform::SimTime) -> Vec<dd_platform::Placement> {
/// #         phase.components.iter().map(|_| dd_platform::Placement { tier: dd_platform::Tier::HighEnd, instance: None }).collect()
/// #     }
/// # }
/// let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(20);
/// let runtimes = spec.runtimes.clone();
/// let run = RunGenerator::new(spec, 7).generate(0);
/// let mut sched = S;
/// let report = FaasExecutor::aws().run(RunRequest::new(&run, &runtimes, &mut sched).traced());
/// assert!(report.trace.is_some());
/// assert!(report.outcome.service_time_secs > 0.0);
/// ```
pub struct RunRequest<'a> {
    /// The workflow run to execute (its label carries the run index the
    /// fault engine seeds from).
    pub run: &'a WorkflowRun,
    /// The DAG's language-runtime set (pre-loaded into hot instances).
    pub runtimes: &'a [LanguageRuntime],
    /// The scheduler driving pool requests and placements.
    pub scheduler: &'a mut dyn ServerlessScheduler,
    /// Observability sink; `None` is the zero-cost disabled path.
    pub recorder: Option<&'a mut dyn Recorder>,
    /// Whether to collect the full [`ExecutionTrace`].
    pub collect_trace: bool,
}

impl<'a> RunRequest<'a> {
    /// A plain request: no trace, no recorder, configured faults.
    pub fn new(
        run: &'a WorkflowRun,
        runtimes: &'a [LanguageRuntime],
        scheduler: &'a mut dyn ServerlessScheduler,
    ) -> Self {
        Self {
            run,
            runtimes,
            scheduler,
            recorder: None,
            collect_trace: false,
        }
    }

    /// Also collect the full [`ExecutionTrace`].
    #[must_use]
    pub fn traced(mut self) -> Self {
        self.collect_trace = true;
        self
    }

    /// Attach an observability recorder.
    #[must_use]
    pub fn with_recorder(mut self, recorder: &'a mut dyn Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

/// What an execution produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The run outcome (service time, ledger, phase records, faults).
    pub outcome: RunOutcome,
    /// The execution trace, present iff [`RunRequest::traced`] was set.
    pub trace: Option<ExecutionTrace>,
}

impl RunReport {
    /// Discards the trace (if any) and returns the outcome.
    #[must_use]
    pub fn into_outcome(self) -> RunOutcome {
        self.outcome
    }

    /// Splits into outcome and trace, panicking if no trace was
    /// requested.
    ///
    /// # Panics
    /// Panics when the request did not set [`RunRequest::traced`].
    #[must_use]
    pub fn into_traced(self) -> (RunOutcome, ExecutionTrace) {
        let trace = self.trace.expect("trace requested via RunRequest::traced");
        (self.outcome, trace)
    }
}

/// A workflow executor: one entry point for every execution mode
/// (plain, traced, fault-injected, recorded — all via [`RunRequest`]).
pub trait Executor {
    /// Executes the request.
    fn run(&mut self, req: RunRequest<'_>) -> RunReport;
}

// ---------------------------------------------------------------------
// Shared observability glue. Both executors emit through these helpers
// so the event stream, metric names and registration order are
// identical by construction. Every call site guards with
// `recorder.enabled()` so the disabled path never builds arguments.
// ---------------------------------------------------------------------

/// Metric names, in canonical registration order (see
/// [`declare_metrics`]).
pub mod metrics {
    /// Components started on a warm (component pre-paired) instance.
    pub const STARTS_WARM: &str = "starts_warm";
    /// Components started on a hot (runtime-only) instance.
    pub const STARTS_HOT: &str = "starts_hot";
    /// Components cold started.
    pub const STARTS_COLD: &str = "starts_cold";
    /// Pool instances that executed a component.
    pub const PRELOAD_HITS: &str = "preload_hits";
    /// Pool instances terminated unused.
    pub const PRELOAD_MISSES: &str = "preload_misses";
    /// Components that needed more than one attempt.
    pub const RETRIES: &str = "retries";
    /// Fault-engine attempts launched (speculative copies included).
    pub const FAULT_ATTEMPTS: &str = "fault_attempts";
    /// Completed executions drained from the invocation-slot heap.
    pub const HEAP_DRAINS: &str = "heap_drains";
    /// Weibull re-fits performed by the concurrency predictor.
    pub const WEIBULL_REFITS: &str = "weibull_refits";
    /// Tier splits performed on pool requests.
    pub const TIER_SPLITS: &str = "tier_splits";
    /// Keep-alive seconds of used pool instances (request → start).
    pub const KEEP_ALIVE_USED_SECS: &str = "keep_alive_used_secs";
    /// Keep-alive seconds of wasted pool instances (request → release).
    pub const KEEP_ALIVE_WASTED_SECS: &str = "keep_alive_wasted_secs";
    /// Per-phase execution seconds.
    pub const PHASE_EXEC_SECS: &str = "phase_exec_secs";
    /// End-to-end service time (accumulates across merged runs).
    pub const SERVICE_TIME_SECS: &str = "service_time_secs";
}

/// The executor metrics' handles in one recorder, in canonical
/// registration order; resolved once per run by [`declare_metrics`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct MetricIds {
    starts_warm: MetricId,
    starts_hot: MetricId,
    starts_cold: MetricId,
    preload_hits: MetricId,
    preload_misses: MetricId,
    retries: MetricId,
    fault_attempts: MetricId,
    heap_drains: MetricId,
    weibull_refits: MetricId,
    tier_splits: MetricId,
    keep_alive_used: MetricId,
    pub(crate) keep_alive_wasted: MetricId,
    phase_exec: MetricId,
    pub(crate) service_time: MetricId,
}

/// Registers every executor metric in the canonical fixed order, so the
/// registry iterates identically no matter which metrics a given run
/// happens to touch, and returns their handles.
pub(crate) fn declare_metrics(rec: &mut dyn Recorder) -> MetricIds {
    use metrics as m;
    // Struct-literal fields evaluate in the order written: this is the
    // registration order.
    MetricIds {
        starts_warm: rec.declare_counter(m::STARTS_WARM),
        starts_hot: rec.declare_counter(m::STARTS_HOT),
        starts_cold: rec.declare_counter(m::STARTS_COLD),
        preload_hits: rec.declare_counter(m::PRELOAD_HITS),
        preload_misses: rec.declare_counter(m::PRELOAD_MISSES),
        retries: rec.declare_counter(m::RETRIES),
        fault_attempts: rec.declare_counter(m::FAULT_ATTEMPTS),
        heap_drains: rec.declare_counter(m::HEAP_DRAINS),
        weibull_refits: rec.declare_counter(m::WEIBULL_REFITS),
        tier_splits: rec.declare_counter(m::TIER_SPLITS),
        keep_alive_used: rec.declare_histogram(m::KEEP_ALIVE_USED_SECS),
        keep_alive_wasted: rec.declare_histogram(m::KEEP_ALIVE_WASTED_SECS),
        phase_exec: rec.declare_histogram(m::PHASE_EXEC_SECS),
        service_time: rec.declare_gauge(m::SERVICE_TIME_SECS),
    }
}

/// Drains the scheduler's buffered decision events, stamping them at
/// `at` (the virtual time of the decision).
pub(crate) fn emit_sched_events(
    rec: &mut dyn Recorder,
    m: &MetricIds,
    at: SimTime,
    scheduler: &mut dyn ServerlessScheduler,
) {
    for event in scheduler.drain_events() {
        let event = match event {
            SchedulerEvent::WeibullRefit {
                alpha,
                beta,
                intervals,
            } => {
                rec.add(m.weibull_refits, 1);
                Event::WeibullRefit {
                    alpha,
                    beta,
                    intervals,
                }
            }
            SchedulerEvent::TierSplit {
                pool,
                high_end,
                low_end,
            } => {
                rec.add(m.tier_splits, 1);
                Event::TierSplit {
                    pool,
                    high_end,
                    low_end,
                }
            }
        };
        rec.event(at.as_secs(), event);
    }
}

/// Emits the pool pre-boot span: requested at `requested_at` for
/// `phase`, spanning until the last instance is ready.
pub(crate) fn emit_pool(
    rec: &mut dyn Recorder,
    phase: usize,
    requested_at: SimTime,
    pool: &[PooledInstance],
) {
    let prepare_secs = pool
        .iter()
        .map(|i| i.ready_at.since(i.requested_at))
        .fold(0.0_f64, f64::max);
    rec.event(
        requested_at.as_secs(),
        Event::PoolPreboot {
            phase,
            size: pool.len(),
            prepare_secs,
        },
    );
}

/// Emits the placement-decision span of `phase` (`at` is the phase
/// event time, before the scheduler's decision overhead elapses).
pub(crate) fn emit_place(
    rec: &mut dyn Recorder,
    phase: usize,
    at: SimTime,
    overhead_secs: f64,
    components: usize,
) {
    rec.event(
        at.as_secs(),
        Event::SchedPlace {
            phase,
            components,
            overhead_secs,
        },
    );
}

/// Per-component emission context (bundled: the dispatch loop computes
/// all of these anyway).
pub(crate) struct ComponentObs<'t> {
    /// Phase index.
    pub phase: usize,
    /// Component slot within the phase.
    pub slot: usize,
    /// Start kind the placement resolved to.
    pub kind: StartKind,
    /// Tier the component executes on.
    pub tier: Tier,
    /// Actual start instant (pool readiness and slot waits included).
    pub start: SimTime,
    /// Resolved fault/recovery timeline.
    pub timeline: &'t ComponentTimeline,
    /// Keep-alive seconds billed for the pooled instance (`None` for
    /// cold starts).
    pub keep_alive_secs: Option<f64>,
    /// Completed executions popped off the invocation-slot heap while
    /// dispatching this component.
    pub heap_drains: u64,
}

/// Emits one component's span, fault-attempt instants and metrics.
pub(crate) fn emit_component(rec: &mut dyn Recorder, m: &MetricIds, c: &ComponentObs<'_>) {
    let (kind_metric, kind) = match c.kind {
        StartKind::Warm => (m.starts_warm, label::Start::Warm),
        StartKind::Hot => (m.starts_hot, label::Start::Hot),
        StartKind::Cold => (m.starts_cold, label::Start::Cold),
    };
    rec.add(kind_metric, 1);
    if c.heap_drains > 0 {
        rec.add(m.heap_drains, c.heap_drains);
    }
    if let Some(ka) = c.keep_alive_secs {
        rec.record(m.keep_alive_used, ka);
    }
    rec.event(
        c.start.as_secs(),
        Event::Component {
            phase: c.phase,
            slot: c.slot,
            kind,
            tier: match c.tier {
                Tier::HighEnd => label::Tier::HighEnd,
                Tier::LowEnd => label::Tier::LowEnd,
            },
            attempts: c.timeline.attempt_count(),
            dur_secs: c.timeline.completion_offset_secs,
        },
    );
    for a in &c.timeline.attempts {
        rec.event(
            c.start.after(a.start_offset_secs).as_secs(),
            Event::FaultAttempt {
                phase: c.phase,
                slot: c.slot,
                attempt: a.index,
                speculative: a.speculative,
                fault: a.fault.map(|f| match f {
                    FaultKind::TransientInvocation => label::Fault::TransientInvocation,
                    FaultKind::InstanceCrash => label::Fault::InstanceCrash,
                    FaultKind::StartFailure => label::Fault::StartFailure,
                    FaultKind::StorageHiccup => label::Fault::StorageHiccup,
                    FaultKind::Straggler => label::Fault::Straggler,
                }),
                outcome: match a.outcome {
                    AttemptOutcome::Completed => label::Outcome::Completed,
                    AttemptOutcome::Failed => label::Outcome::Failed,
                    AttemptOutcome::TimedOut => label::Outcome::TimedOut,
                    AttemptOutcome::Superseded => label::Outcome::Superseded,
                },
            },
        );
    }
    rec.add(m.fault_attempts, u64::from(c.timeline.attempt_count()));
    rec.add(m.retries, u64::from(c.timeline.retried()));
}

/// Emits the post-phase observation instant at `at` (phase completion).
pub(crate) fn emit_observe(rec: &mut dyn Recorder, at: SimTime, obs: &PhaseObservation) {
    rec.event(
        at.as_secs(),
        Event::Observe {
            phase: obs.index,
            concurrency: obs.concurrency,
            friendly_fraction: obs.friendly_fraction,
            retried: obs.retried_components,
        },
    );
}

/// Emits the whole-phase span plus the phase-level metrics.
pub(crate) fn emit_phase(
    rec: &mut dyn Recorder,
    m: &MetricIds,
    started_at: SimTime,
    record: &PhaseRecord,
) {
    rec.add(m.preload_hits, u64::from(record.used_instances));
    rec.add(m.preload_misses, u64::from(record.wasted_instances));
    rec.record(m.phase_exec, record.exec_secs);
    rec.event(
        started_at.as_secs(),
        Event::Phase {
            phase: record.index,
            concurrency: record.concurrency,
            pool: record.pool_size,
            exec_secs: record.exec_secs,
        },
    );
}
