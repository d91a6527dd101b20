//! The scheduler interface the serverless platform drives.
//!
//! The FaaS executor ([`crate::faas::FaasExecutor`]) walks a workflow run
//! phase by phase and calls back into a [`ServerlessScheduler`] at the
//! paper's decision points:
//!
//! 1. before the run — pool for phase 0 ([`ServerlessScheduler::initial_pool`]);
//! 2. at *half completion* of each phase — pool for the next phase
//!    ([`ServerlessScheduler::pool_for_next_phase`]), DayDream's trigger;
//! 3. at each phase start — component placement
//!    ([`ServerlessScheduler::place`]);
//! 4. after each phase — observation feedback
//!    ([`ServerlessScheduler::observe_phase`]) for predictors and tiering.
//!
//! DayDream, Oracle and the Wild baseline all implement this trait; they
//! differ only in *what* they request and *how* they place.

use crate::des::SimTime;
use crate::pool::{InstanceId, InstanceView, PoolRequest};
use crate::tier::Tier;
use dd_wfdag::{ComponentTypeId, LanguageRuntime, Phase, Workflow};
use std::collections::BTreeMap;

/// Static facts about the run, available before execution starts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunInfo {
    /// Which workflow is executing.
    pub workflow: Workflow,
    /// Language runtimes the DAG uses (all pre-loaded on hot starts).
    pub runtimes: Vec<LanguageRuntime>,
    /// Number of phases in the run. Visible because the DAG structure is
    /// stored in the back-end server; the *content* of future phases (the
    /// path actually taken) is what stays unknown until execution.
    pub phase_count: usize,
}

/// What the platform observed about a completed (or half-completed) phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseObservation {
    /// Phase index.
    pub index: usize,
    /// Observed phase concurrency (total component instances).
    pub concurrency: u32,
    /// Observed per-type component concurrency.
    pub component_counts: BTreeMap<ComponentTypeId, u32>,
    /// Observed fraction of high-end-friendly components (at the
    /// scheduler-configured threshold).
    pub friendly_fraction: f64,
    /// Components of this phase that needed more than one attempt under
    /// fault injection (0 on clean runs). Retry-aware schedulers can use
    /// this to provision recovery headroom for the next phase.
    pub retried_components: u32,
}

/// How a component was started (paper terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StartKind {
    /// Pre-paired component + runtime (Wild-style).
    Warm,
    /// Runtime-only pre-load; component attached at invocation (DayDream).
    Hot,
    /// Nothing pre-loaded.
    Cold,
}

impl StartKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StartKind::Warm => "warm",
            StartKind::Hot => "hot",
            StartKind::Cold => "cold",
        }
    }
}

/// A placement decision for one component of a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Tier to execute on (the γ parameter of the paper's optimization).
    pub tier: Tier,
    /// Pooled instance to run on, or `None` to cold start a fresh one
    /// (the δ parameter: `Some` ⇒ δ = 1, `None` ⇒ δ = 0).
    pub instance: Option<InstanceId>,
}

/// A decision-internal event a scheduler can surface for observability.
///
/// Schedulers buffer these during their callbacks (only while
/// [`ServerlessScheduler::set_event_recording`] is on) and the executors
/// drain them after each callback, stamping them with the virtual time
/// of the decision. Recording is strictly write-only telemetry: it must
/// never change what the scheduler decides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerEvent {
    /// The concurrency predictor re-fit its Weibull distribution from a
    /// completed observation interval.
    WeibullRefit {
        /// Fitted shape parameter.
        alpha: f64,
        /// Fitted scale parameter.
        beta: f64,
        /// Interval fits folded into the current distribution.
        intervals: usize,
    },
    /// A pool request was split across instance tiers.
    TierSplit {
        /// Total requested pool size.
        pool: u32,
        /// Instances placed on the high-end tier.
        high_end: u32,
        /// Instances placed on the low-end tier.
        low_end: u32,
    },
}

/// Optional placement hints a scheduler hands the storage-cost model.
///
/// Both executors sample the hints once per run (before the first phase)
/// and apply them identically:
///
/// * `colocated_read_fraction` — fraction of back-end storage traffic the
///   scheduler serves from component co-location (affinity hits): the
///   run-level storage-maintenance ledger component is discounted by it.
///   ICPS-style affinity clustering sets this.
/// * `batched_write_fraction` — fraction of each component's output-write
///   time elided by batching/delaying intermediate I/O, shortening every
///   component timeline. Wukong-style task clustering sets this.
///
/// Both default to `0.0`, which is exactly the pre-hint arithmetic: the
/// executors skip the scaling entirely when a fraction is zero, so every
/// hint-less scheduler stays on the byte-identical legacy code path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageHints {
    /// Fraction of storage maintenance served by affinity co-location.
    pub colocated_read_fraction: f64,
    /// Fraction of per-component write time elided by batched I/O.
    pub batched_write_fraction: f64,
}

impl StorageHints {
    /// No hints: the executors' legacy arithmetic, untouched.
    pub const NONE: StorageHints = StorageHints {
        colocated_read_fraction: 0.0,
        batched_write_fraction: 0.0,
    };

    /// Hints clamped to the meaningful `[0, 0.95]` range (a model can
    /// never elide *all* storage traffic; the cap keeps costs positive).
    pub fn clamped(self) -> StorageHints {
        StorageHints {
            colocated_read_fraction: self.colocated_read_fraction.clamp(0.0, 0.95),
            batched_write_fraction: self.batched_write_fraction.clamp(0.0, 0.95),
        }
    }
}

impl Default for StorageHints {
    fn default() -> Self {
        Self::NONE
    }
}

/// A scheduler of serverless workflow execution.
pub trait ServerlessScheduler {
    /// Scheduler name for reports.
    fn name(&self) -> &'static str;

    /// Pool request for phase 0, issued before the run starts.
    fn initial_pool(&mut self, info: &RunInfo) -> PoolRequest;

    /// Pool request for phase `half_of + 1`, issued when half of phase
    /// `half_of`'s components have finished (the back-end store's
    /// notification). `observed_so_far` describes phase `half_of`.
    fn pool_for_next_phase(
        &mut self,
        half_of: usize,
        observed_so_far: &PhaseObservation,
    ) -> PoolRequest;

    /// Places each component of `phase` onto the available pool (or a
    /// cold start). `now` is the phase start instant (instances whose
    /// `ready_at` is later will be waited on). Must return exactly one
    /// placement per component, and must not reference the same instance
    /// twice (one component per instance — they are microVMs, not nodes).
    fn place(&mut self, phase: &Phase, available: &[InstanceView], now: SimTime) -> Vec<Placement>;

    /// Fixed decision overhead charged per phase, in seconds. The paper
    /// reports 0.028% (DayDream), 0.036% (Pegasus) and 0.043% (Wild) of a
    /// component execution time per decision.
    fn overhead_secs(&self) -> f64 {
        0.001
    }

    /// Feedback after a phase fully completes. Default: ignore.
    fn observe_phase(&mut self, observation: &PhaseObservation) {
        let _ = observation;
    }

    /// Turns decision-event buffering on or off. Executors call this
    /// once per run with the recorder's enabled state; turning it on
    /// must also clear any stale buffer. Default: events unsupported.
    fn set_event_recording(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Drains buffered [`SchedulerEvent`]s since the last drain, in
    /// emission order. Default: none (an empty `Vec` does not allocate).
    fn drain_events(&mut self) -> Vec<SchedulerEvent> {
        Vec::new()
    }

    /// Placement hints for the storage-cost model, sampled once per run.
    /// Default: none — the executors' arithmetic is untouched.
    fn storage_hints(&self) -> StorageHints {
        StorageHints::NONE
    }
}

/// Builds the [`PhaseObservation`] of a phase under `threshold` for
/// high-end friendliness.
pub fn observe_phase(phase: &Phase, threshold: f64) -> PhaseObservation {
    PhaseObservation {
        index: phase.index,
        concurrency: phase.concurrency(),
        component_counts: phase.component_concurrency(),
        friendly_fraction: phase.high_end_friendly_fraction(threshold),
        // The executors overwrite this with their per-phase retry count;
        // the DAG alone cannot know it.
        retried_components: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_wfdag::ComponentInstance;

    #[test]
    fn observation_from_phase() {
        let phase = Phase {
            index: 2,
            components: vec![
                ComponentInstance {
                    type_id: ComponentTypeId(1),
                    exec_he_secs: 1.0,
                    exec_le_secs: 1.5, // 50% slowdown → friendly
                    read_mb: 1.0,
                    write_mb: 1.0,
                    cpu_demand: 0.5,
                    mem_gb: 1.0,
                },
                ComponentInstance {
                    type_id: ComponentTypeId(1),
                    exec_he_secs: 1.0,
                    exec_le_secs: 1.05, // 5% → not friendly
                    read_mb: 1.0,
                    write_mb: 1.0,
                    cpu_demand: 0.5,
                    mem_gb: 1.0,
                },
            ],
        };
        let obs = observe_phase(&phase, 0.2);
        assert_eq!(obs.index, 2);
        assert_eq!(obs.concurrency, 2);
        assert_eq!(obs.component_counts[&ComponentTypeId(1)], 2);
        assert!((obs.friendly_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn start_kind_names() {
        assert_eq!(StartKind::Warm.name(), "warm");
        assert_eq!(StartKind::Hot.name(), "hot");
        assert_eq!(StartKind::Cold.name(), "cold");
    }
}
