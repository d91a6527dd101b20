//! The per-phase serverless execution kernel both executors drive.
//!
//! Every phase of the paper's platform (Sec. IV) does three things: it
//! places components on pooled or cold instances, fires the next phase's
//! pool request once enough of its outputs reach storage, and closes when
//! all of them are in. [`Kernel`] owns all three, plus the run prologue
//! (recorder wiring, fault plan, storage hints, phase-0 pool) and the
//! epilogue (storage bill, counters, [`RunReport`]). An executor owns only
//! how time advances between those steps:
//!
//! * [`crate::faas::FaasExecutor`] takes order statistics over the finish
//!   times [`Kernel::start_phase`] reports (microVMs don't preempt each
//!   other, so they are known at dispatch);
//! * [`crate::faas_des::DesFaasExecutor`] pops one completion event per
//!   finish time.
//!
//! Both report output counts through [`Kernel::outputs_in`], so the
//! trigger rule, the scheduler callback order and the canonical obs
//! emission order (see [`crate::executor`]) are one piece of code.

use crate::des::SimTime;
use crate::executor::{self as obs, ComponentObs, MetricIds, RunReport, RunRequest};
use crate::faas::{FaasExecutor, PoolTrigger};
use crate::faults::{FaultPlan, FaultStats};
use crate::pool::{resolve_slot, InstanceId, InstanceView, PoolRequest, PooledInstance};
use crate::sched::{
    observe_phase, PhaseObservation, RunInfo, ServerlessScheduler, StartKind, StorageHints,
};
use crate::telemetry::{CostLedger, PhaseRecord, RunOutcome, Utilization};
use crate::tier::Tier;
use crate::trace::{AttemptTrace, ComponentTrace, ExecutionTrace, PoolTrace};
use dd_obs::{NoopRecorder, Recorder};
use dd_wfdag::{LanguageRuntime, WorkflowRun};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Allocations a run reuses across phases, and a `DesSession` across
/// runs.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    // Invocation slots: finish instants of the executions still running.
    slots: BinaryHeap<Reverse<SimTime>>,
    used: Vec<bool>,
    views: Vec<InstanceView>,
    // Instance-record arenas: the active pool and the one being prepared
    // for the next phase. Swapped (never freed) at each phase start, so a
    // steady-state run allocates no pool storage at all.
    pool: Vec<PooledInstance>,
    pending: Vec<PooledInstance>,
}

/// The books of the phase in progress. Phases never overlap, so one is
/// enough.
#[derive(Debug, Default)]
struct PhaseState {
    index: usize,
    expected: usize,
    trigger_rank: usize,
    warm: u32,
    hot: u32,
    cold: u32,
    wasted: u32,
    pool_size: u32,
    retried: u32,
    overhead_sum: f64,
    started_at: SimTime,
    // Run-ledger snapshots taken at phase start; the per-phase books are
    // the growth since, so the run totals keep their float-addition order.
    ledger_mark: CostLedger,
    faults_mark: FaultStats,
    // Built when the pool trigger fires and reused verbatim at phase close
    // (its contents are final at dispatch), so each phase pays for at most
    // one `observe_phase` scan.
    observation: Option<PhaseObservation>,
}

/// One run in progress: the platform, the request's borrows and the run's
/// accumulating books.
pub(crate) struct Kernel<'k> {
    platform: &'k FaasExecutor,
    run: &'k WorkflowRun,
    runtimes: &'k [LanguageRuntime],
    scheduler: &'k mut dyn ServerlessScheduler,
    rec: &'k mut dyn Recorder,
    /// The recorder's metric handles; `None` when it is disabled.
    metric_ids: Option<MetricIds>,
    scratch: &'k mut Scratch,
    plan: FaultPlan,
    hints: StorageHints,
    trace: Option<ExecutionTrace>,
    ledger: CostLedger,
    utilization: Utilization,
    fault_stats: FaultStats,
    records: Vec<PhaseRecord>,
    next_instance_id: u64,
    end: SimTime,
    phase: PhaseState,
}

/// Executes `req` on `platform`: runs the prologue, lets `advance` drive
/// every phase through [`Kernel::start_phase`] and [`Kernel::outputs_in`],
/// then closes the books.
pub(crate) fn execute(
    platform: &FaasExecutor,
    scratch: &mut Scratch,
    req: RunRequest<'_>,
    advance: impl FnOnce(&mut Kernel<'_>),
) -> RunReport {
    let (run, runtimes, scheduler) = (req.run, req.runtimes, req.scheduler);
    let mut noop = NoopRecorder;
    let rec: &mut dyn Recorder = match req.recorder {
        Some(r) => r,
        None => &mut noop,
    };
    let recording = rec.enabled();
    let metric_ids = recording.then(|| obs::declare_metrics(rec));
    scheduler.set_event_recording(recording);
    // One fault plan per run: the run index is mixed into the seed so
    // different runs of a sweep see different fault placements.
    let config = platform.config();
    // Storage hints are sampled once per run; zero fractions keep the
    // arithmetic byte-identical to the hint-less path.
    let hints = scheduler.storage_hints().clamped();
    scratch.pending.clear();
    let mut kernel = Kernel {
        platform,
        run,
        runtimes,
        scheduler,
        rec,
        metric_ids,
        scratch,
        plan: FaultPlan::for_run(config.faults, config.recovery, run.label.run_index as u64),
        hints,
        trace: req.collect_trace.then(ExecutionTrace::default),
        ledger: CostLedger::default(),
        utilization: Utilization::default(),
        fault_stats: FaultStats::default(),
        records: Vec::with_capacity(run.phases.len()),
        next_instance_id: 0,
        end: SimTime::ZERO,
        phase: PhaseState::default(),
    };

    // Pool for phase 0, requested before the run starts.
    let info = RunInfo {
        workflow: run.label.workflow,
        runtimes: runtimes.to_vec(),
        phase_count: run.phases.len(),
    };
    let request = kernel.scheduler.initial_pool(&info);
    kernel.spawn(request, SimTime::ZERO);
    if let Some(m) = kernel.metric_ids {
        obs::emit_sched_events(kernel.rec, &m, SimTime::ZERO, kernel.scheduler);
        obs::emit_pool(kernel.rec, 0, SimTime::ZERO, &kernel.scratch.pending);
    }

    advance(&mut kernel);
    kernel.finish()
}

impl Kernel<'_> {
    /// Number of phases in the run.
    pub(crate) fn phase_count(&self) -> usize {
        self.run.phases.len()
    }

    /// How many of the current phase's outputs must be in storage before
    /// the next phase's pool is requested.
    pub(crate) fn trigger_rank(&self) -> usize {
        self.phase.trigger_rank
    }

    /// Starts phase `index`, whose turn came at `at`: spends the
    /// scheduler's decision overhead, places every component, dispatches
    /// it and hands its output instant to `on_finish` (in slot order),
    /// then terminates the unused pool instances (Algorithm 1, line 11).
    /// Returns the placement instant.
    ///
    /// # Panics
    /// Panics if the scheduler returns malformed placements: wrong count,
    /// an unknown or reused instance id, or a warm instance paired with a
    /// different component type.
    pub(crate) fn start_phase(
        &mut self,
        index: usize,
        at: SimTime,
        mut on_finish: impl FnMut(SimTime),
    ) -> SimTime {
        let platform = self.platform;
        let (startup, pricing) = (platform.startup(), platform.pricing());
        let runtimes = self.runtimes;
        let phase = &self.run.phases[index];
        let overhead_secs = self.scheduler.overhead_secs();
        let now = at.after(overhead_secs);
        if let Some(t) = self.trace.as_mut() {
            t.phase_starts.push(now);
        }
        let scratch = &mut *self.scratch;
        std::mem::swap(&mut scratch.pool, &mut scratch.pending);
        scratch.pending.clear();
        let (pool, used, slots) = (&scratch.pool, &mut scratch.used, &mut scratch.slots);
        scratch.views.clear();
        scratch.views.extend(pool.iter().map(InstanceView::from));
        let placements = self.scheduler.place(phase, &scratch.views, now);
        let n = phase.components.len();
        if let Some(m) = self.metric_ids {
            obs::emit_place(self.rec, index, at, overhead_secs, n);
            obs::emit_sched_events(self.rec, &m, now, self.scheduler);
        }
        dd_invariant!(
            placements.len() == n,
            "scheduler '{}' returned {} placements for {n} components",
            self.scheduler.name(),
            placements.len()
        );

        self.phase = PhaseState {
            index,
            expected: n,
            trigger_rank: match platform.config().trigger {
                PoolTrigger::HalfPhase => crate::storage::half_phase_rank(n),
                PoolTrigger::PhaseComplete => n,
            },
            pool_size: pool.len() as u32,
            started_at: now,
            ledger_mark: self.ledger,
            faults_mark: self.fault_stats,
            ..PhaseState::default()
        };
        let p = &mut self.phase;
        used.clear();
        used.resize(pool.len(), false);
        slots.clear();
        for (slot, (component, placement)) in phase.components.iter().zip(&placements).enumerate() {
            let mut pool_slot = None;
            let (tier, kind, start, overhead) = match placement.instance {
                Some(id) => {
                    let s = resolve_slot(pool, id);
                    dd_invariant!(!used[s], "instance {id} placed twice in one phase");
                    used[s] = true;
                    pool_slot = Some(s);
                    let inst = &pool[s];
                    let (tier, ready_at) = (inst.tier, inst.ready_at);
                    let (kind, overhead) = match inst.preload {
                        None => (StartKind::Hot, startup.hot_overhead_secs(component, tier)),
                        Some(ty) => {
                            dd_invariant!(
                                ty == component.type_id,
                                "warm instance {id} preloaded with {ty} used for {}",
                                component.type_id
                            );
                            (StartKind::Warm, startup.warm_overhead_secs(component, tier))
                        }
                    };
                    (tier, kind, now.max(ready_at), overhead)
                }
                None => {
                    let tier = placement.tier;
                    let overhead = startup.cold_overhead_secs(component, tier, runtimes);
                    (tier, StartKind::Cold, now, overhead)
                }
            };
            match kind {
                StartKind::Warm => p.warm += 1,
                StartKind::Hot => p.hot += 1,
                StartKind::Cold => p.cold += 1,
            }

            // Fault engine: resolve this component's attempt timeline
            // (stragglers, failures, retries, speculation). A strict
            // arithmetic no-op when every rate is zero.
            let exec = tier.exec_secs(component) * startup.exec_multiplier(kind == StartKind::Cold);
            let mut write = startup.output_write_secs(component, tier);
            if self.hints.batched_write_fraction > 0.0 {
                // Wukong-style task clustering batches/delays intermediate
                // writes; the elided fraction comes off every write leg.
                write *= 1.0 - self.hints.batched_write_fraction;
            }
            let timeline = self.plan.timeline(index, slot, overhead, exec, write);
            // Drain finished executions so the heap tracks the set
            // *currently running* instead of growing all phase long.
            let mut heap_drains = 0u64;
            while slots.peek().is_some_and(|&Reverse(free)| free <= start) {
                slots.pop();
                heap_drains += 1;
            }
            // Wait for an execution slot when the platform is at its
            // concurrency limit (wave scheduling, in placement order).
            let start = if slots.len() >= platform.config().invocation_limit {
                // dd-lint: allow(hot-path-panic): len() >= limit >= 1 guarantees a poppable slot on this branch
                let Reverse(free) = slots.pop().expect("at limit");
                start.max(free)
            } else {
                start
            };
            // Keep-alive: from request until the component actually begins
            // (slot waits included), at the instance's rate.
            let keep_alive_secs = pool_slot.map(|s| {
                let inst = &pool[s];
                let idle = start.since(inst.requested_at);
                self.ledger.keep_alive_used += pricing.cost(inst.tier, idle);
                self.utilization.record_idle(inst.tier, idle);
                idle
            });
            let finish = start.after(timeline.completion_offset_secs);
            // Recovery may only push a completion later, never rewind it:
            // the clock is monotone even under retries, timeouts and
            // speculation.
            dd_invariant!(
                finish >= start,
                "phase {index} slot {slot}: recovery rewound completion to {finish} before start {start}"
            );
            slots.push(Reverse(finish));
            if let Some(t) = self.trace.as_mut() {
                t.components.push(ComponentTrace {
                    phase: index,
                    slot,
                    kind,
                    tier,
                    instance: placement.instance,
                    start,
                    overhead_secs: timeline.overhead_secs,
                    exec_secs: exec,
                    write_secs: write,
                    attempts: timeline.attempt_count(),
                    recovery_secs: timeline.recovery_secs,
                });
                t.attempts
                    .extend(timeline.attempts.iter().map(|a| AttemptTrace {
                        phase: index,
                        slot,
                        attempt: a.index,
                        speculative: a.speculative,
                        fault: a.fault,
                        outcome: a.outcome,
                        start: start.after(a.start_offset_secs),
                        busy_secs: a.busy_secs,
                    }));
            }
            if let Some(m) = self.metric_ids {
                obs::emit_component(
                    self.rec,
                    &m,
                    &ComponentObs {
                        phase: index,
                        slot,
                        kind,
                        tier,
                        start,
                        timeline: &timeline,
                        keep_alive_secs,
                        heap_drains,
                    },
                );
            }
            let billed = start.after(timeline.primary_busy_secs).since(start);
            self.ledger.execution += pricing.cost(tier, billed);
            // Instance-seconds burned on losing attempts bill to the
            // separate retry component (billed-but-unused capacity).
            if timeline.retry_busy_secs > 0.0 {
                self.ledger.retry += pricing.cost(tier, timeline.retry_busy_secs);
                self.utilization.record_idle(tier, timeline.retry_busy_secs);
            }
            p.retried += u32::from(timeline.retried());
            if !self.plan.is_clean() {
                self.fault_stats.absorb(&timeline);
            }
            p.overhead_sum += timeline.overhead_secs;
            self.utilization.record_execution(
                tier,
                exec,
                billed,
                component.cpu_demand * Tier::HighEnd.vcpus(),
                component.mem_gb,
                startup.data_fetch_secs(component, tier) + write,
            );
            on_finish(finish);
        }

        // Unused pool instances are terminated now; their whole lifetime
        // was wasted keep-alive.
        for (inst, &was_used) in pool.iter().zip(used.iter()) {
            if !was_used {
                let idle = now.since(inst.requested_at);
                p.wasted += 1;
                self.ledger.keep_alive_wasted += pricing.cost(inst.tier, idle);
                self.utilization.record_idle(inst.tier, idle);
                if let Some(m) = self.metric_ids {
                    self.rec.record(m.keep_alive_wasted, idle);
                }
            }
            if let Some(t) = self.trace.as_mut() {
                t.pool.push(PoolTrace {
                    instance: inst.id,
                    tier: inst.tier,
                    warm: inst.preload.is_some(),
                    requested_at: inst.requested_at,
                    ready_at: inst.ready_at,
                    used: was_used,
                    released_at: now.max(inst.ready_at),
                });
            }
        }
        now
    }

    /// Reports that `count` of the current phase's outputs are in storage
    /// at `at`. Requests the next phase's pool when `count` reaches the
    /// trigger rank and closes the phase when it reaches the component
    /// count; an empty phase does both at its placement instant. Returns
    /// whether the phase closed.
    pub(crate) fn outputs_in(&mut self, count: usize, at: SimTime) -> bool {
        if count == self.phase.trigger_rank {
            self.fire_trigger(at);
        }
        let closed = count == self.phase.expected;
        if closed {
            self.close_phase(at);
        }
        closed
    }

    /// The scheduler's view of the current phase.
    fn observation(&self) -> PhaseObservation {
        let phase = &self.run.phases[self.phase.index];
        let mut observation = observe_phase(phase, self.platform.config().friendly_threshold);
        // Attempt timelines are resolved at dispatch, so the phase's retry
        // count is already final.
        observation.retried_components = self.phase.retried;
        observation
    }

    /// Requests the next phase's pool at `at` (none after the last phase).
    fn fire_trigger(&mut self, at: SimTime) {
        let next = self.phase.index + 1;
        if next >= self.run.phases.len() {
            return;
        }
        let observation = self.observation();
        let request = self
            .scheduler
            .pool_for_next_phase(self.phase.index, &observation);
        self.phase.observation = Some(observation);
        self.spawn(request, at);
        if let Some(m) = self.metric_ids {
            obs::emit_sched_events(self.rec, &m, at, self.scheduler);
            obs::emit_pool(self.rec, next, at, &self.scratch.pending);
        }
    }

    /// Closes the current phase at `at`: the scheduler observes it and its
    /// [`PhaseRecord`] is written.
    fn close_phase(&mut self, at: SimTime) {
        let cached = self.phase.observation.take();
        let observation = cached.unwrap_or_else(|| self.observation());
        self.scheduler.observe_phase(&observation);
        let p = &self.phase;
        // Pool hot/cold accounting must close exactly: every component
        // started exactly once, and every pooled instance was either
        // consumed or wasted.
        dd_debug_invariant!(
            (p.warm + p.hot + p.cold) as usize == p.expected
                && p.warm + p.hot + p.wasted == p.pool_size,
            "phase {} start-kind or pool accounting does not close: {p:?}",
            p.index
        );
        let record = PhaseRecord {
            index: p.index,
            concurrency: p.expected as u32,
            pool_size: p.pool_size,
            warm_starts: p.warm,
            hot_starts: p.hot,
            cold_starts: p.cold,
            used_instances: p.warm + p.hot,
            wasted_instances: p.wasted,
            exec_secs: at.since(p.started_at),
            mean_start_overhead_secs: p.overhead_sum / p.expected.max(1) as f64,
            ledger: self.ledger.delta_since(&p.ledger_mark),
            faults: self.fault_stats.delta_since(&p.faults_mark),
        };
        if let Some(m) = self.metric_ids {
            obs::emit_observe(self.rec, at, &observation);
            obs::emit_sched_events(self.rec, &m, at, self.scheduler);
            obs::emit_phase(self.rec, &m, p.started_at, &record);
        }
        self.records.push(record);
        if let Some(t) = self.trace.as_mut() {
            t.phase_ends.push(at);
        }
        self.end = at;
    }

    /// Materializes a pool request issued at `requested_at` into the
    /// pending arena: caps it at provisioned concurrency and computes each
    /// instance's background-preparation completion time.
    fn spawn(&mut self, mut request: PoolRequest, requested_at: SimTime) {
        let startup = self.platform.startup();
        let hot = startup.hot_prepare_secs(self.runtimes);
        let warm = startup.warm_prepare_secs(self.runtimes);
        request
            .entries
            .truncate(self.platform.config().provisioned_concurrency);
        let first_id = self.next_instance_id;
        self.next_instance_id += request.entries.len() as u64;
        let instances = request
            .entries
            .iter()
            .zip(first_id..)
            .map(|(entry, id)| PooledInstance {
                id: InstanceId(id),
                tier: entry.tier,
                preload: entry.preload,
                requested_at,
                ready_at: requested_at.after(if entry.preload.is_some() { warm } else { hot }),
            });
        self.scratch.pending.extend(instances);
    }

    /// The run epilogue: bills storage for the run's whole duration and
    /// assembles the report.
    fn finish(mut self) -> RunReport {
        // Affinity co-location (ICPS-style hints) serves part of the
        // traffic without touching the back end; that fraction is not
        // billed.
        self.ledger.storage = self.platform.pricing().storage_per_sec * self.end.as_secs();
        if self.hints.colocated_read_fraction > 0.0 {
            self.ledger.storage *= 1.0 - self.hints.colocated_read_fraction;
        }
        self.ledger.debug_validate();
        if let Some(m) = self.metric_ids {
            self.rec.set(m.service_time, self.end.as_secs());
        }
        // Every component starts exactly once (checked at phase close).
        let starts = self.records.iter().map(|r| u64::from(r.concurrency));
        crate::counters::add_component_starts(starts.sum());
        RunReport {
            outcome: RunOutcome {
                // dd-lint: allow(hot-path-alloc): one String per completed run, outside the event loop
                scheduler: self.scheduler.name().to_string(),
                service_time_secs: self.end.as_secs(),
                ledger: self.ledger,
                phases: self.records,
                utilization: self.utilization,
                faults: self.fault_stats,
            },
            trace: self.trace,
        }
    }
}
