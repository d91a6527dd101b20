//! Execution traces: the event timeline of a run.
//!
//! The paper's artifact emits per-run files (`phase_time.txt`,
//! `function_service_time.txt`, `execution_cost.txt`); this module is the
//! simulator-side equivalent — an optional, fully ordered record of every
//! component's lifecycle (instance request → ready → start → overhead done
//! → execution done → output written) plus pool events. Experiments use it
//! for timeline exports and the test suite uses it to check executor
//! invariants that aggregate metrics can't see (e.g. no instance serves
//! two components, outputs never precede starts).

use crate::des::SimTime;
use crate::faults::{AttemptOutcome, FaultKind};
use crate::pool::InstanceId;
use crate::sched::StartKind;
use crate::tier::Tier;

/// The lifecycle of one component execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentTrace {
    /// Phase index.
    pub phase: usize,
    /// Position within the phase.
    pub slot: usize,
    /// How it was started.
    pub kind: StartKind,
    /// Tier it ran on.
    pub tier: Tier,
    /// Pooled instance used (None for cold starts).
    pub instance: Option<InstanceId>,
    /// When the component began (waiting for instance readiness included
    /// before this instant).
    pub start: SimTime,
    /// Start-up overhead duration (fetch/load work).
    pub overhead_secs: f64,
    /// Pure execution duration.
    pub exec_secs: f64,
    /// Output-write duration.
    pub write_secs: f64,
    /// Attempts launched under fault injection (1 on a clean run).
    pub attempts: u32,
    /// Time spent on failed attempts and backoff gaps before the winning
    /// attempt completed (`0.0` on a clean run).
    pub recovery_secs: f64,
}

impl ComponentTrace {
    /// Completion instant (output in storage).
    pub fn finish(&self) -> SimTime {
        self.start
            .after(self.overhead_secs + self.exec_secs + self.write_secs + self.recovery_secs)
    }

    /// Total busy (billed) duration.
    pub fn busy_secs(&self) -> f64 {
        self.overhead_secs + self.exec_secs + self.write_secs
    }

    /// The component's *function service time* in the artifact's sense:
    /// start-up + compute + output write.
    pub fn service_secs(&self) -> f64 {
        self.busy_secs()
    }
}

/// One attempt of a component under fault injection: which fault hit it,
/// how it ended, and what it burned. Clean runs record none of these (the
/// single healthy attempt is implicit in [`ComponentTrace`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptTrace {
    /// Phase index.
    pub phase: usize,
    /// Position within the phase.
    pub slot: usize,
    /// Primary attempt index (a speculative copy shares its primary's).
    pub attempt: u32,
    /// Whether this is a speculative backup copy.
    pub speculative: bool,
    /// The fault that hit the attempt, if any.
    pub fault: Option<FaultKind>,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
    /// Attempt launch instant.
    pub start: SimTime,
    /// Billed instance-seconds the attempt consumed.
    pub busy_secs: f64,
}

/// A pool-instance lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolTrace {
    /// Instance id.
    pub instance: InstanceId,
    /// Tier.
    pub tier: Tier,
    /// Whether it was warm-paired (Wild) or runtime-only (hot).
    pub warm: bool,
    /// Request instant (keep-alive billing starts).
    pub requested_at: SimTime,
    /// Readiness instant.
    pub ready_at: SimTime,
    /// Whether a component ever ran on it.
    pub used: bool,
    /// Termination instant (placement time for unused instances; start
    /// instant for used ones — execution billing takes over from there).
    pub released_at: SimTime,
}

/// The complete trace of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionTrace {
    /// Every component execution, in (phase, slot) order.
    pub components: Vec<ComponentTrace>,
    /// Every pooled instance ever requested.
    pub pool: Vec<PoolTrace>,
    /// Every attempt of every faulted component (empty on clean runs).
    pub attempts: Vec<AttemptTrace>,
    /// Phase start instants.
    pub phase_starts: Vec<SimTime>,
    /// Phase completion instants (all outputs in storage).
    pub phase_ends: Vec<SimTime>,
}

impl ExecutionTrace {
    /// Components of one phase.
    pub fn phase_components(&self, phase: usize) -> impl Iterator<Item = &ComponentTrace> {
        self.components.iter().filter(move |c| c.phase == phase)
    }

    /// Per-phase wall-clock durations (`phase_time.txt` of the artifact).
    pub fn phase_times(&self) -> Vec<f64> {
        self.phase_starts
            .iter()
            .zip(&self.phase_ends)
            .map(|(s, e)| e.since(*s))
            .collect()
    }

    /// Per-component service times in execution order
    /// (`function_service_time.txt` of the artifact).
    pub fn service_times(&self) -> Vec<f64> {
        self.components.iter().map(|c| c.service_secs()).collect()
    }

    /// Checks internal consistency; returns a description of the first
    /// violation, if any. Exercised by the integration tests after every
    /// simulated run.
    pub fn validate(&self) -> Result<(), String> {
        // Components are in phase order and stay inside their phase span.
        let mut prev_phase = 0usize;
        for c in &self.components {
            if c.phase < prev_phase {
                return Err(format!(
                    "component of phase {} after phase {prev_phase}",
                    c.phase
                ));
            }
            prev_phase = c.phase;
            let start = self
                .phase_starts
                .get(c.phase)
                .copied()
                .ok_or_else(|| format!("component references unknown phase {}", c.phase))?;
            let end = self.phase_ends[c.phase];
            if c.start < start {
                return Err(format!(
                    "phase {} component starts at {} before phase start {start}",
                    c.phase, c.start
                ));
            }
            if c.finish() > end.after(1e-9) {
                return Err(format!(
                    "phase {} component finishes at {} after phase end {end}",
                    c.phase,
                    c.finish()
                ));
            }
            if c.overhead_secs < 0.0 || c.exec_secs <= 0.0 || c.write_secs < 0.0 {
                return Err(format!("non-positive durations in phase {}", c.phase));
            }
            if c.attempts == 0 || c.recovery_secs < 0.0 {
                return Err(format!(
                    "phase {} slot {}: attempts {} / recovery {}s out of range",
                    c.phase, c.slot, c.attempts, c.recovery_secs
                ));
            }
        }
        // Attempt records belong to a traced component and never start
        // before their component's dispatch.
        for a in &self.attempts {
            let c = self
                .components
                .iter()
                .find(|c| c.phase == a.phase && c.slot == a.slot)
                .ok_or_else(|| {
                    format!(
                        "attempt references untraced component {}/{}",
                        a.phase, a.slot
                    )
                })?;
            if a.start < c.start {
                return Err(format!(
                    "phase {} slot {} attempt {} starts at {} before dispatch {}",
                    a.phase, a.slot, a.attempt, a.start, c.start
                ));
            }
            if a.busy_secs < 0.0 {
                return Err(format!(
                    "phase {} slot {} attempt {} has negative busy time",
                    a.phase, a.slot, a.attempt
                ));
            }
        }
        // Every component's lifecycle must follow the instance state
        // machine for its start kind.
        for c in &self.components {
            let mut lc = crate::instance::InstanceLifecycle::new();
            lc.advance_all(crate::instance::InstanceLifecycle::canonical_path(c.kind))
                .map_err(|e| format!("phase {} slot {}: {e}", c.phase, c.slot))?;
        }
        // Each instance serves at most one component, after its readiness.
        let mut used_ids = std::collections::BTreeSet::new();
        for c in &self.components {
            if let Some(id) = c.instance {
                if !used_ids.insert(id) {
                    return Err(format!("instance {id} served two components"));
                }
                let pool = self
                    .pool
                    .iter()
                    .find(|p| p.instance == id)
                    .ok_or_else(|| format!("instance {id} missing from pool trace"))?;
                if c.start < pool.ready_at {
                    return Err(format!(
                        "instance {id} started work at {} before ready {}",
                        c.start, pool.ready_at
                    ));
                }
                if !pool.used {
                    return Err(format!("instance {id} used but marked unused"));
                }
            }
        }
        // Phases are contiguous in time.
        for w in self.phase_starts.windows(2) {
            if w[1] < w[0] {
                return Err("phase starts not monotone".to_string());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;

    fn component(phase: usize, start: f64, id: Option<u64>) -> ComponentTrace {
        ComponentTrace {
            phase,
            slot: 0,
            kind: StartKind::Hot,
            tier: Tier::HighEnd,
            instance: id.map(InstanceId),
            start: SimTime::from_secs(start),
            overhead_secs: 0.9,
            exec_secs: 3.0,
            write_secs: 0.2,
            attempts: 1,
            recovery_secs: 0.0,
        }
    }

    fn pool_entry(id: u64, ready: f64, used: bool) -> PoolTrace {
        PoolTrace {
            instance: InstanceId(id),
            tier: Tier::HighEnd,
            warm: false,
            requested_at: SimTime::from_secs(0.0),
            ready_at: SimTime::from_secs(ready),
            used,
            released_at: SimTime::from_secs(ready),
        }
    }

    fn valid_trace() -> ExecutionTrace {
        ExecutionTrace {
            components: vec![component(0, 1.0, Some(1))],
            pool: vec![pool_entry(1, 0.5, true)],
            attempts: vec![],
            phase_starts: vec![SimTime::from_secs(1.0)],
            phase_ends: vec![SimTime::from_secs(5.2)],
        }
    }

    #[test]
    fn finish_and_service_math() {
        let c = component(0, 1.0, None);
        assert!((c.finish().as_secs() - 5.1).abs() < 1e-12);
        assert!((c.busy_secs() - 4.1).abs() < 1e-12);
        assert_eq!(c.service_secs(), c.busy_secs());
    }

    #[test]
    fn valid_trace_passes() {
        assert_eq!(valid_trace().validate(), Ok(()));
    }

    #[test]
    fn detects_double_used_instance() {
        let mut t = valid_trace();
        t.components.push(component(0, 1.5, Some(1)));
        t.phase_ends[0] = SimTime::from_secs(9.0);
        let err = t.validate().unwrap_err();
        assert!(err.contains("served two components"), "{err}");
    }

    #[test]
    fn detects_start_before_ready() {
        let mut t = valid_trace();
        t.pool[0].ready_at = SimTime::from_secs(2.0);
        let err = t.validate().unwrap_err();
        assert!(err.contains("before ready"), "{err}");
    }

    #[test]
    fn detects_component_outside_phase() {
        let mut t = valid_trace();
        t.phase_ends[0] = SimTime::from_secs(2.0);
        let err = t.validate().unwrap_err();
        assert!(err.contains("after phase end"), "{err}");
    }

    #[test]
    fn phase_times_and_service_times() {
        let t = valid_trace();
        let times = t.phase_times();
        assert_eq!(times.len(), 1);
        assert!((times[0] - 4.2).abs() < 1e-12);
        assert_eq!(t.service_times().len(), 1);
    }

    #[test]
    fn detects_unknown_phase_reference() {
        let mut t = valid_trace();
        t.components[0].phase = 7;
        assert!(t.validate().is_err());
    }

    #[test]
    fn detects_orphan_attempt_record() {
        let mut t = valid_trace();
        t.attempts.push(AttemptTrace {
            phase: 0,
            slot: 9, // no such component
            attempt: 0,
            speculative: false,
            fault: Some(FaultKind::InstanceCrash),
            outcome: AttemptOutcome::Failed,
            start: SimTime::from_secs(1.0),
            busy_secs: 0.5,
        });
        let err = t.validate().unwrap_err();
        assert!(err.contains("untraced component"), "{err}");
    }

    #[test]
    fn detects_attempt_before_dispatch() {
        let mut t = valid_trace();
        t.attempts.push(AttemptTrace {
            phase: 0,
            slot: 0,
            attempt: 0,
            speculative: false,
            fault: None,
            outcome: AttemptOutcome::Superseded,
            start: SimTime::from_secs(0.2),
            busy_secs: 0.5,
        });
        let err = t.validate().unwrap_err();
        assert!(err.contains("before dispatch"), "{err}");
    }

    #[test]
    fn recovery_extends_finish_and_is_validated() {
        let mut c = component(0, 1.0, None);
        c.recovery_secs = 2.0;
        assert!((c.finish().as_secs() - 7.1).abs() < 1e-12);
        let mut t = valid_trace();
        t.components[0].recovery_secs = -0.1;
        let err = t.validate().unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }
}
