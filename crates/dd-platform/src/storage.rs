//! Back-end storage server model.
//!
//! In the paper (Sec. IV) an S3 bucket is the workflow's control and data
//! plane: component executables, metadata and all intermediate outputs
//! live there; serverless instances are stateless and exchange data only
//! through it. The storage server also *controls phase progression*:
//!
//! * when **half** of a phase's outputs have arrived, it notifies the DAG
//!   scheduler — the trigger DayDream uses to hot start the next phase's
//!   instances;
//! * when **all** outputs have arrived, the phase is complete and the next
//!   phase starts.
//!
//! [`BackendStore`] reproduces exactly that bookkeeping, plus the storage
//! maintenance cost the paper folds into service cost.

use crate::des::SimTime;
use serde::{Deserialize, Serialize};

/// Storage-side record of one phase's output arrivals.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct PhaseOutputs {
    expected: usize,
    arrivals: Vec<SimTime>,
}

/// The back-end storage server: output tracking + notifications.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BackendStore {
    phases: Vec<PhaseOutputs>,
    bytes_written_mb: f64,
    bytes_read_mb: f64,
}

/// How many of a phase's `expected` outputs must be present before the
/// store sends the half-phase notification: `ceil(n / 2)`, matching "when
/// half of the components of the phase have finished execution". Both
/// executors and [`BackendStore::notifications`] take the threshold from
/// here.
pub(crate) fn half_phase_rank(expected: usize) -> usize {
    expected.div_ceil(2)
}

/// Notification thresholds computed for a completed phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseNotifications {
    /// Instant at which half of the phase's outputs were present — when
    /// the store notifies the scheduler to hot start the next phase.
    pub half_complete: SimTime,
    /// Instant at which all outputs were present — when the next phase
    /// may begin.
    pub complete: SimTime,
}

impl BackendStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a phase expecting `expected` component outputs.
    ///
    /// Phases must be registered in index order.
    pub fn begin_phase(&mut self, phase_index: usize, expected: usize) {
        assert_eq!(
            phase_index,
            self.phases.len(),
            "phases must be registered in order"
        );
        self.phases.push(PhaseOutputs {
            expected,
            arrivals: Vec::with_capacity(expected),
        });
    }

    /// Records the arrival of one component's output for `phase_index`.
    pub fn record_output(&mut self, phase_index: usize, at: SimTime, write_mb: f64) {
        let phase = &mut self.phases[phase_index];
        assert!(
            phase.arrivals.len() < phase.expected,
            "more outputs than components in phase {phase_index}"
        );
        phase.arrivals.push(at);
        self.bytes_written_mb += write_mb;
    }

    /// Records a read of input data.
    pub fn record_read(&mut self, read_mb: f64) {
        self.bytes_read_mb += read_mb;
    }

    /// Computes the half-complete and complete notification instants of a
    /// fully recorded phase (half threshold: `ceil(n / 2)` outputs).
    ///
    /// # Panics
    /// Panics if outputs are still missing.
    pub fn notifications(&self, phase_index: usize) -> PhaseNotifications {
        let phase = &self.phases[phase_index];
        assert_eq!(
            phase.arrivals.len(),
            phase.expected,
            "phase {phase_index} incomplete"
        );
        let mut sorted = phase.arrivals.clone();
        sorted.sort();
        let half_idx = half_phase_rank(phase.expected).saturating_sub(1);
        PhaseNotifications {
            half_complete: sorted[half_idx],
            complete: *sorted.last().expect("non-empty phase"),
        }
    }

    /// Total MB written to the store so far.
    pub fn bytes_written_mb(&self) -> f64 {
        self.bytes_written_mb
    }

    /// Total MB read from the store so far.
    pub fn bytes_read_mb(&self) -> f64 {
        self.bytes_read_mb
    }

    /// Number of phases registered.
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn half_and_full_notifications() {
        let mut store = BackendStore::new();
        store.begin_phase(0, 4);
        for (i, at) in [3.0, 1.0, 4.0, 2.0].into_iter().enumerate() {
            store.record_output(0, t(at), i as f64);
        }
        let n = store.notifications(0);
        // Sorted arrivals: 1,2,3,4 → half (2nd of 4) at 2.0, full at 4.0.
        assert_eq!(n.half_complete, t(2.0));
        assert_eq!(n.complete, t(4.0));
    }

    #[test]
    fn odd_phase_half_threshold_rounds_up() {
        let mut store = BackendStore::new();
        store.begin_phase(0, 5);
        for at in [1.0, 2.0, 3.0, 4.0, 5.0] {
            store.record_output(0, t(at), 0.0);
        }
        // ceil(5/2) = 3rd arrival.
        assert_eq!(store.notifications(0).half_complete, t(3.0));
    }

    #[test]
    fn single_component_phase() {
        let mut store = BackendStore::new();
        store.begin_phase(0, 1);
        store.record_output(0, t(7.0), 1.0);
        let n = store.notifications(0);
        assert_eq!(n.half_complete, t(7.0));
        assert_eq!(n.complete, t(7.0));
    }

    #[test]
    fn byte_accounting() {
        let mut store = BackendStore::new();
        store.begin_phase(0, 2);
        store.record_output(0, t(1.0), 10.0);
        store.record_output(0, t(2.0), 30.0);
        store.record_read(5.0);
        assert_eq!(store.bytes_written_mb(), 40.0);
        assert_eq!(store.bytes_read_mb(), 5.0);
        assert_eq!(store.phase_count(), 1);
    }

    #[test]
    #[should_panic(expected = "phases must be registered in order")]
    fn out_of_order_registration_panics() {
        let mut store = BackendStore::new();
        store.begin_phase(1, 3);
    }

    #[test]
    #[should_panic(expected = "incomplete")]
    fn notifications_require_all_outputs() {
        let mut store = BackendStore::new();
        store.begin_phase(0, 2);
        store.record_output(0, t(1.0), 0.0);
        let _ = store.notifications(0);
    }

    #[test]
    #[should_panic(expected = "more outputs than components")]
    fn overflow_outputs_panics() {
        let mut store = BackendStore::new();
        store.begin_phase(0, 1);
        store.record_output(0, t(1.0), 0.0);
        store.record_output(0, t(2.0), 0.0);
    }
}
