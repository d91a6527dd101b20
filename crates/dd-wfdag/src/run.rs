//! Realized workflow runs: concrete phase sequences.
//!
//! A [`WorkflowRun`] is one execution of a dynamic DAG for a specific
//! (operation, input) pair — the paper's "unique run". It is the unit the
//! execution platforms consume: an ordered sequence of [`Phase`]s, each a
//! set of component instances that run in parallel.

use crate::component::{ComponentInstance, ComponentTypeId};
use crate::spec::Workflow;
use dd_stats::Histogram;
use std::collections::BTreeMap;

/// The identity of a run: workflow, index, and the (operation, input) pair
/// that conditioned its path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunLabel {
    /// Which workflow.
    pub workflow: Workflow,
    /// Run index within the experiment (paper evaluates 50 per workflow).
    pub run_index: usize,
    /// Operation the workflow was invoked with.
    pub operation: String,
    /// Input class of the run.
    pub input: String,
    /// Whether the generator marked this run hard-to-predict (distribution
    /// drifts during the run; ~6% of runs, paper Sec. V).
    pub hard_to_predict: bool,
}

/// One phase: components that run in parallel with no mutual dependency.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase index within the run.
    pub index: usize,
    /// The component instances of this phase.
    pub components: Vec<ComponentInstance>,
}

impl Phase {
    /// Phase concurrency: total number of component instances (the sum of
    /// all component concurrencies — paper Sec. II).
    pub fn concurrency(&self) -> u32 {
        self.components.len() as u32
    }

    /// Component concurrency per type: how many instances of each
    /// component type run in this phase.
    pub fn component_concurrency(&self) -> BTreeMap<ComponentTypeId, u32> {
        let mut m = BTreeMap::new();
        for c in &self.components {
            *m.entry(c.type_id).or_insert(0) += 1;
        }
        m
    }

    /// Distinct component types invoked in this phase.
    pub fn distinct_types(&self) -> Vec<ComponentTypeId> {
        let mut ids: Vec<_> = self.components.iter().map(|c| c.type_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Fraction of instances that are high-end friendly at `threshold`.
    pub fn high_end_friendly_fraction(&self, threshold: f64) -> f64 {
        if self.components.is_empty() {
            return 0.0;
        }
        let n = self
            .components
            .iter()
            .filter(|c| c.is_high_end_friendly(threshold))
            .count();
        n as f64 / self.components.len() as f64
    }
}

/// A realized run of a workflow: label + phase sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowRun {
    /// Identity of this run.
    pub label: RunLabel,
    /// Ordered phases.
    pub phases: Vec<Phase>,
}

impl WorkflowRun {
    /// Number of phases.
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }

    /// Total component instances across all phases.
    pub fn total_components(&self) -> usize {
        self.phases.iter().map(|p| p.components.len()).sum()
    }

    /// Phase concurrency series, in phase order (paper Figs. 2 and 7).
    pub fn concurrency_series(&self) -> Vec<u32> {
        self.phases.iter().map(Phase::concurrency).collect()
    }

    /// Histogram of phase concurrency (paper Fig. 9 raw data).
    pub fn concurrency_histogram(&self) -> Histogram {
        self.phases.iter().map(Phase::concurrency).collect()
    }

    /// Maximum phase concurrency (sizes the Pegasus/Wild clusters, which
    /// the paper provisions with `max phase concurrency` nodes).
    pub fn max_concurrency(&self) -> u32 {
        self.concurrency_series().into_iter().max().unwrap_or(0)
    }

    /// Concurrency series of one component type across phases
    /// (paper Fig. 6).
    pub fn component_concurrency_series(&self, ty: ComponentTypeId) -> Vec<u32> {
        self.phases
            .iter()
            .map(|p| p.components.iter().filter(|c| c.type_id == ty).count() as u32)
            .collect()
    }

    /// Invocation matrix rows: for each phase, the distinct types invoked
    /// (paper Fig. 5's black boxes).
    pub fn invocation_matrix(&self) -> Vec<Vec<ComponentTypeId>> {
        self.phases.iter().map(Phase::distinct_types).collect()
    }

    /// All distinct component types used anywhere in the run.
    pub fn distinct_types(&self) -> Vec<ComponentTypeId> {
        let mut ids: Vec<_> = self
            .phases
            .iter()
            .flat_map(|p| p.components.iter().map(|c| c.type_id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Total input volume of the run in GB.
    pub fn total_read_gb(&self) -> f64 {
        self.phases
            .iter()
            .flat_map(|p| &p.components)
            .map(|c| c.read_mb)
            .sum::<f64>()
            / 1024.0
    }

    /// Total output volume of the run in GB.
    pub fn total_write_gb(&self) -> f64 {
        self.phases
            .iter()
            .flat_map(|p| &p.components)
            .map(|c| c.write_mb)
            .sum::<f64>()
            / 1024.0
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;

    fn inst(ty: u32, he: f64, le: f64) -> ComponentInstance {
        ComponentInstance {
            type_id: ComponentTypeId(ty),
            exec_he_secs: he,
            exec_le_secs: le,
            read_mb: 10.0,
            write_mb: 20.0,
            cpu_demand: 0.5,
            mem_gb: 1.0,
        }
    }

    fn sample_run() -> WorkflowRun {
        WorkflowRun {
            label: RunLabel {
                workflow: Workflow::Ccl,
                run_index: 0,
                operation: "dark-matter".into(),
                input: "planck18".into(),
                hard_to_predict: false,
            },
            phases: vec![
                Phase {
                    index: 0,
                    components: vec![inst(1, 1.0, 1.1), inst(1, 1.0, 1.5), inst(2, 2.0, 2.1)],
                },
                Phase {
                    index: 1,
                    components: vec![inst(3, 1.0, 1.6)],
                },
            ],
        }
    }

    #[test]
    fn concurrency_accounting() {
        let run = sample_run();
        assert_eq!(run.concurrency_series(), vec![3, 1]);
        assert_eq!(run.max_concurrency(), 3);
        assert_eq!(run.total_components(), 4);
        assert_eq!(run.phase_count(), 2);
    }

    #[test]
    fn component_concurrency_per_type() {
        let run = sample_run();
        let m = run.phases[0].component_concurrency();
        assert_eq!(m[&ComponentTypeId(1)], 2);
        assert_eq!(m[&ComponentTypeId(2)], 1);
        assert_eq!(
            run.component_concurrency_series(ComponentTypeId(1)),
            vec![2, 0]
        );
    }

    #[test]
    fn distinct_types_sorted_dedup() {
        let run = sample_run();
        assert_eq!(
            run.distinct_types(),
            vec![ComponentTypeId(1), ComponentTypeId(2), ComponentTypeId(3)]
        );
        assert_eq!(
            run.phases[0].distinct_types(),
            vec![ComponentTypeId(1), ComponentTypeId(2)]
        );
    }

    #[test]
    fn invocation_matrix_shape() {
        let run = sample_run();
        let m = run.invocation_matrix();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].len(), 2);
        assert_eq!(m[1], vec![ComponentTypeId(3)]);
    }

    #[test]
    fn histogram_matches_series() {
        let run = sample_run();
        let h = run.concurrency_histogram();
        assert_eq!(h.count(3), 1);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn friendly_fraction() {
        let run = sample_run();
        // Phase 0: slowdowns 0.1, 0.5, 0.05 → 1 of 3 friendly at 20%.
        let f = run.phases[0].high_end_friendly_fraction(0.20);
        assert!((f - 1.0 / 3.0).abs() < 1e-12);
        // Empty phase is 0.
        let empty = Phase {
            index: 9,
            components: vec![],
        };
        assert_eq!(empty.high_end_friendly_fraction(0.2), 0.0);
    }

    #[test]
    fn io_totals() {
        let run = sample_run();
        assert!((run.total_read_gb() - 40.0 / 1024.0).abs() < 1e-12);
        assert!((run.total_write_gb() - 80.0 / 1024.0).abs() < 1e-12);
    }
}
