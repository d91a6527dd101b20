//! The dynamic DAG template: decision joints and phase templates.
//!
//! The paper describes a dynamic DAG as "a tree-like data structure with
//! multiple possible paths of execution at each joint, only one of which is
//! taken during a particular run" (Sec. III). [`DynamicDag`] captures that:
//! a cyclic sequence of [`PhaseTemplate`]s, each containing [`DagJoint`]s
//! that offer alternative component-type groups. Which alternative fires in
//! a given run depends on the run's (operation, input) pair and the run's
//! own randomness — so the component mix varies run to run (Fig. 5) while
//! the *statistical* shape stays put (Fig. 9).

use crate::component::ComponentTypeId;
use crate::spec::WorkflowSpec;
use dd_stats::SeedStream;
use rand::Rng;

/// A decision point in the DAG offering alternative component groups.
///
/// Exactly one alternative executes per run; the choice is conditioned on
/// the run's operation/input hash plus per-run randomness, mirroring how
/// e.g. ExaFEL picks "N-D Intensity Map" under the X-Ray Diffraction
/// operation but "Intensity Calculation" under Orientation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagJoint {
    /// Alternative component-type groups; exactly one is selected per run.
    pub alternatives: Vec<Vec<ComponentTypeId>>,
}

impl DagJoint {
    /// Selects the alternative for a run with the given selector value.
    pub fn select(&self, selector: u64) -> &[ComponentTypeId] {
        let idx = (selector % self.alternatives.len() as u64) as usize;
        &self.alternatives[idx]
    }

    /// Number of distinct component types across all alternatives.
    pub fn type_count(&self) -> usize {
        let mut ids: Vec<ComponentTypeId> = self.alternatives.iter().flatten().copied().collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

/// The template of one phase: the joints whose selected alternatives make
/// up the phase's component population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTemplate {
    /// Decision joints of this phase.
    pub joints: Vec<DagJoint>,
}

impl PhaseTemplate {
    /// Resolves the component types executed by a run at this template.
    ///
    /// `path_selector` encodes the run's (operation, input) conditioning;
    /// different selectors take different paths through the joints.
    pub fn resolve(&self, path_selector: u64) -> Vec<ComponentTypeId> {
        let mut out = Vec::new();
        for (j, joint) in self.joints.iter().enumerate() {
            // Rotate the selector per joint so one run does not pick the
            // same alternative index at every joint.
            let sel = path_selector.rotate_left((j % 63) as u32) ^ (j as u64).wrapping_mul(0x9E37);
            out.extend_from_slice(joint.select(sel));
        }
        out
    }
}

/// A complete dynamic DAG: a cyclic sequence of phase templates.
///
/// Long workflows (Cosmoscout-VR runs ~1 100 phases) cycle through a
/// bounded set of templates, modeling the recurring computational-steering
/// structure the paper attributes the distribution stability to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicDag {
    templates: Vec<PhaseTemplate>,
    /// Consecutive phases per template (streak length of Figs. 5–6).
    dwell: usize,
}

impl DynamicDag {
    /// Builds the dynamic DAG for a workflow spec.
    ///
    /// Deterministic per spec: joints partition the catalog into locality
    /// windows so that each template draws from its own neighbourhood of
    /// the catalog (distinct phases run distinct component families), with
    /// 2–4 alternatives per joint.
    pub fn for_spec(spec: &WorkflowSpec) -> Self {
        let seeds = SeedStream::new(0xD1A6_0001).derive(spec.workflow.name());
        let mut rng = seeds.rng_for("dag-structure");
        let n_templates = spec.phase_templates.max(1);
        let catalog_len = spec.catalog.len().max(1);
        let window = (catalog_len / n_templates).max(4);

        let mut templates = Vec::with_capacity(n_templates);
        for t in 0..n_templates {
            let base = (t * window) % catalog_len;
            // 2–5 joints per phase template.
            let n_joints = 2 + (rng.gen::<usize>() % 4);
            let mut joints = Vec::with_capacity(n_joints);
            for _ in 0..n_joints {
                let n_alts = 2 + (rng.gen::<usize>() % 3);
                let mut alternatives = Vec::with_capacity(n_alts);
                for _ in 0..n_alts {
                    let n_types = 1 + (rng.gen::<usize>() % 3);
                    let alt: Vec<ComponentTypeId> = (0..n_types)
                        .map(|_| {
                            let off = rng.gen::<usize>() % window;
                            ComponentTypeId(((base + off) % catalog_len) as u32)
                        })
                        .collect();
                    alternatives.push(alt);
                }
                joints.push(DagJoint { alternatives });
            }
            templates.push(PhaseTemplate { joints });
        }
        Self {
            templates,
            dwell: spec.template_dwell.max(1),
        }
    }

    /// Number of phase templates.
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// Consecutive phases spent on each template.
    pub fn dwell(&self) -> usize {
        self.dwell
    }

    /// The template used by phase `phase_index`: the DAG dwells on each
    /// template for [`DynamicDag::dwell`] consecutive phases, then cycles.
    pub fn template(&self, phase_index: usize) -> &PhaseTemplate {
        &self.templates[(phase_index / self.dwell) % self.templates.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workflow;

    fn dag() -> (WorkflowSpec, DynamicDag) {
        let spec = WorkflowSpec::new(Workflow::Ccl);
        let dag = DynamicDag::for_spec(&spec);
        (spec, dag)
    }

    #[test]
    fn joint_select_in_bounds() {
        let joint = DagJoint {
            alternatives: vec![
                vec![ComponentTypeId(1)],
                vec![ComponentTypeId(2), ComponentTypeId(3)],
            ],
        };
        for sel in 0..10 {
            let alt = joint.select(sel);
            assert!(!alt.is_empty());
        }
        assert_eq!(joint.type_count(), 3);
    }

    #[test]
    fn dag_is_deterministic() {
        let spec = WorkflowSpec::new(Workflow::ExaFel);
        let a = DynamicDag::for_spec(&spec);
        let b = DynamicDag::for_spec(&spec);
        assert_eq!(a, b);
    }

    #[test]
    fn template_count_matches_spec() {
        let (spec, dag) = dag();
        assert_eq!(dag.template_count(), spec.phase_templates);
    }

    #[test]
    fn templates_dwell_then_cycle() {
        let (_, dag) = dag();
        let n = dag.template_count();
        let d = dag.dwell();
        // Consecutive phases within a dwell share the template.
        assert_eq!(dag.template(0), dag.template(d - 1));
        // A full cycle later the template repeats.
        assert_eq!(dag.template(0), dag.template(d * n));
        assert_eq!(dag.template(d), dag.template(d + d * n));
    }

    #[test]
    fn different_selectors_take_different_paths() {
        // Two arbitrary selectors may coincide at one joint; across all
        // templates of the DAG at least one must diverge.
        let (_, dag) = dag();
        let diverged = (0..dag.template_count()).any(|p| {
            let t = dag.template(p);
            t.resolve(0x1111_1111) != t.resolve(0xFEED_BEEF_DEAD_0001)
        });
        assert!(diverged, "no template diverged between selectors");
    }

    #[test]
    fn resolved_ids_within_catalog() {
        let (spec, dag) = dag();
        for p in 0..dag.template_count() {
            for sel in [0u64, 7, 0xABCD] {
                for id in dag.template(p).resolve(sel) {
                    assert!((id.0 as usize) < spec.catalog.len());
                }
            }
        }
    }

    #[test]
    fn same_selector_same_path() {
        let (_, dag) = dag();
        let t = dag.template(5);
        assert_eq!(t.resolve(42), t.resolve(42));
    }
}
