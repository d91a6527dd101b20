//! Run traces: record/replay of generated runs.
//!
//! The paper's artifact ships per-run profiling data (`my_test/` folders
//! with concurrency and utilization per phase). [`RunTrace`] plays that
//! role here: a compact, plain-data snapshot of a run's observable
//! statistics from which a run can be re-synthesized without keeping the
//! full component population.

use crate::run::WorkflowRun;
use crate::spec::Workflow;
use crate::usage::{ResourceKind, UsageSeries};

/// A compact trace of one run: identity, concurrency and utilization.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Which workflow.
    pub workflow: Workflow,
    /// Run index.
    pub run_index: usize,
    /// Operation label.
    pub operation: String,
    /// Input label.
    pub input: String,
    /// Whether the run was hard-to-predict.
    pub hard_to_predict: bool,
    /// Phase concurrency per phase.
    pub concurrency: Vec<u32>,
    /// CPU utilization per phase.
    pub cpu: Vec<f64>,
    /// Memory utilization per phase.
    pub memory: Vec<f64>,
    /// I/O bandwidth utilization per phase.
    pub io: Vec<f64>,
}

impl RunTrace {
    /// Captures the trace of a realized run.
    pub fn capture(run: &WorkflowRun) -> Self {
        Self {
            workflow: run.label.workflow,
            run_index: run.label.run_index,
            operation: run.label.operation.clone(),
            input: run.label.input.clone(),
            hard_to_predict: run.label.hard_to_predict,
            concurrency: run.concurrency_series(),
            cpu: UsageSeries::from_run(run, ResourceKind::Cpu).utilization,
            memory: UsageSeries::from_run(run, ResourceKind::Memory).utilization,
            io: UsageSeries::from_run(run, ResourceKind::IoBandwidth).utilization,
        }
    }

    /// Number of phases in the trace.
    pub fn phase_count(&self) -> usize {
        self.concurrency.len()
    }

    /// Concurrency as `f64`, for fitting.
    pub fn concurrency_f64(&self) -> Vec<f64> {
        self.concurrency.iter().map(|&c| f64::from(c)).collect()
    }

    /// Reconstructs a schedulable [`WorkflowRun`] from this trace: phase
    /// concurrency is reproduced **exactly**, and per-component resource
    /// demands are derived from the recorded utilization series.
    ///
    /// This is the what-if path: record a profile once (as the paper's
    /// artifact does in its `my_test/` folders), then replay it under any
    /// scheduler or platform configuration without the original workload.
    /// Component execution times are synthesized around the paper's
    /// 3.56 s mean with seeded jitter, since the trace records phases,
    /// not per-component timings.
    pub fn synthesize_run(&self, seed: u64) -> WorkflowRun {
        use crate::component::{ComponentInstance, ComponentTypeId};
        use crate::run::{Phase, RunLabel};
        use rand::Rng;

        let mut rng = dd_stats::SeedStream::new(seed)
            .derive("trace-replay")
            .derive(&self.operation)
            .derive_index(self.run_index as u64)
            .rng();

        let at = |series: &[f64], i: usize, default: f64| series.get(i).copied().unwrap_or(default);
        let phases = self
            .concurrency
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let cpu = at(&self.cpu, i, 0.5).clamp(0.05, 1.0);
                let mem = (at(&self.memory, i, 0.3) * 6.0).max(0.1);
                let io = at(&self.io, i, 0.3) * 40.0;
                let components = (0..c.max(1))
                    .map(|k| {
                        let z: f64 = rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>() - 1.5;
                        let exec = (3.56 * (0.3 * z).exp()).clamp(0.4, 30.0);
                        // Alternate friendliness so tiering has work to do.
                        let slowdown = if k % 5 < 2 { 0.4 } else { 0.03 };
                        ComponentInstance {
                            type_id: ComponentTypeId((i % 8) as u32 * 4 + (k % 4)),
                            exec_he_secs: exec,
                            exec_le_secs: exec * (1.0 + slowdown),
                            read_mb: io * 0.4,
                            write_mb: io * 0.6,
                            cpu_demand: cpu,
                            mem_gb: mem,
                        }
                    })
                    .collect();
                Phase {
                    index: i,
                    components,
                }
            })
            .collect();

        WorkflowRun {
            label: RunLabel {
                workflow: self.workflow,
                run_index: self.run_index,
                operation: self.operation.clone(),
                input: format!("{}-replay", self.input),
                hard_to_predict: self.hard_to_predict,
            },
            phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::RunGenerator;
    use crate::spec::WorkflowSpec;

    #[test]
    fn capture_matches_run() {
        let gen = RunGenerator::new(WorkflowSpec::new(Workflow::Ccl).scaled_down(8), 1);
        let run = gen.generate(0);
        let trace = RunTrace::capture(&run);
        assert_eq!(trace.phase_count(), run.phase_count());
        assert_eq!(trace.concurrency, run.concurrency_series());
        assert_eq!(trace.workflow, Workflow::Ccl);
        assert_eq!(trace.cpu.len(), run.phase_count());
    }

    #[test]
    fn capture_is_deterministic() {
        let gen = RunGenerator::new(WorkflowSpec::new(Workflow::ExaFel).scaled_down(8), 1);
        let a = RunTrace::capture(&gen.generate(3));
        let b = RunTrace::capture(&gen.generate(3));
        assert_eq!(a, b);
    }

    #[test]
    fn synthesized_run_reproduces_concurrency_exactly() {
        let gen = RunGenerator::new(WorkflowSpec::new(Workflow::Ccl).scaled_down(8), 2);
        let original = gen.generate(0);
        let trace = RunTrace::capture(&original);
        let replayed = trace.synthesize_run(9);
        assert_eq!(replayed.concurrency_series(), original.concurrency_series());
        assert_eq!(replayed.phase_count(), original.phase_count());
        crate::validate::validate_run(&replayed).expect("replayed run is valid");
        // Same seed, same reconstruction.
        assert_eq!(trace.synthesize_run(9), replayed);
    }

    #[test]
    fn synthesized_run_has_mixed_friendliness() {
        let gen = RunGenerator::new(WorkflowSpec::new(Workflow::Ccl).scaled_down(8), 2);
        let trace = RunTrace::capture(&gen.generate(1));
        let run = trace.synthesize_run(1);
        let friendly: usize = run
            .phases
            .iter()
            .flat_map(|p| &p.components)
            .filter(|c| c.is_high_end_friendly(0.2))
            .count();
        let total = run.total_components();
        assert!(friendly > 0 && friendly < total, "{friendly}/{total}");
    }

    #[test]
    fn concurrency_f64_conversion() {
        let trace = RunTrace {
            workflow: Workflow::Ccl,
            run_index: 0,
            operation: "x".into(),
            input: "y".into(),
            hard_to_predict: false,
            concurrency: vec![3, 5],
            cpu: vec![],
            memory: vec![],
            io: vec![],
        };
        assert_eq!(trace.concurrency_f64(), vec![3.0, 5.0]);
    }
}
