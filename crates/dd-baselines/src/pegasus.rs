//! The Pegasus baseline: the state-of-the-art HPC workflow manager.
//!
//! Per the paper's setup (Sec. IV): Pegasus executes the workflow on a
//! cluster of EC2 m5n nodes (resources and cost similar to high-end
//! Lambdas), with the node count set to the run's **maximum phase
//! concurrency** so no component ever waits for a node. Components run as
//! processes (cold runtime + code load each dispatch), I/O goes through a
//! parallel file system, and the *entire cluster* is billed for the whole
//! makespan — "at all times all the nodes of the cluster are active".

use dd_platform::{CloudVendor, ClusterKind, ClusterPolicy, ClusterSim, RunOutcome};
use dd_wfdag::{LanguageRuntime, WorkflowRun};

/// The Pegasus workflow manager.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pegasus;

impl ClusterPolicy for Pegasus {
    fn name(&self) -> &'static str {
        "pegasus"
    }

    /// Executes the run on a cluster of `max phase concurrency` nodes
    /// under `vendor` pricing, billed whole-cluster for the makespan.
    fn execute(
        &self,
        run: &WorkflowRun,
        runtimes: &[LanguageRuntime],
        vendor: CloudVendor,
    ) -> RunOutcome {
        let nodes = run.max_concurrency().max(1) as usize;
        let sim = ClusterSim::with_vendor(ClusterKind::Hpc, nodes, vendor);
        let mut outcome = sim.execute_run(run, runtimes);
        outcome.scheduler = "pegasus".to_string();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_wfdag::{RunGenerator, Workflow, WorkflowSpec};

    fn setup() -> (WorkflowRun, Vec<LanguageRuntime>) {
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(10);
        let runtimes = spec.runtimes.clone();
        (RunGenerator::new(spec, 6).generate(0), runtimes)
    }

    #[test]
    fn pegasus_completes_run() {
        let (run, runtimes) = setup();
        let outcome = ClusterPolicy::execute(&Pegasus, &run, &runtimes, CloudVendor::Aws);
        assert_eq!(outcome.scheduler, "pegasus");
        assert_eq!(outcome.phases.len(), run.phase_count());
        assert!(outcome.service_time_secs > 0.0);
    }

    #[test]
    fn pegasus_cost_is_whole_cluster_rental() {
        let (run, runtimes) = setup();
        let outcome = ClusterPolicy::execute(&Pegasus, &run, &runtimes, CloudVendor::Aws);
        let nodes = run.max_concurrency() as f64;
        let rate = dd_platform::pricing::PriceSheet::aws().high_end_per_sec;
        let want = nodes * rate * outcome.service_time_secs;
        assert!((outcome.ledger.execution - want).abs() < 1e-9);
    }

    #[test]
    fn pegasus_all_cold_starts() {
        let (run, runtimes) = setup();
        let outcome = ClusterPolicy::execute(&Pegasus, &run, &runtimes, CloudVendor::Aws);
        let (w, h, c) = outcome.start_counts();
        assert_eq!((w, h), (0, 0));
        assert_eq!(c as usize, run.total_components());
    }
}
