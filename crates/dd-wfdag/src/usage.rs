//! Resource-usage time series (paper Fig. 3).
//!
//! The paper motivates serverless execution by showing that CPU, memory
//! and I/O-bandwidth consumption of the workflows swing widely over their
//! execution. [`UsageSeries`] derives those series from a realized run: the
//! per-phase aggregate demand of the phase's components, expressed as
//! utilization of a fixed-size reference cluster (what an HPC allocation
//! would have provisioned).

use crate::run::WorkflowRun;

/// Which resource a series describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// CPU utilization.
    Cpu,
    /// Memory utilization.
    Memory,
    /// I/O bandwidth utilization.
    IoBandwidth,
}

impl ResourceKind {
    /// All resource kinds, in Fig. 3 order.
    pub const ALL: [ResourceKind; 3] = [
        ResourceKind::Cpu,
        ResourceKind::Memory,
        ResourceKind::IoBandwidth,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::Memory => "memory",
            ResourceKind::IoBandwidth => "io-bandwidth",
        }
    }
}

/// A per-phase utilization series in `[0, 1]`, relative to a fixed
/// reference capacity sized at the run's *peak* demand — i.e. what a
/// statically provisioned cluster would look like.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageSeries {
    /// The resource described.
    pub kind: ResourceKind,
    /// Utilization per phase, in `[0, 1]`.
    pub utilization: Vec<f64>,
}

impl UsageSeries {
    /// Derives the utilization series of `kind` from a run.
    ///
    /// Demand per phase is the sum of the phase's component demands
    /// (CPU fraction, memory GB, or I/O MB moved); the reference capacity
    /// is the maximum phase demand, so the peak phase shows 1.0.
    pub fn from_run(run: &WorkflowRun, kind: ResourceKind) -> Self {
        let demand: Vec<f64> = run
            .phases
            .iter()
            .map(|p| {
                p.components
                    .iter()
                    .map(|c| match kind {
                        ResourceKind::Cpu => c.cpu_demand,
                        ResourceKind::Memory => c.mem_gb,
                        ResourceKind::IoBandwidth => c.read_mb + c.write_mb,
                    })
                    .sum()
            })
            .collect();
        let peak = demand.iter().cloned().fold(0.0f64, f64::max);
        let utilization = if peak > 0.0 {
            demand.iter().map(|d| d / peak).collect()
        } else {
            vec![0.0; demand.len()]
        };
        Self { kind, utilization }
    }

    /// Mean utilization — the headline "static provisioning wastes
    /// resources" number (1 − mean is the wasted fraction).
    pub fn mean(&self) -> f64 {
        dd_stats::mean(&self.utilization)
    }

    /// Coefficient of variation (σ/μ) — how bursty the demand is.
    pub fn coefficient_of_variation(&self) -> f64 {
        let m = self.mean();
        if m <= 0.0 {
            return 0.0;
        }
        dd_stats::std_dev(&self.utilization) / m
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;
    use crate::generator::RunGenerator;
    use crate::spec::{Workflow, WorkflowSpec};

    fn run() -> WorkflowRun {
        RunGenerator::new(WorkflowSpec::new(Workflow::Ccl).scaled_down(4), 42).generate(0)
    }

    #[test]
    fn utilization_bounded_and_peaked() {
        let r = run();
        for kind in ResourceKind::ALL {
            let s = UsageSeries::from_run(&r, kind);
            assert_eq!(s.utilization.len(), r.phase_count());
            assert!(s.utilization.iter().all(|&u| (0.0..=1.0).contains(&u)));
            let peak = s.utilization.iter().cloned().fold(0.0f64, f64::max);
            assert!((peak - 1.0).abs() < 1e-12, "{}: peak {peak}", kind.name());
        }
    }

    #[test]
    fn utilization_varies_significantly() {
        // The Fig. 3 claim: resource consumption varies over execution.
        let r = run();
        let s = UsageSeries::from_run(&r, ResourceKind::Cpu);
        assert!(
            s.coefficient_of_variation() > 0.1,
            "CV = {}",
            s.coefficient_of_variation()
        );
        assert!(s.mean() < 0.95, "static provisioning should look wasteful");
    }

    #[test]
    fn empty_run_is_all_zero() {
        let r = WorkflowRun {
            label: run().label,
            phases: vec![],
        };
        let s = UsageSeries::from_run(&r, ResourceKind::Memory);
        assert!(s.utilization.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn kinds_have_names() {
        assert_eq!(ResourceKind::Cpu.name(), "cpu");
        assert_eq!(ResourceKind::IoBandwidth.name(), "io-bandwidth");
    }
}
