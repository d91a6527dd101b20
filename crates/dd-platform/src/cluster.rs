//! Fixed-size cluster execution substrates.
//!
//! Two roles:
//!
//! * the **Pegasus baseline** (paper Sec. IV): a cluster of EC2 m5n-class
//!   nodes — as many as the run's *maximum phase concurrency* — rented for
//!   the entire makespan, with components dispatched as processes (cold
//!   runtime + code load each time, I/O via a parallel file system);
//! * the **Fig. 4 comparison**: the same phases executed under four
//!   isolation regimes (HPC processes, full VMs, containers, serverless
//!   microVMs) with equal aggregate resources, showing microVMs' sweet
//!   spot of low start-up latency and strong isolation.
//!
//! Execution times in this repository are calibrated on microVMs (that is
//! where the paper measured its 3.56 s mean), so other regimes inflate
//! execution by their *excess* CPU steal relative to a solo microVM, via
//! [`ContentionModel`].

use crate::contention::{ContentionModel, IsolationKind};
use crate::des::SimTime;
use crate::pricing::{CloudVendor, PriceSheet};
use crate::startup::StartupModel;
use crate::telemetry::{CostLedger, PhaseRecord, RunOutcome, Utilization};
use crate::tier::Tier;
use dd_wfdag::{LanguageRuntime, Phase, WorkflowRun};

/// The execution regime of a cluster (Fig. 4's four bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterKind {
    /// Bare processes on HPC nodes, parallel-file-system I/O
    /// (the Pegasus substrate).
    Hpc,
    /// One full VM per component.
    VmCluster,
    /// OS containers sharing nodes.
    ContainerCluster,
    /// Serverless microVMs, cold-started (the Fig. 4 reference bar; the
    /// pooled/hot variant is the FaaS executor's job).
    MicroVm,
}

impl ClusterKind {
    /// All regimes, Fig. 4 order.
    pub const ALL: [ClusterKind; 4] = [
        ClusterKind::Hpc,
        ClusterKind::VmCluster,
        ClusterKind::ContainerCluster,
        ClusterKind::MicroVm,
    ];

    /// The isolation model of this regime.
    pub fn isolation(self) -> IsolationKind {
        match self {
            ClusterKind::Hpc => IsolationKind::HpcProcess,
            ClusterKind::VmCluster => IsolationKind::FullVm,
            ClusterKind::ContainerCluster => IsolationKind::Container,
            ClusterKind::MicroVm => IsolationKind::MicroVm,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ClusterKind::Hpc => "hpc-cluster",
            ClusterKind::VmCluster => "vm-cluster",
            ClusterKind::ContainerCluster => "containers",
            ClusterKind::MicroVm => "microvms",
        }
    }
}

impl std::fmt::Display for ClusterKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fixed-size cluster simulator.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    kind: ClusterKind,
    nodes: usize,
    contention: ContentionModel,
    startup: StartupModel,
    pricing: PriceSheet,
    /// Serial dispatch latency per queued component: the workflow
    /// manager's submission loop. This is why Pegasus's phase time grows
    /// with concurrency in Fig. 13c ("the cold start overheads add up").
    dispatch_serial_secs: f64,
    /// Fixed dispatch/base start cost per component for this regime.
    dispatch_base_secs: f64,
    /// Per-phase scheduling overhead (paper: 0.036% of a component
    /// execution for Pegasus).
    scheduler_overhead_secs: f64,
}

impl ClusterSim {
    /// Builds a cluster of `nodes` high-end-class nodes under `kind`,
    /// with AWS pricing/latency.
    pub fn new(kind: ClusterKind, nodes: usize) -> Self {
        Self::with_vendor(kind, nodes, CloudVendor::Aws)
    }

    /// Builds a cluster with a specific vendor's prices and start-up
    /// latency multiplier (Fig. 18's cross-vendor sweep).
    pub fn with_vendor(kind: ClusterKind, nodes: usize, vendor: CloudVendor) -> Self {
        let dispatch_base_secs = match kind {
            // Workflow-manager process dispatch (Slurm/HTCondor-style).
            ClusterKind::Hpc => 0.28,
            // Hypervisor attach on top of the VM boot accounted elsewhere.
            ClusterKind::VmCluster => 0.10,
            // Container runtime spawn.
            ClusterKind::ContainerCluster => 0.06,
            // Lambda invoke API call.
            ClusterKind::MicroVm => 0.02,
        };
        Self {
            kind,
            nodes: nodes.max(1),
            contention: ContentionModel::default(),
            startup: StartupModel::aws().with_vendor_multiplier(vendor.startup_multiplier()),
            pricing: PriceSheet::for_vendor(vendor),
            dispatch_serial_secs: 0.02,
            dispatch_base_secs,
            scheduler_overhead_secs: 0.0013,
        }
    }

    /// The regime simulated.
    pub fn kind(&self) -> ClusterKind {
        self.kind
    }

    /// Node count giving the *same aggregate resources* as the phase's
    /// components demand (Fig. 4's comparison condition): the summed CPU
    /// demand in high-end-node units, rounded up. Cluster nodes then run
    /// at load ≈ 1, where isolation differences show.
    pub fn equal_aggregate_nodes(phase: &Phase) -> usize {
        phase
            .components
            .iter()
            .map(|c| c.cpu_demand)
            .sum::<f64>()
            .ceil()
            .max(1.0) as usize
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Invocation-time start overhead of one component under this regime.
    pub fn start_overhead_secs(
        &self,
        component: &dd_wfdag::ComponentInstance,
        runtimes: &[LanguageRuntime],
    ) -> f64 {
        match self.kind {
            ClusterKind::Hpc => {
                // No VM boot; runtime + code load per process, input via
                // the parallel file system (12% faster than network I/O).
                self.dispatch_base_secs
                    + self.startup.runtime_load_secs(runtimes)
                    + self.startup.component_load_secs
                    + 0.88 * self.startup.data_fetch_secs(component, Tier::HighEnd)
            }
            ClusterKind::VmCluster => {
                self.dispatch_base_secs
                    + self
                        .startup
                        .vm_cold_overhead_secs(component, Tier::HighEnd, runtimes)
            }
            ClusterKind::ContainerCluster => {
                self.dispatch_base_secs
                    + self.startup.runtime_load_secs(runtimes)
                    + self.startup.component_load_secs
                    + self.startup.data_fetch_secs(component, Tier::HighEnd)
            }
            ClusterKind::MicroVm => {
                self.dispatch_base_secs
                    + self
                        .startup
                        .cold_overhead_secs(component, Tier::HighEnd, runtimes)
            }
        }
    }

    /// Output-write time of one component under this regime (parallel FS
    /// writes contend at phase end: +8.7% for HPC, matching the paper's
    /// "output writing overhead 8% less in DayDream").
    pub fn write_secs(&self, component: &dd_wfdag::ComponentInstance) -> f64 {
        let base = self.startup.output_write_secs(component, Tier::HighEnd);
        match self.kind {
            ClusterKind::Hpc => base * 1.087,
            _ => base,
        }
    }

    /// Executes one phase; returns (phase time, per-component busy
    /// seconds, mean start overhead).
    ///
    /// Components are dispatched serially and balanced round-robin over
    /// the nodes; each component's execution inflates by the excess CPU
    /// steal of its node's co-location load relative to a solo microVM.
    pub fn phase_time(&self, phase: &Phase, runtimes: &[LanguageRuntime]) -> PhaseSimResult {
        let n = phase.components.len();
        if n == 0 {
            return PhaseSimResult::default();
        }
        // Node loads after round-robin assignment (demand is expressed in
        // fractions of a high-end instance; nodes are high-end class).
        let node_count = self.nodes.min(n).max(1);
        let mut node_load = vec![0.0f64; node_count];
        for (j, c) in phase.components.iter().enumerate() {
            node_load[j % node_count] += c.cpu_demand;
        }

        let mut phase_end = 0.0f64;
        let mut busy_total = 0.0;
        let mut overhead_sum = 0.0;
        let mut busy_per_component = Vec::with_capacity(n);
        for (j, c) in phase.components.iter().enumerate() {
            let dispatch = j as f64 * self.dispatch_serial_secs;
            let overhead = self.start_overhead_secs(c, runtimes);
            let load = node_load[j % node_count];
            // Every cluster dispatch is an unpooled (cache-cold) start.
            let exec = c.exec_he_secs
                * self.startup.exec_multiplier(true)
                * self.excess_slowdown(load, c.cpu_demand);
            let write = self.write_secs(c);
            let busy = overhead + exec + write;
            let finish = dispatch + busy;
            overhead_sum += overhead;
            busy_total += busy;
            busy_per_component.push(busy);
            phase_end = phase_end.max(finish);
        }
        PhaseSimResult {
            phase_secs: phase_end,
            busy_secs: busy_total,
            mean_overhead_secs: overhead_sum / n as f64,
            busy_per_component,
        }
    }

    /// Execution-time multiplier of this regime at `load`, relative to a
    /// solo microVM (where the calibration measurements were taken).
    fn excess_slowdown(&self, load: f64, solo_demand: f64) -> f64 {
        let here = self.contention.slowdown(self.kind.isolation(), load);
        let reference = self
            .contention
            .slowdown(IsolationKind::MicroVm, solo_demand);
        (here / reference).max(1.0)
    }

    /// Executes a full run: phases in order, whole cluster billed for the
    /// makespan (the paper's Pegasus cost model: "the cost of renting the
    /// entire cluster of nodes … at all times all the nodes of the cluster
    /// are active").
    pub fn execute_run(&self, run: &WorkflowRun, runtimes: &[LanguageRuntime]) -> RunOutcome {
        let mut now = SimTime::ZERO;
        let mut records = Vec::with_capacity(run.phases.len());
        let mut utilization = Utilization::default();
        let mut busy_total = 0.0;

        for phase in &run.phases {
            now = now.after(self.scheduler_overhead_secs);
            let sim = self.phase_time(phase, runtimes);
            for (c, &busy) in phase.components.iter().zip(&sim.busy_per_component) {
                utilization.record_execution(
                    Tier::HighEnd,
                    c.exec_he_secs,
                    busy,
                    c.cpu_demand * Tier::HighEnd.vcpus(),
                    c.mem_gb,
                    self.startup.data_fetch_secs(c, Tier::HighEnd) + self.write_secs(c),
                );
            }
            busy_total += sim.busy_secs;
            records.push(PhaseRecord {
                index: phase.index,
                concurrency: phase.concurrency(),
                pool_size: 0,
                warm_starts: 0,
                hot_starts: 0,
                cold_starts: phase.concurrency(),
                used_instances: 0,
                wasted_instances: 0,
                exec_secs: sim.phase_secs,
                mean_start_overhead_secs: sim.mean_overhead_secs,
                // Cluster billing is a run-level rental, not attributable
                // per phase.
                ..PhaseRecord::default()
            });
            now = now.after(sim.phase_secs);
        }

        // Cluster rental: every node, the whole time.
        let makespan = now.as_secs();
        let rental = self.nodes as f64 * self.pricing.per_sec(Tier::HighEnd) * makespan;
        // The idle share of the rented node-seconds dilutes utilization.
        let idle_node_secs = (self.nodes as f64 * makespan - busy_total).max(0.0);
        utilization.record_idle(Tier::HighEnd, idle_node_secs);

        RunOutcome {
            scheduler: format!("cluster-{}", self.kind),
            service_time_secs: makespan,
            ledger: CostLedger {
                execution: rental,
                keep_alive_used: 0.0,
                keep_alive_wasted: 0.0,
                storage: self.pricing.storage_per_sec * makespan,
                retry: 0.0,
            },
            phases: records,
            utilization,
            faults: crate::faults::FaultStats::default(),
        }
    }
}

/// Result of simulating one phase on a cluster.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseSimResult {
    /// Wall-clock phase time (dispatch of first → last write).
    pub phase_secs: f64,
    /// Total busy node-seconds consumed.
    pub busy_secs: f64,
    /// Mean per-component start overhead.
    pub mean_overhead_secs: f64,
    /// Busy seconds per component (dispatch excluded).
    pub busy_per_component: Vec<f64>,
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;
    use dd_wfdag::{RunGenerator, Workflow, WorkflowSpec};

    fn sample() -> (WorkflowRun, Vec<LanguageRuntime>) {
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(10);
        let runtimes = spec.runtimes.clone();
        (RunGenerator::new(spec, 3).generate(0), runtimes)
    }

    #[test]
    fn microvm_phase_time_lowest_of_regimes() {
        // Fig. 4: with equal aggregate resources, microVMs win the phase
        // time; HPC and VMs are worse (contention / start-up).
        let (run, runtimes) = sample();
        let phase = run
            .phases
            .iter()
            .max_by_key(|p| p.concurrency())
            .expect("non-empty run");
        let nodes = ClusterSim::equal_aggregate_nodes(phase);
        let time = |kind| {
            ClusterSim::new(kind, nodes)
                .phase_time(phase, &runtimes)
                .phase_secs
        };
        let micro = time(ClusterKind::MicroVm);
        assert!(micro < time(ClusterKind::Hpc), "microVM vs HPC");
        assert!(micro < time(ClusterKind::VmCluster), "microVM vs VM");
        assert!(
            micro < time(ClusterKind::ContainerCluster),
            "microVM vs containers"
        );
    }

    #[test]
    fn fewer_nodes_increase_contention_and_time() {
        let (run, runtimes) = sample();
        let phase = &run.phases[0];
        let wide = ClusterSim::new(ClusterKind::Hpc, 64).phase_time(phase, &runtimes);
        let narrow = ClusterSim::new(ClusterKind::Hpc, 2).phase_time(phase, &runtimes);
        assert!(
            narrow.phase_secs >= wide.phase_secs,
            "narrow {:.2}s vs wide {:.2}s",
            narrow.phase_secs,
            wide.phase_secs
        );
    }

    #[test]
    fn phase_time_grows_with_concurrency() {
        // Fig. 13c: Pegasus phase time grows as components per phase
        // increase (serial dispatch + co-location pressure).
        let (run, runtimes) = sample();
        let template = &run.phases[0].components[0];
        let nodes = 16;
        let mut prev = 0.0;
        for n in [4usize, 16, 64, 128] {
            let phase = Phase {
                index: 0,
                components: vec![template.clone(); n],
            };
            let t = ClusterSim::new(ClusterKind::Hpc, nodes)
                .phase_time(&phase, &runtimes)
                .phase_secs;
            assert!(t > prev, "n = {n}: {t:.2}s not > {prev:.2}s");
            prev = t;
        }
    }

    #[test]
    fn run_outcome_accounts_whole_cluster() {
        let (run, runtimes) = sample();
        let nodes = run.max_concurrency() as usize;
        let sim = ClusterSim::new(ClusterKind::Hpc, nodes);
        let outcome = sim.execute_run(&run, &runtimes);
        assert_eq!(outcome.phases.len(), run.phase_count());
        assert!(outcome.service_time_secs > 0.0);
        // Rental = nodes × rate × makespan, exactly.
        let want =
            nodes as f64 * PriceSheet::aws().per_sec(Tier::HighEnd) * outcome.service_time_secs;
        assert!((outcome.ledger.execution - want).abs() < 1e-9);
        // All starts are cold.
        let (w, h, c) = outcome.start_counts();
        assert_eq!((w, h), (0, 0));
        assert_eq!(c as usize, run.total_components());
    }

    #[test]
    fn cluster_utilization_below_one() {
        // Static provisioning at peak concurrency wastes resources in
        // low-concurrency phases (the Fig. 16 story).
        let (run, runtimes) = sample();
        let nodes = run.max_concurrency() as usize;
        let outcome = ClusterSim::new(ClusterKind::Hpc, nodes).execute_run(&run, &runtimes);
        assert!(
            outcome.utilization.cpu() < 0.6,
            "cpu {}",
            outcome.utilization.cpu()
        );
    }

    #[test]
    fn empty_phase_is_free() {
        let sim = ClusterSim::new(ClusterKind::Hpc, 4);
        let phase = Phase {
            index: 0,
            components: vec![],
        };
        let r = sim.phase_time(&phase, &[]);
        assert_eq!(r.phase_secs, 0.0);
        assert_eq!(r.busy_secs, 0.0);
    }

    #[test]
    fn hpc_start_overhead_above_microvm_hot() {
        // The start-up claim behind Fig. 13c: Pegasus pays runtime+code
        // load per component, a hot microVM start does not.
        let (run, runtimes) = sample();
        let c = &run.phases[0].components[0];
        let hpc = ClusterSim::new(ClusterKind::Hpc, 8).start_overhead_secs(c, &runtimes);
        let hot = StartupModel::aws().hot_overhead_secs(c, Tier::HighEnd);
        assert!(
            hpc > hot * 1.15,
            "hpc start {hpc:.3}s should clearly exceed hot start {hot:.3}s"
        );
    }

    #[test]
    fn nodes_clamped_to_one() {
        let sim = ClusterSim::new(ClusterKind::Hpc, 0);
        assert_eq!(sim.nodes(), 1);
    }
}
