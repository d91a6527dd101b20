//! CPU-steal / co-location contention model.
//!
//! Fig. 4 of the paper compares phase execution across four isolation
//! regimes with equal aggregate resources and reports:
//!
//! * CPU steal time of components is **18% lower** in serverless microVMs
//!   than on an HPC cluster, and **11% lower** than in containers;
//! * microVMs hit the "sweet spot": near-container start-up latency with
//!   near-VM isolation.
//!
//! [`ContentionModel`] turns a node's load (aggregate CPU demand of
//! co-located components relative to capacity) into a steal fraction, with
//! a per-regime isolation factor calibrated to those relative deltas, and
//! the steal fraction inflates component execution time.

/// Isolation regimes of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsolationKind {
    /// Bare processes sharing an HPC node (no isolation).
    HpcProcess,
    /// OS containers (namespaced, shared kernel scheduling domains).
    Container,
    /// Full VMs (strong isolation, heavy start-up).
    FullVm,
    /// Serverless microVMs (separate user space, shared kernel/devices).
    MicroVm,
}

/// Converts co-location load into execution-time inflation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionModel {
    /// Steal fraction per unit of load on an un-isolated HPC node.
    pub base_steal_per_load: f64,
    /// Hard cap on the steal fraction.
    pub max_steal: f64,
}

impl Default for ContentionModel {
    fn default() -> Self {
        Self {
            // Calibrated so that a fully loaded HPC node (load = 1.0)
            // inflates execution ~25%, matching the ~22% execution
            // overhead gap the paper measures between Pegasus and
            // DayDream (Sec. V).
            base_steal_per_load: 0.25,
            max_steal: 0.60,
        }
    }
}

impl ContentionModel {
    /// Isolation factor: multiplier on the base steal for each regime.
    ///
    /// Encodes the paper's relative measurements: microVM steal is 18%
    /// below HPC (0.82×) and 11% below containers (containers = 0.82/0.89
    /// ≈ 0.92× HPC). Full VMs isolate as well as microVMs.
    pub fn isolation_factor(kind: IsolationKind) -> f64 {
        match kind {
            IsolationKind::HpcProcess => 1.0,
            IsolationKind::Container => 0.82 / 0.89,
            IsolationKind::FullVm => 0.82,
            IsolationKind::MicroVm => 0.82,
        }
    }

    /// Steal fraction for components co-located at `load` (aggregate CPU
    /// demand / node capacity) under `kind` isolation.
    ///
    /// Load below a 0.5 floor produces no steal: an under-committed node
    /// has free cycles for everyone.
    pub fn steal_fraction(&self, kind: IsolationKind, load: f64) -> f64 {
        let pressure = (load - 0.5).max(0.0) * 2.0;
        (self.base_steal_per_load * pressure * Self::isolation_factor(kind)).min(self.max_steal)
    }

    /// Execution-time multiplier at the given load: `1 / (1 − steal)`.
    pub fn slowdown(&self, kind: IsolationKind, load: f64) -> f64 {
        1.0 / (1.0 - self.steal_fraction(kind, load))
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;

    #[test]
    fn microvm_steal_18_below_hpc() {
        let m = ContentionModel::default();
        let hpc = m.steal_fraction(IsolationKind::HpcProcess, 1.0);
        let micro = m.steal_fraction(IsolationKind::MicroVm, 1.0);
        assert!(hpc > 0.0);
        assert!(
            ((1.0 - micro / hpc) - 0.18).abs() < 1e-9,
            "microVM steal reduction vs HPC = {}",
            1.0 - micro / hpc
        );
    }

    #[test]
    fn microvm_steal_11_below_containers() {
        let m = ContentionModel::default();
        let cont = m.steal_fraction(IsolationKind::Container, 1.0);
        let micro = m.steal_fraction(IsolationKind::MicroVm, 1.0);
        assert!(
            ((1.0 - micro / cont) - 0.11).abs() < 1e-9,
            "microVM steal reduction vs containers = {}",
            1.0 - micro / cont
        );
    }

    #[test]
    fn no_steal_when_undercommitted() {
        let m = ContentionModel::default();
        for kind in [
            IsolationKind::HpcProcess,
            IsolationKind::Container,
            IsolationKind::MicroVm,
        ] {
            assert_eq!(m.steal_fraction(kind, 0.3), 0.0);
            assert_eq!(m.slowdown(kind, 0.3), 1.0);
        }
    }

    #[test]
    fn steal_capped() {
        let m = ContentionModel::default();
        let s = m.steal_fraction(IsolationKind::HpcProcess, 100.0);
        assert_eq!(s, m.max_steal);
        assert!(m.slowdown(IsolationKind::HpcProcess, 100.0) < 3.0);
    }

    #[test]
    fn slowdown_monotone_in_load() {
        let m = ContentionModel::default();
        let mut prev = 0.0;
        for i in 0..20 {
            let s = m.slowdown(IsolationKind::HpcProcess, i as f64 * 0.2);
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn isolation_ordering_matches_figure_4() {
        // HPC worst, containers next, microVMs/VMs best.
        let m = ContentionModel::default();
        let load = 1.2;
        let hpc = m.slowdown(IsolationKind::HpcProcess, load);
        let cont = m.slowdown(IsolationKind::Container, load);
        let micro = m.slowdown(IsolationKind::MicroVm, load);
        let vm = m.slowdown(IsolationKind::FullVm, load);
        assert!(hpc > cont);
        assert!(cont > micro);
        assert_eq!(micro, vm);
    }

    #[test]
    fn full_load_slowdown_near_calibration() {
        // At load 1.0 the HPC slowdown should sit near the ~1.3× band
        // that reproduces the paper's 22% execution-overhead gap.
        let m = ContentionModel::default();
        let s = m.slowdown(IsolationKind::HpcProcess, 1.0);
        assert!((1.2..=1.45).contains(&s), "slowdown = {s:.3}");
    }
}
