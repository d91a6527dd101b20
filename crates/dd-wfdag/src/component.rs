//! Components: the smallest unit of execution in a workflow.
//!
//! A [`ComponentType`] is a catalog entry — a named program with execution
//! and resource characteristics. A [`ComponentInstance`] is one invocation
//! of a type inside a phase (a component may have several concurrent
//! instances; their sum is the *component concurrency* of the paper).

use crate::runtime::LanguageRuntime;

/// Identifier of a component type within a workflow catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ComponentTypeId(pub u32);

impl std::fmt::Display for ComponentTypeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// A catalog entry: one component program of a workflow.
///
/// Execution times are the *pure compute* times on each instance tier;
/// start-up (cold/hot/warm) and I/O transfer overheads are added by the
/// platform, not baked in here. The paper's measured mean component
/// execution time is 3.56 s, which the workflow catalogs are calibrated to.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentType {
    /// Catalog identifier.
    pub id: ComponentTypeId,
    /// Human-readable name (paper Fig. 1 names where applicable).
    pub name: String,
    /// Language runtime the component needs.
    pub runtime: LanguageRuntime,
    /// Compute seconds on a high-end instance.
    pub exec_he_secs: f64,
    /// Compute seconds on a low-end instance (≥ `exec_he_secs`).
    pub exec_le_secs: f64,
    /// CPU demand as a fraction of a high-end instance's cores (0, 1].
    pub cpu_demand: f64,
    /// Peak resident memory in GB.
    pub mem_gb: f64,
    /// Input bytes fetched from back-end storage, in MB.
    pub read_mb: f64,
    /// Output bytes written to back-end storage, in MB.
    pub write_mb: f64,
}

impl ComponentType {
    /// Fractional slowdown when executed on a low-end instead of a
    /// high-end instance: `t_LE / t_HE − 1`.
    pub fn low_end_slowdown(&self) -> f64 {
        if self.exec_he_secs <= 0.0 {
            return 0.0;
        }
        self.exec_le_secs / self.exec_he_secs - 1.0
    }

    /// Whether this component is *high-end friendly* under the given
    /// slowdown threshold (the paper uses 20%, and shows <3% sensitivity
    /// over 5–30%).
    pub fn is_high_end_friendly(&self, threshold: f64) -> bool {
        self.low_end_slowdown() > threshold
    }
}

/// One invocation of a component type inside a phase.
///
/// Carries per-instance jittered execution times (real components vary
/// run to run with their inputs) so two instances of the same type are not
/// byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentInstance {
    /// The catalog type being invoked.
    pub type_id: ComponentTypeId,
    /// Jittered compute seconds on a high-end instance.
    pub exec_he_secs: f64,
    /// Jittered compute seconds on a low-end instance.
    pub exec_le_secs: f64,
    /// Input volume for this invocation, MB.
    pub read_mb: f64,
    /// Output volume for this invocation, MB.
    pub write_mb: f64,
    /// CPU demand fraction (inherited from the type).
    pub cpu_demand: f64,
    /// Peak memory GB (inherited from the type).
    pub mem_gb: f64,
}

impl ComponentInstance {
    /// Builds an instance of `ty` with a multiplicative jitter factor
    /// applied to times and I/O volumes.
    pub fn from_type(ty: &ComponentType, jitter: f64) -> Self {
        let j = jitter.max(0.05);
        Self {
            type_id: ty.id,
            exec_he_secs: ty.exec_he_secs * j,
            exec_le_secs: ty.exec_le_secs * j,
            read_mb: ty.read_mb * j,
            write_mb: ty.write_mb * j,
            cpu_demand: ty.cpu_demand,
            mem_gb: ty.mem_gb,
        }
    }

    /// Fractional slowdown of this invocation on low-end hardware.
    pub fn low_end_slowdown(&self) -> f64 {
        if self.exec_he_secs <= 0.0 {
            return 0.0;
        }
        self.exec_le_secs / self.exec_he_secs - 1.0
    }

    /// Whether this invocation is high-end friendly at `threshold`.
    pub fn is_high_end_friendly(&self, threshold: f64) -> bool {
        self.low_end_slowdown() > threshold
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;

    fn ty(he: f64, le: f64) -> ComponentType {
        ComponentType {
            id: ComponentTypeId(1),
            name: "X-Ray Diffraction".into(),
            runtime: LanguageRuntime::Python,
            exec_he_secs: he,
            exec_le_secs: le,
            cpu_demand: 0.8,
            mem_gb: 4.0,
            read_mb: 100.0,
            write_mb: 250.0,
        }
    }

    #[test]
    fn slowdown_computation() {
        let t = ty(2.0, 2.6);
        assert!((t.low_end_slowdown() - 0.3).abs() < 1e-12);
        assert!(t.is_high_end_friendly(0.2));
        assert!(!t.is_high_end_friendly(0.35));
    }

    #[test]
    fn zero_he_time_is_not_friendly() {
        let t = ty(0.0, 1.0);
        assert_eq!(t.low_end_slowdown(), 0.0);
        assert!(!t.is_high_end_friendly(0.2));
    }

    #[test]
    fn instance_jitter_scales_times() {
        let t = ty(2.0, 3.0);
        let inst = ComponentInstance::from_type(&t, 1.5);
        assert!((inst.exec_he_secs - 3.0).abs() < 1e-12);
        assert!((inst.exec_le_secs - 4.5).abs() < 1e-12);
        assert!((inst.read_mb - 150.0).abs() < 1e-12);
        // Slowdown ratio is invariant under jitter.
        assert!((inst.low_end_slowdown() - t.low_end_slowdown()).abs() < 1e-12);
    }

    #[test]
    fn jitter_floor_prevents_degenerate_instances() {
        let t = ty(2.0, 3.0);
        let inst = ComponentInstance::from_type(&t, 0.0);
        assert!(inst.exec_he_secs > 0.0);
    }

    #[test]
    fn type_id_display() {
        assert_eq!(ComponentTypeId(7).to_string(), "C7");
    }
}
