//! Instance tiers: the two classes of serverless function instances.
//!
//! The paper provisions two kinds of AWS Lambdas (Sec. IV): **high-end**
//! (10 GB memory, 6 vCPUs, 10 Gb/s I/O) and **low-end** (5 GB, 3 vCPUs,
//! 5 Gb/s), at $0.0001667/s and $0.0000833/s respectively. DayDream's
//! tiering logic steers high-end-friendly components to high-end
//! instances; everything else runs low-end to cut cost.

use dd_wfdag::ComponentInstance;

/// The tier of a serverless function instance (or cluster node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tier {
    /// 10 GB memory, 6 vCPUs, 10 Gb/s I/O.
    HighEnd,
    /// 5 GB memory, 3 vCPUs, 5 Gb/s I/O.
    LowEnd,
}

impl Tier {
    /// Both tiers.
    pub const ALL: [Tier; 2] = [Tier::HighEnd, Tier::LowEnd];

    /// Memory capacity in GB.
    pub fn memory_gb(self) -> f64 {
        match self {
            Tier::HighEnd => 10.0,
            Tier::LowEnd => 5.0,
        }
    }

    /// vCPU cores.
    pub fn vcpus(self) -> f64 {
        match self {
            Tier::HighEnd => 6.0,
            Tier::LowEnd => 3.0,
        }
    }

    /// I/O bandwidth in MB/s (paper: 10 / 5 Gb/s ≈ 1 250 / 625 MB/s).
    pub fn io_mb_per_sec(self) -> f64 {
        match self {
            Tier::HighEnd => 1_250.0,
            Tier::LowEnd => 625.0,
        }
    }

    /// Compute seconds of `component` on this tier.
    pub fn exec_secs(self, component: &ComponentInstance) -> f64 {
        match self {
            Tier::HighEnd => component.exec_he_secs,
            Tier::LowEnd => component.exec_le_secs,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::HighEnd => "high-end",
            Tier::LowEnd => "low-end",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;
    use dd_wfdag::ComponentTypeId;

    #[test]
    fn resource_envelopes_match_paper() {
        assert_eq!(Tier::HighEnd.memory_gb(), 10.0);
        assert_eq!(Tier::LowEnd.memory_gb(), 5.0);
        assert_eq!(Tier::HighEnd.vcpus(), 6.0);
        assert_eq!(Tier::LowEnd.vcpus(), 3.0);
        // Low-end is exactly half of high-end on every axis.
        assert_eq!(
            Tier::HighEnd.io_mb_per_sec(),
            2.0 * Tier::LowEnd.io_mb_per_sec()
        );
    }

    #[test]
    fn exec_secs_selects_tier_time() {
        let c = ComponentInstance {
            type_id: ComponentTypeId(0),
            exec_he_secs: 2.0,
            exec_le_secs: 3.0,
            read_mb: 1.0,
            write_mb: 1.0,
            cpu_demand: 0.5,
            mem_gb: 1.0,
        };
        assert_eq!(Tier::HighEnd.exec_secs(&c), 2.0);
        assert_eq!(Tier::LowEnd.exec_secs(&c), 3.0);
    }

    #[test]
    fn display() {
        assert_eq!(Tier::HighEnd.to_string(), "high-end");
        assert_eq!(Tier::LowEnd.to_string(), "low-end");
    }
}
