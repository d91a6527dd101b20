//! Language runtimes of workflow components.
//!
//! Under the hot-start mechanism, *all* language runtimes used by a DAG are
//! pre-loaded into every hot-started instance (paper Sec. IV, "usually a
//! DAG has only a few different language runtimes"). The number of distinct
//! runtimes therefore scales the hot-start latency and the keep-alive
//! memory footprint — the limitation the paper discusses in Sec. V.

/// A language runtime a component executes under.
///
/// The load times are the simulator's per-runtime contribution to start-up
/// latency; they are calibrated so typical 1–2-runtime DAGs land on the
/// paper's measured mean start overheads (hot 0.93 s, cold 1.16 s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LanguageRuntime {
    /// CPython with scientific stack (the dominant runtime in the
    /// artifact's workflows).
    Python,
    /// Natively compiled C/C++ component (thin runtime: loader + shared
    /// libraries).
    Cpp,
    /// Fortran with MPI stubs (legacy HPC kernels).
    Fortran,
    /// Julia with JIT warm-up.
    Julia,
}

impl LanguageRuntime {
    /// All runtime variants.
    pub const ALL: [LanguageRuntime; 4] = [
        LanguageRuntime::Python,
        LanguageRuntime::Cpp,
        LanguageRuntime::Fortran,
        LanguageRuntime::Julia,
    ];

    /// Seconds to fetch + load this runtime into a fresh microVM.
    pub fn load_seconds(self) -> f64 {
        match self {
            LanguageRuntime::Python => 0.12,
            LanguageRuntime::Cpp => 0.04,
            LanguageRuntime::Fortran => 0.05,
            LanguageRuntime::Julia => 0.18,
        }
    }

    /// Resident memory of the loaded runtime, in MB (contributes to the
    /// keep-alive footprint of hot instances).
    pub fn resident_mb(self) -> f64 {
        match self {
            LanguageRuntime::Python => 350.0,
            LanguageRuntime::Cpp => 60.0,
            LanguageRuntime::Fortran => 90.0,
            LanguageRuntime::Julia => 600.0,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            LanguageRuntime::Python => "python",
            LanguageRuntime::Cpp => "c++",
            LanguageRuntime::Fortran => "fortran",
            LanguageRuntime::Julia => "julia",
        }
    }
}

impl std::fmt::Display for LanguageRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Total load time for a set of runtimes (hot start pre-loads *all* of a
/// DAG's runtimes into each instance).
pub fn total_load_seconds(runtimes: &[LanguageRuntime]) -> f64 {
    runtimes.iter().map(|r| r.load_seconds()).sum()
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;

    #[test]
    fn load_times_positive() {
        for rt in LanguageRuntime::ALL {
            assert!(rt.load_seconds() > 0.0);
            assert!(rt.resident_mb() > 0.0);
        }
    }

    #[test]
    fn total_load_sums() {
        let total = total_load_seconds(&[LanguageRuntime::Python, LanguageRuntime::Cpp]);
        assert!((total - 0.16).abs() < 1e-12);
        assert_eq!(total_load_seconds(&[]), 0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(LanguageRuntime::Python.to_string(), "python");
        assert_eq!(LanguageRuntime::Julia.to_string(), "julia");
    }
}
