//! Start-up latency model: cold, hot, and warm starts.
//!
//! Calibrated to the paper's measured means (Sec. V):
//!
//! * warm start overhead **0.85 s** — everything pre-loaded; only the
//!   component's input data is fetched from back-end storage at
//!   invocation,
//! * hot start overhead **0.93 s** — runtime pre-loaded; component code +
//!   metadata (and input data) load at invocation,
//! * cold start overhead **1.16 s** — microVM boot + runtime load +
//!   component load + data fetch all at invocation,
//! * microVM start-up 29% below full VMs (Fig. 4 discussion),
//! * mean component execution 3.56 s, making cold starts ~33% of
//!   execution — inside the paper's quoted 25–60% band.
//!
//! The model decomposes the three overheads into shared pieces (boot,
//! runtime load, component load, data fetch) so that the *same* constants
//! produce all three means and react correctly to per-component I/O
//! volumes and vendor multipliers.

use crate::tier::Tier;
use dd_wfdag::{ComponentInstance, LanguageRuntime};

/// The decomposed start-up latency model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StartupModel {
    /// Seconds to boot a fresh microVM (kernel + user space).
    pub microvm_boot_secs: f64,
    /// Seconds to load the component executable + metadata into a booted
    /// instance (the piece hot starts pay at invocation).
    pub component_load_secs: f64,
    /// Fixed storage round-trip cost of an input-data fetch (connection
    /// setup over the S3-style REST API).
    pub fetch_base_secs: f64,
    /// Effective fetch throughput for input data, MB/s (small-object S3
    /// throughput, far below line rate).
    pub fetch_mb_per_sec: f64,
    /// Fixed cost of an output write to storage.
    pub write_base_secs: f64,
    /// Effective write throughput, MB/s (streamed writes; faster than
    /// small-object reads).
    pub write_mb_per_sec: f64,
    /// Full-VM boot penalty relative to microVMs: VM start-up is
    /// `1 / (1 − 0.29)` times the microVM's (paper: microVMs start 29%
    /// faster than VMs).
    pub vm_boot_penalty: f64,
    /// Global multiplier on all start-up latencies (cloud-vendor knob;
    /// 1.0 for AWS).
    pub vendor_multiplier: f64,
    /// Execution-time multiplier of a *cold-started* component: a fresh
    /// microVM executes with cold page caches, unJITted runtime paths and
    /// unopened connections. Calibrated so a mean component (3.56 s
    /// compute, ~6.6 MB in / ~18 MB out) sees the paper's "hot starts
    /// reduce component service time by 19% compared to cold starts":
    /// cold ≈ 1.16 + 3.56·1.25 + 0.17 ≈ 5.78 s vs hot ≈ 4.66 s.
    pub cold_exec_penalty: f64,
}

impl Default for StartupModel {
    fn default() -> Self {
        Self {
            microvm_boot_secs: 0.08,
            component_load_secs: 0.08,
            fetch_base_secs: 0.82,
            fetch_mb_per_sec: 200.0,
            write_base_secs: 0.10,
            write_mb_per_sec: 250.0,
            vm_boot_penalty: 1.0 / 0.71,
            vendor_multiplier: 1.0,
            cold_exec_penalty: 1.25,
        }
    }
}

impl StartupModel {
    /// The calibrated AWS model.
    pub fn aws() -> Self {
        Self::default()
    }

    /// A copy with every start-up latency scaled by `m` (vendor knob).
    pub fn with_vendor_multiplier(mut self, m: f64) -> Self {
        self.vendor_multiplier = m;
        self
    }

    /// Input-data fetch time for a component on `tier` (tier bandwidth
    /// caps the effective throughput for very large inputs).
    pub fn data_fetch_secs(&self, component: &ComponentInstance, tier: Tier) -> f64 {
        let throughput = self.fetch_mb_per_sec.min(tier.io_mb_per_sec());
        self.vendor_multiplier * (self.fetch_base_secs + component.read_mb / throughput)
    }

    /// Output-write time for a component on `tier`.
    pub fn output_write_secs(&self, component: &ComponentInstance, tier: Tier) -> f64 {
        let throughput = self.write_mb_per_sec.min(tier.io_mb_per_sec());
        self.vendor_multiplier * (self.write_base_secs + component.write_mb / throughput)
    }

    /// Time to load a set of language runtimes.
    pub fn runtime_load_secs(&self, runtimes: &[LanguageRuntime]) -> f64 {
        self.vendor_multiplier * dd_wfdag::runtime::total_load_seconds(runtimes)
    }

    /// Background preparation time of a **hot** start: boot the microVM
    /// and pre-load all of the DAG's runtimes. Paid *before* invocation
    /// (the instance is being prepared while the previous phase runs).
    pub fn hot_prepare_secs(&self, runtimes: &[LanguageRuntime]) -> f64 {
        self.vendor_multiplier * self.microvm_boot_secs + self.runtime_load_secs(runtimes)
    }

    /// Background preparation time of a **warm** start: boot + runtimes +
    /// the specific component's code (the Wild-style full pairing).
    pub fn warm_prepare_secs(&self, runtimes: &[LanguageRuntime]) -> f64 {
        self.hot_prepare_secs(runtimes) + self.vendor_multiplier * self.component_load_secs
    }

    /// Invocation-time overhead of a **warm** start: only the input data
    /// fetch (≈ 0.85 s at calibration volumes).
    pub fn warm_overhead_secs(&self, component: &ComponentInstance, tier: Tier) -> f64 {
        self.data_fetch_secs(component, tier)
    }

    /// Invocation-time overhead of a **hot** start: component load + data
    /// fetch (≈ 0.93 s at calibration volumes).
    pub fn hot_overhead_secs(&self, component: &ComponentInstance, tier: Tier) -> f64 {
        self.vendor_multiplier * self.component_load_secs + self.data_fetch_secs(component, tier)
    }

    /// Invocation-time overhead of a **cold** start: boot + runtimes +
    /// component load + data fetch (≈ 1.16 s at calibration volumes).
    pub fn cold_overhead_secs(
        &self,
        component: &ComponentInstance,
        tier: Tier,
        runtimes: &[LanguageRuntime],
    ) -> f64 {
        self.vendor_multiplier * (self.microvm_boot_secs + self.component_load_secs)
            + self.runtime_load_secs(runtimes)
            + self.data_fetch_secs(component, tier)
    }

    /// Execution-time multiplier for a component started the given way:
    /// cold starts pay [`StartupModel::cold_exec_penalty`]; hot and warm
    /// starts run at full speed (their runtime is already resident).
    pub fn exec_multiplier(&self, cold: bool) -> f64 {
        if cold {
            self.cold_exec_penalty
        } else {
            1.0
        }
    }

    /// Cold start on a full VM instead of a microVM (Fig. 4's VM bar):
    /// the full overhead scaled by the VM boot penalty, directly encoding
    /// the paper's "start-up 29% less in microVMs" measurement.
    pub fn vm_cold_overhead_secs(
        &self,
        component: &ComponentInstance,
        tier: Tier,
        runtimes: &[LanguageRuntime],
    ) -> f64 {
        self.cold_overhead_secs(component, tier, runtimes) * self.vm_boot_penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_wfdag::ComponentTypeId;

    fn component(read_mb: f64, write_mb: f64) -> ComponentInstance {
        ComponentInstance {
            type_id: ComponentTypeId(0),
            exec_he_secs: 3.56,
            exec_le_secs: 4.0,
            read_mb,
            write_mb,
            cpu_demand: 0.5,
            mem_gb: 1.0,
        }
    }

    const RUNTIMES: [LanguageRuntime; 2] = [LanguageRuntime::Python, LanguageRuntime::Cpp];

    #[test]
    fn calibrated_means_match_paper() {
        // At calibration volumes (~6.6 MB read, the ExaFEL mean) the three
        // overheads must land near the paper's 0.85 / 0.93 / 1.16 means.
        let m = StartupModel::aws();
        let c = component(6.6, 17.8);
        let warm = m.warm_overhead_secs(&c, Tier::HighEnd);
        let hot = m.hot_overhead_secs(&c, Tier::HighEnd);
        let cold = m.cold_overhead_secs(&c, Tier::HighEnd, &RUNTIMES);
        assert!((warm - 0.85).abs() < 0.10, "warm = {warm:.3}");
        assert!((hot - 0.93).abs() < 0.10, "hot = {hot:.3}");
        assert!((cold - 1.16).abs() < 0.12, "cold = {cold:.3}");
        // Strict ordering: warm < hot < cold, always.
        assert!(warm < hot && hot < cold);
    }

    #[test]
    fn cold_fraction_of_exec_in_paper_band() {
        // Cold start should be 25–60% of the mean 3.56 s execution.
        let m = StartupModel::aws();
        let c = component(6.6, 17.8);
        let frac = m.cold_overhead_secs(&c, Tier::HighEnd, &RUNTIMES) / 3.56;
        assert!((0.25..=0.60).contains(&frac), "cold/exec = {frac:.2}");
    }

    #[test]
    fn fetch_scales_with_volume_and_tier() {
        let m = StartupModel::aws();
        let small = component(1.0, 1.0);
        let big = component(2_000.0, 1.0);
        assert!(m.data_fetch_secs(&big, Tier::HighEnd) > m.data_fetch_secs(&small, Tier::HighEnd));
        // Low-end tier caps throughput at 625 MB/s — a 2 GB input is
        // slower there than on high-end.
        assert!(
            m.data_fetch_secs(&big, Tier::LowEnd) >= m.data_fetch_secs(&big, Tier::HighEnd),
            "low-end fetch must not be faster"
        );
    }

    #[test]
    fn vm_cold_start_29_percent_slower_in_boot() {
        let m = StartupModel::aws();
        let c = component(6.6, 17.8);
        let micro = m.cold_overhead_secs(&c, Tier::HighEnd, &RUNTIMES);
        let vm = m.vm_cold_overhead_secs(&c, Tier::HighEnd, &RUNTIMES);
        let ratio = vm / micro;
        // Paper: component start-up is ~29% less in microVMs than VMs,
        // i.e. VM ≈ 1.4× microVM; allow a band.
        assert!((1.2..=1.7).contains(&ratio), "vm/microvm = {ratio:.2}");
    }

    #[test]
    fn vendor_multiplier_scales_overheads() {
        let aws = StartupModel::aws();
        let slow = StartupModel::aws().with_vendor_multiplier(1.5);
        let c = component(6.6, 17.8);
        let a = aws.cold_overhead_secs(&c, Tier::HighEnd, &RUNTIMES);
        let s = slow.cold_overhead_secs(&c, Tier::HighEnd, &RUNTIMES);
        assert!((s / a - 1.5).abs() < 1e-9, "ratio = {}", s / a);
    }

    #[test]
    fn prepare_times_ordered() {
        let m = StartupModel::aws();
        // Warm preparation includes the component load on top of hot's.
        assert!(m.warm_prepare_secs(&RUNTIMES) > m.hot_prepare_secs(&RUNTIMES));
        assert!(m.hot_prepare_secs(&RUNTIMES) > 0.0);
    }

    #[test]
    fn cold_service_time_19_percent_above_hot() {
        // The paper's Sec. V claim: hot starts reduce component service
        // time by ~19% relative to cold starts, at mean volumes.
        let m = StartupModel::aws();
        let c = component(6.6, 17.8);
        let exec = 3.56;
        let write = m.output_write_secs(&c, Tier::HighEnd);
        let cold = m.cold_overhead_secs(&c, Tier::HighEnd, &RUNTIMES)
            + exec * m.exec_multiplier(true)
            + write;
        let hot = m.hot_overhead_secs(&c, Tier::HighEnd) + exec * m.exec_multiplier(false) + write;
        let reduction = 1.0 - hot / cold;
        assert!(
            (0.14..=0.24).contains(&reduction),
            "hot-vs-cold service time reduction = {reduction:.3}"
        );
    }

    #[test]
    fn hot_invocation_beats_cold_by_prepared_work() {
        // hot overhead + hot preparation == cold overhead (the work moved
        // off the critical path, not eliminated) — the essence of Fig. 13c.
        let m = StartupModel::aws();
        let c = component(6.6, 17.8);
        let cold = m.cold_overhead_secs(&c, Tier::HighEnd, &RUNTIMES);
        let hot = m.hot_overhead_secs(&c, Tier::HighEnd);
        let prep = m.hot_prepare_secs(&RUNTIMES);
        assert!((hot + prep - cold).abs() < 1e-9);
    }
}
