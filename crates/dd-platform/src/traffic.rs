//! Multi-tenant traffic: open-loop arrival processes and the front-door
//! admission queue that lets many tenants' workflow runs share one
//! platform (DESIGN.md §10).
//!
//! The paper evaluates one workflow at a time on a private pool; real
//! FaaS traffic is an open-loop mix of concurrent DAG streams. This
//! module adds the serving layer: seeded interarrival generators
//! (Poisson, bursty, diurnal — every draw a pure function of
//! `(seed, tenant, arrival_index)`), a front-door queue with per-tenant
//! quotas and deficit-round-robin fair-share admission, and tenant-tagged
//! accounting (admission delay, queueing, SLA attainment, per-tenant
//! [`CostLedger`] attribution) over a shared pool sized from the merged
//! per-tenant concurrency histograms.
//!
//! Determinism rules (the tenant analogue of the per-run rules):
//!
//! 1. arrival times derive from `(seed, tenant, arrival_index)` alone —
//!    never from admission order, executor choice, or thread count;
//! 2. the admission loop is strictly sequential over virtual time with a
//!    total event order (completions before arrivals on ties, heap
//!    tie-break by arrival sequence), so the admission order is a pure
//!    function of the arrival table and the per-run service times;
//! 3. per-run service times come from the per-run executors, which the
//!    workspace already pins to bitwise analytic/DES agreement — so the
//!    whole serve report inherits byte-identity across executors and
//!    `--jobs` settings.

use crate::des::SimTime;
use crate::telemetry::{CostLedger, RunOutcome};
use dd_obs::{Event, MetricId, Recorder};
use std::collections::{BinaryHeap, VecDeque};

/// Identifier of a tenant stream within one serve session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The interarrival processes the front door can replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalModel {
    /// Memoryless Exp(rate) gaps — the open-loop baseline.
    Poisson,
    /// Hyperexponential gaps (90% short bursts at 3×rate, 10% long lulls
    /// at rate/7): same mean rate, much burstier.
    Bursty,
    /// Poisson thinned by a sinusoidal day curve: the instantaneous rate
    /// swings ±75% around the mean over a [`DIURNAL_PERIOD_SECS`] cycle.
    Diurnal,
}

/// Virtual seconds of one diurnal cycle. Scaled far below 86 400 so
/// smoke-sized streams still see both the peak and the trough.
pub const DIURNAL_PERIOD_SECS: f64 = 600.0;

impl ArrivalModel {
    /// Parses a model name (CLI `--arrival`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "poisson" => Ok(Self::Poisson),
            "bursty" => Ok(Self::Bursty),
            "diurnal" => Ok(Self::Diurnal),
            other => Err(format!(
                "unknown arrival model '{other}' (poisson|bursty|diurnal)"
            )),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Poisson => "poisson",
            Self::Bursty => "bursty",
            Self::Diurnal => "diurnal",
        }
    }
}

impl std::fmt::Display for ArrivalModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One tenant's stream shape and fair-share parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Tenant identity (also the arrival-draw salt).
    pub tenant: TenantId,
    /// Arrivals this tenant submits.
    pub arrivals: usize,
    /// Mean arrival rate, runs per virtual second (> 0).
    pub rate_per_sec: f64,
    /// Deficit-round-robin share weight (≥ 1; a weight-2 tenant is
    /// granted twice the admissions of a weight-1 tenant under
    /// contention).
    pub weight: u32,
    /// Per-tenant quota: runs of this tenant in flight at once (≥ 1).
    pub max_in_flight: usize,
    /// Sojourn SLA (arrival → completion), seconds; `0` disables the
    /// check (every run counts as attained).
    pub sla_secs: f64,
}

/// The whole serve session: seed, model, tenants, shared capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Root seed of every interarrival draw.
    pub seed: u64,
    /// Interarrival process shared by all tenants.
    pub model: ArrivalModel,
    /// The tenant streams.
    pub tenants: Vec<TenantSpec>,
    /// Shared-platform capacity: runs in flight at once across all
    /// tenants (≥ 1) — the run-level face of the shared pool.
    pub capacity: usize,
}

impl TrafficConfig {
    /// Total arrivals across tenants.
    pub fn total_arrivals(&self) -> usize {
        self.tenants.iter().map(|t| t.arrivals).sum()
    }
}

/// One queued run request: tenant `tenant`'s `index`-th submission,
/// arriving at virtual time `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Per-tenant arrival index (the run-generator index).
    pub index: usize,
    /// Virtual arrival instant.
    pub at: SimTime,
}

// ---------------------------------------------------------------------
// Seeded draws: splitmix64 over (seed, tenant, index, channel), the same
// stateless-hash construction as the fault engine — purity is what makes
// the stream independent of thread count and executor.
// ---------------------------------------------------------------------

fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)`, fully determined by its coordinates.
fn unit_draw(seed: u64, tenant: u32, index: u64, channel: u32) -> f64 {
    let mut h = mix64(seed ^ 0x7261_6666_6963_5F64); // "raffic_d"
    h = mix64(h ^ u64::from(tenant).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    h = mix64(h ^ index);
    h = mix64(h ^ u64::from(channel));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// An Exp(rate) draw: `-ln(1 - u) / rate` (u < 1, so the log argument
/// stays positive).
fn exp_gap(u: f64, rate: f64) -> f64 {
    -(1.0 - u).ln() / rate
}

/// The gap before tenant `tenant`'s arrival `index`, given the previous
/// arrival landed at `prev_at`. Pure in `(seed, tenant, index)`; the
/// diurnal model additionally reads `prev_at` (itself a pure function of
/// the earlier draws) to place the gap on the day curve.
fn interarrival_secs(
    model: ArrivalModel,
    seed: u64,
    tenant: u32,
    index: u64,
    rate: f64,
    prev_at: f64,
) -> f64 {
    let u = unit_draw(seed, tenant, index, 0);
    match model {
        ArrivalModel::Poisson => exp_gap(u, rate),
        ArrivalModel::Bursty => {
            // Hyperexponential with mean 1/rate: 0.9/(3λ) + 0.1·7/λ = 1/λ.
            if unit_draw(seed, tenant, index, 1) < 0.9 {
                exp_gap(u, rate * 3.0)
            } else {
                exp_gap(u, rate / 7.0)
            }
        }
        ArrivalModel::Diurnal => {
            // Thinning-free modulation: stretch the memoryless gap by the
            // inverse instantaneous rate at the previous arrival.
            let phase = std::f64::consts::TAU * prev_at / DIURNAL_PERIOD_SECS;
            let factor = (1.0 + 0.75 * phase.sin()).max(0.25);
            exp_gap(u, rate) / factor
        }
    }
}

/// Materializes the merged arrival table of a config: per-tenant gap
/// draws accumulated into absolute times, merged across tenants in
/// `(time, tenant, index)` order — a total order, so the table is unique.
pub fn arrivals(cfg: &TrafficConfig) -> Vec<Arrival> {
    let mut all = Vec::with_capacity(cfg.total_arrivals());
    for spec in &cfg.tenants {
        let rate = spec.rate_per_sec.max(1e-9);
        let mut at = 0.0_f64;
        for index in 0..spec.arrivals {
            at += interarrival_secs(cfg.model, cfg.seed, spec.tenant.0, index as u64, rate, at);
            all.push(Arrival {
                tenant: spec.tenant,
                index,
                at: SimTime::from_secs(at),
            });
        }
    }
    all.sort_by_key(|a| (a.at, a.tenant, a.index));
    all
}

// ---------------------------------------------------------------------
// Shared pool sizing from merged per-tenant concurrency histograms.
// ---------------------------------------------------------------------

/// The shared pool the front door provisions for its tenants.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedPoolPlan {
    /// Provisioned-concurrency cap handed to every admitted run's
    /// `FaasConfig` — the shared pool's hard size.
    pub provisioned_concurrency: usize,
    /// The merged per-tenant phase-concurrency histogram the cap was
    /// sized from.
    pub merged: dd_obs::Histogram,
}

/// Sizes the shared pool from per-tenant phase-concurrency samples
/// (each tenant contributes quantile samples of its workflow's Weibull
/// concurrency distribution — the same machinery the per-run predictor
/// fits). With `capacity` runs in flight the expected standing load is
/// `capacity · mean`; two standard deviations of headroom (scaled by
/// √capacity, treating in-flight runs as independent draws from the
/// merged histogram) absorb the tail without provisioning for the
/// worst case.
pub fn plan_shared_pool(per_tenant_samples: &[Vec<f64>], capacity: usize) -> SharedPoolPlan {
    let mut merged = dd_obs::Histogram::new();
    let mut sum = 0.0_f64;
    let mut sum_sq = 0.0_f64;
    let mut n = 0usize;
    for samples in per_tenant_samples {
        for &s in samples {
            merged.record(s);
            sum += s;
            sum_sq += s * s;
            n += 1;
        }
    }
    if n == 0 {
        return SharedPoolPlan {
            provisioned_concurrency: capacity.max(1),
            merged,
        };
    }
    let mean = sum / n as f64;
    let var = (sum_sq / n as f64 - mean * mean).max(0.0);
    let cap = capacity.max(1) as f64;
    let sized = (cap * mean + 2.0 * (cap * var).sqrt()).ceil();
    SharedPoolPlan {
        // Never below one slot per in-flight run; never above the
        // paper's 1000-instance account limit.
        provisioned_concurrency: (sized as usize).clamp(capacity.max(1), 1_000),
        merged,
    }
}

// ---------------------------------------------------------------------
// Front door: per-tenant queues + deficit-round-robin admission.
// ---------------------------------------------------------------------

/// What the per-run executor produced for one arrival — the only facts
/// the front door needs, so executor fan-out can happen elsewhere (and
/// in parallel) before the strictly sequential admission loop runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceSample {
    /// End-to-end service time of the run, seconds.
    pub service_secs: f64,
    /// The run's cost decomposition (tenant-attributed by the report).
    pub ledger: CostLedger,
    /// Peak phase concurrency the run reached (pool accounting).
    pub peak_concurrency: u32,
}

impl ServiceSample {
    /// Extracts the sample from a run outcome.
    pub fn from_outcome(outcome: &RunOutcome) -> Self {
        Self {
            service_secs: outcome.service_time_secs,
            ledger: outcome.ledger,
            peak_concurrency: outcome
                .phases
                .iter()
                .map(|p| p.concurrency)
                .max()
                .unwrap_or(0),
        }
    }
}

/// One admitted run's lifecycle instants, in admission order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionRecord {
    /// Index into the merged arrival table.
    pub arrival_idx: usize,
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Arrival instant.
    pub arrived_at: SimTime,
    /// Admission instant (front-door queue exit).
    pub admitted_at: SimTime,
    /// Completion instant (`admitted_at + service_secs`).
    pub completed_at: SimTime,
}

impl AdmissionRecord {
    /// Seconds spent waiting in the front-door queue.
    pub fn admission_delay_secs(&self) -> f64 {
        self.admitted_at.since(self.arrived_at)
    }

    /// Arrival → completion, seconds (the SLA clock).
    pub fn sojourn_secs(&self) -> f64 {
        self.completed_at.since(self.arrived_at)
    }
}

/// Per-tenant accounting of one serve session.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Which tenant.
    pub tenant: TenantId,
    /// Runs completed.
    pub completed: usize,
    /// Mean front-door queueing delay, seconds.
    pub mean_admission_delay_secs: f64,
    /// Largest front-door queueing delay, seconds.
    pub max_admission_delay_secs: f64,
    /// Mean arrival → completion time, seconds.
    pub mean_sojourn_secs: f64,
    /// Fraction of runs completing within the tenant's SLA (1.0 when the
    /// SLA is disabled).
    pub sla_attainment: f64,
    /// Deepest this tenant's queue ever got.
    pub max_queue_depth: usize,
    /// Tenant-attributed cost: the merged ledgers of its runs.
    pub ledger: CostLedger,
    /// Largest phase concurrency any of its runs pushed into the shared
    /// pool (tenant-tagged pool accounting).
    pub peak_concurrency: u32,
    /// Completed runs per virtual second of the session makespan.
    pub throughput_per_sec: f64,
}

/// The whole serve session's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Per-tenant accounting, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Every admitted run, in admission order (the determinism tests
    /// compare this order across `--jobs` and executors).
    pub admissions: Vec<AdmissionRecord>,
    /// First arrival → last completion, seconds.
    pub makespan_secs: f64,
    /// Completed runs per virtual second.
    pub throughput_per_sec: f64,
    /// Jain's fairness index over weight-normalized per-tenant
    /// completions (1.0 = perfectly fair).
    pub jain_index: f64,
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` — 1.0 when all shares are
/// equal, → 1/n when one tenant takes everything. Empty or all-zero
/// inputs report 1.0 (nothing was shared unfairly).
pub fn jain_index(shares: &[f64]) -> f64 {
    let n = shares.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = shares.iter().sum();
    let sum_sq: f64 = shares.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// Caps how many tenants get individually named obs metrics; streams
/// beyond the cap still feed the aggregate metrics. Metric names are
/// `&'static str` by design (dd-obs keeps the layer allocation-free),
/// so per-tenant names come from this fixed table.
pub const TENANT_METRIC_CAP: usize = 8;

const TENANT_ADMISSION_DELAY: [&str; TENANT_METRIC_CAP] = [
    "t0_admission_delay_secs",
    "t1_admission_delay_secs",
    "t2_admission_delay_secs",
    "t3_admission_delay_secs",
    "t4_admission_delay_secs",
    "t5_admission_delay_secs",
    "t6_admission_delay_secs",
    "t7_admission_delay_secs",
];

const TENANT_SOJOURN: [&str; TENANT_METRIC_CAP] = [
    "t0_sojourn_secs",
    "t1_sojourn_secs",
    "t2_sojourn_secs",
    "t3_sojourn_secs",
    "t4_sojourn_secs",
    "t5_sojourn_secs",
    "t6_sojourn_secs",
    "t7_sojourn_secs",
];

const TENANT_SLA_MISSES: [&str; TENANT_METRIC_CAP] = [
    "t0_sla_misses",
    "t1_sla_misses",
    "t2_sla_misses",
    "t3_sla_misses",
    "t4_sla_misses",
    "t5_sla_misses",
    "t6_sla_misses",
    "t7_sla_misses",
];

/// Front-door metric names (see [`FrontDoor::serve`]).
pub mod metrics {
    /// Runs that arrived at the front door.
    pub const TRAFFIC_ARRIVALS: &str = "traffic_arrivals";
    /// Runs admitted into the shared pool.
    pub const TRAFFIC_ADMISSIONS: &str = "traffic_admissions";
    /// Runs that completed.
    pub const TRAFFIC_COMPLETIONS: &str = "traffic_completions";
    /// Runs that blew their tenant's SLA.
    pub const SLA_MISSES: &str = "sla_misses";
    /// Front-door queueing delay, all tenants.
    pub const ADMISSION_DELAY_SECS: &str = "admission_delay_secs";
    /// Arrival → completion, all tenants.
    pub const SOJOURN_SECS: &str = "sojourn_secs";
    /// Session makespan (first arrival → last completion).
    pub const TRAFFIC_MAKESPAN_SECS: &str = "traffic_makespan_secs";
}

/// The front door's recorder plus, when it is enabled, its metric
/// handles, resolved once per [`FrontDoor::serve`] call.
struct DoorObs<'r> {
    rec: &'r mut dyn Recorder,
    ids: Option<DoorMetricIds>,
}

struct DoorMetricIds {
    arrivals: MetricId,
    admissions: MetricId,
    completions: MetricId,
    sla_misses: MetricId,
    admission_delay: MetricId,
    sojourn: MetricId,
    makespan: MetricId,
    /// `[admission delay, sojourn, SLA misses]` of the first
    /// [`TENANT_METRIC_CAP`] tenants.
    tenants: Vec<[MetricId; 3]>,
}

impl<'r> DoorObs<'r> {
    /// Registers the front-door metrics (aggregate first, then the
    /// per-tenant table rows in tenant order) so registry iteration is
    /// identical no matter which tenants see traffic. Struct-literal
    /// fields evaluate in the order written: this is the registration
    /// order.
    fn new(rec: &'r mut dyn Recorder, tenants: usize) -> Self {
        use metrics as m;
        let ids = rec.enabled().then(|| DoorMetricIds {
            arrivals: rec.declare_counter(m::TRAFFIC_ARRIVALS),
            admissions: rec.declare_counter(m::TRAFFIC_ADMISSIONS),
            completions: rec.declare_counter(m::TRAFFIC_COMPLETIONS),
            sla_misses: rec.declare_counter(m::SLA_MISSES),
            admission_delay: rec.declare_histogram(m::ADMISSION_DELAY_SECS),
            sojourn: rec.declare_histogram(m::SOJOURN_SECS),
            makespan: rec.declare_gauge(m::TRAFFIC_MAKESPAN_SECS),
            tenants: (0..tenants.min(TENANT_METRIC_CAP))
                .map(|t| {
                    [
                        rec.declare_histogram(TENANT_ADMISSION_DELAY[t]),
                        rec.declare_histogram(TENANT_SOJOURN[t]),
                        rec.declare_counter(TENANT_SLA_MISSES[t]),
                    ]
                })
                .collect(),
        });
        DoorObs { rec, ids }
    }

    fn arrival(&mut self, arrival: Arrival) {
        if let Some(ids) = &self.ids {
            self.rec.add(ids.arrivals, 1);
            self.rec.event(
                arrival.at.as_secs(),
                Event::Arrival {
                    tenant: arrival.tenant.0,
                    index: arrival.index,
                },
            );
        }
    }

    /// Tenant position `t` admitted `arrival` at `now` after `delay`.
    fn admit(&mut self, now: SimTime, t: usize, arrival: Arrival, delay: f64) {
        if let Some(ids) = &self.ids {
            self.rec.add(ids.admissions, 1);
            self.rec.record(ids.admission_delay, delay);
            if let Some(&[tenant_delay, _, _]) = ids.tenants.get(t) {
                self.rec.record(tenant_delay, delay);
            }
            self.rec.event(
                now.as_secs(),
                Event::Admit {
                    tenant: arrival.tenant.0,
                    index: arrival.index,
                    delay_secs: delay,
                },
            );
        }
    }

    /// A run of tenant position `t` completed at `now`.
    fn complete(&mut self, now: SimTime, t: usize, tenant: TenantId, sojourn: f64, attained: bool) {
        if let Some(ids) = &self.ids {
            let tenant_ids = ids.tenants.get(t);
            self.rec.add(ids.completions, 1);
            self.rec.record(ids.sojourn, sojourn);
            if let Some(&[_, tenant_sojourn, _]) = tenant_ids {
                self.rec.record(tenant_sojourn, sojourn);
            }
            if !attained {
                self.rec.add(ids.sla_misses, 1);
                if let Some(&[_, _, tenant_misses]) = tenant_ids {
                    self.rec.add(tenant_misses, 1);
                }
            }
            self.rec.event(
                now.as_secs(),
                Event::Complete {
                    tenant: tenant.0,
                    sojourn_secs: sojourn,
                    attained,
                },
            );
        }
    }

    fn makespan(&mut self, makespan: f64) {
        if let Some(ids) = &self.ids {
            self.rec.set(ids.makespan, makespan);
        }
    }
}

/// Per-tenant accumulation state inside the serve loop.
#[derive(Debug, Clone, Default)]
struct TenantAccum {
    completed: usize,
    delay_sum: f64,
    delay_max: f64,
    sojourn_sum: f64,
    sla_hits: usize,
    max_queue_depth: usize,
    ledger: CostLedger,
    peak_concurrency: u32,
}

/// The multi-tenant front door: per-tenant run-request queues drained by
/// deficit round robin into the shared pool.
///
/// Admission is work-conserving: whenever a pool slot is free and any
/// tenant has an admissible queued run (queue non-empty, per-tenant
/// quota not exhausted), one is admitted. Under contention, tenants are
/// served in proportion to their DRR weights; a tenant whose queue
/// drains forfeits its accumulated deficit (the standard DRR rule, so
/// idle tenants cannot hoard credit).
#[derive(Debug)]
pub struct FrontDoor {
    cfg: TrafficConfig,
    /// Per-tenant FIFO of merged-arrival-table indices.
    queues: Vec<VecDeque<usize>>,
    deficits: Vec<u64>,
    in_flight: Vec<usize>,
    total_in_flight: usize,
    cursor: usize,
}

impl FrontDoor {
    /// A front door for `cfg`'s tenants.
    pub fn new(cfg: TrafficConfig) -> Self {
        let n = cfg.tenants.len();
        Self {
            cfg,
            queues: vec![VecDeque::new(); n],
            deficits: vec![0; n],
            in_flight: vec![0; n],
            total_in_flight: 0,
            cursor: 0,
        }
    }

    /// The config this front door serves.
    pub fn config(&self) -> &TrafficConfig {
        &self.cfg
    }

    fn tenant_pos(&self, tenant: TenantId) -> usize {
        // Tenants are few; a scan keeps the struct allocation-free.
        self.cfg
            .tenants
            .iter()
            .position(|t| t.tenant == tenant)
            .unwrap_or_else(|| {
                // An arrival naming a tenant absent from the config is a
                // caller-contract violation, same fatality class as a
                // placement on an unknown instance.
                // dd-lint: allow(hot-path-panic): caller-contract violation, deliberately fatal
                panic!("arrival from unknown tenant {tenant}")
            })
    }

    /// One DRR admission sweep at virtual time `now`: admits queued runs
    /// while shared capacity remains, in deficit-round-robin order.
    #[allow(clippy::too_many_arguments)] // internal loop-state plumbing, not an API surface
    fn admit_sweep(
        &mut self,
        now: SimTime,
        arrivals: &[Arrival],
        samples: &[ServiceSample],
        completions: &mut BinaryHeap<std::cmp::Reverse<(SimTime, usize)>>,
        admissions: &mut Vec<AdmissionRecord>,
        record_of: &mut [Option<AdmissionRecord>],
        accums: &mut [TenantAccum],
        obs: &mut DoorObs<'_>,
    ) {
        let n = self.cfg.tenants.len();
        let capacity = self.cfg.capacity.max(1);
        let mut stalled = 0usize;
        while self.total_in_flight < capacity && stalled < n {
            let t = self.cursor;
            let spec = self.cfg.tenants[t];
            if self.queues[t].is_empty() {
                // Forfeit unused credit once the backlog drains.
                self.deficits[t] = 0;
                self.cursor = (t + 1) % n;
                stalled += 1;
                continue;
            }
            if self.in_flight[t] >= spec.max_in_flight.max(1) {
                self.cursor = (t + 1) % n;
                stalled += 1;
                continue;
            }
            // Refill only on a fresh visit: a quantum interrupted by the
            // capacity limit resumes here on the next sweep, so weights
            // bind even when only one slot frees at a time.
            if self.deficits[t] == 0 {
                self.deficits[t] = u64::from(spec.weight.max(1));
            }
            let mut admitted_any = false;
            while self.deficits[t] > 0
                && self.total_in_flight < capacity
                && self.in_flight[t] < spec.max_in_flight.max(1)
            {
                let Some(arrival_idx) = self.queues[t].pop_front() else {
                    self.deficits[t] = 0;
                    break;
                };
                self.deficits[t] -= 1;
                self.in_flight[t] += 1;
                self.total_in_flight += 1;
                admitted_any = true;
                let arrival = arrivals[arrival_idx];
                let sample = samples[arrival_idx];
                let completed_at = now.after(sample.service_secs);
                completions.push(std::cmp::Reverse((completed_at, arrival_idx)));
                let record = AdmissionRecord {
                    arrival_idx,
                    tenant: arrival.tenant,
                    arrived_at: arrival.at,
                    admitted_at: now,
                    completed_at,
                };
                let delay = record.admission_delay_secs();
                let acc = &mut accums[t];
                acc.delay_sum += delay;
                acc.delay_max = acc.delay_max.max(delay);
                obs.admit(now, t, arrival, delay);
                admissions.push(record);
                record_of[arrival_idx] = Some(record);
            }
            if self.queues[t].is_empty() {
                self.deficits[t] = 0;
            }
            // Move on when the quantum is spent or the tenant is blocked
            // by its quota; a capacity interruption keeps the cursor (and
            // the remaining deficit) parked here for the next sweep.
            if self.deficits[t] == 0 || self.in_flight[t] >= spec.max_in_flight.max(1) {
                self.cursor = (t + 1) % n;
            }
            stalled = if admitted_any { 0 } else { stalled + 1 };
        }
    }

    /// Serves the whole arrival stream: a sequential virtual-time event
    /// loop over arrivals and completions (completions first on ties, so
    /// a freed slot is visible to a simultaneous arrival), with one DRR
    /// admission sweep after every event.
    ///
    /// `arrivals` must be the table [`arrivals`] produced for this
    /// config, and `samples[i]` the service sample of `arrivals[i]` —
    /// executed elsewhere, possibly in parallel; this loop is the
    /// deterministic serial spine.
    ///
    /// # Panics
    /// Panics when `samples` is shorter than `arrivals`, or an arrival
    /// names a tenant absent from the config.
    pub fn serve(
        &mut self,
        arrivals: &[Arrival],
        samples: &[ServiceSample],
        mut recorder: Option<&mut dyn Recorder>,
    ) -> ServeReport {
        dd_invariant!(
            samples.len() >= arrivals.len(),
            "front door needs one service sample per arrival ({} < {})",
            samples.len(),
            arrivals.len()
        );
        let n = self.cfg.tenants.len();
        let mut noop = dd_obs::NoopRecorder;
        let rec: &mut dyn Recorder = match recorder.take() {
            Some(r) => r,
            None => &mut noop,
        };
        let mut obs = DoorObs::new(rec, n);

        let mut accums: Vec<TenantAccum> = vec![TenantAccum::default(); n];
        let mut admissions: Vec<AdmissionRecord> = Vec::with_capacity(arrivals.len());
        let mut completions: BinaryHeap<std::cmp::Reverse<(SimTime, usize)>> = BinaryHeap::new();
        // Admission records keyed by arrival index, for the O(1)
        // completion lookup.
        let mut record_of: Vec<Option<AdmissionRecord>> = vec![None; arrivals.len()];
        let mut next_arrival = 0usize;
        let mut completed = 0usize;
        let mut last_completion = SimTime::ZERO;

        while completed < arrivals.len() {
            let arrival_next = arrivals.get(next_arrival).map(|a| a.at);
            let completion_next = completions.peek().map(|std::cmp::Reverse((at, _))| *at);
            // Completions process first on ties: the freed slot must be
            // admissible to a simultaneous arrival.
            let take_completion = match (completion_next, arrival_next) {
                (Some(c), Some(a)) => c <= a,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => {
                    dd_invariant!(
                        false,
                        "front door stalled: {} of {} runs completed with no pending events",
                        completed,
                        arrivals.len()
                    );
                    break;
                }
            };
            if take_completion {
                let Some(std::cmp::Reverse((now, arrival_idx))) = completions.pop() else {
                    dd_invariant!(false, "peeked completion vanished from the queue");
                    break;
                };
                let Some(record) = record_of[arrival_idx] else {
                    dd_invariant!(
                        false,
                        "completion of run {arrival_idx} that was never admitted"
                    );
                    break;
                };
                let t = self.tenant_pos(record.tenant);
                self.in_flight[t] -= 1;
                self.total_in_flight -= 1;
                completed += 1;
                last_completion = last_completion.max(now);
                let spec = self.cfg.tenants[t];
                let sample = samples[arrival_idx];
                let sojourn = record.sojourn_secs();
                let attained = spec.sla_secs <= 0.0 || sojourn <= spec.sla_secs;
                let acc = &mut accums[t];
                acc.completed += 1;
                acc.sojourn_sum += sojourn;
                acc.sla_hits += usize::from(attained);
                acc.ledger.merge(&sample.ledger);
                acc.peak_concurrency = acc.peak_concurrency.max(sample.peak_concurrency);
                obs.complete(now, t, record.tenant, sojourn, attained);
                self.admit_sweep(
                    now,
                    arrivals,
                    samples,
                    &mut completions,
                    &mut admissions,
                    &mut record_of,
                    &mut accums,
                    &mut obs,
                );
            } else {
                let arrival = arrivals[next_arrival];
                let arrival_idx = next_arrival;
                next_arrival += 1;
                let t = self.tenant_pos(arrival.tenant);
                self.queues[t].push_back(arrival_idx);
                accums[t].max_queue_depth = accums[t].max_queue_depth.max(self.queues[t].len());
                obs.arrival(arrival);
                self.admit_sweep(
                    arrival.at,
                    arrivals,
                    samples,
                    &mut completions,
                    &mut admissions,
                    &mut record_of,
                    &mut accums,
                    &mut obs,
                );
            }
        }

        dd_debug_invariant!(
            self.total_in_flight == 0 && self.in_flight.iter().all(|&f| f == 0),
            "front door finished with runs still in flight"
        );

        let first_arrival = arrivals.first().map_or(0.0, |a| a.at.as_secs());
        let makespan = (last_completion.as_secs() - first_arrival).max(0.0);
        obs.makespan(makespan);
        let tenants: Vec<TenantReport> = self
            .cfg
            .tenants
            .iter()
            .zip(&accums)
            .map(|(spec, acc)| {
                let c = acc.completed;
                let div = |sum: f64| if c == 0 { 0.0 } else { sum / c as f64 };
                TenantReport {
                    tenant: spec.tenant,
                    completed: c,
                    mean_admission_delay_secs: div(acc.delay_sum),
                    max_admission_delay_secs: acc.delay_max,
                    mean_sojourn_secs: div(acc.sojourn_sum),
                    sla_attainment: if c == 0 {
                        1.0
                    } else {
                        acc.sla_hits as f64 / c as f64
                    },
                    max_queue_depth: acc.max_queue_depth,
                    ledger: acc.ledger,
                    peak_concurrency: acc.peak_concurrency,
                    throughput_per_sec: if makespan > 0.0 {
                        c as f64 / makespan
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        let shares: Vec<f64> = self
            .cfg
            .tenants
            .iter()
            .zip(&accums)
            .map(|(spec, acc)| acc.completed as f64 / f64::from(spec.weight.max(1)))
            .collect();
        let total_completed: usize = accums.iter().map(|a| a.completed).sum();
        ServeReport {
            tenants,
            admissions,
            makespan_secs: makespan,
            throughput_per_sec: if makespan > 0.0 {
                total_completed as f64 / makespan
            } else {
                0.0
            },
            jain_index: jain_index(&shares),
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;

    fn spec(tenant: u32, arrivals: usize, weight: u32, quota: usize) -> TenantSpec {
        TenantSpec {
            tenant: TenantId(tenant),
            arrivals,
            rate_per_sec: 0.5,
            weight,
            max_in_flight: quota,
            sla_secs: 0.0,
        }
    }

    fn cfg(tenants: Vec<TenantSpec>, capacity: usize) -> TrafficConfig {
        TrafficConfig {
            seed: 42,
            model: ArrivalModel::Poisson,
            tenants,
            capacity,
        }
    }

    fn uniform_samples(n: usize, service_secs: f64) -> Vec<ServiceSample> {
        vec![
            ServiceSample {
                service_secs,
                ledger: CostLedger {
                    execution: 1.0,
                    ..CostLedger::default()
                },
                peak_concurrency: 4,
            };
            n
        ]
    }

    #[test]
    fn arrival_table_is_pure_and_sorted() {
        let c = cfg(vec![spec(0, 16, 1, 4), spec(1, 16, 1, 4)], 4);
        let a = arrivals(&c);
        let b = arrivals(&c);
        assert_eq!(a, b, "arrival draws must be pure in (seed, tenant, index)");
        assert_eq!(a.len(), 32);
        for w in a.windows(2) {
            assert!(w[0].at <= w[1].at, "arrival table out of order");
        }
        // Per-tenant index order is preserved within the merge.
        for t in 0..2u32 {
            let idx: Vec<usize> = a
                .iter()
                .filter(|x| x.tenant == TenantId(t))
                .map(|x| x.index)
                .collect();
            assert_eq!(idx, (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn arrival_models_differ_but_each_is_deterministic() {
        let base = cfg(vec![spec(0, 32, 1, 4)], 4);
        let mut tables = Vec::new();
        for model in [
            ArrivalModel::Poisson,
            ArrivalModel::Bursty,
            ArrivalModel::Diurnal,
        ] {
            let c = TrafficConfig {
                model,
                ..base.clone()
            };
            let t1 = arrivals(&c);
            assert_eq!(t1, arrivals(&c), "{model} not deterministic");
            tables.push(t1);
        }
        assert_ne!(tables[0], tables[1], "bursty must differ from poisson");
        assert_ne!(tables[0], tables[2], "diurnal must differ from poisson");
    }

    #[test]
    fn seed_and_tenant_move_the_stream() {
        let c1 = cfg(vec![spec(0, 8, 1, 4)], 4);
        let c2 = TrafficConfig {
            seed: 43,
            ..c1.clone()
        };
        assert_ne!(arrivals(&c1), arrivals(&c2));
        let c3 = cfg(vec![spec(7, 8, 1, 4)], 4);
        let t1: Vec<f64> = arrivals(&c1).iter().map(|a| a.at.as_secs()).collect();
        let t3: Vec<f64> = arrivals(&c3).iter().map(|a| a.at.as_secs()).collect();
        assert_ne!(t1, t3, "tenant id salts the draw");
    }

    #[test]
    fn mean_rate_roughly_matches_for_all_models() {
        for model in [
            ArrivalModel::Poisson,
            ArrivalModel::Bursty,
            ArrivalModel::Diurnal,
        ] {
            let c = TrafficConfig {
                model,
                ..cfg(vec![spec(0, 4_000, 1, 4)], 4)
            };
            let a = arrivals(&c);
            let span = a.last().unwrap().at.as_secs();
            let rate = a.len() as f64 / span;
            assert!(
                (rate / 0.5 - 1.0).abs() < 0.25,
                "{model}: empirical rate {rate} too far from 0.5"
            );
        }
    }

    #[test]
    fn serve_is_work_conserving_and_complete() {
        let c = cfg(vec![spec(0, 10, 1, 4), spec(1, 10, 1, 4)], 3);
        let a = arrivals(&c);
        let samples = uniform_samples(a.len(), 5.0);
        let report = FrontDoor::new(c).serve(&a, &samples, None);
        assert_eq!(report.admissions.len(), 20);
        let total: usize = report.tenants.iter().map(|t| t.completed).sum();
        assert_eq!(total, 20);
        assert!(report.makespan_secs > 0.0);
        assert!(report.throughput_per_sec > 0.0);
        // Capacity is never exceeded: at most 3 overlapping service
        // intervals at any admission instant.
        for r in &report.admissions {
            let overlapping = report
                .admissions
                .iter()
                .filter(|o| o.admitted_at <= r.admitted_at && r.admitted_at < o.completed_at)
                .count();
            assert!(overlapping <= 3, "capacity exceeded: {overlapping}");
        }
    }

    #[test]
    fn admission_respects_quota_and_capacity() {
        // One tenant, quota 1, long service: runs strictly serialize.
        let c = cfg(vec![spec(0, 5, 1, 1)], 8);
        let a = arrivals(&c);
        let samples = uniform_samples(a.len(), 100.0);
        let report = FrontDoor::new(c).serve(&a, &samples, None);
        for w in report.admissions.windows(2) {
            assert!(
                w[1].admitted_at >= w[0].completed_at,
                "quota 1 must serialize runs"
            );
        }
    }

    #[test]
    fn drr_weights_shape_admission_under_contention() {
        // Saturated door (capacity 1, huge backlog): a weight-3 tenant
        // should complete ~3x the runs of a weight-1 tenant among the
        // first admissions.
        let mut c = cfg(vec![spec(0, 40, 3, 40), spec(1, 40, 1, 40)], 1);
        // Arrive effectively instantly so the queue is deep.
        for t in &mut c.tenants {
            t.rate_per_sec = 1_000.0;
        }
        let a = arrivals(&c);
        let samples = uniform_samples(a.len(), 10.0);
        let report = FrontDoor::new(c).serve(&a, &samples, None);
        let first: Vec<TenantId> = report
            .admissions
            .iter()
            .take(24)
            .map(|r| r.tenant)
            .collect();
        let t0 = first.iter().filter(|t| t.0 == 0).count();
        let t1 = first.len() - t0;
        assert!(
            t0 >= 2 * t1,
            "weight-3 tenant got {t0} of first 24 admissions vs {t1}"
        );
        // Finite streams are work-conserving — both tenants complete all
        // 40 runs — so the weight-normalized completion shares are 40/3
        // vs 40/1 and Jain over [13.3, 40] is exactly 0.8.
        assert!(
            (report.jain_index - 0.8).abs() < 1e-12,
            "jain {} unexpected for 3:1 weights on equal finite streams",
            report.jain_index
        );
        // Equal weights on the same streams restore perfect fairness.
        let mut eq = cfg(vec![spec(0, 40, 1, 40), spec(1, 40, 1, 40)], 1);
        for t in &mut eq.tenants {
            t.rate_per_sec = 1_000.0;
        }
        let ae = arrivals(&eq);
        let se = uniform_samples(ae.len(), 10.0);
        let eq_report = FrontDoor::new(eq).serve(&ae, &se, None);
        assert!(
            eq_report.jain_index > 1.0 - 1e-12,
            "jain {} should be 1.0 for equal weights and equal streams",
            eq_report.jain_index
        );
    }

    #[test]
    fn sla_attainment_counts_misses() {
        let mut c = cfg(vec![spec(0, 6, 1, 1)], 1);
        c.tenants[0].sla_secs = 12.0;
        c.tenants[0].rate_per_sec = 10.0; // near-simultaneous arrivals
        let a = arrivals(&c);
        let samples = uniform_samples(a.len(), 10.0);
        let report = FrontDoor::new(c).serve(&a, &samples, None);
        // Quota 1 serializes 10 s runs arriving almost at once: only the
        // first run can finish inside 12 s.
        let t = &report.tenants[0];
        assert!(t.sla_attainment < 1.0, "attainment {}", t.sla_attainment);
        assert!(t.sla_attainment > 0.0);
        assert!(t.mean_admission_delay_secs > 0.0);
        assert_eq!(t.completed, 6);
        // Tenant-attributed ledger: 6 runs at $1 execution each.
        assert_eq!(t.ledger.execution, 6.0);
    }

    #[test]
    fn serve_emits_deterministic_obs() {
        use dd_obs::Recorder as _;
        let c = cfg(vec![spec(0, 6, 1, 2), spec(1, 6, 2, 2)], 2);
        let a = arrivals(&c);
        let samples = uniform_samples(a.len(), 3.0);
        let mut r1 = dd_obs::MemoryRecorder::new();
        let mut r2 = dd_obs::MemoryRecorder::new();
        let rep1 = FrontDoor::new(c.clone()).serve(&a, &samples, Some(&mut r1));
        let rep2 = FrontDoor::new(c).serve(&a, &samples, Some(&mut r2));
        assert_eq!(rep1, rep2);
        assert_eq!(r1, r2, "recorder streams must be identical");
        assert_eq!(r1.metrics.counter(metrics::TRAFFIC_ARRIVALS), 12);
        assert_eq!(r1.metrics.counter(metrics::TRAFFIC_ADMISSIONS), 12);
        assert_eq!(r1.metrics.counter(metrics::TRAFFIC_COMPLETIONS), 12);
        assert!(r1.enabled());
        // Per-tenant rows are declared for both tenants.
        assert!(r1.metrics.get("t1_sojourn_secs").is_some());
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_index(&[5.0, 5.0, 5.0]), 1.0);
        let skew = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!(
            (skew - 0.25).abs() < 1e-12,
            "one-taker index is 1/n: {skew}"
        );
        let mid = jain_index(&[4.0, 1.0]);
        assert!(mid > 0.5 && mid < 1.0);
    }

    #[test]
    fn shared_pool_plan_merges_histograms() {
        let t0: Vec<f64> = (0..64).map(|i| 4.0 + (i % 5) as f64).collect();
        let t1: Vec<f64> = (0..64).map(|i| 30.0 + (i % 9) as f64).collect();
        let plan = plan_shared_pool(&[t0.clone(), t1.clone()], 4);
        assert_eq!(plan.merged.count, 128);
        // More capacity → at least as much provisioning.
        let wider = plan_shared_pool(&[t0, t1], 8);
        assert!(wider.provisioned_concurrency >= plan.provisioned_concurrency);
        // Sized above the standing mean, below the account limit.
        let mean = plan.merged.mean();
        assert!(plan.provisioned_concurrency as f64 >= 4.0 * mean * 0.99);
        assert!(plan.provisioned_concurrency <= 1_000);
        // Empty input falls back to one slot per in-flight run.
        assert_eq!(plan_shared_pool(&[], 3).provisioned_concurrency, 3);
    }

    #[test]
    fn model_names_roundtrip() {
        for name in ["poisson", "bursty", "diurnal"] {
            assert_eq!(ArrivalModel::parse(name).unwrap().name(), name);
        }
        assert!(ArrivalModel::parse("lunar").is_err());
        assert_eq!(TenantId(3).to_string(), "t3");
    }

    #[test]
    #[should_panic(expected = "unknown tenant")]
    fn unknown_tenant_is_fatal() {
        let c = cfg(vec![spec(0, 1, 1, 1)], 1);
        let rogue = vec![Arrival {
            tenant: TenantId(99),
            index: 0,
            at: SimTime::ZERO,
        }];
        let samples = uniform_samples(1, 1.0);
        FrontDoor::new(c).serve(&rogue, &samples, None);
    }
}
