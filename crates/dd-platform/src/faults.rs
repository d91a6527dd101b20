//! Deterministic fault injection and recovery.
//!
//! Real FaaS platforms are not benign: invocations are rejected
//! transiently, microVMs crash mid-execution, pool instances fail to
//! boot, storage reads hiccup, and start-ups straggle (image-pull
//! retries, noisy neighbours). The paper evaluates a clean environment;
//! this module models the dirty one while preserving the workspace's two
//! hard contracts:
//!
//! 1. **Determinism** — every fault is a pure function of
//!    `(fault seed, run index, phase, slot, attempt, channel)`, hashed
//!    SplitMix64-style exactly like the straggler injection it replaces.
//!    No RNG state is carried between components, so the analytic
//!    executor ([`crate::faas`]) and the DES executor
//!    ([`crate::faas_des`]) resolve *identical* timelines from the same
//!    plan, and sweeps are byte-identical at any `--jobs` thread count.
//! 2. **Strict no-op when disabled** — with every rate at zero,
//!    [`FaultPlan::timeline`] returns the exact float expressions the
//!    executors computed before this module existed
//!    (`overhead + exec + write`, recovery `0.0`), so clean runs are
//!    bit-for-bit unchanged.
//!
//! A [`FaultPlan`] draws per-attempt faults from the configured
//! [`FaultConfig`] rates; a [`RecoveryPolicy`] governs what happens next:
//! capped exponential-backoff retries, a per-component timeout that kills
//! over-long attempts, and speculative re-execution of stragglers (a
//! healthy backup copy races the slow primary; the loser is killed and
//! billed until the winner's finish). The resolved
//! [`ComponentTimeline`] separates the *winning* attempt's billing (the
//! ledger's `execution` component) from everything burned on losing
//! attempts (the ledger's `retry` component), so cost conservation holds
//! with faults on.
//!
//! Termination is guaranteed by construction: on the final allowed
//! attempt the plan suppresses failure faults and the timeout — modelling
//! the platform escalating to a reliable, synchronous (if slow) start —
//! so every component completes and the workflow always finishes.

/// The kinds of injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The invocation was rejected before any instance work happened
    /// (throttle / control-plane error). Costs nothing but a backoff.
    TransientInvocation,
    /// The microVM died mid-execution; start-up and a fraction of the
    /// execution were burned.
    InstanceCrash,
    /// A pre-boot / hot-pool start failed: the boot work ran, then the
    /// instance was unusable.
    StartFailure,
    /// The input read from back-end storage stalled; the attempt still
    /// succeeds, with extra start-up latency.
    StorageHiccup,
    /// The start-up straggled (multiplied overhead); the attempt still
    /// succeeds, slowly.
    Straggler,
}

impl FaultKind {
    /// Every kind, in a stable order (telemetry rows, reports).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::TransientInvocation,
        FaultKind::InstanceCrash,
        FaultKind::StartFailure,
        FaultKind::StorageHiccup,
        FaultKind::Straggler,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TransientInvocation => "transient",
            FaultKind::InstanceCrash => "crash",
            FaultKind::StartFailure => "start-failure",
            FaultKind::StorageHiccup => "storage-hiccup",
            FaultKind::Straggler => "straggler",
        }
    }
}

/// How one attempt of a component ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttemptOutcome {
    /// The attempt produced the component's output.
    Completed,
    /// A failure fault killed the attempt; the recovery policy retried.
    Failed,
    /// The watchdog killed the attempt at the policy timeout.
    TimedOut,
    /// A racing copy finished first; this attempt was killed at the
    /// winner's finish instant (its billed time is retry cost).
    Superseded,
}

/// Per-channel fault rates plus the injection seed.
///
/// All rates are probabilities in `[0, 1)` applied independently per
/// attempt. The default is the paper's clean environment (all zero).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Injection seed. Mixed with the run index so different runs see
    /// different fault placements (the straggler-seed bugfix: the old
    /// injection hard-coded seed 0 at both executor call sites).
    pub seed: u64,
    /// Rate of transient invocation rejections.
    pub transient_rate: f64,
    /// Rate of mid-execution instance crashes.
    pub crash_rate: f64,
    /// Rate of pre-boot / hot-pool start failures.
    pub start_failure_rate: f64,
    /// Rate of storage read hiccups.
    pub storage_hiccup_rate: f64,
    /// Maximum extra start-up seconds a storage hiccup adds (the actual
    /// extra is drawn uniformly in `[0, max)`).
    pub storage_hiccup_max_extra_secs: f64,
    /// Fraction of starts that straggle (multiplied overhead).
    pub straggler_fraction: f64,
    /// Start-up overhead multiplier of a straggling attempt.
    pub straggler_multiplier: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            transient_rate: 0.0,
            crash_rate: 0.0,
            start_failure_rate: 0.0,
            storage_hiccup_rate: 0.0,
            storage_hiccup_max_extra_secs: 2.0,
            straggler_fraction: 0.0,
            straggler_multiplier: 8.0,
        }
    }
}

impl FaultConfig {
    /// The clean environment (all rates zero) — the paper's setup.
    pub fn none() -> Self {
        Self::default()
    }

    /// Every channel at the same `rate` (fault-matrix sweeps).
    pub fn uniform(rate: f64) -> Self {
        Self {
            transient_rate: rate,
            crash_rate: rate,
            start_failure_rate: rate,
            storage_hiccup_rate: rate,
            straggler_fraction: rate,
            ..Self::default()
        }
    }

    /// This configuration with a different injection seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether every channel is disabled — the executors' strict-no-op
    /// fast path.
    pub fn is_clean(&self) -> bool {
        self.transient_rate <= 0.0
            && self.crash_rate <= 0.0
            && self.start_failure_rate <= 0.0
            && self.storage_hiccup_rate <= 0.0
            && self.straggler_fraction <= 0.0
    }
}

/// What the platform does about faulty attempts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Retries allowed after the first attempt. The final allowed
    /// attempt always completes (escalation to a reliable slow path),
    /// bounding every component at `max_retries + 1` primary attempts.
    pub max_retries: u32,
    /// First backoff gap, seconds (gap `k` is `base · 2^k`, capped).
    pub backoff_base_secs: f64,
    /// Upper bound on a single backoff gap, seconds.
    pub backoff_cap_secs: f64,
    /// Watchdog timeout per attempt, seconds; `0.0` disables it. Only
    /// fires while retries remain.
    pub timeout_secs: f64,
    /// Whether stragglers are speculatively re-executed.
    pub speculation: bool,
    /// How long a slow attempt runs before its healthy backup launches.
    pub speculation_delay_secs: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self::backoff()
    }
}

impl RecoveryPolicy {
    /// Naive re-invocation: unbounded-feeling retries with no backoff,
    /// no timeout, no speculation.
    pub const fn none() -> Self {
        Self {
            max_retries: 8,
            backoff_base_secs: 0.0,
            backoff_cap_secs: 0.0,
            timeout_secs: 0.0,
            speculation: false,
            speculation_delay_secs: 0.0,
        }
    }

    /// Capped exponential backoff (the default): 4 retries, gaps
    /// 0.5 s → 1 s → 2 s → 4 s, capped at 8 s.
    pub const fn backoff() -> Self {
        Self {
            max_retries: 4,
            backoff_base_secs: 0.5,
            backoff_cap_secs: 8.0,
            timeout_secs: 0.0,
            speculation: false,
            speculation_delay_secs: 0.0,
        }
    }

    /// Backoff plus a 45 s per-attempt watchdog timeout.
    pub const fn timeout() -> Self {
        Self {
            timeout_secs: 45.0,
            ..Self::backoff()
        }
    }

    /// The full recovery stack: backoff + timeout + speculative
    /// re-execution of stragglers after a 2 s delay.
    pub const fn speculative() -> Self {
        Self {
            speculation: true,
            speculation_delay_secs: 2.0,
            ..Self::timeout()
        }
    }

    /// Parses a policy preset name (CLI `--retry-policy`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "none" => Ok(Self::none()),
            "backoff" => Ok(Self::backoff()),
            "timeout" => Ok(Self::timeout()),
            "speculate" | "speculative" => Ok(Self::speculative()),
            other => Err(format!(
                "unknown retry policy '{other}' (none|backoff|timeout|speculate)"
            )),
        }
    }

    /// Preset name, if this policy matches one (reports).
    pub fn name(&self) -> &'static str {
        if *self == Self::none() {
            "none"
        } else if *self == Self::backoff() {
            "backoff"
        } else if *self == Self::timeout() {
            "timeout"
        } else if *self == Self::speculative() {
            "speculate"
        } else {
            "custom"
        }
    }

    /// The backoff gap after failed attempt `k`: `base · 2^k`, capped.
    ///
    /// Clamped *before* the multiply: the gap doubles only while it is
    /// still below the cap, so a high-retry policy (or a pathological
    /// `base`/`cap` pair, e.g. `base = 1e300` with an infinite cap) can
    /// never overflow to `inf` seconds and stall the virtual clock. The
    /// result is always finite; doubling is exact in binary floating
    /// point, so wherever the naive `base · 2^k` was finite this returns
    /// bit-identical values.
    pub fn backoff_secs(&self, attempt: u32) -> f64 {
        if !self.backoff_base_secs.is_finite() || self.backoff_base_secs <= 0.0 {
            return 0.0;
        }
        let cap = if self.backoff_cap_secs.is_finite() {
            self.backoff_cap_secs
        } else {
            f64::MAX
        };
        let mut gap = self.backoff_base_secs;
        let mut remaining = attempt;
        while remaining > 0 && gap < cap {
            gap *= 2.0;
            remaining -= 1;
        }
        gap.min(cap)
    }
}

/// One attempt of a component, as resolved by the plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attempt {
    /// Primary attempt index (a speculative copy shares its primary's).
    pub index: u32,
    /// Whether this is the speculative backup copy.
    pub speculative: bool,
    /// The fault that hit this attempt, if any.
    pub fault: Option<FaultKind>,
    /// How it ended.
    pub outcome: AttemptOutcome,
    /// Start offset from the component's dispatch, seconds.
    pub start_offset_secs: f64,
    /// Billed instance-seconds this attempt consumed.
    pub busy_secs: f64,
}

/// The resolved execution timeline of one component under a plan.
///
/// `attempts` is empty on the clean fast path (one implicit healthy
/// attempt); otherwise it lists every attempt in launch order.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentTimeline {
    /// Every attempt, in launch order (empty ⇔ clean single attempt).
    pub attempts: Vec<Attempt>,
    /// The winning attempt's start-up overhead (slowdowns included).
    pub overhead_secs: f64,
    /// Billed seconds of the winning attempt (`overhead + exec + write`
    /// exactly, on the clean path).
    pub primary_busy_secs: f64,
    /// Dispatch → output-committed offset, seconds (equals
    /// `primary_busy_secs` on the clean path).
    pub completion_offset_secs: f64,
    /// Completion minus the winning attempt's busy time: backoff gaps
    /// and losing attempts' wall-clock. `0.0` exactly on the clean path.
    pub recovery_secs: f64,
    /// Billed seconds burned on losing attempts (failures, timeouts,
    /// superseded copies) — the ledger's `retry` component.
    pub retry_busy_secs: f64,
}

impl ComponentTimeline {
    /// Total attempts launched (1 on the clean path).
    pub fn attempt_count(&self) -> u32 {
        self.attempts.len().max(1) as u32
    }

    /// Whether recovery engaged (more than the single healthy attempt).
    pub fn retried(&self) -> bool {
        self.attempts.len() > 1
    }
}

/// Aggregate fault/recovery counters of one run (telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Attempts launched, speculative copies included.
    pub total_attempts: u64,
    /// Components that needed more than one attempt.
    pub retried_components: u64,
    /// Transient invocation rejections.
    pub transient_failures: u64,
    /// Mid-execution crashes.
    pub crashes: u64,
    /// Pre-boot / hot-pool start failures.
    pub start_failures: u64,
    /// Storage read hiccups (attempt still succeeded).
    pub storage_hiccups: u64,
    /// Straggling starts (attempt still succeeded, slowly).
    pub stragglers: u64,
    /// Attempts killed by the watchdog timeout.
    pub timeouts: u64,
    /// Speculative backup copies launched.
    pub speculative_copies: u64,
    /// Speculative copies that beat their slow primary.
    pub speculative_wins: u64,
}

impl FaultStats {
    /// Folds one component's resolved timeline into the counters.
    pub fn absorb(&mut self, timeline: &ComponentTimeline) {
        self.total_attempts += timeline.attempt_count() as u64;
        if timeline.retried() {
            self.retried_components += 1;
        }
        for a in &timeline.attempts {
            match a.fault {
                Some(FaultKind::TransientInvocation) => self.transient_failures += 1,
                Some(FaultKind::InstanceCrash) => self.crashes += 1,
                Some(FaultKind::StartFailure) => self.start_failures += 1,
                Some(FaultKind::StorageHiccup) => self.storage_hiccups += 1,
                Some(FaultKind::Straggler) => self.stragglers += 1,
                None => {}
            }
            if a.outcome == AttemptOutcome::TimedOut {
                self.timeouts += 1;
            }
            if a.speculative {
                self.speculative_copies += 1;
                if a.outcome == AttemptOutcome::Completed {
                    self.speculative_wins += 1;
                }
            }
        }
    }

    /// Accumulates another run's counters (multi-run aggregates).
    pub fn merge(&mut self, other: &FaultStats) {
        self.total_attempts += other.total_attempts;
        self.retried_components += other.retried_components;
        self.transient_failures += other.transient_failures;
        self.crashes += other.crashes;
        self.start_failures += other.start_failures;
        self.storage_hiccups += other.storage_hiccups;
        self.stragglers += other.stragglers;
        self.timeouts += other.timeouts;
        self.speculative_copies += other.speculative_copies;
        self.speculative_wins += other.speculative_wins;
    }

    /// Total failure-class faults (the ones that forced a retry).
    pub fn failures(&self) -> u64 {
        self.transient_failures + self.crashes + self.start_failures
    }

    /// The counter growth since `mark` (an earlier snapshot of the same
    /// stats). Executors use this to attribute fault activity to
    /// individual phases in [`crate::telemetry::PhaseRecord`].
    pub fn delta_since(&self, mark: &FaultStats) -> FaultStats {
        FaultStats {
            total_attempts: self.total_attempts - mark.total_attempts,
            retried_components: self.retried_components - mark.retried_components,
            transient_failures: self.transient_failures - mark.transient_failures,
            crashes: self.crashes - mark.crashes,
            start_failures: self.start_failures - mark.start_failures,
            storage_hiccups: self.storage_hiccups - mark.storage_hiccups,
            stragglers: self.stragglers - mark.stragglers,
            timeouts: self.timeouts - mark.timeouts,
            speculative_copies: self.speculative_copies - mark.speculative_copies,
            speculative_wins: self.speculative_wins - mark.speculative_wins,
        }
    }
}

/// SplitMix64-style unit draw in `[0, 1)` from a hashed key — the same
/// construction the straggler injection has always used, extended with
/// attempt and channel dimensions. Pure and stateless: the draw order
/// never matters, which is what makes the two executors and any thread
/// count agree byte-for-byte.
fn unit_draw(seed: u64, phase: usize, slot: usize, attempt: u32, channel: u64) -> f64 {
    let mut z = seed
        .wrapping_add((phase as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((slot as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(u64::from(attempt).wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(channel.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The straggler draw: returns `multiplier` when the hashed `(phase, slot, seed)` unit draw
/// falls under `fraction`, else `1.0`.
pub fn straggler_multiplier(
    fraction: f64,
    multiplier: f64,
    phase: usize,
    slot: usize,
    seed: u64,
) -> f64 {
    if fraction <= 0.0 {
        return 1.0;
    }
    if unit_draw(seed, phase, slot, 0, CH_STRAGGLER) < fraction {
        multiplier
    } else {
        1.0
    }
}

// Draw channels: independent hash streams per fault dimension.
const CH_STRAGGLER: u64 = 0;
const CH_START_FAILURE: u64 = 1;
const CH_TRANSIENT: u64 = 2;
const CH_CRASH: u64 = 3;
const CH_CRASH_FRACTION: u64 = 4;
const CH_HICCUP: u64 = 5;
const CH_HICCUP_EXTRA: u64 = 6;

/// Mixes the injection seed with the run index so every run of a sweep
/// sees its own fault placement (the bug this PR fixes: both executors
/// used to pass a literal `0`, making placement identical across runs).
fn mix_run_seed(seed: u64, run_index: u64) -> u64 {
    let mut z = seed ^ run_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A run's resolved fault plan: configuration + policy + per-run seed.
///
/// Copyable and stateless; both executors build one per run and query it
/// per component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    config: FaultConfig,
    policy: RecoveryPolicy,
    seed: u64,
}

impl FaultPlan {
    /// Builds the plan for one run of a sweep.
    pub fn for_run(config: FaultConfig, policy: RecoveryPolicy, run_index: u64) -> Self {
        Self {
            config,
            policy,
            seed: mix_run_seed(config.seed, run_index),
        }
    }

    /// Whether this plan never injects anything (executors take the
    /// pre-fault-engine arithmetic verbatim).
    pub fn is_clean(&self) -> bool {
        self.config.is_clean()
    }

    /// The recovery policy in force.
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Straggler multiplier for attempt `attempt` of `(phase, slot)`.
    fn straggler_for(&self, phase: usize, slot: usize, attempt: u32) -> f64 {
        // Attempt 0 uses the run seed directly — the exact call the
        // executors used to make with a hard-coded 0; retries re-draw on
        // an attempt-shifted seed (a re-dispatched start is a fresh
        // placement lottery).
        let seed = self
            .seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        straggler_multiplier(
            self.config.straggler_fraction,
            self.config.straggler_multiplier,
            phase,
            slot,
            seed,
        )
    }

    fn draw(&self, phase: usize, slot: usize, attempt: u32, channel: u64) -> f64 {
        unit_draw(self.seed, phase, slot, attempt, channel)
    }

    /// Resolves the full attempt timeline of one component given its
    /// healthy `overhead + exec + write` decomposition.
    ///
    /// The clean path is float-exact with the pre-fault-engine executors:
    /// `primary_busy_secs` and `completion_offset_secs` are the literal
    /// expression `overhead + exec + write` and `recovery_secs` is `0.0`.
    pub fn timeline(
        &self,
        phase: usize,
        slot: usize,
        overhead_secs: f64,
        exec_secs: f64,
        write_secs: f64,
    ) -> ComponentTimeline {
        let healthy_busy = overhead_secs + exec_secs + write_secs;
        if self.is_clean() {
            return ComponentTimeline {
                attempts: Vec::new(),
                overhead_secs,
                primary_busy_secs: healthy_busy,
                completion_offset_secs: healthy_busy,
                recovery_secs: 0.0,
                retry_busy_secs: 0.0,
            };
        }

        let cfg = &self.config;
        let policy = self.policy;
        let mut attempts: Vec<Attempt> = Vec::new();
        let mut clock = 0.0_f64; // offset since component dispatch
        let mut retry_busy = 0.0_f64;
        let mut k = 0_u32;
        loop {
            // The final allowed attempt always completes: failure faults
            // and the watchdog are suppressed, modelling escalation to a
            // reliable synchronous start. This bounds the loop at
            // `max_retries + 1` iterations.
            let last = k >= policy.max_retries;

            let straggle = self.straggler_for(phase, slot, k);
            let hiccup_extra = if cfg.storage_hiccup_rate > 0.0
                && self.draw(phase, slot, k, CH_HICCUP) < cfg.storage_hiccup_rate
            {
                self.draw(phase, slot, k, CH_HICCUP_EXTRA) * cfg.storage_hiccup_max_extra_secs
            } else {
                0.0
            };
            let attempt_overhead = overhead_secs * straggle + hiccup_extra;

            // Failure faults, in precedence order; at most one per
            // attempt, none on the final attempt.
            let fail_transient = !last
                && cfg.transient_rate > 0.0
                && self.draw(phase, slot, k, CH_TRANSIENT) < cfg.transient_rate;
            let fail_start = !last
                && !fail_transient
                && cfg.start_failure_rate > 0.0
                && self.draw(phase, slot, k, CH_START_FAILURE) < cfg.start_failure_rate;
            let fail_crash = !last
                && !fail_transient
                && !fail_start
                && cfg.crash_rate > 0.0
                && self.draw(phase, slot, k, CH_CRASH) < cfg.crash_rate;

            if fail_transient {
                // Rejected at invocation: no instance time burned.
                attempts.push(Attempt {
                    index: k,
                    speculative: false,
                    fault: Some(FaultKind::TransientInvocation),
                    outcome: AttemptOutcome::Failed,
                    start_offset_secs: clock,
                    busy_secs: 0.0,
                });
                clock += policy.backoff_secs(k);
                k += 1;
                continue;
            }
            if fail_start {
                // The boot work ran, then the instance died.
                attempts.push(Attempt {
                    index: k,
                    speculative: false,
                    fault: Some(FaultKind::StartFailure),
                    outcome: AttemptOutcome::Failed,
                    start_offset_secs: clock,
                    busy_secs: attempt_overhead,
                });
                retry_busy += attempt_overhead;
                clock += attempt_overhead + policy.backoff_secs(k);
                k += 1;
                continue;
            }
            if fail_crash {
                let burned =
                    attempt_overhead + self.draw(phase, slot, k, CH_CRASH_FRACTION) * exec_secs;
                attempts.push(Attempt {
                    index: k,
                    speculative: false,
                    fault: Some(FaultKind::InstanceCrash),
                    outcome: AttemptOutcome::Failed,
                    start_offset_secs: clock,
                    busy_secs: burned,
                });
                retry_busy += burned;
                clock += burned + policy.backoff_secs(k);
                k += 1;
                continue;
            }

            // This attempt runs to completion (possibly slowly).
            let busy = attempt_overhead + exec_secs + write_secs;
            let slow_fault = if straggle > 1.0 {
                Some(FaultKind::Straggler)
            } else if hiccup_extra > 0.0 {
                Some(FaultKind::StorageHiccup)
            } else {
                None
            };

            // Timeout precedes speculation: the watchdog kills over-long
            // attempts outright while retries remain.
            if !last && policy.timeout_secs > 0.0 && busy > policy.timeout_secs {
                attempts.push(Attempt {
                    index: k,
                    speculative: false,
                    fault: slow_fault,
                    outcome: AttemptOutcome::TimedOut,
                    start_offset_secs: clock,
                    busy_secs: policy.timeout_secs,
                });
                retry_busy += policy.timeout_secs;
                clock += policy.timeout_secs + policy.backoff_secs(k);
                k += 1;
                continue;
            }

            // Speculation: a visibly slow (but under-timeout) attempt
            // races a healthy backup copy; the loser is killed at the
            // winner's finish and billed until then.
            if policy.speculation && busy > healthy_busy {
                let spec_start = clock + policy.speculation_delay_secs;
                let primary_finish = clock + busy;
                let spec_finish = spec_start + healthy_busy;
                if spec_finish < primary_finish {
                    // Backup wins.
                    let primary_billed = spec_finish - clock;
                    attempts.push(Attempt {
                        index: k,
                        speculative: false,
                        fault: slow_fault,
                        outcome: AttemptOutcome::Superseded,
                        start_offset_secs: clock,
                        busy_secs: primary_billed,
                    });
                    attempts.push(Attempt {
                        index: k,
                        speculative: true,
                        fault: None,
                        outcome: AttemptOutcome::Completed,
                        start_offset_secs: spec_start,
                        busy_secs: healthy_busy,
                    });
                    retry_busy += primary_billed;
                    return self.seal(
                        attempts,
                        overhead_secs,
                        healthy_busy,
                        spec_finish,
                        retry_busy,
                    );
                }
                if spec_start < primary_finish {
                    // Primary wins; the launched backup is killed at the
                    // primary's finish.
                    let spec_billed = primary_finish - spec_start;
                    attempts.push(Attempt {
                        index: k,
                        speculative: false,
                        fault: slow_fault,
                        outcome: AttemptOutcome::Completed,
                        start_offset_secs: clock,
                        busy_secs: busy,
                    });
                    attempts.push(Attempt {
                        index: k,
                        speculative: true,
                        fault: None,
                        outcome: AttemptOutcome::Superseded,
                        start_offset_secs: spec_start,
                        busy_secs: spec_billed,
                    });
                    retry_busy += spec_billed;
                    return self.seal(attempts, attempt_overhead, busy, primary_finish, retry_busy);
                }
                // Delay ≥ remaining primary time: the backup never
                // launches; fall through to a plain completion.
            }

            attempts.push(Attempt {
                index: k,
                speculative: false,
                fault: slow_fault,
                outcome: AttemptOutcome::Completed,
                start_offset_secs: clock,
                busy_secs: busy,
            });
            return self.seal(attempts, attempt_overhead, busy, clock + busy, retry_busy);
        }
    }

    /// Finalizes a resolved timeline and checks its conservation
    /// invariants (monotone completion, non-negative retry billing).
    fn seal(
        &self,
        attempts: Vec<Attempt>,
        winning_overhead: f64,
        winning_busy: f64,
        completion: f64,
        retry_busy: f64,
    ) -> ComponentTimeline {
        // fl(clock + busy) ≥ fl(busy) because float addition of a
        // non-negative clock is monotone, so recovery is never negative.
        let recovery = completion - winning_busy;
        dd_invariant!(
            completion.is_finite() && completion >= winning_busy,
            "fault timeline completion {completion} precedes its winning attempt ({winning_busy})"
        );
        dd_invariant!(
            retry_busy.is_finite() && retry_busy >= 0.0,
            "fault timeline retry billing is {retry_busy}, expected finite and non-negative"
        );
        ComponentTimeline {
            attempts,
            overhead_secs: winning_overhead,
            primary_busy_secs: winning_busy,
            completion_offset_secs: completion,
            recovery_secs: recovery,
            retry_busy_secs: retry_busy,
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;

    #[test]
    fn clean_plan_is_float_exact_noop() {
        let plan = FaultPlan::for_run(FaultConfig::none(), RecoveryPolicy::speculative(), 42);
        assert!(plan.is_clean());
        let (o, e, w) = (0.937, 3.561, 0.171);
        let tl = plan.timeline(3, 7, o, e, w);
        assert_eq!(tl.primary_busy_secs, o + e + w);
        assert_eq!(tl.completion_offset_secs, o + e + w);
        assert_eq!(tl.recovery_secs, 0.0);
        assert_eq!(tl.retry_busy_secs, 0.0);
        assert_eq!(tl.overhead_secs, o);
        assert!(tl.attempts.is_empty());
        assert_eq!(tl.attempt_count(), 1);
        assert!(!tl.retried());
    }

    #[test]
    fn timelines_are_deterministic_and_seed_sensitive() {
        let cfg = FaultConfig::uniform(0.3).with_seed(11);
        let plan = FaultPlan::for_run(cfg, RecoveryPolicy::backoff(), 5);
        let a = plan.timeline(2, 4, 1.0, 3.0, 0.2);
        let b = plan.timeline(2, 4, 1.0, 3.0, 0.2);
        assert_eq!(a, b, "pure draws must replay identically");

        // A different injection seed relocates the faults somewhere in a
        // modest grid.
        let other = FaultPlan::for_run(cfg.with_seed(12), RecoveryPolicy::backoff(), 5);
        let differs = (0..64).any(|i| {
            plan.timeline(i / 8, i % 8, 1.0, 3.0, 0.2)
                != other.timeline(i / 8, i % 8, 1.0, 3.0, 0.2)
        });
        assert!(differs, "seed must move fault placement");
    }

    #[test]
    fn run_index_moves_fault_placement() {
        // The straggler-seed bugfix: two runs of the same sweep must not
        // share a fault placement.
        let cfg = FaultConfig {
            straggler_fraction: 0.25,
            ..FaultConfig::none()
        };
        let run0 = FaultPlan::for_run(cfg, RecoveryPolicy::none(), 0);
        let run1 = FaultPlan::for_run(cfg, RecoveryPolicy::none(), 1);
        let placement = |p: &FaultPlan| -> Vec<bool> {
            (0..200)
                .map(|i| {
                    p.timeline(i / 10, i % 10, 1.0, 2.0, 0.1).retried() || {
                        p.timeline(i / 10, i % 10, 1.0, 2.0, 0.1).overhead_secs > 1.0
                    }
                })
                .collect()
        };
        assert_ne!(placement(&run0), placement(&run1));
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RecoveryPolicy::backoff();
        assert_eq!(p.backoff_secs(0), 0.5);
        assert_eq!(p.backoff_secs(1), 1.0);
        assert_eq!(p.backoff_secs(2), 2.0);
        assert_eq!(p.backoff_secs(3), 4.0);
        assert_eq!(p.backoff_secs(4), 8.0, "cap binds from attempt 4");
        assert_eq!(p.backoff_secs(60), 8.0, "huge attempt indices stay capped");
        assert_eq!(RecoveryPolicy::none().backoff_secs(3), 0.0);
    }

    #[test]
    fn backoff_never_overflows_at_huge_attempt_counts() {
        // k = 1024 would put the naive `base · 2^k` at 2^1024 ≈ inf even
        // for base = 1: the gap must stay finite (and capped) so a
        // NoneRecovery-style high-retry config can't stall the clock.
        for p in [
            RecoveryPolicy::none(),
            RecoveryPolicy::backoff(),
            RecoveryPolicy::timeout(),
            RecoveryPolicy::speculative(),
        ] {
            let gap = p.backoff_secs(1024);
            assert!(
                gap.is_finite(),
                "{}: gap {gap} not finite at k=1024",
                p.name()
            );
            assert!(gap <= p.backoff_cap_secs.max(0.0));
        }
        // Pathological custom policies: huge base with an uncapped (inf)
        // gap limit used to overflow to inf before the clamp.
        let hostile = RecoveryPolicy {
            max_retries: 2048,
            backoff_base_secs: 1e300,
            backoff_cap_secs: f64::INFINITY,
            ..RecoveryPolicy::backoff()
        };
        let gap = hostile.backoff_secs(1024);
        assert!(
            gap.is_finite(),
            "uncapped hostile gap {gap} must stay finite"
        );
        // NaN inputs degrade to no backoff rather than poisoning the clock.
        let nan_base = RecoveryPolicy {
            backoff_base_secs: f64::NAN,
            ..RecoveryPolicy::backoff()
        };
        assert_eq!(nan_base.backoff_secs(1024), 0.0);
        // And the clamp is bit-identical to the naive product wherever
        // that product was finite: base · 2^20 below an enormous cap.
        let wide = RecoveryPolicy {
            backoff_base_secs: 0.375,
            backoff_cap_secs: 1e9,
            ..RecoveryPolicy::backoff()
        };
        assert_eq!(wide.backoff_secs(20), 0.375 * f64::from(1u32 << 20));
    }

    #[test]
    fn timeout_fires_before_speculation() {
        // A straggler whose inflated busy time exceeds the watchdog is
        // killed and retried — never raced by a backup copy.
        let cfg = FaultConfig {
            straggler_fraction: 1.0,
            straggler_multiplier: 100.0,
            ..FaultConfig::none()
        };
        let policy = RecoveryPolicy {
            timeout_secs: 10.0,
            ..RecoveryPolicy::speculative()
        };
        let plan = FaultPlan::for_run(cfg, policy, 0);
        // overhead 1 → straggled attempt busy = 100 + 3 + 0.2 > 10.
        let tl = plan.timeline(0, 0, 1.0, 3.0, 0.2);
        // While retries remain, the watchdog preempts speculation: every
        // pre-final attempt is killed at the timeout, never raced.
        let retries = policy.max_retries as usize;
        for a in &tl.attempts[..retries] {
            assert_eq!(a.outcome, AttemptOutcome::TimedOut, "{a:?}");
            assert_eq!(a.busy_secs, 10.0);
            assert!(!a.speculative);
        }
        // On the final attempt the watchdog is suppressed (termination
        // guarantee), so the still-straggling primary is rescued by the
        // healthy speculative backup instead.
        let last = tl.attempts.last().unwrap();
        assert_eq!(last.outcome, AttemptOutcome::Completed);
        assert!(last.speculative);
        assert_eq!(
            tl.attempts[retries].outcome,
            AttemptOutcome::Superseded,
            "slow final primary loses the race"
        );
        assert_eq!(tl.attempts.len(), retries + 2);
        assert_eq!(tl.primary_busy_secs, 1.0 + 3.0 + 0.2);
    }

    #[test]
    fn speculation_beats_slow_straggler_without_timeout() {
        let cfg = FaultConfig {
            straggler_fraction: 1.0,
            straggler_multiplier: 100.0,
            ..FaultConfig::none()
        };
        let policy = RecoveryPolicy {
            timeout_secs: 0.0,
            ..RecoveryPolicy::speculative()
        };
        let plan = FaultPlan::for_run(cfg, policy, 0);
        let tl = plan.timeline(0, 0, 1.0, 3.0, 0.2);
        // Primary: 100 + 3.2 = 103.2 s; backup: 2 + 4.2 = 6.2 s → wins.
        assert_eq!(tl.attempts.len(), 2);
        assert_eq!(tl.attempts[0].outcome, AttemptOutcome::Superseded);
        assert!(tl.attempts[1].speculative);
        assert_eq!(tl.attempts[1].outcome, AttemptOutcome::Completed);
        assert_eq!(tl.completion_offset_secs, 2.0 + 4.2);
        // The superseded primary is billed until the winner's finish.
        assert_eq!(tl.retry_busy_secs, tl.attempts[0].busy_secs);
        assert_eq!(tl.attempts[0].busy_secs, 2.0 + 4.2);
        // The winner's own billing is the healthy busy time.
        assert_eq!(tl.primary_busy_secs, 1.0 + 3.0 + 0.2);
    }

    #[test]
    fn final_attempt_always_completes() {
        // Even at near-certain failure rates the component terminates.
        let cfg = FaultConfig {
            transient_rate: 0.999,
            crash_rate: 0.999,
            start_failure_rate: 0.999,
            ..FaultConfig::none()
        };
        for policy in [
            RecoveryPolicy::none(),
            RecoveryPolicy::backoff(),
            RecoveryPolicy::timeout(),
            RecoveryPolicy::speculative(),
        ] {
            let plan = FaultPlan::for_run(cfg, policy, 9);
            for i in 0..32 {
                let tl = plan.timeline(i, i * 3, 0.9, 2.0, 0.1);
                let last = tl.attempts.last().unwrap();
                assert_eq!(last.outcome, AttemptOutcome::Completed, "{policy:?}");
                assert!(tl.attempts.len() as u32 <= policy.max_retries + 2);
                assert!(tl.completion_offset_secs >= tl.primary_busy_secs);
                assert!(tl.retry_busy_secs >= 0.0);
            }
        }
    }

    #[test]
    fn fault_rates_approximate_configured_probability() {
        let cfg = FaultConfig {
            crash_rate: 0.2,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::for_run(cfg, RecoveryPolicy::backoff(), 3);
        let crashed = (0..50_000)
            .filter(|&i| {
                plan.timeline(i / 100, i % 100, 1.0, 2.0, 0.1)
                    .attempts
                    .iter()
                    .any(|a| a.fault == Some(FaultKind::InstanceCrash))
            })
            .count();
        // First-attempt crash probability is 0.2; retries re-draw, so
        // the per-component rate is slightly above.
        let rate = crashed as f64 / 50_000.0;
        assert!((0.18..=0.30).contains(&rate), "crash rate {rate}");
    }

    #[test]
    fn stats_absorb_counts_everything() {
        let cfg = FaultConfig::uniform(0.4).with_seed(7);
        let plan = FaultPlan::for_run(cfg, RecoveryPolicy::speculative(), 1);
        let mut stats = FaultStats::default();
        for i in 0..400 {
            stats.absorb(&plan.timeline(i / 20, i % 20, 1.0, 3.0, 0.2));
        }
        assert!(stats.total_attempts >= 400);
        assert!(stats.retried_components > 0);
        assert!(stats.failures() > 0);
        assert!(stats.stragglers > 0);
        let mut doubled = stats;
        doubled.merge(&stats);
        assert_eq!(doubled.total_attempts, stats.total_attempts * 2);
        assert_eq!(doubled.failures(), stats.failures() * 2);
    }

    #[test]
    fn policy_presets_roundtrip() {
        for name in ["none", "backoff", "timeout", "speculate"] {
            assert_eq!(RecoveryPolicy::parse(name).unwrap().name(), name);
        }
        assert_eq!(
            RecoveryPolicy::parse("speculative").unwrap(),
            RecoveryPolicy::speculative()
        );
        assert!(RecoveryPolicy::parse("yolo").is_err());
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::backoff());
    }

    #[test]
    fn uniform_config_and_absorption() {
        assert!(FaultConfig::none().is_clean());
        let cfg = FaultConfig::uniform(0.05);
        assert!(!cfg.is_clean());
        assert_eq!(cfg.crash_rate, 0.05);
        assert_eq!(cfg.straggler_fraction, 0.05);
    }
}
