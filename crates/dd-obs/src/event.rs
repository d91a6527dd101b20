//! The typed event stream: [`Event`], its [`label`] codes, and the
//! [`TraceEvent`] a [`crate::MemoryRecorder`] stores. Everything an
//! exporter prints about an event — name, category, span duration,
//! `(key, Value)` args — is derived from its variant here.

use std::fmt;

/// A typed argument value, as exporters render an event's args.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, indices, flags).
    U64(u64),
    /// Finite float (seconds, fractions).
    F64(f64),
    /// Static name (start kind, tier, fault kind, attempt outcome).
    Str(&'static str),
}

/// Span vs point event, chrome-trace style.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// An interval: `[ts_secs, ts_secs + dur_secs]`.
    Span {
        /// Duration in virtual seconds (>= 0).
        dur_secs: f64,
    },
    /// A point in virtual time.
    Instant,
}

/// One-byte codes for the names events carry; each renders as the text
/// the exports have always shown.
pub mod label {
    /// How a component started (`component` → `kind`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Start {
        /// Component pre-paired with its runtime.
        Warm,
        /// Runtime pre-loaded, component attached at invocation.
        Hot,
        /// Nothing pre-loaded.
        Cold,
    }

    /// Instance tier (`component` → `tier`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Tier {
        /// The high-end instance tier.
        HighEnd,
        /// The low-end instance tier.
        LowEnd,
    }

    /// Injected fault kind (`fault_attempt` → `fault`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Fault {
        /// Invocation rejected before any instance work.
        TransientInvocation,
        /// The instance died mid-execution.
        InstanceCrash,
        /// A pre-boot or hot-pool start failed.
        StartFailure,
        /// The input read from storage stalled.
        StorageHiccup,
        /// The start-up straggled.
        Straggler,
    }

    /// How an attempt ended (`fault_attempt` → `outcome`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Outcome {
        /// Produced the component's output.
        Completed,
        /// Killed by a failure fault.
        Failed,
        /// Killed by the watchdog.
        TimedOut,
        /// Lost the race to a copy that finished first.
        Superseded,
    }

    impl Start {
        /// Rendered name.
        #[must_use]
        pub const fn name(self) -> &'static str {
            match self {
                Start::Warm => "warm",
                Start::Hot => "hot",
                Start::Cold => "cold",
            }
        }
    }

    impl Tier {
        /// Rendered name.
        #[must_use]
        pub const fn name(self) -> &'static str {
            match self {
                Tier::HighEnd => "high-end",
                Tier::LowEnd => "low-end",
            }
        }
    }

    impl Fault {
        /// Rendered name (the variant name).
        #[must_use]
        pub const fn name(self) -> &'static str {
            match self {
                Fault::TransientInvocation => "TransientInvocation",
                Fault::InstanceCrash => "InstanceCrash",
                Fault::StartFailure => "StartFailure",
                Fault::StorageHiccup => "StorageHiccup",
                Fault::Straggler => "Straggler",
            }
        }
    }

    impl Outcome {
        /// Rendered name (the variant name).
        #[must_use]
        pub const fn name(self) -> &'static str {
            match self {
                Outcome::Completed => "Completed",
                Outcome::Failed => "Failed",
                Outcome::TimedOut => "TimedOut",
                Outcome::Superseded => "Superseded",
            }
        }
    }
}

/// Every event the simulators emit. The canonical emission order is
/// documented in `dd-platform`'s executor module; the name, category,
/// span duration and args of each variant are listed in [`Event::name`],
/// [`Event::cat`], [`Event::kind`] and [`Event::args`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// Span: a pool requested for `phase` pre-boots `size` instances; it
    /// lasts until the last one is ready.
    PoolPreboot {
        /// Phase the pool serves.
        phase: usize,
        /// Instances requested.
        size: usize,
        /// Seconds until the last instance is ready.
        prepare_secs: f64,
    },
    /// Span: the scheduler's placement decision for `phase`.
    SchedPlace {
        /// Phase index.
        phase: usize,
        /// Components placed.
        components: usize,
        /// Decision overhead in seconds.
        overhead_secs: f64,
    },
    /// Span: one component, from its start to its completion.
    Component {
        /// Phase index.
        phase: usize,
        /// Component slot within the phase.
        slot: usize,
        /// Start kind.
        kind: label::Start,
        /// Tier it ran on.
        tier: label::Tier,
        /// Attempts launched (speculative copies included).
        attempts: u32,
        /// Seconds from start to completion.
        dur_secs: f64,
    },
    /// Instant: one fault-engine attempt of a component.
    FaultAttempt {
        /// Phase index.
        phase: usize,
        /// Component slot within the phase.
        slot: usize,
        /// Attempt index.
        attempt: u32,
        /// Whether this is a speculative copy.
        speculative: bool,
        /// The fault injected into the attempt, if any.
        fault: Option<label::Fault>,
        /// How the attempt ended.
        outcome: label::Outcome,
    },
    /// Instant: the scheduler observes a completed phase.
    Observe {
        /// Phase index.
        phase: usize,
        /// Observed concurrency.
        concurrency: u32,
        /// Fraction of components friendly to the low-end tier.
        friendly_fraction: f64,
        /// Components that needed a retry.
        retried: u32,
    },
    /// Span: a whole phase, from its start to its last completion.
    Phase {
        /// Phase index.
        phase: usize,
        /// Components in the phase.
        concurrency: u32,
        /// Pool size it was served from.
        pool: u32,
        /// Phase execution seconds.
        exec_secs: f64,
    },
    /// Instant: the concurrency predictor re-fit its Weibull model.
    WeibullRefit {
        /// Fitted shape.
        alpha: f64,
        /// Fitted scale.
        beta: f64,
        /// Interval fits folded into the model.
        intervals: usize,
    },
    /// Instant: a pool request was split across tiers.
    TierSplit {
        /// Total pool size.
        pool: u32,
        /// High-end instances.
        high_end: u32,
        /// Low-end instances.
        low_end: u32,
    },
    /// Instant: a run arrived at the front door.
    Arrival {
        /// Submitting tenant.
        tenant: u32,
        /// Per-tenant arrival index.
        index: usize,
    },
    /// Instant: the front door admitted a run.
    Admit {
        /// Submitting tenant.
        tenant: u32,
        /// Per-tenant arrival index.
        index: usize,
        /// Seconds the run queued.
        delay_secs: f64,
    },
    /// Instant: an admitted run completed.
    Complete {
        /// Submitting tenant.
        tenant: u32,
        /// Arrival-to-completion seconds.
        sojourn_secs: f64,
        /// Whether the tenant's SLA was met.
        attained: bool,
    },
}

impl Event {
    /// Event name (e.g. `"phase"`, `"component"`, `"weibull_refit"`).
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            Event::PoolPreboot { .. } => "pool_preboot",
            Event::SchedPlace { .. } => "sched_place",
            Event::Component { .. } => "component",
            Event::FaultAttempt { .. } => "fault_attempt",
            Event::Observe { .. } => "observe",
            Event::Phase { .. } => "phase",
            Event::WeibullRefit { .. } => "weibull_refit",
            Event::TierSplit { .. } => "tier_split",
            Event::Arrival { .. } => "arrival",
            Event::Admit { .. } => "admit",
            Event::Complete { .. } => "complete",
        }
    }

    /// Category for grouping in trace viewers.
    #[must_use]
    pub const fn cat(&self) -> &'static str {
        match self {
            Event::PoolPreboot { .. } => "pool",
            Event::SchedPlace { .. }
            | Event::Observe { .. }
            | Event::WeibullRefit { .. }
            | Event::TierSplit { .. } => "scheduler",
            Event::Component { .. } => "exec",
            Event::FaultAttempt { .. } => "fault",
            Event::Phase { .. } => "phase",
            Event::Arrival { .. } | Event::Admit { .. } | Event::Complete { .. } => "traffic",
        }
    }

    /// Span (with its duration) or instant.
    #[must_use]
    pub const fn kind(&self) -> EventKind {
        match *self {
            Event::PoolPreboot { prepare_secs, .. } => EventKind::Span {
                dur_secs: prepare_secs,
            },
            Event::SchedPlace { overhead_secs, .. } => EventKind::Span {
                dur_secs: overhead_secs,
            },
            Event::Component { dur_secs, .. } => EventKind::Span { dur_secs },
            Event::Phase { exec_secs, .. } => EventKind::Span {
                dur_secs: exec_secs,
            },
            _ => EventKind::Instant,
        }
    }

    /// The `(key, Value)` args, in the order every export prints them.
    #[must_use]
    pub fn args(&self) -> Args {
        use Value::{Str, F64, U64};
        let n = |x: usize| U64(x as u64);
        match *self {
            Event::PoolPreboot { phase, size, .. } => {
                Args::new([("phase", n(phase)), ("size", n(size))])
            }
            Event::SchedPlace {
                phase, components, ..
            } => Args::new([("phase", n(phase)), ("components", n(components))]),
            Event::Component {
                phase,
                slot,
                kind,
                tier,
                attempts,
                ..
            } => Args::new([
                ("phase", n(phase)),
                ("slot", n(slot)),
                ("kind", Str(kind.name())),
                ("tier", Str(tier.name())),
                ("attempts", U64(u64::from(attempts))),
            ]),
            Event::FaultAttempt {
                phase,
                slot,
                attempt,
                speculative,
                fault,
                outcome,
            } => Args::new([
                ("phase", n(phase)),
                ("slot", n(slot)),
                ("attempt", U64(u64::from(attempt))),
                ("speculative", U64(u64::from(speculative))),
                ("fault", Str(fault.map_or("none", label::Fault::name))),
                ("outcome", Str(outcome.name())),
            ]),
            Event::Observe {
                phase,
                concurrency,
                friendly_fraction,
                retried,
            } => Args::new([
                ("phase", n(phase)),
                ("concurrency", U64(u64::from(concurrency))),
                ("friendly_fraction", F64(friendly_fraction)),
                ("retried", U64(u64::from(retried))),
            ]),
            Event::Phase {
                phase,
                concurrency,
                pool,
                ..
            } => Args::new([
                ("phase", n(phase)),
                ("concurrency", U64(u64::from(concurrency))),
                ("pool", U64(u64::from(pool))),
            ]),
            Event::WeibullRefit {
                alpha,
                beta,
                intervals,
            } => Args::new([
                ("alpha", F64(alpha)),
                ("beta", F64(beta)),
                ("intervals", n(intervals)),
            ]),
            Event::TierSplit {
                pool,
                high_end,
                low_end,
            } => Args::new([
                ("pool", U64(u64::from(pool))),
                ("high_end", U64(u64::from(high_end))),
                ("low_end", U64(u64::from(low_end))),
            ]),
            Event::Arrival { tenant, index } => {
                Args::new([("tenant", U64(u64::from(tenant))), ("index", n(index))])
            }
            Event::Admit {
                tenant,
                index,
                delay_secs,
            } => Args::new([
                ("tenant", U64(u64::from(tenant))),
                ("index", n(index)),
                ("delay_secs", F64(delay_secs)),
            ]),
            Event::Complete {
                tenant,
                sojourn_secs,
                attained,
            } => Args::new([
                ("tenant", U64(u64::from(tenant))),
                ("sojourn_secs", F64(sojourn_secs)),
                ("attained", U64(u64::from(attained))),
            ]),
        }
    }
}

/// An event's args, held inline; derefs to `[(key, Value)]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    items: [(&'static str, Value); Args::CAP],
    len: usize,
}

impl Args {
    /// The most args any [`Event`] carries.
    const CAP: usize = 6;

    fn new<const N: usize>(args: [(&'static str, Value); N]) -> Self {
        let mut items = [("", Value::U64(0)); Self::CAP];
        items[..N].copy_from_slice(&args);
        Self { items, len: N }
    }
}

impl std::ops::Deref for Args {
    type Target = [(&'static str, Value)];

    fn deref(&self) -> &Self::Target {
        &self.items[..self.len]
    }
}

/// One recorded event: the typed [`Event`] and its virtual timestamp.
/// Events are stored in emission order, which both executors produce
/// identically.
#[derive(Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Virtual-clock timestamp in seconds.
    pub ts_secs: f64,
    /// What happened.
    pub event: Event,
}

impl TraceEvent {
    /// Event name (see [`Event::name`]).
    #[must_use]
    pub const fn name(&self) -> &'static str {
        self.event.name()
    }

    /// Event category (see [`Event::cat`]).
    #[must_use]
    pub const fn cat(&self) -> &'static str {
        self.event.cat()
    }

    /// Span-or-instant plus span duration (see [`Event::kind`]).
    #[must_use]
    pub const fn kind(&self) -> EventKind {
        self.event.kind()
    }
}

/// Prints the shape a `TraceEvent` with a `Vec<(&str, Value)>` of args
/// printed, which recorder digests hash. Fault and outcome names were
/// formatted strings then, so they print as `Text("…")`.
impl fmt::Debug for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Text(&'static str);
        impl fmt::Debug for Text {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_tuple("Text").field(&self.0).finish()
            }
        }
        struct DebugArgs(Event);
        impl fmt::Debug for DebugArgs {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let attempt = matches!(self.0, Event::FaultAttempt { .. });
                let mut list = f.debug_list();
                for &(key, value) in self.0.args().iter() {
                    match value {
                        Value::Str(s) if attempt && s != "none" => list.entry(&(key, Text(s))),
                        _ => list.entry(&(key, value)),
                    };
                }
                list.finish()
            }
        }
        f.debug_struct("TraceEvent")
            .field("name", &self.name())
            .field("cat", &self.cat())
            .field("ts_secs", &self.ts_secs)
            .field("kind", &self.kind())
            .field("args", &DebugArgs(self.event))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_stored_compactly() {
        assert!(std::mem::size_of::<TraceEvent>() <= 40);
    }
}
