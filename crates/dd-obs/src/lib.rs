//! dd-obs — deterministic observability for the DayDream simulators.
//!
//! A zero-dependency tracing + metrics layer. Executors emit typed
//! [`Event`]s — *spans* (scheduler decisions, pool pre-boots,
//! per-component execution, whole phases) and *instants* (fault
//! attempts, Weibull re-fits, tier splits, front-door traffic) — and
//! *metrics* (start-kind counters, pre-load hit/miss, retries, keep-alive
//! seconds) through the [`Recorder`] trait.
//!
//! Design rules, in decreasing order of importance:
//!
//! 1. **Determinism.** Every timestamp is virtual (`SimTime` seconds from
//!    the analytic or DES clock), never wall clock; every container is a
//!    `Vec` in emission/registration order. Two runs of the same seed —
//!    on any `--jobs` value, on either executor — produce byte-identical
//!    exports.
//! 2. **Cheap when enabled, zero cost when disabled.** An emission is one
//!    `Copy` [`Event`] value: names, categories, span durations and the
//!    `(key, Value)` args are derived from its variant only when an
//!    exporter or `Debug` renders it, so [`MemoryRecorder`] stores each
//!    event in 40 bytes and allocates nothing per event beyond the
//!    amortized growth of its `Vec`. Metrics are addressed by the
//!    [`MetricId`] their `declare_*` call returned, resolved once per run.
//!    [`NoopRecorder`] methods are empty defaults; callers guard event
//!    construction behind [`Recorder::enabled`], so a disabled recorder
//!    adds only a branch.
//!    `tests/obs_determinism.rs::a_disabled_recorder_is_never_called_past_enabled`
//!    pins this with a recorder that panics past `enabled()`.
//! 3. **No side channels.** Recording never feeds back into simulation
//!    decisions; a recorded run and an unrecorded run of the same seed
//!    produce identical outcomes.
//!
//! Exporters live in [`export`]: JSONL event streams
//! ([`export::to_jsonl`]), chrome://tracing JSON
//! ([`export::to_chrome_trace`]) and a human per-phase timing table
//! ([`export::summary`]).

mod event;
pub mod export;

pub use event::{label, Args, Event, EventKind, TraceEvent, Value};

/// The handle of one registered metric, returned by the `declare_*`
/// methods. Callers resolve each name once per run and address the
/// metric by handle afterwards; a handle is valid for the registry that
/// issued it (registries only ever append).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricId(usize);

/// The sink executors emit into. All methods default to no-ops so that
/// [`NoopRecorder`] is literally `impl Recorder for NoopRecorder {}` and
/// the disabled path costs one `enabled()` branch per emission site.
///
/// Executors call the `declare_*` methods once per run, up front in a
/// fixed order, so the registry's iteration order is identical across
/// executors and runs, and keep the returned [`MetricId`]s.
pub trait Recorder {
    /// Whether emission sites should bother building events.
    fn enabled(&self) -> bool {
        false
    }

    /// Record `event` at virtual time `ts_secs`.
    fn event(&mut self, _ts_secs: f64, _event: Event) {}

    /// Register a counter (or find the one already registered).
    fn declare_counter(&mut self, _name: &'static str) -> MetricId {
        MetricId::default()
    }

    /// Register a gauge.
    fn declare_gauge(&mut self, _name: &'static str) -> MetricId {
        MetricId::default()
    }

    /// Register a histogram.
    fn declare_histogram(&mut self, _name: &'static str) -> MetricId {
        MetricId::default()
    }

    /// Add `delta` to a counter.
    fn add(&mut self, _id: MetricId, _delta: u64) {}

    /// Set a gauge to `value`.
    fn set(&mut self, _id: MetricId, _value: f64) {}

    /// Record one histogram sample.
    fn record(&mut self, _id: MetricId, _value: f64) {}
}

/// The zero-cost disabled recorder; every method is the trait default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// In-memory recorder backing the exporters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryRecorder {
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
    /// Metrics in declaration order.
    pub metrics: MetricsRegistry,
}

impl MemoryRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Recorder for MemoryRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&mut self, ts_secs: f64, event: Event) {
        self.events.push(TraceEvent { ts_secs, event });
    }

    fn declare_counter(&mut self, name: &'static str) -> MetricId {
        self.metrics.declare_counter(name)
    }

    fn declare_gauge(&mut self, name: &'static str) -> MetricId {
        self.metrics.declare_gauge(name)
    }

    fn declare_histogram(&mut self, name: &'static str) -> MetricId {
        self.metrics.declare_histogram(name)
    }

    fn add(&mut self, id: MetricId, delta: u64) {
        self.metrics.add(id, delta);
    }

    fn set(&mut self, id: MetricId, value: f64) {
        self.metrics.set(id, value);
    }

    fn record(&mut self, id: MetricId, value: f64) {
        self.metrics.record(id, value);
    }
}

/// A metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic u64 counter.
    Counter(u64),
    /// Last-set float; merges by accumulation (use a histogram when the
    /// distribution matters).
    Gauge(f64),
    /// Sample distribution with fixed log buckets.
    Histogram(Histogram),
}

/// One named metric slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Static metric name.
    pub name: &'static str,
    /// Current value.
    pub value: MetricValue,
}

/// Fixed-registration metric store. Slots are a `Vec` in declaration
/// order, so iteration — and therefore every export — is deterministic.
/// Declaring looks the name up by a linear scan, once per run; every
/// update after that indexes the slot through its [`MetricId`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: Vec<Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of `name`, appended as `fresh` if absent.
    ///
    /// # Panics
    /// Panics if `name` is registered as a different kind of metric.
    fn declare(&mut self, name: &'static str, fresh: MetricValue) -> MetricId {
        match self.entries.iter().position(|m| m.name == name) {
            Some(idx) => {
                let held = &self.entries[idx].value;
                if std::mem::discriminant(held) != std::mem::discriminant(&fresh) {
                    unreachable_kind(name, kind_name(&fresh), held);
                }
                MetricId(idx)
            }
            None => {
                self.entries.push(Metric { name, value: fresh });
                MetricId(self.entries.len() - 1)
            }
        }
    }

    /// Registers `name` as a counter if absent; returns its handle.
    pub fn declare_counter(&mut self, name: &'static str) -> MetricId {
        self.declare(name, MetricValue::Counter(0))
    }

    /// Registers `name` as a gauge if absent; returns its handle.
    pub fn declare_gauge(&mut self, name: &'static str) -> MetricId {
        self.declare(name, MetricValue::Gauge(0.0))
    }

    /// Registers `name` as a histogram if absent; returns its handle.
    pub fn declare_histogram(&mut self, name: &'static str) -> MetricId {
        self.declare(name, MetricValue::Histogram(Histogram::new()))
    }

    /// Adds `delta` to the counter `id`.
    pub fn add(&mut self, id: MetricId, delta: u64) {
        let m = &mut self.entries[id.0];
        match &mut m.value {
            MetricValue::Counter(c) => *c += delta,
            other => unreachable_kind(m.name, "counter", other),
        }
    }

    /// Sets the gauge `id`.
    pub fn set(&mut self, id: MetricId, value: f64) {
        let m = &mut self.entries[id.0];
        match &mut m.value {
            MetricValue::Gauge(g) => *g = value,
            other => unreachable_kind(m.name, "gauge", other),
        }
    }

    /// Records a sample into the histogram `id`.
    pub fn record(&mut self, id: MetricId, value: f64) {
        let m = &mut self.entries[id.0];
        match &mut m.value {
            MetricValue::Histogram(h) => h.record(value),
            other => unreachable_kind(m.name, "histogram", other),
        }
    }

    /// Metrics in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.entries.iter()
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no metric has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks a metric up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.iter().find(|m| m.name == name)
    }

    /// Convenience: current value of the counter `name` (0 if absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Metric {
                value: MetricValue::Counter(c),
                ..
            }) => *c,
            _ => 0,
        }
    }

    /// Merges `other` into `self`. Counters and gauges accumulate,
    /// histograms combine sample-wise; names absent from `self` append
    /// in `other`'s order, so merging per-run snapshots in run-index
    /// order is deterministic regardless of which runs touched which
    /// metrics.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for m in &other.entries {
            let id = self.declare(m.name, m.value.clone_empty());
            match (&m.value, &mut self.entries[id.0].value) {
                (MetricValue::Counter(c), MetricValue::Counter(mine)) => *mine += c,
                (MetricValue::Gauge(g), MetricValue::Gauge(mine)) => *mine += g,
                (MetricValue::Histogram(h), MetricValue::Histogram(mine)) => mine.merge(h),
                (theirs, mine) => unreachable_kind(m.name, kind_name(theirs), mine),
            }
        }
    }
}

fn kind_name(v: &MetricValue) -> &'static str {
    match v {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Histogram(_) => "histogram",
    }
}

fn unreachable_kind(name: &str, wanted: &str, got: &MetricValue) -> ! {
    panic!(
        "metric {name:?} used as {wanted} but registered as {}",
        kind_name(got)
    )
}

impl MetricValue {
    fn clone_empty(&self) -> MetricValue {
        match self {
            MetricValue::Counter(_) => MetricValue::Counter(0),
            MetricValue::Gauge(_) => MetricValue::Gauge(0.0),
            MetricValue::Histogram(_) => MetricValue::Histogram(Histogram::new()),
        }
    }
}

/// Upper bucket bounds (inclusive) for [`Histogram`], in seconds. The
/// final implicit bucket is overflow. Bucketing is by comparison against
/// this table — no `log`, whose libm implementations vary by platform.
pub const BUCKET_BOUNDS: [f64; 13] = [
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6,
];

/// Fixed-bucket histogram over non-negative seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Sample count.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (`+inf` when empty).
    pub min: f64,
    /// Largest sample (`-inf` when empty).
    pub max: f64,
    buckets: [u64; BUCKET_BOUNDS.len() + 1],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKET_BOUNDS.len() + 1],
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        debug_assert!(value.is_finite(), "histogram sample must be finite");
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.buckets[idx] += 1;
    }

    /// Mean sample, 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Per-bucket counts (last slot is overflow past [`BUCKET_BOUNDS`]).
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Combines another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(phase: usize) -> Event {
        Event::Phase {
            phase,
            concurrency: 4,
            pool: 4,
            exec_secs: 1.0,
        }
    }

    #[test]
    fn noop_recorder_is_disabled_and_silent() {
        let mut r = NoopRecorder;
        assert!(!r.enabled());
        r.event(0.0, phase(0));
        let id = r.declare_counter("n");
        r.add(id, 1);
        r.set(id, 1.0);
        r.record(id, 1.0);
    }

    #[test]
    fn memory_recorder_preserves_emission_order() {
        let mut r = MemoryRecorder::new();
        r.event(0.0, phase(0));
        r.event(
            0.5,
            Event::Arrival {
                tenant: 1,
                index: 2,
            },
        );
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.events[0].name(), "phase");
        assert_eq!(r.events[1].kind(), EventKind::Instant);
    }

    #[test]
    fn registry_iterates_in_declaration_order() {
        let mut m = MetricsRegistry::new();
        let z = m.declare_counter("z");
        m.declare_gauge("a");
        m.declare_histogram("m");
        m.add(z, 3);
        let names: Vec<&str> = m.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["z", "a", "m"]);
        assert_eq!(m.counter("z"), 3);
    }

    #[test]
    fn redeclaring_keeps_the_first_declared_slot() {
        let mut m = MetricsRegistry::new();
        let h = m.declare_histogram("h");
        let c = m.declare_counter("c");
        assert_eq!(m.declare_histogram("h"), h);
        m.record(h, 0.5);
        m.add(c, 1);
        let names: Vec<&str> = m.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["h", "c"]);
    }

    #[test]
    fn merge_accumulates_and_appends_missing_names() {
        let mut a = MetricsRegistry::new();
        let shared = a.declare_counter("shared");
        a.add(shared, 1);
        let mut b = MetricsRegistry::new();
        let shared = b.declare_counter("shared");
        b.add(shared, 2);
        let only_b = b.declare_gauge("only_b");
        b.set(only_b, 4.0);
        let h = b.declare_histogram("h");
        b.record(h, 2.0);
        a.merge(&b);
        assert_eq!(a.counter("shared"), 3);
        let names: Vec<&str> = a.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["shared", "only_b", "h"]);
        match &a.get("h").expect("merged histogram").value {
            MetricValue::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
    fn histogram_buckets_by_comparison() {
        let mut h = Histogram::new();
        h.record(0.0); // <= 1e-6 → bucket 0
        h.record(0.5); // <= 1.0 → bucket 6
        h.record(2e6); // overflow
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[6], 1);
        assert_eq!(h.buckets()[BUCKET_BOUNDS.len()], 1);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 2e6);
    }

    #[test]
    #[should_panic(expected = "registered as counter")]
    fn kind_mismatch_panics() {
        let mut m = MetricsRegistry::new();
        m.declare_counter("x");
        m.declare_gauge("x");
    }
}
