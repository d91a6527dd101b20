//! Layer timing from outside the program.
//!
//! A traced pass wraps each call into a layer — the run generator, the
//! policy surface, each executor, the scheduler callbacks (through
//! [`Timed`], a transparent [`ServerlessScheduler`] wrapper), the
//! front-door spine and each report figure — and adds its *self* time to
//! that layer: an executor is charged its `run` time minus the callbacks
//! it made into the scheduler. Per-call timings are summed into counters;
//! only run-level work (generate, build, execute of one run) is kept as a
//! span, written as JSONL when the pass ends.
//!
//! An untraced pass uses [`Clock::off`]: no wrapper, no per-call clock
//! reads. Traced passes run on one worker, so layer sums are wall time.

use dd_platform::{
    InstanceView, PhaseObservation, Placement, PoolRequest, RunInfo, SchedulerEvent,
    ServerlessScheduler, SimTime, StorageHints,
};
use dd_wfdag::Phase;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Reads the wall clock. Every timing in the benchmark goes through here.
pub(crate) fn now() -> Instant {
    // dd-lint: allow(wall-clock, determinism-taint, par-purity): the benchmark measures real wall time by design; no reading feeds back into simulation state
    Instant::now()
}

/// Seconds since `start`.
pub(crate) fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The layers a traced pass attributes self time to, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layer {
    Generate,
    Prepare,
    Build,
    Predictor,
    Optimizer,
    Oracle,
    Wild,
    Naive,
    Hybrid,
    FixedPool,
    Icps,
    Wukong,
    OtherBaseline,
    Faas,
    FaasDes,
    Cluster,
    Arrivals,
    PoolPlan,
    FrontDoor,
    Fig18,
    Sensitivity,
    Ablations,
    Chi2table,
    Concurrency,
    Scaling,
    OtherFigure,
}

impl Layer {
    pub(crate) const ALL: [Layer; 26] = [
        Layer::Generate,
        Layer::Prepare,
        Layer::Build,
        Layer::Predictor,
        Layer::Optimizer,
        Layer::Oracle,
        Layer::Wild,
        Layer::Naive,
        Layer::Hybrid,
        Layer::FixedPool,
        Layer::Icps,
        Layer::Wukong,
        Layer::OtherBaseline,
        Layer::Faas,
        Layer::FaasDes,
        Layer::Cluster,
        Layer::Arrivals,
        Layer::PoolPlan,
        Layer::FrontDoor,
        Layer::Fig18,
        Layer::Sensitivity,
        Layer::Ablations,
        Layer::Chi2table,
        Layer::Concurrency,
        Layer::Scaling,
        Layer::OtherFigure,
    ];

    /// Metric-name stem (the owning module, then the layer).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Layer::Generate => "wfdag.generate",
            Layer::Prepare => "policy.prepare",
            Layer::Build => "policy.build",
            Layer::Predictor => "core.predictor",
            Layer::Optimizer => "core.optimizer",
            Layer::Oracle => "baselines.oracle",
            Layer::Wild => "baselines.wild",
            Layer::Naive => "baselines.naive",
            Layer::Hybrid => "baselines.hybrid",
            Layer::FixedPool => "baselines.fixedpool",
            Layer::Icps => "baselines.icps",
            Layer::Wukong => "baselines.wukong",
            Layer::OtherBaseline => "baselines.other",
            Layer::Faas => "platform.faas",
            Layer::FaasDes => "platform.faas_des",
            Layer::Cluster => "platform.cluster",
            Layer::Arrivals => "platform.traffic.arrivals",
            Layer::PoolPlan => "platform.traffic.pool_plan",
            Layer::FrontDoor => "platform.traffic.front_door",
            Layer::Fig18 => "bench.figure.fig18",
            Layer::Sensitivity => "bench.figure.sensitivity",
            Layer::Ablations => "bench.figure.ablations",
            Layer::Chi2table => "bench.figure.chi2table",
            Layer::Concurrency => "bench.figure.concurrency",
            Layer::Scaling => "bench.figure.scaling",
            Layer::OtherFigure => "bench.figure.other",
        }
    }

    /// The layer charged for a report figure.
    pub(crate) fn figure(name: &str) -> Layer {
        match name {
            "fig18" => Layer::Fig18,
            "sensitivity" => Layer::Sensitivity,
            "ablations" => Layer::Ablations,
            "chi2table" => Layer::Chi2table,
            "concurrency" => Layer::Concurrency,
            "scaling" => Layer::Scaling,
            _ => Layer::OtherFigure,
        }
    }

    /// The layers charged for the callbacks of the scheduler reporting
    /// `name`: `(pool sizing and observation, placement)`. DayDream's split
    /// into its Weibull predictor and its γ/δ placement optimizer; every
    /// other scheduler is one layer.
    fn callbacks(name: &str) -> (Layer, Layer) {
        let one = |l| (l, l);
        match name {
            "daydream" => (Layer::Predictor, Layer::Optimizer),
            "oracle" => one(Layer::Oracle),
            "wild" => one(Layer::Wild),
            "naive-cold" => one(Layer::Naive),
            "hybrid" => one(Layer::Hybrid),
            "fixed-pool" => one(Layer::FixedPool),
            "icps" => one(Layer::Icps),
            "wukong" => one(Layer::Wukong),
            _ => one(Layer::OtherBaseline),
        }
    }
}

/// One run-level span of a traced pass.
#[derive(Debug, Clone, PartialEq)]
struct Span {
    name: &'static str,
    parent: &'static str,
    run: u64,
    start_us: f64,
    dur_us: f64,
}

/// Per-layer self-time and call counters of one pass, plus its spans.
///
/// Atomics and a mutex keep the clock `Sync`, so the sweep closures can
/// share it; a traced pass runs on one worker, so nothing contends.
pub(crate) struct Clock {
    on: bool,
    origin: Instant,
    ns: [AtomicU64; Layer::ALL.len()],
    calls: [AtomicU64; Layer::ALL.len()],
    spans: Mutex<Vec<Span>>,
}

impl Clock {
    fn new(on: bool) -> Self {
        Self {
            on,
            origin: now(),
            ns: std::array::from_fn(|_| AtomicU64::new(0)),
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A clock that times nothing: the untraced pass.
    pub(crate) fn off() -> Self {
        Self::new(false)
    }

    /// A clock that attributes every timed call.
    pub(crate) fn on() -> Self {
        Self::new(true)
    }

    pub(crate) fn is_on(&self) -> bool {
        self.on
    }

    /// Charges `calls` calls and `ns` nanoseconds of self time to `layer`.
    pub(crate) fn charge(&self, layer: Layer, ns: u64, calls: u64) {
        // dd-lint: allow(par-purity): relaxed statistics counters; read only after the sweep joins and never feed simulated results
        self.ns[layer as usize].fetch_add(ns, Ordering::Relaxed);
        // dd-lint: allow(par-purity): relaxed statistics counters; read only after the sweep joins and never feed simulated results
        self.calls[layer as usize].fetch_add(calls, Ordering::Relaxed);
    }

    /// Runs `f`, charging its duration to `layer` when the clock is on.
    pub(crate) fn time<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = now();
        let out = f();
        self.charge(layer, nanos_since(start), 1);
        out
    }

    /// [`Clock::time`] that also records a run-level span named `name`
    /// under `parent`.
    pub(crate) fn span<T>(
        &self,
        layer: Layer,
        name: &'static str,
        parent: &'static str,
        run: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = now();
        let out = f();
        let ns = nanos_since(start);
        self.charge(layer, ns, 1);
        self.record(name, parent, run, start, ns);
        out
    }

    /// Executes one serverless run: `exec` receives the scheduler — wrapped
    /// in [`Timed`] when the clock is on — and the executor layer is
    /// charged its duration minus the time spent in scheduler callbacks.
    pub(crate) fn execute<T>(
        &self,
        layer: Layer,
        parent: &'static str,
        run: u64,
        scheduler: &mut dyn ServerlessScheduler,
        exec: impl FnOnce(&mut dyn ServerlessScheduler) -> T,
    ) -> T {
        if !self.on {
            return exec(scheduler);
        }
        let mut timed = Timed::new(scheduler, self);
        let start = now();
        let out = exec(&mut timed);
        let ns = nanos_since(start);
        self.charge(layer, ns.saturating_sub(timed.callback_ns), 1);
        self.record("execute", parent, run, start, ns);
        out
    }

    fn record(&self, name: &'static str, parent: &'static str, run: u64, start: Instant, ns: u64) {
        let span = Span {
            name,
            parent,
            run,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: ns as f64 / 1e3,
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Self seconds and call count charged to `layer` so far.
    pub(crate) fn layer(&self, layer: Layer) -> (f64, u64) {
        let ns = self.ns[layer as usize].load(Ordering::Relaxed);
        let calls = self.calls[layer as usize].load(Ordering::Relaxed);
        (ns as f64 / 1e9, calls)
    }

    /// The recorded spans as JSON lines, in recording order.
    pub(crate) fn spans_jsonl(&self, workload: &str) -> String {
        let spans = self.spans.lock().expect("span log poisoned");
        spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"workload\":\"{workload}\",\"name\":\"{}\",\"parent\":\"{}\",\"run\":{},\
                     \"start_us\":{:.3},\"dur_us\":{:.3}}}\n",
                    s.name, s.parent, s.run, s.start_us, s.dur_us
                )
            })
            .collect()
    }
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Transparent timing wrapper: forwards every [`ServerlessScheduler`]
/// method unchanged and charges the decision callbacks to the policy's
/// layers (see [`Layer::callbacks`]).
pub(crate) struct Timed<'s, 'c> {
    inner: &'s mut dyn ServerlessScheduler,
    clock: &'c Clock,
    pool: Layer,
    place: Layer,
    /// Nanoseconds spent inside timed callbacks during this run.
    callback_ns: u64,
}

impl<'s, 'c> Timed<'s, 'c> {
    pub(crate) fn new(inner: &'s mut dyn ServerlessScheduler, clock: &'c Clock) -> Self {
        let (pool, place) = Layer::callbacks(inner.name());
        Self {
            inner,
            clock,
            pool,
            place,
            callback_ns: 0,
        }
    }

    fn timed<T>(&mut self, layer: Layer, f: impl FnOnce(&mut dyn ServerlessScheduler) -> T) -> T {
        let start = now();
        let out = f(&mut *self.inner);
        let ns = nanos_since(start);
        self.callback_ns += ns;
        self.clock.charge(layer, ns, 1);
        out
    }
}

impl ServerlessScheduler for Timed<'_, '_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initial_pool(&mut self, info: &RunInfo) -> PoolRequest {
        self.timed(self.pool, |s| s.initial_pool(info))
    }

    fn pool_for_next_phase(
        &mut self,
        half_of: usize,
        observed_so_far: &PhaseObservation,
    ) -> PoolRequest {
        self.timed(self.pool, |s| {
            s.pool_for_next_phase(half_of, observed_so_far)
        })
    }

    fn place(&mut self, phase: &Phase, available: &[InstanceView], now: SimTime) -> Vec<Placement> {
        self.timed(self.place, |s| s.place(phase, available, now))
    }

    fn overhead_secs(&self) -> f64 {
        self.inner.overhead_secs()
    }

    fn observe_phase(&mut self, observation: &PhaseObservation) {
        self.timed(self.pool, |s| s.observe_phase(observation));
    }

    fn set_event_recording(&mut self, enabled: bool) {
        self.inner.set_event_recording(enabled);
    }

    fn drain_events(&mut self) -> Vec<SchedulerEvent> {
        self.inner.drain_events()
    }

    fn storage_hints(&self) -> StorageHints {
        self.inner.storage_hints()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_obs::MemoryRecorder;
    use dd_platform::{
        BuiltScheduler, DesFaasExecutor, DesSession, Executor, FaasConfig, FaasExecutor,
        FaultConfig, PolicyContext, RecoveryPolicy, RunOutcome, RunRequest,
    };
    use dd_stats::SeedStream;
    use dd_wfdag::{RunGenerator, Workflow, WorkflowRun, WorkflowSpec};

    /// Runs `run` under a freshly built `policy` scheduler, through the
    /// clock (wrapped when it is on), on the analytic or the DES executor.
    fn execute(
        clock: &Clock,
        policy: &dyn dd_platform::SchedulerPolicy,
        run: &WorkflowRun,
        runtimes: &[dd_wfdag::LanguageRuntime],
        des: bool,
    ) -> (RunOutcome, MemoryRecorder) {
        let BuiltScheduler::Serverless(mut s) = policy.build(&PolicyContext {
            run,
            runtimes,
            vendor: dd_platform::CloudVendor::Aws,
            seeds: SeedStream::new(11),
        }) else {
            panic!("{} builds a serverless scheduler", policy.name());
        };
        let config = FaasConfig {
            faults: FaultConfig::uniform(0.05).with_seed(3),
            recovery: RecoveryPolicy::speculative(),
            ..FaasConfig::default()
        };
        let mut recorder = MemoryRecorder::new();
        let layer = if des { Layer::FaasDes } else { Layer::Faas };
        let outcome = clock.execute(layer, "test", 0, s.as_mut(), |s| {
            let request = RunRequest::new(run, runtimes, s).with_recorder(&mut recorder);
            if des {
                DesFaasExecutor::new(config).run_with(&mut DesSession::new(), request)
            } else {
                FaasExecutor::new(config).run(request)
            }
            .into_outcome()
        });
        (outcome, recorder)
    }

    #[test]
    fn timing_wrapper_is_transparent() {
        let gen = RunGenerator::new(WorkflowSpec::new(Workflow::Ccl).scaled_down(20), 5);
        let runtimes = &gen.spec().runtimes;
        let training = gen.generate(1_000);
        let registry = dd_baselines::registry();
        for name in ["daydream", "wild", "oracle"] {
            let mut policy = registry.create(name).expect("registered");
            policy.prepare(&training);
            for index in 0..3 {
                let run = gen.generate(index);
                for des in [false, true] {
                    let plain = execute(&Clock::off(), policy.as_ref(), &run, runtimes, des);
                    let clock = Clock::on();
                    let timed = execute(&clock, policy.as_ref(), &run, runtimes, des);
                    assert_eq!(plain, timed, "{name} run {index} des={des}");
                    assert!(plain.0.faults.total_attempts > 0, "faults must be on");
                    let callbacks: u64 = Layer::ALL
                        .iter()
                        .filter(|l| !matches!(l, Layer::Faas | Layer::FaasDes))
                        .map(|&l| clock.layer(l).1)
                        .sum();
                    assert!(callbacks > 0, "{name}: no callback was timed");
                }
            }
        }
    }

    #[test]
    fn callbacks_are_charged_to_the_policy_layers() {
        assert_eq!(
            Layer::callbacks("daydream"),
            (Layer::Predictor, Layer::Optimizer)
        );
        assert_eq!(Layer::callbacks("wild"), (Layer::Wild, Layer::Wild));
        assert_eq!(Layer::callbacks("naive-cold"), (Layer::Naive, Layer::Naive));
        assert_eq!(
            Layer::callbacks("future"),
            (Layer::OtherBaseline, Layer::OtherBaseline)
        );
        for layer in Layer::ALL {
            assert_eq!(Layer::ALL[layer as usize], layer);
        }
    }
}
