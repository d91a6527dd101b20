//! The four benchmark workloads.
//!
//! An untraced pass calls its workload's library entry point and times it
//! whole — `figures::render_report`, `dd_bench::simulate_stream`,
//! `experiments::zoo::run` — so a change anywhere inside the library moves
//! the end-to-end metrics. `des_replay` has no library entry point: it is
//! a loop over public calls (`RunGenerator::generate`,
//! `SchedulerPolicy::build`, `DesFaasExecutor::run_with`) in every pass.
//!
//! A traced pass re-drives its workload through the public seams of the
//! layers it exercises — `RunGenerator::generate`, `SchedulerPolicy::
//! prepare`/`build`, `Executor::run`/`run_with`, `ClusterPolicy::execute*`,
//! the traffic spine, `figures::render` — so that [`crate::probe`] can
//! time each layer from outside. The tests prove the re-driven passes give
//! the library's outputs.
//!
//! | workload     | one pass                                                        | jobs |
//! |--------------|-----------------------------------------------------------------|------|
//! | `report`     | every report figure but `overhead` (it reads the wall clock), plus ablations; 50 runs/workflow, scale 1 | 1 |
//! | `des_replay` | Cosmoscout-VR runs 0..150 under DayDream on the DES executor, one reused session | 1 |
//! | `serve`      | 4 bursty tenants × 2 000 requests through the front door, DES inner executor, fault rate 0.05 | 2 |
//! | `zoo`        | every registered policy through the fault matrix, seeds `seed..seed+40` | 1 |
//!
//! (`jobs` is capped at the machine's cores.)

use crate::probe::{self, Clock, Layer};
use crate::stats::Fnv;
use daydream_core::{DayDreamHistory, DayDreamPolicy};
use dd_baselines::{NaivePolicy, OraclePolicy, PegasusPolicy, WildPolicy};
use dd_bench::{experiments, figures, par_map, par_map_with};
use dd_bench::{
    EvaluationMatrix, ExperimentContext, InnerExecutor, SchedulerKind, TrafficParams, WorkflowEval,
};
use dd_obs::{MemoryRecorder, MetricsRegistry};
use dd_platform::counters::{self, CounterSnapshot};
use dd_platform::traffic::{
    arrivals, plan_shared_pool, Arrival, ArrivalModel, FrontDoor, ServeReport, ServiceSample,
    TrafficConfig,
};
use dd_platform::{
    BuiltScheduler, CloudVendor, DesFaasExecutor, DesSession, Executor, FaasConfig, FaasExecutor,
    FaultConfig, FaultStats, PolicyContext, RecoveryPolicy, RunOutcome, RunRequest,
    SchedulerPolicy,
};
use dd_stats::SeedStream;
use dd_wfdag::{LanguageRuntime, RunGenerator, Workflow, WorkflowRun, WorkflowSpec};
use std::time::Instant;

/// The seed the pinned outputs below were taken at (`0xDA1D`).
pub(crate) const DEFAULT_SEED: u64 = 0xDA1D;

/// Outputs at [`DEFAULT_SEED`] and [`Size::BENCH`]: the FNV-64 digest of
/// the workload's deterministic output, then the exact `sim.starts` and
/// `sim.des_events` counts of its timed region. Any seed and any `jobs`
/// must reproduce them bit for bit, traced or not (a traced `zoo` pass
/// checks the counts only: it hashes the matrix cells, not the rendered
/// tables); a change that alters them changes what the benchmark measures.
const PINS: [(Workload, u64, u64, u64); 4] = [
    (Workload::Report, 0x003b_4f63_f0ad_44a3, 32_783_865, 0),
    (
        Workload::DesReplay,
        0xd3b4_080f_0263_fd51,
        16_306_563,
        16_487_698,
    ),
    (
        Workload::Serve,
        0x1c50_b9d2_9228_77d4,
        22_656_277,
        22_960_621,
    ),
    (Workload::Zoo, 0x51a8_84a6_e6e5_145b, 9_472_752, 0),
];

/// Runs `experiments::zoo` evaluates per seed (the default 50 runs per
/// workflow, capped at 2).
const ZOO_RUNS: usize = 2;

/// The fault matrix of `experiments::zoo` (failure rate × recovery), for
/// the traced re-drive; `zoo_cells_reproduce_zoo_run` pins them.
const ZOO_RATES: [f64; 3] = [0.0, 0.01, 0.05];
const ZOO_RECOVERY: [RecoveryPolicy; 3] = [
    RecoveryPolicy::none(),
    RecoveryPolicy::backoff(),
    RecoveryPolicy::speculative(),
];

/// Traced passes re-run every n-th execution to measure fault
/// handling and obs recording by difference.
const DIFF_STRIDE: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    Report,
    DesReplay,
    Serve,
    Zoo,
}

impl Workload {
    pub(crate) const ALL: [Workload; 4] = [
        Workload::Report,
        Workload::DesReplay,
        Workload::Serve,
        Workload::Zoo,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::Report => "report",
            Workload::DesReplay => "des_replay",
            Workload::Serve => "serve",
            Workload::Zoo => "zoo",
        }
    }

    pub(crate) fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads of an untraced pass. The report runs on one: on a
    /// shared 2-core machine its wall time at two workers moved by up to
    /// 6 % from pass to pass, against 2 % at one. The traced run reports
    /// its two-worker speedup instead (`bench.sweep.speedup_j2`).
    pub(crate) fn jobs(self) -> usize {
        match self {
            Workload::Serve => parallel_jobs(),
            Workload::Report | Workload::DesReplay | Workload::Zoo => 1,
        }
    }

    /// Whether the workload's runs fan out over the sweep executor.
    pub(crate) fn sweeps(self) -> bool {
        self != Workload::DesReplay
    }
}

/// The most workers any pass uses.
pub(crate) fn parallel_jobs() -> usize {
    dd_bench::default_jobs().min(2)
}

/// Input sizes. The benchmark always runs [`Size::BENCH`]; the smoke
/// tests run [`Size::SMOKE`] through the same code.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Size {
    report_runs: usize,
    report_scale: usize,
    replay_runs: usize,
    replay_scale: usize,
    serve_requests: usize,
    serve_scale: usize,
    zoo_seeds: u64,
    zoo_scale: usize,
    /// Whether [`PINS`] apply at [`DEFAULT_SEED`].
    pinned: bool,
}

impl Size {
    pub(crate) const BENCH: Size = Size {
        report_runs: 50,
        report_scale: 1,
        replay_runs: 150,
        replay_scale: 1,
        serve_requests: 2_000,
        serve_scale: 10,
        zoo_seeds: 40,
        zoo_scale: 1,
        pinned: true,
    };

    #[cfg(test)]
    pub(crate) const SMOKE: Size = Size {
        report_runs: 2,
        report_scale: 25,
        replay_runs: 12,
        replay_scale: 25,
        serve_requests: 5,
        serve_scale: 25,
        zoo_seeds: 2,
        zoo_scale: 20,
        pinned: false,
    };
}

/// Output checks of one pass.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    pub(crate) attempted: u64,
    pub(crate) failures: Vec<String>,
}

impl Checks {
    pub(crate) fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Checks every float of `outcome`'s totals is finite.
    fn finite(&mut self, what: &str, outcome: &RunOutcome) {
        let values = [
            outcome.service_time_secs,
            outcome.service_cost(),
            outcome.ledger.retry,
        ];
        self.expect(values.iter().all(|v| v.is_finite()), || {
            format!("{what}: non-finite outcome {values:?}")
        });
    }

    /// Checks rendered `text` prints no NaN or infinite number.
    fn finite_text(&mut self, what: &str, text: &str) {
        let bad: Vec<&str> = text
            .split(|c: char| c.is_whitespace() || "|,;:()[]=/".contains(c))
            .filter(|t| t.parse::<f64>().is_ok_and(|v| !v.is_finite()))
            .collect();
        self.expect(bad.is_empty(), || {
            format!("{what} prints non-finite numbers: {bad:?}")
        });
    }
}

/// What one pass measured and checked.
#[derive(Debug, Default)]
pub(crate) struct Pass {
    /// Process entry to the start of the timed region, seconds.
    pub(crate) setup_s: f64,
    /// The timed region, seconds.
    pub(crate) wall_s: f64,
    /// Wall time of each run in the timed region, milliseconds (traced
    /// passes and `des_replay`).
    pub(crate) run_ms: Vec<f64>,
    /// Workflow executions through the probe seams.
    pub(crate) executions: u64,
    /// Simulator counter deltas over the timed region: component starts
    /// and DES events.
    pub(crate) starts: u64,
    pub(crate) des_events: u64,
    /// Component starts of the probed executions, per executor.
    pub(crate) analytic_starts: u64,
    pub(crate) des_starts: u64,
    /// Fault counters summed over the probed executions.
    pub(crate) faults: FaultStats,
    /// `report` only: the evaluation matrix, inclusive, seconds.
    pub(crate) matrix_s: f64,
    /// Traced only: seconds spent on fault handling and on obs recording,
    /// estimated by difference on re-run samples.
    pub(crate) faults_s: f64,
    pub(crate) obs_s: f64,
    /// Digest of the output, when the pass has the library's output.
    pub(crate) digest: Option<u64>,
    pub(crate) checks: Checks,
}

impl Pass {
    fn tally(&mut self, outcome: &RunOutcome, des: bool) {
        let (w, h, c) = outcome.start_counts();
        if des {
            self.des_starts += w + h + c;
        } else {
            self.analytic_starts += w + h + c;
        }
        self.executions += 1;
        self.faults.merge(&outcome.faults);
    }
}

/// Where a pass starts, and how far it goes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    /// When the process started.
    pub(crate) at: Instant,
    /// Set up only: stop at the start of the timed region.
    pub(crate) setup_only: bool,
}

impl Entry {
    #[cfg(test)]
    pub(crate) fn now() -> Self {
        Self {
            at: probe::now(),
            setup_only: false,
        }
    }
}

/// The timed region's boundary.
struct Region {
    start: Instant,
    before: CounterSnapshot,
}

impl Region {
    /// Starts the timed region, or — for a set-up-only pass — returns
    /// `None` once set-up is done.
    fn begin(entry: Entry, pass: &mut Pass) -> Option<Self> {
        let start = probe::now();
        pass.setup_s = start.duration_since(entry.at).as_secs_f64();
        (!entry.setup_only).then(|| Self {
            start,
            before: counters::snapshot(),
        })
    }

    fn end(self, pass: &mut Pass) {
        pass.wall_s = probe::secs_since(self.start);
        let delta = counters::snapshot().since(self.before);
        pass.starts = delta.component_starts;
        pass.des_events = delta.des_events;
    }
}

/// Runs one pass of `workload`: the library entry point when `clock` is
/// off, the re-driven workload when it is on.
pub(crate) fn run(
    workload: Workload,
    seed: u64,
    jobs: usize,
    size: &Size,
    clock: &Clock,
    entry: Entry,
) -> Pass {
    let traced = clock.is_on();
    let mut pass = match workload {
        Workload::Report if traced => report_traced(seed, jobs, size, clock, entry),
        Workload::Report => report(seed, jobs, size, entry),
        Workload::DesReplay => des_replay(seed, size, clock, entry),
        Workload::Serve if traced => serve_traced(seed, jobs, size, clock, entry),
        Workload::Serve => serve(seed, jobs, size, entry),
        Workload::Zoo if traced => zoo_traced(seed, jobs, size, clock, entry),
        Workload::Zoo => zoo(seed, jobs, size, entry),
    };
    if entry.setup_only || !size.pinned {
        return pass;
    }
    if traced {
        // run_p90_ms needs ten samples beyond its rank.
        let n = pass.run_ms.len();
        pass.checks.expect(
            crate::stats::tail_percentile(n).is_some_and(|p| p >= 90.0),
            || format!("{n} runs are too few for a p90"),
        );
    }
    if seed == DEFAULT_SEED {
        let pin = PINS.iter().find(|p| p.0 == workload);
        let matches = pin.is_some_and(|&(_, digest, starts, events)| {
            pass.digest.is_none_or(|d| d == digest)
                && (pass.starts, pass.des_events) == (starts, events)
        });
        let digest = pass.digest.map(|d| format!("{d:#018x}"));
        pass.checks.expect(matches, || {
            format!(
                "pinned output mismatch: got digest {digest:?}, {} starts, {} DES events; pinned {pin:?}",
                pass.starts, pass.des_events
            )
        });
    }
    pass
}

fn ms_since(start: Instant) -> f64 {
    probe::secs_since(start) * 1e3
}

/// The per-run scheduler seed stream of the evaluation matrix
/// (`dd_bench::workloads::execute_policy`).
fn scheduler_seeds(seed: u64, run_index: usize) -> SeedStream {
    SeedStream::new(seed)
        .derive("scheduler")
        .derive_index(run_index as u64)
}

fn aws(faults: FaultConfig, recovery: RecoveryPolicy) -> FaasConfig {
    FaasConfig {
        vendor: CloudVendor::Aws,
        faults,
        recovery,
        ..FaasConfig::default()
    }
}

fn digest_of(value: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv::new();
    h.debug(value);
    h.finish()
}

// --------------------------------------------------------------------
// report
// --------------------------------------------------------------------

/// The report's figures: all but `overhead`, whose output is a wall-clock
/// measurement and so differs run to run.
fn report_figures() -> impl Iterator<Item = &'static str> {
    figures::FIGURES.into_iter().filter(|f| *f != "overhead")
}

fn report_context(seed: u64, jobs: usize, size: &Size) -> ExperimentContext {
    ExperimentContext {
        seed,
        runs_per_workflow: size.report_runs,
        scale_down: size.report_scale,
        vendor: CloudVendor::Aws,
        jobs,
    }
}

/// `figures::render_report` over [`report_figures`] plus ablations.
fn report(seed: u64, jobs: usize, size: &Size, entry: Entry) -> Pass {
    let mut pass = Pass::default();
    let ctx = report_context(seed, jobs, size);
    let selected: Vec<&str> = report_figures().collect();
    let Some(region) = Region::begin(entry, &mut pass) else {
        return pass;
    };
    let text = figures::render_report(&ctx, &selected, true);
    region.end(&mut pass);
    check_report(&mut pass, &text);
    pass
}

/// Checks a rendered report — one section per figure plus the ablations,
/// no non-finite number — and takes its digest.
fn check_report(pass: &mut Pass, text: &str) {
    let expected = report_figures().count() + 1;
    let sections = text.matches("\n=== ").count();
    pass.checks.expect(sections == expected, || {
        format!("the report has {sections} sections, expected {expected}")
    });
    pass.checks.finite_text("the report", text);
    let mut digest = Fnv::new();
    digest.bytes(text.as_bytes());
    pass.digest = Some(digest.finish());
}

/// The policy `EvaluationMatrix::compute_for` builds for a paper scheduler.
fn paper_policy(kind: SchedulerKind, history: &DayDreamHistory) -> Box<dyn SchedulerPolicy> {
    match kind {
        SchedulerKind::Oracle => Box::new(OraclePolicy::new()),
        SchedulerKind::DayDream => Box::new(DayDreamPolicy::with_history(history.clone())),
        SchedulerKind::Wild => Box::new(WildPolicy),
        SchedulerKind::Pegasus => Box::new(PegasusPolicy),
        SchedulerKind::Naive => Box::new(NaivePolicy),
    }
}

/// [`report`] re-driven: the evaluation matrix computed cell by cell
/// through the probe, then each figure through `figures::render`.
fn report_traced(seed: u64, jobs: usize, size: &Size, clock: &Clock, entry: Entry) -> Pass {
    let mut pass = Pass::default();
    let ctx = report_context(seed, jobs, size);
    // The matrix's per-workflow inputs, as `EvaluationMatrix::compute_for`
    // precomputes them.
    let shared: Vec<(
        Workflow,
        RunGenerator,
        Vec<LanguageRuntime>,
        DayDreamHistory,
    )> = Workflow::ALL
        .iter()
        .map(|&wf| {
            let gen = clock.time(Layer::Generate, || ctx.generator(wf));
            let history = clock.time(Layer::Prepare, || ctx.history(wf));
            let runtimes = gen.spec().runtimes.clone();
            (wf, gen, runtimes, history)
        })
        .collect();

    let Some(region) = Region::begin(entry, &mut pass) else {
        return pass;
    };
    let runs = ctx.runs_per_workflow;
    let matrix_start = probe::now();
    let cells = par_map(jobs, shared.len() * runs, |cell| {
        let start = probe::now();
        let id = cell as u64;
        let (_, gen, runtimes, history) = &shared[cell / runs];
        let run = clock.span(Layer::Generate, "generate", "matrix", id, || {
            gen.generate(cell % runs)
        });
        let outcomes: Vec<RunOutcome> = SchedulerKind::PAPER
            .iter()
            .map(|&kind| {
                let pctx = PolicyContext {
                    run: &run,
                    runtimes,
                    vendor: ctx.vendor,
                    seeds: scheduler_seeds(seed, run.label.run_index),
                };
                let built = clock.span(Layer::Build, "build", "matrix", id, || {
                    paper_policy(kind, history).build(&pctx)
                });
                match built {
                    BuiltScheduler::Serverless(mut s) => {
                        clock.execute(Layer::Faas, "matrix", id, s.as_mut(), |s| {
                            FaasExecutor::new(aws(FaultConfig::none(), RecoveryPolicy::backoff()))
                                .run(RunRequest::new(&run, runtimes, s))
                                .into_outcome()
                        })
                    }
                    BuiltScheduler::Cluster(c) => {
                        clock.span(Layer::Cluster, "execute", "matrix", id, || {
                            c.execute(&run, runtimes, ctx.vendor)
                        })
                    }
                }
            })
            .collect();
        (run.label, outcomes, ms_since(start))
    });
    let mut cells = cells.into_iter();
    let workflows = shared
        .iter()
        .map(|(wf, ..)| {
            let mut labels = Vec::with_capacity(runs);
            let mut outcomes: Vec<(SchedulerKind, Vec<RunOutcome>)> = SchedulerKind::PAPER
                .iter()
                .map(|&k| (k, Vec::with_capacity(runs)))
                .collect();
            for _ in 0..runs {
                let (label, cell, ms) = cells.next().expect("one cell per run");
                labels.push(label);
                pass.run_ms.push(ms);
                for ((kind, series), outcome) in outcomes.iter_mut().zip(cell) {
                    pass.tally(&outcome, false);
                    pass.checks.finite(kind.name(), &outcome);
                    series.push(outcome);
                }
            }
            WorkflowEval {
                workflow: *wf,
                labels,
                outcomes,
            }
        })
        .collect();
    let matrix = EvaluationMatrix { workflows };
    pass.matrix_s = probe::secs_since(matrix_start);

    let mut text = format!(
        "DayDream reproduction report — seed {}, {} runs/workflow, phase scale 1/{}\n",
        ctx.seed, ctx.runs_per_workflow, ctx.scale_down
    );
    for name in report_figures() {
        let fig = clock.time(Layer::figure(name), || {
            figures::render(name, &ctx, Some(&matrix))
        });
        text.push_str(&fig.unwrap_or_default());
        text.push('\n');
    }
    text.push_str(&clock.time(Layer::Ablations, || experiments::ablations::run(&ctx)));
    text.push('\n');
    region.end(&mut pass);
    check_report(&mut pass, &text);
    pass
}

// --------------------------------------------------------------------
// des_replay
// --------------------------------------------------------------------

/// Cosmoscout-VR runs `0..replay_runs` under DayDream on the DES executor,
/// one session reused across runs. Every tenth run is re-executed on the
/// analytic executor afterwards and must agree bit for bit.
fn des_replay(seed: u64, size: &Size, clock: &Clock, entry: Entry) -> Pass {
    let mut pass = Pass::default();
    let gen = clock.time(Layer::Generate, || {
        RunGenerator::new(
            WorkflowSpec::new(Workflow::CosmoscoutVr).scaled_down(size.replay_scale),
            seed,
        )
    });
    let runtimes = gen.spec().runtimes.clone();
    let training = clock.time(Layer::Generate, || gen.generate(1_000));
    let mut policy = DayDreamPolicy::new();
    clock.time(Layer::Prepare, || policy.prepare(&training));
    drop(training);
    let config = aws(FaultConfig::none(), RecoveryPolicy::backoff());
    let executor = DesFaasExecutor::new(config);
    let mut session = DesSession::new();
    let build = |run: &WorkflowRun| {
        let built = policy.build(&PolicyContext {
            run,
            runtimes: &runtimes,
            vendor: CloudVendor::Aws,
            seeds: scheduler_seeds(seed, run.label.run_index),
        });
        match built {
            BuiltScheduler::Serverless(s) => s,
            BuiltScheduler::Cluster(_) => unreachable!("daydream builds a serverless scheduler"),
        }
    };

    let Some(region) = Region::begin(entry, &mut pass) else {
        return pass;
    };
    let mut outcomes = Vec::with_capacity(size.replay_runs);
    for index in 0..size.replay_runs {
        let start = probe::now();
        let id = index as u64;
        let run = clock.span(Layer::Generate, "generate", "replay", id, || {
            gen.generate(index)
        });
        let mut scheduler = clock.span(Layer::Build, "build", "replay", id, || build(&run));
        let outcome = clock.execute(Layer::FaasDes, "replay", id, scheduler.as_mut(), |s| {
            executor
                .run_with(&mut session, RunRequest::new(&run, &runtimes, s))
                .into_outcome()
        });
        pass.run_ms.push(ms_since(start));
        outcomes.push(outcome);
    }
    region.end(&mut pass);

    let mut digest = Fnv::new();
    for (index, outcome) in outcomes.iter().enumerate() {
        pass.tally(outcome, true);
        pass.checks.finite("des_replay", outcome);
        digest.debug(outcome);
        if index % 10 == 0 {
            let run = gen.generate(index);
            let mut scheduler = build(&run);
            let analytic = FaasExecutor::new(config)
                .run(RunRequest::new(&run, &runtimes, scheduler.as_mut()))
                .into_outcome();
            pass.checks
                .expect(digest_of(&analytic) == digest_of(outcome), || {
                    format!("run {index}: DES and analytic outcomes differ")
                });
        }
    }
    pass.digest = Some(digest.finish());
    pass
}

// --------------------------------------------------------------------
// serve
// --------------------------------------------------------------------

fn serve_params(seed: u64, jobs: usize, size: &Size) -> TrafficParams {
    TrafficParams {
        seed,
        tenants: 4,
        model: ArrivalModel::Bursty,
        rate_per_sec: 0.5,
        requests_per_tenant: size.serve_requests,
        capacity: 4,
        scale_down: size.serve_scale,
        vendor: CloudVendor::Aws,
        jobs,
        executor: InnerExecutor::Des,
        fault_rate: 0.05,
        ..TrafficParams::default()
    }
}

/// `dd_bench::simulate_stream`.
fn serve(seed: u64, jobs: usize, size: &Size, entry: Entry) -> Pass {
    let mut pass = Pass::default();
    let params = serve_params(seed, jobs, size);
    let Some(region) = Region::begin(entry, &mut pass) else {
        return pass;
    };
    let out = dd_bench::simulate_stream(&params);
    region.end(&mut pass);
    check_serve(
        &mut pass,
        &out.config,
        &out.arrivals,
        &out.samples,
        &out.report,
        &out.recorder,
    );
    pass
}

/// Checks a served stream — every arrival completes, every sample is
/// finite, and `FrontDoor::serve` replayed over the samples gives the
/// same report — and takes its digest.
fn check_serve(
    pass: &mut Pass,
    config: &TrafficConfig,
    table: &[Arrival],
    samples: &[ServiceSample],
    report: &ServeReport,
    recorder: &MemoryRecorder,
) {
    let completed: usize = report.tenants.iter().map(|t| t.completed).sum();
    pass.checks.expect(completed == table.len(), || {
        format!("{completed} of {} arrivals completed", table.len())
    });
    let finite = samples
        .iter()
        .all(|s| s.service_secs.is_finite() && s.ledger.total().is_finite());
    pass.checks
        .expect(finite, || "a service sample is not finite".into());
    let replay = FrontDoor::new(config.clone()).serve(table, samples, None);
    pass.checks.expect(replay == *report, || {
        "front-door replay over the samples disagrees".into()
    });
    let mut digest = Fnv::new();
    digest.debug(report);
    digest.debug(&samples);
    digest.debug(recorder);
    pass.digest = Some(digest.finish());
}

/// The per-tenant inputs of a stream: run generator and prepared policy.
struct Tenants {
    params: TrafficParams,
    setup: Vec<(RunGenerator, Box<dyn SchedulerPolicy>)>,
}

impl Tenants {
    /// Executes `arrival` on the DES executor at `fault_rate` under a pool
    /// cap of `pool`.
    fn execute(
        &self,
        clock: &Clock,
        session: &mut DesSession,
        arrival: Arrival,
        pool: usize,
        fault_rate: f64,
    ) -> RunOutcome {
        let p = &self.params;
        let tenant = arrival.tenant.0;
        let id = (u64::from(tenant) << 32) | arrival.index as u64;
        let (generator, policy) = &self.setup[tenant as usize];
        let runtimes = &generator.spec().runtimes;
        let run = clock.span(Layer::Generate, "generate", "stream", id, || {
            generator.generate(arrival.index)
        });
        let seeds = SeedStream::new(p.seed)
            .derive("traffic-sched")
            .derive_index(tenant.into())
            .derive_index(arrival.index as u64);
        let built = clock.span(Layer::Build, "build", "stream", id, || {
            policy.build(&PolicyContext {
                run: &run,
                runtimes,
                vendor: p.vendor,
                seeds,
            })
        });
        let config = FaasConfig {
            vendor: p.vendor,
            provisioned_concurrency: pool,
            faults: FaultConfig::uniform(fault_rate).with_seed(
                p.fault_seed
                    .wrapping_add(u64::from(tenant).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ),
            ..FaasConfig::default()
        };
        match built {
            BuiltScheduler::Serverless(mut s) => {
                clock.execute(Layer::FaasDes, "stream", id, s.as_mut(), |s| {
                    DesFaasExecutor::new(config)
                        .run_with(session, RunRequest::new(&run, runtimes, s))
                        .into_outcome()
                })
            }
            BuiltScheduler::Cluster(c) => {
                clock.span(Layer::Cluster, "execute", "stream", id, || {
                    c.execute_faulted(&run, runtimes, p.vendor, config.faults, config.recovery)
                })
            }
        }
    }
}

/// [`serve`] re-driven: arrival table, shared pool plan, per-arrival runs
/// fanned out over `jobs` workers, SLAs from the solo medians, then the
/// sequential front door.
fn serve_traced(seed: u64, jobs: usize, size: &Size, clock: &Clock, entry: Entry) -> Pass {
    let mut pass = Pass::default();
    let params = serve_params(seed, jobs, size);
    let mut config = TrafficConfig {
        seed: params.seed,
        model: params.model,
        tenants: params.tenant_specs(),
        capacity: params.capacity.max(1),
    };
    let setup = (0..params.tenants)
        .map(|i| {
            let spec = WorkflowSpec::new(params.workflow_of(i)).scaled_down(params.scale_down);
            let gen_seed = SeedStream::new(params.seed)
                .derive("traffic-runs")
                .derive_index(i as u64)
                .seed();
            let generator = clock.time(Layer::Generate, || RunGenerator::new(spec, gen_seed));
            let training = clock.time(Layer::Generate, || generator.generate(1_000));
            let mut policy = dd_baselines::registry()
                .create(&params.policy)
                .expect("the stream's policy is registered");
            clock.time(Layer::Prepare, || policy.prepare(&training));
            (generator, policy)
        })
        .collect();
    let tenants = Tenants { params, setup };
    let p = &tenants.params;

    let Some(region) = Region::begin(entry, &mut pass) else {
        return pass;
    };
    let plan = clock.time(Layer::PoolPlan, || {
        let quantiles: Vec<Vec<f64>> = tenants
            .setup
            .iter()
            .map(|(generator, _)| {
                let spec = generator.spec();
                (1..=256)
                    .map(|k| {
                        let q = f64::from(k) / 257.0;
                        spec.concurrency_weibull.quantile(q) * spec.concurrency_scale
                    })
                    .collect()
            })
            .collect();
        plan_shared_pool(&quantiles, config.capacity)
    });
    let table = clock.time(Layer::Arrivals, || arrivals(&config));
    let pool = plan.provisioned_concurrency;
    let runs = par_map_with(p.jobs, table.len(), DesSession::new, |session, idx| {
        let start = probe::now();
        let outcome = tenants.execute(clock, session, table[idx], pool, p.fault_rate);
        (outcome, ms_since(start))
    });
    let mut samples = Vec::with_capacity(runs.len());
    for (outcome, ms) in &runs {
        pass.tally(outcome, true);
        pass.run_ms.push(*ms);
        samples.push(ServiceSample::from_outcome(outcome));
    }
    for (t, spec) in config.tenants.iter_mut().enumerate() {
        let mut solo: Vec<f64> = table
            .iter()
            .zip(&samples)
            .filter(|(a, _)| a.tenant.0 as usize == t)
            .map(|(_, s)| s.service_secs)
            .collect();
        solo.sort_by(f64::total_cmp);
        spec.sla_secs = 1.5 * solo.get(solo.len() / 2).copied().unwrap_or(0.0);
    }
    let mut recorder = MemoryRecorder::new();
    let door_start = probe::now();
    let report = clock.time(Layer::FrontDoor, || {
        FrontDoor::new(config.clone()).serve(&table, &samples, Some(&mut recorder))
    });
    let door_s = probe::secs_since(door_start);
    region.end(&mut pass);
    check_serve(&mut pass, &config, &table, &samples, &report, &recorder);

    // Obs: the front door with its recorder against without. Faults:
    // sampled arrivals at the stream's rate against rate 0.
    let bare_start = probe::now();
    FrontDoor::new(config).serve(&table, &samples, None);
    pass.obs_s = door_s - probe::secs_since(bare_start);
    let mut session = DesSession::new();
    let mut diff = 0.0;
    let mut sampled = 0usize;
    for &arrival in table.iter().step_by(DIFF_STRIDE) {
        let [faulted, clean] = [p.fault_rate, 0.0].map(|rate| {
            executor_self_s(Layer::FaasDes, |c| {
                tenants.execute(c, &mut session, arrival, pool, rate);
            })
        });
        diff += faulted - clean;
        sampled += 1;
    }
    pass.faults_s = diff * table.len() as f64 / sampled.max(1) as f64;
    pass
}

/// Self seconds `f` spends in executor `layer`, on a clock of its own.
fn executor_self_s(layer: Layer, f: impl FnOnce(&Clock)) -> f64 {
    let clock = Clock::on();
    f(&clock);
    clock.layer(layer).0
}

// --------------------------------------------------------------------
// zoo
// --------------------------------------------------------------------

fn zoo_context(seed: u64, jobs: usize, size: &Size) -> ExperimentContext {
    ExperimentContext {
        seed,
        scale_down: size.zoo_scale,
        ..ExperimentContext::default()
    }
    .with_jobs(jobs)
}

/// `experiments::zoo::run` for seeds `seed..seed + zoo_seeds`.
fn zoo(seed: u64, jobs: usize, size: &Size, entry: Entry) -> Pass {
    let mut pass = Pass::default();
    let contexts: Vec<ExperimentContext> = (0..size.zoo_seeds)
        .map(|k| zoo_context(seed.wrapping_add(k), jobs, size))
        .collect();
    let Some(region) = Region::begin(entry, &mut pass) else {
        return pass;
    };
    let tables: Vec<String> = contexts.iter().map(experiments::zoo::run).collect();
    region.end(&mut pass);

    let names = dd_baselines::registry().names();
    let rows = names.len() * ZOO_RATES.len() * ZOO_RECOVERY.len();
    let mut digest = Fnv::new();
    for (ctx, table) in contexts.iter().zip(&tables) {
        let seed = ctx.seed;
        for name in &names {
            pass.checks.expect(table.contains(name), || {
                format!("seed {seed}: policy {name} is missing")
            });
        }
        // One matrix row per (policy, rate, recovery), as zoo's own test
        // counts them.
        let got = table
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_lowercase()))
            .filter(|l| l.contains('%'))
            .count();
        pass.checks.expect(got == rows, || {
            format!("seed {seed}: {got} matrix rows, expected {rows}")
        });
        pass.checks.finite_text("the zoo", table);
        digest.bytes(table.as_bytes());
    }
    pass.digest = Some(digest.finish());
    pass
}

/// One seed's `experiments::zoo` inputs.
struct ZooSeed {
    seed: u64,
    runtimes: Vec<LanguageRuntime>,
    runs: Vec<WorkflowRun>,
    fault_seed: u64,
    policies: Vec<Box<dyn SchedulerPolicy>>,
}

impl ZooSeed {
    fn new(seed: u64, size: &Size, clock: &Clock) -> Self {
        let ctx = zoo_context(seed, 1, size);
        let gen = clock.time(Layer::Generate, || ctx.generator(Workflow::ExaFel));
        let training = clock.time(Layer::Generate, || gen.generate(1_000));
        let runs = (0..ZOO_RUNS)
            .map(|i| clock.time(Layer::Generate, || gen.generate(i)))
            .collect();
        let registry = dd_baselines::registry();
        let policies = registry
            .names()
            .into_iter()
            .map(|name| {
                let mut policy = registry.create(name).expect("registered policy");
                clock.time(Layer::Prepare, || policy.prepare(&training));
                policy
            })
            .collect();
        Self {
            seed,
            runtimes: gen.spec().runtimes.clone(),
            runs,
            fault_seed: SeedStream::new(seed).derive("fault-matrix").seed(),
            policies,
        }
    }

    fn cells(&self) -> usize {
        self.policies.len() * ZOO_RATES.len() * ZOO_RECOVERY.len() * self.runs.len()
    }

    /// `(policy, rate, recovery, run)` indices of cell `cell`, in
    /// `zoo::run`'s order.
    fn coordinates(&self, cell: usize) -> (usize, usize, usize, usize) {
        let runs = self.runs.len();
        let per_policy = ZOO_RATES.len() * ZOO_RECOVERY.len() * runs;
        let rest = cell % per_policy;
        let grid = rest / runs;
        (
            cell / per_policy,
            grid / ZOO_RECOVERY.len(),
            grid % ZOO_RECOVERY.len(),
            rest % runs,
        )
    }

    /// Executes cell `cell`, optionally overriding its fault rate and
    /// dropping its recorder (the traced difference measurements).
    fn execute(&self, clock: &Clock, cell: usize, rate: Option<f64>, record: bool) -> ZooCell {
        let (policy, rate_idx, recovery, idx) = self.coordinates(cell);
        let run = &self.runs[idx];
        let faults =
            FaultConfig::uniform(rate.unwrap_or(ZOO_RATES[rate_idx])).with_seed(self.fault_seed);
        let recovery = ZOO_RECOVERY[recovery];
        let id = (self.seed << 16) | cell as u64;
        let pctx = PolicyContext {
            run,
            runtimes: &self.runtimes,
            vendor: CloudVendor::Aws,
            seeds: SeedStream::new(self.seed)
                .derive("zoo")
                .derive_index(idx as u64),
        };
        let built = clock.span(Layer::Build, "build", "zoo", id, || {
            self.policies[policy].build(&pctx)
        });
        match built {
            BuiltScheduler::Serverless(mut s) => {
                // The recorder lives inside the timed call: its events are
                // built and dropped there, so executor self time includes
                // the whole cost of recording.
                let (outcome, metrics) = clock.execute(Layer::Faas, "zoo", id, s.as_mut(), |s| {
                    let mut recorder = MemoryRecorder::new();
                    let request = RunRequest::new(run, &self.runtimes, s);
                    let request = if record {
                        request.with_recorder(&mut recorder)
                    } else {
                        request
                    };
                    let outcome = FaasExecutor::new(aws(faults, recovery))
                        .run(request)
                        .into_outcome();
                    (outcome, recorder.metrics)
                });
                ZooCell {
                    outcome,
                    metrics,
                    serverless: true,
                }
            }
            BuiltScheduler::Cluster(c) => ZooCell {
                outcome: clock.span(Layer::Cluster, "execute", "zoo", id, || {
                    c.execute_faulted(run, &self.runtimes, CloudVendor::Aws, faults, recovery)
                }),
                metrics: MetricsRegistry::new(),
                serverless: false,
            },
        }
    }
}

/// One zoo cell's output. Cluster policies execute outside the FaaS
/// executor and record nothing.
struct ZooCell {
    outcome: RunOutcome,
    metrics: MetricsRegistry,
    serverless: bool,
}

/// [`zoo`] re-driven cell by cell through the probe (the cells, not the
/// rendered tables).
fn zoo_traced(seed: u64, jobs: usize, size: &Size, clock: &Clock, entry: Entry) -> Pass {
    let mut pass = Pass::default();
    let seeds: Vec<ZooSeed> = (0..size.zoo_seeds)
        .map(|k| ZooSeed::new(seed.wrapping_add(k), size, clock))
        .collect();
    let per_seed = seeds.first().map_or(0, ZooSeed::cells);

    let Some(region) = Region::begin(entry, &mut pass) else {
        return pass;
    };
    let cells = par_map(jobs, seeds.len() * per_seed, |cell| {
        let start = probe::now();
        let out = seeds[cell / per_seed].execute(clock, cell % per_seed, None, true);
        (out, ms_since(start))
    });
    region.end(&mut pass);

    let policies = dd_baselines::registry().len();
    let expected =
        size.zoo_seeds as usize * policies * ZOO_RATES.len() * ZOO_RECOVERY.len() * ZOO_RUNS;
    pass.checks.expect(cells.len() == expected, || {
        format!("{} zoo cells, expected {expected}", cells.len())
    });
    use dd_platform::executor::metrics::{STARTS_COLD, STARTS_HOT};
    for (cell, ms) in &cells {
        pass.tally(&cell.outcome, false);
        pass.checks.finite("zoo", &cell.outcome);
        pass.run_ms.push(*ms);
        let recorded = cell.metrics.counter(STARTS_HOT) + cell.metrics.counter(STARTS_COLD);
        pass.checks.expect(!cell.serverless || recorded > 0, || {
            "a serverless zoo cell recorded no starts".into()
        });
    }

    // Obs: sampled serverless cells with and without their recorder.
    // Faults: the sampled cells among them that inject faults, at their
    // rate against rate 0.
    let self_s = |cell: usize, rate: Option<f64>, record: bool| {
        let zoo_seed = &seeds[cell / per_seed];
        executor_self_s(Layer::Faas, |c| {
            zoo_seed.execute(c, cell % per_seed, rate, record);
        })
    };
    let faulted = |cell: usize| seeds[cell / per_seed].coordinates(cell % per_seed).1 > 0;
    let serverless: Vec<usize> = (0..cells.len())
        .filter(|&c| cells[c].0.serverless)
        .collect();
    let sample: Vec<usize> = serverless.iter().copied().step_by(DIFF_STRIDE).collect();
    let obs: f64 = sample
        .iter()
        .map(|&c| self_s(c, None, true) - self_s(c, None, false))
        .sum();
    pass.obs_s = obs * serverless.len() as f64 / sample.len().max(1) as f64;
    let sample: Vec<usize> = sample.into_iter().filter(|&c| faulted(c)).collect();
    let faults: f64 = sample
        .iter()
        .map(|&c| self_s(c, None, true) - self_s(c, Some(0.0), true))
        .sum();
    let all_faulted = serverless.iter().filter(|&&c| faulted(c)).count();
    pass.faults_s = faults * all_faulted as f64 / sample.len().max(1) as f64;
    pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_bench::report::Table;

    const SMOKE: Size = Size::SMOKE;

    fn pass(workload: Workload, jobs: usize, traced: bool) -> Pass {
        let clock = if traced { Clock::on() } else { Clock::off() };
        run(workload, DEFAULT_SEED, jobs, &SMOKE, &clock, Entry::now())
    }

    // The simulator counters are process-wide and tests run side by side,
    // so these compare digests only; the counts are pinned per process.

    /// The re-driven report and stream give the library's bytes, at any
    /// worker count (`zoo_cells_reproduce_zoo_run` covers the zoo).
    #[test]
    fn traced_passes_reproduce_the_library() {
        for workload in [Workload::Report, Workload::Serve] {
            let library = pass(workload, 2, false);
            let name = workload.name();
            assert!(library.checks.failures.is_empty(), "{name}");
            for jobs in [1, 2] {
                let traced = pass(workload, jobs, true);
                assert_eq!(traced.digest, library.digest, "{name} at {jobs} jobs");
            }
        }
    }

    #[test]
    fn library_passes_do_not_depend_on_jobs() {
        for workload in [Workload::Report, Workload::Serve, Workload::Zoo] {
            let (one, two) = (pass(workload, 1, false), pass(workload, 2, false));
            assert!(one.digest.is_some(), "{}", workload.name());
            assert_eq!(one.digest, two.digest, "{}", workload.name());
        }
    }

    /// The re-driven cells give `zoo::run`'s rendered matrix rows (mean
    /// time, cost and retry cost per policy, rate and recovery) and its
    /// merged obs counters.
    #[test]
    fn zoo_cells_reproduce_zoo_run() {
        let seed = DEFAULT_SEED;
        let rendered = experiments::zoo::run(&zoo_context(seed, 1, &SMOKE));
        let zoo = ZooSeed::new(seed, &SMOKE, &Clock::off());
        let cells: Vec<ZooCell> = (0..zoo.cells())
            .map(|c| zoo.execute(&Clock::off(), c, None, true))
            .collect();
        let names = dd_baselines::registry().names();
        let mut expected = Table::new([
            "policy",
            "fault rate",
            "recovery",
            "time (s)",
            "cost ($)",
            "retry ($)",
        ]);
        let mut obs = Table::new(["policy", "hot", "cold", "preload hits", "retries"]);
        let runs = zoo.runs.len();
        for (p, name) in names.iter().enumerate() {
            let mut merged = MetricsRegistry::new();
            for (g, chunk) in cells[p * 9 * runs..(p + 1) * 9 * runs]
                .chunks(runs)
                .enumerate()
            {
                let mean = |f: fn(&RunOutcome) -> f64| {
                    chunk.iter().map(|c| f(&c.outcome)).sum::<f64>() / runs as f64
                };
                expected.row([
                    name.to_string(),
                    format!("{:.0}%", ZOO_RATES[g / 3] * 100.0),
                    ZOO_RECOVERY[g % 3].name().to_string(),
                    format!("{:.0}", mean(|o| o.service_time_secs)),
                    format!("{:.4}", mean(RunOutcome::service_cost)),
                    format!("{:.4}", mean(|o| o.ledger.retry)),
                ]);
                for c in chunk {
                    merged.merge(&c.metrics);
                }
            }
            use dd_platform::executor::metrics as m;
            obs.row(
                [name.to_string()].into_iter().chain(
                    [m::STARTS_HOT, m::STARTS_COLD, m::PRELOAD_HITS, m::RETRIES]
                        .map(|k| merged.counter(k).to_string()),
                ),
            );
        }
        assert!(rendered.contains(&expected.render()), "{rendered}");
        assert!(rendered.contains(&obs.render()), "{rendered}");
    }

    #[test]
    fn a_set_up_only_pass_stops_before_the_timed_region() {
        for workload in Workload::ALL {
            let entry = Entry {
                setup_only: true,
                ..Entry::now()
            };
            let p = run(workload, DEFAULT_SEED, 1, &SMOKE, &Clock::off(), entry);
            let name = workload.name();
            assert!(p.setup_s > 0.0, "{name}");
            assert_eq!((p.wall_s, p.starts, p.digest), (0.0, 0, None), "{name}");
        }
    }
}
