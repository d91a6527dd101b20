//! Perf-equivalence suite: pins the DES hot-path overhaul to the
//! reference semantics, byte for byte.
//!
//! The overhaul (SoA phase state, arena pools, flat fit kernels,
//! fit/forecast memos) is only legal because every output stays
//! bit-identical. This suite enforces that three ways:
//!
//! 1. **Pinned figure hashes.** Every report figure (except `overhead`,
//!    which self-measures wall-clock time) renders at smoke scale, at
//!    `--jobs 1` and `--jobs 8`, and its FNV-64 hash must match
//!    `tests/golden/perf_equivalence.txt`:
//!
//!    ```bash
//!    cargo test --test perf_equivalence
//!    ```
//!
//! 2. **Executor agreement under faults.** The analytic and DES
//!    executors must produce identical outcomes, execution traces, and
//!    recorder exports with fault injection and recovery active.
//!
//! 3. **Session reuse.** A reused `DesSession` (arena allocations kept
//!    across runs) must reproduce fresh-session results exactly.
//!
//! Re-bless after an intended behaviour change with
//! `DD_BLESS=1 cargo test --test perf_equivalence` and say why in the
//! commit message.

// Exact float equality below asserts bit-reproducibility (determinism contract).
#![allow(clippy::float_cmp)]

use daydream::core::{DayDreamHistory, DayDreamScheduler};
use daydream::platform::{FaasConfig, FaasExecutor, RunOutcome};
use daydream::stats::SeedStream;
use daydream::wfdag::{RunGenerator, Workflow, WorkflowSpec};
use dd_bench::figures;
use dd_bench::ExperimentContext;
use dd_obs::{export, MemoryRecorder};
use dd_platform::{
    DesFaasExecutor, DesSession, ExecutionTrace, Executor, FaultConfig, RecoveryPolicy, RunRequest,
};

/// FNV-1a 64-bit: tiny, dependency-free, stable across platforms.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn smoke_ctx(jobs: usize) -> ExperimentContext {
    ExperimentContext {
        runs_per_workflow: 3,
        scale_down: 15,
        ..ExperimentContext::default()
    }
    .with_jobs(jobs)
}

/// Figures whose output is a pure function of (seed, scale): everything
/// except `overhead`, which measures its own wall-clock time.
fn deterministic_figures() -> Vec<&'static str> {
    figures::FIGURES
        .iter()
        .copied()
        .filter(|f| *f != "overhead")
        .collect()
}

#[test]
fn report_figures_match_pinned_hashes_at_any_jobs() {
    let selected = deterministic_figures();
    let serial = figures::render_report(&smoke_ctx(1), &selected, true);
    let parallel = figures::render_report(&smoke_ctx(8), &selected, true);
    assert_eq!(serial, parallel, "report must not depend on --jobs");

    // One hash line per figure gives a readable diff when something
    // drifts; the trailing `full` line seals the whole byte stream
    // (header + ordering included).
    let ctx = smoke_ctx(1);
    let matrix = dd_bench::EvaluationMatrix::compute_for(&ctx, &dd_bench::SchedulerKind::PAPER);
    let mut lines = String::new();
    for name in &selected {
        let out = figures::render(name, &ctx, Some(&matrix)).expect("known figure");
        lines.push_str(&format!("{name} {:016x}\n", fnv64(out.as_bytes())));
    }
    lines.push_str(&format!("full {:016x}\n", fnv64(serial.as_bytes())));

    if std::env::var_os("DD_BLESS").is_some() {
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/perf_equivalence.txt"
            ),
            &lines,
        )
        .expect("write golden");
        return;
    }
    let golden = include_str!("golden/perf_equivalence.txt");
    assert_eq!(
        lines, golden,
        "figure hashes drifted from tests/golden/perf_equivalence.txt — the \
         optimized hot path no longer reproduces the pinned bytes \
         (re-bless with DD_BLESS=1 only for an intended behaviour change)"
    );
}

fn setup(wf: Workflow) -> (RunGenerator, Vec<daydream::wfdag::LanguageRuntime>) {
    let spec = WorkflowSpec::new(wf).scaled_down(12);
    let runtimes = spec.runtimes.clone();
    (RunGenerator::new(spec, 77), runtimes)
}

fn history_for(gen: &RunGenerator) -> DayDreamHistory {
    let mut h = DayDreamHistory::new();
    h.learn_from_run(&gen.generate(1_000), 0.20, 24);
    h
}

/// Runs one faulty DayDream run on either executor, capturing outcome,
/// trace, and the full recorder export.
fn faulty_run(
    wf: Workflow,
    run_index: usize,
    des: bool,
) -> (RunOutcome, ExecutionTrace, String, String) {
    let (gen, runtimes) = setup(wf);
    let run = gen.generate(run_index);
    let history = history_for(&gen);
    let mut sched = DayDreamScheduler::aws(&history, SeedStream::new(41));
    let mut rec = MemoryRecorder::new();
    let faults = FaultConfig::uniform(0.08).with_seed(13);
    let req = RunRequest::new(&run, &runtimes, &mut sched)
        .traced()
        .with_faults(faults, RecoveryPolicy::default())
        .with_recorder(&mut rec);
    let report = if des {
        DesFaasExecutor::new(FaasConfig::default()).run(req)
    } else {
        FaasExecutor::new(FaasConfig::default()).run(req)
    };
    let (outcome, trace) = report.into_traced();
    (
        outcome,
        trace,
        export::to_jsonl(&rec),
        export::summary(&rec),
    )
}

#[test]
fn executors_agree_bitwise_with_faults_on() {
    for wf in Workflow::ALL {
        for run_index in [0, 1] {
            let (ao, at, aj, asum) = faulty_run(wf, run_index, false);
            let (bo, bt, bj, bsum) = faulty_run(wf, run_index, true);
            assert_eq!(
                ao.service_time_secs, bo.service_time_secs,
                "{wf} run {run_index}: service time diverged"
            );
            assert_eq!(ao.ledger, bo.ledger, "{wf} run {run_index}: ledger");
            assert_eq!(ao.phases, bo.phases, "{wf} run {run_index}: phases");
            assert_eq!(ao.faults, bo.faults, "{wf} run {run_index}: fault stats");
            assert_eq!(at, bt, "{wf} run {run_index}: execution trace");
            assert_eq!(aj, bj, "{wf} run {run_index}: obs jsonl export");
            assert_eq!(asum, bsum, "{wf} run {run_index}: obs summary");
            assert!(
                bo.faults.failures() > 0,
                "{wf} run {run_index}: fault injection never fired — the \
                 faults-on equivalence check is vacuous at this configuration"
            );
        }
    }
}

#[test]
fn des_session_reuse_reproduces_fresh_runs() {
    let (gen, runtimes) = setup(Workflow::CosmoscoutVr);
    let history = history_for(&gen);
    let executor = DesFaasExecutor::new(FaasConfig::default());

    let mut reused = DesSession::new();
    for run_index in 0..4 {
        let run = gen.generate(run_index);
        let mut s1 = DayDreamScheduler::aws(&history, SeedStream::new(7));
        let warm = executor
            .run_with(&mut reused, RunRequest::new(&run, &runtimes, &mut s1))
            .into_outcome();
        let mut s2 = DayDreamScheduler::aws(&history, SeedStream::new(7));
        let fresh = executor
            .run_with(
                &mut DesSession::new(),
                RunRequest::new(&run, &runtimes, &mut s2),
            )
            .into_outcome();
        assert_eq!(warm.service_time_secs, fresh.service_time_secs);
        assert_eq!(warm.ledger, fresh.ledger);
        assert_eq!(warm.phases, fresh.phases);
    }
}
