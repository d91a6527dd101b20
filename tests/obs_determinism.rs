//! The dd-obs determinism contract (DESIGN.md §8):
//!
//! 1. exports are byte-identical between the analytic and event-driven
//!    executors on the same seed (the recorder sees the canonical event
//!    order from both),
//! 2. attaching a recorder never changes the simulated outcome (recording
//!    is write-only telemetry),
//! 3. a disabled recorder is never called past `enabled()`, so the
//!    disabled path builds no arguments (zero cost when disabled).

use daydream_core::{DayDreamHistory, DayDreamScheduler};
use dd_obs::{export, Event, MetricId};
use dd_platform::prelude::*;
use dd_platform::traffic::arrivals;
use dd_stats::SeedStream;
use dd_wfdag::{RunGenerator, Workflow, WorkflowSpec};

fn setup(
    scale: usize,
) -> (
    dd_wfdag::WorkflowRun,
    Vec<dd_wfdag::LanguageRuntime>,
    DayDreamHistory,
) {
    let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(scale);
    let runtimes = spec.runtimes.clone();
    let gen = RunGenerator::new(spec, 33);
    let mut history = DayDreamHistory::new();
    history.learn_from_run(&gen.generate(1_000), 0.20, 24);
    (gen.generate(0), runtimes, history)
}

fn scheduler(history: &DayDreamHistory) -> DayDreamScheduler {
    DayDreamScheduler::aws(history, SeedStream::new(9))
}

#[test]
fn exports_byte_identical_across_executors() {
    let (run, runtimes, history) = setup(10);

    let mut analytic_rec = MemoryRecorder::new();
    let mut s = scheduler(&history);
    let analytic = FaasExecutor::aws()
        .run(RunRequest::new(&run, &runtimes, &mut s).with_recorder(&mut analytic_rec))
        .into_outcome();

    let mut des_rec = MemoryRecorder::new();
    let mut s = scheduler(&history);
    let des = DesFaasExecutor::aws()
        .run(RunRequest::new(&run, &runtimes, &mut s).with_recorder(&mut des_rec))
        .into_outcome();

    // The executors agree on the result...
    assert_eq!(format!("{analytic:?}"), format!("{des:?}"));
    // ...and on every byte of every export.
    assert_eq!(
        export::to_jsonl(&analytic_rec),
        export::to_jsonl(&des_rec),
        "JSONL export differs between analytic and DES executors"
    );
    assert_eq!(
        export::to_chrome_trace(&analytic_rec),
        export::to_chrome_trace(&des_rec),
        "chrome trace differs between analytic and DES executors"
    );
    assert_eq!(
        export::summary(&analytic_rec),
        export::summary(&des_rec),
        "summary differs between analytic and DES executors"
    );
    assert!(
        !analytic_rec.events.is_empty(),
        "recorder captured no events"
    );
}

#[test]
fn exports_byte_identical_under_fault_injection() {
    let (run, runtimes, history) = setup(12);
    let config = FaasConfig {
        faults: FaultConfig::uniform(0.08).with_seed(5),
        recovery: RecoveryPolicy::speculative(),
        ..FaasConfig::default()
    };

    let mut analytic_rec = MemoryRecorder::new();
    let mut s = scheduler(&history);
    let _ = FaasExecutor::new(config)
        .run(RunRequest::new(&run, &runtimes, &mut s).with_recorder(&mut analytic_rec))
        .into_outcome();

    let mut des_rec = MemoryRecorder::new();
    let mut s = scheduler(&history);
    let _ = DesFaasExecutor::new(config)
        .run(RunRequest::new(&run, &runtimes, &mut s).with_recorder(&mut des_rec))
        .into_outcome();

    assert_eq!(export::to_jsonl(&analytic_rec), export::to_jsonl(&des_rec));
    assert!(
        analytic_rec
            .events
            .iter()
            .any(|e| matches!(e.event, Event::FaultAttempt { .. })),
        "faulty run recorded no fault attempts"
    );
}

#[test]
fn recording_never_changes_the_outcome() {
    let (run, runtimes, history) = setup(10);

    let mut s = scheduler(&history);
    let plain = FaasExecutor::aws()
        .run(RunRequest::new(&run, &runtimes, &mut s))
        .into_outcome();

    let mut noop = NoopRecorder;
    let mut s = scheduler(&history);
    let with_noop = FaasExecutor::aws()
        .run(RunRequest::new(&run, &runtimes, &mut s).with_recorder(&mut noop))
        .into_outcome();

    let mut memory = MemoryRecorder::new();
    let mut s = scheduler(&history);
    let with_memory = FaasExecutor::aws()
        .run(RunRequest::new(&run, &runtimes, &mut s).with_recorder(&mut memory))
        .into_outcome();

    // Debug formatting covers every field bit-for-bit — the strongest
    // cheap proxy for "recording is write-only telemetry".
    assert_eq!(format!("{plain:?}"), format!("{with_noop:?}"));
    assert_eq!(format!("{plain:?}"), format!("{with_memory:?}"));
}

#[test]
fn exports_reproduce_run_to_run() {
    let (run, runtimes, history) = setup(10);
    let render = || {
        let mut rec = MemoryRecorder::new();
        let mut s = scheduler(&history);
        let _ = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut s).with_recorder(&mut rec))
            .into_outcome();
        (
            export::to_jsonl(&rec),
            export::to_chrome_trace(&rec),
            export::summary(&rec),
        )
    };
    assert_eq!(render(), render());
}

/// A disabled recorder that panics on every call but `enabled()`: an
/// emission site without its `enabled()` guard fails the test below.
struct DisabledSpy;

fn unguarded(name: &str) -> ! {
    panic!("'{name}' reached a disabled recorder: its emission site lacks an enabled() guard")
}

impl Recorder for DisabledSpy {
    fn enabled(&self) -> bool {
        false
    }
    fn event(&mut self, _: f64, event: Event) {
        unguarded(event.name())
    }
    fn declare_counter(&mut self, name: &'static str) -> MetricId {
        unguarded(name)
    }
    fn declare_gauge(&mut self, name: &'static str) -> MetricId {
        unguarded(name)
    }
    fn declare_histogram(&mut self, name: &'static str) -> MetricId {
        unguarded(name)
    }
    fn add(&mut self, _: MetricId, _: u64) {
        unguarded("add")
    }
    fn set(&mut self, _: MetricId, _: f64) {
        unguarded("set")
    }
    fn record(&mut self, _: MetricId, _: f64) {
        unguarded("record")
    }
}

#[test]
fn a_disabled_recorder_is_never_called_past_enabled() {
    let (run, runtimes, history) = setup(10);
    let mut samples = Vec::new();
    for fault_rate in [0.0, 0.08] {
        let config = FaasConfig {
            faults: FaultConfig::uniform(fault_rate).with_seed(5),
            recovery: RecoveryPolicy::speculative(),
            ..FaasConfig::default()
        };
        let executors: [&mut dyn Executor; 2] = [
            &mut FaasExecutor::new(config),
            &mut DesFaasExecutor::new(config),
        ];
        for executor in executors {
            let mut s = scheduler(&history);
            let outcome = executor
                .run(RunRequest::new(&run, &runtimes, &mut s).with_recorder(&mut DisabledSpy))
                .into_outcome();
            assert_eq!(outcome.faults.retried_components > 0, fault_rate > 0.0);
            samples.push(ServiceSample::from_outcome(&outcome));
        }
    }

    let tenant = |id| TenantSpec {
        tenant: TenantId(id),
        arrivals: 2,
        rate_per_sec: 0.5,
        weight: 1,
        max_in_flight: 1,
        sla_secs: 0.0,
    };
    let cfg = TrafficConfig {
        seed: 42,
        model: ArrivalModel::Poisson,
        tenants: vec![tenant(0), tenant(1)],
        capacity: 1,
    };
    let stream = arrivals(&cfg);
    assert_eq!(stream.len(), samples.len());
    let report = FrontDoor::new(cfg).serve(&stream, &samples, Some(&mut DisabledSpy));
    assert_eq!(report.admissions.len(), stream.len());
}
