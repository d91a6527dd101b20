//! Export goldens: the bytes of `to_jsonl`, `to_chrome_trace` and the
//! recorder's `Debug` for two fixed cases, pinned against committed
//! files.
//!
//! * `obs_ccl_faults.*` — one CCL run at fault rate 0.08 with speculative
//!   recovery and an 8 s watchdog, recorded through both executors (which
//!   must agree byte for byte). Every fault kind and every attempt
//!   outcome appears in it, so the fault-attempt text is pinned too.
//! * `obs_front_door.*` — a small two-tenant front-door stream.
//!
//! `obs_determinism.rs` compares exports analytic-vs-DES and run-to-run,
//! which a change to the shared emission code passes trivially; these
//! goldens catch such a change.
//!
//! To re-bless after an *intended* change to the exports:
//!
//! ```bash
//! DD_BLESS=1 cargo test --test obs_export_golden
//! ```
//!
//! and say why in the commit message.

use daydream_core::{DayDreamHistory, DayDreamScheduler};
use dd_obs::export;
use dd_platform::prelude::*;
use dd_platform::traffic::arrivals;
use dd_stats::SeedStream;
use dd_wfdag::{RunGenerator, Workflow, WorkflowSpec};

const FAULT_TEXT: [&str; 9] = [
    "TransientInvocation",
    "InstanceCrash",
    "StartFailure",
    "StorageHiccup",
    "Straggler",
    "Completed",
    "Failed",
    "TimedOut",
    "Superseded",
];

/// Compares `text` with `tests/golden/<file>`, or writes it there when
/// `DD_BLESS` is set.
fn check_golden(file: &str, text: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("DD_BLESS").is_some() {
        std::fs::write(&path, text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("read golden");
    assert!(
        text == golden,
        "{file} drifted from its golden (re-bless with DD_BLESS=1 if the change is intended)"
    );
}

/// The three renderings a golden pins.
fn renderings(rec: &MemoryRecorder) -> [String; 3] {
    [
        export::to_jsonl(rec),
        export::to_chrome_trace(rec),
        format!("{rec:?}\n"),
    ]
}

fn check_all(stem: &str, rec: &MemoryRecorder) {
    let [jsonl, chrome, debug] = renderings(rec);
    check_golden(&format!("{stem}.jsonl"), &jsonl);
    check_golden(&format!("{stem}.chrome.json"), &chrome);
    check_golden(&format!("{stem}.debug.txt"), &debug);
}

fn ccl_run(executor: &mut dyn Executor) -> (RunOutcome, MemoryRecorder) {
    let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(25);
    let runtimes = spec.runtimes.clone();
    let gen = RunGenerator::new(spec, 33);
    let mut history = DayDreamHistory::new();
    history.learn_from_run(&gen.generate(1_000), 0.20, 24);
    let run = gen.generate(0);
    let mut scheduler = DayDreamScheduler::aws(&history, SeedStream::new(9));
    let mut rec = MemoryRecorder::new();
    let outcome = executor
        .run(RunRequest::new(&run, &runtimes, &mut scheduler).with_recorder(&mut rec))
        .into_outcome();
    (outcome, rec)
}

/// The faulted platform configuration of [`ccl_run`].
fn faulted() -> FaasConfig {
    FaasConfig {
        faults: FaultConfig::uniform(0.08).with_seed(5),
        // A watchdog short enough that some attempts time out.
        recovery: RecoveryPolicy {
            timeout_secs: 8.0,
            ..RecoveryPolicy::speculative()
        },
        ..FaasConfig::default()
    }
}

#[test]
fn faulted_ccl_exports_match_golden_on_both_executors() {
    let (_, analytic) = ccl_run(&mut FaasExecutor::new(faulted()));
    let (_, des) = ccl_run(&mut DesFaasExecutor::new(faulted()));
    assert_eq!(
        renderings(&analytic),
        renderings(&des),
        "analytic and DES exports differ"
    );
    let jsonl = export::to_jsonl(&analytic);
    for text in FAULT_TEXT {
        assert!(
            jsonl.contains(&format!("\"{text}\"")),
            "the faulted run never rendered {text}"
        );
    }
    check_all("obs_ccl_faults", &analytic);
}

#[test]
fn front_door_exports_match_golden() {
    let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(25);
    let runtimes = spec.runtimes.clone();
    let gen = RunGenerator::new(spec, 7);
    let mut history = DayDreamHistory::new();
    history.learn_from_run(&gen.generate(1_000), 0.20, 24);
    let tenant = |id, rate_per_sec| TenantSpec {
        tenant: TenantId(id),
        arrivals: 3,
        rate_per_sec,
        weight: 1,
        max_in_flight: 1,
        sla_secs: 40.0,
    };
    let cfg = TrafficConfig {
        seed: 42,
        model: ArrivalModel::Poisson,
        tenants: vec![tenant(0, 0.05), tenant(1, 0.02)],
        capacity: 1,
    };
    let stream = arrivals(&cfg);
    let samples: Vec<ServiceSample> = stream
        .iter()
        .map(|a| {
            let run = gen.generate(a.index);
            let mut scheduler = DayDreamScheduler::aws(&history, SeedStream::new(9));
            let outcome = DesFaasExecutor::aws()
                .run(RunRequest::new(&run, &runtimes, &mut scheduler))
                .into_outcome();
            ServiceSample::from_outcome(&outcome)
        })
        .collect();
    let mut rec = MemoryRecorder::new();
    let report = FrontDoor::new(cfg).serve(&stream, &samples, Some(&mut rec));
    assert_eq!(report.admissions.len(), stream.len());
    check_all("obs_front_door", &rec);
}
