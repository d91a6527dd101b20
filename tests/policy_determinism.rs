//! Registry-wide determinism: every policy behind `--policy <name>` must
//! produce byte-identical results at any `--jobs` setting — clean and
//! under fault injection — and the serverless policies must agree across
//! the analytic and DES executors.

use daydream::platform::{
    BuiltScheduler, CloudVendor, DesFaasExecutor, Executor, FaasConfig, FaasExecutor, FaultConfig,
    PolicyContext, RecoveryPolicy, RunRequest, SchedulerPolicy,
};
use daydream::stats::SeedStream;
use daydream::wfdag::{RunGenerator, Workflow, WorkflowSpec};
use proptest::prelude::*;

fn generator() -> RunGenerator {
    RunGenerator::new(WorkflowSpec::new(Workflow::Ccl).scaled_down(25), 13)
}

fn prepared(name: &str, gen: &RunGenerator) -> Box<dyn SchedulerPolicy> {
    let mut policy = daydream::baselines::registry()
        .create(name)
        .expect("registered policy");
    policy.prepare(&gen.generate(1_000));
    policy
}

/// Debug rendering of one execution of `policy` on run `idx` under
/// `config` — the byte-level witness the invariance assertions compare.
fn execute(
    policy: &dyn SchedulerPolicy,
    gen: &RunGenerator,
    idx: usize,
    config: FaasConfig,
    des: bool,
) -> String {
    let run = gen.generate(idx);
    let runtimes = &gen.spec().runtimes;
    let seeds = SeedStream::new(0xD0).derive_index(idx as u64);
    match policy.build(&PolicyContext {
        run: &run,
        runtimes,
        vendor: config.vendor,
        seeds,
    }) {
        BuiltScheduler::Serverless(mut s) => {
            let req = RunRequest::new(&run, runtimes, s.as_mut());
            let outcome = if des {
                DesFaasExecutor::new(config).run(req).into_outcome()
            } else {
                FaasExecutor::new(config).run(req).into_outcome()
            };
            format!("{outcome:?}")
        }
        BuiltScheduler::Cluster(cluster) => format!(
            "{:?}",
            cluster.execute_faulted(
                &run,
                runtimes,
                config.vendor,
                config.faults,
                config.recovery
            )
        ),
    }
}

/// Every registered policy, executed cleanly, is byte-identical at any
/// worker count and (for the serverless policies) across executors.
#[test]
fn every_policy_is_jobs_invariant_and_executor_agnostic_clean() {
    let gen = generator();
    for name in daydream::baselines::registry().names() {
        let policy = prepared(name, &gen);
        let exec = |idx: usize| execute(policy.as_ref(), &gen, idx, FaasConfig::default(), false);
        let serial = dd_bench::par_map(1, 4, exec);
        let parallel = dd_bench::par_map(8, 4, exec);
        assert_eq!(serial, parallel, "{name}: outcome depends on --jobs");

        if matches!(
            policy.build(&PolicyContext {
                run: &gen.generate(0),
                runtimes: &gen.spec().runtimes,
                vendor: CloudVendor::Aws,
                seeds: SeedStream::new(0xD0),
            }),
            BuiltScheduler::Serverless(_)
        ) {
            let des = execute(policy.as_ref(), &gen, 0, FaasConfig::default(), true);
            assert_eq!(serial[0], des, "{name}: DES diverges from analytic");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under arbitrary fault seeds, rates and recovery policies, every
    /// registered policy stays byte-identical at any `--jobs` setting,
    /// and the serverless ones replay the same fault plan to the same
    /// bytes on the DES executor.
    #[test]
    fn every_policy_deterministic_under_faults(
        fault_seed in 0u64..100,
        rate in 0.01f64..0.10,
        recovery_idx in 0usize..4,
        policy_idx in 0usize..9,
        jobs in 2usize..9,
    ) {
        let recovery = [
            RecoveryPolicy::none(),
            RecoveryPolicy::backoff(),
            RecoveryPolicy::timeout(),
            RecoveryPolicy::speculative(),
        ][recovery_idx];
        let gen = generator();
        let registry = daydream::baselines::registry();
        let name = registry.names()[policy_idx % registry.len()];
        let policy = prepared(name, &gen);
        let config = FaasConfig {
            faults: FaultConfig::uniform(rate).with_seed(fault_seed),
            recovery,
            ..FaasConfig::default()
        };

        let exec = |idx: usize| execute(policy.as_ref(), &gen, idx, config, false);
        let serial = dd_bench::par_map(1, 3, exec);
        let parallel = dd_bench::par_map(jobs, 3, exec);
        prop_assert_eq!(&serial, &parallel, "{}: faulty outcome depends on --jobs", name);

        let serverless = matches!(
            policy.build(&PolicyContext {
                run: &gen.generate(0),
                runtimes: &gen.spec().runtimes,
                vendor: CloudVendor::Aws,
                seeds: SeedStream::new(0xD0),
            }),
            BuiltScheduler::Serverless(_)
        );
        if serverless {
            let des = execute(policy.as_ref(), &gen, 0, config, true);
            prop_assert_eq!(&serial[0], &des, "{}: DES diverges from analytic under faults", name);
        }
    }
}
