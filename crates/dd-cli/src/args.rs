//! Argument parsing for `daydream-cli` (hand-rolled; the workspace's
//! dependency policy has no CLI crate).

use dd_bench::InnerExecutor;
use dd_platform::traffic::ArrivalModel;
use dd_platform::RecoveryPolicy;
use dd_wfdag::Workflow;
use std::path::PathBuf;

/// Parses a `--policy` value: `help` lists the registry, anything else
/// must be a registered policy name (the registry's unknown-name error —
/// which lists every known policy — propagates verbatim).
fn parse_policy(s: &str) -> Result<PolicyArg, String> {
    if s.eq_ignore_ascii_case("help") || s.eq_ignore_ascii_case("list") {
        return Ok(PolicyArg::Help);
    }
    let registry = dd_baselines::registry();
    registry.create(s)?;
    Ok(PolicyArg::Named(s.to_ascii_lowercase()))
}

/// A parsed `--policy` value.
enum PolicyArg {
    /// `--policy help`: print the registry listing and exit.
    Help,
    /// A validated registered policy name, lowercased.
    Named(String),
}

/// Observability export format (`--obs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsFormat {
    /// One JSON object per trace event, plus the metric table.
    Jsonl,
    /// chrome://tracing / Perfetto `trace.json`.
    Chrome,
    /// Human-readable per-phase timing and metric tables.
    Summary,
}

impl ObsFormat {
    /// Parses a format name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "jsonl" => Ok(Self::Jsonl),
            "chrome" => Ok(Self::Chrome),
            "summary" => Ok(Self::Summary),
            other => Err(format!("unknown --obs format '{other}'")),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Jsonl => "jsonl",
            Self::Chrome => "chrome",
            Self::Summary => "summary",
        }
    }

    /// Per-run export file name.
    pub fn file_name(self) -> &'static str {
        match self {
            Self::Jsonl => "obs.jsonl",
            Self::Chrome => "trace.json",
            Self::Summary => "obs_summary.txt",
        }
    }
}

/// Parameters shared by `run` and `verify`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Which workflow.
    pub workflow: Workflow,
    /// Number of runs (artifact: 50).
    pub runs: usize,
    /// Scheduler policy name (a [`dd_baselines::registry`] entry,
    /// validated at parse time).
    pub policy: String,
    /// Root seed.
    pub seed: u64,
    /// Phase-count divisor (1 = paper scale).
    pub scale: usize,
    /// Output directory.
    pub out: PathBuf,
    /// Verification tolerance, fractional (verify only; artifact: 0.10).
    pub tolerance: f64,
    /// Worker threads for executing runs (default: all cores). Results
    /// are byte-identical at any setting.
    pub jobs: usize,
    /// Uniform fault-injection rate across all fault kinds (default 0 =
    /// clean execution, byte-identical to builds without the fault
    /// engine).
    pub fault_rate: f64,
    /// Seed for the deterministic fault plan (independent of `--seed`
    /// so fault placement can be varied without regenerating runs).
    pub fault_seed: u64,
    /// Recovery policy for faulted attempts
    /// (none|backoff|timeout|speculate).
    pub retry_policy: RecoveryPolicy,
    /// Observability export written per run (None = recording off, the
    /// zero-cost no-op recorder).
    pub obs: Option<ObsFormat>,
    /// Directory for the observability exports (defaults to `--out`).
    pub obs_out: Option<PathBuf>,
}

/// Parameters of `serve` (the multi-tenant front door).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Concurrent tenant streams (`--tenants`).
    pub tenants: usize,
    /// Interarrival model (`--arrival`).
    pub model: ArrivalModel,
    /// Mean per-tenant arrival rate, runs per virtual second (`--rate`).
    pub rate: f64,
    /// Runs each tenant submits (`--requests`).
    pub requests: usize,
    /// Shared capacity: runs in flight at once across all tenants.
    pub capacity: usize,
    /// Per-run executor backing the stream (`--executor analytic|des`).
    pub executor: InnerExecutor,
    /// Root seed (arrivals, run generation, schedulers).
    pub seed: u64,
    /// Phase-count divisor (1 = paper scale).
    pub scale: usize,
    /// Worker threads for the per-run fan-out; output is byte-identical
    /// at any setting.
    pub jobs: usize,
    /// Output directory for `serve_report.txt` + `admissions.csv`
    /// (omitted = stdout only).
    pub out: Option<PathBuf>,
    /// Uniform fault-injection rate for every run (0 = clean).
    pub fault_rate: f64,
    /// Fault-injection seed (salted per tenant).
    pub fault_seed: u64,
    /// Scheduler policy serving every tenant (`--policy`).
    pub policy: String,
    /// Observability export of the front-door stream (None = off).
    pub obs: Option<ObsFormat>,
    /// Directory for the observability export (defaults to `--out`).
    pub obs_out: Option<PathBuf>,
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Execute runs and write output files.
    Run(RunArgs),
    /// Re-execute and compare against existing output files.
    Verify(RunArgs),
    /// Serve a multi-tenant arrival stream through the front door.
    Serve(ServeArgs),
    /// Print the registered-policy listing (`--policy help`).
    PolicyHelp,
    /// Print workload facts.
    Info,
    /// Print usage.
    Help,
}

fn parse_workflow(s: &str) -> Result<Workflow, String> {
    match s.to_ascii_lowercase().as_str() {
        "exafel" => Ok(Workflow::ExaFel),
        "cosmoscout" | "cosmoscout-vr" | "cosmoscoutvr" => Ok(Workflow::CosmoscoutVr),
        "ccl" => Ok(Workflow::Ccl),
        other => Err(format!("unknown workflow '{other}'")),
    }
}

/// The value following `flag`, or the "requires a value" error.
fn required<'a>(flag: &str, value: Option<&'a String>) -> Result<&'a String, String> {
    value.ok_or_else(|| format!("{flag} requires a value"))
}

/// Parses `value` as a number, or fails with "`flag` takes a number".
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag} takes a number"))
}

/// Parses a count that must be at least 1 (`--runs`, `--requests`,
/// `--tenants`): a zero count would make the command compare or serve
/// nothing and still report success.
fn positive(flag: &str, value: &str) -> Result<usize, String> {
    match number(flag, value)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

/// The flags `run`, `verify` and `serve` share, each parsed in one place
/// ([`Shared::parse`]) that both command parsers fall through to.
struct Shared {
    seed: u64,
    scale: usize,
    jobs: usize,
    fault_rate: f64,
    fault_seed: u64,
    policy: String,
    obs: Option<ObsFormat>,
    obs_out: Option<PathBuf>,
}

/// What [`Shared::parse`] made of one flag.
enum Parsed {
    /// A shared flag, applied.
    Shared,
    /// `--policy help`: print the registry listing instead of running.
    PolicyHelp,
    /// Not a shared flag; the command parser decides.
    Other,
}

impl Shared {
    /// Defaults common to every command; `fault_seed` differs per command.
    fn new(fault_seed: u64) -> Self {
        Self {
            seed: 0xDA1D,
            scale: 1,
            jobs: dd_bench::default_jobs(),
            fault_rate: 0.0,
            fault_seed,
            policy: "daydream".to_string(),
            obs: None,
            obs_out: None,
        }
    }

    /// Applies `flag` (with its `value`, if any) when it is a shared flag.
    fn parse(&mut self, flag: &str, value: Option<&String>) -> Result<Parsed, String> {
        match flag {
            "--seed" => self.seed = number(flag, required(flag, value)?)?,
            // `--scale 0` clamps to 1, as `WorkflowSpec::scaled_down` does.
            "--scale" => self.scale = number::<usize>(flag, required(flag, value)?)?.max(1),
            "--jobs" => self.jobs = number::<usize>(flag, required(flag, value)?)?.max(1),
            "--fault-rate" => {
                self.fault_rate = required(flag, value)?
                    .parse()
                    .map_err(|_| "--fault-rate takes a probability".to_string())?;
                if !(0.0..=1.0).contains(&self.fault_rate) {
                    return Err("--fault-rate must be within [0, 1]".to_string());
                }
            }
            "--fault-seed" => self.fault_seed = number(flag, required(flag, value)?)?,
            // --scheduler remains as a back-compat alias for --policy.
            "--policy" | "--scheduler" => match parse_policy(required(flag, value)?)? {
                PolicyArg::Help => return Ok(Parsed::PolicyHelp),
                PolicyArg::Named(name) => self.policy = name,
            },
            "--obs" => self.obs = Some(ObsFormat::parse(required(flag, value)?)?),
            "--obs-out" => self.obs_out = Some(PathBuf::from(required(flag, value)?)),
            _ => return Ok(Parsed::Other),
        }
        Ok(Parsed::Shared)
    }
}

/// Parses CLI arguments into a [`Command`].
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some(verb) = args.first() else {
        return Ok(Command::Help);
    };
    match verb.as_str() {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "info" => return Ok(Command::Info),
        "serve" => return parse_serve(&args[1..]),
        "run" | "verify" => {}
        other => return Err(format!("unknown command '{other}'")),
    }

    let mut shared = Shared::new(0);
    let mut workflow = None;
    let mut runs = 50usize;
    let mut out = None;
    let mut tolerance = 0.10f64;
    let mut retry_policy = RecoveryPolicy::backoff();

    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1);
        match shared.parse(flag, value)? {
            Parsed::Shared => {}
            Parsed::PolicyHelp => return Ok(Command::PolicyHelp),
            Parsed::Other => match flag {
                "--workflow" => workflow = Some(parse_workflow(required(flag, value)?)?),
                "--runs" => runs = positive(flag, required(flag, value)?)?,
                "--out" => out = Some(PathBuf::from(required(flag, value)?)),
                "--tolerance" => {
                    let pct: f64 = required(flag, value)?
                        .parse()
                        .map_err(|_| "--tolerance takes a percentage".to_string())?;
                    tolerance = pct / 100.0;
                }
                "--retry-policy" => retry_policy = RecoveryPolicy::parse(required(flag, value)?)?,
                other => return Err(format!("unknown flag '{other}'")),
            },
        }
        i += 2;
    }

    if shared.obs_out.is_some() && shared.obs.is_none() {
        return Err("--obs-out requires --obs".to_string());
    }

    let run_args = RunArgs {
        workflow: workflow.ok_or("--workflow is required")?,
        runs,
        policy: shared.policy,
        seed: shared.seed,
        scale: shared.scale,
        out: out.ok_or("--out is required")?,
        tolerance,
        jobs: shared.jobs,
        fault_rate: shared.fault_rate,
        fault_seed: shared.fault_seed,
        retry_policy,
        obs: shared.obs,
        obs_out: shared.obs_out,
    };
    Ok(if verb == "run" {
        Command::Run(run_args)
    } else {
        Command::Verify(run_args)
    })
}

/// Parses `serve` flags (`args` excludes the verb).
fn parse_serve(args: &[String]) -> Result<Command, String> {
    let mut shared = Shared::new(7);
    let mut tenants = 4;
    let mut model = ArrivalModel::Poisson;
    let mut rate = 0.05f64;
    let mut requests = 8;
    let mut capacity = 4;
    let mut executor = InnerExecutor::Des;
    let mut out = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1);
        match shared.parse(flag, value)? {
            Parsed::Shared => {}
            Parsed::PolicyHelp => return Ok(Command::PolicyHelp),
            Parsed::Other => match flag {
                "--tenants" => tenants = positive(flag, required(flag, value)?)?,
                "--arrival" => model = ArrivalModel::parse(required(flag, value)?)?,
                "--rate" => {
                    rate = number(flag, required(flag, value)?)?;
                    if !(rate > 0.0 && rate.is_finite()) {
                        return Err("--rate must be a positive rate".to_string());
                    }
                }
                "--requests" => requests = positive(flag, required(flag, value)?)?,
                "--capacity" => capacity = number::<usize>(flag, required(flag, value)?)?.max(1),
                "--executor" => executor = InnerExecutor::parse(required(flag, value)?)?,
                "--out" => out = Some(PathBuf::from(required(flag, value)?)),
                other => return Err(format!("unknown flag '{other}'")),
            },
        }
        i += 2;
    }

    if shared.obs_out.is_some() && shared.obs.is_none() {
        return Err("--obs-out requires --obs".to_string());
    }
    if shared.obs.is_some() && shared.obs_out.is_none() && out.is_none() {
        return Err("--obs requires --out or --obs-out".to_string());
    }
    Ok(Command::Serve(ServeArgs {
        tenants,
        model,
        rate,
        requests,
        capacity,
        executor,
        seed: shared.seed,
        scale: shared.scale,
        jobs: shared.jobs,
        out,
        fault_rate: shared.fault_rate,
        fault_seed: shared.fault_seed,
        policy: shared.policy,
        obs: shared.obs,
        obs_out: shared.obs_out,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_run_command() {
        let cmd = parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--runs",
            "5",
            "--out",
            "/tmp/x",
        ]))
        .unwrap();
        match cmd {
            Command::Run(a) => {
                assert_eq!(a.workflow, Workflow::Ccl);
                assert_eq!(a.runs, 5);
                assert_eq!(a.policy, "daydream");
                assert_eq!(a.out, PathBuf::from("/tmp/x"));
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Zero runs would make `verify` report a reproduction that
        // compared nothing, so both verbs reject it.
        for verb in ["run", "verify"] {
            let err = parse_args(&strs(&[
                verb,
                "--workflow",
                "ccl",
                "--runs",
                "0",
                "--out",
                "x",
            ]))
            .expect_err("--runs 0 must be rejected");
            assert_eq!(err, "--runs must be at least 1");
        }
    }

    #[test]
    fn parses_verify_with_tolerance() {
        let cmd = parse_args(&strs(&[
            "verify",
            "--workflow",
            "exafel",
            "--out",
            "o",
            "--tolerance",
            "5",
        ]))
        .unwrap();
        match cmd {
            Command::Verify(a) => {
                assert_eq!(a.workflow, Workflow::ExaFel);
                assert!((a.tolerance - 0.05).abs() < 1e-12);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_jobs_flag() {
        let cmd = parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--jobs",
            "4",
        ]))
        .unwrap();
        match cmd {
            Command::Run(a) => assert_eq!(a.jobs, 4),
            other => panic!("wrong command: {other:?}"),
        }
        // 0 clamps to 1; a bad value errors.
        let cmd = parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--jobs",
            "0",
        ]))
        .unwrap();
        match cmd {
            Command::Run(a) => assert_eq!(a.jobs, 1),
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--jobs",
            "many",
        ]))
        .is_err());
    }

    #[test]
    fn parses_fault_flags() {
        let cmd = parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--fault-rate",
            "0.05",
            "--fault-seed",
            "99",
            "--retry-policy",
            "speculate",
        ]))
        .unwrap();
        match cmd {
            Command::Run(a) => {
                assert!((a.fault_rate - 0.05).abs() < 1e-12);
                assert_eq!(a.fault_seed, 99);
                assert_eq!(a.retry_policy, RecoveryPolicy::speculative());
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Defaults: clean execution with the backoff policy armed.
        match parse_args(&strs(&["run", "--workflow", "ccl", "--out", "x"])).unwrap() {
            Command::Run(a) => {
                assert!(a.fault_rate.abs() < 1e-12);
                assert_eq!(a.fault_seed, 0);
                assert_eq!(a.retry_policy, RecoveryPolicy::backoff());
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Out-of-range rate and unknown policy both error.
        assert!(parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--fault-rate",
            "1.5",
        ]))
        .is_err());
        assert!(parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--retry-policy",
            "pray",
        ]))
        .is_err());
    }

    #[test]
    fn parses_obs_flags() {
        let cmd = parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--obs",
            "chrome",
            "--obs-out",
            "obs-dir",
        ]))
        .unwrap();
        match cmd {
            Command::Run(a) => {
                assert_eq!(a.obs, Some(ObsFormat::Chrome));
                assert_eq!(a.obs_out, Some(PathBuf::from("obs-dir")));
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Defaults: recording off, exports land under --out.
        match parse_args(&strs(&["run", "--workflow", "ccl", "--out", "x"])).unwrap() {
            Command::Run(a) => {
                assert_eq!(a.obs, None);
                assert_eq!(a.obs_out, None);
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Unknown format and an --obs-out without --obs both error.
        assert!(parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--obs",
            "xml",
        ]))
        .is_err());
        assert!(parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--obs-out",
            "obs-dir",
        ]))
        .is_err());
    }

    #[test]
    fn obs_format_names_roundtrip() {
        for name in ["jsonl", "chrome", "summary"] {
            assert_eq!(ObsFormat::parse(name).unwrap().name(), name);
        }
        assert_eq!(ObsFormat::Jsonl.file_name(), "obs.jsonl");
        assert_eq!(ObsFormat::Chrome.file_name(), "trace.json");
        assert_eq!(ObsFormat::Summary.file_name(), "obs_summary.txt");
    }

    #[test]
    fn policy_flag_accepts_every_registered_name() {
        for name in dd_baselines::registry().names() {
            let cmd = parse_args(&strs(&[
                "run",
                "--workflow",
                "ccl",
                "--out",
                "x",
                "--policy",
                name,
            ]))
            .unwrap();
            match cmd {
                Command::Run(a) => assert_eq!(a.policy, name),
                other => panic!("wrong command: {other:?}"),
            }
        }
        // --scheduler stays as a back-compat alias, case-insensitively.
        match parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--scheduler",
            "WILD",
        ]))
        .unwrap()
        {
            Command::Run(a) => assert_eq!(a.policy, "wild"),
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn policy_help_lists_instead_of_running() {
        for argv in [
            vec!["run", "--policy", "help"],
            vec!["serve", "--policy", "list"],
        ] {
            assert_eq!(parse_args(&strs(&argv)).unwrap(), Command::PolicyHelp);
        }
    }

    #[test]
    fn unknown_policy_error_snapshot() {
        // Snapshot of the registry's unknown-name message: it must name
        // every registered policy in registration order. Change it
        // deliberately.
        let err = parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--policy",
            "slurm",
        ]))
        .expect_err("slurm must not resolve");
        assert_eq!(
            err,
            "unknown policy 'slurm' (known policies: daydream, oracle, wild, pegasus, \
             naive, hybrid, fixed-pool, icps, wukong)"
        );
    }

    #[test]
    fn workflow_aliases() {
        assert_eq!(
            parse_workflow("cosmoscout-vr").unwrap(),
            Workflow::CosmoscoutVr
        );
        assert_eq!(
            parse_workflow("COSMOSCOUT").unwrap(),
            Workflow::CosmoscoutVr
        );
        assert!(parse_workflow("montage").is_err());
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(parse_args(&strs(&["run", "--out", "x"])).is_err());
        assert!(parse_args(&strs(&["run", "--workflow", "ccl"])).is_err());
        assert!(parse_args(&strs(&["run", "--workflow"])).is_err());
        assert!(parse_args(&strs(&["frobnicate"])).is_err());
    }

    #[test]
    fn parses_serve_command() {
        // Defaults: a 4-tenant Poisson stream on the DES executor.
        match parse_args(&strs(&["serve"])).unwrap() {
            Command::Serve(a) => {
                assert_eq!(a.tenants, 4);
                assert_eq!(a.model, ArrivalModel::Poisson);
                assert!((a.rate - 0.05).abs() < 1e-12);
                assert_eq!(a.requests, 8);
                assert_eq!(a.capacity, 4);
                assert_eq!(a.executor, InnerExecutor::Des);
                assert_eq!(a.scale, 1);
                assert_eq!(a.out, None);
                assert_eq!(a.obs, None);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cmd = parse_args(&strs(&[
            "serve",
            "--tenants",
            "6",
            "--arrival",
            "bursty",
            "--rate",
            "0.2",
            "--requests",
            "3",
            "--capacity",
            "2",
            "--executor",
            "analytic",
            "--scale",
            "25",
            "--jobs",
            "2",
            "--out",
            "served",
            "--obs",
            "jsonl",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(a) => {
                assert_eq!(a.tenants, 6);
                assert_eq!(a.model, ArrivalModel::Bursty);
                assert!((a.rate - 0.2).abs() < 1e-12);
                assert_eq!(a.requests, 3);
                assert_eq!(a.capacity, 2);
                assert_eq!(a.executor, InnerExecutor::Analytic);
                assert_eq!(a.scale, 25);
                assert_eq!(a.jobs, 2);
                assert_eq!(a.out, Some(PathBuf::from("served")));
                assert_eq!(a.obs, Some(ObsFormat::Jsonl));
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn serve_flag_validation() {
        assert!(parse_args(&strs(&["serve", "--tenants", "0"])).is_err());
        assert_eq!(
            parse_args(&strs(&["serve", "--requests", "0"])),
            Err("--requests must be at least 1".to_string())
        );
        assert!(parse_args(&strs(&["serve", "--rate", "-1"])).is_err());
        assert!(parse_args(&strs(&["serve", "--rate", "inf"])).is_err());
        assert!(parse_args(&strs(&["serve", "--arrival", "solar"])).is_err());
        assert!(parse_args(&strs(&["serve", "--executor", "quantum"])).is_err());
        assert!(parse_args(&strs(&["serve", "--fault-rate", "1.5"])).is_err());
        assert!(parse_args(&strs(&["serve", "--frobnicate", "1"])).is_err());
        // An obs export needs somewhere to land.
        assert!(parse_args(&strs(&["serve", "--obs", "jsonl"])).is_err());
        assert!(parse_args(&strs(&["serve", "--obs-out", "d"])).is_err());
        assert!(parse_args(&strs(&["serve", "--obs", "jsonl", "--obs-out", "d"])).is_ok());
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&strs(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&strs(&["info"])).unwrap(), Command::Info);
    }
}
