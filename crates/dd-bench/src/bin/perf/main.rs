//! `perf` — the repository benchmark: four workloads, each measured in
//! fresh processes, with output checks and a layer-attributed traced run.
//!
//! ```bash
//! cargo run --release -p dd-bench --bin perf -- [--seed N] [--seconds S] [--trace] [--out DIR] [workload…]
//! cargo run --release --manifest-path crates/dd-bench/src/bin/perf/Cargo.toml -- --workload des_replay --seed 7 --seconds 25 --trace 0
//! ```
//!
//! For each workload the process re-executes itself once per pass
//! (`--child`), so the fit/ARIMA memos, the simulator counters and the
//! peak-RSS high-water mark start cold in every pass. It keeps starting
//! passes while the next one still fits in `--seconds` (at least
//! [`MIN_PASSES`]), and reports each metric as the median over passes.
//! `setup_s` is the median of set-up-only passes, [`SETUP_GROUP`] before
//! each full pass, each timed from spawn to exit.
//!
//! Every metric prints as `workload metric value unit`; the last line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. An
//! untraced run reports the end-to-end metrics; `--trace` reports the
//! per-layer metrics instead, from traced passes at one worker, and writes
//! each workload's run-level spans to `DIR/<workload>.spans.jsonl`. The
//! process exits 1 when any output check fails and 2 on a usage error.

mod probe;
mod stats;
mod workloads;

use probe::{Clock, Layer};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use workloads::{Entry, Pass, Size, Workload, DEFAULT_SEED};

/// Passes every measurement runs, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Set-up-only passes before each full pass of an untraced measurement.
const SETUP_GROUP: usize = 8;
/// Default measuring time per workload, seconds (`run_seconds` of
/// BENCHMARK.json).
const DEFAULT_SECONDS: u64 = 25;

const USAGE: &str = "usage: perf [--seed N] [--seconds S] [--trace [0|1]] [--out DIR] \
                     [--workload NAME]... [NAME...]\n\
                     workloads: report des_replay serve zoo (default: all)";

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("starts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics beyond the `<layer>.share` of every [`Layer`],
/// reported by traced runs: `(name, unit)`.
const PER_LAYER_EXTRA: [(&str, &str); 23] = [
    ("run_p50_ms", "ms"),
    ("run_p90_ms", "ms"),
    ("sim.runs", "count"),
    ("sim.starts", "count"),
    ("sim.des_events", "count"),
    ("wfdag.generate.calls", "count"),
    ("wfdag.generate.us_per_call", "us"),
    ("core.predictor.calls", "count"),
    ("core.predictor.us_per_call", "us"),
    ("core.optimizer.calls", "count"),
    ("core.optimizer.us_per_call", "us"),
    ("platform.faas.starts_per_s", "1/s"),
    ("platform.faas_des.starts_per_s", "1/s"),
    ("platform.faas_des.events_per_s", "1/s"),
    ("platform.faults.share", "frac"),
    ("platform.faults.attempts", "count"),
    ("platform.faults.retries", "count"),
    ("obs.recorder.share", "frac"),
    ("bench.matrix.incl_share", "frac"),
    ("bench.sweep.speedup_j2", "x"),
    ("trace.total_s", "s"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// Every per-layer metric, in report order.
fn per_layer() -> Vec<(String, &'static str)> {
    Layer::ALL
        .iter()
        .map(|l| (format!("{}.share", l.name()), "frac"))
        .chain(PER_LAYER_EXTRA.iter().map(|&(n, u)| (n.to_string(), u)))
        .collect()
}

#[derive(Debug, Clone, PartialEq)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    /// Internal: run one pass of the single workload in this process, at
    /// this many workers, and print its raw metrics.
    child_jobs: Option<usize>,
    /// Internal: the child stops once set up.
    setup_only: bool,
    help: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a str, String> {
        it.next()
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} takes a value"))
    }
    fn positive(s: &str, flag: &str) -> Result<u64, String> {
        match s.parse::<u64>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("{flag} takes a positive integer, got '{s}'")),
        }
    }
    fn workload(name: &str) -> Result<Workload, String> {
        Workload::parse(name).ok_or_else(|| {
            format!("unknown workload '{name}' (known: report des_replay serve zoo)")
        })
    }

    let mut o = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from("target/perf"),
        child_jobs: None,
        setup_only: false,
        help: false,
    };
    let mut child = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => o.workloads.push(workload(value(&mut it, arg)?)?),
            "--seed" => {
                let s = value(&mut it, arg)?;
                o.seed = s
                    .parse()
                    .map_err(|_| format!("--seed takes a non-negative integer, got '{s}'"))?;
            }
            "--seconds" => o.seconds = positive(value(&mut it, arg)?, arg)?.min(3_600),
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some(v @ ("0" | "1")) => {
                    o.trace = v == "1";
                    it.next();
                }
                _ => o.trace = true,
            },
            "--out" => o.out = PathBuf::from(value(&mut it, arg)?),
            "--child" => child = true,
            "--setup-only" => o.setup_only = true,
            "--jobs" => {
                let jobs = positive(value(&mut it, arg)?, arg)?;
                o.child_jobs = Some(usize::try_from(jobs).unwrap_or(usize::MAX));
            }
            "-h" | "--help" => o.help = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            name => o.workloads.push(workload(name)?),
        }
    }
    let mut seen = Vec::new();
    o.workloads.retain(|w| {
        let new = !seen.contains(w);
        seen.push(*w);
        new
    });
    if o.workloads.is_empty() {
        o.workloads = Workload::ALL.to_vec();
    }
    if child {
        if o.workloads.len() != 1 {
            return Err("--child runs exactly one workload".into());
        }
        o.child_jobs = Some(o.child_jobs.unwrap_or(o.workloads[0].jobs()));
    } else if o.child_jobs.is_some() {
        return Err("--jobs is fixed per workload".into());
    } else if o.setup_only {
        return Err("--setup-only is for child passes".into());
    }
    Ok(o)
}

fn main() {
    let entry = probe::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(message) => {
            eprintln!("perf: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if options.help {
        println!("{USAGE}");
        return;
    }
    if let Some(jobs) = options.child_jobs {
        child(&options, jobs, entry);
        return;
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: cannot locate this executable: {e}");
            std::process::exit(1);
        }
    };
    if !bench(&options, &exe) {
        std::process::exit(1);
    }
}

// --------------------------------------------------------------------
// One pass (the child process)
// --------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    value: f64,
    unit: String,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Self {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }
}

fn child(o: &Options, jobs: usize, at: std::time::Instant) {
    let workload = o.workloads[0];
    let clock = if o.trace { Clock::on() } else { Clock::off() };
    let entry = Entry {
        at,
        setup_only: o.setup_only,
    };
    let mut pass = workloads::run(workload, o.seed, jobs, &Size::BENCH, &clock, entry);
    if o.setup_only {
        return;
    }
    if o.trace {
        let path = o.out.join(format!("{}.spans.jsonl", workload.name()));
        let written = std::fs::create_dir_all(&o.out)
            .and_then(|()| std::fs::write(&path, clock.spans_jsonl(workload.name())));
        let error = written.err();
        pass.checks.expect(error.is_none(), || {
            format!("cannot write {}: {error:?}", path.display())
        });
    }
    for failure in &pass.checks.failures {
        eprintln!("perf: {}: check failed: {failure}", workload.name());
    }
    let mut out = String::new();
    for m in pass_metrics(&pass, &clock) {
        out.push_str(&line(workload.name(), &m));
    }
    print!("{out}");
}

/// What one pass reports: the end-to-end metrics but `setup_s` (the
/// parent times set-up-only passes for it), the raw counts the parent
/// aggregates, and — when traced — every per-layer metric but those the
/// parent derives from several passes.
fn pass_metrics(pass: &Pass, clock: &Clock) -> Vec<Metric> {
    let per = |n: f64, s: f64| if s > 0.0 { n / s } else { 0.0 };
    let total = pass.setup_s + pass.wall_s;
    let mut m = vec![
        Metric::new("wall_s", pass.wall_s, "s"),
        Metric::new("starts_per_s", per(pass.starts as f64, pass.wall_s), "1/s"),
        Metric::new(
            "peak_rss_mb",
            dd_bench::bench::peak_rss_kb() as f64 / 1024.0,
            "MB",
        ),
        Metric::new("total_s", total, "s"),
        Metric::new("checks.attempted", pass.checks.attempted as f64, "count"),
        Metric::new("checks.failed", pass.checks.failures.len() as f64, "count"),
        Metric::new("sim.runs", pass.executions as f64, "count"),
        Metric::new("sim.starts", pass.starts as f64, "count"),
        Metric::new("sim.des_events", pass.des_events as f64, "count"),
    ];
    if !clock.is_on() {
        return m;
    }
    let mut sorted = pass.run_ms.clone();
    sorted.sort_by(f64::total_cmp);
    for (name, p) in [("run_p50_ms", 50.0), ("run_p90_ms", 90.0)] {
        let value = stats::percentile(&sorted, p).unwrap_or(0.0);
        m.push(Metric::new(name, value, "ms"));
    }
    let mut attributed = 0.0;
    for layer in Layer::ALL {
        let (secs, _) = clock.layer(layer);
        attributed += secs;
        m.push(Metric::new(
            format!("{}.share", layer.name()),
            per(secs, total),
            "frac",
        ));
    }
    for layer in [Layer::Generate, Layer::Predictor, Layer::Optimizer] {
        let (secs, calls) = clock.layer(layer);
        m.push(Metric::new(
            format!("{}.calls", layer.name()),
            calls as f64,
            "count",
        ));
        m.push(Metric::new(
            format!("{}.us_per_call", layer.name()),
            per(secs * 1e6, calls as f64),
            "us",
        ));
    }
    let faas = clock.layer(Layer::Faas).0;
    let des = clock.layer(Layer::FaasDes).0;
    m.extend([
        Metric::new(
            "platform.faas.starts_per_s",
            per(pass.analytic_starts as f64, faas),
            "1/s",
        ),
        Metric::new(
            "platform.faas_des.starts_per_s",
            per(pass.des_starts as f64, des),
            "1/s",
        ),
        Metric::new(
            "platform.faas_des.events_per_s",
            per(pass.des_events as f64, des),
            "1/s",
        ),
        Metric::new("platform.faults.share", per(pass.faults_s, total), "frac"),
        Metric::new(
            "platform.faults.attempts",
            pass.faults.total_attempts as f64,
            "count",
        ),
        Metric::new(
            "platform.faults.retries",
            pass.faults.retried_components as f64,
            "count",
        ),
        Metric::new("obs.recorder.share", per(pass.obs_s, total), "frac"),
        Metric::new("bench.matrix.incl_share", per(pass.matrix_s, total), "frac"),
        Metric::new(
            "trace.unattributed_frac",
            1.0 - per(attributed, total),
            "frac",
        ),
    ]);
    m
}

// --------------------------------------------------------------------
// The measurement (the parent process)
// --------------------------------------------------------------------

/// A pass's metric lines by name, or why the pass failed.
type PassResult = Result<BTreeMap<String, (f64, String)>, String>;

/// `workload metric value unit`, with every digit of the value.
fn line(workload: &str, m: &Metric) -> String {
    format!("{workload} {} {} {}\n", m.name, m.value, m.unit)
}

/// Parses the lines [`line`] printed for `workload`; other lines are
/// ignored.
fn parse_lines(workload: &str, text: &str) -> BTreeMap<String, (f64, String)> {
    text.lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f[..] {
                [w, name, value, unit] if w == workload => value
                    .parse()
                    .ok()
                    .map(|v| (name.to_string(), (v, unit.to_string()))),
                _ => None,
            }
        })
        .collect()
}

/// The command line of one pass of `workload` at `seed`.
fn child_command(
    exe: &Path,
    workload: Workload,
    seed: u64,
    o: &Options,
    jobs: usize,
    trace: bool,
) -> Command {
    let mut command = Command::new(exe);
    command
        .arg("--child")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--jobs", &jobs.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&o.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    command
}

/// Runs one pass in a fresh process and collects its metric lines.
fn spawn(exe: &Path, workload: Workload, o: &Options, jobs: usize, trace: bool) -> PassResult {
    let output = child_command(exe, workload, o.seed, o, jobs, trace)
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!("{} pass {}", workload.name(), output.status));
    }
    Ok(parse_lines(
        workload.name(),
        &String::from_utf8_lossy(&output.stdout),
    ))
}

/// Runs one set-up-only pass at `seed` in a fresh process: seconds from
/// spawn to exit.
fn spawn_setup(exe: &Path, workload: Workload, seed: u64, o: &Options) -> Result<f64, String> {
    let mut command = child_command(exe, workload, seed, o, workload.jobs(), false);
    command.arg("--setup-only").stdout(Stdio::null());
    let start = probe::now();
    let status = command
        .status()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let secs = probe::secs_since(start);
    if !status.success() {
        return Err(format!("{} set-up pass {status}", workload.name()));
    }
    Ok(secs)
}

/// One workload's measurement.
#[derive(Debug, Default)]
struct Summary {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    passes: usize,
}

/// Median of `name` over the passes that reported it.
fn median_of(passes: &[PassResult], name: &str) -> Option<f64> {
    let values: Vec<f64> = passes
        .iter()
        .filter_map(|p| p.as_ref().ok()?.get(name).map(|v| v.0))
        .collect();
    stats::median(&values)
}

/// Medians of `names` over `passes`, with the checks of every pass in
/// `all` — a pass that failed counts as one failed check.
fn summarize(passes: &[PassResult], all: &[&PassResult], names: &[(String, &str)]) -> Summary {
    let mut s = Summary {
        passes: passes.len(),
        ..Summary::default()
    };
    for p in all {
        match p {
            Ok(lines) => {
                let count = |n: &str| lines.get(n).map_or(0, |v| v.0 as u64);
                s.attempted += count("checks.attempted");
                s.failed += count("checks.failed");
            }
            Err(e) => {
                eprintln!("perf: {e}");
                s.attempted += 1;
                s.failed += 1;
            }
        }
    }
    for (name, unit) in names {
        if let Some(v) = median_of(passes, name) {
            s.metrics.push(Metric::new(name.clone(), v, unit));
        }
    }
    s
}

/// Measures one workload for `o.seconds`: untraced passes at the
/// workload's own worker count, or — traced — pairs of an untraced and a
/// traced pass at one worker (their ratio is the tracing overhead), plus,
/// for sweep workloads, one untraced pass at two workers for the sweep
/// speedup.
fn measure(exe: &Path, workload: Workload, o: &Options) -> Summary {
    let budget = o.seconds as f64;
    let start = probe::now();
    let fits = |last: f64| probe::secs_since(start) + last <= budget;
    if !o.trace {
        // A group of set-up passes precedes each full pass, so that set-up
        // is sampled across the whole run: run all in one burst, their
        // median rose by up to half when outside load coincided. Set-up
        // work depends on the inputs, so they take successive seeds from
        // `seed` on: their median is the set-up cost of the workload, not
        // of one draw of its inputs.
        let (mut passes, mut setups) = (Vec::new(), Vec::new());
        let mut last = 0.0;
        while passes.len() < MIN_PASSES || fits(last) {
            let t = probe::now();
            for _ in 0..SETUP_GROUP {
                let seed = o.seed.wrapping_add(setups.len() as u64);
                setups.push(spawn_setup(exe, workload, seed, o));
            }
            passes.push(spawn(exe, workload, o, workload.jobs(), false));
            last = probe::secs_since(t);
        }
        let mut s = summarize(&passes, &passes.iter().collect::<Vec<_>>(), &end_to_end());
        let mut secs = Vec::with_capacity(setups.len());
        for setup in setups {
            s.attempted += 1;
            match setup {
                Ok(v) => secs.push(v),
                Err(e) => {
                    eprintln!("perf: {e}");
                    s.failed += 1;
                }
            }
        }
        if let Some(v) = stats::median(&secs) {
            s.metrics.push(Metric::new("setup_s", v, "s"));
        }
        return s;
    }

    let parallel = workload
        .sweeps()
        .then(|| spawn(exe, workload, o, workloads::parallel_jobs(), false));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = 0.0;
    while traced.is_empty() || fits(last) {
        let t = probe::now();
        plain.push(spawn(exe, workload, o, 1, false));
        traced.push(spawn(exe, workload, o, 1, true));
        last = probe::secs_since(t);
    }
    let all: Vec<&PassResult> = plain.iter().chain(&traced).chain(&parallel).collect();
    let names = per_layer();
    let mut s = summarize(&traced, &all, &names);
    let ratio = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    };
    let overhead = ratio(median_of(&traced, "total_s"), median_of(&plain, "total_s"));
    let speedup = match &parallel {
        Some(p) => ratio(
            median_of(&plain, "wall_s"),
            median_of(std::slice::from_ref(p), "wall_s"),
        ),
        None => Some(1.0),
    };
    let derived = [
        ("trace.total_s", median_of(&traced, "total_s")),
        ("trace.overhead_frac", overhead.map(|r| r - 1.0)),
        ("bench.sweep.speedup_j2", speedup),
    ];
    for (name, value) in derived {
        if let Some(v) = value {
            let unit = names.iter().find(|(n, _)| n == name).map_or("", |n| n.1);
            s.metrics.push(Metric::new(name, v, unit));
        }
    }
    // Report order: the order of `names`.
    s.metrics
        .sort_by_key(|m| names.iter().position(|(n, _)| *n == m.name));
    s
}

/// Measures every selected workload, prints its metrics and the final
/// JSON line; returns whether every check passed.
fn bench(o: &Options, exe: &Path) -> bool {
    let expected = if o.trace { per_layer() } else { end_to_end() };
    let prefix = o.workloads.len() > 1;
    let (mut attempted, mut failed, mut complete) = (0, 0, true);
    let mut json_metrics = Vec::new();
    for &workload in &o.workloads {
        let s = measure(exe, workload, o);
        let name = workload.name();
        let mut out = String::new();
        for m in &s.metrics {
            out.push_str(&line(name, m));
            let key = if prefix {
                format!("{name}.{}", m.name)
            } else {
                m.name.clone()
            };
            json_metrics.push((key, m.value, m.unit.clone()));
        }
        let rate = if s.attempted > 0 {
            s.failed as f64 / s.attempted as f64
        } else {
            1.0
        };
        let _ = writeln!(out, "{name} error_rate {rate} frac");
        let _ = writeln!(out, "{name} passes {} count", s.passes);
        print!("{out}");
        complete &= s.metrics.len() == expected.len();
        attempted += s.attempted;
        failed += s.failed;
    }
    let correct = failed == 0 && attempted > 0 && complete;
    println!(
        "{}",
        json_result(correct, attempted.max(1), failed, &json_metrics)
    );
    correct
}

/// The final result line.
fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn both_argument_forms_parse() {
        let o = parse_args(&args("--workload serve --seed 7 --seconds 25 --trace 0")).unwrap();
        assert_eq!(o.workloads, [Workload::Serve]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 25, false));
        let o = parse_args(&args("--trace zoo report zoo")).unwrap();
        assert!(o.trace);
        assert_eq!(o.workloads, [Workload::Zoo, Workload::Report]);
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.workloads, Workload::ALL);
        assert_eq!(o.seed, DEFAULT_SEED);
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        for bad in [
            "nope",
            "--workload nope",
            "--seed abc",
            "--seed -1",
            "--seed",
            "--seconds 0",
            "--jobs 2",
            "--child report zoo",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
        let e = parse_args(&args("--workload nope")).unwrap_err();
        assert!(e.contains("unknown workload 'nope'"), "{e}");
    }

    #[test]
    fn child_protocol_round_trips_every_metric() {
        let mut text = String::from("stray output\n");
        let names: Vec<(String, &str)> = end_to_end().into_iter().chain(per_layer()).collect();
        for (i, (name, unit)) in names.iter().enumerate() {
            let m = Metric::new(name.clone(), 0.1 + i as f64 / 7.0, unit);
            text.push_str(&line("zoo", &m));
        }
        text.push_str(&line("serve", &Metric::new("wall_s", 9.0, "s")));
        let parsed = parse_lines("zoo", &text);
        assert_eq!(parsed.len(), names.len());
        for (i, (name, unit)) in names.iter().enumerate() {
            assert_eq!(
                parsed[name],
                (0.1 + i as f64 / 7.0, unit.to_string()),
                "{name}"
            );
        }
    }

    #[test]
    fn failed_pass_shows_in_the_error_rate() {
        let ok: PassResult = Ok(parse_lines(
            "zoo",
            "zoo wall_s 2.5 s\nzoo checks.attempted 9 count\nzoo checks.failed 0 count\n",
        ));
        let crashed: PassResult = Err("zoo pass exit status: 101".into());
        let passes = [ok, crashed];
        let s = summarize(
            &passes,
            &passes.iter().collect::<Vec<_>>(),
            &[("wall_s".to_string(), "s")],
        );
        assert_eq!((s.attempted, s.failed), (10, 1));
        assert_eq!(s.metrics, [Metric::new("wall_s", 2.5, "s")]);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = json_result(true, 3, 0, &[("wall_s".into(), 1.25, "s".into())]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn only_child_passes_take_internal_flags() {
        let o = parse_args(&args("--child --setup-only --workload zoo --jobs 1")).unwrap();
        assert!(o.setup_only);
        assert_eq!(o.child_jobs, Some(1));
        assert!(parse_args(&args("--setup-only zoo")).is_err());
    }

    /// Every workload at smoke size, untraced and traced, through the
    /// code a pass runs: all checks pass and every metric is reported
    /// (`setup_s` is the parent's timing of set-up-only passes).
    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let clock = if trace { Clock::on() } else { Clock::off() };
                let pass = workloads::run(
                    workload,
                    DEFAULT_SEED,
                    1,
                    &Size::SMOKE,
                    &clock,
                    Entry::now(),
                );
                let name = workload.name();
                assert!(
                    pass.checks.failures.is_empty(),
                    "{name}: {:?}",
                    pass.checks.failures
                );
                assert!(pass.checks.attempted > 0, "{name}");
                let metrics = pass_metrics(&pass, &clock);
                let reported = |n: &str| metrics.iter().any(|m| m.name == n);
                for (n, _) in END_TO_END.iter().filter(|(n, _)| *n != "setup_s") {
                    assert!(reported(n), "{name}: {n} missing");
                }
                if trace {
                    for (n, _) in per_layer() {
                        let derived = [
                            "trace.total_s",
                            "trace.overhead_frac",
                            "bench.sweep.speedup_j2",
                        ];
                        assert!(
                            reported(&n) || derived.contains(&n.as_str()),
                            "{name}: {n} missing"
                        );
                    }
                    let spans = clock.spans_jsonl(name);
                    assert!(
                        spans.contains("\"name\":\"execute\""),
                        "{name}: no execute span"
                    );
                }
                for m in &metrics {
                    assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
                }
            }
        }
    }
}
