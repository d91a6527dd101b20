//! The experiment report CLI: regenerates every table and figure of the
//! DayDream paper.
//!
//! ```bash
//! report                 # all figures, paper scale (50 runs/workflow)
//! report --quick         # smoke scale (8 runs, phases ÷ 10)
//! report fig11 fig14     # specific figures
//! report --runs 10       # override runs per workflow
//! report --seed 7        # different seed
//! report --scale 5       # phase-count divisor
//! report --jobs 8        # sweep worker threads (default: all cores)
//! ```
//!
//! Output is byte-identical at any `--jobs` setting: each run's
//! randomness derives only from (workflow, run index, seed), and the
//! sweep executor re-orders results by cell index. A bad argument prints
//! the usage line and exits 2 before any work starts.

use dd_bench::experiments as exp;
use dd_bench::figures::{self, FIGURES, STANDALONE};
use dd_bench::{EvaluationMatrix, ExperimentContext, SchedulerKind};
use std::path::PathBuf;

/// What the command line asks for.
#[derive(Debug, Default)]
struct Options {
    ctx: ExperimentContext,
    selected: Vec<String>,
    include_ablations: bool,
    csv_dir: Option<PathBuf>,
    help: bool,
}

fn usage() -> String {
    format!(
        "usage: report [--quick] [--runs N] [--seed N] [--scale N] [--jobs N] [--csv DIR] [figures...]\n\
         figures: {} {} ablations all",
        FIGURES.join(" "),
        STANDALONE.join(" ")
    )
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a number, got '{value}'"))
}

/// Parses the arguments after the program name. Figure names are checked
/// here, so a typo fails before the evaluation matrix is computed.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || -> Result<&String, String> {
            i += 1;
            args.get(i)
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag {
            "--quick" => {
                opts.ctx = ExperimentContext {
                    seed: opts.ctx.seed,
                    jobs: opts.ctx.jobs,
                    ..ExperimentContext::quick()
                };
            }
            "--runs" => opts.ctx.runs_per_workflow = number(flag, value()?)?,
            "--seed" => opts.ctx.seed = number(flag, value()?)?,
            "--scale" => opts.ctx.scale_down = number(flag, value()?)?,
            "--jobs" => opts.ctx.jobs = number::<usize>(flag, value()?)?.max(1),
            "--csv" => opts.csv_dir = Some(PathBuf::from(value()?)),
            "--help" | "-h" => opts.help = true,
            "ablations" => opts.include_ablations = true,
            "all" => {
                opts.selected = FIGURES.iter().map(|s| s.to_string()).collect();
                opts.include_ablations = true;
            }
            name if FIGURES.contains(&name) || STANDALONE.contains(&name) => {
                opts.selected.push(name.to_string());
            }
            other if other.starts_with('-') => return Err(format!("unknown option '{other}'")),
            other => return Err(format!("unknown figure '{other}'")),
        }
        i += 1;
    }
    if opts.ctx.runs_per_workflow == 0 {
        return Err("--runs must be at least 1".into());
    }
    if opts.selected.is_empty() && !opts.include_ablations {
        opts.selected = FIGURES.iter().map(|s| s.to_string()).collect();
        opts.include_ablations = true;
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("report: {e}\n{}", usage());
        std::process::exit(2)
    });
    if opts.help {
        eprintln!("{}", usage());
        return;
    }
    let ctx = opts.ctx;

    println!(
        "DayDream reproduction report — seed {}, {} runs/workflow, phase scale 1/{}",
        ctx.seed, ctx.runs_per_workflow, ctx.scale_down
    );

    // The evaluation figures share one matrix; compute it lazily.
    let needs_matrix = opts.csv_dir.is_some()
        || opts
            .selected
            .iter()
            .any(|f| figures::needs_matrix(f.as_str()));
    let matrix = needs_matrix.then(|| {
        eprintln!(
            "[computing evaluation matrix: 3 workflows x {} runs x {} schedulers...]",
            ctx.runs_per_workflow,
            SchedulerKind::PAPER.len()
        );
        EvaluationMatrix::compute_for(&ctx, &SchedulerKind::PAPER)
    });

    for figure in &opts.selected {
        let out = figures::render(figure.as_str(), &ctx, matrix.as_ref())
            .expect("parse_args admits only known figures");
        println!("{out}");
    }
    if opts.include_ablations {
        println!("{}", exp::ablations::run(&ctx));
    }
    if let (Some(dir), Some(matrix)) = (opts.csv_dir, matrix.as_ref()) {
        match dd_bench::write_matrix_csv(matrix, &dir) {
            Ok(files) => eprintln!("[wrote {} to {}]", files.join(", "), dir.display()),
            Err(e) => eprintln!("csv export failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_and_figures_parse() {
        let opts = parse(&["--runs", "6", "--jobs", "0", "fig11", "zoo"]).unwrap();
        assert_eq!((opts.ctx.runs_per_workflow, opts.ctx.jobs), (6, 1));
        assert_eq!(opts.selected, ["fig11", "zoo"]);
        assert!(!opts.include_ablations);

        let all = parse(&[]).unwrap();
        assert_eq!(all.selected.len(), FIGURES.len());
        assert!(all.include_ablations && !all.help);
        assert!(parse(&["--help"]).unwrap().help);
    }

    #[test]
    fn a_flag_without_its_value_is_an_error() {
        for flag in ["--runs", "--seed", "--scale", "--jobs", "--csv"] {
            let err = parse(&["fig11", flag]).unwrap_err();
            assert_eq!(err, format!("{flag} requires a value"));
        }
    }

    #[test]
    fn a_non_number_is_an_error() {
        assert_eq!(
            parse(&["--runs", "abc"]).unwrap_err(),
            "--runs takes a number, got 'abc'"
        );
        assert_eq!(
            parse(&["--runs", "0"]).unwrap_err(),
            "--runs must be at least 1"
        );
    }

    #[test]
    fn an_unknown_figure_or_option_is_an_error() {
        assert_eq!(
            parse(&["fig11", "nosuchfig"]).unwrap_err(),
            "unknown figure 'nosuchfig'"
        );
        assert_eq!(parse(&["--fast"]).unwrap_err(), "unknown option '--fast'");
    }
}
