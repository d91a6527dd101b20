//! # dd-lint — workspace determinism & simulation-correctness lints
//!
//! A self-contained static-analysis pass over the DayDream workspace: a
//! hand-rolled, comment/string-aware token scanner (no external parser
//! dependencies, consistent with the offline `vendor/` policy) that
//! enforces the repo-specific rules documented in [`rules`] — no
//! randomized hash containers, no wall clocks or entropy in simulation
//! crates, seeded RNG construction only, NaN-safe float ordering, and no
//! undocumented panics or allocations in the DES hot path.
//!
//! The analysis runs in two passes. Pass 1 scans each file in isolation:
//! the per-file token rules fire directly, and [`symbols`] extracts the
//! file's functions, call sites, and references. Pass 2 ([`graph`])
//! builds the workspace call graph and runs the cross-function rules.
//! Five of them share one breadth-first walk: `hot-path-panic`/
//! `hot-path-alloc` over everything transitively reachable from the
//! configured entry points, `determinism-taint` for call paths from
//! deterministic entry points to wall-clock/entropy sinks, and the
//! effect rules `par-purity` and `effect-contract`, which rank the hits
//! reached by [`effects::Level`]. `dead-pub-api` flags unreachable `pub`
//! surface.
//!
//! Scope is configured per rule in `dd-lint.toml` at the workspace root;
//! inline `dd-lint: allow(<rule>): <justification>` comments suppress
//! individual findings (the justification is mandatory and itself
//! linted). The `dd-lint` binary walks every non-vendor `src/` tree,
//! prints findings as `file:line:column: [rule] message` (`--format
//! json` for machines), and exits nonzero when any unsuppressed finding
//! remains.

pub mod config;
pub mod effects;
pub mod graph;
pub mod rules;
pub mod scan;
pub(crate) mod symbols;

pub use config::{Config, ConfigError, RuleScope};
pub use effects::Level;
pub use rules::{Finding, CONFIG_RULE, RULE_NAMES, SUPPRESSION_RULE};

use std::path::{Path, PathBuf};

/// Directory names never scanned (generated, foreign, or test-only code —
/// test targets may legitimately unwrap and measure wall time).
const SKIPPED_DIRS: &[&str] = &[
    "vendor", "target", "tests", "benches", "examples", "fixtures", ".git", ".github",
];

/// Name of the configuration file marking the workspace root.
pub const CONFIG_FILE: &str = "dd-lint.toml";

/// Lints one file's `source` as `rel_path` (workspace-relative, `/`
/// separators). The crate name is derived from the path: the directory
/// under `crates/`, or `root` for the facade package's `src/`.
pub fn lint_source(rel_path: &str, source: &str, config: &Config) -> Vec<Finding> {
    let crate_name = crate_of(rel_path);
    rules::check_file(rel_path, &crate_name, &scan::classify(source), config)
}

/// Crate directory name owning `rel_path`.
pub(crate) fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("root").to_string(),
        _ => "root".to_string(),
    }
}

/// Recursively collects the `.rs` files to lint under `root`, skipping
/// [`SKIPPED_DIRS`], in sorted (deterministic) order.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIPPED_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Directory names whose `.rs` files are *reference-only*: never linted
/// or symbolized, but their identifier references count as liveness
/// roots for `dead-pub-api` (a pub item exercised only by a test or
/// bench is not dead).
const REFERENCE_DIRS: &[&str] = &["tests", "benches", "examples"];

/// Recursively collects reference-only `.rs` files (anything under a
/// `tests/`, `benches/`, or `examples/` directory, minus `fixtures/`),
/// in sorted (deterministic) order.
pub fn collect_reference_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk_references(root, false, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk_references(dir: &Path, in_ref: bool, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || ["vendor", "target", "fixtures"].contains(&name.as_ref()) {
                continue;
            }
            walk_references(
                &path,
                in_ref || REFERENCE_DIRS.contains(&name.as_ref()),
                out,
            )?;
        } else if in_ref && name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs both analysis passes over the workspace under `root` (which must
/// contain `dd-lint.toml`): findings sorted by `(file, line, column,
/// rule)`.
pub fn analyze_tree(root: &Path) -> Result<Vec<Finding>, String> {
    let config_path = root.join(CONFIG_FILE);
    let text = std::fs::read_to_string(&config_path)
        .map_err(|e| format!("{}: {e}", config_path.display()))?;
    let config = Config::parse(&text).map_err(|e| e.to_string())?;
    analyze_tree_with_config(root, &config)
}

/// [`analyze_tree`] with an explicit configuration — the workspace-clean
/// integration tests use this to turn the graph rules on one at a time.
pub fn analyze_tree_with_config(root: &Path, config: &Config) -> Result<Vec<Finding>, String> {
    let walk_err = |e: std::io::Error| format!("walk {}: {e}", root.display());
    let read =
        |path: &Path| std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()));
    let mut files = Vec::new();
    for path in collect_sources(root).map_err(walk_err)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, read(&path)?));
    }
    let mut reference = Vec::new();
    for path in collect_reference_sources(root).map_err(walk_err)? {
        reference.push(read(&path)?);
    }
    let files: Vec<(&str, &str)> = files
        .iter()
        .map(|(r, s)| (r.as_str(), s.as_str()))
        .collect();
    let reference: Vec<&str> = reference.iter().map(String::as_str).collect();
    Ok(analyze_sources(&files, &reference, config))
}

/// Runs both passes over in-memory sources. `files` are `(rel_path,
/// source)` pairs of lintable sources; `reference` holds the sources of
/// reference-only files (tests/benches/examples).
pub fn analyze_sources(
    files: &[(&str, &str)],
    reference: &[&str],
    config: &Config,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut maps = Vec::new();
    for (rel, source) in files {
        let crate_name = crate_of(rel);
        let classified = scan::classify(source);
        findings.extend(rules::check_file(rel, &crate_name, &classified, config));
        maps.push(symbols::extract_file(rel, &crate_name, &classified));
    }
    let mut reference_refs = std::collections::BTreeSet::new();
    for source in reference {
        symbols::reference_idents(&scan::classify(source), &mut reference_refs);
    }
    let workspace = graph::Workspace::build(maps, reference_refs);
    findings.extend(workspace.run_rules(config));
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.column, &a.rule).cmp(&(&b.file, b.line, b.column, &b.rule))
    });
    findings
}

/// Renders findings for humans, one `file:line:column: [rule] message`
/// per line plus a summary.
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    if findings.is_empty() {
        out.push_str("dd-lint: clean\n");
    } else {
        out.push_str(&format!("dd-lint: {} finding(s)\n", findings.len()));
    }
    out
}

/// Renders findings as stable JSON:
/// `{"version":1,"findings":[{file,line,column,rule,message}..],"counts":{rule:n..}}`.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"version\":1,\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":{},\"line\":{},\"column\":{},\"rule\":{},\"message\":{}}}",
            json_str(&f.file),
            f.line,
            f.column,
            json_str(&f.rule),
            json_str(&f.message),
        ));
    }
    out.push_str("],\"counts\":{");
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for f in findings {
        *counts.entry(&f.rule).or_default() += 1;
    }
    for (i, (rule, n)) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", json_str(rule), n));
    }
    out.push_str("}}");
    out
}

/// Minimal JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_names_from_paths() {
        assert_eq!(crate_of("crates/dd-platform/src/des.rs"), "dd-platform");
        assert_eq!(crate_of("crates/core/src/lib.rs"), "core");
        assert_eq!(crate_of("src/lib.rs"), "root");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_shape_empty() {
        assert_eq!(
            render_json(&[]),
            "{\"version\":1,\"findings\":[],\"counts\":{}}"
        );
    }

    #[test]
    fn human_rendering() {
        assert!(render_human(&[]).contains("clean"));
        let f = Finding {
            file: "a.rs".into(),
            line: 3,
            column: 7,
            rule: "wall-clock".into(),
            message: "m".into(),
        };
        let text = render_human(&[f]);
        assert!(text.contains("a.rs:3:7: [wall-clock] m"));
        assert!(text.contains("1 finding(s)"));
    }
}
