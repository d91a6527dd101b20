//! Fixture-driven tests for the graph rules. Each reachability rule
//! (`determinism-taint`, `hot-path-panic`, `hot-path-alloc`) has one
//! deny and one justified-allow fixture, and `hot-path-alloc` a second
//! pair whose calls go through `use` aliases; `dead-pub-api` has a liveness
//! fixture covering bin, reference-file, and suppression roots. The
//! second half runs each graph rule alone over the real workspace with
//! its production scoping from `dd-lint.toml` and asserts cleanliness.

use dd_lint::{analyze_sources, analyze_tree_with_config, Config, Finding};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/graph")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

fn analyze(files: &[(&str, &str)], reference: &[&str], config: &str) -> Vec<Finding> {
    let config = Config::parse(config).expect("test config parses");
    analyze_sources(files, reference, &config)
}

const TAINT_CONFIG: &str =
    "[rule.determinism-taint]\ncrates = [\"*\"]\nentry_points = [\"Executor::run\"]\n";

#[test]
fn determinism_taint_denies_reachable_sink() {
    let src = fixture("taint_deny.rs");
    let f = analyze(
        &[("crates/simfix/src/taint_deny.rs", &src)],
        &[],
        TAINT_CONFIG,
    );
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "determinism-taint");
    assert_eq!(f[0].line, 13);
    assert!(f[0].message.contains("`Instant::now`"), "{}", f[0].message);
    assert!(
        f[0].message
            .contains("[call chain: Executor::run -> taint_deny::stamp_phase]"),
        "{}",
        f[0].message
    );
}

#[test]
fn determinism_taint_justified_allow_is_silent() {
    let src = fixture("taint_allow.rs");
    let f = analyze(
        &[("crates/simfix/src/taint_allow.rs", &src)],
        &[],
        TAINT_CONFIG,
    );
    assert!(f.is_empty(), "{f:#?}");
}

const PANIC_CONFIG: &str =
    "[rule.hot-path-panic]\ncrates = [\"*\"]\nentry_points = [\"Des::pop_loop\"]\n";

#[test]
fn panic_reachability_denies_transitive_panics() {
    let src = fixture("panic_deny.rs");
    let f = analyze(
        &[("crates/simfix/src/panic_deny.rs", &src)],
        &[],
        PANIC_CONFIG,
    );
    let spans: Vec<(usize, &str)> = f.iter().map(|f| (f.line, f.rule.as_str())).collect();
    assert_eq!(
        spans,
        vec![(14, "hot-path-panic"), (20, "hot-path-panic")],
        "{f:#?}"
    );
    // The deeper hit carries the full two-hop chain.
    assert!(
        f[1].message
            .contains("[call chain: Des::pop_loop -> panic_deny::advance -> panic_deny::drain]"),
        "{}",
        f[1].message
    );
}

#[test]
fn panic_reachability_justified_allow_is_silent() {
    let src = fixture("panic_allow.rs");
    let f = analyze(
        &[("crates/simfix/src/panic_allow.rs", &src)],
        &[],
        PANIC_CONFIG,
    );
    assert!(f.is_empty(), "{f:#?}");
}

const ALLOC_CONFIG: &str =
    "[rule.hot-path-alloc]\ncrates = [\"*\"]\nentry_points = [\"Des::pop_loop\"]\n";

#[test]
fn alloc_propagation_denies_reachable_allocation() {
    let src = fixture("alloc_deny.rs");
    let f = analyze(
        &[("crates/simfix/src/alloc_deny.rs", &src)],
        &[],
        ALLOC_CONFIG,
    );
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "hot-path-alloc");
    assert_eq!(f[0].line, 13);
    assert!(f[0].message.contains("`format!`"), "{}", f[0].message);
}

#[test]
fn alloc_propagation_justified_allow_is_silent() {
    let src = fixture("alloc_allow.rs");
    let f = analyze(
        &[("crates/simfix/src/alloc_allow.rs", &src)],
        &[],
        ALLOC_CONFIG,
    );
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn alloc_propagation_follows_use_aliases() {
    let src = fixture("alias_deny.rs");
    let f = analyze(
        &[("crates/simfix/src/alias_deny.rs", &src)],
        &[],
        ALLOC_CONFIG,
    );
    let lines: Vec<usize> = f.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![20, 24, 28], "{f:#?}");
    for (finding, callee) in f.iter().zip(["component", "attempt", "label"]) {
        assert_eq!(finding.rule, "hot-path-alloc");
        assert!(
            finding
                .message
                .contains(&format!("[call chain: Des::pop_loop -> emit::{callee}]")),
            "{}",
            finding.message
        );
    }
}

#[test]
fn alloc_propagation_through_aliases_justified_allow_is_silent() {
    let src = fixture("alias_allow.rs");
    let f = analyze(
        &[("crates/simfix/src/alias_allow.rs", &src)],
        &[],
        ALLOC_CONFIG,
    );
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn dead_pub_api_bin_reference_and_allow_roots() {
    let lib = fixture("dead_pub.rs");
    let main = fixture("dead_pub_main.rs");
    let f = analyze(
        &[
            ("crates/simfix/src/dead_pub.rs", &lib),
            ("crates/simfix/src/main.rs", &main),
        ],
        &["fn poke() { reached_from_tests(); }"],
        "[rule.dead-pub-api]\ncrates = [\"*\"]\n",
    );
    // Only the genuinely dead fn and struct survive: the bin covers
    // `reached_from_bin`, the reference source covers
    // `reached_from_tests`, the allow covers `kept_extension_point`.
    let spans: Vec<(usize, &str)> = f.iter().map(|f| (f.line, f.rule.as_str())).collect();
    assert_eq!(
        spans,
        vec![(12, "dead-pub-api"), (14, "dead-pub-api")],
        "{f:#?}"
    );
    assert!(
        f[0].message.contains("`pub fn orphan_helper`"),
        "{}",
        f[0].message
    );
    assert!(
        f[1].message.contains("`pub struct OrphanConfig`"),
        "{}",
        f[1].message
    );
}

// ---------------------------------------------------------------------
// Workspace-clean gates: each graph rule, alone, with its production
// scoping from `dd-lint.toml`, over the real tree.
// ---------------------------------------------------------------------

fn workspace_findings(config: &str) -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let config = Config::parse(config).expect("workspace config parses");
    analyze_tree_with_config(&root, &config).expect("analyze_tree runs")
}

#[test]
fn workspace_clean_under_determinism_taint() {
    let f = workspace_findings(
        "[rule.determinism-taint]\ncrates = [\"*\"]\nentry_points = [\"Executor::run\", \"dd-bench::experiments::run\"]\n",
    );
    assert!(f.is_empty(), "workspace not taint-clean:\n{f:#?}");
}

#[test]
fn workspace_clean_under_graph_hot_path_panic() {
    let f = workspace_findings(
        "[rule.hot-path-panic]\ncrates = [\"dd-platform\", \"dd-stats\", \"core\", \"dd-wfdag\"]\nfiles = [\"crates/dd-platform/src/des.rs\", \"crates/dd-platform/src/faas_des.rs\", \"crates/dd-platform/src/faults.rs\"]\nentry_points = [\"dd-platform::DesFaasExecutor::serve_with\"]\n",
    );
    assert!(f.is_empty(), "workspace not panic-clean:\n{f:#?}");
}

#[test]
fn workspace_clean_under_graph_hot_path_alloc() {
    let f = workspace_findings(
        "[rule.hot-path-alloc]\ncrates = [\"dd-platform\"]\nfiles = [\"crates/dd-platform/src/des.rs\", \"crates/dd-platform/src/pool.rs\", \"crates/dd-platform/src/instance.rs\", \"crates/dd-platform/src/faas_des.rs\"]\nentry_points = [\"dd-platform::DesFaasExecutor::serve_with\"]\n",
    );
    assert!(f.is_empty(), "workspace not alloc-clean:\n{f:#?}");
}

#[test]
fn workspace_clean_under_dead_pub_api() {
    let f = workspace_findings("[rule.dead-pub-api]\ncrates = [\"*\"]\n");
    assert!(f.is_empty(), "workspace has dead pub API:\n{f:#?}");
}
