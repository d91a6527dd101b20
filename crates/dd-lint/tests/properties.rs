//! Property-based tests of the analyzer front end: the scanner is
//! line-count-stable, the full two-pass pipeline (scan → pass-1
//! extraction → graph build → rules) never panics on arbitrary Rust-ish
//! token soup, and the effect fixpoint over arbitrary finite call
//! graphs terminates, is closed, and is monotone under edge insertion.

use dd_lint::effects::fixpoint;
use dd_lint::{analyze_sources, scan, Config, Effect, Level};
use proptest::prelude::*;

/// Building blocks deliberately weighted toward the constructs the
/// scanner and pass-1 header parser special-case: lifetimes vs char
/// literals, byte chars, raw strings, attributes, nesting tokens, and
/// the rule/suppression vocabulary.
const TOKENS: &[&str] = &[
    "fn ",
    "pub ",
    "pub(crate) ",
    "impl ",
    "mod ",
    "struct ",
    "enum ",
    "trait ",
    "use ",
    "const ",
    "static ",
    "let ",
    "match ",
    "for ",
    "where ",
    "-> u64 ",
    "= ",
    "{",
    "}",
    "(",
    ")",
    "<",
    ">",
    ";",
    ",",
    "\n",
    " ",
    "x",
    "ab_c",
    "'a",
    "b'\"'",
    "'\\''",
    "'{'",
    "\"str { \\\" } \"",
    "r#\"raw \" quote\"#",
    "//c\n",
    "/* block */",
    "/* open\n",
    "*/",
    "#[cfg(test)]\n",
    "#[derive(Debug)]\n",
    "#[deprecated]\n",
    "::",
    ".unwrap()",
    "Instant::now()",
    "format!(\"x\")",
    "Self::go()",
    "dd-lint: allow(wall-clock): why\n",
    "extern \"C\" ",
];

fn arb_source() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..TOKENS.len(), 0..120)
        .prop_map(|ixs| ixs.into_iter().map(|i| TOKENS[i]).collect())
}

/// An arbitrary lattice point: any level; nondet kind bits only at
/// `NonDet` (the invariant `effects::intrinsic` maintains).
fn arb_effect() -> impl Strategy<Value = Effect> {
    (0..Level::ALL.len(), 0u8..8).prop_map(|(l, bits)| {
        let level = Level::ALL[l];
        Effect {
            level,
            nondet: if level == Level::NonDet { bits } else { 0 },
        }
    })
}

/// An arbitrary call graph: per-node intrinsic effects plus an edge
/// list (indices folded modulo the node count when materialized, so
/// self-loops and duplicate edges occur — the fixpoint must not care).
fn arb_callgraph() -> impl Strategy<Value = (Vec<Effect>, Vec<(usize, usize)>)> {
    (
        proptest::collection::vec(arb_effect(), 1..10),
        proptest::collection::vec((0usize..64, 0usize..64), 0..24),
    )
}

/// Materializes the raw edge list into adjacency lists over `n` nodes.
fn adjacency(n: usize, raw: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut edges = vec![Vec::new(); n];
    for &(u, v) in raw {
        edges[u % n].push(v % n);
    }
    edges
}

/// A config that switches on every rule, entry points included, so the
/// pipeline exercises all code paths.
const FULL_CONFIG: &str = r#"
[rule.hash-container]
crates = ["*"]
[rule.wall-clock]
crates = ["*"]
[rule.rng-seed]
crates = ["*"]
[rule.float-ord]
crates = ["*"]
[rule.determinism-taint]
crates = ["*"]
entry_points = ["Executor::run"]
[rule.hot-path-panic]
crates = ["*"]
files = ["crates/fuzz/src/gen.rs"]
entry_points = ["Des::pop_loop"]
[rule.hot-path-alloc]
crates = ["*"]
entry_points = ["Des::pop_loop"]
[rule.dead-pub-api]
crates = ["*"]
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The scanner classifies exactly one `Line` per input line, no
    /// matter how unterminated literals and comments interleave.
    #[test]
    fn classify_is_line_count_stable(src in arb_source()) {
        let classified = scan::classify(&src);
        prop_assert_eq!(classified.lines.len(), src.lines().count());
    }

    /// The full two-pass analysis (pass-1 extraction included) never
    /// panics, and every finding stays within the source's line span.
    #[test]
    fn analysis_never_panics_and_spans_stay_in_bounds(
        src in arb_source(),
        reference in arb_source(),
    ) {
        let config = Config::parse(FULL_CONFIG).expect("full config parses");
        let findings = analyze_sources(
            &[("crates/fuzz/src/gen.rs", &src)],
            &[&reference],
            &config,
        );
        let lines = src.lines().count();
        for f in &findings {
            prop_assert!(f.line >= 1 && f.line <= lines.max(1), "{f:?}");
            prop_assert!(f.column >= 1, "{f:?}");
        }
    }

    /// The effect fixpoint terminates on arbitrary graphs (cycles and
    /// self-loops included), is a closed post-fixpoint (each node equals
    /// its intrinsic joined with its callees — nothing above, nothing
    /// below), and inserting any edge can only grow inferred effects
    /// (monotonicity: extra, over-approximated call edges can only make
    /// the effect rules stricter).
    #[test]
    fn effect_fixpoint_is_closed_and_monotone(
        (intr, raw_edges) in arb_callgraph(),
        from in 0usize..64,
        to in 0usize..64,
    ) {
        let n = intr.len();
        let edges = adjacency(n, &raw_edges);
        let eff = fixpoint(&intr, &edges);
        for u in 0..n {
            let mut want = intr[u];
            for &v in &edges[u] {
                want = want.join(eff[v]);
            }
            prop_assert_eq!(eff[u], want, "node {} is not exactly closed", u);
            prop_assert!(intr[u].le(eff[u]), "node {} lost its intrinsic effect", u);
        }

        let mut grown = edges.clone();
        grown[from % n].push(to % n);
        let eff2 = fixpoint(&intr, &grown);
        for u in 0..n {
            prop_assert!(
                eff[u].le(eff2[u]),
                "edge insertion shrank node {}: {} -> {}", u, eff[u], eff2[u]
            );
        }
    }
}
