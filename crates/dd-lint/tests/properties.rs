//! Property-based tests of the analyzer front end: the scanner is
//! line-count-stable, the full two-pass pipeline (scan → pass-1
//! extraction → graph build → rules) never panics on arbitrary Rust-ish
//! token soup.

use dd_lint::{analyze_sources, scan, Config};
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

/// A config that switches on every rule, entry points included, so the
/// pipeline exercises all code paths. The `par-purity` sink and the
/// contract patterns name the generated identifiers `x` and `ab_c`, so
/// the effect rules walk generated call graphs too.
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
[rule.par-purity]
crates = ["*"]
sinks = ["x"]
[rule.effect-contract]
crates = ["*"]
contracts = ["ab_c = pure", "x = panic"]
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
}
