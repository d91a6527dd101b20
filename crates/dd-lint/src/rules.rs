//! The determinism & simulation-correctness rules.
//!
//! | rule | id | what it catches |
//! |---|---|---|
//! | `hash-container`  | D1 | `HashMap`/`HashSet` with the default (randomized) hasher — iteration-order nondeterminism |
//! | `wall-clock`      | D2 | `Instant::now` / `SystemTime` / entropy RNG inside simulation crates |
//! | `rng-seed`        | D3 | RNG construction not via seeded constructors (`thread_rng`, `from_entropy`, `rand::random`, `OsRng`) |
//! | `float-ord`       | N1 | NaN-unsafe float ordering via `partial_cmp` — require `f64::total_cmp` or `SimTime` |
//! | `hot-path-panic`  | P1 | `panic!` / `.unwrap()` / `.expect(` in the DES event-loop hot path outside documented invariants |
//! | `hot-path-alloc`  | P2 | `String::from` / `.to_string()` / `.clone()` / `format!` in the DES event-loop hot path — per-event allocation |
//! | `determinism-taint` | D4 | a call path from an `Executor::run` impl or experiment `run()` to a wall-clock/entropy/hash-iteration sink (graph rule — see [`crate::graph`]) |
//! | `dead-pub-api`    | A2 | `pub` items unreachable from any bin, test, bench, or the facade (graph rule) |
//! | `par-purity`      | E1 | a shared-mutability / nondeterminism / I/O token reachable inside a parallel fan-out (effect rule — see [`crate::effects`]) |
//! | `effect-contract` | E2 | a function that reaches a hit above its declared effect level in `dd-lint.toml` (effect rule) |
//! | `suppression`     | —  | malformed `dd-lint: allow(..)` directives (unknown rule, missing justification) |
//! | `config`          | —  | `dd-lint.toml` patterns that match nothing in the scanned tree |
//!
//! `hot-path-panic` and `hot-path-alloc` run in two complementary modes:
//! every file listed under `files` in `dd-lint.toml` is still token-checked
//! line by line (the v1 behaviour), *and* the call-graph pass extends the
//! same token checks to every function transitively reachable from the
//! configured `entry_points` — wherever it is defined (reported only
//! inside the rule's `crates` scope, and never double-reported for
//! `files`-listed paths).
//!
//! Suppression syntax, always with a mandatory justification after the
//! closing paren:
//!
//! ```text
//! // dd-lint: allow(wall-clock): measuring real scheduler latency is the experiment
//! ```
//!
//! A directive on its own line covers the next line; a trailing directive
//! covers its own line. Several rules may be listed comma-separated.

use crate::config::Config;
use crate::scan::Classified;
use std::collections::BTreeMap;

/// Every scoping-configurable rule name.
pub const RULE_NAMES: &[&str] = &[
    "hash-container",
    "wall-clock",
    "rng-seed",
    "float-ord",
    "hot-path-panic",
    "hot-path-alloc",
    "determinism-taint",
    "dead-pub-api",
    "par-purity",
    "effect-contract",
];

/// Rule violated by malformed suppression directives themselves. Not
/// scoped (always on) and not suppressible.
pub const SUPPRESSION_RULE: &str = "suppression";

/// Pseudo-rule for configuration-rot findings: `dd-lint.toml` patterns
/// (`entry_points`, `sinks`, `files`, contract symbols) that match
/// nothing in the scanned tree. Not scoped (validated whenever the
/// owning rule is configured) and not suppressible — fix the config.
pub const CONFIG_RULE: &str = "config";

/// One lint finding with a `file:line:column` span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column of the offending token.
    pub column: usize,
    /// Rule name.
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.column, self.rule, self.message
        )
    }
}

/// Tokens that read wall clocks or entropy (rule `wall-clock`).
pub(crate) const WALL_CLOCK_TOKENS: &[&str] =
    &["Instant::now", "SystemTime", "thread_rng", "from_entropy"];

/// Tokens that construct RNGs without a caller-supplied seed (rule
/// `rng-seed`).
const RNG_TOKENS: &[&str] = &["thread_rng", "from_entropy", "rand::random", "OsRng"];

/// Nondeterminism *sinks* for the graph-based `determinism-taint` rule:
/// wall clocks, entropy sources, and randomized-hash-state constructors
/// whose iteration order varies per process.
pub(crate) const TAINT_SINK_TOKENS: &[&str] = &[
    "Instant::now",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "rand::random",
    "OsRng",
    "RandomState",
    "DefaultHasher",
];

/// Panicking constructs checked in hot-path files (rule `hot-path-panic`).
pub(crate) const PANIC_TOKENS: &[&str] = &[
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    ".unwrap()",
    ".expect(",
];

/// Allocating constructs checked in hot-path files (rule
/// `hot-path-alloc`). The DES pop loop runs millions of times per
/// report; a stray per-event `String` or clone is a silent
/// order-of-magnitude regression. Once-per-run allocations (e.g. the
/// scheduler name in the final `RunOutcome`) carry inline allows.
pub(crate) const ALLOC_TOKENS: &[&str] = &[
    "String::from",
    ".to_string()",
    ".to_owned()",
    ".clone()",
    "format!",
];

/// Shared-mutability constructs: hits of effect level `SharedMut` for
/// the effect rules ([`crate::effects`]). Interior mutability and
/// atomics are invisible to `&self` signatures, so a closure fanned
/// out by `par_map` can observe cross-thread write order through them —
/// the exact hazard `par-purity` exists to catch. Plain `let mut` locals
/// are *not* listed: unshared mutation is pure.
pub(crate) const SHAREDMUT_TOKENS: &[&str] = &[
    "Mutex",
    "RwLock",
    "RefCell",
    "UnsafeCell",
    "OnceLock",
    "static mut",
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU32",
    "AtomicU64",
    "AtomicI64",
    ".fetch_add(",
    ".fetch_sub(",
    ".fetch_or(",
    ".fetch_and(",
    ".compare_exchange(",
];

/// I/O constructs: hits of effect level `Io`, the strongest level.
/// Output interleaving and filesystem state are observable across
/// threads and across runs.
pub(crate) const IO_TOKENS: &[&str] = &[
    "println!",
    "eprintln!",
    "print!",
    "eprint!",
    "fs::write",
    "fs::read",
    "fs::create_dir",
    "fs::remove",
    "File::create",
    "File::open",
    "io::stdin",
    "io::stdout",
    "io::stderr",
    ".write_all(",
    ".read_to_string(",
    ".read_to_end(",
];

/// 1-based Unicode code-point column of byte offset `at` in `code`.
///
/// [`find_tokens`] returns byte offsets; on lines holding multi-byte
/// characters (non-ASCII identifiers or comments) a byte column does not
/// match what editors display, so every emitted span converts through
/// here. The scanner blanks literals one space per *character*, keeping
/// code-point columns (but not byte columns) aligned with the original
/// source.
pub(crate) fn char_column(code: &str, at: usize) -> usize {
    code[..at].chars().count() + 1
}

/// Lints one classified file, applying suppressions. `rel_path` uses `/`
/// separators relative to the workspace root; `crate_name` is the crate
/// directory name (`root` for the workspace facade package).
pub fn check_file(
    rel_path: &str,
    crate_name: &str,
    classified: &Classified,
    config: &Config,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let suppressions = collect_suppressions(rel_path, classified, &mut findings);

    let in_scope = |rule: &str| -> bool { config.scope(rule).covers(crate_name, rel_path) };
    // Hot-path rules are per-file only for `files`-listed paths; their
    // `crates` key is the *reporting* scope of the call-graph pass (see
    // module docs), so it must not trigger whole-crate token checks here.
    let in_files = |rule: &str| -> bool { config.scope(rule).files.iter().any(|f| f == rel_path) };
    let hash_scope = in_scope("hash-container");
    let clock_scope = in_scope("wall-clock");
    let rng_scope = in_scope("rng-seed");
    let float_scope = in_scope("float-ord");
    let panic_scope = in_files("hot-path-panic");
    let alloc_scope = in_files("hot-path-alloc");

    for (idx, line) in classified.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let lineno = idx + 1;
        let code = line.code.as_str();
        // Takes the *byte* offset from `find_tokens`; emitted columns are
        // 1-based Unicode code points (see `char_column`).
        let mut emit = |rule: &str, at: usize, message: String| {
            if !suppressed(&suppressions, lineno, rule) {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: lineno,
                    column: char_column(code, at),
                    rule: rule.to_string(),
                    message,
                });
            }
        };

        if hash_scope {
            for name in ["HashMap", "HashSet"] {
                for col in find_idents(code, name) {
                    if has_explicit_hasher(code, col + name.len(), name == "HashMap") {
                        continue;
                    }
                    emit(
                        "hash-container",
                        col,
                        format!(
                            "{name} with the default randomized hasher iterates \
                             nondeterministically; use BTree{} or an explicit \
                             deterministic hasher",
                            &name[4..]
                        ),
                    );
                }
            }
        }

        if clock_scope {
            for token in WALL_CLOCK_TOKENS {
                for col in find_tokens(code, token) {
                    emit(
                        "wall-clock",
                        col,
                        format!(
                            "`{token}` reads wall-clock time or entropy inside a \
                             simulation crate; simulations must only consume SimTime \
                             and seeded RNG streams"
                        ),
                    );
                }
            }
        }

        if rng_scope {
            for token in RNG_TOKENS {
                for col in find_tokens(code, token) {
                    // Entropy tokens double as wall-clock findings in
                    // simulation crates; report each span once.
                    if clock_scope && WALL_CLOCK_TOKENS.contains(token) {
                        continue;
                    }
                    emit(
                        "rng-seed",
                        col,
                        format!(
                            "`{token}` constructs an unseeded RNG; construct RNGs \
                             only via seeded constructors (SeedStream, seed_from_u64, \
                             from_seed)"
                        ),
                    );
                }
            }
        }

        if float_scope {
            for col in find_tokens(code, "partial_cmp") {
                // `fn partial_cmp` defines the trait method; that is the
                // one place the name legitimately appears.
                if code[..col].trim_end().ends_with("fn") {
                    continue;
                }
                emit(
                    "float-ord",
                    col,
                    "`partial_cmp` on floats is NaN-unsafe (None collapses the \
                     order); use f64::total_cmp or the SimTime ordering wrapper"
                        .to_string(),
                );
            }
        }

        if panic_scope {
            for token in PANIC_TOKENS {
                for col in find_tokens(code, token) {
                    emit(
                        "hot-path-panic",
                        col,
                        format!(
                            "`{token}` in the DES event-loop hot path; convert to a \
                             dd_invariant!/dd_debug_invariant! check or suppress with \
                             a documented justification"
                        ),
                    );
                }
            }
        }

        if alloc_scope {
            for token in ALLOC_TOKENS {
                for col in find_tokens(code, token) {
                    emit(
                        "hot-path-alloc",
                        col,
                        format!(
                            "`{token}` allocates in the DES event-loop hot path; hoist \
                             the allocation out of the per-event path (scratch buffer, \
                             integer id, arena) or suppress with a documented \
                             justification for once-per-run sites"
                        ),
                    );
                }
            }
        }
    }
    findings
}

/// line → rules allowed on that line.
pub(crate) type Suppressions = BTreeMap<usize, Vec<String>>;

/// Extracts `dd-lint: allow(..): why` directives; malformed ones become
/// `suppression` findings.
pub(crate) fn collect_suppressions(
    rel_path: &str,
    classified: &Classified,
    findings: &mut Vec<Finding>,
) -> Suppressions {
    let mut map: Suppressions = BTreeMap::new();
    for (idx, line) in classified.lines.iter().enumerate() {
        let lineno = idx + 1;
        let Some(pos) = line.comment.find("dd-lint:") else {
            continue;
        };
        // Backtick-quoted mentions are prose *about* the syntax (docs),
        // not directives.
        if line.comment[..pos].ends_with('`') {
            continue;
        }
        let directive = line.comment[pos + "dd-lint:".len()..].trim();
        let mut bad = |message: String| {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: lineno,
                column: 1,
                rule: SUPPRESSION_RULE.to_string(),
                message,
            });
        };
        let Some(rest) = directive.strip_prefix("allow(") else {
            bad(format!("malformed dd-lint directive {directive:?} (expected `allow(<rule>, ..): <justification>`)"));
            continue;
        };
        let Some((rules_part, tail)) = rest.split_once(')') else {
            bad("unterminated allow(..) rule list".to_string());
            continue;
        };
        let justification = tail.trim_start().strip_prefix(':').map(str::trim);
        match justification {
            None | Some("") => {
                bad(format!(
                    "suppression allow({rules_part}) is missing its mandatory \
                     justification (`allow(<rule>): <why this is safe>`)"
                ));
                continue;
            }
            Some(_) => {}
        }
        let mut rules = Vec::new();
        let mut ok = true;
        for rule in rules_part.split(',').map(str::trim) {
            if RULE_NAMES.contains(&rule) {
                rules.push(rule.to_string());
            } else {
                bad(format!(
                    "allow() names unknown rule {rule:?} (known: {RULE_NAMES:?})"
                ));
                ok = false;
            }
        }
        if !ok {
            continue;
        }
        // Standalone comment lines cover the next line; trailing comments
        // cover their own line.
        let target = if line.code.trim().is_empty() {
            lineno + 1
        } else {
            lineno
        };
        map.entry(target).or_default().extend(rules);
    }
    map
}

pub(crate) fn suppressed(map: &Suppressions, line: usize, rule: &str) -> bool {
    map.get(&line)
        .is_some_and(|rules| rules.iter().any(|r| r == rule))
}

/// All starting byte offsets of `token` in `code` with identifier
/// boundaries on both sides (where the token edge is itself an identifier
/// character).
pub(crate) fn find_tokens(code: &str, token: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find(token) {
        let at = from + rel;
        from = at + token.len();
        let first = token.chars().next().expect("non-empty token");
        let last = token.chars().next_back().expect("non-empty token");
        if is_ident(first) && code[..at].chars().next_back().is_some_and(is_ident) {
            continue;
        }
        if is_ident(last)
            && code[at + token.len()..]
                .chars()
                .next()
                .is_some_and(is_ident)
        {
            continue;
        }
        out.push(at);
    }
    out
}

/// Like [`find_tokens`] for plain identifiers.
fn find_idents(code: &str, ident: &str) -> Vec<usize> {
    find_tokens(code, ident)
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether the generic list following a `HashMap`/`HashSet` ident names an
/// explicit hasher (a third / second type parameter at angle depth 1).
/// Only same-line generics are recognized; multi-line generic lists stay
/// flagged (suppress with a justification if genuinely deterministic).
fn has_explicit_hasher(code: &str, after_ident: usize, is_map: bool) -> bool {
    let rest = code[after_ident..].trim_start();
    let Some(generics) = rest.strip_prefix('<') else {
        return false;
    };
    let mut depth = 1u32;
    let mut commas = 0u32;
    for c in generics.chars() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            ',' if depth == 1 => commas += 1,
            _ => {}
        }
    }
    commas >= if is_map { 2 } else { 1 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::classify;

    fn cfg_all() -> Config {
        Config::parse(
            "[rule.hash-container]\ncrates = [\"*\"]\n\
             [rule.wall-clock]\ncrates = [\"*\"]\n\
             [rule.rng-seed]\ncrates = [\"*\"]\n\
             [rule.float-ord]\ncrates = [\"*\"]\n\
             [rule.hot-path-panic]\nfiles = [\"x.rs\"]\n\
             [rule.hot-path-alloc]\nfiles = [\"x.rs\"]\n",
        )
        .expect("static config")
    }

    fn lint(src: &str) -> Vec<Finding> {
        check_file("x.rs", "demo", &classify(src), &cfg_all())
    }

    #[test]
    fn hashmap_flagged_unless_explicit_hasher() {
        let f = lint("use std::collections::HashMap;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hash-container");
        assert!(lint("let m: HashMap<u32, u32, FxBuildHasher> = make();\n").is_empty());
        assert_eq!(lint("let m: HashMap<u32, u32> = make();\n").len(), 1);
        assert!(lint("let s: HashSet<u32, Deterministic> = make();\n").is_empty());
        assert_eq!(lint("let s: HashSet<(u32, u32)> = make();\n").len(), 1);
    }

    #[test]
    fn tokens_in_strings_and_comments_ignored() {
        assert!(lint("let s = \"Instant::now\"; // thread_rng in comment\n").is_empty());
    }

    #[test]
    fn wall_clock_wins_over_rng_seed_on_shared_tokens() {
        let f = lint("let r = thread_rng();\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
    }

    #[test]
    fn rng_only_when_clock_out_of_scope() {
        let cfg = Config::parse("[rule.rng-seed]\ncrates = [\"*\"]\n").expect("static config");
        let f = check_file("x.rs", "demo", &classify("let r = thread_rng();\n"), &cfg);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "rng-seed");
    }

    #[test]
    fn partial_cmp_use_flagged_but_definition_not() {
        assert_eq!(
            lint("let o = a.partial_cmp(&b).unwrap();\n")[0].rule,
            "float-ord"
        );
        assert!(lint("fn partial_cmp(&self, other: &Self) -> Option<Ordering> {\n").is_empty());
    }

    #[test]
    fn trailing_suppression_covers_own_line() {
        let src = "let r = thread_rng(); // dd-lint: allow(wall-clock): fixture justification\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn standalone_suppression_covers_next_line() {
        let src =
            "// dd-lint: allow(float-ord): fixture justification\nlet o = a.partial_cmp(&b);\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn suppression_without_justification_is_a_finding() {
        let src = "// dd-lint: allow(float-ord)\nlet o = a.partial_cmp(&b);\n";
        let f = lint(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(f[0].rule, SUPPRESSION_RULE);
        assert_eq!(f[1].rule, "float-ord");
    }

    #[test]
    fn backtick_quoted_directive_mentions_are_prose() {
        assert!(
            lint("// a doc note about `dd-lint: allow(bogus)` syntax\nlet x = 1;\n").is_empty()
        );
    }

    #[test]
    fn suppression_with_unknown_rule_is_a_finding() {
        let f = lint("// dd-lint: allow(bogus): because\nlet x = 1;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, SUPPRESSION_RULE);
    }

    #[test]
    fn test_modules_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn f() { let x = v.partial_cmp(&w).unwrap(); }\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn hot_path_tokens_flagged() {
        let rules: Vec<String> = lint(
            "fn f() {\n    x.unwrap();\n    y.expect(\"m\");\n    panic!(\"boom\");\n    unreachable!()\n}\n",
        )
        .into_iter()
        .map(|f| f.rule)
        .collect();
        assert_eq!(rules, vec!["hot-path-panic"; 4]);
    }

    #[test]
    fn hot_path_alloc_tokens_flagged() {
        let rules: Vec<String> = lint(
            "fn f() {\n    let a = name.to_string();\n    let b = v.clone();\n    \
             let c = String::from(\"x\");\n    let d = s.to_owned();\n    \
             let e = format!(\"{a}\");\n}\n",
        )
        .into_iter()
        .map(|f| f.rule)
        .collect();
        assert_eq!(rules, vec!["hot-path-alloc"; 5]);
    }

    #[test]
    fn hot_path_alloc_ignores_non_allocating_lookalikes() {
        // `clone_from` reuses the destination allocation; `to_string`
        // inside a string literal is data, not code.
        assert!(lint("buf.clone_from(&src);\n").is_empty());
        assert!(lint("let s = \".to_string()\";\n").is_empty());
    }

    #[test]
    fn hot_path_alloc_suppression_accepted() {
        let src = "// dd-lint: allow(hot-path-alloc): once per run, not per event\n\
                   let name = scheduler.name().to_string();\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn hot_path_alloc_exempt_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let x = v.clone(); }\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn hot_path_crates_key_is_reporting_scope_not_per_file_trigger() {
        // `crates` on the hot-path rules scopes the *graph* pass; the
        // per-file token check must only fire for `files`-listed paths.
        let cfg =
            Config::parse("[rule.hot-path-panic]\ncrates = [\"*\"]\n").expect("static config");
        let f = check_file("x.rs", "demo", &classify("fn f() { x.unwrap(); }\n"), &cfg);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dd_invariant_macros_not_flagged_as_panics() {
        assert!(lint("dd_invariant!(a <= b, \"clock\");\ndd_debug_invariant!(ok);\n").is_empty());
    }

    #[test]
    fn spans_are_one_based() {
        let f = lint("let r = thread_rng();\n");
        assert_eq!((f[0].line, f[0].column), (1, 9));
    }
}
