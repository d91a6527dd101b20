//! Effect levels of the `par-purity` and `effect-contract` rules.
//!
//! Every pass-1 token hit witnesses one **level**, ordered by how much
//! observable nondeterminism the construct can introduce when it runs
//! inside a parallel fan-out:
//!
//! ```text
//! pure < alloc < panic < shared-mut < nondet < io
//! ```
//!
//! * `pure` — no tracked construct at all; safe anywhere.
//! * `alloc` — heap allocation (`String::from`, `.clone()`, `format!`).
//!   Allocation is deterministic but costs per-event time on hot paths.
//! * `panic` — may abort (`panic!`, `.unwrap()`). Still deterministic:
//!   a panic in a parallel closure fails the run identically at any
//!   `--jobs`, so `par-purity` admits hits up to this level.
//! * `shared-mut` — interior mutability or atomics (`Mutex`, `RefCell`,
//!   `static mut`, `fetch_add`). Cross-thread write order is scheduler
//!   dependent; the first level `par-purity` rejects.
//! * `nondet` — reads wall clocks, entropy, or randomized hash state.
//!   Diagnostics name the kind (`sink_kind`: `time` / `rng` /
//!   `hash-order`). `HashMap` *iteration* maps here through its
//!   randomized-hasher constructors (`RandomState`, `DefaultHasher`): a
//!   map with an explicit deterministic hasher iterates reproducibly and
//!   stays clean, and default-hasher maps are already banned outright by
//!   `hash-container`.
//! * `io` — writes or reads the outside world (`println!`, `fs::*`).
//!   Interleaving is observable even across runs.
//!
//! A function's effect is the strongest level among the hits of every
//! function reachable from it in the call graph — the same BFS the other
//! reachability rules walk, so the witness path in a diagnostic is a
//! shortest call chain. Because call resolution over-approximates (extra
//! edges), an effect may be reported stronger than it is, never weaker.

use crate::symbols::{FnDef, TokenHit};
use std::fmt;

/// The six effect levels, weakest first (derived `Ord` is the order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Pure,
    Alloc,
    Panic,
    SharedMut,
    NonDet,
    Io,
}

impl Level {
    /// Stable lowercase name used in `dd-lint.toml` contracts and
    /// diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Level::Pure => "pure",
            Level::Alloc => "alloc",
            Level::Panic => "panic",
            Level::SharedMut => "shared-mut",
            Level::NonDet => "nondet",
            Level::Io => "io",
        }
    }

    /// Parses a contract level by its [`name`](Level::name). A bare
    /// `nondet` admits every nondeterminism kind.
    pub fn parse(spec: &str) -> Option<Level> {
        [
            Level::Pure,
            Level::Alloc,
            Level::Panic,
            Level::SharedMut,
            Level::NonDet,
            Level::Io,
        ]
        .into_iter()
        .find(|l| l.name() == spec.trim())
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Nondeterminism kinds in diagnostic order.
const KINDS: [&str; 3] = ["time", "rng", "hash-order"];

/// The nondeterminism kind a taint-sink token introduces.
pub(crate) fn sink_kind(token: &str) -> &'static str {
    match token {
        "Instant::now" | "SystemTime" => "time",
        "RandomState" | "DefaultHasher" => "hash-order",
        // thread_rng / from_entropy / rand::random / OsRng.
        _ => "rng",
    }
}

/// Every token hit in `f`'s own body with the level it witnesses,
/// weakest level first.
pub(crate) fn hits(f: &FnDef) -> impl Iterator<Item = (&TokenHit, Level)> {
    [
        (&f.alloc_hits, Level::Alloc),
        (&f.panic_hits, Level::Panic),
        (&f.sharedmut_hits, Level::SharedMut),
        (&f.sink_hits, Level::NonDet),
        (&f.io_hits, Level::Io),
    ]
    .into_iter()
    .flat_map(|(hits, level)| hits.iter().map(move |h| (h, level)))
}

/// Renders an effect for diagnostics: `nondet(time,rng)` names the kinds
/// reached, every other level (and a kindless `nondet`) its bare name.
pub(crate) fn describe(level: Level, kinds: &[&str]) -> String {
    let named: Vec<&str> = KINDS.into_iter().filter(|k| kinds.contains(k)).collect();
    if level == Level::NonDet && !named.is_empty() {
        format!("nondet({})", named.join(","))
    } else {
        level.name().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::graph::Workspace;
    use crate::rules::Finding;
    use crate::scan::classify;
    use crate::symbols::extract_file;
    use std::collections::BTreeSet;

    /// Runs `effect-contract` with the single contract `spec` over one
    /// `crates/demo/src/lib.rs` holding `src`.
    fn contract(src: &str, spec: &str) -> Vec<Finding> {
        let rel = "crates/demo/src/lib.rs";
        let w = Workspace::build(
            vec![extract_file(rel, "demo", &classify(src))],
            BTreeSet::new(),
        );
        let config = Config::parse(&format!(
            "[rule.effect-contract]\ncrates = [\"*\"]\ncontracts = [\"{spec}\"]\n"
        ))
        .expect("test config parses");
        w.run_rules(&config)
    }

    fn assert_one(f: &[Finding], infers: &str, path: &str) {
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(
            f[0].message.contains(&format!("infers `{infers}`"))
                && f[0].message.contains(&format!("[effect path: {path})]")),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn display_and_parse_round_trip() {
        for spec in ["pure", "alloc", "panic", "shared-mut", "nondet", "io"] {
            assert_eq!(Level::parse(spec).unwrap().to_string(), spec);
        }
        assert!(Level::parse("bogus").is_none());
        assert!(Level::parse("nondet(rng)").is_none());
    }

    #[test]
    fn fixpoint_propagates_callee_effects_through_cycles() {
        // a -> b -> c -> b (a cycle), c -> d (an io leaf).
        let src = "pub fn a() {\n    b();\n}\nfn b() {\n    let s = x.clone();\n    c();\n}\nfn c() {\n    b();\n    d();\n}\nfn d() {\n    println!(\"x\");\n}\n";
        for (entry, path) in [
            ("a", "demo::a -> demo::b -> demo::c -> demo::d"),
            ("b", "demo::b -> demo::c -> demo::d"),
            ("c", "demo::c -> demo::d"),
        ] {
            assert_one(
                &contract(src, &format!("{entry} = shared-mut")),
                "io",
                &format!("{path} (`println!` at crates/demo/src/lib.rs:13"),
            );
            assert!(contract(src, &format!("{entry} = io")).is_empty());
        }
    }

    #[test]
    fn provenance_descends_to_the_witness() {
        let src =
            "pub fn a() {\n    b();\n}\nfn b() {\n    c();\n}\nfn c() {\n    Instant::now();\n}\n";
        assert_one(
            &contract(src, "a = pure"),
            "nondet(time)",
            "demo::a -> demo::b -> demo::c (`Instant::now` at crates/demo/src/lib.rs:8",
        );
        // A fn with its own witness is its own path.
        assert_one(
            &contract(src, "c = pure"),
            "nondet(time)",
            "demo::c (`Instant::now` at crates/demo/src/lib.rs:8",
        );
    }

    #[test]
    fn provenance_terminates_on_witnessless_cycles() {
        // a <-> b with the only witness on b.
        let src = "pub fn a() {\n    b();\n}\nfn b() {\n    a();\n    thread_rng();\n}\n";
        assert_one(
            &contract(src, "a = pure"),
            "nondet(rng)",
            "demo::a -> demo::b (`thread_rng` at crates/demo/src/lib.rs:6",
        );
        // A cycle with no witness at all reaches nothing to report.
        let src = "pub fn a() {\n    b();\n}\nfn b() {\n    a();\n}\n";
        assert!(contract(src, "a = pure").is_empty());
    }
}
