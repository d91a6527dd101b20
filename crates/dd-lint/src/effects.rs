//! Pass 3 of the workspace analyzer: per-function effect inference.
//!
//! Every function gets an **effect** drawn from a finite lattice,
//! ordered by how much observable nondeterminism the construct can
//! introduce when the function runs inside a parallel fan-out:
//!
//! ```text
//! Pure ⊑ Alloc ⊑ Panic ⊑ SharedMut ⊑ NonDet{Time,Rng,HashOrder} ⊑ Io
//! ```
//!
//! * `Pure` — no tracked construct at all; safe anywhere.
//! * `Alloc` — heap allocation (`String::from`, `.clone()`, `format!`).
//!   Allocation is deterministic but costs per-event time on hot paths.
//! * `Panic` — may abort (`panic!`, `.unwrap()`). Still deterministic:
//!   a panic in a parallel closure fails the run identically at any
//!   `--jobs`, so `par-purity` admits functions up to this level.
//! * `SharedMut` — interior mutability or atomics (`Mutex`, `RefCell`,
//!   `static mut`, `fetch_add`). Cross-thread write order is scheduler
//!   dependent; the first level `par-purity` rejects.
//! * `NonDet` — reads wall clocks, entropy, or randomized hash state.
//!   Carries a kind set (`Time` / `Rng` / `HashOrder`) so diagnostics
//!   and contracts can name the source. `HashMap` *iteration* maps here
//!   through its randomized-hasher constructors (`RandomState`,
//!   `DefaultHasher`): a map with an explicit deterministic hasher
//!   iterates reproducibly and stays clean, and default-hasher maps are
//!   already banned outright by `hash-container`.
//! * `Io` — writes or reads the outside world (`println!`, `fs::*`).
//!   Top of the lattice: interleaving is observable even across runs.
//!
//! Intrinsic effects are seeded from the pass-1 token hits on each
//! function body ([`intrinsic`]), then propagated callee → caller by a
//! bottom-up monotone [`fixpoint`] over the pass-2 call graph: a
//! function's effect is the join of its intrinsic effect and its
//! callees' effects. The lattice is finite (6 levels × 8 kind sets) and
//! the transfer function is monotone, so the fixpoint terminates and is
//! independent of visit order. Because call resolution over-approximates
//! (extra edges), inferred effects over-approximate too — a function may
//! be reported stronger than it is, never weaker.
//!
//! [`provenance`] reconstructs, after the fixpoint, a concrete call path
//! from a function down to the body that introduced its effect level —
//! the chain behind the `effect-contract` diagnostics.

use crate::symbols::{FnDef, TokenHit};

/// `NonDet` kind bit: wall-clock reads (`Instant::now`, `SystemTime`).
pub const NONDET_TIME: u8 = 1;
/// `NonDet` kind bit: entropy (`thread_rng`, `OsRng`, `rand::random`).
pub const NONDET_RNG: u8 = 2;
/// `NonDet` kind bit: randomized hash iteration order (`RandomState`,
/// `DefaultHasher`).
pub const NONDET_HASH_ORDER: u8 = 4;

/// The six effect levels, ordered weakest to strongest (derived `Ord`
/// *is* the lattice order on levels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Level {
    #[default]
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

    /// Every level, weakest first.
    pub const ALL: [Level; 6] = [
        Level::Pure,
        Level::Alloc,
        Level::Panic,
        Level::SharedMut,
        Level::NonDet,
        Level::Io,
    ];
}

/// A point in the effect lattice: a level plus, at `NonDet` and above,
/// the set of nondeterminism kinds observed on some path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Effect {
    pub level: Level,
    /// Union of `NONDET_*` bits; meaningful once `level >= NonDet`,
    /// carried through joins regardless.
    pub nondet: u8,
}

impl Effect {
    pub const PURE: Effect = Effect {
        level: Level::Pure,
        nondet: 0,
    };

    pub fn of(level: Level) -> Effect {
        Effect { level, nondet: 0 }
    }

    /// Least upper bound: max level, union kinds.
    pub fn join(self, other: Effect) -> Effect {
        Effect {
            level: self.level.max(other.level),
            nondet: self.nondet | other.nondet,
        }
    }

    /// Lattice partial order: both the level and the kind set must be
    /// dominated. `a.le(b)` and `b.le(a)` iff `a == b`.
    pub fn le(self, other: Effect) -> bool {
        self.level <= other.level && self.nondet & !other.nondet == 0
    }

    /// Parses a contract spec: a level name, with `nondet` optionally
    /// qualified as `nondet(time, rng, hash-order)`. A bare `nondet`
    /// admits every kind.
    pub fn parse(spec: &str) -> Option<Effect> {
        let spec = spec.trim();
        if let Some(rest) = spec.strip_prefix("nondet(") {
            let inner = rest.strip_suffix(')')?;
            let mut bits = 0u8;
            for kind in inner.split(',').map(str::trim).filter(|k| !k.is_empty()) {
                bits |= match kind {
                    "time" => NONDET_TIME,
                    "rng" => NONDET_RNG,
                    "hash-order" => NONDET_HASH_ORDER,
                    _ => return None,
                };
            }
            return Some(Effect {
                level: Level::NonDet,
                nondet: bits,
            });
        }
        match spec {
            "pure" => Some(Effect::of(Level::Pure)),
            "alloc" => Some(Effect::of(Level::Alloc)),
            "panic" => Some(Effect::of(Level::Panic)),
            "shared-mut" => Some(Effect::of(Level::SharedMut)),
            "nondet" => Some(Effect {
                level: Level::NonDet,
                nondet: NONDET_TIME | NONDET_RNG | NONDET_HASH_ORDER,
            }),
            "io" => Some(Effect::of(Level::Io)),
            _ => None,
        }
    }

    /// The kind names set in `nondet`, in declaration order.
    pub fn nondet_kinds(self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for (bit, name) in [
            (NONDET_TIME, "time"),
            (NONDET_RNG, "rng"),
            (NONDET_HASH_ORDER, "hash-order"),
        ] {
            if self.nondet & bit != 0 {
                out.push(name);
            }
        }
        out
    }
}

impl std::fmt::Display for Effect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.level == Level::NonDet && self.nondet != 0 {
            write!(f, "nondet({})", self.nondet_kinds().join(","))
        } else {
            f.write_str(self.level.name())
        }
    }
}

/// `NonDet` kind introduced by a taint-sink token.
pub(crate) fn sink_kind(token: &str) -> u8 {
    match token {
        "Instant::now" | "SystemTime" => NONDET_TIME,
        "RandomState" | "DefaultHasher" => NONDET_HASH_ORDER,
        // thread_rng / from_entropy / rand::random / OsRng.
        _ => NONDET_RNG,
    }
}

/// The intrinsic (own-body) effect of one function: the join of the
/// levels its pass-1 token hits witness.
pub(crate) fn intrinsic(f: &FnDef) -> Effect {
    let mut e = Effect::PURE;
    if !f.alloc_hits.is_empty() {
        e = e.join(Effect::of(Level::Alloc));
    }
    if !f.panic_hits.is_empty() {
        e = e.join(Effect::of(Level::Panic));
    }
    if !f.sharedmut_hits.is_empty() {
        e = e.join(Effect::of(Level::SharedMut));
    }
    for hit in &f.sink_hits {
        e = e.join(Effect {
            level: Level::NonDet,
            nondet: sink_kind(hit.token),
        });
    }
    if !f.io_hits.is_empty() {
        e = e.join(Effect::of(Level::Io));
    }
    e
}

/// The hits of `f` that witness exactly `level` (the terminal evidence a
/// provenance chain points at).
pub(crate) fn level_hits(f: &FnDef, level: Level) -> &[TokenHit] {
    match level {
        Level::Pure => &[],
        Level::Alloc => &f.alloc_hits,
        Level::Panic => &f.panic_hits,
        Level::SharedMut => &f.sharedmut_hits,
        Level::NonDet => &f.sink_hits,
        Level::Io => &f.io_hits,
    }
}

/// Bottom-up monotone fixpoint: `eff[g] = intrinsic[g] ⊔ ⨆ eff[callee]`.
/// Deterministic (fixed node order per pass, and the result is the least
/// fixpoint regardless of order); terminates because the lattice is
/// finite and every update strictly increases one element.
pub fn fixpoint(intrinsics: &[Effect], edges: &[Vec<usize>]) -> Vec<Effect> {
    let mut eff = intrinsics.to_vec();
    let mut changed = true;
    while changed {
        changed = false;
        for g in 0..eff.len() {
            let mut e = eff[g];
            for &callee in &edges[g] {
                e = e.join(eff[callee]);
            }
            if e != eff[g] {
                eff[g] = e;
                changed = true;
            }
        }
    }
    eff
}

/// A call path `start -> .. -> witness` where `witness`'s own body
/// introduces `eff[start].level`, reconstructed after the fixpoint by
/// deterministic descent: at each node, stop if the node's intrinsic
/// effect already reaches the level, else step to the first unvisited
/// callee inferred at the same level. The visited set guards call-graph
/// cycles (inside an SCC every member has the same inferred effect, so a
/// cycle with no intrinsic witness terminates at its last fresh member).
pub fn provenance(
    start: usize,
    intrinsics: &[Effect],
    eff: &[Effect],
    edges: &[Vec<usize>],
) -> Vec<usize> {
    let level = eff[start].level;
    let mut chain = vec![start];
    let mut visited = vec![false; eff.len()];
    visited[start] = true;
    let mut cur = start;
    while intrinsics[cur].level < level {
        let next = edges[cur]
            .iter()
            .copied()
            .find(|&c| !visited[c] && eff[c].level >= level);
        match next {
            Some(c) => {
                visited[c] = true;
                chain.push(c);
                cur = c;
            }
            None => break,
        }
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nd(bits: u8) -> Effect {
        Effect {
            level: Level::NonDet,
            nondet: bits,
        }
    }

    #[test]
    fn join_is_max_level_union_kinds() {
        let a = nd(NONDET_TIME);
        let b = nd(NONDET_RNG);
        let j = a.join(b);
        assert_eq!(j.level, Level::NonDet);
        assert_eq!(j.nondet, NONDET_TIME | NONDET_RNG);
        assert_eq!(
            Effect::of(Level::Alloc)
                .join(Effect::of(Level::SharedMut))
                .level,
            Level::SharedMut
        );
        // Join is commutative, associative, idempotent on samples.
        assert_eq!(a.join(b), b.join(a));
        assert_eq!(a.join(a), a);
    }

    #[test]
    fn partial_order_requires_both_components() {
        assert!(Effect::PURE.le(Effect::of(Level::Io)));
        assert!(nd(NONDET_TIME).le(nd(NONDET_TIME | NONDET_RNG)));
        assert!(!nd(NONDET_RNG).le(nd(NONDET_TIME)));
        assert!(!Effect::of(Level::SharedMut).le(Effect::of(Level::Panic)));
        // join is the least upper bound w.r.t. le.
        let (a, b) = (nd(NONDET_TIME), Effect::of(Level::Io));
        assert!(a.le(a.join(b)) && b.le(a.join(b)));
    }

    #[test]
    fn display_and_parse_round_trip() {
        for spec in ["pure", "alloc", "panic", "shared-mut", "io"] {
            assert_eq!(Effect::parse(spec).unwrap().to_string(), spec);
        }
        assert_eq!(
            Effect::parse("nondet(time,rng)").unwrap().to_string(),
            "nondet(time,rng)"
        );
        // Bare nondet admits every kind.
        assert_eq!(Effect::parse("nondet").unwrap().nondet, 7);
        assert!(Effect::parse("bogus").is_none());
        assert!(Effect::parse("nondet(entropy)").is_none());
    }

    #[test]
    fn fixpoint_propagates_callee_effects_through_cycles() {
        // 0 -> 1 -> 2 -> 1 (cycle), 2 -> 3 (io leaf).
        let intr = vec![
            Effect::PURE,
            Effect::of(Level::Alloc),
            Effect::PURE,
            Effect::of(Level::Io),
        ];
        let edges = vec![vec![1], vec![2], vec![1, 3], vec![]];
        let eff = fixpoint(&intr, &edges);
        assert_eq!(eff[0].level, Level::Io);
        assert_eq!(eff[1].level, Level::Io);
        assert_eq!(eff[2].level, Level::Io);
        // Result dominates intrinsics pointwise.
        for (e, i) in eff.iter().zip(&intr) {
            assert!(i.le(*e));
        }
    }

    #[test]
    fn provenance_descends_to_the_witness() {
        let intr = vec![Effect::PURE, Effect::PURE, nd(NONDET_TIME)];
        let edges = vec![vec![1], vec![2], vec![]];
        let eff = fixpoint(&intr, &edges);
        assert_eq!(provenance(0, &intr, &eff, &edges), vec![0, 1, 2]);
        // A node with its own witness is its own chain.
        assert_eq!(provenance(2, &intr, &eff, &edges), vec![2]);
    }

    #[test]
    fn provenance_terminates_on_witnessless_cycles() {
        // 0 <-> 1, both pure intrinsically but NonDet by a joined edge
        // from 1 -> 2? No — make the cycle itself the only source: give
        // node 1 the witness, with a 0 <-> 1 cycle.
        let intr = vec![Effect::PURE, nd(NONDET_RNG)];
        let edges = vec![vec![1], vec![0]];
        let eff = fixpoint(&intr, &edges);
        assert_eq!(provenance(0, &intr, &eff, &edges), vec![0, 1]);
        // And a fully witnessless inflated start (defensive): chain stays
        // finite.
        let intr2 = vec![Effect::PURE, Effect::PURE];
        let eff2 = vec![nd(NONDET_RNG), nd(NONDET_RNG)];
        let chain = provenance(0, &intr2, &eff2, &edges);
        assert!(chain.len() <= 2);
    }
}
