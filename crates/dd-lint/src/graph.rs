//! Pass 2 of the workspace analyzer: the call graph and the
//! cross-function rules.
//!
//! Built from the per-file [`FileMap`]s of pass 1, the [`Workspace`]
//! resolves call sites to function definitions *by name*, with a
//! deliberately conservative cascade:
//!
//! 1. **Qualified calls** (`Foo::bar(..)`): every path segment must match
//!    the candidate's impl type, trait, a module segment, or its crate
//!    (`Self` resolves against the caller's impl type; `self`/`crate`/
//!    `super` constrain to the caller's crate). An empty candidate set
//!    means the callee is external (std, vendored) — no edge.
//! 2. **Unqualified and method calls**: same-file definitions win, then
//!    same-crate, then workspace-wide; the first non-empty set supplies
//!    the edges.
//!
//! One precision guard tempers the name matching: functions defined in a
//! *bin* file are only resolvable from their own file — a bin has no
//! externally linkable path, so a cross-file name match is always a
//! collision with an unrelated target.
//!
//! Over-approximation (several same-named candidates) adds edges, which
//! can only make the reachability rules *stricter*, and every extra
//! finding still needs a justification or a fix — never a silent miss.
//!
//! Rules evaluated here:
//!
//! * `hot-path-panic` / `hot-path-alloc` — token hits in any function
//!   transitively reachable from the configured `entry_points` (plus
//!   every function defined in the rule's `files`, the v1 roots). Files
//!   in `files` are token-checked by the per-file pass already and are
//!   skipped here, so nothing is double-reported.
//! * `determinism-taint` — a wall-clock/entropy/randomized-hash sink
//!   inside any function reachable from a deterministic entry point,
//!   with the full call chain in the diagnostic.
//! * `dead-pub-api` — unrestricted-`pub` items whose names are never
//!   referenced from a bin, test, bench, example, `#[cfg(test)]` region,
//!   or the facade (computed as a name-liveness fixpoint over fn bodies,
//!   seeded by top-level references).
//! * `par-purity` — a shared-mutability / nondeterminism / I/O token in
//!   any function transitively reachable from the direct callers of a
//!   configured fan-out *sink* (`par_map`, `FrontDoor::serve`). The sink
//!   itself is the synchronization barrier and exempt; the caller's own
//!   statements run sequentially and are exempt too — but everything the
//!   caller calls may run inside the fanned-out closure, so all its
//!   transitive callees must infer `⊑ panic` (see [`crate::effects`]).
//! * `effect-contract` — a function listed with a declared effect in
//!   `dd-lint.toml` whose *inferred* effect is not `⊑` the declaration:
//!   a CI gate against silent effect strengthening of key API surface.
//! * `config` (pseudo-rule, always on) — `dd-lint.toml` patterns that
//!   match nothing in the scanned tree (configuration rot).

use crate::config::{Config, RuleScope};
use crate::effects::{self, Effect, Level};
use crate::rules::{self, Finding, CONFIG_RULE};
use crate::symbols::{FileMap, FnDef, ItemKind, TokenHit};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The analyzed workspace: pass-1 file maps plus the resolved call graph
/// and the inferred per-function effects.
#[derive(Debug, Default)]
pub struct Workspace {
    pub(crate) files: Vec<FileMap>,
    /// Identifiers referenced anywhere in `tests/`, `benches/`,
    /// `examples/` sources (reference-only files: they confer liveness
    /// but are never linted or symbolized).
    pub(crate) reference_refs: BTreeSet<String>,
    /// Flattened fn table: global index → (file index, fn index).
    nodes: Vec<(usize, usize)>,
    /// Adjacency: global index → sorted callee global indices.
    edges: Vec<Vec<usize>>,
    /// Intrinsic (own-body) effect per node.
    intrinsics: Vec<Effect>,
    /// Inferred (post-fixpoint) effect per node.
    effects: Vec<Effect>,
}

impl Workspace {
    /// Builds the call graph from pass-1 output.
    pub(crate) fn build(files: Vec<FileMap>, reference_refs: BTreeSet<String>) -> Workspace {
        let mut nodes = Vec::new();
        for (fi, fm) in files.iter().enumerate() {
            for i in 0..fm.fns.len() {
                nodes.push((fi, i));
            }
        }
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (g, &(fi, i)) in nodes.iter().enumerate() {
            by_name.entry(&files[fi].fns[i].name).or_default().push(g);
        }
        let mut edges = vec![Vec::new(); nodes.len()];
        for (g, &(fi, i)) in nodes.iter().enumerate() {
            let caller_file = &files[fi];
            let caller = &caller_file.fns[i];
            let mut out: BTreeSet<usize> = BTreeSet::new();
            for call in &caller.calls {
                let Some(all_cands) = by_name.get(call.name.as_str()) else {
                    continue;
                };
                // Bin isolation: a fn defined in a bin file has no
                // externally linkable path, so it can only be called from
                // its own file — name matches from elsewhere are always
                // cross-target collisions.
                let cands: Vec<usize> = all_cands
                    .iter()
                    .copied()
                    .filter(|&c| nodes[c].0 == fi || !files[nodes[c].0].is_bin)
                    .collect();
                let picked: Vec<usize> = if call.quals.is_empty() {
                    // Cascade: same file → same crate → workspace.
                    let same_file: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&c| nodes[c].0 == fi)
                        .collect();
                    if !same_file.is_empty() {
                        same_file
                    } else {
                        let same_crate: Vec<usize> = cands
                            .iter()
                            .copied()
                            .filter(|&c| files[nodes[c].0].crate_name == caller_file.crate_name)
                            .collect();
                        if !same_crate.is_empty() {
                            same_crate
                        } else {
                            cands
                        }
                    }
                } else {
                    cands
                        .into_iter()
                        .filter(|&c| {
                            let (cfi, ci) = nodes[c];
                            let cand_file = &files[cfi];
                            let cand = &cand_file.fns[ci];
                            call.quals
                                .iter()
                                .all(|q| seg_matches(q, cand_file, cand, caller_file, caller))
                        })
                        .collect()
                };
                out.extend(picked);
            }
            // Test-only fns are outside every rule's universe.
            edges[g] = out
                .into_iter()
                .filter(|&c| {
                    let (cfi, ci) = nodes[c];
                    !files[cfi].fns[ci].in_test
                })
                .collect();
        }
        let intrinsics: Vec<Effect> = nodes
            .iter()
            .map(|&(fi, i)| effects::intrinsic(&files[fi].fns[i]))
            .collect();
        let inferred = effects::fixpoint(&intrinsics, &edges);
        Workspace {
            files,
            reference_refs,
            nodes,
            edges,
            intrinsics,
            effects: inferred,
        }
    }

    fn node(&self, g: usize) -> (&FileMap, &FnDef) {
        let (fi, i) = self.nodes[g];
        (&self.files[fi], &self.files[fi].fns[i])
    }

    /// Short display name of a fn for chains and diagnostics:
    /// `Type::name`, `module::name`, or `crate::name`.
    fn display(&self, g: usize) -> String {
        let (fm, f) = self.node(g);
        if let Some(t) = &f.impl_type {
            format!("{t}::{}", f.name)
        } else if let Some(m) = f.module.last().or_else(|| fm.file_modules.last()) {
            format!("{m}::{}", f.name)
        } else {
            format!("{}::{}", fm.crate_name, f.name)
        }
    }

    /// Global indices of the fns rooting `scope`: `entry_points` pattern
    /// matches plus every fn defined in a `files`-listed path.
    fn roots(&self, scope: &RuleScope) -> Vec<usize> {
        let mut out = Vec::new();
        for (g, &(fi, i)) in self.nodes.iter().enumerate() {
            let fm = &self.files[fi];
            let f = &fm.fns[i];
            if f.in_test {
                continue;
            }
            let by_file = scope.files.contains(&fm.rel_path);
            let by_entry = scope
                .entry_points
                .iter()
                .any(|pat| entry_matches(pat, fm, f));
            if by_file || by_entry {
                out.push(g);
            }
        }
        out
    }

    /// Deterministic BFS from `roots`; returns parent pointers
    /// (`usize::MAX` marks a root) for reached nodes.
    fn reach(&self, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(r) {
                e.insert(usize::MAX);
                queue.push_back(r);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &self.edges[u] {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(v) {
                    e.insert(u);
                    queue.push_back(v);
                }
            }
        }
        parent
    }

    /// `root .. g` node indices from the BFS parent map, root first.
    fn chain_nodes(&self, parent: &BTreeMap<usize, usize>, g: usize) -> Vec<usize> {
        let mut rev = vec![g];
        let mut cur = g;
        while let Some(&p) = parent.get(&cur) {
            if p == usize::MAX {
                break;
            }
            rev.push(p);
            cur = p;
        }
        rev.reverse();
        rev
    }

    /// `root -> .. -> g` rendered from the BFS parent map.
    fn chain(&self, parent: &BTreeMap<usize, usize>, g: usize) -> String {
        self.chain_nodes(parent, g)
            .iter()
            .map(|&n| self.display(n))
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// The provenance chain of `g`'s inferred effect level, rendered with
    /// the witnessing token and its location when the terminal function
    /// has one.
    fn effect_chain(&self, g: usize) -> String {
        let chain = effects::provenance(g, &self.intrinsics, &self.effects, &self.edges);
        let names = chain
            .iter()
            .map(|&n| self.display(n))
            .collect::<Vec<_>>()
            .join(" -> ");
        let last = *chain.last().expect("chain starts at g");
        let (fm, f) = self.node(last);
        match effects::level_hits(f, self.effects[g].level).first() {
            Some(h) => format!("{names} (`{}` at {}:{})", h.token, fm.rel_path, h.line),
            None => names,
        }
    }

    /// Runs every graph rule configured in `config`.
    pub(crate) fn run_rules(&self, config: &Config) -> Vec<Finding> {
        let mut findings = Vec::new();
        self.reachability_rule(
            "hot-path-panic",
            |f| &f.panic_hits,
            "in the DES event-loop hot path (reachable call): convert to a \
             dd_invariant!/dd_debug_invariant! check or suppress with a \
             documented justification",
            config,
            &mut findings,
        );
        self.reachability_rule(
            "hot-path-alloc",
            |f| &f.alloc_hits,
            "allocates in the DES event-loop hot path (reachable call): hoist \
             the allocation out of the per-event path or suppress with a \
             documented justification for once-per-run sites",
            config,
            &mut findings,
        );
        self.reachability_rule(
            "determinism-taint",
            |f| &f.sink_hits,
            "is a nondeterminism sink reachable from a deterministic entry \
             point: route the value through SimTime / seeded RNG streams, or \
             suppress with a documented justification",
            config,
            &mut findings,
        );
        self.dead_pub_api(config, &mut findings);
        self.par_purity(config, &mut findings);
        self.effect_contract(config, &mut findings);
        self.validate_config(config, &mut findings);
        findings
    }

    /// `par-purity`: functions reachable from a parallel fan-out context
    /// must infer `⊑ Panic`. Sinks (matched by the rule's `sinks`
    /// patterns) are the fan-out primitives themselves — their internals
    /// are the synchronization barrier and exempt. Their direct callers
    /// are the fan-out *contexts*: the context's own statements run
    /// sequentially (exempt), but everything it calls may run inside the
    /// fanned-out closure, so every transitive callee is checked and any
    /// shared-mutability / nondeterminism / I/O hit is a finding at the
    /// hit site.
    fn par_purity(&self, config: &Config, findings: &mut Vec<Finding>) {
        let scope = config.scope("par-purity");
        if scope.crates.is_empty() || scope.sinks.is_empty() {
            return;
        }
        let mut is_sink = vec![false; self.nodes.len()];
        for (g, &(fi, i)) in self.nodes.iter().enumerate() {
            let fm = &self.files[fi];
            let f = &fm.fns[i];
            is_sink[g] = scope.sinks.iter().any(|pat| entry_matches(pat, fm, f));
        }
        let roots: Vec<usize> = (0..self.nodes.len())
            .filter(|&g| {
                !is_sink[g] && !self.node(g).1.in_test && self.edges[g].iter().any(|&c| is_sink[c])
            })
            .collect();
        // BFS that never enters a sink node.
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in &roots {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(r) {
                e.insert(usize::MAX);
                queue.push_back(r);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &self.edges[u] {
                if is_sink[v] {
                    continue;
                }
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(v) {
                    e.insert(u);
                    queue.push_back(v);
                }
            }
        }
        for (&g, &p) in &parent {
            if p == usize::MAX {
                continue; // The fan-out context's own sequential section.
            }
            let (fm, f) = self.node(g);
            if !scope.covers_crate(&fm.crate_name) {
                continue;
            }
            // Hits witnessing any effect level above Panic.
            let offending: Vec<(&TokenHit, Effect)> = f
                .sharedmut_hits
                .iter()
                .map(|h| (h, Effect::of(Level::SharedMut)))
                .chain(f.sink_hits.iter().map(|h| {
                    (
                        h,
                        Effect {
                            level: Level::NonDet,
                            nondet: effects::sink_kind(h.token),
                        },
                    )
                }))
                .chain(f.io_hits.iter().map(|h| (h, Effect::of(Level::Io))))
                .collect();
            for (hit, eff) in offending {
                if rules::suppressed(&fm.suppressions, hit.line, "par-purity") {
                    continue;
                }
                findings.push(Finding {
                    file: fm.rel_path.clone(),
                    line: hit.line,
                    column: hit.column,
                    rule: "par-purity".to_string(),
                    message: format!(
                        "`{}` has effect `{eff}` inside a parallel fan-out: closures \
                         fanned out through {} must infer ⊑ panic to stay byte-identical \
                         at any --jobs; hoist the effect out of the parallel section or \
                         suppress with a documented justification [call chain: {}]",
                        hit.token,
                        self.par_sink_of(&parent, g, &is_sink),
                        self.chain(&parent, g)
                    ),
                });
            }
        }
    }

    /// Display name of the sink fanned out by the root of `g`'s chain
    /// (for `par-purity` diagnostics).
    fn par_sink_of(&self, parent: &BTreeMap<usize, usize>, g: usize, is_sink: &[bool]) -> String {
        let root = self.chain_nodes(parent, g)[0];
        match self.edges[root].iter().find(|&&c| is_sink[c]) {
            Some(&s) => format!("`{}`", self.display(s)),
            None => "a parallel sink".to_string(),
        }
    }

    /// `effect-contract`: every function matching a contract pattern must
    /// infer an effect `⊑` the declared one.
    fn effect_contract(&self, config: &Config, findings: &mut Vec<Finding>) {
        let scope = config.scope("effect-contract");
        for (pattern, declared) in &scope.contracts {
            for (g, &(fi, i)) in self.nodes.iter().enumerate() {
                let fm = &self.files[fi];
                let f = &fm.fns[i];
                if f.in_test || !entry_matches(pattern, fm, f) {
                    continue;
                }
                if self.effects[g].le(*declared) {
                    continue;
                }
                if rules::suppressed(&fm.suppressions, f.line, "effect-contract") {
                    continue;
                }
                findings.push(Finding {
                    file: fm.rel_path.clone(),
                    line: f.line,
                    column: 1,
                    rule: "effect-contract".to_string(),
                    message: format!(
                        "`{}` is declared `⊑ {declared}` in dd-lint.toml but infers \
                         `{}`: the API contract gained a stronger effect [effect path: \
                         {}]; weaken the code or update the declared contract \
                         deliberately",
                        self.display(g),
                        self.effects[g],
                        self.effect_chain(g)
                    ),
                });
            }
        }
    }

    /// `config` pseudo-rule: every `dd-lint.toml` symbol pattern and file
    /// path must match something in the scanned tree, or the rule it
    /// scopes silently stops checking what its author intended.
    fn validate_config(&self, config: &Config, findings: &mut Vec<Finding>) {
        let any_fn = |pat: &str| {
            self.nodes.iter().any(|&(fi, i)| {
                let fm = &self.files[fi];
                entry_matches(pat, fm, &fm.fns[i])
            })
        };
        let mut bad = |rule: &str, key: &str, pat: &str| {
            findings.push(Finding {
                file: crate::CONFIG_FILE.to_string(),
                line: 1,
                column: 1,
                rule: CONFIG_RULE.to_string(),
                message: format!(
                    "[rule.{rule}] {key} pattern {pat:?} matches nothing in the \
                     workspace (configuration rot); fix or remove it"
                ),
            });
        };
        for (rule, scope) in &config.rules {
            for pat in &scope.entry_points {
                if !any_fn(pat) {
                    bad(rule, "entry_points", pat);
                }
            }
            for pat in &scope.sinks {
                if !any_fn(pat) {
                    bad(rule, "sinks", pat);
                }
            }
            for (pat, _) in &scope.contracts {
                if !any_fn(pat) {
                    bad(rule, "contracts", pat);
                }
            }
            for path in &scope.files {
                if !self.files.iter().any(|fm| &fm.rel_path == path) {
                    bad(rule, "files", path);
                }
            }
        }
    }

    /// Shared shape of the three reachability rules: BFS from the rule's
    /// roots, then report `hits(f)` for every reached fn inside the
    /// reporting scope, with the full call chain in the message.
    fn reachability_rule(
        &self,
        rule: &str,
        hits: impl Fn(&FnDef) -> &Vec<TokenHit>,
        why: &str,
        config: &Config,
        findings: &mut Vec<Finding>,
    ) {
        let scope = config.scope(rule);
        if scope.crates.is_empty() {
            return; // No reporting scope configured — rule is off.
        }
        let roots = self.roots(&scope);
        let parent = self.reach(&roots);
        for &g in parent.keys() {
            let (fm, f) = self.node(g);
            // `files`-listed paths are fully covered by the per-file
            // token pass — reporting them again would double up.
            if scope.files.contains(&fm.rel_path) {
                continue;
            }
            if !scope.covers_crate(&fm.crate_name) {
                continue;
            }
            for hit in hits(f) {
                if rules::suppressed(&fm.suppressions, hit.line, rule) {
                    continue;
                }
                findings.push(Finding {
                    file: fm.rel_path.clone(),
                    line: hit.line,
                    column: hit.column,
                    rule: rule.to_string(),
                    message: format!(
                        "`{}` {} [call chain: {}]",
                        hit.token,
                        why,
                        self.chain(&parent, g)
                    ),
                });
            }
        }
    }

    /// `dead-pub-api`: name-liveness fixpoint. Names referenced at top
    /// level anywhere, in test regions, in reference files, or in the
    /// body of any *live* fn are live; fns in bins and the facade are
    /// live by definition. Unrestricted-`pub` symbols whose names end up
    /// outside the live set are findings.
    fn dead_pub_api(&self, config: &Config, findings: &mut Vec<Finding>) {
        let scope = config.scope("dead-pub-api");
        if scope.crates.is_empty() {
            return;
        }
        let mut live: BTreeSet<&str> = BTreeSet::new();
        live.extend(self.reference_refs.iter().map(String::as_str));
        for fm in &self.files {
            live.extend(fm.top_refs.iter().map(String::as_str));
            live.extend(fm.test_refs.iter().map(String::as_str));
        }
        let mut fn_done = vec![false; self.nodes.len()];
        loop {
            let mut changed = false;
            for (g, done) in fn_done.iter_mut().enumerate() {
                if *done {
                    continue;
                }
                let (fm, f) = self.node(g);
                let seed = fm.is_bin || fm.is_facade || f.in_test;
                if seed || live.contains(f.name.as_str()) {
                    *done = true;
                    let before = live.len();
                    live.extend(f.refs.iter().map(String::as_str));
                    if seed {
                        // Roots are live even if nothing names them.
                        live.insert(f.name.as_str());
                    }
                    if live.len() != before || seed {
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for fm in &self.files {
            if fm.is_facade || fm.is_bin || !scope.covers_crate(&fm.crate_name) {
                continue;
            }
            let mut dead: Vec<(usize, String, &'static str)> = Vec::new();
            for f in &fm.fns {
                // Trait-bound methods are part of their trait's surface.
                let method_like = f.trait_name.is_some();
                if f.is_pub
                    && !f.exempt
                    && !f.in_test
                    && !method_like
                    && !live.contains(f.name.as_str())
                {
                    dead.push((f.line, f.name.clone(), "fn"));
                }
            }
            for it in &fm.items {
                if it.is_pub
                    && !it.exempt
                    && !it.in_test
                    && it.kind != ItemKind::Mod
                    && !live.contains(it.name.as_str())
                {
                    dead.push((it.line, it.name.clone(), item_word(it.kind)));
                }
            }
            dead.sort();
            for (line, name, word) in dead {
                if rules::suppressed(&fm.suppressions, line, "dead-pub-api") {
                    continue;
                }
                findings.push(Finding {
                    file: fm.rel_path.clone(),
                    line,
                    column: 1,
                    rule: "dead-pub-api".to_string(),
                    message: format!(
                        "`pub {word} {name}` is unreachable from every bin, test, \
                         bench, example, and the facade re-exports; remove it, \
                         narrow it to pub(crate), or suppress with a documented \
                         justification"
                    ),
                });
            }
        }
    }
}

fn item_word(kind: ItemKind) -> &'static str {
    match kind {
        ItemKind::Struct => "struct",
        ItemKind::Enum => "enum",
        ItemKind::Union => "union",
        ItemKind::Trait => "trait",
        ItemKind::Const => "const",
        ItemKind::Static => "static",
        ItemKind::Type => "type",
        ItemKind::Mod => "mod",
        ItemKind::Macro => "macro",
    }
}

/// `-` and `_` are interchangeable between crate dir names and Rust
/// identifiers.
fn norm(s: &str) -> String {
    s.replace('-', "_")
}

/// Whether qualifier segment `seg` is compatible with candidate `cand`.
fn seg_matches(
    seg: &str,
    cand_file: &FileMap,
    cand: &FnDef,
    caller_file: &FileMap,
    caller: &FnDef,
) -> bool {
    if seg == "Self" {
        return caller.impl_type.is_some() && cand.impl_type == caller.impl_type;
    }
    if seg == "self" || seg == "crate" || seg == "super" {
        return cand_file.crate_name == caller_file.crate_name;
    }
    cand.impl_type.as_deref() == Some(seg)
        || cand.trait_name.as_deref() == Some(seg)
        || cand.module.iter().any(|m| m == seg)
        || cand_file.file_modules.iter().any(|m| m == seg)
        || norm(&cand_file.crate_name) == norm(seg)
}

/// Whether entry-point pattern `pat` (`a::b::name`) selects fn `f`: the
/// last segment must equal the fn name, every earlier segment must match
/// its crate / module / impl type / trait.
fn entry_matches(pat: &str, fm: &FileMap, f: &FnDef) -> bool {
    let segs: Vec<&str> = pat.split("::").collect();
    let Some((name, quals)) = segs.split_last() else {
        return false;
    };
    *name == f.name
        && quals.iter().all(|q| {
            f.impl_type.as_deref() == Some(*q)
                || f.trait_name.as_deref() == Some(*q)
                || f.module.iter().any(|m| m == q)
                || fm.file_modules.iter().any(|m| m == q)
                || norm(&fm.crate_name) == norm(q)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::classify;
    use crate::symbols::extract_file;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let maps = files
            .iter()
            .map(|(rel, src)| {
                let crate_name = crate::crate_of(rel);
                extract_file(rel, &crate_name, &classify(src))
            })
            .collect();
        Workspace::build(maps, BTreeSet::new())
    }

    fn cfg(text: &str) -> Config {
        Config::parse(text).expect("test config parses")
    }

    #[test]
    fn cross_file_panic_reachability_with_chain() {
        let w = ws(&[
            (
                "crates/dd-platform/src/des.rs",
                "impl Engine {\n    pub fn pump(&mut self) {\n        helper_step();\n    }\n}\n",
            ),
            (
                "crates/dd-platform/src/util.rs",
                "pub fn helper_step() {\n    q.pop().unwrap();\n}\n",
            ),
        ]);
        let f = w.run_rules(&cfg(
            "[rule.hot-path-panic]\ncrates = [\"dd-platform\"]\nentry_points = [\"Engine::pump\"]\n",
        ));
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].file, "crates/dd-platform/src/util.rs");
        assert_eq!(f[0].rule, "hot-path-panic");
        assert!(
            f[0].message.contains("Engine::pump -> util::helper_step"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn chain_names_both_hops() {
        let w = ws(&[
            (
                "crates/dd-platform/src/des.rs",
                "impl Engine {\n    pub fn pump(&mut self) {\n        helper_step();\n    }\n}\npub fn helper_step() {\n    panic!(\"boom\");\n}\n",
            ),
        ]);
        let f = w.run_rules(&cfg(
            "[rule.hot-path-panic]\ncrates = [\"dd-platform\"]\nentry_points = [\"Engine::pump\"]\n",
        ));
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(
            f[0].message.contains("Engine::pump -> des::helper_step"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn qualified_calls_do_not_link_to_wrong_type() {
        let w = ws(&[
            (
                "crates/dd-platform/src/a.rs",
                "impl Engine {\n    pub fn pump(&mut self) {\n        Other::step();\n    }\n}\n",
            ),
            (
                "crates/dd-platform/src/b.rs",
                "impl Wrong {\n    pub fn step() {\n        x.unwrap();\n    }\n}\n",
            ),
        ]);
        let f = w.run_rules(&cfg(
            "[rule.hot-path-panic]\ncrates = [\"*\"]\nentry_points = [\"Engine::pump\"]\n",
        ));
        assert!(
            f.is_empty(),
            "Other::step must not resolve to Wrong::step: {f:#?}"
        );
    }

    #[test]
    fn files_listed_paths_are_roots_but_not_reported_by_graph() {
        let w = ws(&[
            (
                "crates/dd-platform/src/des.rs",
                "pub fn pump() {\n    x.unwrap();\n    helper();\n}\n",
            ),
            (
                "crates/dd-platform/src/util.rs",
                "pub fn helper() {\n    y.unwrap();\n}\n",
            ),
        ]);
        let f = w.run_rules(&cfg(
            "[rule.hot-path-panic]\ncrates = [\"*\"]\nfiles = [\"crates/dd-platform/src/des.rs\"]\n",
        ));
        // des.rs's own unwrap is the per-file pass's job; only the
        // transitive helper is a graph finding.
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].file, "crates/dd-platform/src/util.rs");
    }

    #[test]
    fn taint_suppression_is_honored() {
        let w = ws(&[(
            "crates/dd-bench/src/experiments/probe.rs",
            "pub fn run(ctx: &Ctx) -> String {\n    measure()\n}\nfn measure() -> String {\n    // dd-lint: allow(determinism-taint): measuring real overhead is the experiment\n    let t = Instant::now();\n    out(t)\n}\n",
        )]);
        let f = w.run_rules(&cfg(
            "[rule.determinism-taint]\ncrates = [\"*\"]\nentry_points = [\"experiments::run\"]\n",
        ));
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn taint_detects_sink_via_call_chain() {
        let w = ws(&[(
            "crates/dd-bench/src/experiments/probe.rs",
            "pub fn run(ctx: &Ctx) -> String {\n    measure()\n}\nfn measure() -> String {\n    let t = Instant::now();\n    out(t)\n}\n",
        )]);
        let f = w.run_rules(&cfg(
            "[rule.determinism-taint]\ncrates = [\"*\"]\nentry_points = [\"experiments::run\"]\n",
        ));
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, "determinism-taint");
        assert!(f[0].message.contains("run -> "), "{}", f[0].message);
    }

    #[test]
    fn dead_pub_api_finds_unreferenced_pub_fn() {
        let w = ws(&[
            (
                "crates/demo/src/lib.rs",
                "pub fn used_widget() {}\npub fn orphan_gadget() {}\n",
            ),
            (
                "crates/other/src/main.rs",
                "fn main() {\n    used_widget();\n}\n",
            ),
        ]);
        let f = w.run_rules(&cfg("[rule.dead-pub-api]\ncrates = [\"*\"]\n"));
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("orphan_gadget"));
    }

    #[test]
    fn dead_pub_api_liveness_propagates_through_live_fns() {
        let w = ws(&[
            (
                "crates/demo/src/lib.rs",
                "pub fn entry() {\n    middle();\n}\nfn middle() {\n    leaf_helper();\n}\npub fn leaf_helper() {}\n",
            ),
            (
                "crates/other/src/main.rs",
                "fn main() {\n    entry();\n}\n",
            ),
        ]);
        let f = w.run_rules(&cfg("[rule.dead-pub-api]\ncrates = [\"*\"]\n"));
        assert!(
            f.is_empty(),
            "leaf_helper is live through entry->middle: {f:#?}"
        );
    }

    #[test]
    fn dead_pub_api_respects_exemptions_and_suppressions() {
        let w = ws(&[(
            "crates/demo/src/lib.rs",
            "#[deprecated]\npub fn legacy() {}\n// dd-lint: allow(dead-pub-api): kept for downstream forks\npub fn kept() {}\npub(crate) fn internal() {}\n",
        )]);
        let f = w.run_rules(&cfg("[rule.dead-pub-api]\ncrates = [\"*\"]\n"));
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn unconfigured_graph_rules_are_silent() {
        let w = ws(&[(
            "crates/demo/src/lib.rs",
            "pub fn orphan() {\n    x.unwrap();\n}\n",
        )]);
        assert!(w.run_rules(&Config::default()).is_empty());
    }
}
