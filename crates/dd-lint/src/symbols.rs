//! Pass 1 of the workspace analyzer: per-file symbol & call extraction.
//!
//! Consumes the scanner's [`Classified`] lines (literal contents and
//! comments already blanked) and produces a [`FileMap`]: the functions
//! defined in the file with their impl/trait/module context and body
//! spans, the call sites and identifier references inside each body,
//! pre-located hot-path/sink token hits, the non-function items (for
//! `dead-pub-api`), and top-level / test-region references.
//!
//! Like the scanner this is deliberately *not* a parser. It leans on two
//! invariants the repo enforces anyway: sources are `rustfmt`-formatted
//! (item headers start a line; `fn name(` stays on one line) and braces
//! outside literals are structural. Tracking is brace-depth based with a
//! context stack, so a desynced file degrades to missing or extra *edges*
//! — never a panic — and the graph rules stay conservative.

use crate::rules::{
    self, Suppressions, ALLOC_TOKENS, IO_TOKENS, PANIC_TOKENS, SHAREDMUT_TOKENS, TAINT_SINK_TOKENS,
};
use crate::scan::Classified;
use std::collections::BTreeSet;

/// Non-function item kinds tracked for `dead-pub-api`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ItemKind {
    Struct,
    Enum,
    Union,
    Trait,
    Const,
    Static,
    Type,
    Mod,
    Macro,
}

/// A non-function item declaration.
#[derive(Debug, Clone)]
pub(crate) struct ItemDef {
    pub name: String,
    pub kind: ItemKind,
    /// 1-based declaration line.
    pub line: usize,
    /// Unrestricted `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// `#[deprecated]` / `#[macro_export]` — exempt from `dead-pub-api`
    /// (kept deliberately, or reachable only through macro expansion).
    pub exempt: bool,
    pub in_test: bool,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct Call {
    /// Callee identifier (last path segment).
    pub name: String,
    /// Path segments before the name (`Foo::bar(` → `["Foo"]`), empty for
    /// plain and method calls.
    pub quals: Vec<String>,
    /// A method call (`x.name(`).
    pub method: bool,
}

/// A pre-located rule-token hit inside a function body.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TokenHit {
    pub token: &'static str,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
}

/// A function definition with its body-derived facts.
#[derive(Debug, Clone)]
pub(crate) struct FnDef {
    pub name: String,
    /// 1-based header line.
    pub line: usize,
    /// Unrestricted `pub`.
    pub is_pub: bool,
    /// `#[deprecated]` — exempt from `dead-pub-api`.
    pub exempt: bool,
    /// Inline `mod` path inside the file (file-level modules live on
    /// [`FileMap::file_modules`]).
    pub module: Vec<String>,
    /// Surrounding `impl` block's type name (last path segment).
    pub impl_type: Option<String>,
    /// Surrounding `impl Trait for ..` / `trait ..` block's trait name.
    pub trait_name: Option<String>,
    /// Defined inside a `#[cfg(test)]` region.
    pub in_test: bool,
    pub calls: Vec<Call>,
    /// Every identifier mentioned in the signature + body (minus the
    /// function's own name) — liveness fuel for `dead-pub-api`.
    pub refs: BTreeSet<String>,
    pub panic_hits: Vec<TokenHit>,
    pub alloc_hits: Vec<TokenHit>,
    pub sink_hits: Vec<TokenHit>,
    /// Interior-mutability / atomic tokens — `SharedMut` effect hits.
    pub sharedmut_hits: Vec<TokenHit>,
    /// I/O tokens — `Io` effect hits.
    pub io_hits: Vec<TokenHit>,
}

/// Everything pass 1 knows about one file.
#[derive(Debug, Clone, Default)]
pub(crate) struct FileMap {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Crate directory name (`root` for the facade package).
    pub crate_name: String,
    /// Module path implied by the file's location under `src/`.
    pub file_modules: Vec<String>,
    pub fns: Vec<FnDef>,
    pub items: Vec<ItemDef>,
    /// Identifiers referenced outside any fn body (struct fields, consts,
    /// macro bodies, facade `use` lines) — unconditional liveness roots.
    pub top_refs: BTreeSet<String>,
    /// Identifiers referenced anywhere inside `#[cfg(test)]` regions —
    /// unconditional liveness roots.
    pub test_refs: BTreeSet<String>,
    /// Inline-suppression map, reused by the graph pass.
    pub suppressions: Suppressions,
    /// File belongs to the workspace facade package (`src/` at the root).
    pub is_facade: bool,
    /// Binary target (`src/main.rs`, `src/bin/`, or defines a top-level
    /// `fn main`) — every fn here is a liveness root.
    pub is_bin: bool,
}

/// What a finalized header opens (or declares).
#[derive(Debug, Clone)]
enum PendKind {
    Fn {
        idx: usize,
    },
    Impl,
    Trait {
        name: String,
    },
    Mod {
        name: String,
    },
    /// `macro_rules!` bodies: contents are opaque token soup whose
    /// identifiers feed `top_refs` (the macro may be invoked anywhere).
    Opaque,
}

/// A header seen but not yet terminated by `{` or `;`.
#[derive(Debug, Clone)]
struct Pending {
    kind: PendKind,
    /// Accumulated header text (for multi-line `impl` headers).
    text: String,
    /// `()`/`[]` nesting — a `;` only ends the header at depth 0.
    nest: i32,
}

/// One open scope on the context stack. The scope pops when a `}` brings
/// the brace depth back to `close_depth`.
#[derive(Debug, Clone)]
struct Scope {
    close_depth: i64,
    kind: ScopeKind,
}

#[derive(Debug, Clone)]
enum ScopeKind {
    Mod {
        name: String,
    },
    Impl {
        type_name: Option<String>,
        trait_name: Option<String>,
    },
    Fn {
        idx: usize,
    },
    Opaque,
}

/// Extracts the [`FileMap`] for one classified file. Never panics: any
/// construct the heuristics don't recognize is skipped, not an error.
pub(crate) fn extract_file(rel_path: &str, crate_name: &str, classified: &Classified) -> FileMap {
    let mut fm = FileMap {
        rel_path: rel_path.to_string(),
        crate_name: crate_name.to_string(),
        file_modules: file_modules(rel_path),
        is_facade: !rel_path.starts_with("crates/"),
        is_bin: rel_path.ends_with("src/main.rs") || rel_path.contains("/bin/"),
        ..FileMap::default()
    };
    // Malformed directives are already reported by the per-file pass;
    // here only the (line → rules) map is needed.
    let mut discard = Vec::new();
    fm.suppressions = rules::collect_suppressions(rel_path, classified, &mut discard);

    let mut depth: i64 = 0;
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending: Option<Pending> = None;
    // `#[..]` attribute state carried to the next header.
    let mut attr_exempt = false;
    let mut attr_open: i64 = 0;
    // Inside a (possibly multi-line) `use` item until its `;`, and the
    // item's text so far.
    let mut in_use = false;
    let mut use_text = String::new();
    // `use` aliases: alias → the path it names.
    let mut aliases: Vec<(String, Vec<String>)> = Vec::new();

    for (idx, line) in classified.lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        let trimmed = code.trim();

        // Attribute lines (possibly spanning lines) — no braces, no refs.
        if attr_open > 0 || trimmed.starts_with("#[") || trimmed.starts_with("#!") {
            attr_open += bracket_balance(trimmed);
            attr_open = attr_open.max(0);
            if trimmed.contains("deprecated") || trimmed.contains("macro_export") {
                attr_exempt = true;
            }
            continue;
        }
        if trimmed.is_empty() {
            continue;
        }

        // Multi-line `use` items: only the facade's re-exports confer
        // liveness (they *are* the public API); elsewhere an import alone
        // proves nothing the use-site reference doesn't already prove.
        if in_use {
            if fm.is_facade && !line.in_test {
                collect_idents(trimmed, &mut fm.top_refs, &[]);
            }
            use_text.push(' ');
            use_text.push_str(trimmed);
            if trimmed.contains(';') {
                in_use = false;
                use_aliases(&use_text, &mut aliases);
            }
            continue;
        }

        // Header detection at item position (not inside a fn body or
        // macro body, no header already pending).
        let at_item_position = pending.is_none()
            && !matches!(
                scopes.last().map(|s| &s.kind),
                Some(ScopeKind::Fn { .. }) | Some(ScopeKind::Opaque)
            );
        let mut excluded: Vec<String> = Vec::new();
        if at_item_position {
            if let Some(header) = parse_header(trimmed) {
                let is_pub = header.is_pub;
                let exempt = attr_exempt;
                match header.kind {
                    HeaderKind::Fn(name) => {
                        excluded.push(name.clone());
                        let (module, impl_type, trait_name) = fn_context(&scopes);
                        let idx = fm.fns.len();
                        fm.fns.push(FnDef {
                            name,
                            line: lineno,
                            is_pub,
                            exempt,
                            module,
                            impl_type,
                            trait_name,
                            in_test: line.in_test,
                            calls: Vec::new(),
                            refs: BTreeSet::new(),
                            panic_hits: Vec::new(),
                            alloc_hits: Vec::new(),
                            sink_hits: Vec::new(),
                            sharedmut_hits: Vec::new(),
                            io_hits: Vec::new(),
                        });
                        pending = Some(Pending {
                            kind: PendKind::Fn { idx },
                            text: String::new(),
                            nest: 0,
                        });
                    }
                    HeaderKind::Impl => {
                        pending = Some(Pending {
                            kind: PendKind::Impl,
                            text: String::new(),
                            nest: 0,
                        });
                    }
                    HeaderKind::Trait(name) => {
                        excluded.push(name.clone());
                        fm.items.push(ItemDef {
                            name: name.clone(),
                            kind: ItemKind::Trait,
                            line: lineno,
                            is_pub,
                            exempt,
                            in_test: line.in_test,
                        });
                        pending = Some(Pending {
                            kind: PendKind::Trait { name },
                            text: String::new(),
                            nest: 0,
                        });
                    }
                    HeaderKind::Mod(name) => {
                        excluded.push(name.clone());
                        fm.items.push(ItemDef {
                            name: name.clone(),
                            kind: ItemKind::Mod,
                            line: lineno,
                            is_pub,
                            exempt,
                            in_test: line.in_test,
                        });
                        pending = Some(Pending {
                            kind: PendKind::Mod { name },
                            text: String::new(),
                            nest: 0,
                        });
                    }
                    HeaderKind::MacroRules(name) => {
                        excluded.push(name.clone());
                        fm.items.push(ItemDef {
                            name,
                            kind: ItemKind::Macro,
                            line: lineno,
                            is_pub,
                            exempt,
                            in_test: line.in_test,
                        });
                        pending = Some(Pending {
                            kind: PendKind::Opaque,
                            text: String::new(),
                            nest: 0,
                        });
                    }
                    HeaderKind::Item(kind, name) => {
                        excluded.push(name.clone());
                        fm.items.push(ItemDef {
                            name,
                            kind,
                            line: lineno,
                            is_pub,
                            exempt,
                            in_test: line.in_test,
                        });
                        // No scope: `const X: F = F { .. };` braces are
                        // balanced expression braces, tracked by depth
                        // counting alone.
                    }
                    HeaderKind::Use => {
                        if fm.is_facade && !line.in_test {
                            collect_idents(trimmed, &mut fm.top_refs, &[]);
                        }
                        use_text.clear();
                        use_text.push_str(trimmed);
                        in_use = !trimmed.contains(';');
                        if !in_use {
                            use_aliases(&use_text, &mut aliases);
                        }
                        attr_exempt = false;
                        continue;
                    }
                }
                attr_exempt = false;
            }
        }

        // Attribute the line's references before structural tracking:
        // the target is the innermost fn active at line start, or the fn
        // whose (possibly multi-line) header is pending — signature types
        // are references too.
        let fn_target = pending
            .as_ref()
            .and_then(|p| match p.kind {
                PendKind::Fn { idx } => Some(idx),
                _ => None,
            })
            .or_else(|| {
                scopes.iter().rev().find_map(|s| match s.kind {
                    ScopeKind::Fn { idx } => Some(idx),
                    _ => None,
                })
            });
        if line.in_test {
            collect_idents(trimmed, &mut fm.test_refs, &excluded);
        } else if let Some(fi) = fn_target {
            let f = &mut fm.fns[fi];
            let own = [f.name.clone()];
            collect_idents(trimmed, &mut f.refs, &own);
            let mut new_calls = Vec::new();
            extract_calls(trimmed, &mut new_calls);
            if lineno == f.line {
                // `fn name(` on the header line is the declaration, not
                // a self-call.
                new_calls.retain(|c| c.name != f.name);
            }
            f.calls.extend(new_calls);
            for (set, hits) in [
                (PANIC_TOKENS, &mut f.panic_hits),
                (ALLOC_TOKENS, &mut f.alloc_hits),
                (TAINT_SINK_TOKENS, &mut f.sink_hits),
                (SHAREDMUT_TOKENS, &mut f.sharedmut_hits),
                (IO_TOKENS, &mut f.io_hits),
            ] {
                for token in set {
                    for col in rules::find_tokens(code, token) {
                        hits.push(TokenHit {
                            token,
                            line: lineno,
                            column: rules::char_column(code, col),
                        });
                    }
                }
            }
        } else if !pending
            .as_ref()
            .is_some_and(|p| matches!(p.kind, PendKind::Impl))
        {
            // Top level, impl bodies, struct fields, macro bodies: all
            // feed the unconditional liveness pool. Impl headers are
            // deferred to [`finalize_header`] — their type/trait names
            // are *definitions* being extended, not uses.
            collect_idents(trimmed, &mut fm.top_refs, &excluded);
        }

        if let Some(p) = pending.as_mut() {
            if !p.text.is_empty() {
                p.text.push(' ');
            }
            p.text.push_str(trimmed);
        }

        // Structural tracking: braces open/close scopes and terminate
        // pending headers.
        for c in code.chars() {
            match c {
                '(' | '[' => {
                    if let Some(p) = pending.as_mut() {
                        p.nest += 1;
                    }
                }
                ')' | ']' => {
                    if let Some(p) = pending.as_mut() {
                        p.nest -= 1;
                    }
                }
                '{' => {
                    if let Some(p) = pending.take() {
                        let kind = finalize_header(p, depth, &mut fm);
                        scopes.push(Scope {
                            close_depth: depth,
                            kind,
                        });
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if scopes.last().is_some_and(|s| s.close_depth == depth) {
                        scopes.pop();
                    }
                }
                ';' if pending.as_ref().is_some_and(|p| p.nest <= 0) => {
                    // Bodiless: trait method decl, `mod x;`, or an
                    // unrecognized construct — record, open nothing.
                    pending = None;
                }
                _ => {}
            }
        }
    }
    if fm
        .fns
        .iter()
        .any(|f| f.name == "main" && f.impl_type.is_none() && !f.in_test)
    {
        fm.is_bin = true;
    }
    resolve_aliases(&mut fm.fns, &aliases);
    fm
}

/// Records the aliases a `use` item introduces: `use p::{self as x}` and
/// `use p as x` (also inside nested groups) map `x` to `p`'s segments.
fn use_aliases(item: &str, out: &mut Vec<(String, Vec<String>)>) {
    let Some(at) = item.find("use ") else {
        return;
    };
    let mut toks = Vec::new();
    let mut rest = &item[at + "use ".len()..];
    loop {
        rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix("::") {
            toks.push("::");
            rest = r;
            continue;
        }
        let Some(c) = rest.chars().next() else {
            break;
        };
        let len = if is_ident(c) {
            rest.find(|c| !is_ident(c)).unwrap_or(rest.len())
        } else if matches!(c, '{' | '}' | ',' | '*') {
            1
        } else {
            break; // `;` ends the item
        };
        toks.push(&rest[..len]);
        rest = &rest[len..];
    }
    let mut pos = 0;
    use_tree(&toks, &mut pos, &[], out);
}

/// One use tree starting at `toks[*pos]` under path `prefix`; leaves
/// `*pos` on the `,` or `}` that ends it.
fn use_tree(
    toks: &[&str],
    pos: &mut usize,
    prefix: &[String],
    out: &mut Vec<(String, Vec<String>)>,
) {
    let mut path = prefix.to_vec();
    while let Some(&tok) = toks.get(*pos) {
        match tok {
            "," | "}" => return,
            "{" => {
                *pos += 1;
                while toks.get(*pos).is_some_and(|t| *t != "}") {
                    let before = *pos;
                    use_tree(toks, pos, &path, out);
                    if *pos == before || toks.get(*pos) == Some(&",") {
                        *pos += 1;
                    }
                }
                *pos += 1;
                return;
            }
            "as" => {
                if let Some(alias) = toks.get(*pos + 1).filter(|a| **a != "_") {
                    out.push((alias.to_string(), path));
                }
                *pos += 2;
                return;
            }
            // `self` inside a group names the group's path itself.
            "::" | "*" | "self" => {}
            seg => path.push(seg.to_string()),
        }
        *pos += 1;
    }
}

/// Rewrites calls through a `use` alias to the path it names, so the
/// graph pass resolves them like any qualified call: with
/// `use crate::executor::{self as obs}`, `obs::emit(` becomes
/// `crate::executor::emit(`; with `use p::f as g`, a bare `g(` becomes
/// `p::f(`.
fn resolve_aliases(fns: &mut [FnDef], aliases: &[(String, Vec<String>)]) {
    let target = |name: &str| aliases.iter().find(|(a, _)| a == name).map(|(_, p)| p);
    for call in fns.iter_mut().flat_map(|f| f.calls.iter_mut()) {
        if let Some(first) = call.quals.first() {
            if let Some(path) = target(first) {
                call.quals.splice(0..1, path.iter().cloned());
            }
        } else if !call.method {
            if let Some((name, quals)) = target(&call.name).and_then(|p| p.split_last()) {
                call.quals = quals.to_vec();
                call.name = name.clone();
            }
        }
    }
}

/// Turns a terminated header into the scope it opens, parsing impl
/// headers (and back-filling their deferred top-level refs).
fn finalize_header(p: Pending, _depth: i64, fm: &mut FileMap) -> ScopeKind {
    match p.kind {
        PendKind::Fn { idx } => ScopeKind::Fn { idx },
        PendKind::Trait { name } => ScopeKind::Impl {
            type_name: None,
            trait_name: Some(name),
        },
        PendKind::Mod { name } => ScopeKind::Mod { name },
        PendKind::Opaque => ScopeKind::Opaque,
        PendKind::Impl => {
            let (type_name, trait_name) = parse_impl_header(&p.text);
            let mut excluded: Vec<String> = Vec::new();
            excluded.extend(type_name.clone());
            excluded.extend(trait_name.clone());
            excluded.push("impl".to_string());
            let header = p.text.split('{').next().unwrap_or("");
            collect_idents(header, &mut fm.top_refs, &excluded);
            ScopeKind::Impl {
                type_name,
                trait_name,
            }
        }
    }
}

/// The (inline-module path, impl type, trait) context of a fn declared
/// with `scopes` open.
fn fn_context(scopes: &[Scope]) -> (Vec<String>, Option<String>, Option<String>) {
    let mut module = Vec::new();
    let mut impl_type = None;
    let mut trait_name = None;
    for s in scopes {
        match &s.kind {
            ScopeKind::Mod { name } => module.push(name.clone()),
            ScopeKind::Impl {
                type_name: t,
                trait_name: tr,
            } => {
                impl_type = t.clone();
                trait_name = tr.clone();
            }
            _ => {}
        }
    }
    (module, impl_type, trait_name)
}

#[derive(Debug)]
enum HeaderKind {
    Fn(String),
    Impl,
    Trait(String),
    Mod(String),
    MacroRules(String),
    Item(ItemKind, String),
    Use,
}

#[derive(Debug)]
struct Header {
    kind: HeaderKind,
    is_pub: bool,
}

/// Recognizes an item header at the start of a (trimmed) line, per the
/// rustfmt layout assumption. Returns `None` for anything else —
/// statements, struct fields, match arms — so misfires degrade to a
/// skipped item, never a panic.
fn parse_header(trimmed: &str) -> Option<Header> {
    let mut rest = trimmed;
    let mut is_pub = false;
    if let Some(r) = rest.strip_prefix("pub") {
        if let Some(r) = r.strip_prefix('(') {
            // Restricted visibility — pub(crate)/pub(super)/pub(in ..) is
            // not part of the external API surface.
            let close = r.find(')')?;
            rest = r[close + 1..].trim_start();
        } else if r.starts_with(char::is_whitespace) {
            is_pub = true;
            rest = r.trim_start();
        } else {
            return None; // `pubx...` — an identifier, not a visibility.
        }
    }
    // Qualifier keywords that may precede the defining keyword.
    loop {
        let mut advanced = false;
        for q in ["default ", "const ", "async ", "unsafe ", "auto "] {
            if let Some(r) = rest.strip_prefix(q) {
                // `const NAME:` is an item, not a qualifier — only treat
                // `const` as a qualifier when `fn` follows.
                if q == "const " && !r.trim_start().starts_with("fn ") {
                    let name = leading_ident(rest["const ".len()..].trim_start())?;
                    return Some(Header {
                        kind: HeaderKind::Item(ItemKind::Const, name),
                        is_pub,
                    });
                }
                rest = r.trim_start();
                advanced = true;
            }
        }
        if let Some(r) = rest.strip_prefix("extern ") {
            let r = r.trim_start();
            if let Some(r) = r.strip_prefix('"') {
                let close = r.find('"')?;
                rest = r[close + 1..].trim_start();
                advanced = true;
            } else {
                return None; // `extern crate ..;` — nothing to track.
            }
        }
        if !advanced {
            break;
        }
    }
    if let Some(r) = rest.strip_prefix("fn ") {
        return Some(Header {
            kind: HeaderKind::Fn(leading_ident(r.trim_start())?),
            is_pub,
        });
    }
    if rest == "impl" || rest.starts_with("impl ") || rest.starts_with("impl<") {
        return Some(Header {
            kind: HeaderKind::Impl,
            is_pub,
        });
    }
    if let Some(r) = rest.strip_prefix("trait ") {
        return Some(Header {
            kind: HeaderKind::Trait(leading_ident(r.trim_start())?),
            is_pub,
        });
    }
    if let Some(r) = rest.strip_prefix("mod ") {
        return Some(Header {
            kind: HeaderKind::Mod(leading_ident(r.trim_start())?),
            is_pub,
        });
    }
    if let Some(r) = rest.strip_prefix("macro_rules!") {
        return Some(Header {
            kind: HeaderKind::MacroRules(leading_ident(r.trim_start())?),
            is_pub,
        });
    }
    if rest.starts_with("use ") {
        return Some(Header {
            kind: HeaderKind::Use,
            is_pub,
        });
    }
    for (kw, kind) in [
        ("struct ", ItemKind::Struct),
        ("enum ", ItemKind::Enum),
        ("union ", ItemKind::Union),
        ("static ", ItemKind::Static),
        ("type ", ItemKind::Type),
    ] {
        if let Some(r) = rest.strip_prefix(kw) {
            // `static mut NAME` / `static ref NAME` (lazy_static idiom).
            let r = r.trim_start();
            let r = r.strip_prefix("mut ").unwrap_or(r).trim_start();
            return Some(Header {
                kind: HeaderKind::Item(kind, leading_ident(r)?),
                is_pub,
            });
        }
    }
    None
}

/// The identifier at the start of `s`, if any.
fn leading_ident(s: &str) -> Option<String> {
    let name: String = s.chars().take_while(|c| is_ident(*c)).collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(name)
    }
}

/// Parses an accumulated `impl ..` header into `(type, trait)` last path
/// segments: `impl<S: Sched> Exec<S>` → `(Exec, None)`; `impl Executor
/// for DesFaasExecutor` → `(DesFaasExecutor, Some(Executor))`.
fn parse_impl_header(text: &str) -> (Option<String>, Option<String>) {
    let t = text.trim_start();
    let t = t.strip_prefix("unsafe ").unwrap_or(t);
    let Some(t) = t.strip_prefix("impl") else {
        return (None, None);
    };
    let t = skip_generics(t.trim_start());
    let head = t.split('{').next().unwrap_or(t);
    let head = head.split(" where ").next().unwrap_or(head).trim();
    match split_top_level_for(head) {
        Some((tr, ty)) => (last_type_segment(ty), last_type_segment(tr)),
        None => (last_type_segment(head), None),
    }
}

/// Skips a leading `<..>` generic-parameter list (angle-depth aware).
fn skip_generics(s: &str) -> &str {
    let mut chars = s.char_indices();
    match chars.next() {
        Some((_, '<')) => {}
        _ => return s,
    }
    let mut depth = 1i32;
    for (i, c) in chars {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return &s[i + 1..];
                }
            }
            _ => {}
        }
    }
    ""
}

/// Splits `Trait for Type` at a ` for ` outside angle brackets.
fn split_top_level_for(s: &str) -> Option<(&str, &str)> {
    let mut depth = 0i32;
    let bytes = s.as_bytes();
    for i in 0..bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' => depth -= 1,
            b' ' if depth == 0 && s[i..].starts_with(" for ") => {
                return Some((&s[..i], &s[i + " for ".len()..]));
            }
            _ => {}
        }
    }
    None
}

/// The last `::` path segment of a type, generics and sigils stripped:
/// `&mut crate::pool::Pool<S>` → `Pool`.
fn last_type_segment(s: &str) -> Option<String> {
    let s = s.trim();
    let s = s.trim_start_matches(['&', '*']).trim_start();
    let s = s.strip_prefix("dyn ").unwrap_or(s);
    let s = s.strip_prefix("mut ").unwrap_or(s);
    let base = s.split('<').next().unwrap_or(s).trim();
    let seg = base.rsplit("::").next().unwrap_or(base).trim();
    leading_ident(seg)
}

/// Net `[`/`(` bracket balance of a line (attribute continuation check).
fn bracket_balance(s: &str) -> i64 {
    let mut n = 0i64;
    for c in s.chars() {
        match c {
            '[' | '(' => n += 1,
            ']' | ')' => n -= 1,
            _ => {}
        }
    }
    n
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// All identifiers in `code` (except `excluded` ones) into `out`.
fn collect_idents(code: &str, out: &mut BTreeSet<String>, excluded: &[String]) {
    for (_, ident) in idents(code) {
        if excluded.iter().any(|e| e == ident) {
            continue;
        }
        if !out.contains(ident) {
            out.insert(ident.to_string());
        }
    }
}

/// `(byte offset, identifier)` pairs, numeric literals excluded.
fn idents(code: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = code[i..].chars().next().unwrap_or(' ');
        if is_ident(c) {
            let start = i;
            while i < bytes.len() {
                let c = code[i..].chars().next().unwrap_or(' ');
                if !is_ident(c) {
                    break;
                }
                i += c.len_utf8();
            }
            let ident = &code[start..i];
            if !ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                out.push((start, ident));
            }
        } else {
            i += c.len_utf8();
        }
    }
    out
}

/// Call sites on one body line: `name(`, `Qual::name(`, `x.name(`,
/// `name::<T>(`. Macro invocations (`name!(`) are not call edges — their
/// bodies were already scanned textually where they were defined.
fn extract_calls(code: &str, out: &mut Vec<Call>) {
    for (start, ident) in idents(code) {
        let after = &code[start + ident.len()..];
        let mut rest = after;
        if let Some(r) = rest.strip_prefix("::<") {
            // Turbofish: skip to the matching `>`.
            let mut depth = 1i32;
            let mut end = None;
            for (i, c) in r.char_indices() {
                match c {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            end = Some(i + 1);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            match end {
                Some(e) => rest = &r[e..],
                None => continue,
            }
        }
        if !rest.starts_with('(') || after.starts_with('!') {
            continue;
        }
        // Walk path qualifiers backwards: `a::b::name(` → ["a", "b"].
        let mut quals: Vec<String> = Vec::new();
        let mut upto = start;
        loop {
            let before = &code[..upto];
            let Some(b2) = before.strip_suffix("::") else {
                break;
            };
            let seg_start = b2
                .char_indices()
                .rev()
                .take_while(|(_, c)| is_ident(*c))
                .last()
                .map(|(i, _)| i);
            let Some(s) = seg_start else {
                break; // `<T as Tr>::name(` — treat as unqualified.
            };
            let seg = &b2[s..];
            if seg.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                break;
            }
            quals.insert(0, seg.to_string());
            upto = s;
        }
        out.push(Call {
            name: ident.to_string(),
            method: quals.is_empty() && code[..start].trim_end().ends_with('.'),
            quals,
        });
    }
}

/// All identifiers in every code line of a reference-only file
/// (`tests/`, `benches/`, `examples/`): fuel for `dead-pub-api`
/// liveness, never linted.
pub(crate) fn reference_idents(classified: &Classified, out: &mut BTreeSet<String>) {
    for line in &classified.lines {
        collect_idents(&line.code, out, &[]);
    }
}

/// Module path implied by a file's location: path segments under `src/`,
/// with `lib`/`main`/`mod` dropped (`crates/dd-bench/src/experiments/
/// overhead.rs` → `["experiments", "overhead"]`).
fn file_modules(rel_path: &str) -> Vec<String> {
    let Some(pos) = rel_path.find("src/") else {
        return Vec::new();
    };
    let tail = &rel_path[pos + "src/".len()..];
    let tail = tail.strip_suffix(".rs").unwrap_or(tail);
    tail.split('/')
        .filter(|s| !s.is_empty() && *s != "lib" && *s != "main" && *s != "mod" && *s != "bin")
        .map(|s| s.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::classify;

    fn extract(src: &str) -> FileMap {
        extract_file("crates/demo/src/lib.rs", "demo", &classify(src))
    }

    #[test]
    fn plain_fn_with_span_and_refs() {
        let fm = extract("pub fn alpha(x: Widget) -> Gear {\n    beta(x);\n    x.gamma()\n}\n");
        assert_eq!(fm.fns.len(), 1);
        let f = &fm.fns[0];
        assert_eq!((f.name.as_str(), f.line, f.is_pub), ("alpha", 1, true));
        assert!(f.refs.contains("Widget") && f.refs.contains("Gear"));
        assert!(!f.refs.contains("alpha"), "own name excluded: {:?}", f.refs);
        let calls: Vec<&str> = f.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(calls, ["beta", "gamma"]);
    }

    #[test]
    fn impl_and_trait_context() {
        let src = "impl Executor for DesFaasExecutor {\n    fn run(&mut self) {\n        self.serve()\n    }\n}\n\
                   impl DesFaasExecutor {\n    pub fn serve(&self) {}\n}\n\
                   trait Sched {\n    fn pick(&self);\n    fn hint(&self) -> u32 {\n        0\n    }\n}\n";
        let fm = extract(src);
        let names: Vec<(&str, Option<&str>, Option<&str>)> = fm
            .fns
            .iter()
            .map(|f| {
                (
                    f.name.as_str(),
                    f.impl_type.as_deref(),
                    f.trait_name.as_deref(),
                )
            })
            .collect();
        assert_eq!(
            names,
            [
                ("run", Some("DesFaasExecutor"), Some("Executor")),
                ("serve", Some("DesFaasExecutor"), None),
                ("pick", None, Some("Sched")),
                ("hint", None, Some("Sched")),
            ]
        );
        // Impl-header names are definitions, not references.
        assert!(
            !fm.top_refs.contains("DesFaasExecutor"),
            "{:?}",
            fm.top_refs
        );
    }

    #[test]
    fn inline_modules_and_qualified_calls() {
        let src = "mod inner {\n    pub fn f() {\n        Helper::make();\n        crate::top();\n    }\n}\n";
        let fm = extract(src);
        let f = &fm.fns[0];
        assert_eq!(f.module, ["inner"]);
        assert_eq!(f.calls[0].name, "make");
        assert_eq!(f.calls[0].quals, ["Helper"]);
        assert_eq!(f.calls[1].name, "top");
        assert_eq!(f.calls[1].quals, ["crate"]);
    }

    #[test]
    fn items_and_pubness() {
        let src = "pub struct Gear {\n    pub teeth: Cog,\n}\npub(crate) enum E {\n    A,\n}\nconst LIMIT: usize = 3;\npub trait T {}\n#[deprecated]\npub fn old() {}\n";
        let fm = extract(src);
        let items: Vec<(&str, ItemKind, bool)> = fm
            .items
            .iter()
            .map(|i| (i.name.as_str(), i.kind, i.is_pub))
            .collect();
        assert_eq!(
            items,
            [
                ("Gear", ItemKind::Struct, true),
                ("E", ItemKind::Enum, false),
                ("LIMIT", ItemKind::Const, false),
                ("T", ItemKind::Trait, true),
            ]
        );
        // Struct field types are unconditional liveness refs.
        assert!(fm.top_refs.contains("Cog"));
        assert!(fm.fns[0].exempt, "deprecated fn is exempt");
    }

    #[test]
    fn token_hits_located_in_bodies() {
        let src = "fn hot() {\n    let v = q.pop().unwrap();\n    let s = name.to_string();\n    let t = Instant::now();\n}\n";
        let fm = extract(src);
        let f = &fm.fns[0];
        assert_eq!(f.panic_hits.len(), 1);
        assert_eq!(
            (f.panic_hits[0].line, f.panic_hits[0].token),
            (2, ".unwrap()")
        );
        assert_eq!(f.alloc_hits.len(), 1);
        assert_eq!(f.sink_hits.len(), 1);
        assert_eq!(f.sink_hits[0].token, "Instant::now");
    }

    #[test]
    fn test_regions_fuel_test_refs_not_findings() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        helper_under_test();\n    }\n}\n";
        let fm = extract(src);
        assert!(fm.fns.iter().all(|f| f.in_test));
        assert!(fm.test_refs.contains("helper_under_test"));
    }

    #[test]
    fn use_aliases_cover_self_groups_nesting_and_renames() {
        let mut out = Vec::new();
        use_aliases(
            "pub(crate) use crate::a::{self as x, b::{self as y, C}, d as e, f as _, g::*};",
            &mut out,
        );
        use_aliases("use super::h as k;", &mut out);
        use_aliases("use crate::plain::{One, Two};", &mut out);
        let seg = |p: &[&str]| p.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            out,
            vec![
                ("x".to_string(), seg(&["crate", "a"])),
                ("y".to_string(), seg(&["crate", "a", "b"])),
                ("e".to_string(), seg(&["crate", "a", "d"])),
                ("k".to_string(), seg(&["super", "h"])),
            ]
        );
    }

    #[test]
    fn aliased_calls_resolve_to_the_aliased_path() {
        let src = "use crate::executor::{self as obs, Other};\nuse crate::fit::grid as g;\n\
                   fn f() {\n    obs::emit(1);\n    g(2);\n    v.g(3);\n}\n";
        let fm = extract(src);
        let calls: Vec<(Vec<String>, &str)> = fm.fns[0]
            .calls
            .iter()
            .map(|c| (c.quals.clone(), c.name.as_str()))
            .collect();
        let seg = |p: &[&str]| p.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            calls,
            vec![
                (seg(&["crate", "executor"]), "emit"),
                (seg(&["crate", "fit"]), "grid"),
                (seg(&[]), "g"),
            ]
        );
    }

    #[test]
    fn use_lines_skipped_outside_facade() {
        let fm = extract("use crate::deep::Thing;\nfn f() {}\n");
        assert!(!fm.top_refs.contains("Thing"), "{:?}", fm.top_refs);
        let root = extract_file(
            "src/lib.rs",
            "root",
            &classify("pub use dd_platform::Executor;\n"),
        );
        assert!(root.is_facade);
        assert!(root.top_refs.contains("Executor"));
    }

    #[test]
    fn macro_bodies_feed_top_refs() {
        let src = "macro_rules! check {\n    ($e:expr) => {\n        validate($e)\n    };\n}\n";
        let fm = extract(src);
        assert_eq!(fm.items[0].kind, ItemKind::Macro);
        assert!(fm.top_refs.contains("validate"));
        // Macro bodies never produce phantom fn symbols.
        assert!(fm.fns.is_empty());
    }

    #[test]
    fn multiline_signatures_and_headers() {
        let src = "pub fn long(\n    a: Alpha,\n    b: Beta,\n) -> Gamma {\n    a.go()\n}\nimpl<S: Sched>\n    Pool<S>\n{\n    fn drain(&mut self) {}\n}\n";
        let fm = extract(src);
        assert_eq!(fm.fns[0].name, "long");
        assert!(fm.fns[0].refs.contains("Alpha") && fm.fns[0].refs.contains("Beta"));
        assert_eq!(fm.fns[1].name, "drain");
        assert_eq!(fm.fns[1].impl_type.as_deref(), Some("Pool"));
    }

    #[test]
    fn bin_detection() {
        assert!(extract_file("crates/x/src/main.rs", "x", &classify("fn other() {}\n")).is_bin);
        assert!(extract("fn main() {\n    go();\n}\n").is_bin);
        assert!(!extract("fn helper() {}\n").is_bin);
    }

    #[test]
    fn file_module_paths() {
        assert_eq!(
            file_modules("crates/dd-bench/src/experiments/overhead.rs"),
            ["experiments", "overhead"]
        );
        assert!(file_modules("crates/dd-platform/src/lib.rs").is_empty());
        assert_eq!(file_modules("crates/x/src/bin/tool.rs"), ["tool"]);
    }

    #[test]
    fn turbofish_and_method_calls() {
        let fm =
            extract("fn f() {\n    v.iter().collect::<Vec<_>>();\n    Pool::<u32>::with(3);\n}\n");
        let calls: Vec<(&str, &[String])> = fm.fns[0]
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.quals.as_slice()))
            .collect();
        assert_eq!(calls[0].0, "iter");
        assert_eq!(calls[1].0, "collect");
        assert!(calls.iter().any(|(n, _)| *n == "with"));
    }

    #[test]
    fn impl_header_parsing() {
        assert_eq!(
            parse_impl_header("impl Executor for DesFaasExecutor {"),
            (Some("DesFaasExecutor".into()), Some("Executor".into()))
        );
        assert_eq!(
            parse_impl_header("impl<S: Scheduler> Pool<S> {"),
            (Some("Pool".into()), None)
        );
        assert_eq!(
            parse_impl_header("impl<T> From<Wrapper<T>> for crate::sim::SimTime {"),
            (Some("SimTime".into()), Some("From".into()))
        );
        assert_eq!(
            parse_impl_header("impl dyn Recorder {"),
            (Some("Recorder".into()), None)
        );
    }

    #[test]
    fn const_initializer_braces_do_not_open_scopes() {
        let src = "const A: Foo = Foo {\n    x: 1,\n};\nfn after() {}\n";
        let fm = extract(src);
        assert_eq!(fm.items[0].name, "A");
        assert_eq!(fm.fns[0].name, "after");
        assert!(fm.fns[0].impl_type.is_none());
    }
}
