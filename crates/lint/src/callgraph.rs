//! Intra-crate call-graph approximation and the `panic-reachability`
//! rule.
//!
//! The daemon contract (DESIGN.md §10) is that `cfsd` never dies on
//! untrusted `cfs-api/1` input. The lexical `unwrap-in-lib` rule freezes
//! the panic-site *inventory*; this module adds the *reachability* half:
//! starting from the request-loop roots ([`PANIC_ROOTS`]), every
//! function a request can reach transitively must be free of panic
//! sites — `panic!`-family macros, bare `.unwrap()`, *any* `.expect(`
//! (a documented invariant is still a dead daemon when it is wrong
//! about hostile input), `assert!`-family macros, and non-range
//! indexing (`xs[i]` panics, `xs.get(i)` does not).
//!
//! Resolution is name-based within one crate (see [`crate::resolve`]):
//! a call edge exists from `f` to every same-crate `fn` sharing the
//! callee's name. That over-approximates reachability, which is the
//! sound direction for this rule. Cross-crate edges are out of scope —
//! the engine behind `apply_delta` has its own `unwrap-in-lib`
//! freeze — and `#[cfg(test)]` code neither roots nor sinks the walk.

use std::collections::{BTreeMap, BTreeSet};

use crate::resolve::{SourceFile, SymbolTable, Workspace};
use crate::rules::{Finding, Target};

/// The request-loop entry points the reachability walk starts from,
/// as `(crate, function)` pairs: the `cfsd` accept/dispatch loop in
/// `crates/svc` and `Daemon::handle` in the root crate's
/// `src/daemon.rs`, which answers every parsed request.
pub const PANIC_ROOTS: &[(&str, &str)] = &[
    ("svc", "serve"),
    ("svc", "serve_connection"),
    ("svc", "parse_request"),
    ("cfs", "handle"),
];

/// One panic site inside a function body.
#[derive(Clone, Debug)]
pub struct PanicSite {
    /// 0-based line.
    pub line: usize,
    /// 0-based char column.
    pub col: usize,
    /// What panics there (`panic!`, `.unwrap()`, `index`, …).
    pub what: &'static str,
}

/// The call graph of one crate: per function name, the set of callee
/// names it mentions (union over same-name definitions).
#[derive(Default)]
pub struct CrateCallGraph {
    /// Caller name → callee names.
    pub calls: BTreeMap<String, BTreeSet<String>>,
    /// Function name → panic sites in any same-name definition outside
    /// `#[cfg(test)]` code, with the defining path attached.
    pub panic_sites: BTreeMap<String, Vec<(String, PanicSite)>>,
}

/// Call graphs for every crate with symbols.
#[derive(Default)]
pub struct CallGraph {
    /// Crate name → its graph.
    pub crates: BTreeMap<String, CrateCallGraph>,
}

fn is_ident(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Collects callee names mentioned on one masked line: identifiers
/// directly followed by `(` (direct calls, method calls, associated
/// calls alike) and identifiers followed by `!` + `(`/`[` are macro
/// invocations, which are *not* function calls and are skipped here.
pub fn callees_on_line(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if !(bytes[i] == b'_' || bytes[i].is_ascii_alphabetic()) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident(bytes[i]) {
            i += 1;
        }
        // Generic turbofish between name and `(`: `parse::<f64>()`.
        let mut j = i;
        if bytes.get(j) == Some(&b':')
            && bytes.get(j + 1) == Some(&b':')
            && bytes.get(j + 2) == Some(&b'<')
        {
            let mut depth = 0i32;
            while j < bytes.len() {
                match bytes[j] {
                    b'<' => depth += 1,
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if bytes.get(j) == Some(&b'(') {
            let name = &line[start..i];
            let keyword = matches!(
                name,
                "if" | "while" | "for" | "match" | "return" | "fn" | "loop" | "move" | "in"
            );
            if !keyword && !name.starts_with(|c: char| c.is_ascii_uppercase()) {
                out.push(name.to_owned());
            }
        }
        if bytes.get(i) == Some(&b'!') {
            // macro — skip the bang so `vec!(..)` is not a call to `vec`
            i += 1;
        }
    }
    out
}

/// Scans one masked line for panic sites. `raw` is the char-aligned raw
/// line (unused today, kept for message context growth).
pub fn panic_sites_on_line(line: &str) -> Vec<PanicSite> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    for needle in [
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
        "assert!",
        "assert_eq!",
        "assert_ne!",
    ] {
        let mut from = 0usize;
        while let Some(p) = line[from..].find(needle) {
            let at = from + p;
            from = at + needle.len();
            let pre_ok = at == 0 || !is_ident(bytes[at - 1]);
            // `debug_assert!` is stripped in release; its prefix would
            // otherwise satisfy the `assert!` word boundary check.
            let debug = needle.starts_with("assert") && at >= 6 && line[..at].ends_with("debug_");
            if pre_ok && !debug {
                out.push(PanicSite {
                    line: 0,
                    col: at,
                    what: match needle {
                        "panic!" => "panic!",
                        "unreachable!" => "unreachable!",
                        "todo!" => "todo!",
                        "unimplemented!" => "unimplemented!",
                        _ => "assert!-family macro",
                    },
                });
            }
        }
    }
    for (needle, what) in [
        (".unwrap()", "bare `.unwrap()`"),
        (".expect(", "`.expect(...)`"),
    ] {
        let mut from = 0usize;
        while let Some(p) = line[from..].find(needle) {
            let at = from + p;
            from = at + needle.len();
            // `.expect(` must not also match `.expect_err(` etc. — the
            // needle ends at `(` so longer method names cannot match.
            out.push(PanicSite {
                line: 0,
                col: at,
                what,
            });
        }
    }
    // Non-range indexing: `xs[i]` panics out of bounds. An index whose
    // bracket content contains `..` is a range slice and is skipped
    // (ranges panic too, but every parser in this workspace slices with
    // cursor invariants; flagging them would drown the signal).
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'['
            && i > 0
            && (is_ident(bytes[i - 1]) || bytes[i - 1] == b')' || bytes[i - 1] == b']')
        {
            // attribute `#[...]` and macro `vec![...]` forms never get
            // here: `#` and `!` are not identifier bytes.
            let mut depth = 1i32;
            let mut j = i + 1;
            let mut has_range = false;
            while j < bytes.len() && depth > 0 {
                match bytes[j] {
                    b'[' => depth += 1,
                    b']' => depth -= 1,
                    b'.' if bytes.get(j + 1) == Some(&b'.') => has_range = true,
                    _ => {}
                }
                j += 1;
            }
            if !has_range {
                out.push(PanicSite {
                    line: 0,
                    col: i,
                    what: "non-range indexing",
                });
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out.sort_by_key(|s| s.col);
    out
}

/// Builds the per-crate call graphs over the symbol table.
pub fn build_callgraph(ws: &Workspace, symbols: &SymbolTable) -> CallGraph {
    let mut graph = CallGraph::default();
    let by_path: BTreeMap<&str, &SourceFile> =
        ws.files.iter().map(|f| (f.path.as_str(), f)).collect();
    for (crate_name, syms) in &symbols.crates {
        let entry = graph.crates.entry(crate_name.clone()).or_default();
        for defs in syms.fns.values() {
            for def in defs {
                if def.body_start > def.body_end {
                    continue; // bodyless declaration
                }
                let Some(file) = by_path.get(def.path.as_str()) else {
                    continue;
                };
                let callers = entry.calls.entry(def.name.clone()).or_default();
                for lineno in def.body_start..=def.body_end {
                    let line = &file.scanned.code[lineno];
                    for callee in callees_on_line(line) {
                        if callee != def.name && syms.fns.contains_key(&callee) {
                            callers.insert(callee);
                        }
                    }
                    if !def.in_test && !file.scanned.in_test[lineno] {
                        for mut site in panic_sites_on_line(line) {
                            site.line = lineno;
                            entry
                                .panic_sites
                                .entry(def.name.clone())
                                .or_default()
                                .push((def.path.clone(), site));
                        }
                    }
                }
            }
        }
    }
    graph
}

/// The set of function names reachable from `roots` in one crate.
pub fn reachable(graph: &CrateCallGraph, roots: &[&str]) -> BTreeSet<String> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut stack: Vec<String> = roots
        .iter()
        .filter(|r| graph.calls.contains_key(**r) || graph.panic_sites.contains_key(**r))
        .map(|r| (*r).to_owned())
        .collect();
    while let Some(name) = stack.pop() {
        if !seen.insert(name.clone()) {
            continue;
        }
        if let Some(callees) = graph.calls.get(&name) {
            for callee in callees {
                if !seen.contains(callee) {
                    stack.push(callee.clone());
                }
            }
        }
    }
    seen
}

/// Runs the `panic-reachability` rule over the workspace: for each
/// crate with declared roots, walk the call graph and report every
/// panic site in a reachable, non-test function. Bench/test/example
/// targets never carry symbols, so they cannot fire.
pub fn panic_reachability_findings(ws: &Workspace, graph: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut roots_by_crate: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (krate, root) in PANIC_ROOTS {
        roots_by_crate.entry(krate).or_default().push(root);
    }
    // Vendor files never participate (no symbols): target gate below is
    // belt and braces for future classify extensions.
    let _ = ws
        .files
        .iter()
        .filter(|f| matches!(f.ctx.target, Target::Lib | Target::Bin))
        .count();
    for (krate, roots) in &roots_by_crate {
        let Some(cg) = graph.crates.get(*krate) else {
            continue;
        };
        let live = reachable(cg, roots);
        for name in &live {
            let Some(sites) = cg.panic_sites.get(name) else {
                continue;
            };
            for (path, site) in sites {
                findings.push(Finding {
                    path: path.clone(),
                    line: site.line + 1,
                    col: site.col + 1,
                    rule: "panic-reachability",
                    message: format!(
                        "{} in `{name}`, reachable from the cfsd request loop (root set: {}); the daemon must answer a typed cfs-api/1 error instead of dying",
                        site.what,
                        roots.join(", "),
                    ),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::build_symbols;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            files
                .iter()
                .map(|(p, s)| ((*p).to_owned(), (*s).to_owned()))
                .collect(),
        )
    }

    #[test]
    fn callees_ignore_macros_keywords_and_types() {
        let got = callees_on_line("if check(x) { vec![frob(y)]; Foo::new(); bar!(baz); }");
        assert_eq!(got, ["check", "frob", "new"]);
    }

    #[test]
    fn turbofish_calls_resolve() {
        assert_eq!(callees_on_line("raw.parse::<f64>().ok()"), ["parse", "ok"]);
    }

    #[test]
    fn panic_sites_cover_the_catalog() {
        let sites = panic_sites_on_line("xs[i] = a.unwrap() + b.expect(msg); panic!(\"x\")");
        let whats: Vec<&str> = sites.iter().map(|s| s.what).collect();
        assert!(whats.contains(&"non-range indexing"));
        assert!(whats.contains(&"bare `.unwrap()`"));
        assert!(whats.contains(&"`.expect(...)`"));
        assert!(whats.contains(&"panic!"));
    }

    #[test]
    fn ranges_attributes_and_unwrap_or_do_not_fire() {
        assert!(panic_sites_on_line("let a = &xs[1..n];").is_empty());
        assert!(panic_sites_on_line("#[derive(Debug)]").is_empty());
        assert!(panic_sites_on_line("x.unwrap_or(0); y.unwrap_or_default();").is_empty());
        assert!(panic_sites_on_line("debug_assert!(x > 0);").is_empty());
        assert!(panic_sites_on_line("let t: [u8; 4] = make();").is_empty());
    }

    #[test]
    fn reachability_walks_transitively_and_skips_unlinked_fns() {
        let w = ws(&[(
            "crates/svc/src/server.rs",
            "fn serve_connection() { step(); }\nfn step() { deep(); }\nfn deep() { x.unwrap(); }\nfn dead() { y.unwrap(); }\n",
        )]);
        let symbols = build_symbols(&w);
        let graph = build_callgraph(&w, &symbols);
        let findings = panic_reachability_findings(&w, &graph);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].line, 3, "only the reachable unwrap fires");
    }

    #[test]
    fn test_code_neither_roots_nor_sinks() {
        let w = ws(&[(
            "crates/svc/src/server.rs",
            "fn serve_connection() { helper(); }\nfn helper() {}\n#[cfg(test)]\nmod tests {\n    fn serve_connection() { oops.unwrap(); }\n}\n",
        )]);
        let symbols = build_symbols(&w);
        let graph = build_callgraph(&w, &symbols);
        assert!(panic_reachability_findings(&w, &graph).is_empty());
    }
}
