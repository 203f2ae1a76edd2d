//! `cfs-lint` — the workspace invariant linter.
//!
//! An offline, dependency-free static-analysis pass over this
//! workspace's own Rust sources, for the invariants that need a call
//! graph or a closure's capture set:
//!
//! * **`panic-reachability`** ([`callgraph`]): no panic site reachable
//!   from the cfsd request loop, along an intra-crate call-graph
//!   approximation built on a per-crate symbol table ([`resolve`]);
//! * **`determinism-race`** ([`captures`]): worker closures of the
//!   ordered fan-out must not mutate captures or sequence results
//!   through locks;
//! * **`expect-message`** ([`rules`]): the one token rule, a literal
//!   message on every library `.expect(…)`.
//!
//! Everything else lives where it is checked directly: path bans,
//! sockets and bare `unwrap()` in clippy (`clippy.toml`, the library
//! roots' `#![deny(clippy::unwrap_used)]`), the `cfs-api/1` vocabulary
//! and the vendored stubs' surface in root-package tests. All rules
//! read source masked by one scanner ([`lexer`]). Output is
//! deterministic: files are visited in sorted order and findings are
//! fully ordered, so `--json` output — stamped `cfs-lint/1` — is
//! byte-stable across runs, as is the analysis dump behind
//! `cfs-lint graph --json`.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod callgraph;
pub mod captures;
pub mod lexer;
pub mod resolve;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use resolve::Workspace;
pub use rules::{check_source, classify, Finding, RuleInfo, Target, RULES};

/// The version tag stamped on every JSON document this tool emits, in
/// the same spirit as `cfs-api/1` and `cfs-trace/1`: consumers sniff it
/// before interpreting anything else.
pub const LINT_SCHEMA: &str = "cfs-lint/1";

/// True when `json` is a `cfs-lint/1` document — the sniff check
/// downstream tooling (and this crate's own tests) applies before
/// trusting the payload shape.
pub fn is_versioned_output(json: &str) -> bool {
    json.starts_with("{\"schema\":\"cfs-lint/1\",")
}

/// Directory prefixes (workspace-relative) the walker never descends
/// into. `fixtures` holds deliberately dirty snippets for the linter's
/// own tests; `vendor` holds the dependency stubs, whose surface
/// `tests/lint_clean.rs` checks.
const SKIP_PREFIXES: &[&str] = &[
    ".git",
    "target",
    "results",
    "vendor",
    "crates/lint/tests/fixtures",
];

/// Locates the workspace root by walking up from `start` until a
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collects every lintable `.rs` file under `root`, as sorted
/// workspace-relative `/`-separated paths.
pub fn collect_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = match path.strip_prefix(root) {
                Ok(r) => r.to_string_lossy().replace('\\', "/"),
                Err(_) => continue,
            };
            if SKIP_PREFIXES
                .iter()
                .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
            {
                continue;
            }
            let ty = entry.file_type()?;
            if ty.is_dir() {
                stack.push(path);
            } else if rel.ends_with(".rs") && classify(&rel).is_some() {
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Loads the workspace model the rules run over: every lintable source.
pub fn load_workspace(root: &Path) -> io::Result<Workspace> {
    let mut sources = Vec::new();
    for rel in collect_files(root)? {
        let source = fs::read_to_string(root.join(&rel))?;
        sources.push((rel, source));
    }
    Ok(Workspace::from_sources(sources))
}

/// Runs the call-graph rules over a loaded workspace: panic-reachability
/// from the cfsd request loop and determinism-race over worker closures.
pub fn semantic_findings(ws: &Workspace) -> Vec<Finding> {
    let symbols = resolve::build_symbols(ws);
    let graph = callgraph::build_callgraph(ws, &symbols);
    let closures = captures::find_spawn_closures(ws);
    let mut findings = callgraph::panic_reachability_findings(&graph);
    findings.extend(captures::determinism_race_findings(ws, &closures));
    findings
}

/// Lints the whole workspace rooted at `root`: the token rule per file,
/// then the call-graph rules across files. Findings come back in a
/// total order (path, line, col, rule), identical across runs.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let ws = load_workspace(root)?;
    let mut findings = semantic_findings(&ws);
    for file in &ws.files {
        findings.extend(rules::lexical_findings(
            &file.ctx,
            &file.path,
            &file.scanned,
        ));
    }
    findings.sort();
    Ok(findings)
}

/// Escapes a string for JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

fn json_str_array(items: impl IntoIterator<Item = String>) -> String {
    let quoted: Vec<String> = items
        .into_iter()
        .map(|s| format!("\"{}\"", json_escape(&s)))
        .collect();
    format!("[{}]", quoted.join(","))
}

/// Renders findings as a single-line `cfs-lint/1` JSON document with a
/// fixed key order and fully sorted contents — byte-stable across runs.
pub fn render_json(findings: &[Finding]) -> String {
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for f in findings {
        match counts.iter_mut().find(|(r, _)| *r == f.rule) {
            Some((_, n)) => *n += 1,
            None => counts.push((f.rule, 1)),
        }
    }
    counts.sort();
    let mut out = format!("{{\"schema\":\"{LINT_SCHEMA}\",\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"path\":\"{}\",\"line\":{},\"col\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&f.path),
            f.line,
            f.col,
            f.rule,
            json_escape(&f.message)
        ));
    }
    out.push_str("],\"counts\":{");
    for (i, (rule, n)) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{rule}\":{n}"));
    }
    out.push_str(&format!("}},\"total\":{}}}", findings.len()));
    out
}

/// Renders the analysis internals — symbol table, call graph,
/// reachable sets, spawn-closure captures — as a single-line
/// `cfs-lint/1` JSON document. Everything is BTree-ordered, so the dump
/// is byte-stable across runs; `cfs-lint graph --json` is the debugging
/// window into why a call-graph rule did (not) fire.
pub fn render_graph_json(ws: &Workspace) -> String {
    let symbols = resolve::build_symbols(ws);
    let graph = callgraph::build_callgraph(ws, &symbols);
    let closures = captures::find_spawn_closures(ws);

    let mut out = format!("{{\"schema\":\"{LINT_SCHEMA}\",\"symbols\":{{");
    for (i, (krate, syms)) in symbols.crates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{{", json_escape(krate)));
        for (j, (name, defs)) in syms.fns.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let sites: Vec<String> = defs
                .iter()
                .map(|d| {
                    format!(
                        "{{\"path\":\"{}\",\"line\":{}}}",
                        json_escape(&d.path),
                        d.line + 1
                    )
                })
                .collect();
            out.push_str(&format!("\"{}\":[{}]", json_escape(name), sites.join(",")));
        }
        out.push('}');
    }
    out.push_str("},\"calls\":{");
    for (i, (krate, cg)) in graph.crates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{{", json_escape(krate)));
        for (j, (name, callees)) in cg.calls.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{}",
                json_escape(name),
                json_str_array(callees.iter().cloned())
            ));
        }
        out.push('}');
    }
    out.push_str("},\"reachable\":{");
    let mut roots_by_crate: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (krate, root) in callgraph::PANIC_ROOTS {
        roots_by_crate.entry(krate).or_default().push(root);
    }
    let mut first = true;
    for (krate, roots) in &roots_by_crate {
        let Some(cg) = graph.crates.get(*krate) else {
            continue;
        };
        if !first {
            out.push(',');
        }
        first = false;
        let live = callgraph::reachable(cg, roots);
        out.push_str(&format!(
            "\"{}\":{}",
            json_escape(krate),
            json_str_array(live.into_iter())
        ));
    }
    out.push_str("},\"spawns\":[");
    for (i, c) in closures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"path\":\"{}\",\"line\":{},\"captures\":{}}}",
            json_escape(&c.path),
            c.line + 1,
            json_str_array(c.captures.iter().cloned())
        ));
    }
    out.push_str("]}");
    out
}

/// Renders findings for humans: one `path:line:col: rule: message` per
/// finding plus a summary line.
pub fn render_human(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}:{}: {}: {}\n",
            f.path, f.line, f.col, f.rule, f.message
        ));
    }
    if findings.is_empty() {
        out.push_str(&format!(
            "cfs-lint: clean ({files_scanned} files scanned)\n"
        ));
    } else {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for f in findings {
            match counts.iter_mut().find(|(r, _)| *r == f.rule) {
                Some((_, n)) => *n += 1,
                None => counts.push((f.rule, 1)),
            }
        }
        counts.sort();
        let by_rule: Vec<String> = counts.iter().map(|(r, n)| format!("{r}: {n}")).collect();
        out.push_str(&format!(
            "cfs-lint: {} findings ({})\n",
            findings.len(),
            by_rule.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_stable_escaped_and_versioned() {
        let findings = vec![Finding {
            path: "crates/x/src/a.rs".into(),
            line: 3,
            col: 7,
            rule: "expect-message",
            message: "uses \"now\"".into(),
        }];
        let a = render_json(&findings);
        let b = render_json(&findings);
        assert_eq!(a, b);
        assert!(a.contains("\\\"now\\\""));
        assert!(a.contains("\"total\":1"));
        assert!(is_versioned_output(&a), "{a}");
    }

    #[test]
    fn empty_render() {
        assert_eq!(
            render_json(&[]),
            "{\"schema\":\"cfs-lint/1\",\"findings\":[],\"counts\":{},\"total\":0}"
        );
        assert!(render_human(&[], 12).contains("clean (12 files"));
    }

    #[test]
    fn unversioned_output_is_rejected_by_the_sniffer() {
        assert!(!is_versioned_output(
            "{\"findings\":[],\"counts\":{},\"total\":0}"
        ));
        assert!(!is_versioned_output(
            "{\"schema\":\"cfs-lint/2\",\"findings\":[]}"
        ));
        assert!(!is_versioned_output(""));
    }

    #[test]
    fn graph_dump_is_versioned_and_stable() {
        let ws = Workspace::from_sources(vec![(
            "crates/svc/src/server.rs".to_owned(),
            "fn serve_connection() { helper(); }\nfn helper() {}\n".to_owned(),
        )]);
        let a = render_graph_json(&ws);
        let b = render_graph_json(&ws);
        assert_eq!(a, b);
        assert!(is_versioned_output(&a), "{a}");
        assert!(a.contains("\"reachable\""));
        assert!(a.contains("\"serve_connection\""));
    }
}
