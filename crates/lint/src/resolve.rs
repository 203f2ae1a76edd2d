//! The workspace model and per-crate symbol table the call-graph rules
//! build on.
//!
//! This is deliberately *not* a Rust front end. On top of the masking
//! lexer ([`crate::lexer::scan`]) it recovers just enough structure for
//! the cross-file rules of DESIGN.md §6:
//!
//! - which crate and target every file belongs to ([`crate::rules::classify`]),
//! - every `fn` item per crate, with its source extent (brace-matched
//!   over masked code, so braces inside strings and comments never
//!   confuse the walk).
//!
//! Resolution is name-based and intra-crate: a call `foo(...)` or
//! `x.foo(...)` resolves to *every* `fn foo` in the same crate. That
//! over-approximates the call graph — exactly the right direction for
//! the panic-reachability rule, which must never report "unreachable"
//! for a path that exists.

use std::collections::BTreeMap;

use crate::lexer::{scan, ScannedFile};
use crate::rules::{classify, FileCtx, Target};

/// One workspace source file, loaded and scanned once.
pub struct SourceFile {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// Masked lines and `#[cfg(test)]` marks.
    pub scanned: ScannedFile,
    /// Crate / target classification.
    pub ctx: FileCtx,
}

/// The loaded workspace: every lintable `.rs` file.
pub struct Workspace {
    /// Scanned sources, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Builds a workspace from `(path, source)` pairs. Pairs whose path
    /// does not classify (non-`.rs`, unknown layout) are dropped.
    pub fn from_sources(sources: Vec<(String, String)>) -> Self {
        let mut files: Vec<SourceFile> = sources
            .into_iter()
            .filter_map(|(path, raw)| {
                let ctx = classify(&path)?;
                Some(SourceFile {
                    path,
                    scanned: scan(&raw),
                    ctx,
                })
            })
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        mark_test_modules(&mut files);
        Self { files }
    }
}

/// Marks every line of a module file as test code when its parent
/// declares it in test code (`#[cfg(test)] mod x;`), down the module
/// tree: the lexer sees one file at a time and cannot know.
fn mark_test_modules(files: &mut [SourceFile]) {
    let mut changed = true;
    while changed {
        let children: Vec<String> = files.iter().flat_map(test_module_files).collect();
        changed = false;
        for file in files.iter_mut().filter(|f| children.contains(&f.path)) {
            if file.scanned.in_test.contains(&false) {
                file.scanned.in_test.fill(true);
                changed = true;
            }
        }
    }
}

/// The candidate files of the modules `file` declares in test code:
/// `lib.rs`, `main.rs` and `mod.rs` own their directory, `a/b.rs` owns
/// `a/b/`.
fn test_module_files(file: &SourceFile) -> Vec<String> {
    let dir = match file.path.rsplit_once('/') {
        Some((dir, "lib.rs" | "main.rs" | "mod.rs")) => dir,
        _ => file.path.trim_end_matches(".rs"),
    };
    let scanned = &file.scanned;
    scanned
        .code
        .iter()
        .zip(&scanned.in_test)
        .filter(|(_, test)| **test)
        .filter_map(
            |(code, _)| match code.split_whitespace().collect::<Vec<_>>()[..] {
                [.., "mod", name] => name.strip_suffix(';'),
                _ => None,
            },
        )
        .flat_map(|name| [format!("{dir}/{name}.rs"), format!("{dir}/{name}/mod.rs")])
        .collect()
}

/// One `fn` item: where it is and what it spans.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Function name (the identifier after `fn`).
    pub name: String,
    /// File the definition lives in.
    pub path: String,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// 0-based first body line (the line holding the opening `{`).
    pub body_start: usize,
    /// 0-based last body line (the line holding the matching `}`).
    pub body_end: usize,
    /// Whether the definition sits inside `#[cfg(test)]` code.
    pub in_test: bool,
}

/// The symbol table of one crate: every `fn`, grouped by name.
#[derive(Default)]
pub struct CrateSymbols {
    /// `fn` items by name. A name maps to every definition with that
    /// name in the crate (methods on different types share a bucket —
    /// resolution over-approximates).
    pub fns: BTreeMap<String, Vec<FnDef>>,
}

/// Symbol tables for every crate in the workspace, keyed by the short
/// crate name from [`classify`] (`core`, `svc`, …, `cfs` for the root).
#[derive(Default)]
pub struct SymbolTable {
    /// Crate name → its symbols.
    pub crates: BTreeMap<String, CrateSymbols>,
}

/// True when byte `b` can be part of an identifier.
fn is_ident(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Extracts the identifier starting at byte `at` in `line`.
fn ident_at(line: &str, at: usize) -> &str {
    let bytes = line.as_bytes();
    let mut end = at;
    while end < bytes.len() && is_ident(bytes[end]) {
        end += 1;
    }
    &line[at..end]
}

/// Finds `fn` keywords in a masked line: byte offsets where a word-
/// bounded `fn` is followed by whitespace and an identifier. Skips
/// fn-pointer types (`fn(`) and the `Fn`/`FnMut` traits (capitalized,
/// so the word boundary already excludes them).
fn fn_keyword_offsets(line: &str) -> Vec<(usize, String)> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = line[from..].find("fn") {
        let at = from + p;
        from = at + 2;
        let pre_ok = at == 0 || !is_ident(bytes[at - 1]);
        let post = at + 2;
        if !pre_ok || post >= bytes.len() || !bytes[post].is_ascii_whitespace() {
            continue;
        }
        let mut name_at = post;
        while name_at < bytes.len() && bytes[name_at].is_ascii_whitespace() {
            name_at += 1;
        }
        if name_at < bytes.len() && (bytes[name_at] == b'_' || bytes[name_at].is_ascii_alphabetic())
        {
            let name = ident_at(line, name_at).to_owned();
            if !name.is_empty() {
                out.push((at, name));
            }
        }
    }
    out
}

/// Walks one file's masked lines and records every `fn` item with its
/// brace-matched body extent. Trait-method declarations (`fn f(...);`)
/// are recorded with an empty extent (`body_start > body_end`).
pub fn collect_fns(file: &SourceFile) -> Vec<FnDef> {
    let code = &file.scanned.code;
    let mut out = Vec::new();
    // Pending signatures waiting for their opening `{`.
    let mut pending: Vec<(String, usize)> = Vec::new();
    // Open bodies: (index into `out`, depth at which the body opened).
    let mut open: Vec<(usize, usize)> = Vec::new();
    let mut depth = 0usize;

    for (lineno, line) in code.iter().enumerate() {
        let mut col = 0usize;
        let bytes = line.as_bytes();
        let fn_offsets = fn_keyword_offsets(line);
        let mut fn_iter = fn_offsets.iter().peekable();
        while col < bytes.len() {
            if let Some(&&(at, ref name)) = fn_iter.peek() {
                if at == col {
                    pending.push((name.clone(), lineno));
                    fn_iter.next();
                }
            }
            match bytes[col] {
                b'{' => {
                    if let Some((name, sig_line)) = pending.pop() {
                        // Only the *innermost* pending signature binds to
                        // this brace; any outer pendings stay queued.
                        out.push(FnDef {
                            name,
                            path: file.path.clone(),
                            line: sig_line,
                            body_start: lineno,
                            body_end: lineno, // patched on close
                            in_test: file.scanned.in_test[sig_line],
                        });
                        open.push((out.len() - 1, depth));
                    }
                    depth += 1;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    while let Some(&(idx, d)) = open.last() {
                        if d == depth {
                            out[idx].body_end = lineno;
                            open.pop();
                        } else {
                            break;
                        }
                    }
                }
                b';' => {
                    // A signature that meets `;` before `{` is a
                    // bodyless declaration (trait method, extern).
                    if let Some((name, sig_line)) = pending.pop() {
                        out.push(FnDef {
                            name,
                            path: file.path.clone(),
                            line: sig_line,
                            body_start: usize::MAX,
                            body_end: 0,
                            in_test: file.scanned.in_test[sig_line],
                        });
                    }
                }
                _ => {}
            }
            col += 1;
        }
    }
    // Unclosed bodies (truncated file): extend to EOF.
    for (idx, _) in open {
        out[idx].body_end = code.len().saturating_sub(1);
    }
    out
}

/// Builds the per-crate symbol tables for the whole workspace. Only
/// `Lib` and `Bin` targets contribute — tests, examples, and benches
/// are outside the reachability contract.
pub fn build_symbols(ws: &Workspace) -> SymbolTable {
    let mut table = SymbolTable::default();
    for file in &ws.files {
        if !matches!(file.ctx.target, Target::Lib | Target::Bin) {
            continue;
        }
        let entry = table.crates.entry(file.ctx.crate_name.clone()).or_default();
        for def in collect_fns(file) {
            entry.fns.entry(def.name.clone()).or_default().push(def);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        let ws = Workspace::from_sources(vec![(path.to_owned(), src.to_owned())]);
        ws.files.into_iter().next().expect("path classifies")
    }

    #[test]
    fn fn_extents_are_brace_matched() {
        let src = "fn a() {\n    if x { y(); }\n}\nfn b() { c() }\n";
        let defs = collect_fns(&file("crates/core/src/x.rs", src));
        assert_eq!(defs.len(), 2);
        assert_eq!(
            (defs[0].name.as_str(), defs[0].line, defs[0].body_end),
            ("a", 0, 2)
        );
        assert_eq!(
            (defs[1].name.as_str(), defs[1].line, defs[1].body_end),
            ("b", 3, 3)
        );
    }

    #[test]
    fn nested_fns_and_impl_methods_are_separate_symbols() {
        let src = "impl T {\n    fn m(&self) {\n        fn inner() {}\n    }\n}\n";
        let defs = collect_fns(&file("crates/core/src/x.rs", src));
        let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["m", "inner"]);
        assert_eq!(defs[0].body_end, 3, "m spans past inner");
    }

    #[test]
    fn braces_in_strings_do_not_confuse_extents() {
        let src = "fn a() {\n    let s = \"}}}{{{\";\n}\nfn b() {}\n";
        let defs = collect_fns(&file("crates/core/src/x.rs", src));
        assert_eq!(defs.len(), 2);
        assert_eq!(defs[0].body_end, 2);
    }

    #[test]
    fn trait_declarations_have_no_body() {
        let src = "trait T {\n    fn decl(&self);\n    fn with_default(&self) {}\n}\n";
        let defs = collect_fns(&file("crates/core/src/x.rs", src));
        assert_eq!(defs.len(), 2);
        assert!(defs[0].body_start > defs[0].body_end, "decl is bodyless");
        assert_eq!(defs[1].body_end, 2);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "fn a(cb: fn() -> u32) {}\n";
        let defs = collect_fns(&file("crates/core/src/x.rs", src));
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].name, "a");
    }
}
