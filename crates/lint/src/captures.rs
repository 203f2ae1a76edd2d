//! Closure-capture extraction and the `determinism-race` rule.
//!
//! The workspace's parallel stages (campaigns, observation extraction,
//! remote-verdict prefill, probe fan-out, MIDAR estimation) are ordered
//! maps over `cfs_types::par::fan_out`: each worker closure may only
//! *read* captured state and return its chunk's results; the merge
//! happens on the coordinating thread in chunk order. That discipline is
//! what the threads {1,2,8} byte-identity tests check dynamically. This
//! module is the static complement: it finds worker closures with a
//! braced body — the closure argument of a `fan_out(…)` call, or of a
//! raw `.spawn(…)` — approximates their capture sets (identifiers used
//! minus identifiers bound locally), and flags the two ways workers leak
//! scheduling order into results that clippy cannot see:
//!
//! 1. **shared mutable captures** — a mutation method or assignment on
//!    a captured identifier (`results.push(..)` from two workers races
//!    on ordering even when it does not race on memory; `fan_out`'s
//!    `Fn` bound already refuses it at compile time);
//! 2. **non-commutative accumulation** — interior-mutability machinery
//!    (`Mutex`, `RwLock`, `RefCell`, `Cell`, `Atomic*`, `.lock()`,
//!    `.fetch_*`) inside a worker closure: lock acquisition order is
//!    scheduler-dependent, so anything sequenced through it is too.
//!
//! The third way, iterating a hashed container inside a worker, needs
//! no closure analysis: `clippy.toml` bans `HashMap`/`HashSet`
//! everywhere.
//!
//! The extraction is a line-oriented approximation over masked code (no
//! type information): identifiers bound by `let` patterns, closure
//! parameter lists, and `for` patterns anywhere in the body count as
//! locals; everything else that is used as a plain variable counts as
//! captured. Over-approximating the *local* set makes the rule quieter,
//! which is the right direction — the dynamic byte-identity tests
//! remain the backstop.

use std::collections::BTreeSet;

use crate::resolve::{SourceFile, Workspace};
use crate::rules::{Finding, Target};

/// The calls whose closure argument runs on a worker thread.
const WORKER_CALLS: &[&str] = &["fan_out(", ".spawn("];

/// One worker closure (`fan_out(…, |…| { … })` or `.spawn(move |…| { … })`)
/// found in a source file.
pub struct SpawnClosure {
    /// Workspace-relative path of the file.
    pub path: String,
    /// 0-based line of the `fan_out(` or `.spawn(` token.
    pub line: usize,
    /// 0-based first line of the closure body (the line carrying the
    /// opening brace).
    pub body_start: usize,
    /// Column of the opening brace on `body_start` — text before it on
    /// that line (`let out = par::fan_out(…`, `handles.push(scope.spawn(…`
    /// and friends) belongs to the *coordinator*, not the closure.
    pub body_start_col: usize,
    /// 0-based last line of the closure body (the line carrying the
    /// matching close brace).
    pub body_end: usize,
    /// Column of the matching close brace on `body_end`.
    pub body_end_col: usize,
    /// Approximated capture set: identifiers used but not bound inside.
    pub captures: BTreeSet<String>,
}

/// The part of masked line `ln` that lies inside the closure body,
/// with the char offset it starts at (for column reporting).
fn body_slice<'a>(file: &'a SourceFile, c: &SpawnClosure, ln: usize) -> (usize, &'a str) {
    let line = file.scanned.code[ln].as_str();
    let start = if ln == c.body_start {
        c.body_start_col
    } else {
        0
    };
    let end = if ln == c.body_end {
        (c.body_end_col + 1).min(line.len())
    } else {
        line.len()
    };
    (start, &line[start.min(end)..end])
}

fn is_ident(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "static", "struct", "super", "trait", "true", "type", "unsafe", "use",
    "where", "while",
];

/// Splits a line into `(start_col, ident)` words. A lone `_` (the
/// wildcard of `Vec<_>` or `(_, ixp)`) names nothing and is skipped.
fn idents(line: &str) -> Vec<(usize, &str)> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'_' || bytes[i].is_ascii_alphabetic() {
            let start = i;
            while i < bytes.len() && is_ident(bytes[i]) {
                i += 1;
            }
            if &line[start..i] != "_" {
                out.push((start, &line[start..i]));
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Collects identifiers *bound* on one body line: `let` patterns (up to
/// the `=`), closure parameter lists (`|a, (b, c)|`), and `for` patterns
/// (up to the `in`).
fn bound_on_line(line: &str, locals: &mut BTreeSet<String>) {
    let bytes = line.as_bytes();
    for (col, word) in idents(line) {
        let after = &line[col + word.len()..];
        match word {
            "let" => {
                // Bind everything between `let` and the first `=` that
                // is an assignment (not `==`); lowercase idents only —
                // uppercase are enum variants/types in the pattern.
                let upto = find_assign(after).unwrap_or(after.len());
                bind_pattern_idents(&after[..upto], locals);
            }
            "for" => {
                if let Some(in_at) = after.find(" in ") {
                    bind_pattern_idents(&after[..in_at], locals);
                }
            }
            "move" => {
                // `move |a, b|` — parameter list of a nested closure.
                let rest = after.trim_start();
                if let Some(stripped) = rest.strip_prefix('|') {
                    if let Some(close) = stripped.find('|') {
                        bind_pattern_idents(&stripped[..close], locals);
                    }
                }
            }
            _ => {}
        }
    }
    // Closure parameter lists not introduced by `move`: a `|` directly
    // preceded (ignoring spaces) by `(`, `,`, or `=` starts parameters.
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'|' {
            let prev = line[..i].trim_end().as_bytes().last().copied();
            let starts = matches!(prev, Some(b'(') | Some(b',') | Some(b'=') | None);
            // `a || b` / `a | b` have an operand before the pipe.
            if starts && bytes.get(i + 1) != Some(&b'|') {
                if let Some(close) = line[i + 1..].find('|') {
                    bind_pattern_idents(&line[i + 1..i + 1 + close], locals);
                    i += close + 2;
                    continue;
                }
            }
        }
        i += 1;
    }
}

/// Position of the first top-level assignment `=` in `s` (skipping
/// `==`, `<=`, `>=`, `!=`, and `=>`), or `None`.
fn find_assign(s: &str) -> Option<usize> {
    let b = s.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        if b[i] == b'=' {
            let next_eq = b.get(i + 1) == Some(&b'=');
            let arrow = b.get(i + 1) == Some(&b'>');
            let prev_cmp = i > 0 && matches!(b[i - 1], b'<' | b'>' | b'!' | b'=');
            if !next_eq && !arrow && !prev_cmp {
                return Some(i);
            }
            if next_eq {
                i += 1;
            }
        }
        i += 1;
    }
    None
}

/// Adds the lowercase identifiers of a binding pattern to `locals`.
fn bind_pattern_idents(pat: &str, locals: &mut BTreeSet<String>) {
    for (_, word) in idents(pat) {
        if KEYWORDS.contains(&word) || word.starts_with(|c: char| c.is_ascii_uppercase()) {
            continue;
        }
        locals.insert(word.to_owned());
    }
}

/// Mutation methods that impose an order on their receiver. Receivers
/// are matched as plain `ident.method(` — a chained `x.y.push(..)`
/// mutates a field of `x`, which the plain-ident form deliberately
/// skips (field mutation through a shared borrow will not compile).
const MUTATION_METHODS: &[&str] = &[
    ".append(",
    ".clear(",
    ".extend(",
    ".insert(",
    ".push(",
    ".push_str(",
    ".remove(",
    ".sort(",
    ".sort_unstable(",
];

const INTERIOR_MUT_TOKENS: &[&str] = &[
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell<",
    "AtomicUsize",
    "AtomicU64",
    "AtomicU32",
    "AtomicBool",
    "AtomicI64",
    ".lock()",
    ".fetch_add(",
    ".fetch_sub(",
    ".fetch_or(",
];

/// Finds every worker closure with a braced body in the workspace's
/// library/binary code (masked view).
pub fn find_spawn_closures(ws: &Workspace) -> Vec<SpawnClosure> {
    let mut out = Vec::new();
    for file in &ws.files {
        if !matches!(file.ctx.target, Target::Lib | Target::Bin) {
            continue;
        }
        for (lineno, line) in file.scanned.code.iter().enumerate() {
            if file.scanned.in_test[lineno] {
                continue;
            }
            for call in WORKER_CALLS {
                let mut from = 0usize;
                while let Some(p) = line[from..].find(call) {
                    let at = from + p;
                    from = at + call.len();
                    // `fan_out(` starts a name: `par::fan_out(`, not `my_fan_out(`.
                    if !call.starts_with('.') && at > 0 && is_ident(line.as_bytes()[at - 1]) {
                        continue;
                    }
                    let closure = closure_arg(file, lineno, from);
                    out.extend(
                        closure.and_then(|(ln, col)| extract_closure(file, lineno, ln, col)),
                    );
                }
            }
        }
    }
    out
}

/// The `(line, column)` of the `|` opening the first closure argument
/// of the call whose `(` ends at `after_paren` on line `lineno`: an
/// argument that starts, after an optional `move`, with `|`. `None`
/// when the call closes first.
fn closure_arg(file: &SourceFile, lineno: usize, after_paren: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut arg_start = true; // nothing but `move` since `(` or `,`
    for (ln, line) in file.scanned.code.iter().enumerate().skip(lineno) {
        let from = if ln == lineno { after_paren } else { 0 };
        let mut chars = line.char_indices().skip_while(|(col, _)| *col < from);
        while let Some((col, ch)) = chars.next() {
            match ch {
                '|' if depth == 0 && arg_start => return Some((ln, col)),
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' if depth == 0 => return None,
                ')' | ']' | '}' => depth -= 1,
                ',' if depth == 0 => arg_start = true,
                'm' if arg_start && line[col..].starts_with("move ") => {
                    chars.nth(3);
                }
                c if c.is_whitespace() => {}
                _ => arg_start = false,
            }
        }
    }
    None
}

/// Parses one closure whose parameter list opens with the `|` at
/// `(start, col)` of a worker call on line `lineno`, then a braced body
/// (single-expression closures have nothing to race on a following line
/// and are skipped).
fn extract_closure(
    file: &SourceFile,
    lineno: usize,
    start: usize,
    col: usize,
) -> Option<SpawnClosure> {
    let line = &file.scanned.code[start];
    let rest = line[col..].strip_prefix('|')?;
    let params_end = rest.find('|')?;
    let mut locals = BTreeSet::new();
    bind_pattern_idents(&rest[..params_end], &mut locals);
    let after_params = rest[params_end + 1..].trim_start();

    // Locate the opening brace: same line after the params, or the
    // next non-empty masked line. Its column matters — text before it
    // on the call line (`handles.push(scope.spawn(…`) runs on the
    // coordinating thread and must not be analyzed as closure body.
    let (body_start, open_col) = if after_params.starts_with('{') {
        (start, line.len() - after_params.len())
    } else if after_params.is_empty() {
        let next = file
            .scanned
            .code
            .iter()
            .enumerate()
            .skip(start + 1)
            .find(|(_, l)| !l.trim().is_empty())?;
        let trimmed = next.1.trim_start();
        if !trimmed.starts_with('{') {
            return None;
        }
        (next.0, next.1.len() - trimmed.len())
    } else {
        return None; // expression-bodied closure
    };

    // Brace-match to the body end, recording the close column too.
    let mut depth = 0i32;
    let mut end: Option<(usize, usize)> = None;
    'scan: for ln in body_start..file.scanned.code.len() {
        let from = if ln == body_start { open_col } else { 0 };
        for (col, ch) in file.scanned.code[ln].char_indices() {
            if col < from {
                continue;
            }
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some((ln, col));
                        break 'scan;
                    }
                }
                _ => {}
            }
        }
    }
    let (body_end, body_end_col) = end?; // None: unbalanced — give up

    let mut closure = SpawnClosure {
        path: file.path.clone(),
        line: lineno,
        body_start,
        body_start_col: open_col,
        body_end,
        body_end_col,
        captures: BTreeSet::new(),
    };

    // Pass 1: everything bound anywhere in the body counts as local.
    for ln in body_start..=body_end {
        let (_, text) = body_slice(file, &closure, ln);
        bound_on_line(text, &mut locals);
    }
    // Pass 2: plain variable uses not bound locally are captures.
    let mut captures = BTreeSet::new();
    for ln in body_start..=body_end {
        let (_, l) = body_slice(file, &closure, ln);
        let bytes = l.as_bytes();
        for (col, word) in idents(l) {
            if KEYWORDS.contains(&word)
                || word.starts_with(|c: char| c.is_ascii_uppercase())
                || locals.contains(word)
            {
                continue;
            }
            let before = l[..col].trim_end().as_bytes().last().copied();
            if before == Some(b'.') || l[..col].ends_with("::") {
                continue; // field/method/associated-path segment
            }
            let after = bytes.get(col + word.len()).copied();
            if after == Some(b'(') || after == Some(b'!') {
                continue; // call or macro, handled by the call graph
            }
            if l[col + word.len()..].starts_with("::") {
                continue; // path prefix (module name)
            }
            captures.insert(word.to_owned());
        }
    }
    closure.captures = captures;
    Some(closure)
}

/// Runs the `determinism-race` rule over all worker closures.
pub fn determinism_race_findings(ws: &Workspace, closures: &[SpawnClosure]) -> Vec<Finding> {
    let by_path: std::collections::BTreeMap<&str, &SourceFile> =
        ws.files.iter().map(|f| (f.path.as_str(), f)).collect();
    let mut findings = Vec::new();
    for c in closures {
        let Some(file) = by_path.get(c.path.as_str()) else {
            continue;
        };
        for ln in c.body_start..=c.body_end {
            let (offset, line) = body_slice(file, c, ln);
            // (1) mutation methods / assignments on captured idents.
            for (col, word) in idents(line) {
                if !c.captures.contains(word) {
                    continue;
                }
                let after = &line[col + word.len()..];
                let method = MUTATION_METHODS
                    .iter()
                    .find(|m| after.starts_with(*m))
                    .map(|m| &m[1..m.len() - 1]);
                let assigned = {
                    let t = after.trim_start();
                    let b = t.as_bytes();
                    match b.first() {
                        Some(b'=') => b.get(1) != Some(&b'=') && b.get(1) != Some(&b'>'),
                        Some(b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^') => {
                            b.get(1) == Some(&b'=')
                        }
                        _ => false,
                    }
                };
                if let Some(m) = method {
                    findings.push(Finding {
                        path: c.path.clone(),
                        line: ln + 1,
                        col: offset + col + 1,
                        rule: "determinism-race",
                        message: format!(
                            "worker closure mutates captured `{word}` via `.{m}(..)`; workers must return their chunk's results and let the coordinator merge in submission order"
                        ),
                    });
                } else if assigned {
                    findings.push(Finding {
                        path: c.path.clone(),
                        line: ln + 1,
                        col: offset + col + 1,
                        rule: "determinism-race",
                        message: format!(
                            "worker closure assigns to captured `{word}`; last-writer-wins depends on scheduling"
                        ),
                    });
                }
            }
            // (2) interior mutability machinery inside the closure.
            for tok in INTERIOR_MUT_TOKENS {
                let guard_prefix = tok.as_bytes()[0] != b'.';
                let mut from = 0usize;
                while let Some(p) = line[from..].find(tok) {
                    let at = from + p;
                    from = at + tok.len();
                    let pre_ok = !guard_prefix || at == 0 || !is_ident(line.as_bytes()[at - 1]);
                    if pre_ok {
                        findings.push(Finding {
                            path: c.path.clone(),
                            line: ln + 1,
                            col: offset + at + 1,
                            rule: "determinism-race",
                            message: format!(
                                "`{}` inside a worker closure sequences results by lock/RMW order, which is scheduler-dependent",
                                tok.trim_end_matches('(').trim_end_matches('<'),
                            ),
                        });
                    }
                }
            }
        }
    }
    findings.sort();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::from_sources(vec![(
            "crates/core/src/stage.rs".to_owned(),
            src.to_owned(),
        )])
    }

    fn race(src: &str) -> Vec<Finding> {
        let w = ws(src);
        let closures = find_spawn_closures(&w);
        determinism_race_findings(&w, &closures)
    }

    #[test]
    fn clean_chunk_map_collect_is_silent() {
        let findings = race(
            "fn stage(chunks: &[&[u32]]) {\n\
             std::thread::scope(|scope| {\n\
             for chunk in chunks {\n\
             scope.spawn(move |_| {\n\
             let resolver = mk(kb, corrected);\n\
             chunk.iter().map(|t| extract(t, &resolver, rec)).collect::<Vec<_>>()\n\
             });\n\
             }\n\
             });\n\
             }\n",
        );
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn push_on_captured_vec_fires() {
        let findings = race(
            "fn stage() {\n\
             scope.spawn(move |_| {\n\
             for t in chunk {\n\
             results.push(work(t));\n\
             }\n\
             });\n\
             }\n",
        );
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("`results`"));
    }

    #[test]
    fn push_on_local_vec_is_silent() {
        let findings = race(
            "fn stage() {\n\
             scope.spawn(move |_| {\n\
             let mut results = Vec::new();\n\
             for t in chunk {\n\
             results.push(work(t));\n\
             }\n\
             results\n\
             });\n\
             }\n",
        );
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn lock_inside_closure_fires_and_hashmap_is_left_to_clippy() {
        let findings = race(
            "fn stage() {\n\
             scope.spawn(move |_| {\n\
             let guard = shared.lock().unwrap();\n\
             for (k, v) in HashMap::new() {\n\
             use_it(k, v);\n\
             }\n\
             });\n\
             }\n",
        );
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("`.lock()`"), "{findings:#?}");
    }

    #[test]
    fn assignment_to_captured_fires_but_comparison_does_not() {
        let findings = race(
            "fn stage() {\n\
             scope.spawn(move |_| {\n\
             if total == 0 { return; }\n\
             total += chunk.len();\n\
             });\n\
             }\n",
        );
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("assigns to captured `total`"));
    }

    #[test]
    fn a_lone_underscore_is_no_capture() {
        assert_eq!(
            idents("(_, ixp) _x __"),
            [(4, "ixp"), (9, "_x"), (12, "__")]
        );
        let w = ws("fn stage() {\n\
             let out = par::fan_out(0..n, workers, 64, |range| {\n\
             pairs[range].iter().map(|(_, ixp)| probe(*ixp, tester)).collect::<Vec<_>>()\n\
             });\n\
             }\n");
        let closures = find_spawn_closures(&w);
        assert_eq!(closures.len(), 1);
        let captures: Vec<&str> = closures[0].captures.iter().map(String::as_str).collect();
        assert_eq!(captures, ["pairs", "tester"]);
    }

    #[test]
    fn nested_closure_params_are_locals() {
        let findings = race(
            "fn stage() {\n\
             scope.spawn(move |_| {\n\
             chunk.iter().map(|(ip, ixp)| tester.probe(*ixp, *ip)).collect::<Vec<_>>()\n\
             });\n\
             }\n",
        );
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn fan_out_worker_closures_are_inspected() {
        let findings = race(
            "fn stage(n: usize) {\n\
             let out = par::fan_out(0..n, workers, 64, |range| {\n\
             let mut mine = Vec::new();\n\
             mine.push(range.len());\n\
             let guard = shared.lock();\n\
             mine\n\
             });\n\
             let total = par::fan_out(\n\
             offset..(n + 1),\n\
             par::workers(threads),\n\
             8,\n\
             |range| {\n\
             hits.fetch_add(range.len(), Relaxed)\n\
             },\n\
             );\n\
             let quiet = par::fan_out(0..n, 1, 0, |range| range.len());\n\
             let named = my_fan_out(0..n, |range| { cell.lock() });\n\
             }\n",
        );
        let lines: Vec<(usize, &str)> = findings
            .iter()
            .map(|f| (f.line, f.message.as_str()))
            .collect();
        assert_eq!(findings.len(), 2, "{findings:#?}");
        assert_eq!(lines[0].0, 5);
        assert!(lines[0].1.contains("`.lock()`"), "{findings:#?}");
        assert_eq!(lines[1].0, 13);
        assert!(lines[1].1.contains("`.fetch_add`"), "{findings:#?}");
    }
}
