//! The rule catalog and the per-file check pass.
//!
//! Two of the three rules are workspace-level ([`crate::callgraph`],
//! [`crate::captures`]); the one per-file rule lives here:
//! `expect-message`, which asks every `.expect(…)` in library code for
//! a string-literal message naming the invariant it relies on. Clippy
//! checks bare `.unwrap()` (`clippy::unwrap_used`, denied at each
//! library root) and every path ban (`clippy.toml`), but has no lint for
//! a non-literal `expect` message. Rules match over *masked* source
//! (comments and literal contents blanked by [`crate::lexer::scan`]) so
//! strings and docs never produce findings.

use crate::lexer::{scan, ScannedFile};

/// Where a source file lives in the cargo target layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// `src/` of a library crate — the code other crates build on.
    Lib,
    /// `src/bin/` or `src/main.rs` — executable entry points.
    Bin,
    /// `benches/`, or anything in the dedicated `bench` crate.
    Bench,
}

/// Classification of one workspace-relative path.
#[derive(Clone, Debug)]
pub struct FileCtx {
    /// Short crate name: `core`, `kb`, …; the root package is `cfs`.
    pub crate_name: String,
    /// Which target kind the file belongs to.
    pub target: Target,
}

/// Classifies a workspace-relative, `/`-separated path. Returns `None`
/// for files the linter does not reason about: integration tests,
/// examples and unknown layouts.
pub fn classify(rel: &str) -> Option<FileCtx> {
    let (crate_name, rest) = if let Some(r) = rel.strip_prefix("crates/") {
        let (name, rest) = r.split_once('/')?;
        (name.to_owned(), rest)
    } else {
        ("cfs".to_owned(), rel)
    };
    if !rest.ends_with(".rs") {
        return None;
    }
    let target = if crate_name == "bench" || rest.starts_with("benches/") {
        Target::Bench
    } else if rest.starts_with("src/bin/") || rest == "src/main.rs" {
        Target::Bin
    } else if rest.starts_with("src/") {
        Target::Lib
    } else {
        return None;
    };
    Some(FileCtx { crate_name, target })
}

/// One linter finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (byte offset into the line).
    pub col: usize,
    /// Rule identifier, e.g. `expect-message`.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// A static description of one rule, for `cfs-lint rules` and the docs.
pub struct RuleInfo {
    /// The identifier used in findings.
    pub name: &'static str,
    /// What the rule guards, in one line.
    pub summary: &'static str,
}

/// Every rule the linter knows, in stable (alphabetical) order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "determinism-race",
        summary:
            "scoped-worker closures must not mutate captures or sequence results through locks",
    },
    RuleInfo {
        name: "expect-message",
        summary: "library code's .expect(...) must name its invariant in a literal message",
    },
    RuleInfo {
        name: "panic-reachability",
        summary: "no panic site may be reachable from the cfsd request loop; answer typed errors",
    },
];

/// The token pass: `expect-message` over one scanned file. Only library
/// code outside `#[cfg(test)]` is checked; a message that starts on the
/// next line (`.expect(\n "…")`) counts as literal.
pub fn lexical_findings(ctx: &FileCtx, rel_path: &str, scanned: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    if ctx.target != Target::Lib {
        return findings;
    }
    for (lineno, line) in scanned.code.iter().enumerate() {
        if scanned.in_test[lineno] {
            continue;
        }
        for (at, _) in line.match_indices(".expect(") {
            let arg = line[at + ".expect(".len()..].trim_start();
            let arg = if arg.is_empty() {
                scanned.code.get(lineno + 1).map_or("", |l| l.trim_start())
            } else {
                arg
            };
            if !arg.trim_start_matches(['b', 'r', '#']).starts_with('"') {
                findings.push(Finding {
                    path: rel_path.to_owned(),
                    line: lineno + 1,
                    col: at + 1,
                    rule: "expect-message",
                    message: "`.expect(...)` without a literal message; document the invariant in a string literal or return a typed error".to_owned(),
                });
            }
        }
    }
    findings
}

/// Lints one file standalone: scan, then the token rule. The
/// call-graph rules need the whole workspace and live in
/// [`crate::check_workspace`]; this entry point is what fixtures and
/// unit tests use for single-file behavior.
pub fn check_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let Some(ctx) = classify(rel_path) else {
        return Vec::new();
    };
    lexical_findings(&ctx, rel_path, &scan(source))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_layout() {
        assert_eq!(
            classify("crates/core/src/engine.rs").map(|c| c.target),
            Some(Target::Lib)
        );
        assert_eq!(
            classify("crates/experiments/src/bin/fig2.rs").map(|c| c.target),
            Some(Target::Bin)
        );
        assert!(classify("crates/core/tests/determinism.rs").is_none());
        assert!(classify("crates/topology/examples/stats.rs").is_none());
        assert_eq!(
            classify("crates/bench/src/lib.rs").map(|c| c.target),
            Some(Target::Bench)
        );
        assert_eq!(classify("src/main.rs").map(|c| c.target), Some(Target::Bin));
        assert_eq!(classify("src/lib.rs").map(|c| c.target), Some(Target::Lib));
        assert!(classify("README.md").is_none());
    }

    #[test]
    fn string_contents_never_fire() {
        let f = check_source(
            "crates/core/src/x.rs",
            "fn f() { let _ = \"x.expect(msg)\"; }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { Some(1).expect(msg); }\n}\n";
        assert!(check_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn documented_expect_is_allowed() {
        let ok = "fn f() { Some(1).expect(\"seeded world always has an AS\"); }\n";
        assert!(check_source("crates/core/src/x.rs", ok).is_empty());
        let wrapped = "fn f() { Some(1).expect(\n    \"seeded world always has an AS\",\n); }\n";
        assert!(check_source("crates/core/src/x.rs", wrapped).is_empty());
        let bad = "fn f() { Some(1).expect(msg); }\n";
        assert_eq!(check_source("crates/core/src/x.rs", bad).len(), 1);
    }

    #[test]
    fn only_library_code_is_checked() {
        let bad = "fn f() { Some(1).expect(msg); }\n";
        for path in ["src/main.rs", "crates/bench/src/lib.rs"] {
            assert!(check_source(path, bad).is_empty(), "{path}");
        }
    }
}
