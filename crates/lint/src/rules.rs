//! The rule catalog and the per-file check pass.
//!
//! Each rule is a lexical invariant keyed to a guarantee the workspace
//! already made (see DESIGN.md §6 "Enforced invariants"): socket I/O
//! only in `crates/svc`, vendored stubs free of entropy and wall time,
//! no panics in library code. Bans that name a path (hashed containers,
//! wall clock, sleeps, free threads, `Rc`) live in `clippy.toml` only,
//! where the compiler resolves them. Rules match over *masked* source
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
    /// `tests/` — integration tests.
    Test,
    /// `examples/`.
    Example,
    /// `benches/`, or anything in the dedicated `bench` crate.
    Bench,
    /// `vendor/<stub>/src/` — the vendored dependency stubs. Only the
    /// `vendor-surface` rule applies: stub APIs must not leak ambient
    /// entropy or wall time into workspace code that calls them.
    Vendor,
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
/// for files the linter does not reason about (unknown layouts are
/// skipped). Vendored stubs classify as [`Target::Vendor`] so the
/// `vendor-surface` rule can see their public surface; no other rule
/// applies to them.
pub fn classify(rel: &str) -> Option<FileCtx> {
    if let Some(r) = rel.strip_prefix("vendor/") {
        let (name, rest) = r.split_once('/')?;
        if rest.starts_with("src/") && rest.ends_with(".rs") {
            return Some(FileCtx {
                crate_name: name.to_owned(),
                target: Target::Vendor,
            });
        }
        return None;
    }
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
    } else if rest.starts_with("tests/") {
        Target::Test
    } else if rest.starts_with("examples/") {
        Target::Example
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
    /// Rule identifier, e.g. `unwrap-in-lib`.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// A static description of one rule, for `cfs-lint rules` and the docs.
pub struct RuleInfo {
    /// The identifier used in findings and `allow(...)` directives.
    pub name: &'static str,
    /// What the rule guards, in one line.
    pub summary: &'static str,
}

/// Every rule the linter knows, in stable (alphabetical) order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "api-drift",
        summary: "every cfs-api/1 surface (parser, request literals, DESIGN.md §10) must agree",
    },
    RuleInfo {
        name: "determinism-race",
        summary: "scoped-worker closures must not mutate captures or sequence results through locks",
    },
    RuleInfo {
        name: "panic-reachability",
        summary: "no panic site may be reachable from the cfsd request loop; answer typed errors",
    },
    RuleInfo {
        name: "raw-socket",
        summary: "socket I/O is single-homed in crates/svc; speak cfs-api/1 through Client/Server",
    },
    RuleInfo {
        name: "unjustified-allow",
        summary: "every cfs-lint allow(...) must carry a one-line justification",
    },
    RuleInfo {
        name: "unused-allow",
        summary: "an allow(...) that suppresses no finding is stale; remove it",
    },
    RuleInfo {
        name: "unwrap-in-lib",
        summary: "library code must not panic: no bare unwrap(), expect() needs a literal message",
    },
    RuleInfo {
        name: "vendor-surface",
        summary: "vendored stub APIs must not leak ambient entropy or wall time (sanctioned paths excepted)",
    },
];

/// True when byte `b` can be part of an identifier.
fn is_ident(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Byte offsets of `needle` in `line` where the match is not preceded
/// (and, if `whole_word`, not followed) by an identifier byte.
fn find_tokens(line: &str, needle: &str, whole_word: bool) -> Vec<usize> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    // Only needles that *start* with an identifier char can be
    // swallowed by a longer identifier (`.unwrap()` after `cfs` is
    // fine; `UnixStream` inside `MyUnixStream` is not).
    let guard_prefix = needle.as_bytes().first().copied().is_some_and(is_ident);
    while let Some(p) = line[from..].find(needle) {
        let at = from + p;
        let pre_ok = !guard_prefix || at == 0 || !is_ident(bytes[at - 1]);
        let end = at + needle.len();
        let post_ok = !whole_word || end >= bytes.len() || !is_ident(bytes[end]);
        if pre_ok && post_ok {
            out.push(at);
        }
        from = at + needle.len().max(1);
    }
    out
}

/// A suppression directive parsed from a comment:
/// `// cfs-lint: allow(rule-a, rule-b) — why this is sound`.
#[derive(Clone, Debug)]
pub struct Directive {
    /// 0-based line the comment sits on.
    pub line: usize,
    /// 0-based line whose findings it suppresses (same line for a
    /// trailing comment, next line for a comment-only line).
    pub target: usize,
    /// Rules named inside `allow(...)`.
    pub rules: Vec<String>,
    /// Whether non-empty justification text follows the `)`.
    pub justified: bool,
}

/// Parses suppression directives out of the scanned comments.
///
/// Only regular `//` / `/* */` comments carry directives. Doc comments
/// (`///`, `//!` — whose captured text starts with `/`, `!`, or `*`)
/// are skipped: documentation frequently *describes* the directive
/// syntax, and a suppression hidden in rendered docs would be easy to
/// miss in review.
pub fn parse_directives(scanned: &ScannedFile) -> Vec<Directive> {
    let mut out = Vec::new();
    for (line, comment) in scanned.comments.iter().enumerate() {
        if matches!(comment.trim_start().chars().next(), Some('/' | '!' | '*')) {
            continue;
        }
        let Some(pos) = comment.find("cfs-lint:") else {
            continue;
        };
        let after = &comment[pos + "cfs-lint:".len()..];
        let Some(open) = after.find("allow(") else {
            continue;
        };
        let body = &after[open + "allow(".len()..];
        let Some(close) = body.find(')') else {
            continue;
        };
        let rules: Vec<String> = body[..close]
            .split(',')
            .map(|r| r.trim().to_owned())
            .filter(|r| !r.is_empty())
            .collect();
        let tail = body[close + 1..]
            .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '-' | '—' | ':' | '–'));
        let code_is_blank = scanned.code[line].trim().is_empty();
        let target = if code_is_blank { line + 1 } else { line };
        out.push(Directive {
            line,
            target,
            rules,
            justified: !tail.trim().is_empty(),
        });
    }
    out
}

/// `(path prefix, token)` pairs exempt from `vendor-surface`: stub
/// surfaces that intentionally mirror an upstream API whose contract
/// includes the token. Criterion's measurement loop *is* wall-clock
/// timing, and only `crates/bench` depends on it.
const VENDOR_SANCTIONED: &[(&str, &str)] = &[("vendor/criterion/", "Instant::now")];

/// Tokens a vendored stub's surface must not expose: ambient entropy
/// and wall time. `clippy.toml` bans wall-time reads in workspace code
/// and the stubs export no entropy source, so a stub that reached for
/// either would smuggle nondeterminism *under* both (workspace code
/// calling a clean-looking stub API would still pass clippy).
const VENDOR_TOKENS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "rand::random",
    "getrandom",
    "Instant::now",
    "SystemTime::now",
];

/// Runs every applicable rule over one masked line, appending findings.
fn check_line(
    ctx: &FileCtx,
    path: &str,
    lineno: usize,
    line: &str,
    next_line: Option<&str>,
    in_test: bool,
    out: &mut Vec<Finding>,
) {
    let mut push = |col: usize, rule: &'static str, message: String| {
        out.push(Finding {
            path: path.to_owned(),
            line: lineno + 1,
            col: col + 1,
            rule,
            message,
        });
    };

    // Vendored stubs get exactly one rule — their surface must stay as
    // deterministic as the workspace that calls it — and none of the
    // workspace-layout rules (a stub may use whatever its upstream API
    // requires).
    if ctx.target == Target::Vendor {
        if in_test {
            return;
        }
        for needle in VENDOR_TOKENS {
            for col in find_tokens(line, needle, true) {
                let sanctioned = VENDOR_SANCTIONED
                    .iter()
                    .any(|(prefix, tok)| tok == needle && path.starts_with(prefix));
                if !sanctioned {
                    push(
                        col,
                        "vendor-surface",
                        format!("vendored stub surface uses `{needle}`; stubs must be pure functions of their inputs (or get a sanctioned-path entry with a reason)"),
                    );
                }
            }
        }
        return;
    }

    // raw-socket: a single-home rule — socket I/O
    // lives only in `crates/svc`, the daemon/client pair behind the
    // versioned cfs-api/1 protocol. A socket anywhere else would move
    // bytes around the schema and its typed errors.
    if !path.starts_with("crates/svc/") {
        for needle in [
            "TcpListener",
            "TcpStream",
            "UdpSocket",
            "UnixDatagram",
            "UnixListener",
            "UnixStream",
        ] {
            for col in find_tokens(line, needle, true) {
                push(
                    col,
                    "raw-socket",
                    format!("`{needle}` outside `crates/svc`; talk to a daemon through `cfs_svc::Client`/`Server` so every byte crosses the versioned cfs-api/1 protocol"),
                );
            }
        }
    }

    // unwrap-in-lib: library code surfaces `cfs_types::Error`, it does
    // not panic. `expect` with a literal message is the documented
    // escape hatch for genuinely unreachable states.
    if ctx.target == Target::Lib && !in_test {
        for col in find_tokens(line, ".unwrap()", false) {
            push(
                col,
                "unwrap-in-lib",
                "bare `.unwrap()` in library code; return a typed `cfs_types::Error` or use `.expect(\"<invariant>\")`".to_owned(),
            );
        }
        for col in find_tokens(line, ".expect(", false) {
            let after = &line[col + ".expect(".len()..];
            let arg = after.trim_start();
            let arg = if arg.is_empty() {
                next_line.map(str::trim_start).unwrap_or("")
            } else {
                arg
            };
            let is_literal = arg.trim_start_matches(['b', 'r', '#']).starts_with('"');
            if !is_literal {
                push(
                    col,
                    "unwrap-in-lib",
                    "`.expect(...)` without a literal message; document the invariant in a string literal or return a typed error".to_owned(),
                );
            }
        }
    }
}

/// The token-layer pass: every lexical rule over one scanned file.
/// No suppression happens here — [`finish_file`] applies directives
/// after the workspace-level semantic rules have contributed their
/// findings for the same file.
pub fn lexical_findings(ctx: &FileCtx, rel_path: &str, scanned: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (lineno, line) in scanned.code.iter().enumerate() {
        let next = scanned.code.get(lineno + 1).map(String::as_str);
        check_line(
            ctx,
            rel_path,
            lineno,
            line,
            next,
            scanned.in_test[lineno],
            &mut findings,
        );
    }
    findings
}

/// Applies one file's suppression directives to its merged findings
/// (lexical + semantic) and appends the directive-hygiene findings.
pub fn finish_file(rel_path: &str, scanned: &ScannedFile, findings: Vec<Finding>) -> Vec<Finding> {
    let directives = parse_directives(scanned);
    let mut findings = findings;

    // Apply suppressions: a directive clears findings of the named
    // rules on its target line, and each `(directive, rule)` pair
    // remembers whether it actually cleared anything.
    let mut used: Vec<Vec<bool>> = directives
        .iter()
        .map(|d| vec![false; d.rules.len()])
        .collect();
    findings.retain(|f| {
        let mut suppressed = false;
        for (di, d) in directives.iter().enumerate() {
            if d.target != f.line - 1 {
                continue;
            }
            for (ri, r) in d.rules.iter().enumerate() {
                if r == f.rule {
                    used[di][ri] = true;
                    suppressed = true;
                }
            }
        }
        !suppressed
    });

    // Directive hygiene: unknown rule names, missing justifications, and
    // suppressions with nothing to suppress are findings themselves, so
    // the suppression inventory stays auditable.
    for (di, d) in directives.iter().enumerate() {
        for (ri, r) in d.rules.iter().enumerate() {
            if !RULES.iter().any(|info| info.name == r) {
                // Unknown names are unjustified-allow's business; firing
                // unused-allow too would double-report one mistake.
                findings.push(Finding {
                    path: rel_path.to_owned(),
                    line: d.line + 1,
                    col: 1,
                    rule: "unjustified-allow",
                    message: format!("allow() names unknown rule `{r}`"),
                });
            } else if !used[di][ri] {
                findings.push(Finding {
                    path: rel_path.to_owned(),
                    line: d.line + 1,
                    col: 1,
                    rule: "unused-allow",
                    message: format!(
                        "allow({r}) suppresses nothing on its target line; remove the stale directive"
                    ),
                });
            }
        }
        if !d.justified {
            findings.push(Finding {
                path: rel_path.to_owned(),
                line: d.line + 1,
                col: 1,
                rule: "unjustified-allow",
                message:
                    "cfs-lint allow(...) without a justification; append `— <one-line reason>`"
                        .to_owned(),
            });
        }
    }

    findings.sort();
    findings
}

/// Lints one file standalone: scan, lexical rules, suppression,
/// hygiene. The semantic rules need the whole workspace and live in
/// [`crate::check_workspace`]; this entry point is what fixtures and
/// unit tests use for single-file behavior.
pub fn check_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let Some(ctx) = classify(rel_path) else {
        return Vec::new();
    };
    let scanned = scan(source);
    let findings = lexical_findings(&ctx, rel_path, &scanned);
    finish_file(rel_path, &scanned, findings)
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
        assert_eq!(
            classify("crates/core/tests/determinism.rs").map(|c| c.target),
            Some(Target::Test)
        );
        assert_eq!(
            classify("crates/topology/examples/stats.rs").map(|c| c.target),
            Some(Target::Example)
        );
        assert_eq!(
            classify("crates/bench/src/lib.rs").map(|c| c.target),
            Some(Target::Bench)
        );
        assert_eq!(classify("src/main.rs").map(|c| c.target), Some(Target::Bin));
        assert_eq!(classify("src/lib.rs").map(|c| c.target), Some(Target::Lib));
        assert!(classify("README.md").is_none());
        assert_eq!(
            classify("vendor/rand/src/lib.rs").map(|c| c.target),
            Some(Target::Vendor)
        );
        assert_eq!(
            classify("vendor/rand/src/lib.rs").map(|c| c.crate_name),
            Some("rand".to_owned())
        );
        assert!(classify("vendor/rand/Cargo.toml").is_none());
    }

    #[test]
    fn vendor_surface_bans_entropy_but_not_layout_rules() {
        // A stub may open sockets and unwrap (its upstream API may demand
        // it); what it may not do is read entropy or wall time.
        let src = "use std::net::TcpListener;\nfn f() { let r = OsRng; let t = std::time::Instant::now(); x.unwrap(); }\n";
        let f = check_source("vendor/rand/src/lib.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "vendor-surface"));
    }

    #[test]
    fn criterion_wall_clock_is_sanctioned() {
        let src = "fn bench() { let start = Instant::now(); }\n";
        assert!(check_source("vendor/criterion/src/lib.rs", src).is_empty());
        let f = check_source("vendor/parking_lot/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn string_contents_never_fire() {
        let f = check_source(
            "crates/core/src/x.rs",
            "fn f() { let _ = \"TcpStream::connect(a) .unwrap()\"; }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cfg_test_module_is_exempt_from_unwrap() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { Some(1).unwrap(); }\n}\n";
        assert!(check_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn documented_expect_is_allowed() {
        let ok = "fn f() { Some(1).expect(\"seeded world always has an AS\"); }\n";
        assert!(check_source("crates/core/src/x.rs", ok).is_empty());
        let bad = "fn f() { Some(1).expect(msg); }\n";
        assert_eq!(check_source("crates/core/src/x.rs", bad).len(), 1);
    }

    #[test]
    fn suppression_requires_justification() {
        let justified =
            "fn f() { Some(1).unwrap() } // cfs-lint: allow(unwrap-in-lib) — demo invariant\n";
        assert!(check_source("crates/core/src/x.rs", justified).is_empty());
        let bare = "fn f() { Some(1).unwrap() } // cfs-lint: allow(unwrap-in-lib)\n";
        let f = check_source("crates/core/src/x.rs", bare);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unjustified-allow");
    }

    #[test]
    fn standalone_directive_covers_next_line() {
        let src = "// cfs-lint: allow(raw-socket) — fixture probe of a local port\nlet s = TcpStream::connect(a);\n";
        assert!(check_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn doc_comments_do_not_carry_directives() {
        // The doc text *describes* the syntax; it must neither suppress
        // the finding on the next line nor trip unjustified-allow.
        let src = "/// Write `// cfs-lint: allow(raw-socket)` to suppress.\nfn f() { let _ = TcpStream::connect(a); }\n";
        let f = check_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "raw-socket");
    }

    #[test]
    fn stale_allow_fires_unused_allow() {
        let src =
            "fn f() { let x = 1; } // cfs-lint: allow(raw-socket) — stale: nothing to silence\n";
        let f = check_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unused-allow");
    }

    #[test]
    fn partially_used_allow_flags_only_the_stale_rule() {
        let src = "fn f() { Some(1).unwrap() } // cfs-lint: allow(unwrap-in-lib, raw-socket) — only one applies\n";
        let f = check_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unused-allow");
        assert!(f[0].message.contains("raw-socket"), "{f:?}");
    }

    #[test]
    fn unknown_rule_does_not_double_report_as_unused() {
        let src = "// cfs-lint: allow(no-such-rule) — wrong name on purpose\nfn f() {}\n";
        let f = check_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unjustified-allow");
    }

    #[test]
    fn raw_socket_single_homed_in_svc() {
        // Any file inside crates/svc — server, client, or a future
        // module — may open sockets; everywhere else is a finding, in
        // every target kind (tests and benches drive daemons through
        // the cfs binary or `cfs_svc::Client`, never raw std::net).
        let src = "fn f() { let l = std::net::TcpListener::bind(a); }\n";
        assert!(check_source("crates/svc/src/server.rs", src).is_empty());
        assert!(check_source("crates/svc/src/client.rs", src).is_empty());
        for path in [
            "crates/core/src/x.rs",
            "src/main.rs",
            "tests/service_cli.rs",
            "crates/bench/benches/serve.rs",
        ] {
            let f = check_source(path, src);
            assert_eq!(f.len(), 1, "{path} must not open sockets: {f:?}");
            assert_eq!(f[0].rule, "raw-socket", "{path}");
        }
    }
}
