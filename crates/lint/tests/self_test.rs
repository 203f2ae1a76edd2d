//! The linter's own fixture tests: every rule × (fires / suppressed).
//!
//! `tests/fixtures/dirty` and `tests/fixtures/suppressed` are two mini
//! workspaces mirroring the real cargo layout (`crates/<name>/src/…`,
//! `src/…`). The dirty tree carries each hazard bare; the suppressed
//! tree carries the same hazards under justified
//! `// cfs-lint: allow(...)` comments. Neither tree is compiled.

use std::path::{Path, PathBuf};
use std::process::Command;

use cfs_lint::{check_workspace, render_json, Finding, RULES};

fn fixture_root(which: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(which)
}

fn rule_count(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn every_rule_fires_on_the_dirty_tree() {
    let findings = check_workspace(&fixture_root("dirty")).expect("fixture tree is readable");
    for rule in RULES {
        assert!(
            rule_count(&findings, rule.name) > 0,
            "rule `{}` produced no finding on the dirty fixtures:\n{findings:#?}",
            rule.name
        );
    }
}

#[test]
fn dirty_tree_finding_inventory_is_exact() {
    // Pinning the exact counts catches both under- and over-firing
    // (e.g. a needle suddenly matching inside `use` lines twice).
    let findings = check_workspace(&fixture_root("dirty")).expect("fixture tree is readable");
    let expected: &[(&str, usize)] = &[
        ("api-drift", 9),
        ("determinism-race", 5),
        ("panic-reachability", 2),
        ("raw-socket", 3),
        ("unjustified-allow", 2),
        ("unused-allow", 1),
        ("unwrap-in-lib", 2),
        ("vendor-surface", 2),
    ];
    for (rule, n) in expected {
        assert_eq!(
            rule_count(&findings, rule),
            *n,
            "unexpected `{rule}` count:\n{findings:#?}"
        );
    }
    let total: usize = expected.iter().map(|(_, n)| n).sum();
    assert_eq!(findings.len(), total, "stray findings:\n{findings:#?}");
}

#[test]
fn dirty_findings_point_at_real_lines() {
    let findings = check_workspace(&fixture_root("dirty")).expect("fixture tree is readable");
    let has = |path: &str, line: usize, rule: &str| {
        findings
            .iter()
            .any(|f| f.path == path && f.line == line && f.rule == rule)
    };
    assert!(has("crates/kb/src/unwrap_in_lib.rs", 5, "unwrap-in-lib"));
    assert!(has("crates/kb/src/unwrap_in_lib.rs", 6, "unwrap-in-lib"));
    assert!(has("crates/core/src/raw_socket.rs", 3, "raw-socket"));
    assert!(has("crates/core/src/raw_socket.rs", 6, "raw-socket"));
    assert!(has("crates/core/src/raw_socket.rs", 9, "raw-socket"));
    // The svc copy of the same hazard is sanctioned: single-home rule.
    assert!(!findings
        .iter()
        .any(|f| f.path.starts_with("crates/svc/") && f.rule == "raw-socket"));
    assert!(has(
        "crates/core/src/unjustified_allow.rs",
        6,
        "unjustified-allow"
    ));
    assert!(has(
        "crates/core/src/unjustified_allow.rs",
        9,
        "unjustified-allow"
    ));
    assert!(has("crates/core/src/unused_allow.rs", 5, "unused-allow"));
    // Semantic rules anchor on real lines too: the worker closure's
    // mutation, the reachable panic sites, the drifted request
    // literals, and the vendored stub's entropy calls.
    assert!(has(
        "crates/core/src/determinism_race.rs",
        12,
        "determinism-race"
    ));
    assert!(has(
        "crates/core/src/determinism_race.rs",
        24,
        "determinism-race"
    ));
    assert!(has(
        "crates/svc/src/panic_reachability.rs",
        13,
        "panic-reachability"
    ));
    assert!(has(
        "crates/svc/src/panic_reachability.rs",
        18,
        "panic-reachability"
    ));
    assert!(has("src/api_drift_use.rs", 6, "api-drift"));
    assert!(has("src/api_drift_use.rs", 7, "api-drift"));
    assert!(has("vendor/evil/src/lib.rs", 4, "vendor-surface"));
    assert!(has("vendor/evil/src/lib.rs", 9, "vendor-surface"));
    // The unreachable panic in `offline_tool` must not be flagged.
    assert!(!findings
        .iter()
        .any(|f| f.path.ends_with("panic_reachability.rs") && f.line > 19));
}

#[test]
fn test_only_module_files_are_not_library_code() {
    // `crates/kb/src/lib.rs` declares `#[cfg(test)] mod test_support;`
    // (which has a child module of its own) and a `test_inner` module
    // that opens with `#![cfg(test)]`; their unwraps are test code.
    let findings = check_workspace(&fixture_root("dirty")).expect("fixture tree is readable");
    for path in [
        "crates/kb/src/test_support.rs",
        "crates/kb/src/test_support/nested.rs",
        "crates/kb/src/test_inner.rs",
    ] {
        let stray: Vec<&Finding> = findings.iter().filter(|f| f.path == path).collect();
        assert!(
            stray.is_empty(),
            "{path} linted as library code:\n{stray:#?}"
        );
    }
}

#[test]
fn suppressed_tree_is_clean() {
    let findings = check_workspace(&fixture_root("suppressed")).expect("fixture tree is readable");
    assert!(
        findings.is_empty(),
        "justified suppressions must clear every finding:\n{findings:#?}"
    );
}

#[test]
fn json_output_is_byte_stable_across_runs() {
    let root = fixture_root("dirty");
    let a = render_json(&check_workspace(&root).expect("first pass"));
    let b = render_json(&check_workspace(&root).expect("second pass"));
    assert_eq!(a, b);
    assert!(a.starts_with("{\"schema\":\"cfs-lint/1\",\"findings\":["));
    assert!(a.ends_with('}'));
    assert!(cfs_lint::is_versioned_output(&a));
}

#[test]
fn cli_exit_codes_and_json_stability() {
    let bin = env!("CARGO_BIN_EXE_cfs-lint");
    let run = |root: &Path| {
        Command::new(bin)
            .args(["check", "--json", "--root"])
            .arg(root)
            .output()
            .expect("cfs-lint binary runs")
    };

    let dirty = run(&fixture_root("dirty"));
    assert_eq!(dirty.status.code(), Some(1), "dirty tree must exit 1");
    let dirty2 = run(&fixture_root("dirty"));
    assert_eq!(dirty.stdout, dirty2.stdout, "--json must be byte-stable");

    let clean = run(&fixture_root("suppressed"));
    assert_eq!(clean.status.code(), Some(0), "suppressed tree must exit 0");

    let usage = Command::new(bin)
        .arg("frobnicate")
        .output()
        .expect("cfs-lint binary runs");
    assert_eq!(usage.status.code(), Some(2), "bad usage must exit 2");
}
