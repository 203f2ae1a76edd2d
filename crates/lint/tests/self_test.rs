//! The linter's own fixture tests: every rule fires, with exact counts.
//!
//! `tests/fixtures/dirty` is a mini workspace mirroring the real cargo
//! layout (`crates/<name>/src/…`) that carries each hazard bare. It is
//! never compiled.

use std::path::{Path, PathBuf};
use std::process::Command;

use cfs_lint::{check_workspace, render_json, Finding, RULES};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/dirty")
}

fn rule_count(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn dirty_tree_finding_inventory_is_exact() {
    // Pinning the exact counts catches both under- and over-firing, and
    // every rule in the catalog must fire at least once.
    let findings = check_workspace(&fixture_root()).expect("fixture tree is readable");
    let expected: &[(&str, usize)] = &[
        ("determinism-race", 5),
        ("expect-message", 1),
        ("panic-reachability", 2),
    ];
    let names: Vec<&str> = expected.iter().map(|(r, _)| *r).collect();
    assert_eq!(names, RULES.iter().map(|r| r.name).collect::<Vec<_>>());
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
    let findings = check_workspace(&fixture_root()).expect("fixture tree is readable");
    let has = |path: &str, line: usize, rule: &str| {
        findings
            .iter()
            .any(|f| f.path == path && f.line == line && f.rule == rule)
    };
    assert!(has("crates/kb/src/expect_message.rs", 6, "expect-message"));
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
    // The unreachable panic in `offline_tool` must not be flagged.
    assert!(!findings
        .iter()
        .any(|f| f.path.ends_with("panic_reachability.rs") && f.line > 19));
}

#[test]
fn test_only_module_files_are_not_library_code() {
    // `crates/kb/src/lib.rs` declares `#[cfg(test)] mod test_support;`
    // (which has a child module of its own) and a `test_inner` module
    // that opens with `#![cfg(test)]`; their expects are test code.
    let findings = check_workspace(&fixture_root()).expect("fixture tree is readable");
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
fn json_output_is_byte_stable_across_runs() {
    let root = fixture_root();
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

    let dirty = run(&fixture_root());
    assert_eq!(dirty.status.code(), Some(1), "dirty tree must exit 1");
    let dirty2 = run(&fixture_root());
    assert_eq!(dirty.stdout, dirty2.stdout, "--json must be byte-stable");

    // The workspace this crate lives in has nothing to report.
    let clean = run(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
    assert_eq!(clean.status.code(), Some(0), "a clean tree must exit 0");

    let usage = Command::new(bin)
        .arg("frobnicate")
        .output()
        .expect("cfs-lint binary runs");
    assert_eq!(usage.status.code(), Some(2), "bad usage must exit 2");
}
