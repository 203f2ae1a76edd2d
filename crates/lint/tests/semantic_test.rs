//! Integration tests for the semantic (workspace-level) rule families —
//! `determinism-race`, `panic-reachability`, `api-drift`,
//! `vendor-surface` — and the `graph --json` internals dump.
//!
//! The per-rule fire/suppress inventory lives in `self_test.rs`; these
//! tests pin the *shape* of each family's findings (which sub-checks
//! fired where) and the stability contract of the graph dump.

use std::path::{Path, PathBuf};
use std::process::Command;

use cfs_lint::{check_workspace, is_versioned_output, load_workspace, render_graph_json, Finding};

fn fixture_root(which: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(which)
}

fn dirty() -> Vec<Finding> {
    check_workspace(&fixture_root("dirty")).expect("fixture tree is readable")
}

#[test]
fn determinism_race_flags_both_leak_shapes() {
    let findings = dirty();
    let race: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "determinism-race")
        .collect();
    assert_eq!(race.len(), 5, "{race:#?}");
    assert!(race.iter().all(|f| f.path.ends_with("determinism_race.rs")));
    // Shape 1: shared mutable captures — a method and two assignments.
    assert!(race.iter().any(|f| f
        .message
        .contains("mutates captured `results` via `.push(..)`")));
    assert!(race
        .iter()
        .any(|f| f.message.contains("assigns to captured `total`")));
    assert!(race
        .iter()
        .any(|f| f.message.contains("assigns to captured `seen`")));
    // Shape 2: non-commutative accumulation through a lock.
    assert!(race
        .iter()
        .any(|f| f.message.contains("`.lock()` inside a worker closure")));
    // ... and through a read-modify-write in a `par::fan_out` worker.
    assert!(race
        .iter()
        .any(|f| f.line == 24 && f.message.contains("`.fetch_add` inside a worker closure")));
    // The `HashSet` on the last line is clippy's, not a third shape.
    assert!(!race.iter().any(|f| f.message.contains("HashSet")));
}

#[test]
fn determinism_race_ignores_coordinator_text_on_the_spawn_line() {
    // `handles.push(scope.spawn(move |_| { … }))` — the `.push(` before
    // the closure's opening brace runs on the coordinating thread and
    // must not be attributed to the worker.
    let ws = cfs_lint::Workspace::from_sources(vec![(
        "crates/core/src/stage.rs".to_owned(),
        "fn stage() {\n\
         handles.push(scope.spawn(move |_| {\n\
         chunk.iter().map(run_one).collect::<Vec<_>>()\n\
         }));\n\
         }\n"
        .to_owned(),
    )]);
    let findings = cfs_lint::semantic_findings(&ws);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn panic_reachability_walks_the_call_graph_from_the_roots() {
    let findings = dirty();
    let reach: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "panic-reachability")
        .collect();
    assert_eq!(reach.len(), 2, "{reach:#?}");
    // serve → handle: the indexing expression.
    assert!(reach
        .iter()
        .any(|f| f.line == 13 && f.message.contains("non-range indexing in `handle`")));
    // serve → handle → decode: the panic! two hops down.
    assert!(reach
        .iter()
        .any(|f| f.line == 18 && f.message.contains("panic! in `decode`")));
    // offline_tool's panic is not reachable from any root: no finding.
    assert!(!reach.iter().any(|f| f.message.contains("offline_tool")));
}

#[test]
fn api_drift_compares_every_surface_pair() {
    let findings = dirty();
    let drift: Vec<&Finding> = findings.iter().filter(|f| f.rule == "api-drift").collect();
    assert_eq!(drift.len(), 9, "{drift:#?}");
    let msg = |s: &str| drift.iter().any(|f| f.message.contains(s));
    // Request literals vs parser authority.
    assert!(msg("literal mentions \"cfs-api/8\""));
    assert!(msg("uses op \"frobnicate\""));
    assert!(msg("uses delta kind \"vp-status\""));
    // DESIGN.md op/kind table, both directions.
    assert!(msg(
        "op \"query\" is accepted by `parse_request` but missing"
    ));
    assert!(msg("documents op \"zap\""));
    assert!(msg(
        "delta kind \"kb-flip\" is accepted by `parse_request` but missing"
    ));
    // Error codes, both directions — the produced-not-documented
    // finding anchors on the producing line, not on DESIGN.md.
    assert!(drift.iter().any(|f| {
        f.path.ends_with("api_drift.rs") && f.message.contains("error code \"bad_request\"")
    }));
    assert!(msg("documents error code \"ghost_code\""));
    // The schema tag itself must appear in the docs.
    assert!(msg("never mentions the schema tag \"cfs-api/9\""));
}

#[test]
fn design_md_findings_are_not_suppressible() {
    // DESIGN.md has no comment syntax the linter parses; its findings
    // pass through the suppression stage untouched and all carry the
    // DESIGN.md path.
    let findings = dirty();
    let on_design = findings.iter().filter(|f| f.path == "DESIGN.md").count();
    assert_eq!(on_design, 5, "{findings:#?}");
}

#[test]
fn graph_dump_is_versioned_and_byte_stable() {
    let root = fixture_root("dirty");
    let a = render_graph_json(&load_workspace(&root).expect("first load"));
    let b = render_graph_json(&load_workspace(&root).expect("second load"));
    assert_eq!(a, b, "graph --json must be byte-stable across runs");
    assert!(is_versioned_output(&a));
    // The dump exposes the analysis internals the rules run on.
    assert!(a.contains("\"symbols\""));
    assert!(a.contains("\"calls\""));
    assert!(a.contains("\"reachable\""));
    assert!(a.contains("\"spawns\""));
    assert!(a.contains("\"api\""));
    // Spot checks: the fixture's own names must appear.
    assert!(a.contains("\"offline_tool\""));
    assert!(a.contains("\"cfs-api/9\""));
}

#[test]
fn graph_cli_round_trip_is_byte_stable() {
    let bin = env!("CARGO_BIN_EXE_cfs-lint");
    let run = || {
        Command::new(bin)
            .args(["graph", "--json", "--root"])
            .arg(fixture_root("dirty"))
            .output()
            .expect("cfs-lint binary runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.status.code(), Some(0), "graph never fails on findings");
    assert_eq!(a.stdout, b.stdout, "graph --json must be byte-stable");
    let text = String::from_utf8(a.stdout).expect("dump is UTF-8");
    assert!(is_versioned_output(text.trim_end()));
}

#[test]
fn unversioned_json_is_rejected() {
    // Consumers key on the schema header; legacy headerless output and
    // other documents must be refused by the sniffer.
    assert!(!is_versioned_output("{\"findings\":[]}"));
    assert!(!is_versioned_output("{\"schema\":\"cfs-trace/1\",\"x\":1}"));
    assert!(!is_versioned_output(""));
}
