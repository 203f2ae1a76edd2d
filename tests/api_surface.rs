//! The `cfs-api/1` vocabulary is stated once, in `cfs_svc`'s `OPS`,
//! `KINDS` and `CODES` tables, and spoken in three more places: the
//! parser's match arms, the `ApiError::new` sites of the transport and
//! the daemon, and the op table and typed-codes list of DESIGN.md §10.
//! These tests hold each of them to the tables, in both directions (the
//! parser refuses whatever the tables do not list before it reaches an
//! arm, so an arm without a table entry is never taken). The
//! CLI's hand-built request lines are covered by `tests/service_cli.rs`,
//! which drives every one of them against a live daemon.

use std::collections::BTreeSet;
use std::path::PathBuf;

use cfs::svc::{parse_request, CODES, KINDS, OPS, SCHEMA};
use cfs_lint::Target;

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A request line for `op` (and delta `kind`) that carries every member
/// any op or kind requires; `parse_request` ignores the ones it does not
/// read.
fn request(op: &str, kind: &str) -> String {
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"op\":\"{op}\",\"kind\":\"{kind}\",\"iface\":\"192.0.2.1\",\
         \"asn\":1,\"facility\":1,\"present\":true,\"campaign\":1,\"vp\":0,\"up\":true,\"since\":0}}"
    )
}

fn set(items: &[&str]) -> BTreeSet<String> {
    items.iter().map(|s| (*s).to_owned()).collect()
}

#[test]
fn the_parser_accepts_exactly_the_listed_ops_and_kinds() {
    for op in OPS {
        let parsed = parse_request(&request(op, KINDS[0]));
        assert!(parsed.is_ok(), "listed op {op:?} refused: {parsed:?}");
    }
    for kind in KINDS {
        let parsed = parse_request(&request("delta", kind));
        assert!(parsed.is_ok(), "listed kind {kind:?} refused: {parsed:?}");
    }
    let code = |line: String| parse_request(&line).err().map(|e| e.code);
    assert_eq!(code(request("frobnicate", KINDS[0])), Some("unknown_op"));
    assert_eq!(code(request("delta", "frobnicate")), Some("bad_delta"));
}

/// The rows of DESIGN.md §10's op table: each row's op, and the delta
/// kinds its fields cell names as `kind:"…"`.
fn design_ops_and_kinds(design: &str) -> (BTreeSet<String>, BTreeSet<String>) {
    let (mut ops, mut kinds) = (BTreeSet::new(), BTreeSet::new());
    let rows = design
        .lines()
        .skip_while(|l| !l.replace(' ', "").starts_with("|op|fields|"))
        .skip(2)
        .take_while(|l| l.starts_with('|'));
    for row in rows {
        let cells: Vec<&str> = row.trim_matches('|').split('|').collect();
        ops.insert(cells[0].trim().trim_matches('`').to_owned());
        for rest in cells[1].split("kind:\"").skip(1) {
            kinds.insert(rest[..rest.find('"').expect("closing quote")].to_owned());
        }
    }
    (ops, kinds)
}

/// The backticked codes of DESIGN.md §10's "typed codes:" sentence.
fn design_codes(design: &str) -> BTreeSet<String> {
    let at = design
        .find("typed codes:")
        .expect("§10 lists its typed codes");
    let sentence = &design[at..at + design[at..].find(".\n").expect("the sentence ends")];
    sentence
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}

#[test]
fn design_md_documents_exactly_the_listed_vocabulary() {
    let design = std::fs::read_to_string(repo().join("DESIGN.md")).expect("DESIGN.md is readable");
    let (ops, kinds) = design_ops_and_kinds(&design);
    assert_eq!(ops, set(OPS), "§10 op table rows vs cfs_svc::OPS");
    assert_eq!(kinds, set(KINDS), "§10 delta kinds vs cfs_svc::KINDS");
    assert_eq!(
        design_codes(&design),
        set(CODES),
        "§10 typed codes vs cfs_svc::CODES"
    );
    assert!(design.contains(SCHEMA), "DESIGN.md never names {SCHEMA}");
}

/// The string-literal first argument of every `ApiError::new(` in
/// `text`, with where it sits.
fn produced_codes(text: &str) -> Vec<(usize, String)> {
    text.match_indices("ApiError::new(")
        .filter_map(|(at, m)| {
            let arg = text[at + m.len()..].trim_start().strip_prefix('"')?;
            let line = text[..at].lines().count();
            Some((line, arg[..arg.find('"')?].to_owned()))
        })
        .collect()
}

#[test]
fn every_produced_error_code_is_listed() {
    // The library and binary sources of every crate: the code a daemon
    // runs.
    let files = cfs_lint::collect_files(&repo()).expect("the source tree is readable");
    let shipped = files.iter().filter(|f| {
        cfs_lint::classify(f).is_some_and(|c| matches!(c.target, Target::Lib | Target::Bin))
    });
    let mut produced = BTreeSet::new();
    for file in shipped {
        let text = std::fs::read_to_string(repo().join(file)).expect("source is readable");
        for (line, code) in produced_codes(&text) {
            assert!(
                CODES.contains(&code.as_str()),
                "{file}:{line}: error code {code:?} is not in cfs_svc::CODES"
            );
            produced.insert(code);
        }
    }
    assert_eq!(
        produced,
        set(CODES),
        "a listed code no ApiError::new site produces"
    );
}
