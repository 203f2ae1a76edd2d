//! The `api-drift` rule: one protocol, one vocabulary, everywhere.
//!
//! `cfs-api/1` is defined once — the `SCHEMA` const and the
//! `parse_request` match arms in `crates/svc/src/proto.rs` — but its
//! vocabulary (op names, delta kinds, error codes, the schema tag
//! itself) is *spoken* in several other places: the CLI's hand-built
//! request lines in `src/main.rs`, the error replies of the daemon
//! behind the loop (`Daemon::handle` in `src/daemon.rs`), and the
//! op/kind/code tables in DESIGN.md §10. Each of those surfaces
//! can silently rot when the authority changes. This module extracts
//! every surface and reports each disagreement as a finding:
//!
//! * an op/kind used in a request literal that `parse_request` does not
//!   accept;
//! * a `cfs-api/N` literal that differs from `SCHEMA`;
//! * an error code produced via `ApiError::new(..)` that DESIGN.md does
//!   not document, and a documented code no code path produces;
//! * a DESIGN.md op/kind table row with no parser arm, and a parser arm
//!   with no table row.
//!
//! Extraction is lexical over the masked scan (string *delimiters*
//! survive masking and strictly alternate, so literal spans are exact),
//! with raw text recovered per char index — masked and raw lines are
//! char-aligned by construction. Files with no `SCHEMA` authority in
//! scope produce no findings: the rule only engages where a protocol is
//! actually defined.

use std::collections::BTreeSet;

use crate::resolve::{SourceFile, Workspace};
use crate::rules::{Finding, Target};

/// Everything the rule extracted, dumpable via `cfs-lint graph --json`.
#[derive(Default)]
pub struct ApiSurface {
    /// The authoritative schema tag (`cfs-api/1`) and where it lives.
    pub schema: Option<(String, String, usize)>,
    /// Op names accepted by the parser's `match op` arms.
    pub ops: BTreeSet<String>,
    /// Delta kinds accepted by the parser's `match kind` arms.
    pub kinds: BTreeSet<String>,
    /// Error codes produced anywhere (first literal arg of
    /// `ApiError::new`), with one producing site each.
    pub codes_used: Vec<(String, String, usize)>,
    /// Ops documented in the DESIGN.md §10 table.
    pub doc_ops: BTreeSet<String>,
    /// Kinds documented in the DESIGN.md §10 table.
    pub doc_kinds: BTreeSet<String>,
    /// Codes documented in the DESIGN.md "typed codes" sentence.
    pub doc_codes: BTreeSet<String>,
}

/// One string literal occurrence in non-test code: `(line, col,
/// unescaped-ish content)` — `\"` sequences are collapsed to `"` so
/// `format!`-built request lines read like the wire form.
fn string_literals(file: &SourceFile) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut in_str = false;
    let mut start: (usize, usize) = (0, 0);
    let mut buf = String::new();
    for (lineno, masked) in file.scanned.code.iter().enumerate() {
        let raw: Vec<char> = file.raw_lines[lineno].chars().collect();
        for (col, ch) in masked.chars().enumerate() {
            if ch == '"' {
                if in_str {
                    out.push((start.0, start.1, std::mem::take(&mut buf)));
                } else {
                    start = (lineno, col);
                }
                in_str = !in_str;
            } else if in_str {
                buf.push(raw.get(col).copied().unwrap_or(' '));
            }
        }
        if in_str {
            buf.push('\n');
        }
    }
    for (_, _, s) in &mut out {
        *s = s.replace("\\\"", "\"");
    }
    out.retain(|(line, _, _)| !file.scanned.in_test[*line]);
    out
}

/// The first string literal at or after `(line, col)` in masked code,
/// skipping only whitespace; `None` when anything else intervenes.
fn literal_right_after(file: &SourceFile, line: usize, col: usize) -> Option<(usize, usize)> {
    let mut lineno = line;
    let mut at = col;
    loop {
        let masked = file.scanned.code.get(lineno)?;
        for (c, ch) in masked.chars().enumerate().skip(at) {
            if ch == '"' {
                return Some((lineno, c));
            }
            if !ch.is_whitespace() {
                return None;
            }
        }
        lineno += 1;
        at = 0;
    }
}

/// Extracts the parser vocabulary of a `match <ident> {` block: the
/// string-literal arm patterns at the block's own depth (nested matches
/// belong to *their* extraction pass, arm bodies are deeper than 1).
fn match_arm_literals(file: &SourceFile, needle: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let lits = string_literals(file);
    for (lineno, masked) in file.scanned.code.iter().enumerate() {
        let Some(p) = masked.find(needle) else {
            continue;
        };
        if file.scanned.in_test[lineno] {
            continue;
        }
        let mut depth = 0i32;
        let mut ln = lineno;
        let mut from = p + needle.len() - 1; // at the `{`
        'block: while let Some(line) = file.scanned.code.get(ln) {
            let chars: Vec<char> = line.chars().collect();
            let mut c = from;
            while c < chars.len() {
                match chars[c] {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            break 'block;
                        }
                    }
                    _ => {}
                }
                c += 1;
            }
            ln += 1;
            from = 0;
            // Arm lines live at depth 1; a pattern literal precedes `=>`.
            if depth == 1 {
                if let Some(line) = file.scanned.code.get(ln) {
                    if let Some(arrow) = line.find("=>") {
                        for (l, col, content) in &lits {
                            if *l == ln && *col < arrow {
                                out.insert(content.clone());
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

fn is_ident_ch(c: char) -> bool {
    c == '_' || c == '-' || c.is_ascii_alphanumeric()
}

/// `"key":"value"` occurrences inside one literal's content.
fn wire_members<'a>(content: &'a str, key: &str) -> Vec<&'a str> {
    let pat = format!("\"{key}\":\"");
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(p) = content[from..].find(&pat) {
        let vstart = from + p + pat.len();
        let vend = content[vstart..]
            .find('"')
            .map_or(content.len(), |q| vstart + q);
        let value = &content[vstart..vend];
        // A `{name}` interpolation is a runtime value, not a hard-coded
        // wire literal — only fixed strings are held against the parser.
        if !value.contains('{') {
            out.push(value);
        }
        from = vend;
    }
    out
}

/// `cfs-api/N` tokens inside one literal's content.
fn schema_tokens(content: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(p) = content[from..].find("cfs-api/") {
        let start = from + p;
        let mut end = start + "cfs-api/".len();
        let bytes = content.as_bytes();
        while end < bytes.len() && bytes[end].is_ascii_digit() {
            end += 1;
        }
        if end > start + "cfs-api/".len() {
            out.push(content[start..end].to_owned());
        }
        from = end;
    }
    out
}

/// Extracts the full API surface from the workspace.
pub fn extract_surface(ws: &Workspace) -> ApiSurface {
    let mut surface = ApiSurface::default();
    for file in &ws.files {
        if !matches!(file.ctx.target, Target::Lib | Target::Bin) {
            continue;
        }
        for (lineno, masked) in file.scanned.code.iter().enumerate() {
            if file.scanned.in_test[lineno] {
                continue;
            }
            if surface.schema.is_none() && masked.contains("const SCHEMA: &str") {
                if let Some((l, c)) = masked
                    .find('=')
                    .and_then(|eq| literal_right_after(file, lineno, eq + 1))
                {
                    if let Some((_, _, content)) = string_literals(file)
                        .into_iter()
                        .find(|(ll, cc, _)| (*ll, *cc) == (l, c))
                    {
                        surface.schema = Some((content, file.path.clone(), lineno + 1));
                        surface.ops = match_arm_literals(file, "match op {");
                        surface.kinds = match_arm_literals(file, "match kind {");
                    }
                }
            }
            let mut from = 0usize;
            while let Some(p) = masked[from..].find("ApiError::new(") {
                let after = from + p + "ApiError::new(".len();
                from = after;
                if let Some((l, c)) = literal_right_after(file, lineno, after) {
                    if let Some((_, _, content)) = string_literals(file)
                        .into_iter()
                        .find(|(ll, cc, _)| (*ll, *cc) == (l, c))
                    {
                        surface.codes_used.push((content, file.path.clone(), l + 1));
                    }
                }
            }
        }
    }
    if let Some(design) = &ws.design_md {
        extract_doc_surface(design, &mut surface);
    }
    surface
}

/// Parses the DESIGN.md §10 op table (`| op | fields | … |` header) and
/// the "typed codes:" sentence.
fn extract_doc_surface(design: &str, surface: &mut ApiSurface) {
    let lines: Vec<&str> = design.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let squashed: String = line.chars().filter(|c| !c.is_whitespace()).collect();
        if squashed.starts_with("|op|fields|") {
            for row in lines.iter().skip(i + 2) {
                let row = row.trim();
                if !row.starts_with('|') {
                    break;
                }
                let cells: Vec<&str> = row.trim_matches('|').split('|').collect();
                if cells.is_empty() {
                    continue;
                }
                let op: String = cells[0].chars().filter(|c| is_ident_ch(*c)).collect();
                if !op.is_empty() {
                    surface.doc_ops.insert(op);
                }
                if let Some(fields) = cells.get(1) {
                    // Table rows write the discriminator unquoted-key
                    // style: `kind:"campaign"`.
                    let fields = fields.replace('`', "");
                    let mut from = 0usize;
                    while let Some(p) = fields[from..].find("kind:\"") {
                        let vstart = from + p + "kind:\"".len();
                        let vend = fields[vstart..]
                            .find('"')
                            .map_or(fields.len(), |q| vstart + q);
                        surface.doc_kinds.insert(fields[vstart..vend].to_owned());
                        from = vend;
                    }
                }
            }
        }
        if let Some(p) = line.find("typed codes:") {
            // Backticked codes follow, possibly wrapping lines, ending
            // at the sentence's period.
            let mut text = line[p..].to_owned();
            for cont in lines.iter().skip(i + 1) {
                if text.contains(". ") || text.trim_end().ends_with('.') {
                    break;
                }
                text.push(' ');
                text.push_str(cont);
            }
            let mut rest = text.as_str();
            while let Some(b1) = rest.find('`') {
                let Some(b2) = rest[b1 + 1..].find('`') else {
                    break;
                };
                let code = &rest[b1 + 1..b1 + 1 + b2];
                if code.chars().all(|c| c == '_' || c.is_ascii_lowercase()) && !code.is_empty() {
                    surface.doc_codes.insert(code.to_owned());
                }
                rest = &rest[b1 + b2 + 2..];
            }
        }
    }
}

fn design_line(design: &str, needle: &str) -> usize {
    design
        .lines()
        .position(|l| l.contains(needle))
        .map_or(1, |i| i + 1)
}

/// Runs the `api-drift` rule: extract the surface, compare every pair
/// of surfaces that must agree, one finding per disagreement.
pub fn api_drift_findings(ws: &Workspace, surface: &ApiSurface) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some((schema, auth_path, auth_line)) = &surface.schema else {
        return findings; // no protocol defined in this workspace
    };

    // 1. Request literals must use accepted ops/kinds and the exact
    //    schema tag.
    for file in &ws.files {
        if !matches!(file.ctx.target, Target::Lib | Target::Bin) {
            continue;
        }
        for (line, col, content) in string_literals(file) {
            for tok in schema_tokens(&content) {
                if tok != *schema {
                    findings.push(Finding {
                        path: file.path.clone(),
                        line: line + 1,
                        col: col + 1,
                        rule: "api-drift",
                        message: format!(
                            "literal mentions {tok:?} but the authority ({auth_path}:{auth_line}) defines {schema:?}"
                        ),
                    });
                }
            }
            if file.path == *auth_path {
                continue; // the parser's own arm literals are the authority
            }
            for op in wire_members(&content, "op") {
                if !surface.ops.contains(op) {
                    findings.push(Finding {
                        path: file.path.clone(),
                        line: line + 1,
                        col: col + 1,
                        rule: "api-drift",
                        message: format!(
                            "request literal uses op {op:?}, which `parse_request` does not accept (ops: {:?})",
                            surface.ops
                        ),
                    });
                }
            }
            for kind in wire_members(&content, "kind") {
                if !surface.kinds.contains(kind) {
                    findings.push(Finding {
                        path: file.path.clone(),
                        line: line + 1,
                        col: col + 1,
                        rule: "api-drift",
                        message: format!(
                            "request literal uses delta kind {kind:?}, which `parse_request` does not accept (kinds: {:?})",
                            surface.kinds
                        ),
                    });
                }
            }
        }
    }

    // 2. DESIGN.md §10 must document exactly the parser's vocabulary
    //    and the produced error codes. No DESIGN.md in the workspace →
    //    nothing to hold the code against.
    let Some(design) = &ws.design_md else {
        findings.sort();
        return findings;
    };
    let table_line = design_line(design, "| op | fields |");
    for op in &surface.ops {
        if !surface.doc_ops.contains(op) {
            findings.push(Finding {
                path: "DESIGN.md".into(),
                line: table_line,
                col: 1,
                rule: "api-drift",
                message: format!(
                    "op {op:?} is accepted by `parse_request` but missing from the §10 op table"
                ),
            });
        }
    }
    for op in &surface.doc_ops {
        if !surface.ops.contains(op) {
            findings.push(Finding {
                path: "DESIGN.md".into(),
                line: table_line,
                col: 1,
                rule: "api-drift",
                message: format!("§10 documents op {op:?}, which `parse_request` does not accept"),
            });
        }
    }
    for kind in &surface.kinds {
        if !surface.doc_kinds.contains(kind) {
            findings.push(Finding {
                path: "DESIGN.md".into(),
                line: table_line,
                col: 1,
                rule: "api-drift",
                message: format!("delta kind {kind:?} is accepted by `parse_request` but missing from the §10 op table"),
            });
        }
    }
    for kind in &surface.doc_kinds {
        if !surface.kinds.contains(kind) {
            findings.push(Finding {
                path: "DESIGN.md".into(),
                line: table_line,
                col: 1,
                rule: "api-drift",
                message: format!(
                    "§10 documents delta kind {kind:?}, which `parse_request` does not accept"
                ),
            });
        }
    }
    let codes_line = design_line(design, "typed codes:");
    let used: BTreeSet<&str> = surface
        .codes_used
        .iter()
        .map(|(c, _, _)| c.as_str())
        .collect();
    for (code, path, line) in &surface.codes_used {
        if !surface.doc_codes.contains(code) {
            findings.push(Finding {
                path: path.clone(),
                line: *line,
                col: 1,
                rule: "api-drift",
                message: format!(
                    "error code {code:?} is produced here but not documented in DESIGN.md §10's typed-codes list"
                ),
            });
        }
    }
    for code in &surface.doc_codes {
        if !used.contains(code.as_str()) {
            findings.push(Finding {
                path: "DESIGN.md".into(),
                line: codes_line,
                col: 1,
                rule: "api-drift",
                message: format!(
                    "DESIGN.md documents error code {code:?}, but no `ApiError::new` site produces it"
                ),
            });
        }
    }
    if !design.contains(schema.as_str()) {
        findings.push(Finding {
            path: "DESIGN.md".into(),
            line: table_line,
            col: 1,
            rule: "api-drift",
            message: format!("DESIGN.md never mentions the schema tag {schema:?}"),
        });
    }
    findings.sort();
    findings.dedup();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROTO: &str = r#"pub const SCHEMA: &str = "cfs-api/1";
pub fn parse_request(line: &str) -> Result<Request, ApiError> {
    match op {
        "status" => Ok(Request::Status),
        "delta" => {
            match kind {
                "kb-flip" => Ok(Request::Flip),
                other => Err(ApiError::new("bad_delta", format!("unknown delta kind {other:?}"))),
            }
        }
        other => Err(ApiError::new("unknown_op", format!("unknown op {other:?}"))),
    }
}
"#;

    const DESIGN_OK: &str = "\
## §10\n\n| op | fields | ok-reply carries |\n|---|---|---|\n\
| `status` | — | `state` |\n| `delta` | `kind:\"kb-flip\"` | `epoch` |\n\n\
typed codes: `bad_delta`, `unknown_op`. The schema is `cfs-api/1`.\n";

    fn ws(files: Vec<(&str, &str)>, design: Option<&str>) -> Workspace {
        let mut sources: Vec<(String, String)> = files
            .into_iter()
            .map(|(p, s)| (p.to_owned(), s.to_owned()))
            .collect();
        if let Some(d) = design {
            sources.push(("DESIGN.md".to_owned(), d.to_owned()));
        }
        Workspace::from_sources(sources)
    }

    #[test]
    fn agreeing_surfaces_are_silent() {
        let w = ws(vec![("crates/svc/src/proto.rs", PROTO)], Some(DESIGN_OK));
        let s = extract_surface(&w);
        assert_eq!(s.schema.as_ref().unwrap().0, "cfs-api/1");
        assert_eq!(s.ops.iter().collect::<Vec<_>>(), ["delta", "status"]);
        assert_eq!(s.kinds.iter().collect::<Vec<_>>(), ["kb-flip"]);
        let findings = api_drift_findings(&w, &s);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn unknown_op_in_request_literal_fires() {
        let w = ws(
            vec![
                ("crates/svc/src/proto.rs", PROTO),
                (
                    "src/main.rs",
                    "fn q() -> String { format!(\"{{\\\"schema\\\":\\\"{}\\\",\\\"op\\\":\\\"vanish\\\"}}\", SCHEMA) }\n",
                ),
            ],
            Some(DESIGN_OK),
        );
        let s = extract_surface(&w);
        let findings = api_drift_findings(&w, &s);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("\"vanish\""));
    }

    #[test]
    fn stale_schema_literal_fires() {
        let w = ws(
            vec![
                ("crates/svc/src/proto.rs", PROTO),
                (
                    "crates/svc/src/client.rs",
                    "pub fn hello() -> &'static str { \"{\\\"schema\\\":\\\"cfs-api/2\\\",\\\"op\\\":\\\"status\\\"}\" }\n",
                ),
            ],
            Some(DESIGN_OK),
        );
        let findings = api_drift_findings(&w, &extract_surface(&w));
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("cfs-api/2"));
    }

    #[test]
    fn doc_table_drift_fires_both_directions() {
        let drifted = "\
## §10\n\n| op | fields | ok-reply carries |\n|---|---|---|\n\
| `status` | — | `state` |\n| `reload` | — | `state` |\n\n\
typed codes: `bad_delta`, `unknown_op`, `ghost_code`. Schema `cfs-api/1`.\n";
        let w = ws(vec![("crates/svc/src/proto.rs", PROTO)], Some(drifted));
        let findings = api_drift_findings(&w, &extract_surface(&w));
        let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert!(
            msgs.iter()
                .any(|m| m.contains("\"delta\"") && m.contains("missing")),
            "{msgs:#?}"
        );
        assert!(msgs.iter().any(|m| m.contains("\"reload\"")), "{msgs:#?}");
        assert!(msgs.iter().any(|m| m.contains("\"kb-flip\"")), "{msgs:#?}");
        assert!(
            msgs.iter().any(|m| m.contains("\"ghost_code\"")),
            "{msgs:#?}"
        );
    }

    #[test]
    fn no_authority_means_no_findings() {
        let w = ws(vec![("crates/core/src/lib.rs", "pub fn noop() {}\n")], None);
        let findings = api_drift_findings(&w, &extract_surface(&w));
        assert!(findings.is_empty());
    }

    #[test]
    fn test_code_literals_are_exempt() {
        let proto_with_tests = format!(
            "{PROTO}\n#[cfg(test)]\nmod tests {{\n    fn t() {{ let _ = \"{{\\\"schema\\\":\\\"cfs-api/2\\\",\\\"op\\\":\\\"zap\\\"}}\"; }}\n}}\n"
        );
        let w = ws(
            vec![("crates/svc/src/proto.rs", proto_with_tests.as_str())],
            Some(DESIGN_OK),
        );
        let findings = api_drift_findings(&w, &extract_surface(&w));
        assert!(findings.is_empty(), "{findings:#?}");
    }
}
