//! `cfs-lint fix` — the autofixer for the mechanical rules.
//!
//! Only fixes whose rewrite is provably behavior-preserving at the
//! lexical level are automated:
//!
//! * **`unused-allow`**: the directive suppresses nothing, so deleting
//!   the stale rule (or the whole directive once its list is empty)
//!   cannot change what the linter accepts.
//! * **`unwrap-in-lib` (bare `.unwrap()`)**: rewritten to
//!   `.expect("…")` with a placeholder literal message — the panic
//!   semantics are identical, the rule is satisfied, and the literal
//!   text tells a reviewer the invariant still needs a real sentence.
//!
//! Everything else (panic paths reachable from the daemon, API drift,
//! race-shaped closures) needs a human redesign and is deliberately
//! *not* fixable.
//!
//! The fixer is planned off the same findings the checker reports, so
//! it is idempotent by construction: after one application the findings
//! it keys on are gone, the second plan is empty, and a second run is a
//! byte-level no-op (CI runs `cfs-lint fix --check` to hold that line).

use std::fs;
use std::io;
use std::path::Path;

use crate::check_workspace;
use crate::rules::Finding;

/// The placeholder message the fixer writes; grep for it to find
/// invariants that still need documenting.
pub const EXPECT_PLACEHOLDER: &str = "cfs-lint fix: document this invariant";

/// What one planned fix does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FixKind {
    /// Rewrite a bare `.unwrap()` into `.expect(EXPECT_PLACEHOLDER)`.
    ReplaceUnwrap,
    /// Remove one stale rule from an `allow(...)` directive (and the
    /// whole directive once no rules remain).
    RemoveAllowRule {
        /// The rule named by the stale `unused-allow` finding.
        rule: String,
    },
}

/// One mechanical edit the fixer intends to make.
#[derive(Clone, Debug)]
pub struct PlannedFix {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (for `ReplaceUnwrap`, the `.` of `.unwrap()`).
    pub col: usize,
    /// The edit.
    pub kind: FixKind,
}

impl PlannedFix {
    /// One human line for `fix --check` output.
    pub fn describe(&self) -> String {
        match &self.kind {
            FixKind::ReplaceUnwrap => format!(
                "{}:{}:{}: rewrite bare .unwrap() -> .expect({EXPECT_PLACEHOLDER:?})",
                self.path, self.line, self.col
            ),
            FixKind::RemoveAllowRule { rule } => {
                format!("{}:{}: remove stale allow({rule})", self.path, self.line)
            }
        }
    }
}

/// Plans the mechanical fixes for the workspace's current findings.
pub fn plan_fixes(root: &Path) -> io::Result<Vec<PlannedFix>> {
    Ok(plan_from_findings(&check_workspace(root)?))
}

/// The findings → fixes projection (separated for tests).
pub fn plan_from_findings(findings: &[Finding]) -> Vec<PlannedFix> {
    let mut out = Vec::new();
    for f in findings {
        match f.rule {
            "unwrap-in-lib" if f.message.starts_with("bare `.unwrap()`") => {
                out.push(PlannedFix {
                    path: f.path.clone(),
                    line: f.line,
                    col: f.col,
                    kind: FixKind::ReplaceUnwrap,
                });
            }
            "unused-allow" => {
                // Message shape: "allow(<rule>) suppresses nothing …".
                let Some(rest) = f.message.strip_prefix("allow(") else {
                    continue;
                };
                let Some(close) = rest.find(')') else {
                    continue;
                };
                out.push(PlannedFix {
                    path: f.path.clone(),
                    line: f.line,
                    col: f.col,
                    kind: FixKind::RemoveAllowRule {
                        rule: rest[..close].to_owned(),
                    },
                });
            }
            _ => {}
        }
    }
    out
}

/// Rewrites a bare `.unwrap()` at 0-based column `col` of `line`.
/// Columns come from the masked scan, which is char-aligned with the
/// raw line, so `col` is a *char* offset — mapped to a byte offset
/// here before slicing. Returns `None` when the text there is not
/// `.unwrap()` (stale plan).
fn fix_line_unwrap(line: &str, col: usize) -> Option<String> {
    let needle = ".unwrap()";
    let byte = if col == 0 {
        0
    } else {
        line.char_indices().nth(col).map(|(b, _)| b)?
    };
    if !line[byte..].starts_with(needle) {
        return None;
    }
    Some(format!(
        "{}.expect(\"{EXPECT_PLACEHOLDER}\"){}",
        &line[..byte],
        &line[byte + needle.len()..]
    ))
}

/// Removes `rule` from the `// cfs-lint: allow(...)` directive on
/// `line`. Returns `None` when no such directive/rule is present,
/// `Some(None)` when the whole line should be deleted, and
/// `Some(Some(new))` otherwise.
fn remove_allow_rule(line: &str, rule: &str) -> Option<Option<String>> {
    let marker = line.find("// cfs-lint:")?;
    let after = &line[marker..];
    let open = after.find("allow(")?;
    let list_start = marker + open + "allow(".len();
    let close = line[list_start..].find(')')? + list_start;
    let rules: Vec<&str> = line[list_start..close]
        .split(',')
        .map(str::trim)
        .filter(|r| !r.is_empty())
        .collect();
    if !rules.contains(&rule) {
        return None;
    }
    let kept: Vec<&str> = rules.into_iter().filter(|r| *r != rule).collect();
    if kept.is_empty() {
        // Drop the whole directive comment; delete the line when
        // nothing but the comment lived on it.
        let head = line[..marker].trim_end();
        if head.is_empty() {
            return Some(None);
        }
        return Some(Some(head.to_owned()));
    }
    Some(Some(format!(
        "{}{}{}",
        &line[..list_start],
        kept.join(", "),
        &line[close..]
    )))
}

/// Applies planned fixes to the files under `root`, bottom-up and
/// right-to-left within each file so earlier edits never shift later
/// coordinates. Returns the number of files rewritten.
pub fn apply_fixes(root: &Path, fixes: &[PlannedFix]) -> io::Result<usize> {
    let mut by_path: std::collections::BTreeMap<&str, Vec<&PlannedFix>> =
        std::collections::BTreeMap::new();
    for f in fixes {
        by_path.entry(f.path.as_str()).or_default().push(f);
    }
    let mut changed = 0usize;
    for (path, mut file_fixes) in by_path {
        let full = root.join(path);
        let original = fs::read_to_string(&full)?;
        let mut lines: Vec<String> = original.split('\n').map(str::to_owned).collect();
        file_fixes.sort_by_key(|f| std::cmp::Reverse((f.line, f.col)));
        for fix in file_fixes {
            let Some(line) = lines.get(fix.line - 1) else {
                continue;
            };
            match &fix.kind {
                FixKind::ReplaceUnwrap => {
                    if let Some(new) = fix_line_unwrap(line, fix.col - 1) {
                        lines[fix.line - 1] = new;
                    }
                }
                FixKind::RemoveAllowRule { rule } => match remove_allow_rule(line, rule) {
                    Some(None) => {
                        lines.remove(fix.line - 1);
                    }
                    Some(Some(new)) => lines[fix.line - 1] = new,
                    None => {}
                },
            }
        }
        let rewritten = lines.join("\n");
        if rewritten != original {
            fs::write(&full, rewritten)?;
            changed += 1;
        }
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::check_source;

    #[test]
    fn unwrap_rewrite_is_exact_and_satisfies_the_rule() {
        let line = "    let x = map.get(&k).unwrap();";
        let col = line.find(".unwrap()").unwrap();
        let fixed = fix_line_unwrap(line, col).unwrap();
        assert_eq!(
            fixed,
            format!("    let x = map.get(&k).expect(\"{EXPECT_PLACEHOLDER}\");")
        );
        let findings = check_source("crates/core/src/x.rs", &format!("fn f() {{\n{fixed}\n}}\n"));
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn stale_coordinates_do_not_corrupt_the_line() {
        assert!(fix_line_unwrap("let x = 1;", 3).is_none());
    }

    #[test]
    fn removing_one_rule_keeps_the_rest_of_the_directive() {
        let line = "x(); // cfs-lint: allow(unwrap-in-lib, raw-socket) — both claimed";
        let fixed = remove_allow_rule(line, "raw-socket").unwrap().unwrap();
        assert_eq!(
            fixed,
            "x(); // cfs-lint: allow(unwrap-in-lib) — both claimed"
        );
    }

    #[test]
    fn removing_the_last_rule_drops_the_directive_or_line() {
        let trailing = "x(); // cfs-lint: allow(raw-socket) — stale";
        assert_eq!(
            remove_allow_rule(trailing, "raw-socket").unwrap().unwrap(),
            "x();"
        );
        let standalone = "// cfs-lint: allow(raw-socket) — stale";
        assert_eq!(remove_allow_rule(standalone, "raw-socket").unwrap(), None);
    }

    #[test]
    fn plan_covers_exactly_the_mechanical_findings() {
        let src =
            "fn f() { a.unwrap(); }\n// cfs-lint: allow(raw-socket) — nothing here\nfn g() {}\n";
        let findings = check_source("crates/core/src/x.rs", src);
        let plan = plan_from_findings(&findings);
        assert_eq!(plan.len(), 2, "{plan:#?}");
        assert!(plan
            .iter()
            .any(|p| matches!(p.kind, FixKind::ReplaceUnwrap)));
        assert!(plan
            .iter()
            .any(|p| matches!(&p.kind, FixKind::RemoveAllowRule { rule } if rule == "raw-socket")));
    }

    #[test]
    fn non_mechanical_findings_are_not_planned() {
        let src = "fn f() { let s = TcpStream::connect(a); x.expect(msg); }\n";
        let findings = check_source("crates/core/src/x.rs", src);
        assert!(!findings.is_empty());
        assert!(plan_from_findings(&findings).is_empty());
    }
}
