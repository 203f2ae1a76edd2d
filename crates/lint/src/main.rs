//! The `cfs-lint` command line.
//!
//! ```text
//! cargo run -p cfs-lint -- check [--json] [--root <dir>]
//! cargo run -p cfs-lint -- graph [--json] [--root <dir>]
//! cargo run -p cfs-lint -- rules
//! ```
//!
//! Exit codes are part of the contract (CI keys off them):
//! `0` clean, `1` findings, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cfs-lint <check [--json] [--root <dir>] | graph [--json] [--root <dir>] | rules>"
    );
    ExitCode::from(2)
}

/// Parses the shared `[--json] [--root <dir>]` tail and resolves the
/// workspace root. `Err` carries the exit code.
fn parse_common(args: &[String]) -> Result<(bool, PathBuf), ExitCode> {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => match rest.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return Err(usage()),
            },
            _ => return Err(usage()),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| {
                eprintln!("cfs-lint: cannot determine working directory: {e}");
                ExitCode::from(2)
            })?;
            match cfs_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("cfs-lint: no workspace root found above {}", cwd.display());
                    return Err(ExitCode::from(2));
                }
            }
        }
    };
    Ok((json, root))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "rules" => {
            for rule in cfs_lint::RULES {
                println!("{:<22} {}", rule.name, rule.summary);
            }
            ExitCode::SUCCESS
        }
        "check" => {
            let (json, root) = match parse_common(&args[1..]) {
                Ok(v) => v,
                Err(code) => return code,
            };
            let files = match cfs_lint::collect_files(&root) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cfs-lint: walking {} failed: {e}", root.display());
                    return ExitCode::from(2);
                }
            };
            let findings = match cfs_lint::check_workspace(&root) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cfs-lint: linting {} failed: {e}", root.display());
                    return ExitCode::from(2);
                }
            };
            if json {
                println!("{}", cfs_lint::render_json(&findings));
            } else {
                print!("{}", cfs_lint::render_human(&findings, files.len()));
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "graph" => {
            let (json, root) = match parse_common(&args[1..]) {
                Ok(v) => v,
                Err(code) => return code,
            };
            let ws = match cfs_lint::load_workspace(&root) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("cfs-lint: loading {} failed: {e}", root.display());
                    return ExitCode::from(2);
                }
            };
            let dump = cfs_lint::render_graph_json(&ws);
            if json {
                println!("{dump}");
            } else {
                // The human view is the same document, one top-level
                // member per line — still deterministic, just skimmable.
                println!("{}", dump.replace(",\"", ",\n\""));
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
