//! Tier-1 gates at the workspace root: `cargo test -q` (which only runs
//! the root package's tests) must fail on any `cfs-lint` finding, and on
//! a vendored stub whose surface reads ambient entropy or wall time. The
//! path bans in `clippy.toml` are checked by `cargo clippy`, which
//! `cargo test` does not run.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    cfs_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("the repo root declares [workspace]")
}

#[test]
fn workspace_passes_cfs_lint() {
    let findings = cfs_lint::check_workspace(&root()).expect("workspace sources are readable");
    assert!(
        findings.is_empty(),
        "cfs-lint found invariant violations; fix them (DESIGN.md §6):\n{}",
        cfs_lint::render_human(&findings, 0)
    );
}

/// Tokens a vendored stub's surface must not expose: ambient entropy
/// and wall time. `clippy.toml` bans wall-time reads in workspace code
/// and the stubs export no entropy source, so a stub that reached for
/// either would smuggle nondeterminism *under* both: workspace code
/// calling a clean-looking stub API would still pass clippy.
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

/// `(stub, token)` pairs a stub may use because its upstream API's
/// contract includes them: criterion's measurement loop *is* wall-clock
/// timing, and only `crates/bench` depends on it.
const VENDOR_SANCTIONED: &[(&str, &str)] = &[("criterion", "Instant::now")];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("vendor tree is readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether `token` occurs in `line` as a whole word: no identifier byte
/// right before or right after it.
fn has_token(line: &str, token: &str) -> bool {
    let ident = |b: Option<&u8>| b.is_some_and(|b| *b == b'_' || b.is_ascii_alphanumeric());
    line.match_indices(token).any(|(at, _)| {
        let bytes = line.as_bytes();
        !ident(at.checked_sub(1).and_then(|i| bytes.get(i))) && !ident(bytes.get(at + token.len()))
    })
}

#[test]
fn vendored_stubs_read_no_ambient_entropy_or_wall_time() {
    let vendor = root().join("vendor");
    let mut stubs: Vec<PathBuf> = std::fs::read_dir(&vendor)
        .expect("vendor/ is readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    stubs.sort();
    assert!(!stubs.is_empty(), "vendor/ holds no stubs");
    let mut found = Vec::new();
    for stub in &stubs {
        let name = stub.file_name().expect("stub dir name").to_string_lossy();
        let mut files = Vec::new();
        rust_files(&stub.join("src"), &mut files);
        for file in files {
            let text = std::fs::read_to_string(&file).expect("stub source is readable");
            // Masked: comments and literal contents never match, and the
            // stub's own `#[cfg(test)]` code is not its surface.
            let scanned = cfs_lint::lexer::scan(&text);
            for (lineno, line) in scanned.code.iter().enumerate() {
                if scanned.in_test[lineno] {
                    continue;
                }
                for token in VENDOR_TOKENS {
                    if has_token(line, token) && !VENDOR_SANCTIONED.contains(&(&*name, token)) {
                        found.push(format!("{}:{}: `{token}`", file.display(), lineno + 1));
                    }
                }
            }
        }
    }
    assert!(
        found.is_empty(),
        "vendored stubs must be pure functions of their inputs (or get a \
         sanctioned entry with a reason):\n{}",
        found.join("\n")
    );
}
