//! Tier-1 gate at the workspace root: `cargo test -q` (which only runs
//! the root package's tests) must fail on any `cfs-lint` finding, not
//! just `cargo test --workspace`. It is the linter's one workspace gate;
//! the path bans in `clippy.toml` are checked by `cargo clippy`, which
//! `cargo test` does not run.

#[test]
fn workspace_passes_cfs_lint() {
    let root = cfs_lint::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("the repo root declares [workspace]");
    let findings = cfs_lint::check_workspace(&root).expect("workspace sources are readable");
    assert!(
        findings.is_empty(),
        "cfs-lint found invariant violations — fix them or add a justified \
         `// cfs-lint: allow(<rule>)` (DESIGN.md §6):\n{}",
        cfs_lint::render_human(&findings, 0)
    );
}
