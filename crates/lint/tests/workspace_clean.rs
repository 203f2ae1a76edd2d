//! The rule catalog's own contract. The zero-findings gate over the
//! workspace lives in the root package's `tests/lint_clean.rs`, the copy
//! that tier-1 `cargo test -q` reaches.

#[test]
fn rule_catalog_is_sorted_and_unique() {
    // The catalog is the contract (`cfs-lint rules`, DESIGN.md §6);
    // keep it alphabetical so diffs stay reviewable.
    let names: Vec<&str> = cfs_lint::RULES.iter().map(|r| r.name).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(names, sorted);
}
