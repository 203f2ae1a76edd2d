//! Smoke test of the benchmark: every workload at `--smoke` size (tiny
//! world, 3 campaigns, 20 flips, 1 s of queries), untraced and traced,
//! prints every metric `BENCHMARK.json` declares with its unit and
//! passes its output checks. Timing values are not asserted.
//!
//! Run with `cargo test --release --manifest-path cfsbench/Cargo.toml`;
//! this package is a workspace of its own, so `cargo test --workspace`
//! at the repository root does not run it.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

fn spec() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    spec()[section]
        .as_array()
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m[k].as_str()
                    .expect("metric fields are strings")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_names_are_well_formed() {
    let spec = spec();
    let mut names = Vec::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for entry in spec[section].as_array().expect("section is an array") {
            let name = entry["name"].as_str().expect("entries are named");
            assert!(is_name(name), "bad name {name:?} in {section}");
            names.push(name.to_string());
        }
    }
    let before = names.len();
    names.sort();
    names.dedup();
    assert_eq!(before, names.len(), "every name is used once");
    let e2e = declared("end_to_end");
    assert!(e2e.contains(&("setup_s".into(), "s".into())));
}

/// Runs one workload at smoke size and checks its output against the
/// declared metrics of `section`.
fn smoke(workload: &str, trace: &str, section: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_cfs-bench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("cfs-bench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    assert_eq!(result["correct"].as_bool(), Some(true), "{last}");
    assert!(result["attempted"].as_u64().expect("attempted") >= 1);
    assert_eq!(result["failed"].as_u64(), Some(0), "{last}");
    let metrics = result["metrics"].as_object().expect("metrics object");
    assert_eq!(metrics.len(), declared(section).len(), "{last}");
    for (name, unit) in declared(section) {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{name} missing: {last}"));
        assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{name}");
        assert!(m["value"].as_f64().is_some(), "{name} has a value");
        let line_prefix = format!("{workload} {name} ");
        let printed = stdout
            .lines()
            .find(|l| l.starts_with(&line_prefix))
            .unwrap_or_else(|| panic!("{name} not printed for {workload}"));
        assert!(printed.ends_with(&format!(" {unit}")), "{printed}");
    }
}

fn both(workload: &str) {
    smoke(workload, "0", "end_to_end");
    smoke(workload, "1", "per_layer");
}

#[test]
fn batch_paper_smoke() {
    both("batch_paper");
}

#[test]
fn campaign_stream_smoke() {
    both("campaign_stream");
}

#[test]
fn kb_flip_stream_smoke() {
    both("kb_flip_stream");
}

#[test]
fn query_steady_smoke() {
    both("query_steady");
}

#[test]
fn workloads_in_benchmark_json_are_the_ones_the_binary_runs() {
    let names: Vec<String> = spec()["workloads"]
        .as_array()
        .expect("workloads array")
        .iter()
        .map(|w| w["name"].as_str().expect("named").to_string())
        .collect();
    assert_eq!(
        names,
        [
            "batch_paper",
            "campaign_stream",
            "kb_flip_stream",
            "query_steady"
        ]
    );
}

/// The benchmark holds itself to the workspace's rules for bench code:
/// sockets only through `cfs_svc::Client`, threads only through
/// `std::thread::scope`; wall time is what a bench target may read.
/// `cfs-lint` classifies files by the workspace layout and skips paths
/// it does not know, so each source is checked as if it lived in the
/// bench crate, the one place that layout treats as bench code.
#[test]
fn sources_pass_cfs_lint_as_bench_code() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for entry in std::fs::read_dir(&src).expect("src is readable") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("source is readable");
        let name = path.file_name().expect("file name").to_string_lossy();
        let findings = cfs_lint::check_source(&format!("crates/bench/src/{name}"), &text);
        assert!(
            findings.is_empty(),
            "{name}:\n{}",
            cfs_lint::render_human(&findings, 1)
        );
        assert!(
            !text.contains("thread::spawn"),
            "{name} spawns a free thread"
        );
    }
}
