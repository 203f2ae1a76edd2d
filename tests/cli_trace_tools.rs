//! End-to-end CLI coverage for the profiling/diff tooling: `cfs run
//! --trace-json --profile-json`, `cfs profile`, `cfs trace-diff`, and
//! the section-tagged `cfs check` failure reporting, and the refusal of
//! a malformed `--sources` snapshot — driven through the real binary,
//! the way CI drives it.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cfs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cfs"))
        .args(args)
        .output()
        .expect("cfs binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cfs-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn profile_and_diff_cli_end_to_end() {
    let trace_a = tmp("a.trace.json");
    let trace_b = tmp("b.trace.json");
    let prof_a = tmp("a.prof.json");

    // One traced+profiled run, and a second at a different seed.
    let run_a = cfs(&[
        "run",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--trace-json",
        trace_a.to_str().unwrap(),
        "--profile-json",
        prof_a.to_str().unwrap(),
    ]);
    assert!(run_a.status.success(), "run a failed: {}", stderr(&run_a));
    let run_b = cfs(&[
        "run",
        "--scale",
        "tiny",
        "--seed",
        "8",
        "--trace-json",
        trace_b.to_str().unwrap(),
    ]);
    assert!(run_b.status.success(), "run b failed: {}", stderr(&run_b));

    // The exports exist and carry their schema markers.
    let trace_doc = std::fs::read_to_string(&trace_a).expect("trace written");
    assert!(trace_doc.starts_with("{\"schema\":\"cfs-trace/1\""));
    let prof_doc = std::fs::read_to_string(&prof_a).expect("profile written");
    assert!(prof_doc.starts_with("{\"schema\":\"cfs-profile/2\""));

    // The trace still validates — the sidecar flag must not change it.
    let validate = cfs(&["check", trace_a.to_str().unwrap()]);
    assert!(
        validate.status.success(),
        "cfs check rejected a fresh export: {}",
        stderr(&validate)
    );

    // Self-compare: identical → exit 0.
    let same = cfs(&[
        "trace-diff",
        trace_a.to_str().unwrap(),
        trace_a.to_str().unwrap(),
    ]);
    assert_eq!(same.status.code(), Some(0), "{}", stderr(&same));
    assert!(stdout(&same).contains("identical"), "{}", stdout(&same));

    // Different seed → drift, exit 1, with a counter-delta section.
    let drift = cfs(&[
        "trace-diff",
        trace_a.to_str().unwrap(),
        trace_b.to_str().unwrap(),
    ]);
    assert_eq!(drift.status.code(), Some(1), "{}", stderr(&drift));
    let drift_text = stdout(&drift);
    assert!(drift_text.contains("counters ("), "{drift_text}");

    // Same pair as machine output.
    let drift_json = cfs(&[
        "trace-diff",
        trace_a.to_str().unwrap(),
        trace_b.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(drift_json.status.code(), Some(1));
    assert!(stdout(&drift_json).contains("\"drift\":true"));

    // Profile self-compare through the same subcommand.
    let prof_same = cfs(&[
        "trace-diff",
        prof_a.to_str().unwrap(),
        prof_a.to_str().unwrap(),
        "--tolerance-pct",
        "10",
    ]);
    assert_eq!(prof_same.status.code(), Some(0), "{}", stderr(&prof_same));

    // Mixing the two schemas is malformed input → exit 2.
    let mixed = cfs(&[
        "trace-diff",
        trace_a.to_str().unwrap(),
        prof_a.to_str().unwrap(),
    ]);
    assert_eq!(mixed.status.code(), Some(2), "{}", stdout(&mixed));
    assert!(
        stderr(&mixed).contains("schema mismatch"),
        "{}",
        stderr(&mixed)
    );

    // The profile report renders a stage tree + bottleneck table.
    let report = cfs(&["profile", prof_a.to_str().unwrap(), "--top", "3"]);
    assert!(report.status.success(), "{}", stderr(&report));
    let report_text = stdout(&report);
    assert!(report_text.contains("cfs.run"), "{report_text}");
    assert!(report_text.contains("bottlenecks"), "{report_text}");

    // And refuses a trace document.
    let wrong = cfs(&["profile", trace_a.to_str().unwrap()]);
    assert_eq!(wrong.status.code(), Some(1));
}

#[test]
fn golden_trace_fixture_matches_a_fresh_run() {
    // Guards the committed CI regression fixtures: the tiny/seed-7 run
    // shape, clean and over `stale-kb+conflict` sources, must keep
    // producing exactly these bytes. If this fails after an
    // *intentional* behavior change, regenerate with
    // `cfs run --scale tiny --seed 7 [--faults stale-kb+conflict]
    // --trace-json tests/golden/<fixture>`.
    for (fixture, faults) in [
        ("trace-tiny-seed7.json", None),
        ("trace-tiny-seed7-conflict.json", Some("stale-kb+conflict")),
    ] {
        let golden = format!("{}/tests/golden/{fixture}", env!("CARGO_MANIFEST_DIR"));
        let fresh = tmp(&format!("golden-check-{fixture}"));
        let mut args = vec!["run", "--scale", "tiny", "--seed", "7"];
        args.extend(faults.map(|f| ["--faults", f]).into_iter().flatten());
        args.extend(["--trace-json", fresh.to_str().unwrap()]);
        let run = cfs(&args);
        assert!(run.status.success(), "{}", stderr(&run));
        let diff = cfs(&["trace-diff", &golden, fresh.to_str().unwrap()]);
        assert_eq!(
            diff.status.code(),
            Some(0),
            "golden trace {fixture} drifted:\n{}",
            stdout(&diff)
        );
    }
}

#[test]
fn run_refuses_a_snapshot_that_lists_an_exchange_twice() {
    // A prefix vote gives each source one say per exchange; a snapshot
    // that lists one exchange twice in PCH's table would confirm
    // prefixes its provenance does not show, so loading it fails.
    let snap = tmp("twice.sources.json");
    let out = cfs(&[
        "snapshot",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--out",
        snap.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let mut src = cfs::kb::PublicSources::load(&snap).expect("a derived snapshot loads");
    src.pch_list.push(src.pch_list[0].clone());
    src.save(&snap).unwrap();
    let run = cfs(&[
        "run",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--sources",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(run.status.code(), Some(1), "{}", stdout(&run));
    assert!(stderr(&run).contains("pch_list"), "{}", stderr(&run));
}

#[test]
fn folded_profile_render_emits_flamegraph_stacks() {
    let prof = tmp("folded.prof.json");
    let run = cfs(&[
        "run",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--profile-json",
        prof.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "{}", stderr(&run));
    let folded = cfs(&["profile", prof.to_str().unwrap(), "--folded"]);
    assert!(folded.status.success(), "{}", stderr(&folded));
    let text = stdout(&folded);
    // Every line is `stack;frames <self_ns>`, rooted at cfs.run, and the
    // measured call paths chain iterations under the run.
    assert!(!text.is_empty());
    for line in text.lines() {
        let (stack, ns) = line.rsplit_once(' ').expect("stack <ns>");
        assert!(stack.starts_with("cfs.run"), "{line}");
        ns.parse::<u64>().expect("self-time is integer ns");
    }
    assert!(
        text.lines()
            .any(|l| l.starts_with("cfs.run;cfs.iteration;stage.constrain ")),
        "{text}"
    );
}

#[test]
fn measured_profile_tree_nests_and_checks_clean() {
    // `cfs run` times spans on the real (Monotonic) clock; the profile's
    // call paths are the nesting that actually ran.
    let prof = tmp("measured.prof.json");
    let run = cfs(&[
        "run",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--profile-json",
        prof.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "{}", stderr(&run));
    let raw = std::fs::read_to_string(&prof).expect("profile written");
    let doc = cfs::obs::ProfileDoc::parse(&raw).expect("own export parses");
    for (path, d) in &doc.spans {
        let children: u64 = doc
            .spans
            .iter()
            .filter(|(p, _)| p.rsplit_once(';').map(|(parent, _)| parent) == Some(path))
            .map(|(_, c)| c.total_ns)
            .sum();
        assert!(
            children <= d.total_ns,
            "{path}: children {children} ns > {} ns",
            d.total_ns
        );
    }
    // The bootstrap extraction runs once under the run, apart from the
    // extraction inside each iteration.
    assert_eq!(doc.spans["cfs.run;stage.extract"].count, 1);
    assert!(doc.spans["cfs.run;cfs.iteration;stage.extract"].count >= 1);

    let checked = cfs(&["check", prof.to_str().unwrap()]);
    assert_eq!(checked.status.code(), Some(0), "{}", stderr(&checked));
    assert!(stdout(&checked).contains("valid cfs-profile/2 document"));

    // A name-keyed `/1` document is a schema error everywhere.
    let old = tmp("old.prof.json");
    std::fs::write(&old, raw.replace("cfs-profile/2", "cfs-profile/1")).expect("written");
    let old = old.to_str().unwrap();
    let checked = cfs(&["check", old]);
    assert_eq!(checked.status.code(), Some(1));
    assert!(stderr(&checked).contains("invalid [schema]"));
    let rendered = cfs(&["profile", old]);
    assert_eq!(rendered.status.code(), Some(1));
    assert!(
        stderr(&rendered).contains("schema is"),
        "{}",
        stderr(&rendered)
    );
    let diffed = cfs(&["trace-diff", old, old]);
    assert_eq!(diffed.status.code(), Some(2));
    assert!(
        stderr(&diffed).contains("cfs-profile/1"),
        "{}",
        stderr(&diffed)
    );

    // A parent whose children outgrow it is refused, section-tagged.
    let overfull = tmp("overfull.prof.json");
    let mut bad = doc.clone();
    bad.spans
        .get_mut("cfs.run;cfs.iteration;stage.extract")
        .expect("in-loop extraction")
        .total_ns = u64::MAX / 2;
    std::fs::write(&overfull, bad.render()).expect("written");
    let checked = cfs(&["check", overfull.to_str().unwrap()]);
    assert_eq!(checked.status.code(), Some(1));
    assert!(
        stderr(&checked).contains("invalid [profile]"),
        "{}",
        stderr(&checked)
    );
}

#[test]
fn baseline_dir_selects_the_golden_by_run_shape() {
    let golden_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

    // A fresh tiny/seed-7 run carries the same shape as the committed
    // golden: selection finds exactly it and the diff is clean.
    let fresh = tmp("shaped.trace.json");
    let run = cfs(&[
        "run",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--trace-json",
        fresh.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "{}", stderr(&run));
    let picked = cfs(&[
        "trace-diff",
        fresh.to_str().unwrap(),
        "--baseline-dir",
        golden_dir,
    ]);
    assert_eq!(
        picked.status.code(),
        Some(0),
        "{}\n{}",
        stdout(&picked),
        stderr(&picked)
    );
    let text = stdout(&picked);
    assert!(
        text.contains("baseline:") && text.contains("trace-tiny-seed7.json"),
        "{text}"
    );

    // A different run shape has no golden → exit 2, not a drift report.
    let other = tmp("other-shape.trace.json");
    let run8 = cfs(&[
        "run",
        "--scale",
        "tiny",
        "--seed",
        "8",
        "--trace-json",
        other.to_str().unwrap(),
    ]);
    assert!(run8.status.success(), "{}", stderr(&run8));
    let unmatched = cfs(&[
        "trace-diff",
        other.to_str().unwrap(),
        "--baseline-dir",
        golden_dir,
    ]);
    assert_eq!(unmatched.status.code(), Some(2), "{}", stdout(&unmatched));
    assert!(
        stderr(&unmatched).contains("no baseline"),
        "{}",
        stderr(&unmatched)
    );

    // A shape-less candidate (daemon traces, pre-shape exports) is
    // rejected with a pointer at the missing member.
    let shapeless = tmp("shapeless.trace.json");
    std::fs::write(
        &shapeless,
        "{\"schema\":\"cfs-trace/1\",\"digest\":\"0\",\"counters\":{}}",
    )
    .expect("fixture written");
    let refused = cfs(&[
        "trace-diff",
        shapeless.to_str().unwrap(),
        "--baseline-dir",
        golden_dir,
    ]);
    assert_eq!(refused.status.code(), Some(2));
    assert!(
        stderr(&refused).contains("no \"shape\" member"),
        "{}",
        stderr(&refused)
    );
}

#[test]
fn metrics_validate_names_the_failing_sections() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/corrupt-metrics.json"
    );
    let out = cfs(&["check", fixture]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    for section in ["[windows]", "[histograms]", "[durations]", "[totals]"] {
        assert!(err.contains(section), "missing {section} in:\n{err}");
    }
    // And the usage/read-failure exits.
    assert_eq!(cfs(&["check"]).status.code(), Some(2));
    assert_eq!(cfs(&["check", "/nonexistent.json"]).status.code(), Some(1));
}

#[test]
fn trace_validate_names_the_failing_sections() {
    // The committed fixture is wrong in several distinct ways; the
    // validator must attribute each problem to its section.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/corrupt-trace-bad-digest.json"
    );
    let out = cfs(&["check", fixture]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    for section in [
        "[digest]",
        "[structure]",
        "[histograms]",
        "[resolution_curve]",
    ] {
        assert!(err.contains(section), "missing {section} in:\n{err}");
    }
}

#[test]
fn trace_validate_flags_convergence_violations_behind_a_good_digest() {
    // A document whose digest is correct but whose trajectory grows:
    // only the convergence section may be blamed.
    let body = concat!(
        "\"counters\":{\"x\":1},\"histogram_le\":[1],",
        "\"histograms\":{},\"spans\":{},",
        "\"convergence\":{\"candidate_bucket_le\":[2],",
        "\"per_iteration\":[{\"iteration\":1,\"unconstrained\":0,\"resolved\":1,\"buckets\":[1,0]}],",
        "\"trajectories\":{\"10.0.0.1\":[[1,2],[2,5]]}},",
        "\"resolution_curve\":[0.5,1]"
    );
    let digest = cfs::obs::export::fnv1a64(body);
    let doc = format!("{{\"schema\":\"cfs-trace/1\",\"digest\":\"{digest:016x}\",{body}}}");
    let path = tmp("growing-trajectory.json");
    std::fs::write(&path, doc).expect("fixture written");

    let out = cfs(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("[convergence]"), "{err}");
    assert!(err.contains("trajectory 10.0.0.1 grows"), "{err}");
    assert!(!err.contains("[digest]"), "digest was valid:\n{err}");
}

#[test]
fn check_dispatches_on_schema_and_refuses_hostile_input() {
    let alert = "{\"schema\":\"cfs-alerts/1\",\"seq\":0,\"t_ns\":0,\"epoch\":1,\
                 \"severity\":\"warn\",\"kind\":\"probe-loss-surge\",\"observed_pm\":1,\
                 \"baseline_pm\":2,\"score_pm\":3,\"support\":0}\n";
    // A megabyte of `[` is past the reader's recursion limit: invalid
    // (exit 1), never a stack overflow.
    let depth = 1 << 19;
    for (name, doc, code, needle) in [
        (
            "alerts.jsonl",
            alert.to_string(),
            0,
            "valid cfs-alerts/1 document",
        ),
        ("replayed.jsonl", alert.repeat(2), 1, "invalid [alerts]"),
        (
            "future.json",
            "{\"schema\":\"cfs-trace/9\"}".into(),
            1,
            "invalid [schema]",
        ),
        (
            "deep.json",
            "[".repeat(depth) + &"]".repeat(depth),
            1,
            "invalid [json]",
        ),
    ] {
        let path = tmp(name);
        std::fs::write(&path, doc).expect("fixture written");
        let out = cfs(&["check", path.to_str().unwrap()]);
        let said = stdout(&out) + &stderr(&out);
        assert_eq!(out.status.code(), Some(code), "{name}: {said}");
        assert!(said.contains(needle), "{name}: {said}");
    }
}
