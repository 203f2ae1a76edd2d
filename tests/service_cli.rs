//! End-to-end coverage of the service mode: `cfs serve` daemons driven
//! through `cfs query`, the way CI's cfsd smoke job drives them.
//!
//! Pins the protocol contract (exit codes, error codes, schema
//! discipline) and the incremental re-convergence contract: a daemon
//! that converged and then absorbed campaign 1 as a delta exports the
//! same canonical trace as a daemon that booted with `--campaigns 1`.

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

fn cfs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cfs"))
        .args(args)
        .output()
        .expect("cfs binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cfs-svc-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Spawns a daemon on a Unix socket and waits until it answers status.
fn spawn_daemon(socket: &str, extra: &[&str]) -> Child {
    let mut args = vec![
        "serve", "--socket", socket, "--scale", "tiny", "--seed", "7",
    ];
    args.extend_from_slice(extra);
    let mut child = Command::new(env!("CARGO_BIN_EXE_cfs"))
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("daemon spawns");
    for _ in 0..600 {
        let probe = cfs(&["query", "--socket", socket, "status"]);
        if probe.status.code() == Some(0) {
            assert!(stdout(&probe).contains("\"state\":\"serving\""));
            return child;
        }
        // Polling a real spawned daemon; no virtual clock spans processes.
        #[expect(clippy::disallowed_methods)]
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("daemon on {socket} never became ready");
}

fn shutdown_daemon(socket: &str, mut child: Child) {
    let bye = cfs(&["query", "--socket", socket, "shutdown"]);
    assert_eq!(bye.status.code(), Some(0), "{}", stderr(&bye));
    assert!(stdout(&bye).contains("\"state\":\"stopping\""));
    let status = child.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "daemon exited uncleanly");
}

#[test]
fn daemon_answers_queries_deltas_and_typed_errors() {
    let socket = tmp("cfsd-main.sock");
    let socket = socket.to_str().unwrap();
    let child = spawn_daemon(socket, &[]);

    // Status after boot: epoch 1 (converged once, no deltas yet).
    let status = cfs(&["query", "--socket", socket, "status"]);
    assert_eq!(status.status.code(), Some(0));
    assert!(
        stdout(&status).contains("\"epoch\":1"),
        "{}",
        stdout(&status)
    );

    // The typed-error vocabulary, pinned code by code. Exit 4 means the
    // daemon answered with ok:false (transport was fine).
    for (raw, code) in [
        ("{oops", "\"code\":\"bad_request\""),
        ("{\"op\":\"status\"}", "\"code\":\"unknown_schema\""),
        (
            "{\"schema\":\"cfs-api/9\",\"op\":\"status\"}",
            "\"code\":\"unknown_schema\"",
        ),
        (
            "{\"schema\":\"cfs-api/1\",\"op\":\"frobnicate\"}",
            "\"code\":\"unknown_op\"",
        ),
        (
            "{\"schema\":\"cfs-api/1\",\"op\":\"delta\",\"kind\":\"mystery\"}",
            "\"code\":\"bad_delta\"",
        ),
        (
            "{\"schema\":\"cfs-api/1\",\"op\":\"delta\",\"kind\":\"campaign\",\"campaign\":0}",
            "\"code\":\"bad_delta\"",
        ),
        (
            "{\"schema\":\"cfs-api/1\",\"op\":\"delta\",\"kind\":\"vp-status\",\"vp\":999999,\"up\":false}",
            "\"code\":\"bad_delta\"",
        ),
    ] {
        let out = cfs(&["query", "--socket", socket, "--raw", raw]);
        assert_eq!(out.status.code(), Some(4), "raw {raw}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("\"ok\":false"), "{raw}: {text}");
        assert!(text.contains(code), "{raw}: want {code}, got {text}");
    }

    // Interface lookups: unparsable → bad_iface, untracked → unknown_iface.
    let bad = cfs(&["query", "--socket", socket, "not-an-ip"]);
    assert_eq!(bad.status.code(), Some(4));
    assert!(stdout(&bad).contains("\"code\":\"bad_iface\""));
    let unknown = cfs(&["query", "--socket", socket, "203.0.113.254"]);
    assert_eq!(unknown.status.code(), Some(4));
    assert!(stdout(&unknown).contains("\"code\":\"unknown_iface\""));

    // A tracked interface: pick one from the trace export's trajectories.
    let trace_path = tmp("epoch1.trace.json");
    let fetch = cfs(&[
        "query",
        "--socket",
        socket,
        "trace",
        "--out",
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(fetch.status.code(), Some(0), "{}", stderr(&fetch));
    let trace_doc = std::fs::read_to_string(&trace_path).expect("trace written");
    assert!(trace_doc.starts_with("{\"schema\":\"cfs-trace/1\""));
    // The peeled payload is a complete, digest-valid trace document.
    let validate = cfs(&["check", trace_path.to_str().unwrap()]);
    assert_eq!(validate.status.code(), Some(0), "{}", stderr(&validate));
    let doc: serde_json::Value = serde_json::from_str(&trace_doc).expect("trace parses");
    let tracked_ip = doc["convergence"]["trajectories"]
        .as_object()
        .and_then(|m| m.iter().next().map(|(k, _)| k.clone()))
        .expect("trace lists tracked interfaces");
    let answer = cfs(&["query", "--socket", socket, &tracked_ip]);
    assert_eq!(answer.status.code(), Some(0), "{}", stderr(&answer));
    let text = stdout(&answer);
    for member in [
        "\"iface\":",
        "\"method\":",
        "\"confidence\":",
        "\"epoch\":1",
    ] {
        assert!(text.contains(member), "missing {member} in {text}");
    }

    // A campaign delta bumps the epoch and reports its re-convergence
    // accounting; queries then answer from the new epoch.
    let delta = cfs(&[
        "query",
        "--socket",
        socket,
        "--raw",
        "{\"schema\":\"cfs-api/1\",\"op\":\"delta\",\"kind\":\"campaign\",\"campaign\":1}",
    ]);
    assert_eq!(delta.status.code(), Some(0), "{}", stderr(&delta));
    let delta_text = stdout(&delta);
    for member in [
        "\"epoch\":2",
        "\"dirty\":",
        "\"reconverged\":",
        "\"total\":",
    ] {
        assert!(
            delta_text.contains(member),
            "missing {member} in {delta_text}"
        );
    }
    let status2 = cfs(&["query", "--socket", socket, "status"]);
    assert!(
        stdout(&status2).contains("\"epoch\":2"),
        "{}",
        stdout(&status2)
    );

    shutdown_daemon(socket, child);
}

#[test]
fn delta_converged_daemon_matches_a_fresh_batch_daemon() {
    // Daemon A: converge on the bootstrap inputs, absorb campaign 1 as
    // an incremental delta. Daemon B: boot with campaign 1 pre-ingested
    // and converge from scratch. Their canonical traces must be
    // byte-identical — the service-mode determinism contract, end to end.
    let sock_a = tmp("cfsd-a.sock");
    let sock_a = sock_a.to_str().unwrap();
    let trace_a = tmp("a.trace.json");
    let child_a = spawn_daemon(sock_a, &[]);
    let delta = cfs(&[
        "query",
        "--socket",
        sock_a,
        "--raw",
        "{\"schema\":\"cfs-api/1\",\"op\":\"delta\",\"kind\":\"campaign\",\"campaign\":1}",
    ]);
    assert_eq!(delta.status.code(), Some(0), "{}", stderr(&delta));
    let fetch_a = cfs(&[
        "query",
        "--socket",
        sock_a,
        "trace",
        "--out",
        trace_a.to_str().unwrap(),
    ]);
    assert_eq!(fetch_a.status.code(), Some(0), "{}", stderr(&fetch_a));
    shutdown_daemon(sock_a, child_a);

    let sock_b = tmp("cfsd-b.sock");
    let sock_b = sock_b.to_str().unwrap();
    let trace_b = tmp("b.trace.json");
    let child_b = spawn_daemon(sock_b, &["--campaigns", "1"]);
    let fetch_b = cfs(&[
        "query",
        "--socket",
        sock_b,
        "trace",
        "--out",
        trace_b.to_str().unwrap(),
    ]);
    assert_eq!(fetch_b.status.code(), Some(0), "{}", stderr(&fetch_b));
    shutdown_daemon(sock_b, child_b);

    let diff = cfs(&[
        "trace-diff",
        trace_a.to_str().unwrap(),
        trace_b.to_str().unwrap(),
    ]);
    assert_eq!(
        diff.status.code(),
        Some(0),
        "incremental daemon drifted from batch daemon:\n{}",
        stdout(&diff)
    );
    assert_eq!(
        std::fs::read_to_string(&trace_a).unwrap(),
        std::fs::read_to_string(&trace_b).unwrap(),
        "trace bytes differ"
    );
}

#[test]
fn faulted_daemon_serves_metrics_and_events_without_touching_the_trace() {
    // A chaos-degraded daemon with live telemetry: the metrics op must
    // report non-zero request-latency counts, the event log must drain
    // with a cursor, and none of it may perturb the canonical trace.
    let socket = tmp("cfsd-tele.sock");
    let socket = socket.to_str().unwrap();
    let log_path = tmp("cfsd-events.log");
    let child = spawn_daemon(
        socket,
        &[
            "--faults",
            "default",
            "--log",
            log_path.to_str().unwrap(),
            "--window-ms",
            "500",
        ],
    );

    // Drive traffic so the latency histograms fill, including a delta.
    for _ in 0..3 {
        let st = cfs(&["query", "--socket", socket, "status"]);
        assert_eq!(st.status.code(), Some(0), "{}", stderr(&st));
    }
    let delta = cfs(&[
        "query",
        "--socket",
        socket,
        "--raw",
        "{\"schema\":\"cfs-api/1\",\"op\":\"delta\",\"kind\":\"campaign\",\"campaign\":1}",
    ]);
    assert_eq!(delta.status.code(), Some(0), "{}", stderr(&delta));

    let trace_before = tmp("tele-before.trace.json");
    let fetch = cfs(&[
        "query",
        "--socket",
        socket,
        "trace",
        "--out",
        trace_before.to_str().unwrap(),
    ]);
    assert_eq!(fetch.status.code(), Some(0), "{}", stderr(&fetch));

    // Raw snapshot: schema, request counts, per-op latency all live.
    let json = cfs(&["metrics", "--socket", socket, "--json"]);
    assert_eq!(json.status.code(), Some(0), "{}", stderr(&json));
    let raw = stdout(&json);
    let doc: serde_json::Value = serde_json::from_str(raw.trim()).expect("metrics parses");
    assert_eq!(doc["schema"].as_str(), Some("cfs-metrics/1"));
    let requests = doc["totals"]["counters"]["api.requests"]
        .as_u64()
        .expect("api.requests counted");
    assert!(requests >= 4, "only {requests} requests counted");
    let status_spans = doc["totals"]["durations"]["api.status"]["count"]
        .as_u64()
        .expect("api.status timed");
    assert!(status_spans >= 3, "only {status_spans} status spans");
    assert!(
        doc["totals"]["counters"]["serve.dirty_ifaces"].as_u64() > Some(0),
        "campaign delta dirtied nothing"
    );

    // The saved snapshot is a valid cfs-metrics/1 document end to end.
    let saved = tmp("tele.metrics.json");
    let save = cfs(&[
        "metrics",
        "--socket",
        socket,
        "--out",
        saved.to_str().unwrap(),
    ]);
    assert_eq!(save.status.code(), Some(0), "{}", stderr(&save));
    let validate = cfs(&["check", saved.to_str().unwrap()]);
    assert_eq!(validate.status.code(), Some(0), "{}", stderr(&validate));

    // The human summary names the things operators scan for.
    let human = cfs(&["metrics", "--socket", socket]);
    assert_eq!(human.status.code(), Some(0), "{}", stderr(&human));
    let text = stdout(&human);
    for needle in ["uptime", "requests", "per-op latency", "delta churn"] {
        assert!(text.contains(needle), "missing {needle} in {text}");
    }

    // Event drain: boot + delta events first, then the cursor advances
    // past them and a re-drain from `next` is empty.
    let ev = cfs(&[
        "query",
        "--socket",
        socket,
        "--raw",
        "{\"schema\":\"cfs-api/1\",\"op\":\"events\"}",
    ]);
    assert_eq!(ev.status.code(), Some(0), "{}", stderr(&ev));
    let ev_doc: serde_json::Value =
        serde_json::from_str(stdout(&ev).trim()).expect("events reply parses");
    let drained = ev_doc["events"].as_array().expect("events array");
    let kinds: Vec<&str> = drained.iter().filter_map(|e| e["event"].as_str()).collect();
    assert!(
        kinds.contains(&"session-converged"),
        "no session-converged in {kinds:?}"
    );
    assert!(
        kinds.contains(&"delta-applied"),
        "no delta-applied in {kinds:?}"
    );
    let next = ev_doc["next"].as_u64().expect("next cursor");
    assert_eq!(next, drained.last().unwrap()["seq"].as_u64().unwrap() + 1);
    let again = cfs(&[
        "query",
        "--socket",
        socket,
        "--raw",
        &format!("{{\"schema\":\"cfs-api/1\",\"op\":\"events\",\"since\":{next}}}"),
    ]);
    assert_eq!(again.status.code(), Some(0));
    assert!(
        stdout(&again).contains("\"events\":[]"),
        "re-drain not empty: {}",
        stdout(&again)
    );

    // One dashboard poll renders and exits 0.
    let top = cfs(&[
        "top",
        "--socket",
        socket,
        "--interval-ms",
        "10",
        "--polls",
        "1",
    ]);
    assert_eq!(top.status.code(), Some(0), "{}", stderr(&top));
    assert!(stdout(&top).contains("cfs top"), "{}", stdout(&top));

    // All that telemetry traffic left the canonical trace untouched.
    let trace_after = tmp("tele-after.trace.json");
    let fetch2 = cfs(&[
        "query",
        "--socket",
        socket,
        "trace",
        "--out",
        trace_after.to_str().unwrap(),
    ]);
    assert_eq!(fetch2.status.code(), Some(0), "{}", stderr(&fetch2));
    assert_eq!(
        std::fs::read_to_string(&trace_before).unwrap(),
        std::fs::read_to_string(&trace_after).unwrap(),
        "metrics/events ops changed the canonical trace"
    );

    shutdown_daemon(socket, child);

    // The --log sink streamed every event as a cfs-log/1 line.
    let log = std::fs::read_to_string(&log_path).expect("event log written");
    assert!(
        log.lines().all(|l| l.contains("\"schema\":\"cfs-log/1\"")),
        "{log}"
    );
    assert!(log.contains("session-converged"), "{log}");
    assert!(log.contains("delta-applied"), "{log}");
}

#[test]
fn query_cli_pins_usage_and_transport_exit_codes() {
    // No endpoint → usage (2).
    let usage = cfs(&["query", "status"]);
    assert_eq!(usage.status.code(), Some(2), "{}", stderr(&usage));
    let usage_serve = cfs(&["serve", "--scale", "tiny"]);
    assert_eq!(
        usage_serve.status.code(),
        Some(2),
        "{}",
        stderr(&usage_serve)
    );
    let bad_campaigns = cfs(&["serve", "--socket", "/tmp/x.sock", "--campaigns", "many"]);
    assert_eq!(bad_campaigns.status.code(), Some(2));

    // Nobody listening → transport error (3).
    let gone = tmp("no-daemon-here.sock");
    let dead = cfs(&["query", "--socket", gone.to_str().unwrap(), "status"]);
    assert_eq!(dead.status.code(), Some(3), "{}", stdout(&dead));
}
