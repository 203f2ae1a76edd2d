//! The `cfs` command-line tool: generate worlds, run the full inference
//! pipeline, export the inferred interconnection map, and run the
//! analysis scenarios from the examples as one-shot commands.
//!
//! ```text
//! cfs world    [--scale S] [--seed N]             # ground-truth statistics
//! cfs run      [--scale S] [--seed N] [--out F]   # full pipeline + dataset export
//!              [--trace-json F] [--metrics]       #   + observability export
//!              [--profile-json F]                 #   + duration sidecar export
//!              [--faults P]                       #   + chaos fault injection
//! cfs audit    <asn> [--scale S] [--seed N]       # one network's peering map
//!              [--faults P]                       #   + data-quality section
//!                                                 #   + KB reconciliation table
//! cfs kb-diff  <a> <b> [--scale S] [--seed N]     # pairwise source disagreement
//! cfs census   [--scale S] [--seed N]             # remote-peering census
//! cfs validate [--scale S] [--seed N]             # §6 validation scorecard
//! cfs check    <file>                             # validate a trace/metrics/alerts export
//! cfs profile  <file> [--top N] [--folded]        # render a --profile-json export
//! cfs trace-diff <a> <b> [--json]                 # compare two exports
//!              [--tolerance-pct N]                #   (trace or profile pairs)
//!              [--baseline-dir DIR]               #   golden picked by run shape
//! cfs serve    --socket PATH | --tcp ADDR         # resident cfsd daemon
//!              [--scale S] [--seed N]             #   speaking cfs-api/1
//!              [--campaigns N] [--faults P]       #   + pre-ingested campaigns / chaos
//!              [--log FILE] [--window-ms N]       #   + event sink / metrics windows
//!              [--metrics-interval N]             #   + cadence cfs-metrics/1 snapshots
//!              [--metrics-out FILE]               #     (default cfs-metrics.json)
//!              [--detect] [--disrupt P]           #   + divergence detector / scheduled
//!              [--disrupt-seed N]                 #     disruption epochs (withheld)
//!              [--read-deadline-ms N]             #   + stalled-connection deadline
//! cfs query    --socket PATH | --tcp ADDR         # one cfs-api/1 roundtrip
//!              <ip>|status|trace|shutdown         #   against a daemon
//!              [--raw JSON] [--out FILE]
//! cfs metrics  --socket PATH | --tcp ADDR         # live cfs-metrics/1 snapshot
//!              [--json] [--out FILE]
//! cfs watch    --socket PATH | --tcp ADDR         # drain cfs-alerts/1 from a daemon
//!              [--json] [--out FILE] [--follow]   #   (cursor drain: nothing twice)
//!              [--min-severity S] [--polls N]
//! cfs top      --socket PATH | --tcp ADDR         # polling terminal dashboard
//!              [--interval-ms N] [--polls N]
//! ```

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use cfs::detect::{
    validate_alerts, Detector, DetectorConfig, EpochObservation, LocusNames, ALERTS_SCHEMA,
};
use cfs::obs::{
    pace, Clock, EventKind, EventLog, MetricsDoc, Monotonic, Recorder, TraceRecorder,
    WindowedRecorder, METRICS_SCHEMA, TRACE_SCHEMA,
};
use cfs::prelude::*;
use cfs::svc::{ApiError, Outcome};
use cfs::topology::{EventSchedule, ScheduleConfig, ScheduleIntensity};
use cfs::traceroute::{ProbeService, ScheduledEngine, Trace};
use cfs_experiments::{Lab, Scale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let command = args.get(1).map(String::as_str).unwrap_or("help");
    let (scale, seed) = parse_flags(&args[2.min(args.len())..]);

    let code = match command {
        "world" => world(scale, seed),
        "snapshot" => snapshot(scale, seed, flag_value(&args, "--out")),
        "run" => run_cmd(
            scale,
            seed,
            flag_value(&args, "--out"),
            flag_value(&args, "--sources"),
            flag_value(&args, "--trace-json"),
            flag_value(&args, "--profile-json"),
            args.iter().any(|a| a == "--metrics"),
            flag_value(&args, "--faults"),
        ),
        "audit" => audit(
            scale,
            seed,
            args.get(2).and_then(|s| s.parse().ok()),
            flag_value(&args, "--faults"),
        ),
        "census" => census(scale, seed),
        "validate" => validate(scale, seed),
        "check" => check_cmd(args.get(2).map(String::as_str)),
        "profile" => profile_cmd(
            args.get(2).map(String::as_str),
            flag_value(&args, "--top"),
            args.iter().any(|a| a == "--folded"),
        ),
        "trace-diff" => {
            let pos = positionals(&args, &["--json"]);
            trace_diff(
                pos.first().copied(),
                pos.get(1).copied(),
                args.iter().any(|a| a == "--json"),
                flag_value(&args, "--tolerance-pct"),
                flag_value(&args, "--baseline-dir"),
            )
        }
        "serve" => serve_cmd(scale, seed, &args),
        "kb-diff" => kb_diff(
            scale,
            seed,
            positionals(&args, &[]).first().copied().map(String::from),
            positionals(&args, &[]).get(1).copied().map(String::from),
        ),
        "query" => query_cmd(&args),
        "metrics" => metrics_cmd(&args),
        "watch" => watch_cmd(&args),
        "top" => top_cmd(&args),
        "help" | "--help" | "-h" => {
            print_help();
            0
        }
        other => {
            eprintln!("unknown command {other:?}\n");
            print_help();
            2
        }
    };
    std::process::exit(code);
}

fn print_help() {
    eprintln!(
        "cfs — Constrained Facility Search (CoNEXT'15 reproduction)\n\n\
         usage: cfs <command> [--scale tiny|default|paper] [--seed N]\n\n\
         commands:\n\
         \x20 world      ground-truth statistics of a generated world\n\
         \x20 snapshot   export the public sources as editable JSON (--out FILE)\n\
         \x20 run        full pipeline; --out FILE exports the inferred map;\n\
         \x20            --sources FILE drives it from a saved/edited snapshot;\n\
         \x20            --trace-json FILE exports deterministic telemetry;\n\
         \x20            --profile-json FILE exports the wall-clock duration\n\
         \x20            sidecar (cfs-profile/1; never part of the trace digest);\n\
         \x20            --metrics prints a human timing/counter summary;\n\
         \x20            --faults P injects a deterministic fault profile\n\
         \x20            (off|default|flaky|blackout|stale-kb|mid-kb-refresh|\n\
         \x20            conflict, composable as a+b)\n\
         \x20 audit ASN  one network's inferred peering map; --faults P audits\n\
         \x20            a faulted run and prints its data-quality section;\n\
         \x20            always ends with the KB reconciliation table (per-source\n\
         \x20            trust priors vs observed agreement)\n\
         \x20 kb-diff A B  pairwise disagreement between two public sources\n\
         \x20            (noc, ixp-site, pch, pdb-fac, consortium, pdb-ixp,\n\
         \x20            pdb-net): shared/only-A/only-B claims + Jaccard\n\
         \x20 census     remote-peering census over the exchanges\n\
         \x20 validate   §6 validation scorecard\n\
         \x20 check FILE  validate an exported document by its schema member:\n\
         \x20            cfs-trace/1 (digest + structure), cfs-metrics/1\n\
         \x20            (window/totals integrity) or cfs-alerts/1 (vocabulary,\n\
         \x20            cursor monotonicity); exit 0 valid, 1 invalid, 2 usage\n\
         \x20 profile FILE [--top N]  stage tree + bottlenecks of a profile export\n\
         \x20            (--folded emits flamegraph-compatible folded stacks)\n\
         \x20 trace-diff A B  compare two trace or profile exports\n\
         \x20            (--json for machine output; --tolerance-pct N for\n\
         \x20            profile durations, default 25; exit 0 same, 1 drift,\n\
         \x20            2 malformed); --baseline-dir DIR B picks the golden\n\
         \x20            from DIR by the candidate's run shape\n\
         \x20 serve      resident cfsd daemon speaking line-delimited cfs-api/1\n\
         \x20            over --socket PATH or --tcp ADDR; --campaigns N\n\
         \x20            pre-ingests the deterministic follow-on campaigns 1..N;\n\
         \x20            --faults P serves a chaos-degraded world; --log FILE\n\
         \x20            streams cfs-log/1 events; --window-ms N sets the\n\
         \x20            metrics window width (default 1000);\n\
         \x20            --metrics-interval N snapshots cfs-metrics/1 to\n\
         \x20            --metrics-out FILE (default cfs-metrics.json) at most\n\
         \x20            every N ms; --detect runs the rolling-baseline\n\
         \x20            divergence detector over campaign deltas (alerts op,\n\
         \x20            cfs watch); --disrupt P replays a seeded disruption\n\
         \x20            schedule (light|default|heavy) against the measurement\n\
         \x20            plane, --disrupt-seed N re-keys it (default: world\n\
         \x20            seed); --read-deadline-ms N drops connections that\n\
         \x20            stall mid-request-line\n\
         \x20 query      one cfs-api/1 roundtrip against a daemon: an IPv4\n\
         \x20            address, status, trace, or shutdown (or --raw JSON);\n\
         \x20            --out FILE saves the payload; exit 0 ok, 3 transport\n\
         \x20            error, 4 daemon error response\n\
         \x20 metrics    fetch a live daemon's cfs-metrics/1 snapshot\n\
         \x20            (--json for the raw document; --out FILE saves it)\n\
         \x20 watch      drain cfs-alerts/1 from a live daemon by cursor\n\
         \x20            (--json for JSON lines; --out FILE appends them;\n\
         \x20            --follow polls every --interval-ms N until --polls N;\n\
         \x20            --min-severity warn|error filters at the daemon)\n\
         \x20 top        polling dashboard over a live daemon: request rates,\n\
         \x20            per-op latency, delta churn, recent events\n\
         \x20            (--interval-ms N, default 1000; --polls N to stop)\n\
         \x20 help       this message\n\n\
         paper tables/figures: cargo run -p cfs-experiments --bin all -- --scale paper"
    );
}

fn parse_flags(args: &[String]) -> (Scale, Option<u64>) {
    let mut scale = Scale::Default;
    let mut seed = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = match args.get(i + 1).map(String::as_str) {
                    Some("tiny") => Scale::Tiny,
                    Some("paper") => Scale::Paper,
                    _ => Scale::Default,
                };
                i += 1;
            }
            "--seed" => {
                seed = args.get(i + 1).and_then(|v| v.parse().ok());
                i += 1;
            }
            _ => {}
        }
        i += 1;
    }
    (scale, seed)
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The non-flag tokens after the command. Flags in `boolean` stand
/// alone; every other `--flag` consumes the following token as its
/// value.
fn positionals<'a>(args: &'a [String], boolean: &[&str]) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut i = 2;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with("--") {
            i += if boolean.contains(&a) { 1 } else { 2 };
        } else {
            out.push(a);
            i += 1;
        }
    }
    out
}

fn provision(scale: Scale, seed: Option<u64>) -> Lab {
    Lab::provision(scale, seed).expect("world generation failed")
}

fn world(scale: Scale, seed: Option<u64>) -> i32 {
    let lab = provision(scale, seed);
    let t = &lab.topo;
    println!("scale: {} (seed {})", scale.label(), t.config.seed);
    println!("facilities:     {}", t.facilities.len());
    println!("ixps:           {}", t.ixps.len());
    println!("ases:           {}", t.ases.len());
    println!("routers:        {}", t.routers.len());
    println!("interfaces:     {}", t.ifaces.len());
    println!("private links:  {}", t.links.len());
    println!("as adjacencies: {}", t.adjacencies.len());
    for region in Region::ALL {
        let n = t.facilities.values().filter(|f| f.region == region).count();
        println!("  {region:<14} {n:>5} facilities");
    }
    0
}

fn snapshot(scale: Scale, seed: Option<u64>, out: Option<String>) -> i32 {
    let Some(path) = out else {
        eprintln!("usage: cfs snapshot --out FILE [--scale S] [--seed N]");
        return 2;
    };
    let lab = provision(scale, seed);
    match lab.sources.save(&path) {
        Ok(()) => {
            println!(
                "wrote public sources to {path} (world: scale {}, seed {})",
                scale.label(),
                lab.topo.config.seed
            );
            0
        }
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            1
        }
    }
}

#[allow(clippy::too_many_arguments)] // one flag per CLI switch, parsed in main
fn run_cmd(
    scale: Scale,
    seed: Option<u64>,
    out: Option<String>,
    sources_path: Option<String>,
    trace_json: Option<String>,
    profile_json: Option<String>,
    metrics: bool,
    faults: Option<String>,
) -> i32 {
    let sources = match sources_path {
        Some(p) => match cfs::kb::PublicSources::load(&p) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("failed to load sources from {p}: {e}");
                return 1;
            }
        },
        None => None,
    };
    let lab = Lab::provision_with_sources(scale, seed, sources).expect("world generation failed");
    let plan = match &faults {
        Some(spec) => match FaultPlan::named(spec, lab.topo.config.seed) {
            Some(p) => Some(p),
            None => {
                eprintln!(
                    "unknown fault profile {spec:?} (named: off, default, flaky, \
                     blackout, stale-kb, mid-kb-refresh, conflict; compose with `+`)"
                );
                return 2;
            }
        },
        None => None,
    };
    // Attach a recorder only when somebody will read it; otherwise the
    // pipeline keeps its free no-op instrumentation.
    let recorder = (trace_json.is_some() || profile_json.is_some() || metrics)
        .then(|| Arc::new(TraceRecorder::new(Arc::new(Monotonic::new()))));
    let report = match (plan, &recorder) {
        (Some(plan), Some(rec)) => {
            lab.run_cfs_chaos_observed(plan, CfsConfig::default(), rec.clone())
        }
        (Some(plan), None) => lab.run_cfs_chaos(plan, CfsConfig::default()),
        (None, Some(rec)) => lab.run_cfs_observed(CfsConfig::default(), rec.clone()),
        (None, None) => lab.run_cfs(None, None, CfsConfig::default()),
    };
    println!(
        "resolved {}/{} interfaces ({:.1}%) over {} iterations; {} follow-up traceroutes",
        report.resolved(),
        report.total(),
        report.resolved_fraction() * 100.0,
        report.iterations.len(),
        report.traces_issued,
    );
    if let Some(spec) = &faults {
        let dq = &report.data_quality;
        println!(
            "fault profile {spec}: {} failed probes, {} retried ({} denied), \
             {} VP breaker trips, {} interfaces metro-widened, \
             {} contested pins refused",
            dq.failed_probes,
            dq.probes_retried,
            dq.retries_denied,
            dq.vp_breaker_trips,
            dq.widened_interfaces,
            dq.contested_pins_refused,
        );
    }

    if let Some(path) = out {
        // The public dataset the paper publishes: every inferred
        // interface and interconnection, in machine-readable form.
        let interfaces: Vec<serde_json::Value> = report
            .interfaces
            .values()
            .map(|i| {
                serde_json::json!({
                    "ip": i.ip.to_string(),
                    "owner_asn": i.owner.map(|a| a.raw()),
                    "facility": i.facility.map(|f| lab.topo.facilities[f].name.clone()),
                    "metro": i.metro.map(|m| lab.topo.world.metro(m).name.clone()),
                    "outcome": format!("{:?}", i.outcome),
                    "remote_peer": i.remote,
                    "candidates": i.candidates.len(),
                    "resolved_at_iteration": i.resolved_at,
                    "via_proximity_heuristic": i.via_proximity,
                })
            })
            .collect();
        let links: Vec<serde_json::Value> = report
            .links
            .iter()
            .map(|l| {
                serde_json::json!({
                    "near_asn": l.near_asn.raw(),
                    "near_ip": l.near_ip.to_string(),
                    "far_asn": l.far_asn.map(|a| a.raw()),
                    "far_ip": l.far_ip.map(|ip| ip.to_string()),
                    "type": l.kind.label(),
                    "ixp": l.ixp.map(|x| lab.topo.ixps[x].name.clone()),
                    "near_facility": l.near_facility.map(|f| lab.topo.facilities[f].name.clone()),
                    "far_facility": l.far_facility.map(|f| lab.topo.facilities[f].name.clone()),
                })
            })
            .collect();
        let doc = serde_json::json!({
            "generator": "cfs (constrained facility search reproduction)",
            "scale": scale.label(),
            "interfaces": interfaces,
            "interconnections": links,
        });
        match serde_json::to_string_pretty(&doc)
            .map_err(|e| e.to_string())
            .and_then(|s| std::fs::write(&path, s).map_err(|e| e.to_string()))
        {
            Ok(()) => println!("wrote inferred map to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return 1;
            }
        }
    }

    if let Some(rec) = &recorder {
        let snap = rec.snapshot();
        if let Some(path) = &trace_json {
            // The shape fingerprint names the run configuration so
            // `trace-diff --baseline-dir` can pair this export with the
            // golden of the same shape. It is digested like any other
            // member; two runs differ in shape iff their config differs.
            let shape = format!(
                "scale={};seed={};faults={}",
                scale.label(),
                lab.topo.config.seed,
                faults.as_deref().unwrap_or("off")
            );
            let doc = cfs::core::render_trace_json_with_shape(&report, &snap, &shape);
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("failed to write {path}: {e}");
                return 1;
            }
            println!("wrote trace telemetry to {path}");
        }
        if let Some(path) = &profile_json {
            let doc = cfs::core::render_profile_json(&snap);
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("failed to write {path}: {e}");
                return 1;
            }
            println!("wrote duration profile to {path}");
        }
        if metrics {
            print!("{}", cfs::obs::export::render_metrics(&snap));
        }
    }
    0
}

/// Renders a `cfs-profile/1` export as a stage tree with self/child
/// time and a top-N bottleneck table — or, with `--folded`, as
/// folded-stack lines ready for flamegraph collapse tooling.
fn profile_cmd(path: Option<&str>, top: Option<String>, folded: bool) -> i32 {
    let Some(path) = path else {
        eprintln!("usage: cfs profile FILE [--top N] [--folded]");
        return 2;
    };
    let top_n = match top {
        None => 5,
        Some(raw) => match raw.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--top wants a number, got {raw:?}");
                return 2;
            }
        },
    };
    let raw = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to read {path}: {e}");
            return 1;
        }
    };
    match cfs::obs::ProfileDoc::parse(&raw) {
        Ok(doc) => {
            if folded {
                print!("{}", cfs::obs::render_profile_folded(&doc));
            } else {
                print!("{}", cfs::obs::render_profile_report(&doc, top_n));
            }
            0
        }
        Err(e) => {
            eprintln!("invalid profile {path}: {e}");
            1
        }
    }
}

/// The `shape` member of a trace document, when present: the run-shape
/// fingerprint `cfs run` stamps next to the digest.
fn trace_shape(raw: &str) -> Option<String> {
    serde_json::from_str::<serde_json::Value>(raw)
        .ok()?
        .get("shape")?
        .as_str()
        .map(String::from)
}

/// Structurally compares two trace or profile exports. Exit 0 when
/// identical within tolerance, 1 on drift, 2 on malformed input. With
/// `--baseline-dir`, the baseline is the one `*.json` in the directory
/// whose `shape` fingerprint matches the candidate's — golden selection
/// by run shape instead of exact path.
fn trace_diff(
    a: Option<&str>,
    b: Option<&str>,
    json: bool,
    tolerance: Option<String>,
    baseline_dir: Option<String>,
) -> i32 {
    let tolerance_pct = match tolerance {
        None => 25,
        Some(raw) => match raw.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--tolerance-pct wants a number, got {raw:?}");
                return 2;
            }
        },
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("failed to read {path}: {e}");
            None
        }
    };
    let (a_raw, b_raw) = if let Some(dir) = baseline_dir {
        // One positional: the candidate. Its shape picks the golden.
        let Some(b_path) = a else {
            eprintln!("usage: cfs trace-diff --baseline-dir DIR B [--json] [--tolerance-pct N]");
            return 2;
        };
        let Some(b_raw) = read(b_path) else {
            return 2;
        };
        let Some(shape) = trace_shape(&b_raw) else {
            eprintln!(
                "{b_path} carries no \"shape\" member; --baseline-dir needs one \
                 (re-export with a current `cfs run --trace-json`)"
            );
            return 2;
        };
        let entries = match std::fs::read_dir(&dir) {
            Ok(it) => it,
            Err(e) => {
                eprintln!("failed to read baseline dir {dir}: {e}");
                return 2;
            }
        };
        let mut paths: Vec<std::path::PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        let mut matches: Vec<(String, String)> = Vec::new();
        for path in paths {
            let shown = path.display().to_string();
            if let Ok(raw) = std::fs::read_to_string(&path) {
                if trace_shape(&raw).as_deref() == Some(shape.as_str()) {
                    matches.push((shown, raw));
                }
            }
        }
        match matches.len() {
            0 => {
                eprintln!("no baseline in {dir} has shape {shape} (candidate {b_path})");
                return 2;
            }
            1 => {
                let (golden_path, golden_raw) = matches.remove(0);
                println!("baseline: {golden_path} (shape {shape})");
                (golden_raw, b_raw)
            }
            _ => {
                let names: Vec<&str> = matches.iter().map(|(p, _)| p.as_str()).collect();
                eprintln!("shape {shape} is ambiguous in {dir}: {names:?}");
                return 2;
            }
        }
    } else {
        let (Some(a_path), Some(b_path)) = (a, b) else {
            eprintln!(
                "usage: cfs trace-diff A B [--json] [--tolerance-pct N] \
                 | cfs trace-diff --baseline-dir DIR B"
            );
            return 2;
        };
        let (Some(a_raw), Some(b_raw)) = (read(a_path), read(b_path)) else {
            return 2;
        };
        (a_raw, b_raw)
    };
    match cfs::obs::diff_docs(&a_raw, &b_raw, tolerance_pct) {
        Ok(diff) => {
            if json {
                println!("{}", diff.render_json());
            } else {
                print!("{}", diff.render_text());
            }
            i32::from(diff.is_drift())
        }
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

/// `cfs check`: validates an exported document, dispatching on the
/// `schema` member of its first line — a `cfs-trace/1` trace or a
/// `cfs-metrics/1` snapshot (single-line documents), or a
/// `cfs-alerts/1` export (one JSON line per alert). Problems are tagged
/// with the section that failed, so a red CI run says *where* to look.
/// Exit 0 valid, 1 invalid or unreadable, 2 usage.
fn check_cmd(path: Option<&str>) -> i32 {
    let Some(path) = path else {
        eprintln!("usage: cfs check FILE");
        return 2;
    };
    let raw = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to read {path}: {e}");
            return 1;
        }
    };
    let first = raw.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
    let (schema, problems) = match serde_json::from_str::<serde_json::Value>(first) {
        Err(e) => ("", vec![("json", format!("{path} is not JSON: {e}"))]),
        Ok(head) => match head.get("schema").and_then(|s| s.as_str()) {
            Some(TRACE_SCHEMA) => (TRACE_SCHEMA, trace_problems(&raw, &head)),
            Some(METRICS_SCHEMA) => (METRICS_SCHEMA, MetricsDoc::validate(&raw)),
            Some(ALERTS_SCHEMA) => match validate_alerts(&raw) {
                Ok(_) => (ALERTS_SCHEMA, Vec::new()),
                Err(e) => (ALERTS_SCHEMA, vec![("alerts", e)]),
            },
            other => ("", vec![("schema", format!("unknown schema {other:?}"))]),
        },
    };
    if problems.is_empty() {
        println!("{path}: valid {schema} document");
        0
    } else {
        for (section, p) in &problems {
            eprintln!("invalid [{section}]: {p}");
        }
        1
    }
}

/// The checks on a `--trace-json` export: digest integrity over the raw
/// bytes, and the structural invariants the parsed document promises
/// (monotone resolution curve, shrinking trajectories, aligned
/// histogram buckets).
fn trace_problems(raw: &str, doc: &serde_json::Value) -> Vec<(&'static str, String)> {
    let mut problems: Vec<(&'static str, String)> = Vec::new();
    // Digest check on the raw bytes: everything after the digest member
    // is the digested body (see cfs_core::render_trace_json).
    let prefix = format!("{{\"schema\":\"{TRACE_SCHEMA}\",\"digest\":\"");
    if let Some(rest) = raw.strip_prefix(prefix.as_str()) {
        match (rest.get(..16), rest.get(18..rest.len().saturating_sub(1))) {
            (Some(digest_hex), Some(body)) if rest[16..].starts_with("\",") => {
                let computed = format!("{:016x}", cfs::obs::export::fnv1a64(body));
                if computed != digest_hex {
                    problems.push((
                        "digest",
                        format!("digest mismatch: header {digest_hex}, body {computed}"),
                    ));
                }
            }
            _ => problems.push(("digest", "malformed digest member".into())),
        }
    } else {
        problems.push(("digest", format!("missing {TRACE_SCHEMA} schema header")));
    }

    for key in [
        "schema",
        "digest",
        "counters",
        "histogram_le",
        "histograms",
        "spans",
        "convergence",
        "resolution_curve",
        "kb_quality",
    ] {
        if doc.get(key).is_none() {
            problems.push(("structure", format!("missing top-level member {key:?}")));
        }
    }
    if let Some(bounds) = doc.get("histogram_le").and_then(|v| v.as_array()) {
        let want = bounds.len() + 1;
        for (name, h) in doc
            .get("histograms")
            .and_then(|v| v.as_object())
            .map(|m| m.iter())
            .into_iter()
            .flatten()
        {
            let got = h.get("buckets").and_then(|b| b.as_array()).map(Vec::len);
            if got != Some(want) {
                problems.push((
                    "histograms",
                    format!("histogram {name:?}: {got:?} buckets, want {want}"),
                ));
            }
        }
    }
    if let Some(conv) = doc.get("convergence") {
        let le_len = conv
            .get("candidate_bucket_le")
            .and_then(|v| v.as_array())
            .map(Vec::len)
            .unwrap_or(0);
        for h in conv
            .get("per_iteration")
            .and_then(|v| v.as_array())
            .into_iter()
            .flatten()
        {
            let got = h.get("buckets").and_then(|b| b.as_array()).map(Vec::len);
            if got != Some(le_len + 1) {
                problems.push((
                    "convergence",
                    format!("per_iteration buckets: {got:?}, want {}", le_len + 1),
                ));
                break;
            }
        }
        for (ip, points) in conv
            .get("trajectories")
            .and_then(|v| v.as_object())
            .map(|m| m.iter())
            .into_iter()
            .flatten()
        {
            let sizes: Vec<u64> = points
                .as_array()
                .into_iter()
                .flatten()
                .filter_map(|p| p.as_array().and_then(|pair| pair.get(1)?.as_u64()))
                .collect();
            if sizes.windows(2).any(|w| w[1] > w[0]) {
                problems.push(("convergence", format!("trajectory {ip} grows: {sizes:?}")));
            }
        }
    }
    if let Some(curve) = doc.get("resolution_curve").and_then(|v| v.as_array()) {
        let vals: Vec<f64> = curve.iter().filter_map(|v| v.as_f64()).collect();
        if vals.windows(2).any(|w| w[1] < w[0]) || vals.iter().any(|v| !(0.0..=1.0).contains(v)) {
            problems.push((
                "resolution_curve",
                format!("resolution_curve not monotone in [0,1]: {vals:?}"),
            ));
        }
    }

    problems
}

fn audit(scale: Scale, seed: Option<u64>, asn: Option<u32>, faults: Option<String>) -> i32 {
    let Some(asn) = asn else {
        eprintln!("usage: cfs audit <asn> [--scale S] [--seed N] [--faults P]");
        return 2;
    };
    let target = Asn(asn);
    let lab = provision(scale, seed);
    if lab.topo.as_node(target).is_err() {
        eprintln!("{target} does not exist in this world");
        return 1;
    }
    let plan = match &faults {
        Some(spec) => match FaultPlan::named(spec, lab.topo.config.seed) {
            Some(p) => Some(p),
            None => {
                eprintln!(
                    "unknown fault profile {spec:?} (named: off, default, flaky, \
                     blackout, stale-kb, mid-kb-refresh, conflict; compose with `+`)"
                );
                return 2;
            }
        },
        None => None,
    };
    let report = match plan {
        Some(plan) => lab.run_cfs_chaos(plan, CfsConfig::default()),
        None => lab.run_cfs(None, None, CfsConfig::default()),
    };
    let node = lab.topo.as_node(target).expect("checked");
    println!("{target} ({}, {})", node.name, node.class);
    let by_kind = report.interfaces_by_kind(target);
    for kind in PeeringKind::ALL {
        if let Some(n) = by_kind.get(&kind) {
            println!("  {:<18} {n}", kind.label());
        }
    }
    let mut metros: BTreeMap<String, usize> = BTreeMap::new();
    for (ip, _) in report.interfaces_of_owner(target) {
        if let Some(f) = report.interfaces.get(&ip).and_then(|i| i.facility) {
            *metros
                .entry(
                    lab.topo
                        .world
                        .metro(lab.topo.facilities[f].metro)
                        .name
                        .clone(),
                )
                .or_default() += 1;
        }
    }
    println!("inferred interconnection metros:");
    for (m, n) in metros {
        println!("  {m:<16} {n}");
    }

    // What the run had to absorb to produce these verdicts — the
    // DataQualityReport ledger, plus this network's own share of the
    // unresolved-reason taxonomy.
    let dq = &report.data_quality;
    println!("data quality:");
    if let Some(spec) = &faults {
        println!("  fault profile     {spec}");
    }
    println!("  probes retried    {}", dq.probes_retried);
    println!("  retries denied    {}", dq.retries_denied);
    println!("  failed probes     {}", dq.failed_probes);
    println!("  vp breaker trips  {}", dq.vp_breaker_trips);
    println!("  widened ifaces    {}", dq.widened_interfaces);
    let mut asn_reasons: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ip in report.interfaces_of_owner(target).keys() {
        if let Some(reason) = report.interfaces.get(ip).and_then(|i| i.unresolved_reason) {
            *asn_reasons.entry(reason.code()).or_default() += 1;
        }
    }
    if !dq.unresolved_reasons.is_empty() {
        println!("  unresolved reasons (run-wide / {target}):");
        for (code, n) in &dq.unresolved_reasons {
            let own = asn_reasons.get(code.as_str()).copied().unwrap_or(0);
            println!("    {code:<22} {n:>5} / {own}");
        }
    }

    // The knowledge plane behind those verdicts: how much the public
    // sources agreed once reconciled (DESIGN.md §11), and each source's
    // trust prior next to how its claims actually fared.
    let q = &report.kb_quality;
    println!("kb reconciliation:");
    println!(
        "  {} claims, mean agreement {}‰, contested {}‰",
        q.records,
        q.agreement_mean_pm,
        q.contested_pm()
    );
    println!(
        "  unanimous {} / majority {} / contested {} / single-source {}",
        q.unanimous, q.majority, q.contested, q.single_source
    );
    println!("  contested pins refused: {}", dq.contested_pins_refused);
    println!("  source        trust‰  claims  dissents  agreement‰");
    for (label, s) in &q.per_source {
        println!(
            "  {label:<12} {:>6}  {:>6}  {:>8}  {:>10}",
            s.trust_pm, s.claims, s.dissents, s.mean_agreement_pm
        );
    }
    0
}

/// `cfs kb-diff`: Klöti-style pairwise disagreement between two public
/// sources — per claim family, how many claims both assert, how many
/// only one side asserts, and the Jaccard agreement.
fn kb_diff(scale: Scale, seed: Option<u64>, a: Option<String>, b: Option<String>) -> i32 {
    let labels: Vec<&'static str> = cfs::kb::SourceId::ALL.iter().map(|s| s.label()).collect();
    let (Some(a), Some(b)) = (a, b) else {
        eprintln!(
            "usage: cfs kb-diff <source-a> <source-b> [--scale S] [--seed N]\n\
             sources: {}",
            labels.join(", ")
        );
        return 2;
    };
    let (Some(sa), Some(sb)) = (cfs::kb::SourceId::parse(&a), cfs::kb::SourceId::parse(&b)) else {
        eprintln!("unknown source (known: {})", labels.join(", "));
        return 2;
    };
    let lab = provision(scale, seed);
    let rows = cfs::kb::pairwise_diff(&lab.sources, sa, sb);
    if rows.is_empty() {
        println!("{a} and {b} share no claim family — nothing to diff");
        return 0;
    }
    println!(
        "pairwise disagreement {a} vs {b} (scale {}, seed {})",
        scale.label(),
        lab.topo.config.seed
    );
    println!("  family        both  only-{a:<10}  only-{b:<10}  jaccard‰");
    for r in &rows {
        println!(
            "  {:<12} {:>5}  {:>16}  {:>16}  {:>8}",
            r.family, r.both, r.only_a, r.only_b, r.jaccard_pm
        );
    }
    0
}

fn census(scale: Scale, seed: Option<u64>) -> i32 {
    let lab = provision(scale, seed);
    let engine = cfs::traceroute::Engine::new(&lab.topo);
    let vps = &lab.vps;
    let tester = cfs::core::RemoteTester::new(&engine, vps);
    let mut total = 0usize;
    let mut remote = 0usize;
    for ixp_id in lab.kb.active_ixps().iter().copied() {
        for m in &lab.topo.ixps[ixp_id].members {
            if let Some(verdict) = tester.is_remote(ixp_id, m.fabric_ip) {
                total += 1;
                remote += usize::from(verdict);
            }
        }
    }
    println!(
        "remote-peering census: {remote}/{total} memberships inferred remote ({:.1}%)",
        100.0 * remote as f64 / total.max(1) as f64
    );
    0
}

fn validate(scale: Scale, seed: Option<u64>) -> i32 {
    let lab = provision(scale, seed);
    let report = lab.run_cfs(None, None, CfsConfig::default());
    let oracles = ValidationOracles::standard(&lab.topo, &lab.sources);
    let scored = score_report(&report, &oracles, &lab.topo);
    let overall = scored.overall();
    match overall.accuracy() {
        Some(acc) => {
            println!(
                "validated accuracy: {:.1}% ({}/{} facility-level checks)",
                acc * 100.0,
                overall.matched,
                overall.checked
            );
            0
        }
        None => {
            eprintln!("no validation coverage at this scale");
            1
        }
    }
}

/// Follow-up-less configuration for resident sessions: `apply_delta`
/// requires measurement-complete inputs (see `CfsSession::apply_delta`).
fn service_config() -> CfsConfig {
    CfsConfig {
        followup_interfaces: 0,
        ..CfsConfig::default()
    }
}

/// Deterministic follow-on campaign *k*: every vantage point probes the
/// standard targets at `k * 2h`. A pure function of `(world, k)`, so a
/// daemon that pre-ingested `--campaigns N` at boot and one that absorbed
/// the same numbers as `delta` requests hold identical inputs — and,
/// by the session determinism contract, identical reports.
fn serve_campaign(lab: &Lab, engine: &dyn ProbeService, k: u64) -> Vec<Trace> {
    let targets: Vec<Ipv4Addr> = lab
        .targets()
        .iter()
        .filter_map(|a| lab.topo.target_ip(*a).ok())
        .collect();
    let vp_ids: Vec<_> = lab.vps.ids().collect();
    run_campaign(
        engine,
        &lab.vps,
        &vp_ids,
        &targets,
        k * 7_200_000,
        &CampaignLimits::default(),
    )
}

/// How many closed metrics windows the daemon retains (one minute at
/// the default `--window-ms 1000`).
const SERVE_WINDOWS_KEPT: usize = 60;

/// How many events the daemon's in-memory ring retains.
const SERVE_EVENT_CAP: usize = 256;

/// The daemon's live telemetry, threaded through the dispatch loop:
/// rolling metrics windows, the structured event log, and the last seen
/// data-quality totals (so dq *increases* become events).
struct ServeTelemetry {
    windows: Arc<WindowedRecorder>,
    events: EventLog,
    breaker_trips: u64,
    widened_interfaces: u64,
    /// The rolling-baseline divergence detector, present under
    /// `--detect`. A detection-off daemon still answers the `alerts` op
    /// (empty list, unmoved cursor) so clients need no capability probe.
    detector: Option<Detector>,
}

/// The span name timing one request's dispatch, by op.
fn op_span_name(req: &Request) -> &'static str {
    match req {
        Request::Status => "api.status",
        Request::Query { .. } => "api.query",
        Request::DeltaKbFlip { .. }
        | Request::DeltaCampaign { .. }
        | Request::DeltaVpStatus { .. } => "api.delta",
        Request::Trace => "api.trace",
        Request::Metrics => "api.metrics",
        Request::Events { .. } => "api.events",
        Request::Alerts { .. } => "api.alerts",
        Request::Shutdown => "api.shutdown",
    }
}

/// `cfs serve`: provision a world, converge a resident session, and
/// answer `cfs-api/1` requests until a `shutdown` arrives.
fn serve_cmd(scale: Scale, seed: Option<u64>, args: &[String]) -> i32 {
    let socket = flag_value(args, "--socket");
    let tcp = flag_value(args, "--tcp");
    let faults = flag_value(args, "--faults");
    let log_path = flag_value(args, "--log");
    let metrics_out = flag_value(args, "--metrics-out");
    let detect = args.iter().any(|a| a == "--detect");
    let campaigns: u64 = match flag_value(args, "--campaigns").map(|c| c.parse::<u64>()) {
        None => 0,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("--campaigns wants a number");
            return 2;
        }
    };
    let window_ms: u64 = match flag_value(args, "--window-ms").map(|w| w.parse::<u64>()) {
        None => 1_000,
        Some(Ok(n)) if n > 0 => n,
        _ => {
            eprintln!("--window-ms wants a positive number");
            return 2;
        }
    };
    let metrics_interval_ns: Option<u64> =
        match flag_value(args, "--metrics-interval").map(|v| v.parse::<u64>()) {
            None => None,
            Some(Ok(n)) if n > 0 => Some(n * 1_000_000),
            _ => {
                eprintln!("--metrics-interval wants a positive number of milliseconds");
                return 2;
            }
        };
    let disrupt: Option<ScheduleIntensity> = match flag_value(args, "--disrupt") {
        None => None,
        Some(p) => match ScheduleIntensity::parse(&p) {
            Some(i) => Some(i),
            None => {
                eprintln!("unknown disruption profile {p:?} (light, default, heavy)");
                return 2;
            }
        },
    };
    let disrupt_seed: Option<u64> = match flag_value(args, "--disrupt-seed").map(|v| v.parse()) {
        None => None,
        Some(Ok(n)) => Some(n),
        Some(Err(_)) => {
            eprintln!("--disrupt-seed wants a number");
            return 2;
        }
    };
    let read_deadline: Option<Duration> =
        match flag_value(args, "--read-deadline-ms").map(|v| v.parse::<u64>()) {
            None => None,
            Some(Ok(n)) if n > 0 => Some(Duration::from_millis(n)),
            _ => {
                eprintln!("--read-deadline-ms wants a positive number");
                return 2;
            }
        };
    let metrics_out = metrics_out.unwrap_or_else(|| "cfs-metrics.json".to_string());
    // Bind before the (slow) world provisioning: early clients connect
    // immediately and their requests queue until the loop starts.
    let bound = match (&socket, &tcp) {
        (Some(path), None) => Server::bind_unix(std::path::Path::new(path)),
        (None, Some(addr)) => Server::bind_tcp(addr),
        _ => {
            eprintln!(
                "usage: cfs serve --socket PATH | --tcp ADDR \
                 [--scale S] [--seed N] [--campaigns N] [--faults P] \
                 [--log FILE] [--window-ms N] \
                 [--metrics-interval MS] [--metrics-out FILE] \
                 [--detect] [--disrupt light|default|heavy] [--disrupt-seed N] \
                 [--read-deadline-ms N]"
            );
            return 2;
        }
    };
    let server = match bound {
        Ok(s) => s.with_read_deadline(read_deadline),
        Err(e) => {
            eprintln!("cfsd: failed to bind: {e}");
            return 1;
        }
    };
    match server.tcp_addr() {
        Some(addr) => println!("cfsd: listening on {addr}"),
        None => println!("cfsd: listening on {}", socket.as_deref().unwrap_or("?")),
    }

    let lab = provision(scale, seed);
    let plan = match &faults {
        Some(spec) => match FaultPlan::named(spec, lab.topo.config.seed) {
            Some(p) => Some(p),
            None => {
                eprintln!(
                    "unknown fault profile {spec:?} (named: off, default, flaky, \
                     blackout, stale-kb, mid-kb-refresh, conflict; compose with `+`)"
                );
                return 2;
            }
        },
        None => None,
    };
    // The daemon's view of the public sources: kb-flip deltas mutate it
    // in place so consecutive flips compose. Under --faults it starts
    // from the chaos-degraded snapshot, exactly like a faulted batch run.
    let mut sources = match &plan {
        Some(p) => degrade_sources(&lab.sources, p),
        None => lab.sources.clone(),
    };
    // The disruption schedule perturbs the measurement plane only: the
    // engine answers probes as if the scheduled elements were dark, and
    // neither the session nor the detector ever sees the event list.
    let schedule: Option<EventSchedule> = disrupt.map(|intensity| {
        let sc =
            ScheduleConfig::at_intensity(disrupt_seed.unwrap_or(lab.topo.config.seed), intensity);
        EventSchedule::generate(&lab.topo, sc)
    });
    if let (Some(i), Some(s)) = (disrupt, &schedule) {
        println!(
            "cfsd: disruption schedule armed: {} events ({} profile, withheld)",
            s.events.len(),
            i.label(),
        );
    }
    let engine_plain;
    let engine_chaos;
    let engine_scheduled;
    let engine_scheduled_chaos;
    let kb_degraded;
    let kb: &KnowledgeBase = match &plan {
        Some(_) => {
            kb_degraded = KnowledgeBase::assemble(&sources, &lab.topo.world);
            &kb_degraded
        }
        None => &lab.kb,
    };
    let engine: &dyn ProbeService = match (plan, schedule) {
        (Some(p), Some(s)) => {
            engine_scheduled_chaos =
                ScheduledEngine::new(ChaosEngine::new(Engine::new(&lab.topo), p), s);
            &engine_scheduled_chaos
        }
        (Some(p), None) => {
            engine_chaos = ChaosEngine::new(Engine::new(&lab.topo), p);
            &engine_chaos
        }
        (None, Some(s)) => {
            engine_scheduled = ScheduledEngine::new(Engine::new(&lab.topo), s);
            &engine_scheduled
        }
        (None, None) => {
            engine_plain = Engine::new(&lab.topo);
            &engine_plain
        }
    };

    // Live telemetry: one real clock shared by the windowed recorder,
    // its inner trace recorder, and the event log. None of this touches
    // the canonical trace — `trace` replies are rebuilt from the report.
    let clock = Arc::new(Monotonic::new());
    let windows = Arc::new(WindowedRecorder::new(
        Arc::new(TraceRecorder::new(clock.clone())),
        clock.clone(),
        window_ms * 1_000_000,
        SERVE_WINDOWS_KEPT,
    ));
    let mut events = EventLog::new(clock.clone(), SERVE_EVENT_CAP);
    if let Some(path) = &log_path {
        match std::fs::File::create(path) {
            Ok(f) => events = events.with_sink(f),
            Err(e) => {
                eprintln!("cfsd: failed to open --log {path}: {e}");
                return 1;
            }
        }
    }

    // The detector names its loci from public knowledge only (the same
    // facility/exchange names the KB publishes); the schedule stays
    // withheld. Its clock is the daemon's clock, so alert `t_ns` values
    // share the timeline of the metrics windows and the event log.
    let mut detector: Option<Detector> = detect.then(|| {
        let names = LocusNames {
            facilities: lab
                .topo
                .facilities
                .iter()
                .map(|(id, f)| (id.raw(), f.name.clone()))
                .collect(),
            ixps: lab
                .topo
                .ixps
                .iter()
                .map(|(id, x)| (id.raw(), x.name.clone()))
                .collect(),
        };
        Detector::new(
            DetectorConfig::default(),
            names,
            clock.clone() as Arc<dyn Clock>,
        )
    });

    let mut session = Cfs::builder(engine, kb)
        .vps(&lab.vps)
        .ipasn(&lab.ipasn)
        .config(service_config())
        .recorder(windows.clone())
        .build_session()
        .expect("serve: CFS dependencies are always set");
    // Summarize each pre-ingested *campaign* before the session consumes
    // it; the detector replays them (in epoch order, against the
    // converged report) so its baselines are as warm as the session's
    // state. The bootstrap batch is deliberately not observed: its
    // archived iPlane/Ark sweeps reach interfaces no periodic campaign
    // revisits, and a baseline seeded from that wider coverage would
    // read every sweep-only facility as a permanent outage.
    let mut pending_obs: Vec<EpochObservation> = Vec::new();
    session.ingest(lab.bootstrap_traces(engine, None));
    for k in 1..=campaigns {
        let traces = serve_campaign(&lab, engine, k);
        if detector.is_some() {
            pending_obs.push(EpochObservation::from_traces(k, &traces));
        }
        session.ingest(traces);
    }
    lab.feed_bgp_sessions(&mut session, None);
    session.converge();
    if let Some(det) = detector.as_mut() {
        let report = session.report().expect("converged above");
        for obs in &pending_obs {
            det.observe(obs, report);
        }
    }
    let (breaker_trips, widened_interfaces) = {
        let report = session.report().expect("converged above");
        println!(
            "cfsd: serving {} interfaces ({} resolved) at epoch {}",
            report.total(),
            report.resolved(),
            session.epoch(),
        );
        events.emit(EventKind::SessionConverged {
            epoch: session.epoch(),
            resolved: report.resolved() as u64,
            total: report.total() as u64,
        });
        let dq = &report.data_quality;
        if dq.vp_breaker_trips > 0 {
            events.emit(EventKind::BreakerTrip {
                trips: dq.vp_breaker_trips,
            });
        }
        if dq.widened_interfaces > 0 {
            events.emit(EventKind::WidenedInterfaces {
                count: dq.widened_interfaces,
            });
        }
        (dq.vp_breaker_trips, dq.widened_interfaces)
    };
    let mut tele = ServeTelemetry {
        windows,
        events,
        breaker_trips,
        widened_interfaces,
        detector,
    };

    // Cadence snapshots of the live window ring: the clock that drives
    // the windows also decides when a snapshot is due, so a request
    // burst writes at most one file per interval and an idle daemon
    // writes none (the loop only runs between requests).
    let mut next_snapshot_ns = metrics_interval_ns.map(|iv| clock.now_ns() + iv);
    let served = server.serve(|req| {
        // Count and time every dispatched request into the windows; the
        // span lands under its op's name (api.query, api.delta, …).
        let op = op_span_name(&req);
        tele.windows.counter("api.requests", 1);
        let start = tele.windows.span_start();
        let out = dispatch(req, &mut session, &lab, engine, &mut sources, &mut tele);
        tele.windows.span_end(op, start);
        if let (Some(iv), Some(due)) = (metrics_interval_ns, next_snapshot_ns.as_mut()) {
            let now = clock.now_ns();
            if now >= *due {
                if let Err(e) = std::fs::write(&metrics_out, tele.windows.render_metrics_json()) {
                    eprintln!("cfsd: failed to write --metrics-out {metrics_out}: {e}");
                }
                // Re-anchor on now, not on `due`: a long gap between
                // requests must not trigger a burst of catch-up writes.
                *due = now + iv;
            }
        }
        out
    });
    match served {
        Ok(()) => {
            println!("cfsd: shutdown");
            0
        }
        Err(e) => {
            eprintln!("cfsd: {e}");
            1
        }
    }
}

/// Answers one well-formed request against the resident session.
fn dispatch(
    req: Request,
    session: &mut CfsSession<'_>,
    lab: &Lab,
    engine: &dyn ProbeService,
    sources: &mut PublicSources,
    tele: &mut ServeTelemetry,
) -> Outcome {
    match req {
        Request::Status => {
            let Some(report) = session.report() else {
                return Outcome::reply(
                    ApiError::new("internal", "session has not converged a report yet")
                        .to_response(),
                );
            };
            Outcome::reply(
                Reply::ok()
                    .str("state", "serving")
                    .u64("epoch", session.epoch())
                    .u64("interfaces", report.total() as u64)
                    .u64("resolved", report.resolved() as u64)
                    .u64("links", report.links.len() as u64)
                    .finish(),
            )
        }
        Request::Query { iface } => Outcome::reply(answer_query(&iface, session, lab)),
        Request::Trace => Outcome::reply(Reply::ok().raw("trace", &session.trace_json()).finish()),
        Request::Metrics => Outcome::reply(
            Reply::ok()
                .raw("metrics", &tele.windows.render_metrics_json())
                .finish(),
        ),
        Request::Events {
            since,
            min_severity,
        } => {
            // The parser pinned the vocabulary, so an unknown label here
            // is unreachable; default to the lowest floor regardless.
            let floor = match min_severity.as_deref() {
                Some("error") => cfs::obs::Severity::Error,
                Some("warn") => cfs::obs::Severity::Warn,
                _ => cfs::obs::Severity::Info,
            };
            let (drained, next) = tele.events.since(since);
            let mut arr = String::from("[");
            let mut first = true;
            for e in &drained {
                if e.kind.severity() < floor {
                    continue; // filtered, but `next` still advances past it
                }
                if !first {
                    arr.push(',');
                }
                first = false;
                arr.push_str(&e.render_json());
            }
            arr.push(']');
            Outcome::reply(Reply::ok().u64("next", next).raw("events", &arr).finish())
        }
        Request::Alerts {
            since,
            min_severity,
        } => {
            let floor = match min_severity.as_deref() {
                Some("error") => cfs::obs::Severity::Error,
                Some("warn") => cfs::obs::Severity::Warn,
                _ => cfs::obs::Severity::Info,
            };
            // Detection off: an empty list with an unmoved cursor, so
            // pollers need no capability probe and lose nothing if the
            // daemon is later restarted with --detect.
            let Some(det) = tele.detector.as_ref() else {
                return Outcome::reply(Reply::ok().u64("next", since).raw("alerts", "[]").finish());
            };
            let (drained, next) = det.alerts().since(since);
            let mut arr = String::from("[");
            let mut first = true;
            for a in &drained {
                if a.severity < floor {
                    continue; // filtered, but `next` still advances past it
                }
                if !first {
                    arr.push(',');
                }
                first = false;
                arr.push_str(&a.render_json());
            }
            arr.push(']');
            Outcome::reply(Reply::ok().u64("next", next).raw("alerts", &arr).finish())
        }
        Request::Shutdown => Outcome::last(
            Reply::ok()
                .str("state", "stopping")
                .u64("epoch", session.epoch())
                .finish(),
        ),
        Request::DeltaCampaign { campaign } => {
            if campaign == 0 {
                return Outcome::reply(
                    ApiError::new(
                        "bad_delta",
                        "campaign numbers start at 1 (0 is the bootstrap campaign)",
                    )
                    .to_response(),
                );
            }
            let traces = serve_campaign(lab, engine, campaign);
            // Summarize the raw batch before apply_delta consumes it:
            // per-epoch visibility comes from what this batch actually
            // saw, not from the session's cumulative state.
            let obs = tele
                .detector
                .as_ref()
                .map(|_| EpochObservation::from_traces(campaign, &traces));
            let result = session.apply_delta(Delta::TracerouteBatch(traces));
            if result.is_ok() {
                if let (Some(det), Some(obs)) = (tele.detector.as_mut(), obs.as_ref()) {
                    if let Some(report) = session.report() {
                        let emitted = det.observe(obs, report);
                        tele.windows.counter("detect.alerts", emitted.len() as u64);
                    }
                }
            }
            delta_reply("campaign", result, session, tele)
        }
        Request::DeltaKbFlip {
            asn,
            facility,
            present,
        } => {
            let target = Asn(asn);
            let facility = FacilityId::new(facility);
            if facility.raw() as usize >= lab.topo.facilities.len() {
                return Outcome::reply(
                    ApiError::new("bad_delta", format!("no such facility: {facility}"))
                        .to_response(),
                );
            }
            let Some(rec) = sources.pdb_networks.get_mut(&target) else {
                return Outcome::reply(
                    ApiError::new(
                        "bad_delta",
                        format!("{target} has no PeeringDB record in this world"),
                    )
                    .to_response(),
                );
            };
            // The assembled AS footprint is pdb ∪ NOC, so a flip must
            // touch both sources or the merged footprint never changes.
            rec.facilities.retain(|f| *f != facility);
            if present {
                rec.facilities.push(facility);
                rec.facilities.sort_unstable();
            }
            if let Some(page) = sources.noc_pages.get_mut(&target) {
                page.facilities.retain(|f| *f != facility);
                if present {
                    page.facilities.push(facility);
                    page.facilities.sort_unstable();
                }
            }
            let kb2 = KnowledgeBase::assemble(sources, &lab.topo.world);
            let result = session.apply_delta(Delta::KbEpochFlip(Arc::new(kb2)));
            if result.is_ok() {
                tele.events.emit(EventKind::KbFlip {
                    asn,
                    facility: facility.raw(),
                    present,
                });
            }
            delta_reply("kb-flip", result, session, tele)
        }
        Request::DeltaVpStatus { vp, up } => {
            let vp = cfs::types::VantagePointId::new(vp);
            if !lab.vps.ids().any(|i| i == vp) {
                return Outcome::reply(
                    ApiError::new("bad_delta", format!("no such vantage point: {vp}"))
                        .to_response(),
                );
            }
            let result = session.apply_delta(Delta::VpStatusChange { vp, up });
            delta_reply("vp-status", result, session, tele)
        }
    }
}

/// Renders a `DeltaOutcome` (or the engine's refusal) as a response,
/// and logs the applied delta — plus any data-quality regressions the
/// re-convergence surfaced — into the daemon's event stream.
fn delta_reply(
    kind: &'static str,
    result: cfs::types::Result<DeltaOutcome>,
    session: &CfsSession<'_>,
    tele: &mut ServeTelemetry,
) -> Outcome {
    match result {
        Ok(o) => {
            tele.events.emit(EventKind::DeltaApplied {
                kind,
                epoch: o.epoch,
                dirty: o.dirty as u64,
                reconverged: o.reconverged as u64,
            });
            tele.windows.counter("serve.dirty_ifaces", o.dirty as u64);
            tele.windows
                .counter("serve.reconverged", o.reconverged as u64);
            if let Some(report) = session.report() {
                let dq = &report.data_quality;
                if dq.vp_breaker_trips > tele.breaker_trips {
                    tele.events.emit(EventKind::BreakerTrip {
                        trips: dq.vp_breaker_trips - tele.breaker_trips,
                    });
                    tele.breaker_trips = dq.vp_breaker_trips;
                }
                if dq.widened_interfaces > tele.widened_interfaces {
                    tele.events.emit(EventKind::WidenedInterfaces {
                        count: dq.widened_interfaces - tele.widened_interfaces,
                    });
                    tele.widened_interfaces = dq.widened_interfaces;
                }
            }
            Outcome::reply(
                Reply::ok()
                    .u64("epoch", o.epoch)
                    .u64("dirty", o.dirty as u64)
                    .u64("reconverged", o.reconverged as u64)
                    .u64("total", o.total as u64)
                    .finish(),
            )
        }
        Err(e) => Outcome::reply(ApiError::new("internal", e.to_string()).to_response()),
    }
}

/// Answers a `query` op: `bad_iface` when the address does not parse,
/// `unknown_iface` when the session never observed it, otherwise the
/// facility/method/confidence verdict from the cached report.
fn answer_query(iface: &str, session: &CfsSession<'_>, lab: &Lab) -> String {
    let Ok(ip) = iface.parse::<Ipv4Addr>() else {
        return ApiError::new("bad_iface", format!("not an IPv4 address: {iface:?}")).to_response();
    };
    let tracked = session
        .report()
        .is_some_and(|r| r.interfaces.contains_key(&ip));
    if !tracked {
        return ApiError::new(
            "unknown_iface",
            format!("{ip} was never observed by this session"),
        )
        .to_response();
    }
    let a = session.query(ip);
    Reply::ok()
        .str("iface", &ip.to_string())
        .opt_u64("owner", a.owner.map(|x| u64::from(x.raw())))
        .opt_str(
            "facility",
            a.facility
                .and_then(|f| lab.topo.facilities.get(f))
                .map(|fac| fac.name.as_str()),
        )
        .opt_str(
            "metro",
            a.metro.map(|m| lab.topo.world.metro(m).name.as_str()),
        )
        .u64("candidates", a.candidates as u64)
        .str("outcome", &format!("{:?}", a.outcome))
        .str("method", a.method)
        .f64("confidence", a.confidence)
        .u64("epoch", a.epoch)
        .finish()
}

/// `cfs query`: one request/response roundtrip against a running daemon.
/// Exit 0 on an `ok:true` response, 2 on usage errors, 3 on transport
/// failures, 4 when the daemon answers with a typed error.
fn query_cmd(args: &[String]) -> i32 {
    let socket = flag_value(args, "--socket");
    let tcp = flag_value(args, "--tcp");
    let usage = "usage: cfs query --socket PATH | --tcp ADDR \
                 <ip>|status|trace|shutdown [--raw JSON] [--out FILE]";
    let endpoint = match (&socket, &tcp) {
        (Some(p), None) => Endpoint::Unix(std::path::PathBuf::from(p)),
        (None, Some(a)) => Endpoint::Tcp(a.clone()),
        _ => {
            eprintln!("{usage}");
            return 2;
        }
    };
    let request = match flag_value(args, "--raw") {
        Some(line) => line,
        None => {
            // First non-flag token after the command is the subject.
            let mut subject = None;
            let mut i = 2;
            while i < args.len() {
                if args[i].starts_with("--") {
                    i += 2; // every query flag takes a value
                } else {
                    subject = Some(args[i].as_str());
                    break;
                }
            }
            match subject {
                Some("status") => {
                    format!("{{\"schema\":\"{}\",\"op\":\"status\"}}", cfs::svc::SCHEMA)
                }
                Some("trace") => {
                    format!("{{\"schema\":\"{}\",\"op\":\"trace\"}}", cfs::svc::SCHEMA)
                }
                Some("shutdown") => {
                    format!(
                        "{{\"schema\":\"{}\",\"op\":\"shutdown\"}}",
                        cfs::svc::SCHEMA
                    )
                }
                Some(ip) => format!(
                    "{{\"schema\":\"{}\",\"op\":\"query\",\"iface\":\"{ip}\"}}",
                    cfs::svc::SCHEMA
                ),
                None => {
                    eprintln!("{usage}");
                    return 2;
                }
            }
        }
    };

    let mut client = match Client::connect(&endpoint) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("failed to connect: {e}");
            return 3;
        }
    };
    let response = match client.roundtrip(&request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("transport error: {e}");
            return 3;
        }
    };
    let ok = serde_json::from_str::<serde_json::Value>(&response)
        .ok()
        .and_then(|v| v.get("ok")?.as_bool())
        == Some(true);
    // A trace reply wraps a complete cfs-trace/1 document; peel the
    // envelope so --out writes something `cfs check`/trace-diff accept
    // byte-for-byte (the inner digest must not shift).
    let trace_prefix = format!(
        "{{\"schema\":\"{}\",\"ok\":true,\"trace\":",
        cfs::svc::SCHEMA
    );
    let payload = if ok {
        response
            .strip_prefix(trace_prefix.as_str())
            .and_then(|r| r.strip_suffix('}'))
            .unwrap_or(&response)
            .to_string()
    } else {
        response.clone()
    };
    match flag_value(args, "--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &payload) {
                eprintln!("failed to write {path}: {e}");
                return 1;
            }
            println!("wrote response payload to {path}");
        }
        None => println!("{payload}"),
    }
    if ok {
        0
    } else {
        4
    }
}

/// Resolves the `--socket`/`--tcp` pair every daemon-client command
/// shares; prints `usage` and returns `None` when neither (or both)
/// is given.
fn client_endpoint(args: &[String], usage: &str) -> Option<Endpoint> {
    let socket = flag_value(args, "--socket");
    let tcp = flag_value(args, "--tcp");
    match (socket, tcp) {
        (Some(p), None) => Some(Endpoint::Unix(std::path::PathBuf::from(p))),
        (None, Some(a)) => Some(Endpoint::Tcp(a)),
        _ => {
            eprintln!("{usage}");
            None
        }
    }
}

/// `cfs metrics`: fetch a live daemon's `cfs-metrics/1` snapshot and
/// print a human summary (default), the raw document (`--json`), or
/// save it (`--out FILE`). Exit 0 ok, 2 usage, 3 transport, 4 when the
/// daemon answers with an error or an unparseable snapshot.
fn metrics_cmd(args: &[String]) -> i32 {
    let usage = "usage: cfs metrics --socket PATH | --tcp ADDR [--json] [--out FILE]";
    let Some(endpoint) = client_endpoint(args, usage) else {
        return 2;
    };
    let request = format!("{{\"schema\":\"{}\",\"op\":\"metrics\"}}", cfs::svc::SCHEMA);
    let mut client = match Client::connect(&endpoint) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("failed to connect: {e}");
            return 3;
        }
    };
    let response = match client.roundtrip(&request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("transport error: {e}");
            return 3;
        }
    };
    // Peel the cfs-api/1 envelope so what we print or save is a complete
    // cfs-metrics/1 document that `cfs check` accepts byte-for-byte.
    let prefix = format!(
        "{{\"schema\":\"{}\",\"ok\":true,\"metrics\":",
        cfs::svc::SCHEMA
    );
    let doc = match response
        .strip_prefix(prefix.as_str())
        .and_then(|r| r.strip_suffix('}'))
    {
        Some(d) => d,
        None => {
            eprintln!("{response}");
            return 4;
        }
    };
    if let Some(path) = flag_value(args, "--out") {
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("failed to write {path}: {e}");
            return 1;
        }
        println!("wrote metrics snapshot to {path}");
        return 0;
    }
    if args.iter().any(|a| a == "--json") {
        println!("{doc}");
        return 0;
    }
    match MetricsDoc::parse(doc) {
        Ok(parsed) => {
            print!("{}", render_metrics_summary(&parsed));
            0
        }
        Err(e) => {
            eprintln!("daemon returned an unparseable snapshot: {e}");
            4
        }
    }
}

/// Renders the human `cfs metrics` summary: uptime, request volume and
/// rate over the retained windows, per-op latency quantiles from the
/// totals block, and the delta-churn counters (including campaign
/// deltas that fell back to re-extracting the whole trace corpus).
fn render_metrics_summary(doc: &MetricsDoc) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let total = |name: &str| doc.totals.counters.get(name).copied().unwrap_or(0);
    let mut out = format!(
        "uptime       {:.1}s · {} windows of {}ms retained\n",
        doc.uptime_ns as f64 / 1e9,
        doc.windows.len(),
        doc.window_ns / 1_000_000,
    );
    let requests = total("api.requests");
    let span_s = (doc.windows.len() as u64).saturating_mul(doc.window_ns) as f64 / 1e9;
    let rate = if span_s > 0.0 {
        requests as f64 / span_s
    } else {
        0.0
    };
    out.push_str(&format!(
        "requests     {requests} ({rate:.1}/s over retained windows)\n"
    ));
    let ops: Vec<_> = doc
        .totals
        .durations
        .iter()
        .filter(|(name, _)| name.starts_with("api."))
        .collect();
    if !ops.is_empty() {
        out.push_str("per-op latency (count · p50 / p99):\n");
        for (name, d) in ops {
            out.push_str(&format!(
                "  {:<14} {:>6} · {:.3}ms / {:.3}ms\n",
                &name["api.".len()..],
                d.count,
                ms(d.quantile_ns(50)),
                ms(d.quantile_ns(99)),
            ));
        }
    }
    out.push_str(&format!(
        "delta churn  {} interfaces dirtied, {} reconverged, {} campaigns re-extracted the corpus\n",
        total("serve.dirty_ifaces"),
        total("serve.reconverged"),
        total("serve.extract_rebuild"),
    ));
    out
}

/// One human-readable line for a drained `cfs-log/1` event, rendered
/// client-side from its JSON form: `[severity] kind key=value …`.
fn event_line(e: &serde_json::Value) -> String {
    let severity = e.get("severity").and_then(|v| v.as_str()).unwrap_or("?");
    let kind = e.get("event").and_then(|v| v.as_str()).unwrap_or("?");
    let mut line = format!("[{severity}] {kind}");
    if let Some(obj) = e.as_object() {
        for (k, v) in obj.iter() {
            if matches!(k.as_str(), "schema" | "seq" | "t_ns" | "severity" | "event") {
                continue;
            }
            // Event payload members are scalars: string, integer, bool.
            let rendered = v
                .as_str()
                .map(str::to_string)
                .or_else(|| v.as_u64().map(|n| n.to_string()))
                .or_else(|| v.as_bool().map(|b| b.to_string()))
                .unwrap_or_else(|| "?".into());
            line.push_str(&format!(" {k}={rendered}"));
        }
    }
    line
}

/// One human-readable line for a drained `cfs-alerts/1` record,
/// rendered client-side from its JSON form (mirrors
/// `Alert::render_text` on the daemon side).
fn alert_line(a: &serde_json::Value) -> String {
    let s = |k: &str| a.get(k).and_then(|v| v.as_str());
    let n = |k: &str| a.get(k).and_then(|v| v.as_u64());
    let mut locus = String::new();
    if let Some(f) = s("facility") {
        locus.push_str(&format!(" facility={f}"));
    }
    if let Some(x) = s("ixp") {
        locus.push_str(&format!(" ixp={x}"));
    }
    format!(
        "[{}] #{:<4} epoch={} {}{} observed={}pm baseline={}pm score={}pm support={}",
        s("severity").unwrap_or("?"),
        n("seq").unwrap_or(0),
        n("epoch").unwrap_or(0),
        s("kind").unwrap_or("?"),
        locus,
        n("observed_pm").unwrap_or(0),
        n("baseline_pm").unwrap_or(0),
        n("score_pm").unwrap_or(0),
        n("support").unwrap_or(0),
    )
}

/// `cfs watch`: drain `cfs-alerts/1` records from a live daemon by
/// cursor — nothing is shown twice. One drain by default; `--follow`
/// keeps polling every `--interval-ms` (until `--polls N`, 0 = forever).
/// `--json` prints the records as JSON lines; `--out FILE` writes them
/// as JSON lines regardless (the file is a `cfs-alerts/1` export that
/// `cfs check` accepts). Exit 0 ok, 2 usage, 3 transport,
/// 4 daemon error.
fn watch_cmd(args: &[String]) -> i32 {
    use std::io::Write as _;
    let usage = "usage: cfs watch --socket PATH | --tcp ADDR [--json] [--out FILE] \
                 [--follow] [--interval-ms N] [--polls N] [--min-severity warn|error]";
    let Some(endpoint) = client_endpoint(args, usage) else {
        return 2;
    };
    let json = args.iter().any(|a| a == "--json");
    let follow = args.iter().any(|a| a == "--follow");
    let interval_ms: u64 = match flag_value(args, "--interval-ms").map(|v| v.parse::<u64>()) {
        None => 1_000,
        Some(Ok(n)) if n > 0 => n,
        _ => {
            eprintln!("--interval-ms wants a positive number");
            return 2;
        }
    };
    let polls: u64 = match flag_value(args, "--polls").map(|v| v.parse::<u64>()) {
        None => {
            if follow {
                0
            } else {
                1
            }
        }
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("--polls wants a number");
            return 2;
        }
    };
    let min_severity = flag_value(args, "--min-severity");
    if let Some(s) = &min_severity {
        if !matches!(s.as_str(), "info" | "warn" | "error") {
            eprintln!("--min-severity wants info, warn, or error");
            return 2;
        }
    }
    let mut out_file = match flag_value(args, "--out") {
        Some(p) => match std::fs::File::create(&p) {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("failed to open --out {p}: {e}");
                return 1;
            }
        },
        None => None,
    };
    let mut client = match Client::connect(&endpoint) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("failed to connect: {e}");
            return 3;
        }
    };
    let floor = min_severity
        .as_ref()
        .map(|s| format!(",\"min_severity\":\"{s}\""))
        .unwrap_or_default();
    let mut cursor: u64 = 0;
    let mut drained: u64 = 0;
    let mut poll: u64 = 0;
    loop {
        if poll > 0 {
            pace(Duration::from_millis(interval_ms));
        }
        poll += 1;
        let request = format!(
            "{{\"schema\":\"{}\",\"op\":\"alerts\",\"since\":{cursor}{floor}}}",
            cfs::svc::SCHEMA
        );
        let response = match client.roundtrip(&request) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("transport error: {e}");
                return 3;
            }
        };
        let v = match serde_json::from_str::<serde_json::Value>(&response) {
            Ok(v) if v.get("ok").and_then(|o| o.as_bool()) == Some(true) => v,
            _ => {
                eprintln!("{response}");
                return 4;
            }
        };
        if let Some(next) = v.get("next").and_then(|n| n.as_u64()) {
            cursor = next;
        }
        for a in v
            .get("alerts")
            .and_then(|x| x.as_array())
            .into_iter()
            .flatten()
        {
            drained += 1;
            let record = serde_json::to_string(a).unwrap_or_default();
            if let Some(f) = out_file.as_mut() {
                if let Err(e) = writeln!(f, "{record}") {
                    eprintln!("failed to write --out: {e}");
                    return 1;
                }
            }
            if json {
                println!("{record}");
            } else {
                println!("{}", alert_line(a));
            }
        }
        if polls > 0 && poll >= polls {
            if !json {
                eprintln!("drained {drained} alerts (cursor {cursor})");
            }
            return 0;
        }
    }
}

/// `cfs top`: a polling terminal dashboard over a live daemon — request
/// rate since the previous poll, per-op latency, delta churn, and the
/// most recent events (drained with a cursor so nothing is shown twice).
/// Exit 0 after `--polls N` polls (0 = run until interrupted), 2 usage,
/// 3 transport, 4 daemon error.
fn top_cmd(args: &[String]) -> i32 {
    let usage = "usage: cfs top --socket PATH | --tcp ADDR [--interval-ms N] [--polls N]";
    let Some(endpoint) = client_endpoint(args, usage) else {
        return 2;
    };
    let interval_ms: u64 = match flag_value(args, "--interval-ms").map(|v| v.parse::<u64>()) {
        None => 1_000,
        Some(Ok(n)) if n > 0 => n,
        _ => {
            eprintln!("--interval-ms wants a positive number");
            return 2;
        }
    };
    let polls: u64 = match flag_value(args, "--polls").map(|v| v.parse::<u64>()) {
        None => 0,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("--polls wants a number");
            return 2;
        }
    };
    let mut client = match Client::connect(&endpoint) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("failed to connect: {e}");
            return 3;
        }
    };
    let metrics_req = format!("{{\"schema\":\"{}\",\"op\":\"metrics\"}}", cfs::svc::SCHEMA);
    let metrics_prefix = format!(
        "{{\"schema\":\"{}\",\"ok\":true,\"metrics\":",
        cfs::svc::SCHEMA
    );
    let mut cursor: u64 = 0;
    let mut alert_cursor: u64 = 0;
    let mut last_requests: Option<u64> = None;
    let mut recent: Vec<String> = Vec::new();
    let mut recent_alerts: Vec<String> = Vec::new();
    let mut poll: u64 = 0;
    loop {
        if poll > 0 {
            pace(Duration::from_millis(interval_ms));
        }
        poll += 1;
        let response = match client.roundtrip(&metrics_req) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("transport error: {e}");
                return 3;
            }
        };
        let doc = match response
            .strip_prefix(metrics_prefix.as_str())
            .and_then(|r| r.strip_suffix('}'))
            .map(MetricsDoc::parse)
        {
            Some(Ok(d)) => d,
            _ => {
                eprintln!("{response}");
                return 4;
            }
        };
        let events_req = format!(
            "{{\"schema\":\"{}\",\"op\":\"events\",\"since\":{cursor}}}",
            cfs::svc::SCHEMA
        );
        let ev_response = match client.roundtrip(&events_req) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("transport error: {e}");
                return 3;
            }
        };
        match serde_json::from_str::<serde_json::Value>(&ev_response) {
            Ok(v) if v.get("ok").and_then(|o| o.as_bool()) == Some(true) => {
                if let Some(next) = v.get("next").and_then(|n| n.as_u64()) {
                    cursor = next;
                }
                for e in v
                    .get("events")
                    .and_then(|e| e.as_array())
                    .into_iter()
                    .flatten()
                {
                    recent.push(event_line(e));
                }
                let overflow = recent.len().saturating_sub(8);
                recent.drain(..overflow);
            }
            _ => {
                eprintln!("{ev_response}");
                return 4;
            }
        }
        // Alerts drain: a detection-off daemon answers an empty list
        // with an unmoved cursor, so this is always safe to poll.
        let alerts_req = format!(
            "{{\"schema\":\"{}\",\"op\":\"alerts\",\"since\":{alert_cursor}}}",
            cfs::svc::SCHEMA
        );
        let al_response = match client.roundtrip(&alerts_req) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("transport error: {e}");
                return 3;
            }
        };
        match serde_json::from_str::<serde_json::Value>(&al_response) {
            Ok(v) if v.get("ok").and_then(|o| o.as_bool()) == Some(true) => {
                if let Some(next) = v.get("next").and_then(|n| n.as_u64()) {
                    alert_cursor = next;
                }
                for a in v
                    .get("alerts")
                    .and_then(|x| x.as_array())
                    .into_iter()
                    .flatten()
                {
                    recent_alerts.push(alert_line(a));
                }
                let overflow = recent_alerts.len().saturating_sub(8);
                recent_alerts.drain(..overflow);
            }
            _ => {
                eprintln!("{al_response}");
                return 4;
            }
        }

        // Repaint: clear between polls, never before the first frame, so
        // a failed connect leaves the terminal untouched.
        if poll > 1 {
            print!("\x1b[2J\x1b[H");
        }
        let requests = doc
            .totals
            .counters
            .get("api.requests")
            .copied()
            .unwrap_or(0);
        let delta = requests.saturating_sub(last_requests.unwrap_or(requests));
        last_requests = Some(requests);
        let poll_rate = delta as f64 / (interval_ms as f64 / 1e3);
        println!("cfs top · poll {poll} · {poll_rate:.1} req/s since last poll");
        print!("{}", render_metrics_summary(&doc));
        if !recent.is_empty() {
            println!("recent events:");
            for line in &recent {
                println!("  {line}");
            }
        }
        if !recent_alerts.is_empty() {
            println!("recent alerts:");
            for line in &recent_alerts {
                println!("  {line}");
            }
        }
        if polls > 0 && poll >= polls {
            return 0;
        }
    }
}
