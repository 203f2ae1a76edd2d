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
//! cfs check    <file>                             # validate a trace/profile/metrics/alerts export
//! cfs profile  <file> [--top N] [--folded]        # render a --profile-json export
//! cfs trace-diff <a> <b> [--json]                 # compare two exports
//!              [--tolerance-pct N]                #   (trace or profile pairs)
//!              [--baseline-dir DIR]               #   golden picked by run shape
//! cfs serve    --socket PATH | --tcp ADDR         # resident cfsd daemon
//!              [--scale S] [--seed N]             #   speaking cfs-api/1
//!              [--campaigns N] [--faults P]       #   + pre-ingested campaigns / chaos
//!              [--log FILE] [--window-ms N]       #   + event sink / metrics windows
//!              [--detect] [--disrupt P]           #   + divergence detector / scheduled
//!                                                 #     disruption epochs (withheld)
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
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use cfs::core::{InferredInterface, InferredLink};
use cfs::daemon::{Daemon, DaemonOptions};
use cfs::detect::{validate_alerts, ALERTS_SCHEMA};
use cfs::obs::{
    pace, MetricsDoc, Monotonic, ProfileDoc, TraceRecorder, METRICS_SCHEMA, PROFILE_SCHEMA,
    TRACE_SCHEMA,
};
use cfs::prelude::*;
use cfs::topology::{EventSchedule, ScheduleConfig, ScheduleIntensity};
use cfs_experiments::{Lab, Scale, Substrate};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let command = args.get(1).map(String::as_str).unwrap_or("help");
    let (scale, seed) =
        parse_flags(&args[2.min(args.len())..]).unwrap_or_else(|code| std::process::exit(code));
    // Every value read here is read before any command starts.
    let flag = |name: &str| flag_value(&args, name).unwrap_or_else(|code| std::process::exit(code));

    let code = match command {
        "world" => world(scale, seed),
        "snapshot" => snapshot(scale, seed, flag("--out")),
        "run" => run_cmd(
            scale,
            seed,
            flag("--out"),
            flag("--sources"),
            flag("--trace-json"),
            flag("--profile-json"),
            args.iter().any(|a| a == "--metrics"),
            flag("--faults"),
        ),
        "audit" => audit(
            scale,
            seed,
            args.get(2).and_then(|s| s.parse().ok()),
            flag("--faults"),
        ),
        "census" => census(scale, seed),
        "validate" => validate(scale, seed),
        "check" => check_cmd(args.get(2).map(String::as_str)),
        "profile" => profile_cmd(
            args.get(2).map(String::as_str),
            &args,
            args.iter().any(|a| a == "--folded"),
        ),
        "trace-diff" => {
            let pos = positionals(&args, &["--json"]);
            trace_diff(
                pos.first().copied(),
                pos.get(1).copied(),
                args.iter().any(|a| a == "--json"),
                &args,
                flag("--baseline-dir"),
            )
        }
        "serve" => exit_code(serve_cmd(scale, seed, &args)),
        "kb-diff" => kb_diff(
            scale,
            seed,
            positionals(&args, &[]).first().copied().map(String::from),
            positionals(&args, &[]).get(1).copied().map(String::from),
        ),
        "query" => exit_code(query_cmd(&args)),
        "metrics" => exit_code(metrics_cmd(&args)),
        "watch" => exit_code(watch_cmd(&args)),
        "top" => exit_code(top_cmd(&args)),
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
         \x20            sidecar (cfs-profile/2; never part of the trace digest);\n\
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
         \x20            cfs-trace/1 (digest + structure), cfs-profile/2 (call-path\n\
         \x20            tree), cfs-metrics/1 (window/totals integrity) or\n\
         \x20            cfs-alerts/1 (vocabulary, cursor monotonicity);\n\
         \x20            exit 0 valid, 1 invalid, 2 usage\n\
         \x20 profile FILE [--top N]  call-path tree + bottlenecks of a profile export\n\
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
         \x20            metrics window width (default 1000); --detect runs\n\
         \x20            the rolling-baseline divergence detector over campaign\n\
         \x20            deltas (alerts op, cfs watch); --disrupt P replays a\n\
         \x20            disruption schedule (light|default|heavy) seeded by\n\
         \x20            the world seed against the measurement plane;\n\
         \x20            --read-deadline-ms N drops connections that stall\n\
         \x20            mid-request-line\n\
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

/// The `--scale` and `--seed` every command takes: exit 2 naming the
/// flag when a value is missing, not a scale label, or not a number.
fn parse_flags(args: &[String]) -> Result<(Scale, Option<u64>), i32> {
    let scale = match flag_value(args, "--scale")? {
        None => Scale::Default,
        Some(label) => Scale::parse(&label).ok_or_else(|| {
            eprintln!("--scale wants tiny, default or paper, got {label:?}");
            2
        })?,
    };
    Ok((scale, num_flag(args, "--seed", false)?))
}

/// The value after the last occurrence of flag `name` (a repeated flag
/// is overridden by its last use): `None` when the flag is absent. A
/// flag with nothing after it, or with another `--flag` where its value
/// belongs, is exit 2 after a usage message rather than a run without
/// the value (or with the next flag's name as a file name).
fn flag_value(args: &[String], name: &str) -> Result<Option<String>, i32> {
    let Some(at) = args.iter().rposition(|a| a == name) else {
        return Ok(None);
    };
    match args.get(at + 1) {
        Some(value) if !value.starts_with("--") => Ok(Some(value.clone())),
        next => {
            let got = next.map_or(String::from("nothing"), |v| format!("{v:?}"));
            eprintln!("{name} wants a value, got {got} (see `cfs help`)");
            Err(2)
        }
    }
}

/// The exit code of a command that reports failure as `Err(code)`.
fn exit_code(result: Result<(), i32>) -> i32 {
    result.err().unwrap_or(0)
}

/// The numeric value of flag `name`: `None` when absent; exit 2 (after
/// saying why) when it does not parse, or is zero where `positive`
/// asks for more.
fn num_flag<T: std::str::FromStr + Default + PartialEq>(
    args: &[String],
    name: &str,
    positive: bool,
) -> Result<Option<T>, i32> {
    let Some(raw) = flag_value(args, name)? else {
        return Ok(None);
    };
    match raw.parse::<T>() {
        Ok(n) if !(positive && n == T::default()) => Ok(Some(n)),
        _ => {
            let what = if positive {
                "a positive number"
            } else {
                "a number"
            };
            eprintln!("{name} wants {what}, got {raw:?}");
            Err(2)
        }
    }
}

/// The fault plan `--faults` names, if any; an unknown profile is
/// exit 2.
fn fault_plan(spec: Option<&str>, seed: u64) -> Result<Option<FaultPlan>, i32> {
    let Some(spec) = spec else {
        return Ok(None);
    };
    match FaultPlan::named(spec, seed) {
        Some(p) => Ok(Some(p)),
        None => {
            eprintln!(
                "unknown fault profile {spec:?} (named: off, default, flaky, \
                 blackout, stale-kb, mid-kb-refresh, conflict; compose with `+`)"
            );
            Err(2)
        }
    }
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
    let mut lab =
        Lab::provision_with_sources(scale, seed, sources).expect("world generation failed");
    let plan = match fault_plan(faults.as_deref(), lab.topo.config.seed) {
        Ok(p) => p,
        Err(code) => return code,
    };
    // Attach a recorder only when somebody will read it; otherwise the
    // pipeline keeps its free no-op instrumentation.
    let recorder = (trace_json.is_some() || profile_json.is_some() || metrics)
        .then(|| Arc::new(TraceRecorder::new(Arc::new(Monotonic::new()))));
    if let Some(rec) = &recorder {
        lab.recorder = rec.clone();
    }
    let report = lab.run_cfs(plan, None, CfsConfig::default());
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
        let written = std::fs::File::create(&path).and_then(|file| {
            let mut w = std::io::BufWriter::new(file);
            write_map(&mut w, scale, &report, &lab)?;
            w.flush()
        });
        match written {
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

/// The `generator` member of the `cfs run --out` map.
const GENERATOR: &str = "cfs (constrained facility search reproduction)";

/// One interface row of the `cfs run --out` map.
fn interface_row(i: &InferredInterface, lab: &Lab) -> serde_json::Value {
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
}

/// One interconnection row of the `cfs run --out` map.
fn link_row(l: &InferredLink, lab: &Lab) -> serde_json::Value {
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
}

/// Writes the public dataset the paper publishes, every inferred
/// interface and interconnection, one row at a time: the bytes
/// `serde_json::to_string_pretty` renders the whole document into,
/// without holding the document or its text.
fn write_map(
    w: &mut impl Write,
    scale: Scale,
    report: &CfsReport,
    lab: &Lab,
) -> std::io::Result<()> {
    let quoted =
        |s: &str| serde_json::to_string(s).map_err(|e| std::io::Error::other(e.to_string()));
    let (generator, scale) = (quoted(GENERATOR)?, quoted(scale.label())?);
    write!(
        w,
        "{{\n  \"generator\": {generator},\n  \"scale\": {scale},\n"
    )?;
    let interfaces = report.interfaces.values().map(|i| interface_row(i, lab));
    write_rows(w, "interfaces", interfaces)?;
    w.write_all(b",\n")?;
    let links = report.links.iter().map(|l| link_row(l, lab));
    write_rows(w, "interconnections", links)?;
    w.write_all(b"\n}")
}

/// Writes one member of the map, an array of rows, as the pretty printer
/// lays it out one level deep: each row's own rendering, indented twice.
fn write_rows(
    w: &mut impl Write,
    name: &str,
    rows: impl Iterator<Item = serde_json::Value>,
) -> std::io::Result<()> {
    write!(w, "  \"{name}\": [")?;
    let mut empty = true;
    for row in rows {
        w.write_all(if empty { b"\n    " } else { b",\n    " })?;
        empty = false;
        let text =
            serde_json::to_string_pretty(&row).map_err(|e| std::io::Error::other(e.to_string()))?;
        w.write_all(text.replace('\n', "\n    ").as_bytes())?;
    }
    w.write_all(if empty { b"]" } else { b"\n  ]" })
}

/// Renders a `cfs-profile/2` export as its call-path tree with
/// total/self time and a top-N bottleneck table — or, with `--folded`, as
/// folded-stack lines ready for flamegraph collapse tooling.
fn profile_cmd(path: Option<&str>, args: &[String], folded: bool) -> i32 {
    let Some(path) = path else {
        eprintln!("usage: cfs profile FILE [--top N] [--folded]");
        return 2;
    };
    let top_n = match num_flag(args, "--top", false) {
        Ok(n) => n.unwrap_or(5),
        Err(code) => return code,
    };
    let raw = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to read {path}: {e}");
            return 1;
        }
    };
    match ProfileDoc::parse(&raw) {
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
    args: &[String],
    baseline_dir: Option<String>,
) -> i32 {
    let tolerance_pct = match num_flag(args, "--tolerance-pct", false) {
        Ok(n) => n.unwrap_or(25),
        Err(code) => return code,
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
/// `schema` member of its first line — a `cfs-trace/1` trace, a
/// `cfs-profile/2` sidecar or a `cfs-metrics/1` snapshot (single-line
/// documents), or a
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
            Some(PROFILE_SCHEMA) => match ProfileDoc::parse(&raw) {
                Ok(_) => (PROFILE_SCHEMA, Vec::new()),
                Err(e) => (PROFILE_SCHEMA, vec![("profile", e)]),
            },
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
    let plan = match fault_plan(faults.as_deref(), lab.topo.config.seed) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let report = lab.run_cfs(plan, None, CfsConfig::default());
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

/// `cfs serve`: parse the flags, bind, boot a [`Daemon`], and answer
/// `cfs-api/1` requests until a `shutdown` arrives.
fn serve_cmd(scale: Scale, seed: Option<u64>, args: &[String]) -> Result<(), i32> {
    let mut opts = DaemonOptions {
        campaigns: num_flag(args, "--campaigns", false)?.unwrap_or(0),
        detect: args.iter().any(|a| a == "--detect"),
        ..DaemonOptions::default()
    };
    if let Some(ms) = num_flag(args, "--window-ms", true)? {
        opts.window_ms = ms;
    }
    let read_deadline = num_flag(args, "--read-deadline-ms", true)?.map(Duration::from_millis);
    let disrupt = match flag_value(args, "--disrupt")? {
        None => None,
        Some(p) => Some(ScheduleIntensity::parse(&p).ok_or_else(|| {
            eprintln!("unknown disruption profile {p:?} (light, default, heavy)");
            2
        })?),
    };
    let (faults, log) = (flag_value(args, "--faults")?, flag_value(args, "--log")?);
    // Bind before the (slow) world provisioning: early clients connect
    // immediately and their requests queue until the loop starts.
    let socket = flag_value(args, "--socket")?;
    let bound = match (&socket, flag_value(args, "--tcp")?) {
        (Some(path), None) => Server::bind_unix(std::path::Path::new(path)),
        (None, Some(addr)) => Server::bind_tcp(&addr),
        _ => {
            eprintln!(
                "usage: cfs serve --socket PATH | --tcp ADDR \
                 [--scale S] [--seed N] [--campaigns N] [--faults P] \
                 [--log FILE] [--window-ms N] \
                 [--detect] [--disrupt light|default|heavy] \
                 [--read-deadline-ms N]"
            );
            return Err(2);
        }
    };
    let server = bound
        .map_err(|e| {
            eprintln!("cfsd: failed to bind: {e}");
            1
        })?
        .with_read_deadline(read_deadline);
    match server.tcp_addr() {
        Some(addr) => println!("cfsd: listening on {addr}"),
        None => println!("cfsd: listening on {}", socket.as_deref().unwrap_or("?")),
    }

    let lab = provision(scale, seed);
    let plan = fault_plan(faults.as_deref(), lab.topo.config.seed)?;
    let schedule = disrupt.map(|intensity| {
        let config = ScheduleConfig::at_intensity(lab.topo.config.seed, intensity);
        EventSchedule::generate(&lab.topo, config)
    });
    if let (Some(i), Some(s)) = (disrupt, &schedule) {
        println!(
            "cfsd: disruption schedule armed: {} events ({} profile, withheld)",
            s.events.len(),
            i.label(),
        );
    }
    if let Some(path) = log {
        let file = std::fs::File::create(&path).map_err(|e| {
            eprintln!("cfsd: failed to open --log {path}: {e}");
            1
        })?;
        opts.log = Some(file);
    }
    let substrate = Substrate::new(&lab, plan, schedule);
    let mut daemon = Daemon::boot(&substrate, opts).map_err(|e| {
        eprintln!("cfsd: boot failed: {e}");
        1
    })?;
    if let Some(report) = daemon.session().report() {
        println!(
            "cfsd: serving {} interfaces ({} resolved) at epoch {}",
            report.total(),
            report.resolved(),
            daemon.session().epoch(),
        );
    }

    match server.serve(|req| daemon.handle(req)) {
        Ok(()) => {
            println!("cfsd: shutdown");
            Ok(())
        }
        Err(e) => {
            eprintln!("cfsd: {e}");
            Err(1)
        }
    }
}

/// `cfs query`: one request/response roundtrip against a running daemon.
/// Exit 0 on an `ok:true` response, 2 on usage errors, 3 on transport
/// failures, 4 when the daemon answers with a typed error.
fn query_cmd(args: &[String]) -> Result<(), i32> {
    let usage = "usage: cfs query --socket PATH | --tcp ADDR \
                 <ip>|status|trace|shutdown [--raw JSON] [--out FILE]";
    let request = match flag_value(args, "--raw")? {
        Some(line) => line,
        None => match positionals(args, &[]).first().copied() {
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
                return Err(2);
            }
        },
    };
    let out = flag_value(args, "--out")?;
    let mut client = connect(args, usage)?;
    let response = roundtrip(&mut client, &request)?;
    let ok = is_ok(&response);
    // A trace reply wraps a complete cfs-trace/1 document; peel the
    // envelope so --out writes something `cfs check`/trace-diff accept
    // byte-for-byte (the inner digest must not shift). Refusals print
    // whole, on stdout like any payload.
    let payload = peel(&response, "trace").unwrap_or(&response);
    match out {
        Some(path) => {
            std::fs::write(&path, payload).map_err(|e| {
                eprintln!("failed to write {path}: {e}");
                1
            })?;
            println!("wrote response payload to {path}");
        }
        None => println!("{payload}"),
    }
    if ok {
        Ok(())
    } else {
        Err(4)
    }
}

/// Connects to the daemon named by the `--socket`/`--tcp` pair every
/// client command shares: neither (or both) prints `usage` and is exit
/// 2, a failed connect is exit 3.
fn connect(args: &[String], usage: &str) -> Result<Client, i32> {
    let endpoint = match (flag_value(args, "--socket")?, flag_value(args, "--tcp")?) {
        (Some(p), None) => Endpoint::Unix(std::path::PathBuf::from(p)),
        (None, Some(a)) => Endpoint::Tcp(a),
        _ => {
            eprintln!("{usage}");
            return Err(2);
        }
    };
    Client::connect(&endpoint).map_err(|e| {
        eprintln!("failed to connect: {e}");
        3
    })
}

/// One request/response roundtrip; a transport failure is exit 3.
fn roundtrip(client: &mut Client, request: &str) -> Result<String, i32> {
    client.roundtrip(request).map_err(|e| {
        eprintln!("transport error: {e}");
        3
    })
}

/// Whether a response line is an `ok:true` reply.
fn is_ok(response: &str) -> bool {
    response.starts_with(&format!(
        "{{\"schema\":\"{}\",\"ok\":true",
        cfs::svc::SCHEMA
    ))
}

/// [`roundtrip`] for commands that need an `ok:true` reply: anything
/// else is echoed to stderr and is exit 4.
fn call(client: &mut Client, request: &str) -> Result<String, i32> {
    let response = roundtrip(client, request)?;
    if is_ok(&response) {
        Ok(response)
    } else {
        eprintln!("{response}");
        Err(4)
    }
}

/// The document an `ok:true` reply embeds whole under `member` (`trace`,
/// `metrics`), byte for byte, so its own digest and checks still hold.
fn peel<'a>(response: &'a str, member: &str) -> Option<&'a str> {
    response
        .strip_prefix(&format!(
            "{{\"schema\":\"{}\",\"ok\":true,\"{member}\":",
            cfs::svc::SCHEMA
        ))?
        .strip_suffix('}')
}

/// One cursor drain (`events` or `alerts`): the reply's `member`
/// records, with `cursor` moved to its `next`.
fn poll_cursor(
    client: &mut Client,
    request: &str,
    member: &str,
    cursor: &mut u64,
) -> Result<Vec<serde_json::Value>, i32> {
    let response = call(client, request)?;
    let Ok(v) = serde_json::from_str::<serde_json::Value>(&response) else {
        eprintln!("{response}");
        return Err(4);
    };
    if let Some(next) = v.get("next").and_then(|n| n.as_u64()) {
        *cursor = next;
    }
    Ok(v.get(member)
        .and_then(|x| x.as_array())
        .cloned()
        .unwrap_or_default())
}

/// `cfs metrics`: fetch a live daemon's `cfs-metrics/1` snapshot and
/// print a human summary (default), the raw document (`--json`), or
/// save it (`--out FILE`). Exit 0 ok, 2 usage, 3 transport, 4 when the
/// daemon answers with an error or an unparseable snapshot.
fn metrics_cmd(args: &[String]) -> Result<(), i32> {
    let usage = "usage: cfs metrics --socket PATH | --tcp ADDR [--json] [--out FILE]";
    let out = flag_value(args, "--out")?;
    let mut client = connect(args, usage)?;
    let request = format!("{{\"schema\":\"{}\",\"op\":\"metrics\"}}", cfs::svc::SCHEMA);
    let response = call(&mut client, &request)?;
    let Some(doc) = peel(&response, "metrics") else {
        eprintln!("{response}");
        return Err(4);
    };
    if let Some(path) = out {
        std::fs::write(&path, doc).map_err(|e| {
            eprintln!("failed to write {path}: {e}");
            1
        })?;
        println!("wrote metrics snapshot to {path}");
    } else if args.iter().any(|a| a == "--json") {
        println!("{doc}");
    } else {
        let parsed = MetricsDoc::parse(doc).map_err(|e| {
            eprintln!("daemon returned an unparseable snapshot: {e}");
            4
        })?;
        print!("{}", render_metrics_summary(&parsed));
    }
    Ok(())
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
/// rendered client-side from its JSON form: `[severity] #seq epoch=…
/// kind [facility=…] [ixp=…] observed=…pm baseline=…pm score=…pm
/// support=…`.
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
fn watch_cmd(args: &[String]) -> Result<(), i32> {
    use std::io::Write as _;
    let usage = "usage: cfs watch --socket PATH | --tcp ADDR [--json] [--out FILE] \
                 [--follow] [--interval-ms N] [--polls N] [--min-severity warn|error]";
    let json = args.iter().any(|a| a == "--json");
    let follow = args.iter().any(|a| a == "--follow");
    let interval_ms = num_flag(args, "--interval-ms", true)?.unwrap_or(1_000);
    let polls = num_flag(args, "--polls", false)?.unwrap_or(if follow { 0 } else { 1 });
    let min_severity = flag_value(args, "--min-severity")?;
    if let Some(s) = &min_severity {
        if !matches!(s.as_str(), "info" | "warn" | "error") {
            eprintln!("--min-severity wants info, warn, or error");
            return Err(2);
        }
    }
    let mut out_file = match flag_value(args, "--out")? {
        Some(p) => Some(std::fs::File::create(&p).map_err(|e| {
            eprintln!("failed to open --out {p}: {e}");
            1
        })?),
        None => None,
    };
    let mut client = connect(args, usage)?;
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
        for a in poll_cursor(&mut client, &request, "alerts", &mut cursor)? {
            drained += 1;
            let record = serde_json::to_string(&a).unwrap_or_default();
            if let Some(f) = out_file.as_mut() {
                writeln!(f, "{record}").map_err(|e| {
                    eprintln!("failed to write --out: {e}");
                    1
                })?;
            }
            if json {
                println!("{record}");
            } else {
                println!("{}", alert_line(&a));
            }
        }
        if polls > 0 && poll >= polls {
            if !json {
                eprintln!("drained {drained} alerts (cursor {cursor})");
            }
            return Ok(());
        }
    }
}

/// `cfs top`: a polling terminal dashboard over a live daemon — request
/// rate since the previous poll, per-op latency, delta churn, and the
/// most recent events (drained with a cursor so nothing is shown twice).
/// Exit 0 after `--polls N` polls (0 = run until interrupted), 2 usage,
/// 3 transport, 4 daemon error.
fn top_cmd(args: &[String]) -> Result<(), i32> {
    let usage = "usage: cfs top --socket PATH | --tcp ADDR [--interval-ms N] [--polls N]";
    let interval_ms = num_flag(args, "--interval-ms", true)?.unwrap_or(1_000);
    let polls = num_flag(args, "--polls", false)?.unwrap_or(0);
    let mut client = connect(args, usage)?;
    let metrics_req = format!("{{\"schema\":\"{}\",\"op\":\"metrics\"}}", cfs::svc::SCHEMA);
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
        let response = call(&mut client, &metrics_req)?;
        let Some(Ok(doc)) = peel(&response, "metrics").map(MetricsDoc::parse) else {
            eprintln!("{response}");
            return Err(4);
        };
        let events_req = format!(
            "{{\"schema\":\"{}\",\"op\":\"events\",\"since\":{cursor}}}",
            cfs::svc::SCHEMA
        );
        let events = poll_cursor(&mut client, &events_req, "events", &mut cursor)?;
        recent.extend(events.iter().map(event_line));
        recent.drain(..recent.len().saturating_sub(8));
        // Alerts drain: a detection-off daemon answers an empty list
        // with an unmoved cursor, so this is always safe to poll.
        let alerts_req = format!(
            "{{\"schema\":\"{}\",\"op\":\"alerts\",\"since\":{alert_cursor}}}",
            cfs::svc::SCHEMA
        );
        let alerts = poll_cursor(&mut client, &alerts_req, "alerts", &mut alert_cursor)?;
        recent_alerts.extend(alerts.iter().map(alert_line));
        recent_alerts.drain(..recent_alerts.len().saturating_sub(8));

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
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The map as one value tree, rendered whole: how `cfs run --out`
    /// wrote it before it streamed rows.
    fn value_tree(scale: Scale, report: &CfsReport, lab: &Lab) -> String {
        let interfaces: Vec<serde_json::Value> = report
            .interfaces
            .values()
            .map(|i| interface_row(i, lab))
            .collect();
        let links: Vec<serde_json::Value> = report.links.iter().map(|l| link_row(l, lab)).collect();
        let doc = serde_json::json!({
            "generator": GENERATOR,
            "scale": scale.label(),
            "interfaces": interfaces,
            "interconnections": links,
        });
        serde_json::to_string_pretty(&doc).unwrap()
    }

    #[test]
    fn the_streamed_map_equals_the_value_tree_rendering() {
        let lab = Lab::provision(Scale::Tiny, Some(7)).unwrap();
        let faults = fault_plan(Some("default"), lab.topo.config.seed).unwrap();
        let reports = [
            ("clean", lab.run_cfs(None, None, CfsConfig::default())),
            (
                "faults default",
                lab.run_cfs(faults, None, CfsConfig::default()),
            ),
            ("empty", CfsReport::default()),
        ];
        for (label, report) in &reports {
            let mut streamed = Vec::new();
            write_map(&mut streamed, Scale::Tiny, report, &lab).unwrap();
            let streamed = String::from_utf8(streamed).unwrap();
            assert!(
                streamed == value_tree(Scale::Tiny, report, &lab),
                "{label}: the streamed map differs"
            );
        }
        assert!(
            !reports[0].1.links.is_empty(),
            "the clean run found no link"
        );
    }
}
