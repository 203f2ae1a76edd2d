//! `cfs-bench`: the end-to-end benchmark of `cfs run` and the `cfsd`
//! daemon.
//!
//! ```text
//! cfs-bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--out FILE] [--smoke]
//! cfs-bench agree A.jsonl B.jsonl
//! ```
//!
//! A run builds the `cfs` CLI from the repository sources, drives one
//! workload through the real user path (subprocesses and a Unix socket),
//! checks the program's outputs, prints every metric as
//! `<workload> <metric> <value> <unit>`, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 1` the metrics are the per-layer ones of a traced in-process
//! replay (see `layers.rs`); otherwise the end-to-end ones, their times
//! scaled to a reference host speed measured in the run (see `host.rs`).
//! `--out`
//! appends the result, with sample counts, to a JSON-lines file that
//! `agree` compares against another.
//!
//! Timing with `Instant` is this program's purpose, hence the allow:
#![allow(clippy::disallowed_methods)]

mod host;
mod inputs;
mod layers;
mod stats;
mod sys;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::{json, Value};

use workloads::{Ctx, Measured, Settings, Workload};

const USAGE: &str = "usage: cfs-bench --workload <name> [--seed N] [--seconds S] \
                     [--trace 0|1] [--out FILE] [--smoke]\n       \
                     cfs-bench agree A.jsonl B.jsonl";

/// One reported metric.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = Args {
            workload: Workload::BatchPaper,
            seed: 7,
            seconds: 10.0,
            trace: false,
            out: None,
            smoke: false,
        };
        let mut workload = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                args.smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
            let bad = || format!("bad value for {flag}: {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(value).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {value:?} (one of {})", names.join(", "))
                    })?)
                }
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad())?;
                    if !args.seconds.is_finite() || args.seconds <= 0.0 {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--out" => args.out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        Ok(args)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("agree") => agree(&argv[1..]),
        _ => match Args::parse(&argv) {
            Ok(args) => bench(&args),
            Err(e) => {
                eprintln!("cfs-bench: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cfs-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One benchmark run. `Ok(false)` when an output check failed.
fn bench(args: &Args) -> Result<bool, String> {
    let root = sys::repo_root();
    std::env::set_current_dir(&root).map_err(|e| format!("cd {}: {e}", root.display()))?;
    let ctx = Ctx {
        cfs: sys::build_cfs()?,
        work: sys::WorkDir::create()?,
    };
    let st = Settings {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let w = args.workload;
    let m = workloads::run(w, &ctx, &st)?;
    let mut problems = m.problems.clone();
    let metrics = if args.trace {
        let profile = PathBuf::from(format!("cfsbench/work/{}.profile.json", w.name()));
        let (metrics, found) = layers::traced(w, &st, &m, &profile)?;
        problems.extend(found);
        metrics
    } else {
        end_to_end(w, &m)?
    };

    for metric in &metrics {
        println!(
            "{} {} {} {}",
            w.name(),
            metric.name,
            metric.value,
            metric.unit
        );
    }
    let (setup, p50) = measured(w, &m)?;
    println!(
        "{} measured on this host: setup_s {setup} s, op_ms.p50 {p50} ms, reference {} ms",
        w.name(),
        stats::median(&m.ref_ms).unwrap_or(0.0)
    );
    for p in problems.iter().take(10) {
        eprintln!("cfs-bench: check failed: {p}");
    }
    let correct = problems.is_empty();
    if let Some(path) = &args.out {
        append_result(path, args, correct, &m, &metrics)?;
    }
    let body: Vec<(String, Value)> = metrics
        .iter()
        .map(|x| {
            (
                x.name.to_string(),
                json!({"value": x.value, "unit": x.unit}),
            )
        })
        .collect();
    let line = json!({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": (Value::Map(body)),
    });
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

/// The workload's set-up time (s) and median operation latency (ms) as
/// measured on this host.
fn measured(w: Workload, m: &Measured) -> Result<(f64, f64), String> {
    let p50 = m
        .op_p50_ms(w)
        .ok_or_else(|| format!("{}: no operation completed", w.name()))?;
    let setup = stats::median(&m.setup_s).ok_or("no set-up completed")?;
    Ok((setup, p50))
}

/// The end-to-end metrics every workload reports, times scaled to the
/// reference host (see `host.rs`).
fn end_to_end(w: Workload, m: &Measured) -> Result<Vec<Metric>, String> {
    let (setup, p50) = measured(w, m)?;
    let scale = host::scale(&m.ref_ms)?;
    let rss = stats::median(&m.peak_rss_mb).ok_or("no process peak read")?;
    Ok(vec![
        Metric {
            name: "setup_s",
            value: setup * scale,
            unit: "s",
            n: m.setup_s.len(),
        },
        Metric {
            name: "op_ms.p50",
            value: p50 * scale,
            unit: "ms",
            n: m.op_ms(w).len(),
        },
        Metric {
            name: "peak_rss_mb",
            value: rss,
            unit: "MB",
            n: m.peak_rss_mb.len(),
        },
    ])
}

/// Appends one result line (with sample counts) to a JSON-lines file.
fn append_result(
    path: &Path,
    args: &Args,
    correct: bool,
    m: &Measured,
    metrics: &[Metric],
) -> Result<(), String> {
    let body: Vec<(String, Value)> = metrics
        .iter()
        .map(|x| {
            (
                x.name.to_string(),
                json!({"value": x.value, "unit": x.unit, "n": x.n}),
            )
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let line = json!({
        "workload": (args.workload.name()),
        "seed": (args.seed),
        "trace": (args.trace),
        "nproc": nproc,
        "correct": correct,
        "attempted": (m.attempted),
        "failed": (m.failed),
        "metrics": (Value::Map(body)),
    });
    let text = serde_json::to_string(&line).map_err(|e| e.to_string())?;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{text}"))
        .map_err(|e| format!("append to {}: {e}", path.display()))
}

/// A metric's declaration in `BENCHMARK.json`.
struct Declared {
    better_lower: bool,
    bound: Option<f64>,
}

/// Reads the metric declarations of the repository's `BENCHMARK.json`,
/// end-to-end ones first.
fn declared_metrics() -> Result<Vec<(String, Declared)>, String> {
    let path = sys::repo_root().join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let spec: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for m in spec[section].as_array().into_iter().flatten() {
            let name = m["name"].as_str().ok_or("metric without a name")?;
            out.push((
                name.to_string(),
                Declared {
                    better_lower: m["better"] == "lower",
                    bound: m["bound"].as_f64(),
                },
            ));
        }
    }
    Ok(out)
}

type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Collects every metric value of a `--out` file by (workload, metric).
fn load_results(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut out = Samples::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("{path}: {e}"))?;
        let workload = v["workload"].as_str().ok_or("result without workload")?;
        for (name, m) in v["metrics"].as_object().into_iter().flat_map(|o| o.iter()) {
            if let Some(x) = m["value"].as_f64() {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(out)
}

/// `agree A B`: per workload and metric, both sets' medians and
/// quartiles, and whether they agree within the metric's bound: the
/// medians differ by at most the bound (as a share of A's median) and
/// each set's quartile spread stays within it. Metrics without a bound
/// are listed without a verdict.
fn agree(argv: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = argv else {
        return Err(format!("agree wants two result files\n{USAGE}"));
    };
    let declared = declared_metrics()?;
    let (a, b) = (load_results(a_path)?, load_results(b_path)?);
    let mut all_agree = true;
    println!(
        "{:<24} {:<24} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median [q1, q3] spread",
        "B median [q1, q3] spread",
        "change",
        "bound"
    );
    for w in Workload::ALL {
        for (name, decl) in &declared {
            let key = (w.name().to_string(), name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (Some(qa), Some(qb)) = (stats::quartiles(va), stats::quartiles(vb)) else {
                continue;
            };
            let spread = |q: (f64, f64, f64)| (q.2 - q.0) / q.1.abs().max(f64::MIN_POSITIVE);
            let change = (qb.1 - qa.1) / qa.1.abs().max(f64::MIN_POSITIVE);
            let cell = |q: (f64, f64, f64)| {
                format!("{:.4} [{:.4}, {:.4}] {:.3}", q.1, q.0, q.2, spread(q))
            };
            let verdict = match decl.bound {
                None => "-".to_string(),
                Some(bound) => {
                    let ok = change.abs() <= bound && spread(qa) <= bound && spread(qb) <= bound;
                    all_agree &= ok;
                    let worse = if decl.better_lower { change } else { -change };
                    format!(
                        "{}{}",
                        if ok { "agree" } else { "DISAGREE" },
                        if worse > 0.0 { " (B worse)" } else { "" }
                    )
                }
            };
            println!(
                "{:<24} {:<24} {:>34} {:>34} {:>+7.2}% {:>6}  {verdict}",
                w.name(),
                name,
                cell(qa),
                cell(qb),
                change * 100.0,
                decl.bound.map_or("-".to_string(), |b| format!("{b}")),
            );
        }
    }
    Ok(all_agree)
}
