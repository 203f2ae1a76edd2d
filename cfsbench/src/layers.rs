//! The traced run: each workload replayed in-process through the
//! layers' public functions, with a `TraceRecorder` on a monotonic clock
//! attached to the session. The spans the engine records (`cfs.run`,
//! `stage.*`, `serve.*`) nest under `bench.*` spans this file records
//! around each call, so every layer's self time is its span total minus
//! its children's, and what no span covers is reported as
//! `unattributed`.
//!
//! Span totals are aggregated by name, so each tree below names a span
//! once; the boot and operation phases are told apart by diffing
//! recorder snapshots taken between them.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use cfs::core::{Cfs, CfsConfig, Delta};
use cfs::detect::{Detector, DetectorConfig, EpochObservation, LocusNames};
use cfs::experiments::Lab;
use cfs::obs::{Clock, Monotonic, NoopRecorder, Recorder, TraceRecorder, TraceSnapshot};
use cfs::traceroute::Engine;

use crate::host;
use crate::inputs;
use crate::stats;
use crate::workloads::{Measured, Settings, Workload, QUERY_SLO_MS};
use crate::Metric;

/// One node of a workload's span tree; `metric` names the per-layer
/// metric fed by the node's self time (empty: table only).
struct Node {
    span: &'static str,
    metric: &'static str,
    kids: &'static [Node],
}

const fn leaf(span: &'static str, metric: &'static str) -> Node {
    Node {
        span,
        metric,
        kids: &[],
    }
}

/// The batch engine's stages under `cfs.run`. `stage.alias_resolution`
/// and `stage.extract` also run inside `cfs.iteration`; by name they
/// aggregate into one row, so `cfs.iteration` is folded into
/// `cfs.run`'s self time.
const CONVERGE: Node = Node {
    span: "cfs.run",
    metric: "core.run_self_ms",
    kids: &[
        leaf("stage.alias_resolution", "alias.resolve_ms"),
        leaf("stage.extract", "core.extract_ms"),
        Node {
            span: "stage.constrain",
            metric: "core.constrain_ms",
            kids: &[leaf("stage.remote", "core.remote_ms")],
        },
        leaf("stage.alias_constrain", "core.alias_constrain_ms"),
        leaf("stage.followup", "core.followup_ms"),
        leaf("stage.report", "core.report_ms"),
    ],
};

/// `cfs run`: provision, bootstrap campaign, converge (the map render
/// happens in the CLI binary and is measured as a residual).
const BATCH: Node = Node {
    span: "bench.run",
    metric: "",
    kids: &[
        leaf("bench.provision", "lab.provision_ms"),
        leaf("bench.bootstrap", "traceroute.bootstrap_ms"),
        Node {
            span: "bench.converge",
            metric: "core.ingest_ms",
            kids: &[CONVERGE],
        },
    ],
};

/// `cfs serve` boot, mirrored in-process.
const BOOT: Node = Node {
    span: "bench.boot",
    metric: "",
    kids: &[
        leaf("bench.provision", ""),
        leaf("bench.bootstrap", ""),
        Node {
            span: "bench.converge",
            metric: "",
            kids: &[CONVERGE],
        },
    ],
};

/// What `cfsd` does per delta request.
const WRITER: Node = Node {
    span: "bench.writer",
    metric: "",
    kids: &[
        leaf("bench.campaign", "traceroute.campaign_ms"),
        leaf("bench.detect", "detect.observe_ms"),
        leaf("bench.kb_assemble", "kb.assemble_ms"),
        Node {
            span: "bench.delta",
            metric: "",
            kids: &[Node {
                span: "serve.delta",
                metric: "core.delta_self_ms",
                kids: &[
                    leaf("stage.alias_resolution", "alias.resolve_ms"),
                    leaf("stage.extract", "core.extract_ms"),
                    Node {
                        span: "serve.kernel",
                        metric: "core.kernel_ms",
                        kids: &[
                            Node {
                                span: "stage.constrain",
                                metric: "core.constrain_ms",
                                kids: &[leaf("stage.remote", "core.remote_ms")],
                            },
                            leaf("stage.alias_constrain", "core.alias_constrain_ms"),
                        ],
                    },
                    leaf("stage.report", "core.report_ms"),
                ],
            }],
        },
    ],
};

/// Session lookups for every query the run sent.
const READER: Node = Node {
    span: "bench.reader",
    metric: "",
    kids: &[leaf("bench.queries", "")],
};

/// Span totals and counters recorded during one phase.
#[derive(Default)]
struct Phase {
    spans: BTreeMap<&'static str, (u64, f64)>,
    counters: BTreeMap<&'static str, u64>,
}

impl Phase {
    /// What was recorded between two snapshots.
    fn between(before: &TraceSnapshot, after: &TraceSnapshot) -> Self {
        let spans = after
            .spans
            .iter()
            .map(|(name, s)| {
                let b = before.spans.get(name).copied().unwrap_or_default();
                let ms = (s.total_ns - b.total_ns) as f64 / 1e6;
                (*name, (s.count - b.count, ms))
            })
            .collect();
        let counters = after
            .counters
            .iter()
            .map(|(name, v)| (*name, v - before.counters.get(name).copied().unwrap_or(0)))
            .collect();
        Self { spans, counters }
    }

    fn span(&self, name: &str) -> (u64, f64) {
        self.spans.get(name).copied().unwrap_or((0, 0.0))
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// One row of the attribution table.
struct Row {
    depth: usize,
    span: &'static str,
    metric: &'static str,
    count: u64,
    total_ms: f64,
    self_ms: f64,
}

fn attribute(node: &Node, phase: &Phase, depth: usize, out: &mut Vec<Row>) {
    let (count, total_ms) = phase.span(node.span);
    let kids_ms: f64 = node.kids.iter().map(|k| phase.span(k.span).1).sum();
    out.push(Row {
        depth,
        span: node.span,
        metric: node.metric,
        count,
        total_ms,
        self_ms: total_ms - kids_ms,
    });
    for k in node.kids {
        attribute(k, phase, depth + 1, out);
    }
}

/// One replay of a workload's inputs.
#[derive(Default)]
struct Replay {
    boot: Phase,
    writer: Phase,
    reader: Phase,
    /// Wall time of the writer phase (batch runs or deltas), seconds.
    writer_s: f64,
    /// Wall time of the query phase, seconds.
    reader_s: f64,
    interfaces: usize,
    resolved: usize,
    followup_traces: usize,
    profile: String,
}

/// Replays the operations `m` measured; with `rec`, through a recorder
/// whose snapshots split the phases.
fn replay(
    w: Workload,
    st: &Settings,
    m: &Measured,
    rec: Option<&Arc<TraceRecorder>>,
) -> Result<Replay, String> {
    let recorder: Arc<dyn Recorder> = match rec {
        Some(r) => r.clone(),
        None => Arc::new(NoopRecorder),
    };
    let snap = || rec.map(|r| r.snapshot()).unwrap_or_default();
    let mut out = Replay::default();

    if w == Workload::BatchPaper {
        let before = snap();
        let t = Instant::now();
        {
            cfs::obs::span!(recorder, "bench.run");
            let lab = {
                cfs::obs::span!(recorder, "bench.provision");
                inputs::provision(st.batch_scale())?
            };
            let engine = Engine::new(&lab.topo);
            let traces = {
                cfs::obs::span!(recorder, "bench.bootstrap");
                lab.bootstrap_traces(&engine, None)
            };
            recorder.counter("bench.bootstrap_traces", traces.len() as u64);
            let report = {
                cfs::obs::span!(recorder, "bench.converge");
                let mut session = Cfs::builder(&engine, &lab.kb)
                    .vps(&lab.vps)
                    .ipasn(&lab.ipasn)
                    .config(CfsConfig::default())
                    .recorder(recorder.clone())
                    .build_session()
                    .map_err(|e| e.to_string())?;
                session.ingest(traces);
                lab.feed_bgp_sessions(&mut session, None);
                session.into_report()
            };
            out.interfaces = report.total();
            out.resolved = report.resolved();
            out.followup_traces = report.traces_issued;
        }
        out.writer_s = t.elapsed().as_secs_f64();
        let after = snap();
        out.writer = Phase::between(&before, &after);
        out.profile = cfs::obs::render_profile_json(&after);
        return Ok(out);
    }

    // The daemons boot on the bootstrap batch alone, so a detecting one
    // arms its detector with no campaign to warm its baselines from.
    let t0 = snap();
    let boot_start = recorder.span_start();
    let lab = {
        cfs::obs::span!(recorder, "bench.provision");
        inputs::provision(st.serve_scale())?
    };
    let engine = Engine::new(&lab.topo);
    let traces = {
        cfs::obs::span!(recorder, "bench.bootstrap");
        lab.bootstrap_traces(&engine, None)
    };
    let mut session = {
        cfs::obs::span!(recorder, "bench.converge");
        let mut session = Cfs::builder(&engine, &lab.kb)
            .vps(&lab.vps)
            .ipasn(&lab.ipasn)
            .config(inputs::service_config())
            .recorder(recorder.clone())
            .build_session()
            .map_err(|e| e.to_string())?;
        session.ingest(traces);
        lab.feed_bgp_sessions(&mut session, None);
        session.converge();
        session
    };
    let mut detector = w.detects().then(|| arm_detector(&lab));
    recorder.span_end("bench.boot", boot_start);
    let t1 = snap();

    let t = Instant::now();
    let writer_start = recorder.span_start();
    for &k in &m.campaigns {
        let traces = {
            cfs::obs::span!(recorder, "bench.campaign");
            inputs::campaign_traces(&lab, &engine, k)
        };
        recorder.counter("bench.campaign_traces", traces.len() as u64);
        let observed = detector.as_ref().map(|_| {
            cfs::obs::span!(recorder, "bench.detect");
            EpochObservation::from_traces(k, &traces)
        });
        {
            cfs::obs::span!(recorder, "bench.delta");
            session
                .apply_delta(Delta::TracerouteBatch(traces))
                .map_err(|e| e.to_string())?;
        }
        if let (Some(det), Some(obs), Some(report)) =
            (detector.as_mut(), observed.as_ref(), session.report())
        {
            cfs::obs::span!(recorder, "bench.detect");
            det.observe(obs, report);
        }
    }
    let mut sources = lab.sources.clone();
    for &(listing, present) in &m.flips {
        let kb = {
            cfs::obs::span!(recorder, "bench.kb_assemble");
            inputs::flip_kb(&mut sources, &lab, listing, present)
        };
        cfs::obs::span!(recorder, "bench.delta");
        session
            .apply_delta(Delta::KbEpochFlip(Arc::new(kb)))
            .map_err(|e| e.to_string())?;
    }
    recorder.span_end("bench.writer", writer_start);
    out.writer_s = t.elapsed().as_secs_f64();
    let t2 = snap();

    let t = Instant::now();
    let reader_start = recorder.span_start();
    {
        cfs::obs::span!(recorder, "bench.queries");
        for ip in &m.queries {
            std::hint::black_box(session.query(*ip));
        }
    }
    recorder.span_end("bench.reader", reader_start);
    out.reader_s = t.elapsed().as_secs_f64();
    let t3 = snap();

    let report = session.report().ok_or("session did not converge")?;
    out.interfaces = report.total();
    out.resolved = report.resolved();
    out.boot = Phase::between(&t0, &t1);
    out.writer = Phase::between(&t1, &t2);
    out.reader = Phase::between(&t2, &t3);
    out.profile = cfs::obs::render_profile_json(&t3);
    Ok(out)
}

/// The detector `cfs serve --detect` arms, naming loci from the world's
/// public facility and exchange names.
fn arm_detector(lab: &Lab) -> Detector {
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
    let clock: Arc<dyn Clock> = Arc::new(Monotonic::new());
    Detector::new(DetectorConfig::default(), names, clock)
}

/// Every per-layer metric and its unit, in `BENCHMARK.json` order.
/// Layers a workload does not exercise report 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("setup.provision_ms", "ms"),
    ("setup.bootstrap_ms", "ms"),
    ("setup.converge_ms", "ms"),
    ("lab.provision_ms", "ms"),
    ("traceroute.bootstrap_ms", "ms"),
    ("traceroute.bootstrap_traces", "count"),
    ("core.ingest_ms", "ms"),
    ("traceroute.campaign_ms", "ms"),
    ("traceroute.campaign_traces", "count"),
    ("detect.observe_ms", "ms"),
    ("kb.assemble_ms", "ms"),
    ("alias.resolve_ms", "ms"),
    ("alias.calls", "count"),
    ("core.extract_ms", "ms"),
    ("core.extract_traces", "count"),
    ("core.extract_yield", "ratio"),
    ("core.reextract_ratio", "ratio"),
    ("core.delta_self_ms", "ms"),
    ("core.kernel_ms", "ms"),
    ("core.dirty_ifaces", "count"),
    ("core.reconverged_ifaces", "count"),
    ("core.constrain_ms", "ms"),
    ("core.remote_ms", "ms"),
    ("core.alias_constrain_ms", "ms"),
    ("core.followup_ms", "ms"),
    ("core.followup_traces", "count"),
    ("core.iterations", "count"),
    ("core.run_self_ms", "ms"),
    ("core.report_ms", "ms"),
    ("cli.render_map_ms", "ms"),
    ("core.query_us", "us"),
    ("svc.server_query_us", "us"),
    ("svc.wire_query_us", "us"),
    ("svc.connect_us", "us"),
    ("svc.queue_wait_ms.p99", "ms"),
    ("query_slo_miss_frac", "ratio"),
    ("svc.serve_delta_ms", "ms"),
    ("svc.dispatch_delta_ms", "ms"),
    ("core.resolved_frac", "ratio"),
    ("obs.trace_overhead_pct", "%"),
    ("bench.gen_late_ms.p99", "ms"),
    ("unattributed_pct", "%"),
    ("op_ms.tail", "ms"),
    ("host.ref_ms", "ms"),
];

/// The quantile reported as `op_ms.tail`: the highest one with at least
/// ten samples beyond it at full size. The 40 campaign deltas give p75;
/// thousands of flips or queries give p99; four batch runs give none,
/// so the batch reports its slowest run.
fn tail_quantile(w: Workload) -> f64 {
    match w {
        Workload::BatchPaper => 1.0,
        Workload::CampaignStream => 0.75,
        Workload::KbFlipStream | Workload::QuerySteady => 0.99,
    }
}

fn per(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs the untraced and the traced replay, prints the attribution
/// table, and returns every per-layer metric plus any output-check
/// failures found on the way.
pub fn traced(
    w: Workload,
    st: &Settings,
    m: &Measured,
    profile_path: &std::path::Path,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let plain = replay(w, st, m, None)?;
    let rec = Arc::new(TraceRecorder::new(Arc::new(Monotonic::new())));
    let r = replay(w, st, m, Some(&rec))?;
    std::fs::write(profile_path, &r.profile)
        .map_err(|e| format!("write {}: {e}", profile_path.display()))?;

    let mut problems = Vec::new();
    if let Some((ifaces, resolved)) = m.map_counts {
        if (ifaces, resolved) != (r.interfaces, r.resolved) {
            problems.push(format!(
                "map has {ifaces} interfaces/{resolved} resolved, in-process report {}/{}",
                r.interfaces, r.resolved
            ));
        }
    }

    let writer_ops = if w == Workload::BatchPaper {
        1
    } else {
        m.campaigns.len() + m.flips.len()
    };
    let queries = m.queries.len();
    let (writer_tree, boot_tree) = if w == Workload::BatchPaper {
        (&BATCH, None)
    } else {
        (&WRITER, Some(&BOOT))
    };
    let mut writer_rows = Vec::new();
    attribute(writer_tree, &r.writer, 0, &mut writer_rows);
    let mut reader_rows = Vec::new();
    attribute(&READER, &r.reader, 0, &mut reader_rows);
    let mut boot_rows = Vec::new();
    if let Some(tree) = boot_tree {
        attribute(tree, &r.boot, 0, &mut boot_rows);
    }

    // Per-layer values: self time per writer operation, summed over
    // rows naming the same metric.
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for row in writer_rows.iter().filter(|r| !r.metric.is_empty()) {
        *values.entry(row.metric).or_default() += per(row.self_ms, writer_ops);
    }
    // A batch run is its own set-up.
    let setup_phase = if w == Workload::BatchPaper {
        &r.writer
    } else {
        &r.boot
    };
    let (setup_provision, setup_bootstrap, setup_converge) = (
        setup_phase.span("bench.provision").1,
        setup_phase.span("bench.bootstrap").1,
        setup_phase.span("bench.converge").1,
    );
    let ph = &r.writer;
    let server_query_us = ratio(m.api_query.total_ms * 1e3, m.api_query.count as f64);
    let wait_ms: Vec<f64> = m
        .query_ms
        .iter()
        .map(|q| q - server_query_us / 1e3)
        .collect();
    let p99 = |v: &[f64]| stats::quantile(&stats::sorted(v), 0.99).unwrap_or(0.0);
    let op_median = stats::median(m.op_ms(w)).unwrap_or(0.0);
    let plain_s = plain.writer_s + plain.reader_s;
    let traced_s = r.writer_s + r.reader_s;
    let roots_ms = writer_rows[0].total_ms + reader_rows[0].total_ms;
    let unattributed_ms = writer_rows[0].self_ms + reader_rows[0].self_ms;

    let computed: BTreeMap<&str, f64> = [
        ("setup.provision_ms", setup_provision),
        ("setup.bootstrap_ms", setup_bootstrap),
        ("setup.converge_ms", setup_converge),
        (
            "traceroute.bootstrap_traces",
            per(ph.counter("bench.bootstrap_traces"), writer_ops),
        ),
        (
            "traceroute.campaign_traces",
            per(ph.counter("bench.campaign_traces"), writer_ops),
        ),
        (
            "alias.calls",
            per(ph.span("stage.alias_resolution").0 as f64, writer_ops),
        ),
        (
            "core.extract_traces",
            per(ph.counter("extract.traces"), writer_ops),
        ),
        (
            "core.extract_yield",
            ratio(
                ph.counter("extract.observations_new"),
                ph.counter("extract.traces"),
            ),
        ),
        (
            "core.reextract_ratio",
            ratio(
                ph.counter("extract.traces"),
                ph.counter("bench.campaign_traces"),
            ),
        ),
        (
            "core.dirty_ifaces",
            per(ph.counter("serve.dirty_ifaces"), writer_ops),
        ),
        (
            "core.reconverged_ifaces",
            per(ph.counter("serve.reconverged"), writer_ops),
        ),
        (
            "core.followup_traces",
            per(r.followup_traces as f64, writer_ops),
        ),
        (
            "core.iterations",
            per(ph.counter("cfs.iterations"), writer_ops),
        ),
        (
            "cli.render_map_ms",
            if w == Workload::BatchPaper {
                op_median - plain.writer_s * 1e3
            } else {
                0.0
            },
        ),
        (
            "core.query_us",
            per(r.reader.span("bench.queries").1 * 1e3, queries),
        ),
        ("svc.server_query_us", server_query_us),
        // Only a closed loop on an idle daemon times a round trip with no
        // wait behind a delta in it.
        (
            "svc.wire_query_us",
            if w == Workload::QuerySteady {
                stats::mean(&m.query_ms).unwrap_or(0.0) * 1e3 - server_query_us
            } else {
                0.0
            },
        ),
        ("svc.connect_us", stats::mean(&m.connect_us).unwrap_or(0.0)),
        ("svc.queue_wait_ms.p99", p99(&wait_ms)),
        (
            "query_slo_miss_frac",
            ratio(
                m.query_ms.iter().filter(|&&q| q > QUERY_SLO_MS).count() as f64
                    + m.queries_failed as f64,
                m.queries_attempted as f64,
            ),
        ),
        (
            "svc.serve_delta_ms",
            ratio(m.serve_delta.total_ms, m.serve_delta.count as f64),
        ),
        (
            "svc.dispatch_delta_ms",
            ratio(
                m.api_delta.total_ms - m.serve_delta.total_ms,
                m.api_delta.count as f64,
            ),
        ),
        (
            "core.resolved_frac",
            ratio(r.resolved as f64, r.interfaces as f64),
        ),
        (
            "obs.trace_overhead_pct",
            ratio(traced_s - plain_s, plain_s) * 100.0,
        ),
        ("bench.gen_late_ms.p99", p99(&m.gen_late_ms)),
        ("unattributed_pct", ratio(unattributed_ms, roots_ms) * 100.0),
        (
            "op_ms.tail",
            stats::quantile(&stats::sorted(m.op_ms(w)), tail_quantile(w)).unwrap_or(0.0)
                * host::scale(&m.ref_ms)?,
        ),
        ("host.ref_ms", stats::median(&m.ref_ms).unwrap_or(0.0)),
    ]
    .into_iter()
    .collect();
    values.extend(computed);

    print_table(
        w,
        st,
        m,
        &boot_rows,
        &writer_rows,
        &reader_rows,
        writer_ops,
        queries,
    );
    println!(
        "{} traced replay {:.3} s, untraced {:.3} s; profile written to {}",
        w.name(),
        traced_s,
        plain_s,
        profile_path.display()
    );

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
            n: 1,
        })
        .collect();
    Ok((metrics, problems))
}

/// Prints one phase's attribution: count, total, self time and share of
/// the phase's root span, with the root's self time as `unattributed`.
fn print_phase(title: &str, rows: &[Row], ops: usize) {
    let Some(root) = rows.first() else {
        return;
    };
    if ops == 0 {
        return;
    }
    let share = |ms: f64| 100.0 * ratio(ms, root.total_ms);
    println!("  {title}: {:.3} ms traced", root.total_ms);
    println!(
        "    {:<34} {:>8} {:>12} {:>12} {:>7}",
        "span", "count", "total_ms", "self_ms", "share"
    );
    for row in &rows[1..] {
        if row.count == 0 {
            continue;
        }
        let label = format!("{}{}", "  ".repeat(row.depth - 1), row.span);
        println!(
            "    {label:<34} {:>8} {:>12.3} {:>12.3} {:>6.2}%",
            row.count,
            row.total_ms,
            row.self_ms,
            share(row.self_ms)
        );
    }
    let attributed: f64 = rows[1..].iter().map(|r| r.self_ms).sum();
    println!(
        "    {:<34} {:>8} {:>12} {:>12.3} {:>6.2}%",
        "unattributed",
        "",
        "",
        root.self_ms,
        share(root.self_ms)
    );
    println!(
        "    {:<34} {:>8} {:>12} {:>12.3} {:>6.2}%",
        "sum (self + unattributed)",
        "",
        "",
        attributed + root.self_ms,
        share(attributed + root.self_ms)
    );
}

#[allow(clippy::too_many_arguments)] // one argument per table section
fn print_table(
    w: Workload,
    st: &Settings,
    m: &Measured,
    boot: &[Row],
    writer: &[Row],
    reader: &[Row],
    writer_ops: usize,
    queries: usize,
) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let op = m.op_p50_ms(w).unwrap_or(0.0);
    let setup = stats::median(&m.setup_s).unwrap_or(0.0);
    println!(
        "== traced run: {} (seed {}, nproc {nproc}) · measured median operation {op:.3} ms, set-up {setup:.4} s ==",
        w.name(),
        st.seed
    );
    print_phase("boot (one daemon set-up)", boot, 1);
    print_phase(
        &format!("writer ({writer_ops} operations)"),
        writer,
        writer_ops,
    );
    print_phase(&format!("reader ({queries} queries)"), reader, queries);
}
