//! The end-to-end workloads: the real user paths, driven from outside.
//! `cfs run` and `cfs serve` run as subprocesses of the freshly built
//! CLI; daemon traffic goes through `cfs_svc::Client` over a Unix
//! socket. Every workload checks the program's outputs.

use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cfs::core::canonical_trace;
use cfs::experiments::Scale;
use cfs::obs::NoopRecorder;
use cfs::svc::{Client, Endpoint, SCHEMA};
use cfs::traceroute::Engine;
use serde_json::Value;

use crate::host;
use crate::inputs::{self, Listing, WORLD_SEED};
use crate::stats;
use crate::sys::{self, request, run_polled, Daemon, WorkDir};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `cfs run` at the paper's §3.1 sizes, map written to disk.
    BatchPaper,
    /// Campaign deltas 1..40 back to back against a detecting daemon.
    CampaignStream,
    /// KB-flip deltas (withdraw/restore pairs) with open-loop queries.
    KbFlipStream,
    /// Closed-loop queries against an idle daemon.
    QuerySteady,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::BatchPaper,
        Workload::CampaignStream,
        Workload::KbFlipStream,
        Workload::QuerySteady,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchPaper => "batch_paper",
            Workload::CampaignStream => "campaign_stream",
            Workload::KbFlipStream => "kb_flip_stream",
            Workload::QuerySteady => "query_steady",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's daemon runs `--detect`.
    pub fn detects(self) -> bool {
        self == Workload::CampaignStream
    }
}

/// Run settings shared by every workload.
pub struct Settings {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase, in seconds.
    pub seconds: f64,
    /// Tiny world, 3 campaigns, 20 flips: a seconds-long functional run.
    pub smoke: bool,
}

impl Settings {
    /// World size of the batch workload.
    pub fn batch_scale(&self) -> Scale {
        if self.smoke {
            Scale::Tiny
        } else {
            Scale::Paper
        }
    }

    /// World size of the daemon workloads.
    pub fn serve_scale(&self) -> Scale {
        if self.smoke {
            Scale::Tiny
        } else {
            Scale::Default
        }
    }

    /// Campaign deltas a daemon absorbs, starting from the bootstrap
    /// corpus. A fixed count, not a time budget: per-delta cost grows
    /// with the corpus (about 0.12 s at campaign 1 to 1.1 s at campaign
    /// 40 at the default scale on a 2-vCPU host), so runs compare only
    /// if each one covers the same corpus sizes.
    pub fn campaigns(&self) -> usize {
        if self.smoke {
            3
        } else {
            40
        }
    }

    /// Upper bound on KB flips per daemon (none outside smoke runs,
    /// where the run's 20 flips are spread over its daemons).
    fn flip_cap(&self) -> usize {
        if self.smoke {
            20 / SETUPS
        } else {
            usize::MAX
        }
    }
}

/// Daemon set-ups per run; `setup_s` reports their median. The time-bounded
/// daemon workloads split their measured phase over all of them, so
/// that no single process's placement and memory layout decides a run.
const SETUPS: usize = 5;

/// `cfs run`s per batch run, at least.
const BATCH_RUNS: usize = 4;

/// Open-loop query period while KB flips apply (200 queries/s).
const FLIP_QUERY_PERIOD_MS: f64 = 5.0;

/// A query slower than this, or failed, misses the service objective.
pub const QUERY_SLO_MS: f64 = 10.0;

/// Server-side totals of one span name from the daemons' `metrics` op.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotal {
    /// Completed spans.
    pub count: u64,
    /// Their summed duration, in milliseconds.
    pub total_ms: f64,
}

impl SpanTotal {
    fn add(&mut self, other: SpanTotal) {
        self.count += other.count;
        self.total_ms += other.total_ms;
    }
}

/// What one end-to-end run measured, plus what the traced replay needs
/// to repeat it.
#[derive(Default)]
pub struct Measured {
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// `cfs run` wall times, ms.
    pub run_ms: Vec<f64>,
    /// Delta round trips, ms.
    pub delta_ms: Vec<f64>,
    /// Query latencies, ms: from the due time for open-loop queries,
    /// from the send for closed-loop ones.
    pub query_ms: Vec<f64>,
    /// Queries sent, answered or not.
    pub queries_attempted: u64,
    /// Queries refused, errored or answered wrongly.
    pub queries_failed: u64,
    /// `Client::connect` times, µs.
    pub connect_us: Vec<f64>,
    /// How late the open-loop generator sent each query, ms.
    pub gen_late_ms: Vec<f64>,
    /// Peak resident set (`VmHWM`) of each measured process, MB.
    pub peak_rss_mb: Vec<f64>,
    /// Reference routine timings from the run's calibration bursts, ms.
    pub ref_ms: Vec<f64>,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations refused, errored or failed.
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// Batch output: interfaces and resolved interfaces of the map.
    pub map_counts: Option<(usize, usize)>,
    /// Campaign numbers applied, in order.
    pub campaigns: Vec<u64>,
    /// KB flips applied, in order (`true` = restore).
    pub flips: Vec<(Listing, bool)>,
    /// Queries sent, in order.
    pub queries: Vec<Ipv4Addr>,
    /// The daemons' `api.query` spans.
    pub api_query: SpanTotal,
    /// The daemons' `api.delta` spans.
    pub api_delta: SpanTotal,
    /// The daemons' `serve.delta` spans.
    pub serve_delta: SpanTotal,
}

impl Measured {
    /// The samples of the workload's own operation.
    pub fn op_ms(&self, w: Workload) -> &[f64] {
        match w {
            Workload::BatchPaper => &self.run_ms,
            Workload::CampaignStream | Workload::KbFlipStream => &self.delta_ms,
            Workload::QuerySteady => &self.query_ms,
        }
    }

    /// The median of the workload's operation, ms, as measured on this
    /// host. Campaign deltas grow with the corpus by design, so their
    /// median is read off the run's trend line, from all 40 deltas rather
    /// than the one or two in the middle.
    pub fn op_p50_ms(&self, w: Workload) -> Option<f64> {
        if w == Workload::CampaignStream {
            stats::trend_median(self.op_ms(w))
        } else {
            stats::median(self.op_ms(w))
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    fn fail_query(&mut self, problem: String) {
        self.queries_failed += 1;
        self.fail(problem);
    }
}

/// Where a run finds the program and keeps its files.
pub struct Ctx {
    /// The `cfs` executable.
    pub cfs: PathBuf,
    /// Scratch directory.
    pub work: WorkDir,
}

impl Ctx {
    fn socket(&self) -> PathBuf {
        self.work.file("cfsd.sock")
    }
}

/// Runs one workload end to end.
pub fn run(w: Workload, ctx: &Ctx, st: &Settings) -> Result<Measured, String> {
    match w {
        Workload::BatchPaper => batch(ctx, st),
        Workload::CampaignStream => campaign_stream(ctx, st),
        Workload::KbFlipStream => kb_flip_stream(ctx, st),
        Workload::QuerySteady => query_steady(ctx, st),
    }
}

/// At least [`BATCH_RUNS`] `cfs run`s, more while they fit in the time,
/// with a calibration burst before each and after the last. A run
/// builds its world in-process, so from outside its set-up cannot be
/// told apart from the rest: each run is also the batch's set-up sample.
fn batch(ctx: &Ctx, st: &Settings) -> Result<Measured, String> {
    let scale = st.batch_scale().label();
    let seed = WORLD_SEED.to_string();
    let map = ctx.work.file("map.json");
    let mut m = Measured::default();
    let mut first: Option<Vec<u8>> = None;
    let start = Instant::now();
    while m.run_ms.len() < BATCH_RUNS || fits(start, m.run_ms.len() as u32, st.seconds) {
        let _ = std::fs::remove_file(&map);
        host::calibrate(&mut m.ref_ms, host::BURST);
        m.attempted += 1;
        // With one malloc arena the peak tracks live data; with one per
        // worker thread it depends on which threads allocated when, and
        // identical runs peak anywhere from 104 to 118 MB.
        let f = run_polled(
            Command::new(&ctx.cfs)
                .args(["run", "--scale", scale, "--seed", &seed, "--out"])
                .arg(&map)
                .env("MALLOC_ARENA_MAX", "1"),
        )?;
        if !f.ok {
            m.fail("cfs run exited unsuccessfully".into());
            break;
        }
        m.setup_s.push(f.wall_s);
        m.run_ms.push(f.wall_s * 1e3);
        m.peak_rss_mb.push(f.peak_rss_mb);
        let bytes = std::fs::read(&map).map_err(|e| format!("read map: {e}"))?;
        match &first {
            None => {
                m.map_counts = Some(map_counts(&bytes)?);
                first = Some(bytes);
            }
            Some(b) if *b != bytes => m.problems.push("maps differ between runs".into()),
            Some(_) => {}
        }
    }
    host::calibrate(&mut m.ref_ms, host::BURST);
    Ok(m)
}

/// Whether one more repetition, as long as the mean of the `done` ones
/// since `start`, still ends within `seconds`.
fn fits(start: Instant, done: u32, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + elapsed / f64::from(done.max(1)) <= seconds
}

/// Interfaces and resolved interfaces of an exported map.
fn map_counts(bytes: &[u8]) -> Result<(usize, usize), String> {
    let doc: Value = serde_json::from_str(&String::from_utf8_lossy(bytes))
        .map_err(|e| format!("map is not JSON: {e}"))?;
    let ifaces = doc["interfaces"]
        .as_array()
        .ok_or("map has no interfaces array")?;
    let resolved = ifaces.iter().filter(|i| !i["facility"].is_null()).count();
    Ok((ifaces.len(), resolved))
}

fn serve_args(scale: Scale, detect: bool) -> Vec<String> {
    let mut args = vec![
        "--scale".to_string(),
        scale.label().to_string(),
        "--seed".to_string(),
        WORLD_SEED.to_string(),
    ];
    if detect {
        args.push("--detect".to_string());
    }
    args
}

fn boot(ctx: &Ctx, m: &mut Measured, args: &[String]) -> Result<Daemon, String> {
    let (d, setup_s) = Daemon::boot(&ctx.cfs, &ctx.socket(), args)?;
    m.setup_s.push(setup_s);
    Ok(d)
}

fn reply_json(reply: &str) -> Result<Value, String> {
    serde_json::from_str(reply).map_err(|e| format!("reply is not JSON: {e}: {reply}"))
}

fn status_epoch(d: &Daemon) -> Result<u64, String> {
    let v = reply_json(&d.call(&request("status", ""))?)?;
    v["epoch"]
        .as_u64()
        .ok_or_else(|| "status reply without epoch".to_string())
}

/// Sends one delta, times it, and checks it was applied as the next
/// epoch.
fn delta(d: &Daemon, line: &str, epoch: &mut u64, m: &mut Measured) {
    m.attempted += 1;
    let t = Instant::now();
    let result = sys::call(d.endpoint(), line);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let (reply, connect_us) = match result {
        Ok(r) => r,
        Err(e) => return m.fail(format!("delta: {e}")),
    };
    m.connect_us.push(connect_us);
    let v = match reply_json(&reply) {
        Ok(v) if v["ok"].as_bool() == Some(true) => v,
        Ok(_) => return m.fail(format!("delta refused: {reply}")),
        Err(e) => return m.fail(e),
    };
    m.delta_ms.push(ms);
    if v["epoch"].as_u64() != Some(*epoch + 1) {
        m.problems.push(format!(
            "delta moved epoch {epoch} to {}",
            v["epoch"].as_u64().unwrap_or(0)
        ));
    }
    *epoch += 1;
}

/// Checks a query reply: `ok`, the requested interface echoed, and,
/// when known, the expected candidate count and outcome.
fn check_query(reply: &str, ip: Ipv4Addr, expect: Option<&(u64, String)>) -> Result<(), String> {
    let v = reply_json(reply)?;
    if v["ok"].as_bool() != Some(true) {
        return Err(format!("query {ip} refused: {reply}"));
    }
    if v["iface"] != ip.to_string() {
        return Err(format!(
            "query {ip} answered for {}",
            v["iface"].as_str().unwrap_or("?")
        ));
    }
    if let Some((candidates, outcome)) = expect {
        if v["candidates"].as_u64() != Some(*candidates) || v["outcome"] != *outcome {
            return Err(format!(
                "query {ip}: want {candidates} candidates/{outcome}, got {reply}"
            ));
        }
    }
    Ok(())
}

fn query_line(ip: Ipv4Addr) -> String {
    request("query", &format!(",\"iface\":\"{ip}\""))
}

/// Reads peak memory, the canonical trace and the per-op server timings
/// from a daemon, then shuts it down.
fn finish(d: Daemon, m: &mut Measured) -> Result<String, String> {
    m.peak_rss_mb.push(d.peak_rss_mb()?);
    let trace = d.call(&request("trace", ""))?;
    let doc = peel_trace(&trace)?;
    let metrics = reply_json(&d.call(&request("metrics", ""))?)?;
    let durations = &metrics["metrics"]["totals"]["durations"];
    let total = |name: &str| SpanTotal {
        count: durations[name]["count"].as_u64().unwrap_or(0),
        total_ms: durations[name]["total_ns"].as_f64().unwrap_or(0.0) / 1e6,
    };
    m.api_query.add(total("api.query"));
    m.api_delta.add(total("api.delta"));
    m.serve_delta.add(total("serve.delta"));
    d.shutdown()?;
    Ok(doc)
}

/// The `cfs-trace/1` document inside a `trace` reply.
fn peel_trace(reply: &str) -> Result<String, String> {
    let prefix = format!("{{\"schema\":\"{SCHEMA}\",\"ok\":true,\"trace\":");
    reply
        .strip_prefix(&prefix)
        .and_then(|r| r.strip_suffix('}'))
        .map(str::to_string)
        .ok_or_else(|| format!("not a trace reply: {:.80}", reply))
}

/// Boots a detecting daemon [`SETUPS`] times (each boot a set-up
/// sample) and has the last one absorb [`Settings::campaigns`] campaign
/// deltas back to back, from the bootstrap corpus on, with a calibration
/// burst before the boots and one reference run after each delta.
fn campaign_stream(ctx: &Ctx, st: &Settings) -> Result<Measured, String> {
    let scale = st.serve_scale();
    let lab = inputs::provision(scale)?;
    let engine = Engine::new(&lab.topo);
    let numbers = inputs::campaign_numbers(st.seed, st.campaigns());
    // What the daemon must serve after the deltas: a fresh batch over
    // the same inputs.
    let want = {
        let session = inputs::serve_session(&lab, &engine, &numbers, Arc::new(NoopRecorder));
        canonical_trace(session.report().ok_or("fresh session did not converge")?)
    };

    let mut m = Measured::default();
    let args = serve_args(scale, true);
    host::calibrate(&mut m.ref_ms, host::BURST);
    for _ in 1..SETUPS {
        boot(ctx, &mut m, &args)?.shutdown()?;
    }
    let daemon = boot(ctx, &mut m, &args)?;
    let mut epoch = status_epoch(&daemon)?;
    for &k in &numbers {
        let line = request("delta", &format!(",\"kind\":\"campaign\",\"campaign\":{k}"));
        delta(&daemon, &line, &mut epoch, &mut m);
        host::calibrate(&mut m.ref_ms, 1);
    }
    if finish(daemon, &mut m)? != want {
        m.problems
            .push("daemon map differs from a fresh batch over the same campaigns".into());
    }
    m.campaigns = numbers;
    Ok(m)
}

/// An open-loop query stream that runs beside a closed-loop writer.
struct Stream<'a> {
    /// Interfaces to query, cycled.
    order: &'a [Ipv4Addr],
    /// One query every `period_ms`…
    period_ms: f64,
    /// …from this seeded offset on.
    phase_ms: f64,
}

impl Stream<'_> {
    /// Runs `writer` on this thread and the query generator on a scoped
    /// one until the writer returns. The writer calls `settle` after each
    /// request it sends.
    fn run(
        &self,
        daemon: &Daemon,
        m: &mut Measured,
        writer: impl FnOnce(&mut Measured, &dyn Fn()),
    ) -> Result<(), String> {
        let drain = Drain::new(self.phase_ms);
        let first = m.queries.len();
        let start = Instant::now();
        let elapsed_ms = || start.elapsed().as_secs_f64() * 1e3;
        let reader = std::thread::scope(|s| {
            let reader = s.spawn(|| open_loop(daemon.endpoint(), self, first, start, &drain));
            writer(m, &|| drain.wait_past(elapsed_ms()));
            drain.end(elapsed_ms());
            reader.join()
        });
        let r = reader.map_err(|_| "query generator panicked".to_string())?;
        m.attempted += r.attempted;
        m.queries_attempted += r.attempted;
        m.queries_failed += r.failed.len() as u64;
        m.failed += r.failed.len() as u64;
        m.problems.extend(r.failed);
        m.query_ms.extend(r.latency_ms);
        m.gen_late_ms.extend(r.late_ms);
        m.connect_us.extend(r.connect_us);
        m.queries.extend(r.sent);
        Ok(())
    }
}

/// What the open-loop query generator saw.
#[derive(Default)]
struct Reader {
    attempted: u64,
    failed: Vec<String>,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    connect_us: Vec<f64>,
    sent: Vec<Ipv4Addr>,
}

/// Keeps the two stream clients in the order independent users would
/// reach the daemon's FIFO accept queue. Users querying while a delta
/// runs all queue ahead of the next delta; one generator connection
/// cannot hold them all queued, so after each delta the writer waits
/// until every query due before that delta ended has been answered.
struct Drain {
    state: Mutex<DrainState>,
    moved: Condvar,
}

struct DrainState {
    /// Due time of the generator's next query, ms from the stream start;
    /// infinite once it has stopped.
    next_due_ms: f64,
    /// When the writer applied its last delta; infinite until then.
    writer_end_ms: f64,
}

impl Drain {
    fn new(first_due_ms: f64) -> Self {
        Self {
            state: Mutex::new(DrainState {
                next_due_ms: first_due_ms,
                writer_end_ms: f64::INFINITY,
            }),
            moved: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DrainState> {
        self.state
            .lock()
            .expect("drain lock poisoned by a panicking client")
    }

    /// The generator's next query is due at `next_due_ms`.
    fn advance(&self, next_due_ms: f64) {
        self.lock().next_due_ms = next_due_ms;
        self.moved.notify_all();
    }

    /// Blocks the writer until no query due at or before `t_ms` is
    /// outstanding.
    fn wait_past(&self, t_ms: f64) {
        let mut st = self.lock();
        while st.next_due_ms <= t_ms {
            st = self
                .moved
                .wait(st)
                .expect("drain lock poisoned by a panicking client");
        }
    }

    /// The writer is done; queries due after `t_ms` are not sent.
    fn end(&self, t_ms: f64) {
        self.lock().writer_end_ms = t_ms;
    }

    fn ended_before(&self, due_ms: f64) -> bool {
        self.lock().writer_end_ms < due_ms
    }
}

/// Sends one query per period from the stream's phase on, each on its
/// own connection, until the writer is done, continuing the interface
/// order at `first`. Latency counts from the due time, so a query stuck
/// behind a delta also charges the wait it imposes on the queries due
/// after it.
fn open_loop(
    endpoint: &Endpoint,
    stream: &Stream<'_>,
    first: usize,
    start: Instant,
    drain: &Drain,
) -> Reader {
    let mut r = Reader::default();
    let order = stream.order;
    for i in 0.. {
        let due_ms = stream.phase_ms + i as f64 * stream.period_ms;
        drain.advance(due_ms);
        let due = start + Duration::from_secs_f64(due_ms / 1e3);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if order.is_empty() || drain.ended_before(due_ms) {
            break;
        }
        let sent = Instant::now();
        r.late_ms
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        let ip = order[(first + i) % order.len()];
        r.attempted += 1;
        r.sent.push(ip);
        match sys::call(endpoint, &query_line(ip)) {
            Ok((reply, connect_us)) => {
                let done = Instant::now();
                if let Err(e) = check_query(&reply, ip, None) {
                    r.failed.push(e);
                    continue;
                }
                r.latency_ms
                    .push(done.saturating_duration_since(due).as_secs_f64() * 1e3);
                r.connect_us.push(connect_us);
            }
            Err(e) => r.failed.push(format!("query {ip}: {e}")),
        }
    }
    drain.advance(f64::INFINITY);
    r
}

/// [`SETUPS`] daemons in turn, each absorbing withdraw/restore pairs
/// back to back for its share of the time while open-loop queries
/// arrive at 200/s, with a calibration burst before each boot and after
/// the last daemon. Each share ends on a restore, so every daemon's
/// final map must equal its boot map.
fn kb_flip_stream(ctx: &Ctx, st: &Settings) -> Result<Measured, String> {
    let scale = st.serve_scale();
    let lab = inputs::provision(scale)?;
    let listings = inputs::restorable_listings(&lab.sources, st.seed);
    if listings.is_empty() {
        return Err("world has no restorable listings".into());
    }
    let engine = Engine::new(&lab.topo);
    let session = inputs::serve_session(&lab, &engine, &[], Arc::new(NoopRecorder));
    let report = session.report().ok_or("boot session did not converge")?;
    let order = inputs::query_order(report, st.seed);
    let boot_want = canonical_trace(report);
    let stream = Stream {
        order: &order,
        period_ms: FLIP_QUERY_PERIOD_MS,
        phase_ms: inputs::arrival_phase_ms(st.seed, FLIP_QUERY_PERIOD_MS),
    };

    let mut m = Measured::default();
    let share = st.seconds / SETUPS as f64;
    let mut pair = 0usize;
    for _ in 0..SETUPS {
        host::calibrate(&mut m.ref_ms, host::BURST);
        let daemon = boot(ctx, &mut m, &serve_args(scale, false))?;
        let boot_doc = peel_trace(&daemon.call(&request("trace", ""))?)?;
        if boot_doc != boot_want {
            m.problems
                .push("daemon boot map differs from the in-process boot session".into());
        }
        let mut epoch = status_epoch(&daemon)?;
        stream.run(&daemon, &mut m, |m, settle| {
            let start = Instant::now();
            let mut i = 0usize;
            while i < st.flip_cap() && (i % 2 == 1 || start.elapsed().as_secs_f64() < share) {
                let listing = listings[pair % listings.len()];
                let present = i % 2 == 1;
                let (asn, facility) = listing;
                let line = request(
                    "delta",
                    &format!(
                        ",\"kind\":\"kb-flip\",\"asn\":{},\"facility\":{},\"present\":{present}",
                        asn.raw(),
                        facility.raw()
                    ),
                );
                delta(&daemon, &line, &mut epoch, m);
                settle();
                m.flips.push((listing, present));
                pair += usize::from(present);
                i += 1;
            }
        })?;
        if finish(daemon, &mut m)? != boot_doc {
            m.problems
                .push("map after withdraw/restore pairs differs from the boot map".into());
        }
    }
    host::calibrate(&mut m.ref_ms, host::BURST);
    Ok(m)
}

/// [`SETUPS`] daemons in turn, each answering closed-loop queries on one
/// persistent connection for its share of the time, cycling over every
/// tracked interface, with a calibration burst before each boot and
/// after the last daemon; each answer is checked against an in-process
/// session.
fn query_steady(ctx: &Ctx, st: &Settings) -> Result<Measured, String> {
    let scale = st.serve_scale();
    let lab = inputs::provision(scale)?;
    let engine = Engine::new(&lab.topo);
    let session = inputs::serve_session(&lab, &engine, &[], Arc::new(NoopRecorder));
    let report = session.report().ok_or("boot session did not converge")?;
    let order = inputs::query_order(report, st.seed);
    if order.is_empty() {
        return Err("boot session tracks no interfaces".into());
    }
    let expected: Vec<(u64, String)> = order
        .iter()
        .map(|ip| {
            let a = session.query(*ip);
            (a.candidates as u64, format!("{:?}", a.outcome))
        })
        .collect();
    let lines: Vec<String> = order.iter().map(|ip| query_line(*ip)).collect();
    let want = canonical_trace(report);

    let mut m = Measured::default();
    let share = st.seconds / SETUPS as f64;
    let mut i = 0usize;
    for _ in 0..SETUPS {
        host::calibrate(&mut m.ref_ms, host::BURST);
        let daemon = boot(ctx, &mut m, &serve_args(scale, false))?;
        let t = Instant::now();
        let mut client = Client::connect(daemon.endpoint()).map_err(|e| format!("connect: {e}"))?;
        m.connect_us.push(t.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < share {
            let k = i % order.len();
            i += 1;
            m.attempted += 1;
            m.queries_attempted += 1;
            let t = Instant::now();
            let reply = match client.roundtrip(&lines[k]) {
                Ok(r) => r,
                Err(e) => {
                    m.fail_query(format!("query: {e}"));
                    break;
                }
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match check_query(&reply, order[k], Some(&expected[k])) {
                Ok(()) => {
                    m.query_ms.push(ms);
                    m.queries.push(order[k]);
                }
                Err(e) => m.fail_query(e),
            }
        }
        drop(client);
        if finish(daemon, &mut m)? != want {
            m.problems
                .push("daemon trace differs from the in-process boot session".into());
        }
    }
    host::calibrate(&mut m.ref_ms, host::BURST);
    Ok(m)
}
