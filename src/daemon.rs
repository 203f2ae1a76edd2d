//! `cfsd` as a library type: the serve-time state and request semantics
//! behind `cfs serve`, answerable in process.
//!
//! [`Daemon::handle`] answers one well-formed `cfs-api/1` [`Request`]
//! with exactly the [`Outcome`] the socket daemon sends, so tests and
//! benches drive the daemon without a subprocess, a socket, or a sleep;
//! `cfs serve` is only `Server::serve(|r| daemon.handle(r))`.
//!
//! The session borrows what it reads, so [`Daemon`] borrows a
//! [`Substrate`] (the experiment crate's engine stack and boot knowledge
//! base over a [`Lab`]) and seasons its session through [`Lab::session`],
//! exactly as every batch run does. It owns everything a request
//! mutates: the session, the daemon's view of the public sources
//! (kb-flip deltas edit it in place so flips compose), the metrics
//! windows, the event log, and the optional disruption detector.
//!
//! The type lives in the root crate rather than `cfs-svc`: the service
//! crate is transport and protocol only and knows nothing of the engine,
//! while the daemon needs the experiment [`Lab`] its worlds come from.

use std::net::Ipv4Addr;
use std::sync::Arc;

use cfs_core::{canonical_trace, CfsConfig, CfsSession, DataQualityReport, Delta, DeltaOutcome};
use cfs_detect::{Detector, DetectorConfig, EpochObservation};
use cfs_experiments::{Lab, Substrate};
use cfs_kb::PublicSources;
use cfs_obs::{
    Clock, EventKind, EventLog, Monotonic, NoopRecorder, Recorder, Severity, WindowedRecorder,
};
use cfs_svc::{ApiError, Outcome, Reply, Request};
use cfs_traceroute::ProbeService;
use cfs_types::{Asn, Error, FacilityId, Result, VantagePointId};

/// How many closed metrics windows the daemon retains (one minute at
/// the default one-second window).
const WINDOWS_KEPT: usize = 60;

/// How many events the daemon's in-memory ring retains.
const EVENT_CAP: usize = 256;

/// The `cfs serve` switches that shape a daemon's boot.
#[derive(Debug)]
pub struct DaemonOptions {
    /// Follow-on campaigns `1..=campaigns` ingested before the first
    /// convergence (`--campaigns`).
    pub campaigns: u64,
    /// Run the rolling-baseline divergence detector (`--detect`).
    pub detect: bool,
    /// Metrics window width in milliseconds (`--window-ms`).
    pub window_ms: u64,
    /// Streams every event as a `cfs-log/1` line (`--log`).
    pub log: Option<std::fs::File>,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        Self {
            campaigns: 0,
            detect: false,
            window_ms: 1_000,
            log: None,
        }
    }
}

/// The last data-quality totals the event log has reported, so only
/// *increases* become events.
#[derive(Default)]
struct DqSeen {
    breaker_trips: u64,
    widened_interfaces: u64,
}

impl DqSeen {
    /// Emits the breaker trips and metro-widened interfaces `dq` adds
    /// over what was last seen. Boot is the same rule from zero.
    fn emit_increase(&mut self, dq: &DataQualityReport, events: &EventLog) {
        if dq.vp_breaker_trips > self.breaker_trips {
            events.emit(EventKind::BreakerTrip {
                trips: dq.vp_breaker_trips - self.breaker_trips,
            });
            self.breaker_trips = dq.vp_breaker_trips;
        }
        if dq.widened_interfaces > self.widened_interfaces {
            events.emit(EventKind::WidenedInterfaces {
                count: dq.widened_interfaces - self.widened_interfaces,
            });
            self.widened_interfaces = dq.widened_interfaces;
        }
    }
}

/// A resident CFS session answering `cfs-api/1` requests.
pub struct Daemon<'w> {
    lab: &'w Lab,
    engine: &'w dyn ProbeService,
    session: CfsSession<'w>,
    /// The daemon's view of the public sources; kb-flip deltas edit it.
    sources: PublicSources,
    windows: Arc<WindowedRecorder>,
    events: EventLog,
    dq_seen: DqSeen,
    /// Present under `--detect`. A detection-off daemon still answers
    /// `alerts` (empty list, unmoved cursor): clients need no
    /// capability probe.
    detector: Option<Detector>,
}

impl<'w> Daemon<'w> {
    /// Seasons a resident session through [`Lab::session`], ingests
    /// `opts.campaigns` follow-on campaigns, converges it, and logs the
    /// boot. Refuses a campaign count past [`Lab::MAX_CAMPAIGN`] before
    /// probing anything.
    pub fn boot(substrate: &'w Substrate<'_>, opts: DaemonOptions) -> Result<Self> {
        if opts.campaigns > Lab::MAX_CAMPAIGN {
            return Err(Error::invalid(format!(
                "--campaigns {} is past the last campaign, {}",
                opts.campaigns,
                Lab::MAX_CAMPAIGN
            )));
        }
        let lab = substrate.lab();
        let engine = substrate.engine();
        // One real clock shared by the windows, the event log, and the
        // detector, so alert `t_ns` values share the metrics timeline.
        // The windows are the daemon's only collector: nothing would
        // read an inner trace recorder, so they wrap the no-op one.
        // None of it touches the canonical trace: `trace` replies are
        // rebuilt from the report.
        let clock = Arc::new(Monotonic::new());
        let windows = Arc::new(WindowedRecorder::new(
            Arc::new(NoopRecorder),
            clock.clone(),
            opts.window_ms.saturating_mul(1_000_000),
            WINDOWS_KEPT,
        ));
        let mut events = EventLog::new(clock.clone(), EVENT_CAP);
        if let Some(file) = opts.log {
            events = events.with_sink(file);
        }
        let mut detector = opts.detect.then(|| {
            Detector::new(
                DetectorConfig::default(),
                lab.locus_names(),
                clock.clone() as Arc<dyn Clock>,
            )
        });

        // Follow-up-less: `apply_delta` refuses deltas on a session that
        // runs targeted follow-ups (see `CfsSession::apply_delta`).
        let config = CfsConfig {
            followup_interfaces: 0,
            ..CfsConfig::default()
        };
        let mut session = lab.session(engine, substrate.kb(), config, windows.clone(), None);
        // The detector replays the pre-ingested *campaigns* against the
        // converged report so its baselines are as warm as the session.
        // The bootstrap batch is deliberately not observed: its archived
        // iPlane/Ark sweeps reach interfaces no periodic campaign
        // revisits, and a baseline seeded from that wider coverage would
        // read every sweep-only facility as a permanent outage.
        let mut pending_obs: Vec<EpochObservation> = Vec::new();
        for k in 1..=opts.campaigns {
            let traces = lab.campaign(engine, k);
            if detector.is_some() {
                pending_obs.push(EpochObservation::from_traces(k, &traces));
            }
            session.ingest(traces);
        }
        let report = session.converge();
        if let Some(det) = detector.as_mut() {
            for obs in &pending_obs {
                det.observe(obs, report);
            }
        }
        events.emit(EventKind::SessionConverged {
            epoch: 1, // a session's first convergence is epoch 1
            resolved: report.resolved() as u64,
            total: report.total() as u64,
        });
        let mut dq_seen = DqSeen::default();
        dq_seen.emit_increase(&report.data_quality, &events);
        Ok(Self {
            lab,
            engine,
            session,
            sources: substrate.sources().clone(),
            windows,
            events,
            dq_seen,
            detector,
        })
    }

    /// The resident session (read-only: writes go through requests).
    pub fn session(&self) -> &CfsSession<'w> {
        &self.session
    }

    /// The live `cfs-metrics/1` snapshot, as the `metrics` op embeds it.
    pub fn metrics_json(&self) -> String {
        self.windows.render_metrics_json()
    }

    /// Answers one request, counting it and timing it into the metrics
    /// windows under its op's span (`api.query`, `api.delta`, …).
    pub fn handle(&mut self, req: Request) -> Outcome {
        let op = op_span_name(&req);
        self.windows.counter("api.requests", 1);
        let start = self.windows.span_start();
        let out = self.dispatch(req);
        self.windows.span_end(op, start);
        out
    }

    fn dispatch(&mut self, req: Request) -> Outcome {
        match req {
            Request::Status => {
                let Some(report) = self.session.report() else {
                    return unconverged();
                };
                Outcome::reply(
                    Reply::ok()
                        .str("state", "serving")
                        .u64("epoch", self.session.epoch())
                        .u64("interfaces", report.total() as u64)
                        .u64("resolved", report.resolved() as u64)
                        .u64("links", report.links.len() as u64)
                        .finish(),
                )
            }
            Request::Query { iface } => self.answer_query(&iface),
            Request::Trace => match self.session.report() {
                Some(report) => {
                    Outcome::reply(Reply::ok().raw("trace", &canonical_trace(report)).finish())
                }
                None => unconverged(),
            },
            Request::Metrics => {
                Outcome::reply(Reply::ok().raw("metrics", &self.metrics_json()).finish())
            }
            Request::Events {
                since,
                min_severity,
            } => drain_reply(
                "events",
                self.events.since(since),
                min_severity.as_deref(),
                |e| e.kind.severity(),
                |e| e.render_json(),
            ),
            Request::Alerts {
                since,
                min_severity,
            } => drain_reply(
                "alerts",
                self.detector
                    .as_ref()
                    .map_or((Vec::new(), since), |d| d.alerts().since(since)),
                min_severity.as_deref(),
                |a| a.severity,
                |a| a.render_json(),
            ),
            Request::Shutdown => Outcome::last(
                Reply::ok()
                    .str("state", "stopping")
                    .u64("epoch", self.session.epoch())
                    .finish(),
            ),
            Request::DeltaCampaign { campaign } => {
                if campaign == 0 || campaign > Lab::MAX_CAMPAIGN {
                    return refuse(ApiError::new(
                        "bad_delta",
                        format!(
                            "campaign numbers run from 1 to {} (0 is the bootstrap campaign)",
                            Lab::MAX_CAMPAIGN
                        ),
                    ));
                }
                let traces = self.lab.campaign(self.engine, campaign);
                // Summarize the raw batch before apply_delta consumes
                // it: per-epoch visibility comes from what this batch
                // saw, not from the session's cumulative state.
                let obs = self
                    .detector
                    .as_ref()
                    .map(|_| EpochObservation::from_traces(campaign, &traces));
                let result = self.session.apply_delta(Delta::TracerouteBatch(traces));
                if let (Ok(_), Some(det), Some(obs), Some(report)) = (
                    &result,
                    self.detector.as_mut(),
                    obs.as_ref(),
                    self.session.report(),
                ) {
                    let emitted = det.observe(obs, report);
                    self.windows.counter("detect.alerts", emitted.len() as u64);
                }
                self.delta_reply("campaign", result)
            }
            Request::DeltaKbFlip {
                asn,
                facility,
                present,
            } => {
                let target = Asn(asn);
                let facility = FacilityId::new(facility);
                if facility.raw() as usize >= self.lab.topo.facilities.len() {
                    return refuse(ApiError::new(
                        "bad_delta",
                        format!("no such facility: {facility}"),
                    ));
                }
                if !self.sources.set_listed(target, facility, present) {
                    return refuse(ApiError::new(
                        "bad_delta",
                        format!("{target} has no PeeringDB record in this world"),
                    ));
                }
                // The edit reaches only `target`'s listings, so the next
                // epoch re-derives that one network from the served one.
                let kb = self.session.kb().relist(&self.sources, target);
                let result = self.session.apply_delta(Delta::KbEpochFlip(Arc::new(kb)));
                if result.is_ok() {
                    self.events.emit(EventKind::KbFlip {
                        asn,
                        facility: facility.raw(),
                        present,
                    });
                }
                self.delta_reply("kb-flip", result)
            }
            Request::DeltaVpStatus { vp, up } => {
                let vp = VantagePointId::new(vp);
                if !self.lab.vps.ids().any(|i| i == vp) {
                    return refuse(ApiError::new(
                        "bad_delta",
                        format!("no such vantage point: {vp}"),
                    ));
                }
                let result = self.session.apply_delta(Delta::VpStatusChange { vp, up });
                self.delta_reply("vp-status", result)
            }
        }
    }

    /// Renders a `DeltaOutcome` (or the engine's refusal) as a response,
    /// and logs the applied delta — plus any data-quality regressions the
    /// re-convergence surfaced — into the event stream.
    fn delta_reply(&mut self, kind: &'static str, result: Result<DeltaOutcome>) -> Outcome {
        let o = match result {
            Ok(o) => o,
            Err(e) => return refuse(ApiError::new("internal", e.to_string())),
        };
        self.events.emit(EventKind::DeltaApplied {
            kind,
            epoch: o.epoch,
            dirty: o.dirty as u64,
            reconverged: o.reconverged as u64,
        });
        if let Some(report) = self.session.report() {
            self.dq_seen
                .emit_increase(&report.data_quality, &self.events);
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

    /// Answers a `query` op: `bad_iface` when the address does not
    /// parse, `unknown_iface` when the session never observed it,
    /// otherwise the facility/method/confidence verdict from the cached
    /// report.
    fn answer_query(&self, iface: &str) -> Outcome {
        let Ok(ip) = iface.parse::<Ipv4Addr>() else {
            return refuse(ApiError::new(
                "bad_iface",
                format!("not an IPv4 address: {iface:?}"),
            ));
        };
        let tracked = self
            .session
            .report()
            .is_some_and(|r| r.interfaces.contains_key(&ip));
        if !tracked {
            return refuse(ApiError::new(
                "unknown_iface",
                format!("{ip} was never observed by this session"),
            ));
        }
        let a = self.session.query(ip);
        let topo = &self.lab.topo;
        Outcome::reply(
            Reply::ok()
                .str("iface", &ip.to_string())
                .opt_u64("owner", a.owner.map(|x| u64::from(x.raw())))
                .opt_str(
                    "facility",
                    a.facility
                        .and_then(|f| topo.facilities.get(f))
                        .map(|fac| fac.name.as_str()),
                )
                .opt_str("metro", a.metro.map(|m| topo.world.metro(m).name.as_str()))
                .u64("candidates", a.candidates as u64)
                .str("outcome", &format!("{:?}", a.outcome))
                .str("method", a.method)
                .f64("confidence", a.confidence)
                .u64("epoch", a.epoch)
                .finish(),
        )
    }
}

/// The span name timing one request, by op.
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

/// A typed `ok:false` reply that keeps the daemon serving.
fn refuse(e: ApiError) -> Outcome {
    Outcome::reply(e.to_response())
}

/// The refusal of a read that needs the converged report.
fn unconverged() -> Outcome {
    refuse(ApiError::new(
        "internal",
        "session has not converged a report yet",
    ))
}

/// The cursor-drain reply `events` and `alerts` share: the drained
/// records at or above the `min_severity` floor as a JSON array, plus
/// the `next` cursor, which advances past filtered records too.
fn drain_reply<T>(
    member: &str,
    (drained, next): (Vec<T>, u64),
    min_severity: Option<&str>,
    severity: impl Fn(&T) -> Severity,
    render: impl Fn(&T) -> String,
) -> Outcome {
    // The parser pinned the vocabulary, so any other label is
    // unreachable; it gets the lowest floor regardless.
    let floor = match min_severity {
        Some("error") => Severity::Error,
        Some("warn") => Severity::Warn,
        _ => Severity::Info,
    };
    let kept: Vec<String> = drained
        .iter()
        .filter(|r| severity(r) >= floor)
        .map(render)
        .collect();
    Outcome::reply(
        Reply::ok()
            .u64("next", next)
            .raw(member, &format!("[{}]", kept.join(",")))
            .finish(),
    )
}
