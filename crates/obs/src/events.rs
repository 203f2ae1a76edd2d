//! The structured event log: `cfs-log/1`.
//!
//! Counters say *how much*; events say *what happened*. A resident
//! daemon emits one [`Event`] per state transition worth telling an
//! operator about — the session converged, a delta landed, a circuit
//! breaker tripped, the knowledge base flipped epochs, an interface had
//! to be metro-widened — into a bounded in-memory ring that the
//! `events` op drains by cursor, and optionally onto a line-delimited
//! file sink for tailing.
//!
//! Events are typed ([`EventKind`]) rather than free-form strings, so
//! consumers can filter mechanically, and each kind carries a default
//! [`Severity`]. Timestamps come from the injected [`Clock`] — the log
//! follows the same no-wall-time discipline as every other obs surface,
//! and none of it ever enters the trace digest.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex};

use crate::clock::Clock;

/// Schema identifier stamped into every rendered event line.
pub const LOG_SCHEMA: &str = "cfs-log/1";

/// How loudly an event should be surfaced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Routine lifecycle: convergence, applied deltas.
    Info,
    /// Degradation the service absorbed: breaker trips, widening.
    Warn,
    /// A failure the service could not absorb.
    Error,
}

impl Severity {
    /// The stable lowercase label (`info` / `warn` / `error`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// What happened. Each variant carries the facts an operator (or the
/// future disruption detector) needs without re-querying the session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The session finished (re)converging a report.
    SessionConverged {
        /// Report epoch after convergence.
        epoch: u64,
        /// Interfaces resolved to a facility.
        resolved: u64,
        /// Interfaces tracked in total.
        total: u64,
    },
    /// A delta was applied and the dirty frontier re-converged.
    DeltaApplied {
        /// The wire kind (`campaign`, `kb-flip`, `vp-status`).
        kind: &'static str,
        /// Report epoch after the delta.
        epoch: u64,
        /// Interfaces invalidated by the delta.
        dirty: u64,
        /// Interfaces re-converged (dirty frontier closure).
        reconverged: u64,
    },
    /// Vantage-point circuit breakers tripped during re-convergence.
    BreakerTrip {
        /// Newly observed trips (not the lifetime total).
        trips: u64,
    },
    /// One AS↔facility listing flipped in the knowledge base.
    KbFlip {
        /// The AS whose footprint changed.
        asn: u32,
        /// The facility listed or delisted.
        facility: u32,
        /// Whether the listing exists in the new epoch.
        present: bool,
    },
    /// Interfaces fell back to metro-widened candidate sets.
    WidenedInterfaces {
        /// Newly widened interfaces (not the lifetime total).
        count: u64,
    },
}

impl EventKind {
    /// The stable event-kind code on the wire.
    pub fn code(&self) -> &'static str {
        match self {
            EventKind::SessionConverged { .. } => "session-converged",
            EventKind::DeltaApplied { .. } => "delta-applied",
            EventKind::BreakerTrip { .. } => "breaker-trip",
            EventKind::KbFlip { .. } => "kb-flip",
            EventKind::WidenedInterfaces { .. } => "widened-interfaces",
        }
    }

    /// The severity this kind defaults to.
    pub fn severity(&self) -> Severity {
        match self {
            EventKind::BreakerTrip { .. } | EventKind::WidenedInterfaces { .. } => Severity::Warn,
            _ => Severity::Info,
        }
    }

    fn push_fields(&self, out: &mut String) {
        match self {
            EventKind::SessionConverged {
                epoch,
                resolved,
                total,
            } => out.push_str(&format!(
                ",\"epoch\":{epoch},\"resolved\":{resolved},\"total\":{total}"
            )),
            EventKind::DeltaApplied {
                kind,
                epoch,
                dirty,
                reconverged,
            } => out.push_str(&format!(
                ",\"kind\":\"{kind}\",\"epoch\":{epoch},\"dirty\":{dirty},\
                 \"reconverged\":{reconverged}"
            )),
            EventKind::BreakerTrip { trips } => out.push_str(&format!(",\"trips\":{trips}")),
            EventKind::KbFlip {
                asn,
                facility,
                present,
            } => out.push_str(&format!(
                ",\"asn\":{asn},\"facility\":{facility},\"present\":{present}"
            )),
            EventKind::WidenedInterfaces { count } => out.push_str(&format!(",\"count\":{count}")),
        }
    }
}

/// One logged event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotone sequence number, 0-based; the drain cursor's unit.
    pub seq: u64,
    /// Clock nanoseconds at emission.
    pub t_ns: u64,
    /// Surfacing level.
    pub severity: Severity,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Renders the event as one `cfs-log/1` JSON line (no trailing
    /// newline). All field values are numeric or controlled literals,
    /// so no escaping is needed.
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"{LOG_SCHEMA}\",\"seq\":{},\"t_ns\":{},\"severity\":\"{}\",\
             \"event\":\"{}\"",
            self.seq,
            self.t_ns,
            self.severity.as_str(),
            self.kind.code()
        );
        self.kind.push_fields(&mut out);
        out.push('}');
        out
    }
}

struct RingState<T> {
    next_seq: u64,
    ring: VecDeque<T>,
}

/// A bounded in-memory record ring drained by sequence cursor: the
/// store behind both the `cfs-log/1` event log and the `cfs-alerts/1`
/// alert log.
///
/// Every pushed record is stamped with the next sequence number and the
/// clock's time. The ring keeps the most recent `cap` records; older ones
/// are evicted. [`CursorRing::since`] drains by cursor, so pollers never
/// see a record twice, and a first returned `seq` greater than the
/// cursor betrays eviction.
pub struct CursorRing<T> {
    clock: Arc<dyn Clock>,
    cap: usize,
    state: Mutex<RingState<T>>,
}

impl<T: Clone> CursorRing<T> {
    /// A ring keeping the most recent `cap` records (at least one).
    pub fn new(clock: Arc<dyn Clock>, cap: usize) -> Self {
        Self {
            clock,
            cap: cap.max(1),
            state: Mutex::new(RingState {
                next_seq: 0,
                ring: VecDeque::new(),
            }),
        }
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut RingState<T>) -> R) -> R {
        let mut guard = match self.state.lock() {
            Ok(g) => g,
            // Same poisoning stance as the windowed recorder: the ring
            // holds plain values, recover and keep serving.
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut guard)
    }

    /// Builds a record from its sequence number and the clock's time
    /// (`make(seq, t_ns)`), retains it, and returns it.
    pub fn push(&self, make: impl FnOnce(u64, u64) -> T) -> T {
        let t_ns = self.clock.now_ns();
        self.with_state(|st| {
            let record = make(st.next_seq, t_ns);
            st.next_seq += 1;
            st.ring.push_back(record.clone());
            if st.ring.len() > self.cap {
                st.ring.pop_front();
            }
            record
        })
    }

    /// Every retained record with `seq >= cursor`, oldest first, plus
    /// the next cursor (one past the newest record ever pushed).
    pub fn since(&self, cursor: u64) -> (Vec<T>, u64) {
        self.with_state(|st| {
            // The retained records carry consecutive sequence numbers
            // ending at `next_seq - 1`.
            let first = st.next_seq - st.ring.len() as u64;
            let skip = usize::try_from(cursor.saturating_sub(first)).unwrap_or(usize::MAX);
            (st.ring.iter().skip(skip).cloned().collect(), st.next_seq)
        })
    }
}

/// The event log: a [`CursorRing`] of events with an optional file sink.
/// Evicted events remain on the sink, if any.
pub struct EventLog {
    ring: CursorRing<Event>,
    sink: Option<Mutex<std::fs::File>>,
}

impl EventLog {
    /// An event log keeping the most recent `cap` events.
    pub fn new(clock: Arc<dyn Clock>, cap: usize) -> Self {
        Self {
            ring: CursorRing::new(clock, cap),
            sink: None,
        }
    }

    /// Additionally streams every event to `file` as `cfs-log/1` JSON
    /// lines. Write failures are swallowed: the sink is best-effort,
    /// telemetry must never take the service down.
    pub fn with_sink(mut self, file: std::fs::File) -> Self {
        self.sink = Some(Mutex::new(file));
        self
    }

    /// Emits an event at its kind's default severity; returns its
    /// sequence number.
    pub fn emit(&self, kind: EventKind) -> u64 {
        self.emit_with(kind.severity(), kind)
    }

    /// Emits an event at an explicit severity; returns its sequence
    /// number.
    pub fn emit_with(&self, severity: Severity, kind: EventKind) -> u64 {
        let event = self.ring.push(|seq, t_ns| Event {
            seq,
            t_ns,
            severity,
            kind,
        });
        if let Some(sink) = &self.sink {
            let mut file = match sink.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            let _ = writeln!(file, "{}", event.render_json());
        }
        event.seq
    }

    /// Every retained event with `seq >= cursor` and the next cursor
    /// ([`CursorRing::since`]).
    pub fn since(&self, cursor: u64) -> (Vec<Event>, u64) {
        self.ring.since(cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Virtual;

    fn log(cap: usize) -> (Arc<Virtual>, EventLog) {
        let clock = Arc::new(Virtual::new());
        let log = EventLog::new(clock.clone(), cap);
        (clock, log)
    }

    #[test]
    fn cursor_drain_never_replays() {
        let (clock, log) = log(8);
        log.emit(EventKind::SessionConverged {
            epoch: 1,
            resolved: 10,
            total: 12,
        });
        clock.advance(1_000);
        log.emit(EventKind::DeltaApplied {
            kind: "campaign",
            epoch: 2,
            dirty: 3,
            reconverged: 3,
        });
        let (first, next) = log.since(0);
        assert_eq!(first.len(), 2);
        assert_eq!(next, 2);
        assert_eq!(first[1].t_ns, 1_000);
        let (rest, next2) = log.since(next);
        assert!(rest.is_empty());
        assert_eq!(next2, 2);
        log.emit(EventKind::BreakerTrip { trips: 1 });
        let (tail, _) = log.since(next);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].severity, Severity::Warn);
    }

    #[test]
    fn ring_eviction_is_visible_in_the_cursor_gap() {
        let (_clock, log) = log(2);
        for i in 0..5 {
            log.emit(EventKind::WidenedInterfaces { count: i });
        }
        let (events, next) = log.since(0);
        assert_eq!(events.len(), 2, "ring keeps the newest cap events");
        assert_eq!(events[0].seq, 3, "seq gap betrays the eviction");
        assert_eq!(next, 5);
    }

    #[test]
    fn cursor_held_across_ring_wrap_resumes_without_replay_or_panic() {
        // A slow client drains to cursor 2, then the ring (cap 3) wraps
        // far past it. Resuming from the stale cursor must yield only
        // retained events at or after it — never a replay, never an
        // out-of-range error — and the fresh cursor must equal the total
        // emitted so the *next* drain is empty.
        let (_clock, log) = log(3);
        for i in 0..2 {
            log.emit(EventKind::WidenedInterfaces { count: i });
        }
        let (_, cursor) = log.since(0);
        assert_eq!(cursor, 2);
        for i in 2..9 {
            log.emit(EventKind::WidenedInterfaces { count: i });
        }
        let (events, next) = log.since(cursor);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8], "only the retained tail survives");
        assert_eq!(next, 9);
        let (rest, next2) = log.since(next);
        assert!(rest.is_empty(), "a caught-up cursor drains nothing");
        assert_eq!(next2, 9);
        // A cursor from the future (say, a client that out-lived a
        // daemon restart) degrades to an empty drain, not a panic.
        let (ahead, next3) = log.since(1_000);
        assert!(ahead.is_empty());
        assert_eq!(next3, 9);
    }

    #[test]
    fn json_lines_are_schema_stamped_and_typed() {
        let (_clock, log) = log(4);
        log.emit(EventKind::KbFlip {
            asn: 64500,
            facility: 7,
            present: false,
        });
        let (events, _) = log.since(0);
        let line = events[0].render_json();
        assert_eq!(
            line,
            "{\"schema\":\"cfs-log/1\",\"seq\":0,\"t_ns\":0,\"severity\":\"info\",\
             \"event\":\"kb-flip\",\"asn\":64500,\"facility\":7,\"present\":false}"
        );
    }

    #[test]
    fn sink_receives_every_line() {
        let dir = std::env::temp_dir().join(format!("cfs-log-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.jsonl");
        {
            let clock = Arc::new(Virtual::new());
            let file = std::fs::File::create(&path).expect("create sink");
            let log = EventLog::new(clock, 1).with_sink(file);
            log.emit(EventKind::BreakerTrip { trips: 2 });
            log.emit(EventKind::WidenedInterfaces { count: 4 });
        }
        let written = std::fs::read_to_string(&path).expect("read sink");
        let lines: Vec<&str> = written.lines().collect();
        assert_eq!(lines.len(), 2, "eviction does not touch the sink");
        assert!(lines[0].contains("\"event\":\"breaker-trip\""));
        assert!(lines[1].contains("\"severity\":\"warn\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
