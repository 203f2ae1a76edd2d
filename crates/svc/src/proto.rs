//! The `cfs-api/1` wire protocol: versioned request parsing and
//! response assembly with typed errors.
//!
//! Every message — request and response — is one line of JSON whose
//! first obligation is `"schema":"cfs-api/1"`. A client talking a future
//! `cfs-api/2` gets a clean `unknown_schema` error instead of silent
//! misinterpretation, exactly how `cfs check` treats trace
//! documents it does not speak.
//!
//! ## Requests
//!
//! | `op`       | members                                  | meaning                              |
//! |------------|------------------------------------------|--------------------------------------|
//! | `status`   | —                                        | session stats + epoch                |
//! | `query`    | `iface: "a.b.c.d"`                       | facility/method/confidence lookup    |
//! | `delta`    | `kind: "kb-flip"`, `asn`, `facility`, `present` | flip one AS↔facility listing  |
//! | `delta`    | `kind: "campaign"`, `campaign`           | ingest deterministic campaign *k*    |
//! | `delta`    | `kind: "vp-status"`, `vp`, `up`          | mark a vantage point down/up         |
//! | `trace`    | —                                        | canonical `cfs-trace/1` document     |
//! | `metrics`  | —                                        | `cfs-metrics/1` window snapshot      |
//! | `events`   | `since` (optional, default 0), `min_severity` (optional: `info`\|`warn`\|`error`) | drain `cfs-log/1` events from cursor |
//! | `alerts`   | `since` (optional, default 0), `min_severity` (optional: `info`\|`warn`\|`error`) | drain `cfs-alerts/1` alerts from cursor |
//! | `shutdown` | —                                        | stop the daemon after responding     |
//!
//! ## Error codes
//!
//! `unknown_schema`, `bad_request`, `unknown_op`, `bad_iface`,
//! `unknown_iface`, `bad_delta`, `internal` — stable strings pinned by
//! the CLI tests; new codes may be added, existing ones never change
//! meaning.

use cfs_obs::export::escape;
use serde_json::Value;

/// The protocol version tag every request and response carries.
pub const SCHEMA: &str = "cfs-api/1";

/// A parsed `cfs-api/1` request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Session statistics and the current report epoch.
    Status,
    /// Single-interface lookup. The address stays a string here; the
    /// engine side parses it and answers `bad_iface` when it is not an
    /// IPv4 address.
    Query {
        /// The queried interface address, verbatim from the wire.
        iface: String,
    },
    /// Knowledge-base delta: add (`present: true`) or remove one
    /// AS → facility listing, then flip the epoch.
    DeltaKbFlip {
        /// The AS whose footprint changes.
        asn: u32,
        /// The facility being listed or delisted.
        facility: u32,
        /// Whether the listing exists in the new epoch.
        present: bool,
    },
    /// Traceroute delta: ingest the daemon's deterministic campaign
    /// number `campaign` (campaigns are a pure function of the world
    /// seed, so two daemons fed the same numbers hold the same inputs).
    DeltaCampaign {
        /// 1-based campaign number.
        campaign: u64,
    },
    /// Vantage-point status delta.
    DeltaVpStatus {
        /// The platform whose status changes.
        vp: u32,
        /// `true` when it comes back up.
        up: bool,
    },
    /// The canonical trace document for the current report.
    Trace,
    /// The live `cfs-metrics/1` snapshot: rolling windows of counters,
    /// histograms, and request latencies, plus merged totals.
    Metrics,
    /// Drain structured `cfs-log/1` events with sequence ≥ `since`.
    Events {
        /// The client's cursor: the first sequence number it has not
        /// seen. `0` (the wire default) drains everything retained.
        since: u64,
        /// Severity floor: only events at or above this level are
        /// returned. `None` (absent on the wire) means everything.
        /// Validated at parse — only `"info"`, `"warn"`, `"error"` pass.
        min_severity: Option<String>,
    },
    /// Drain `cfs-alerts/1` disruption alerts with sequence ≥ `since`.
    /// A daemon running without `--detect` answers with an empty list
    /// and an unmoved cursor rather than an error, so pollers need no
    /// capability probe.
    Alerts {
        /// The client's cursor: the first sequence number it has not
        /// seen. `0` (the wire default) drains everything retained.
        since: u64,
        /// Severity floor, same pinned vocabulary as `events`.
        min_severity: Option<String>,
    },
    /// Stop the daemon after acknowledging.
    Shutdown,
}

/// A typed protocol error: a stable machine-readable code plus a human
/// message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// Stable error code (module docs list the vocabulary).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// Builds an error with the given stable code.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// Renders the error as a `cfs-api/1` response line.
    pub fn to_response(&self) -> String {
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"ok\":false,\"error\":{{\"code\":\"{}\",\"message\":\"{}\"}}}}",
            self.code,
            escape(&self.message)
        )
    }
}

fn require_u64(doc: &Value, key: &str, code: &'static str) -> Result<u64, ApiError> {
    doc.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| ApiError::new(code, format!("missing or non-integer member {key:?}")))
}

/// A `u32` wire id (ASN, facility, vantage point): an integer past
/// `u32::MAX` is refused, never truncated onto another record's id.
fn require_u32(doc: &Value, key: &str, code: &'static str) -> Result<u32, ApiError> {
    u32::try_from(require_u64(doc, key, code)?)
        .map_err(|_| ApiError::new(code, format!("member {key:?} exceeds {}", u32::MAX)))
}

fn require_bool(doc: &Value, key: &str, code: &'static str) -> Result<bool, ApiError> {
    doc.get(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| ApiError::new(code, format!("missing or non-boolean member {key:?}")))
}

/// The shared cursor-drain members of `events` and `alerts`: `since` is
/// optional (absent means "from the beginning") but when present must
/// be an unsigned integer; `min_severity`'s vocabulary is pinned here
/// (parser authority) so the dispatch side never sees an unknown level.
fn cursor_members(doc: &Value) -> Result<(u64, Option<String>), ApiError> {
    let since = match doc.get("since") {
        None => 0,
        Some(v) => v.as_u64().ok_or_else(|| {
            ApiError::new(
                "bad_request",
                "member \"since\" must be an unsigned integer",
            )
        })?,
    };
    let min_severity = match doc.get("min_severity") {
        None => None,
        Some(v) => match v.as_str() {
            Some(s @ ("info" | "warn" | "error")) => Some(s.to_string()),
            _ => {
                return Err(ApiError::new(
                    "bad_request",
                    "member \"min_severity\" must be \"info\", \"warn\", or \"error\"",
                ));
            }
        },
    };
    Ok((since, min_severity))
}

/// Parses one request line. Schema validation comes first: a missing or
/// foreign `schema` member is `unknown_schema` no matter what else the
/// document says.
pub fn parse_request(line: &str) -> Result<Request, ApiError> {
    let doc: Value =
        serde_json::from_str(line).map_err(|e| ApiError::new("bad_request", e.to_string()))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(other) => {
            return Err(ApiError::new(
                "unknown_schema",
                format!("unsupported schema {other:?} (this daemon speaks {SCHEMA:?})"),
            ));
        }
        None => {
            return Err(ApiError::new(
                "unknown_schema",
                format!("request carries no \"schema\" member (expected {SCHEMA:?})"),
            ));
        }
    }
    let op = doc
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| ApiError::new("bad_request", "missing or non-string member \"op\""))?;
    match op {
        "status" => Ok(Request::Status),
        "trace" => Ok(Request::Trace),
        "metrics" => Ok(Request::Metrics),
        "events" => {
            let (since, min_severity) = cursor_members(&doc)?;
            Ok(Request::Events {
                since,
                min_severity,
            })
        }
        "alerts" => {
            let (since, min_severity) = cursor_members(&doc)?;
            Ok(Request::Alerts {
                since,
                min_severity,
            })
        }
        "shutdown" => Ok(Request::Shutdown),
        "query" => {
            let iface = doc.get("iface").and_then(Value::as_str).ok_or_else(|| {
                ApiError::new("bad_request", "query requires a string member \"iface\"")
            })?;
            Ok(Request::Query {
                iface: iface.to_string(),
            })
        }
        "delta" => {
            let kind = doc.get("kind").and_then(Value::as_str).ok_or_else(|| {
                ApiError::new("bad_delta", "delta requires a string member \"kind\"")
            })?;
            match kind {
                "kb-flip" => Ok(Request::DeltaKbFlip {
                    asn: require_u32(&doc, "asn", "bad_delta")?,
                    facility: require_u32(&doc, "facility", "bad_delta")?,
                    present: require_bool(&doc, "present", "bad_delta")?,
                }),
                "campaign" => Ok(Request::DeltaCampaign {
                    campaign: require_u64(&doc, "campaign", "bad_delta")?,
                }),
                "vp-status" => Ok(Request::DeltaVpStatus {
                    vp: require_u32(&doc, "vp", "bad_delta")?,
                    up: require_bool(&doc, "up", "bad_delta")?,
                }),
                other => Err(ApiError::new(
                    "bad_delta",
                    format!("unknown delta kind {other:?}"),
                )),
            }
        }
        other => Err(ApiError::new("unknown_op", format!("unknown op {other:?}"))),
    }
}

/// Assembles a successful response line member by member.
///
/// ```
/// use cfs_svc::Reply;
/// let line = Reply::ok().str("verdict", "resolved").u64("epoch", 3).finish();
/// assert_eq!(line, r#"{"schema":"cfs-api/1","ok":true,"verdict":"resolved","epoch":3}"#);
/// ```
#[must_use = "call .finish() to obtain the response line"]
pub struct Reply {
    body: String,
}

impl Reply {
    /// Starts an `ok: true` response.
    pub fn ok() -> Self {
        Self {
            body: format!("{{\"schema\":\"{SCHEMA}\",\"ok\":true"),
        }
    }

    /// Appends a string member.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.body
            .push_str(&format!(",\"{}\":\"{}\"", escape(key), escape(value)));
        self
    }

    /// Appends an optional string member (`null` when absent).
    pub fn opt_str(self, key: &str, value: Option<&str>) -> Self {
        match value {
            Some(v) => self.str(key, v),
            None => self.raw(key, "null"),
        }
    }

    /// Appends an unsigned integer member.
    pub fn u64(self, key: &str, value: u64) -> Self {
        let rendered = value.to_string();
        self.raw(key, &rendered)
    }

    /// Appends an optional unsigned integer member (`null` when absent).
    pub fn opt_u64(self, key: &str, value: Option<u64>) -> Self {
        match value {
            Some(v) => self.u64(key, v),
            None => self.raw(key, "null"),
        }
    }

    /// Appends a float member (shortest round-trip formatting).
    pub fn f64(self, key: &str, value: f64) -> Self {
        let rendered = format!("{value}");
        self.raw(key, &rendered)
    }

    /// Appends a boolean member.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Appends a pre-rendered JSON value member.
    pub fn raw(mut self, key: &str, rendered: &str) -> Self {
        self.body
            .push_str(&format!(",\"{}\":{}", escape(key), rendered));
        self
    }

    /// Closes the response line.
    pub fn finish(mut self) -> String {
        self.body.push('}');
        self.body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_requests_parse() {
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"status"}"#),
            Ok(Request::Status)
        );
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"query","iface":"10.1.2.3"}"#),
            Ok(Request::Query {
                iface: "10.1.2.3".into()
            })
        );
        assert_eq!(
            parse_request(
                r#"{"schema":"cfs-api/1","op":"delta","kind":"kb-flip","asn":64500,"facility":7,"present":false}"#
            ),
            Ok(Request::DeltaKbFlip {
                asn: 64500,
                facility: 7,
                present: false
            })
        );
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"delta","kind":"campaign","campaign":2}"#),
            Ok(Request::DeltaCampaign { campaign: 2 })
        );
        assert_eq!(
            parse_request(
                r#"{"schema":"cfs-api/1","op":"delta","kind":"vp-status","vp":4,"up":true}"#
            ),
            Ok(Request::DeltaVpStatus { vp: 4, up: true })
        );
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"metrics"}"#),
            Ok(Request::Metrics)
        );
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"events"}"#),
            Ok(Request::Events {
                since: 0,
                min_severity: None
            })
        );
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"events","since":41}"#),
            Ok(Request::Events {
                since: 41,
                min_severity: None
            })
        );
        assert_eq!(
            parse_request(
                r#"{"schema":"cfs-api/1","op":"events","since":7,"min_severity":"warn"}"#
            ),
            Ok(Request::Events {
                since: 7,
                min_severity: Some("warn".to_string())
            })
        );
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"alerts"}"#),
            Ok(Request::Alerts {
                since: 0,
                min_severity: None
            })
        );
        assert_eq!(
            parse_request(
                r#"{"schema":"cfs-api/1","op":"alerts","since":3,"min_severity":"error"}"#
            ),
            Ok(Request::Alerts {
                since: 3,
                min_severity: Some("error".to_string())
            })
        );
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"shutdown"}"#),
            Ok(Request::Shutdown)
        );
    }

    #[test]
    fn schema_discipline_mirrors_cfs_check() {
        // Missing schema and foreign schema are both unknown_schema; the
        // op is never even inspected.
        assert_eq!(
            parse_request(r#"{"op":"status"}"#).unwrap_err().code,
            "unknown_schema"
        );
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/2","op":"nonsense"}"#)
                .unwrap_err()
                .code,
            "unknown_schema"
        );
    }

    #[test]
    fn typed_errors_cover_the_failure_modes() {
        assert_eq!(parse_request("{oops").unwrap_err().code, "bad_request");
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1"}"#).unwrap_err().code,
            "bad_request"
        );
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"frobnicate"}"#)
                .unwrap_err()
                .code,
            "unknown_op"
        );
        // The severity vocabulary is pinned at parse time: anything
        // outside info|warn|error is refused here, never dispatched.
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"events","min_severity":"debug"}"#)
                .unwrap_err()
                .code,
            "bad_request"
        );
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"events","min_severity":3}"#)
                .unwrap_err()
                .code,
            "bad_request"
        );
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"query"}"#)
                .unwrap_err()
                .code,
            "bad_request"
        );
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"delta","kind":"kb-flip","asn":"x"}"#)
                .unwrap_err()
                .code,
            "bad_delta"
        );
        // Ids past u32::MAX are refused, not truncated onto id % 2^32.
        for line in [
            r#"{"schema":"cfs-api/1","op":"delta","kind":"kb-flip","asn":4294967296,"facility":7,"present":true}"#,
            r#"{"schema":"cfs-api/1","op":"delta","kind":"kb-flip","asn":64500,"facility":4294967299,"present":true}"#,
            r#"{"schema":"cfs-api/1","op":"delta","kind":"vp-status","vp":4294967297,"up":true}"#,
        ] {
            assert_eq!(parse_request(line).unwrap_err().code, "bad_delta", "{line}");
        }
        assert_eq!(
            parse_request(
                r#"{"schema":"cfs-api/1","op":"delta","kind":"vp-status","vp":4294967295,"up":false}"#
            ),
            Ok(Request::DeltaVpStatus {
                vp: u32::MAX,
                up: false
            })
        );
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"delta","kind":"mystery"}"#)
                .unwrap_err()
                .code,
            "bad_delta"
        );
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"events","since":"yesterday"}"#)
                .unwrap_err()
                .code,
            "bad_request"
        );
        // The alerts op shares the cursor-member validation.
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"alerts","since":"now"}"#)
                .unwrap_err()
                .code,
            "bad_request"
        );
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"alerts","min_severity":"loud"}"#)
                .unwrap_err()
                .code,
            "bad_request"
        );
    }

    #[test]
    fn hostile_lines_are_bad_requests_not_crashes() {
        let nested = |depth: usize| {
            format!(
                r#"{{"schema":"cfs-api/1","op":"status","x":{}{}}}"#,
                "[".repeat(depth),
                "]".repeat(depth)
            )
        };
        let deep = nested(30_000);
        assert!(deep.len() < crate::MAX_REQUEST_LINE);
        for line in [
            nested(200),
            deep,
            "{\"schema\":\"cfs-api/1\",\"op\":\"st\u{1}atus\"}".into(),
        ] {
            assert_eq!(parse_request(&line).unwrap_err().code, "bad_request");
        }
        // Malformed input says where it failed.
        let err = parse_request(r#"{"schema":"cfs-api/1","op":}"#).unwrap_err();
        assert!(err.message.contains("offset 27"), "{}", err.message);
    }

    #[test]
    fn members_decode_exactly() {
        // Escapes decode, and u64 cursors past 2^53 stay exact.
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"query","iface":"1\"2\\3\u0041"}"#),
            Ok(Request::Query {
                iface: "1\"2\\3A".into()
            })
        );
        assert_eq!(
            parse_request(r#"{"schema":"cfs-api/1","op":"events","since":18446744073709551615}"#),
            Ok(Request::Events {
                since: u64::MAX,
                min_severity: None
            })
        );
    }

    #[test]
    fn error_messages_round_trip_through_the_reader() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let line = ApiError::new("internal", nasty).to_response();
        let doc: Value = serde_json::from_str(&line).unwrap();
        let message = doc.get("error").and_then(|e| e.get("message"));
        assert_eq!(message.and_then(Value::as_str), Some(nasty));
    }

    #[test]
    fn error_responses_are_schema_stamped() {
        let line = ApiError::new("bad_iface", "not an IPv4 address: \"x\"").to_response();
        assert!(line.starts_with("{\"schema\":\"cfs-api/1\",\"ok\":false,"));
        assert!(line.contains("\"code\":\"bad_iface\""));
        assert!(line.contains("\\\"x\\\""));
    }

    #[test]
    fn reply_builder_renders_members_in_order() {
        let line = Reply::ok()
            .str("a", "x")
            .u64("b", 7)
            .opt_u64("c", None)
            .bool("d", false)
            .f64("e", 0.25)
            .finish();
        assert_eq!(
            line,
            r#"{"schema":"cfs-api/1","ok":true,"a":"x","b":7,"c":null,"d":false,"e":0.25}"#
        );
    }
}
