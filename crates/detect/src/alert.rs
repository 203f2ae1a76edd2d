//! The `cfs-alerts/1` stream: severity-typed disruption alerts, their
//! bounded cursor-drained ring, and the document validator.
//!
//! Alert lines follow the same discipline as `cfs-log/1`: hand-rendered
//! JSON with a fixed field order, numeric or controlled-vocabulary
//! values, timestamps from the injected clock only. Rendered bytes are a
//! pure function of the detector's inputs (plus `t_ns` from the clock),
//! so two daemons fed the same epochs under a `Virtual` clock emit
//! byte-identical streams at any thread count.

use cfs_obs::export::escape;
use cfs_obs::{CursorRing, Severity};

/// Schema identifier stamped into every rendered alert line.
pub const ALERTS_SCHEMA: &str = "cfs-alerts/1";

/// The alert taxonomy: which baseline family diverged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertKind {
    /// Whole-building visibility collapse: interfaces inferred at one
    /// facility stopped answering across the board.
    FacilityOutage,
    /// The private-peering subset at one facility went dark while the
    /// building itself kept answering — a cross-connect / patch-panel
    /// signature.
    PrivateLinkLoss,
    /// Member ports of one IXP fabric went missing (facility-localized
    /// when every missing port pins to one building).
    IxpPortLoss,
    /// The campaign's reached fraction fell against baseline.
    ProbeLossSurge,
    /// The resolved fraction fell against baseline.
    ResolutionDrop,
}

impl AlertKind {
    /// The stable kind code on the wire.
    pub fn code(self) -> &'static str {
        match self {
            AlertKind::FacilityOutage => "facility-outage",
            AlertKind::PrivateLinkLoss => "private-link-loss",
            AlertKind::IxpPortLoss => "ixp-port-loss",
            AlertKind::ProbeLossSurge => "probe-loss-surge",
            AlertKind::ResolutionDrop => "resolution-drop",
        }
    }

    /// Every kind, in wire order (validator vocabulary).
    pub const ALL: [AlertKind; 5] = [
        AlertKind::FacilityOutage,
        AlertKind::PrivateLinkLoss,
        AlertKind::IxpPortLoss,
        AlertKind::ProbeLossSurge,
        AlertKind::ResolutionDrop,
    ];
}

/// One emitted alert.
#[derive(Clone, Debug, PartialEq)]
pub struct Alert {
    /// Monotone sequence number, 0-based; the drain cursor's unit.
    pub seq: u64,
    /// Clock nanoseconds at emission.
    pub t_ns: u64,
    /// The epoch whose features diverged.
    pub epoch: u64,
    /// `warn` or `error` (never `info`).
    pub severity: Severity,
    /// Which baseline family diverged.
    pub kind: AlertKind,
    /// Localized facility (raw id + display name), when the divergence
    /// pins to one building.
    pub facility: Option<(u32, String)>,
    /// The affected exchange, for fabric-level alerts.
    pub ixp: Option<(u32, String)>,
    /// The diverged feature this epoch, per-mille.
    pub observed_pm: u64,
    /// The rolling baseline it diverged from, per-mille.
    pub baseline_pm: u64,
    /// Relative drop against baseline, per-mille (1000 = total loss).
    pub score_pm: u64,
    /// Tracked members of the diverged bucket (alerting floor input).
    pub support: u64,
}

impl Alert {
    /// Renders the alert as one `cfs-alerts/1` JSON line (no trailing
    /// newline).
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"{ALERTS_SCHEMA}\",\"seq\":{},\"t_ns\":{},\"epoch\":{},\
             \"severity\":\"{}\",\"kind\":\"{}\"",
            self.seq,
            self.t_ns,
            self.epoch,
            self.severity.as_str(),
            self.kind.code()
        );
        if let Some((id, name)) = &self.facility {
            out.push_str(&format!(
                ",\"facility_id\":{id},\"facility\":\"{}\"",
                escape(name)
            ));
        }
        if let Some((id, name)) = &self.ixp {
            out.push_str(&format!(",\"ixp_id\":{id},\"ixp\":\"{}\"", escape(name)));
        }
        out.push_str(&format!(
            ",\"observed_pm\":{},\"baseline_pm\":{},\"score_pm\":{},\"support\":{}}}",
            self.observed_pm, self.baseline_pm, self.score_pm, self.support
        ));
        out
    }
}

/// The alert ring: `cfs-obs`'s cursor ring, with its `EventLog`
/// semantics — pollers never see an alert twice, and a first returned
/// `seq` greater than the cursor betrays eviction.
pub type AlertLog = CursorRing<Alert>;

/// Summary of a validated alert document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlertsSummary {
    /// Lines validated.
    pub alerts: usize,
    /// Alerts at `error` severity.
    pub errors: usize,
    /// Alerts carrying a facility localization.
    pub localized: usize,
}

/// Validates a `cfs-alerts/1` document: one JSON line per alert, schema
/// stamp, controlled severity/kind vocabulary, per-mille ranges,
/// locus-field requirements per kind, and strictly increasing `seq`.
/// Blank lines are ignored.
pub fn validate_alerts(text: &str) -> Result<AlertsSummary, String> {
    let mut last_seq: Option<u64> = None;
    let mut summary = AlertsSummary {
        alerts: 0,
        errors: 0,
        localized: 0,
    };
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v: serde_json::Value =
            serde_json::from_str(line).map_err(|e| format!("line {n}: not valid JSON: {e}"))?;
        let obj = v
            .as_object()
            .ok_or_else(|| format!("line {n}: not a JSON object"))?;
        let schema = obj.get("schema").and_then(|s| s.as_str());
        if schema != Some(ALERTS_SCHEMA) {
            return Err(format!(
                "line {n}: schema is {schema:?}, want {ALERTS_SCHEMA:?}"
            ));
        }
        let num = |key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("line {n}: missing or non-integer {key:?}"))
        };
        let seq = num("seq")?;
        num("t_ns")?;
        num("epoch")?;
        let support = num("support")?;
        if let Some(prev) = last_seq {
            if seq <= prev {
                return Err(format!("line {n}: seq {seq} not after {prev}"));
            }
        }
        last_seq = Some(seq);
        let severity = obj
            .get("severity")
            .and_then(|s| s.as_str())
            .ok_or_else(|| format!("line {n}: missing severity"))?;
        if severity != "warn" && severity != "error" {
            return Err(format!(
                "line {n}: severity {severity:?} not in [warn, error]"
            ));
        }
        let kind = obj
            .get("kind")
            .and_then(|s| s.as_str())
            .ok_or_else(|| format!("line {n}: missing kind"))?;
        if !AlertKind::ALL.iter().any(|k| k.code() == kind) {
            return Err(format!("line {n}: unknown kind {kind:?}"));
        }
        for pm_key in ["observed_pm", "baseline_pm", "score_pm"] {
            let pm = num(pm_key)?;
            if pm > 1000 {
                return Err(format!("line {n}: {pm_key} {pm} out of per-mille range"));
            }
        }
        let has_fac = obj.get("facility_id").is_some() && obj.get("facility").is_some();
        let has_ixp = obj.get("ixp_id").is_some() && obj.get("ixp").is_some();
        match kind {
            "facility-outage" | "private-link-loss" if !has_fac => {
                return Err(format!("line {n}: kind {kind:?} requires a facility locus"));
            }
            "ixp-port-loss" if !has_ixp => {
                return Err(format!("line {n}: kind {kind:?} requires an ixp locus"));
            }
            _ => {}
        }
        if matches!(
            kind,
            "facility-outage" | "private-link-loss" | "ixp-port-loss"
        ) && support == 0
        {
            return Err(format!("line {n}: localized kind with zero support"));
        }
        summary.alerts += 1;
        summary.errors += usize::from(severity == "error");
        summary.localized += usize::from(has_fac);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_obs::Virtual;
    use std::sync::Arc;

    /// Stamps `draft` into the ring, as the detector does.
    fn emit(log: &AlertLog, draft: Alert) -> Alert {
        log.push(|seq, t_ns| Alert { seq, t_ns, ..draft })
    }

    fn draft(epoch: u64) -> Alert {
        Alert {
            seq: 0,
            t_ns: 0,
            epoch,
            severity: Severity::Error,
            kind: AlertKind::FacilityOutage,
            facility: Some((3, "equinix fra3".into())),
            ixp: None,
            observed_pm: 0,
            baseline_pm: 990,
            score_pm: 1000,
            support: 6,
        }
    }

    #[test]
    fn rendered_lines_validate() {
        let clock = Arc::new(Virtual::new());
        let log = AlertLog::new(clock.clone(), 8);
        emit(&log, draft(5));
        clock.advance(1_000);
        let mut flap = draft(6);
        flap.kind = AlertKind::IxpPortLoss;
        flap.ixp = Some((1, "fra-ix".into()));
        flap.severity = Severity::Warn;
        emit(&log, flap);
        let (alerts, next) = log.since(0);
        assert_eq!(next, 2);
        let doc: String = alerts.iter().map(|a| a.render_json() + "\n").collect();
        let summary = validate_alerts(&doc).expect("valid document");
        assert_eq!(
            summary,
            AlertsSummary {
                alerts: 2,
                errors: 1,
                localized: 2
            }
        );
        assert!(alerts[0].render_json().starts_with(
            "{\"schema\":\"cfs-alerts/1\",\"seq\":0,\"t_ns\":0,\"epoch\":5,\
             \"severity\":\"error\",\"kind\":\"facility-outage\""
        ));
        assert_eq!(alerts[1].t_ns, 1_000);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        let ok = draft(1).render_json();
        assert!(validate_alerts(&ok).is_ok());
        // Broken schema stamp.
        assert!(validate_alerts(&ok.replace("cfs-alerts/1", "cfs-alerts/9")).is_err());
        // Unknown kind.
        assert!(validate_alerts(&ok.replace("facility-outage", "volcano")).is_err());
        // Missing locus for a localized kind.
        let mut bare = draft(1);
        bare.facility = None;
        assert!(validate_alerts(&bare.render_json()).is_err());
        // Replayed cursor.
        let twice = format!("{ok}\n{ok}\n");
        assert!(validate_alerts(&twice).is_err());
        // Per-mille overflow.
        let mut hot = draft(1);
        hot.score_pm = 1001;
        assert!(validate_alerts(&hot.render_json()).is_err());
    }

    #[test]
    fn hostile_names_render_strict_json_and_round_trip() {
        let name = "fra\"\t\u{1}\\3";
        let mut a = draft(1);
        a.facility = Some((3, name.into()));
        let line = a.render_json();
        assert!(
            line.bytes().all(|b| b >= 0x20),
            "raw control byte: {line:?}"
        );
        assert!(validate_alerts(&line).is_ok(), "{line}");
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("facility").and_then(|f| f.as_str()), Some(name));
    }

    #[test]
    fn ring_eviction_shows_in_cursor_gap() {
        let log = AlertLog::new(Arc::new(Virtual::new()), 2);
        for epoch in 0..5 {
            emit(&log, draft(epoch));
        }
        let (alerts, next) = log.since(0);
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].seq, 3);
        assert_eq!(next, 5);
    }
}
