//! The rolling-baseline divergence detector.
//!
//! One integer EWMA baseline per feature key (facility visibility,
//! private-subset visibility, IXP fabric visibility, reached fraction,
//! resolution fraction), updated once per epoch. A key whose current
//! value falls far enough below its baseline raises one alert for that
//! epoch; while a key is alerting its baseline ages at a fraction of the
//! normal rate, so a multi-epoch outage cannot talk the baseline down
//! into accepting the degraded level as normal.
//!
//! All arithmetic is integer fixed-point (values per-mille, baselines
//! per-mille ×1000), iteration follows `BTreeMap` order, and timestamps
//! come from the injected clock — the emitted `cfs-alerts/1` bytes are
//! independent of thread count and wall time.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use cfs_core::CfsReport;
use cfs_obs::{Clock, Severity};
use cfs_types::{FacilityId, IxpId};

use crate::alert::{Alert, AlertKind, AlertLog};
use crate::features::{extract, EpochFeatures, EpochObservation};

/// Detector tuning. Defaults are the evaluated configuration
/// (`disruption_eval`, DESIGN.md §12).
#[derive(Clone, Copy, Debug)]
pub struct DetectorConfig {
    /// EWMA weight of the newest sample, per-mille.
    pub alpha_pm: u64,
    /// Minimum relative drop (per-mille of baseline) that raises a
    /// `warn` alert. 450 catches the structural halvings real faults
    /// produce (a cut dropping one of two link endpoints scores exactly
    /// 500) while staying above campaign jitter.
    pub warn_score_pm: u64,
    /// Drop at or above which the alert escalates to `error`.
    pub error_score_pm: u64,
    /// Minimum tracked members a bucket needs before it may alert —
    /// below this, single-interface probe noise dominates.
    pub min_support: u64,
    /// Baseline samples a key needs before it is scored.
    pub min_samples: u64,
    /// Epochs at the start of the stream that never alert (baseline
    /// formation).
    pub warmup_epochs: u64,
    /// While a key is alerting its baseline ages at
    /// `alpha / aging_slowdown`.
    pub aging_slowdown: u64,
    /// Alert ring capacity.
    pub alert_cap: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            alpha_pm: 300,
            warn_score_pm: 450,
            error_score_pm: 850,
            min_support: 3,
            min_samples: 2,
            warmup_epochs: 2,
            aging_slowdown: 8,
            alert_cap: 256,
        }
    }
}

/// Display names for alert loci, captured from public knowledge (the
/// same names the knowledge base publishes — holding them here does not
/// leak the withheld schedule).
#[derive(Clone, Debug, Default)]
pub struct LocusNames {
    /// Facility display names by raw id.
    pub facilities: BTreeMap<u32, String>,
    /// Exchange display names by raw id.
    pub ixps: BTreeMap<u32, String>,
}

impl LocusNames {
    fn facility(&self, id: FacilityId) -> (u32, String) {
        let raw = id.raw();
        (
            raw,
            self.facilities
                .get(&raw)
                .cloned()
                .unwrap_or_else(|| format!("fac{raw}")),
        )
    }

    fn ixp(&self, id: IxpId) -> (u32, String) {
        let raw = id.raw();
        (
            raw,
            self.ixps
                .get(&raw)
                .cloned()
                .unwrap_or_else(|| format!("ixp{raw}")),
        )
    }
}

/// Baseline key space, ordered (iteration order = alert emission order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Facility(FacilityId),
    FacilityPrivate(FacilityId),
    Ixp(IxpId),
    IxpFacility(IxpId, FacilityId),
    Reached,
    Resolution,
}

#[derive(Clone, Copy, Debug)]
struct Baseline {
    /// Per-mille value ×1000 (fixed point).
    value_milli: u64,
    samples: u64,
    alerting: bool,
}

/// One key's scoring outcome against its baseline.
struct Scored {
    score_pm: u64,
    baseline_pm: u64,
}

/// The streaming detector. Feed it one [`EpochObservation`] + report per
/// epoch via [`Detector::observe`]; drain alerts from
/// [`Detector::alerts`].
pub struct Detector {
    config: DetectorConfig,
    names: LocusNames,
    baselines: BTreeMap<Key, Baseline>,
    alerts: AlertLog,
    epochs_seen: u64,
}

impl Detector {
    /// A detector with display names from `names`, stamping alert times
    /// from `clock`.
    pub fn new(config: DetectorConfig, names: LocusNames, clock: Arc<dyn Clock>) -> Self {
        let alerts = AlertLog::new(clock, config.alert_cap);
        Self {
            config,
            names,
            baselines: BTreeMap::new(),
            alerts,
            epochs_seen: 0,
        }
    }

    /// The alert ring (cursor draining for the `alerts` op).
    pub fn alerts(&self) -> &AlertLog {
        &self.alerts
    }

    /// Epochs observed so far.
    pub fn epochs_seen(&self) -> u64 {
        self.epochs_seen
    }

    /// Absorbs one epoch's raw observation bucketed against `report` and
    /// returns the alerts it raised.
    pub fn observe(&mut self, obs: &EpochObservation, report: &CfsReport) -> Vec<Alert> {
        self.observe_features(&extract(obs, report))
    }

    /// Absorbs one epoch's pre-extracted features and returns the alerts
    /// it raised (already sequenced into the ring), in key order.
    pub fn observe_features(&mut self, features: &EpochFeatures) -> Vec<Alert> {
        let mut out = Vec::new();
        let epoch = features.epoch;

        // Whole-building visibility first: the outage kind dominates.
        let mut outage_facs: BTreeSet<u32> = BTreeSet::new();
        for (fac, vis) in &features.facility {
            let locus = self.names.facility(*fac);
            let raised = self.score_key(
                Key::Facility(*fac),
                vis.per_mille(),
                vis.tracked,
                epoch,
                AlertKind::FacilityOutage,
                Some(locus),
                None,
                &mut out,
            );
            if raised {
                outage_facs.insert(fac.raw());
            }
        }

        // The private-peering subset adds signal only when the building
        // as a whole is healthy this epoch (a patch-panel cut, not a
        // power loss); its baseline ages either way.
        for (fac, vis) in &features.facility_private {
            if outage_facs.contains(&fac.raw()) {
                self.update_only(Key::FacilityPrivate(*fac), vis.per_mille());
                continue;
            }
            let locus = self.names.facility(*fac);
            self.score_key(
                Key::FacilityPrivate(*fac),
                vis.per_mille(),
                vis.tracked,
                epoch,
                AlertKind::PrivateLinkLoss,
                Some(locus),
                None,
                &mut out,
            );
        }

        let mut flapped_ixps: BTreeSet<u32> = BTreeSet::new();
        for (ixp, v) in &features.ixp {
            // Candidate-set churn localizes the flap when every missing
            // port pins to one building.
            let fac_locus = if v.missing_facilities.len() == 1 {
                v.missing_facilities
                    .iter()
                    .next()
                    .map(|f| self.names.facility(*f))
            } else {
                None
            };
            let ixp_locus = self.names.ixp(*ixp);
            let raised = self.score_key(
                Key::Ixp(*ixp),
                v.vis.per_mille(),
                v.vis.tracked,
                epoch,
                AlertKind::IxpPortLoss,
                fac_locus,
                Some(ixp_locus),
                &mut out,
            );
            if raised {
                flapped_ixps.insert(ixp.raw());
            }
        }

        // Per-building slices of each fabric: a one-switch flap on a
        // large exchange barely dents the fabric-wide number, but the
        // slice for the switch's building collapses. Skip the slice when
        // the whole exchange already alerted (one alert per locus) or
        // the building itself is out (the outage alert dominates).
        for ((ixp, fac), vis) in &features.ixp_facility {
            if flapped_ixps.contains(&ixp.raw()) || outage_facs.contains(&fac.raw()) {
                self.update_only(Key::IxpFacility(*ixp, *fac), vis.per_mille());
                continue;
            }
            let fac_locus = self.names.facility(*fac);
            let ixp_locus = self.names.ixp(*ixp);
            self.score_key(
                Key::IxpFacility(*ixp, *fac),
                vis.per_mille(),
                vis.tracked,
                epoch,
                AlertKind::IxpPortLoss,
                Some(fac_locus),
                Some(ixp_locus),
                &mut out,
            );
        }

        self.score_key(
            Key::Reached,
            features.reached_pm,
            features.tracked,
            epoch,
            AlertKind::ProbeLossSurge,
            None,
            None,
            &mut out,
        );
        self.score_key(
            Key::Resolution,
            features.resolution_pm,
            features.tracked,
            epoch,
            AlertKind::ResolutionDrop,
            None,
            None,
            &mut out,
        );

        self.epochs_seen += 1;
        out
    }

    /// Scores one key against its baseline, updates the baseline, and
    /// appends an alert when the divergence clears the floor. Returns
    /// whether an alert was raised.
    #[allow(clippy::too_many_arguments)]
    fn score_key(
        &mut self,
        key: Key,
        value_pm: u64,
        support: u64,
        epoch: u64,
        kind: AlertKind,
        facility: Option<(u32, String)>,
        ixp: Option<(u32, String)>,
        out: &mut Vec<Alert>,
    ) -> bool {
        let Some(Scored {
            score_pm,
            baseline_pm,
        }) = self.score_and_update(key, value_pm)
        else {
            return false;
        };
        let eligible = self.epochs_seen >= self.config.warmup_epochs
            && support >= self.config.min_support
            && score_pm >= self.config.warn_score_pm;
        if !eligible {
            return false;
        }
        let severity = if score_pm >= self.config.error_score_pm {
            Severity::Error
        } else {
            Severity::Warn
        };
        out.push(self.alerts.push(|seq, t_ns| Alert {
            seq,
            t_ns,
            epoch,
            severity,
            kind,
            facility,
            ixp,
            observed_pm: value_pm,
            baseline_pm,
            score_pm,
            support,
        }));
        true
    }

    /// The EWMA + scoring core. Returns `None` while the key is still
    /// collecting its first `min_samples` samples.
    fn score_and_update(&mut self, key: Key, value_pm: u64) -> Option<Scored> {
        let alpha = self.config.alpha_pm.min(1000);
        let slowdown = self.config.aging_slowdown.max(1);
        let min_samples = self.config.min_samples;
        let warn = self.config.warn_score_pm;
        let value_milli = value_pm * 1000;
        let entry = self.baselines.entry(key).or_insert(Baseline {
            value_milli,
            samples: 0,
            alerting: false,
        });
        let ready = entry.samples >= min_samples;
        let baseline_pm = entry.value_milli / 1000;
        let score_pm = if ready {
            let drop = entry.value_milli.saturating_sub(value_milli);
            drop * 1000 / entry.value_milli.max(1)
        } else {
            0
        };
        entry.alerting = ready && score_pm >= warn;
        let a = if entry.alerting {
            alpha / slowdown
        } else {
            alpha
        };
        entry.value_milli = (a * value_milli + (1000 - a) * entry.value_milli) / 1000;
        entry.samples += 1;
        ready.then_some(Scored {
            score_pm,
            baseline_pm,
        })
    }

    /// Ages a key's baseline without alerting (used when a higher-level
    /// alert already covers the locus this epoch).
    fn update_only(&mut self, key: Key, value_pm: u64) {
        let _ = self.score_and_update(key, value_pm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{IxpVisibility, Visibility};
    use cfs_obs::Virtual;

    fn detector() -> Detector {
        Detector::new(
            DetectorConfig::default(),
            LocusNames::default(),
            Arc::new(Virtual::new()),
        )
    }

    /// Features with one facility bucket at `visible`/`tracked` and
    /// healthy scalars.
    fn fac_features(epoch: u64, visible: u64, tracked: u64) -> EpochFeatures {
        let mut facility = BTreeMap::new();
        facility.insert(FacilityId(0), Visibility { visible, tracked });
        EpochFeatures {
            epoch,
            reached_pm: 900,
            resolution_pm: 950,
            tracked: 40,
            facility,
            facility_private: BTreeMap::new(),
            ixp: BTreeMap::new(),
            ixp_facility: BTreeMap::new(),
        }
    }

    #[test]
    fn baseline_forms_then_collapse_alerts() {
        let mut d = detector();
        for epoch in 0..4 {
            assert!(d.observe_features(&fac_features(epoch, 6, 6)).is_empty());
        }
        let alerts = d.observe_features(&fac_features(4, 0, 6));
        assert_eq!(alerts.len(), 1);
        let a = &alerts[0];
        assert_eq!(a.kind, AlertKind::FacilityOutage);
        assert_eq!(a.severity, Severity::Error);
        assert_eq!(a.epoch, 4);
        assert_eq!(a.observed_pm, 0);
        assert!(a.baseline_pm >= 990, "baseline {}", a.baseline_pm);
        assert_eq!(a.score_pm, 1000);
        assert_eq!(a.facility.as_ref().map(|(id, _)| *id), Some(0));
        // Recovery: healthy again, no alert, baseline survived the
        // outage thanks to slowed aging.
        assert!(d.observe_features(&fac_features(5, 6, 6)).is_empty());
    }

    #[test]
    fn slowed_aging_keeps_multi_epoch_outages_alerting() {
        let mut d = detector();
        for epoch in 0..4 {
            d.observe_features(&fac_features(epoch, 6, 6));
        }
        for epoch in 4..7 {
            let alerts = d.observe_features(&fac_features(epoch, 0, 6));
            assert_eq!(alerts.len(), 1, "epoch {epoch} must still alert");
            assert!(alerts[0].score_pm >= 850, "epoch {epoch} score decayed");
        }
    }

    #[test]
    fn warmup_and_support_floors_suppress_noise() {
        let mut d = detector();
        // Collapse during warmup: min_samples not met, no alert.
        d.observe_features(&fac_features(0, 6, 6));
        assert!(d.observe_features(&fac_features(1, 0, 6)).is_empty());
        // Tiny bucket: a 1/2 interface blip never alerts.
        let mut d2 = detector();
        for epoch in 0..4 {
            d2.observe_features(&fac_features(epoch, 2, 2));
        }
        assert!(d2.observe_features(&fac_features(4, 0, 2)).is_empty());
    }

    #[test]
    fn ixp_flap_localizes_via_missing_facilities() {
        let mut d = detector();
        let healthy = |epoch| {
            let mut f = fac_features(epoch, 6, 6);
            f.ixp.insert(
                IxpId(2),
                IxpVisibility {
                    vis: Visibility {
                        visible: 5,
                        tracked: 5,
                    },
                    missing_facilities: BTreeSet::new(),
                },
            );
            f
        };
        for epoch in 0..4 {
            d.observe_features(&healthy(epoch));
        }
        let mut broken = fac_features(4, 6, 6);
        let mut missing = BTreeSet::new();
        missing.insert(FacilityId(7));
        broken.ixp.insert(
            IxpId(2),
            IxpVisibility {
                vis: Visibility {
                    visible: 1,
                    tracked: 5,
                },
                missing_facilities: missing,
            },
        );
        let alerts = d.observe_features(&broken);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::IxpPortLoss);
        assert_eq!(alerts[0].ixp.as_ref().map(|(id, _)| *id), Some(2));
        assert_eq!(alerts[0].facility.as_ref().map(|(id, _)| *id), Some(7));
    }

    #[test]
    fn facility_slice_catches_a_flap_the_fabric_wide_bucket_dilutes() {
        // One access switch (3 ports, all pinned to facility 5) flaps on
        // a 30-port exchange: fabric-wide visibility only dips to 900‰
        // (score 100, far below warn), but the per-building slice
        // collapses outright and must alert with both loci.
        let mut d = detector();
        let features = |epoch, slice_visible: u64| {
            let mut f = fac_features(epoch, 6, 6);
            f.ixp.insert(
                IxpId(2),
                IxpVisibility {
                    vis: Visibility {
                        visible: 27 + slice_visible,
                        tracked: 30,
                    },
                    missing_facilities: BTreeSet::new(),
                },
            );
            f.ixp_facility.insert(
                (IxpId(2), FacilityId(5)),
                Visibility {
                    visible: slice_visible,
                    tracked: 3,
                },
            );
            f
        };
        for epoch in 0..4 {
            assert!(d.observe_features(&features(epoch, 3)).is_empty());
        }
        let alerts = d.observe_features(&features(4, 0));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::IxpPortLoss);
        assert_eq!(alerts[0].ixp.as_ref().map(|(id, _)| *id), Some(2));
        assert_eq!(alerts[0].facility.as_ref().map(|(id, _)| *id), Some(5));
        assert_eq!(alerts[0].score_pm, 1000);
    }

    #[test]
    fn private_subset_suppressed_under_building_outage() {
        let mut d = detector();
        let features = |epoch, visible| {
            let mut f = fac_features(epoch, visible, 6);
            f.facility_private.insert(
                FacilityId(0),
                Visibility {
                    visible,
                    tracked: 6,
                },
            );
            f
        };
        for epoch in 0..4 {
            d.observe_features(&features(epoch, 6));
        }
        let alerts = d.observe_features(&features(4, 0));
        assert_eq!(alerts.len(), 1, "one alert for the building, not two");
        assert_eq!(alerts[0].kind, AlertKind::FacilityOutage);
    }

    #[test]
    fn identical_streams_render_identical_bytes() {
        let run = || {
            let mut d = detector();
            let mut doc = String::new();
            for epoch in 0..4 {
                d.observe_features(&fac_features(epoch, 6, 6));
            }
            for epoch in 4..6 {
                for a in d.observe_features(&fac_features(epoch, 0, 6)) {
                    doc.push_str(&a.render_json());
                    doc.push('\n');
                }
            }
            doc
        };
        let a = run();
        assert!(!a.is_empty());
        assert_eq!(a, run());
    }
}
