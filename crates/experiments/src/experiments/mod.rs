//! One module per paper artifact. Every module exposes
//! `run(&Lab, &mut Output) -> Result<serde_json::Value>`.

pub mod ablation;
pub mod disruption_eval;
pub mod dns_geo;
pub mod fault_curve;
pub mod fig10;
pub mod fig2;
pub mod fig3;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod kind_confusion;
pub mod proximity;
pub mod table1;
pub mod text_stats;

use crate::{Lab, Output, Scale};
use cfs_types::Result;

/// Runs one experiment by id.
pub fn run_by_id(id: &str, lab: &Lab, out: &mut Output) -> Result<serde_json::Value> {
    match id {
        "table1" => table1::run(lab, out),
        "fig2" => fig2::run(lab, out),
        "fig3" => fig3::run(lab, out),
        "fig7" => fig7::run(lab, out),
        "fig8" => fig8::run(lab, out),
        "fig9" => fig9::run(lab, out),
        "fig10" => fig10::run(lab, out),
        "text_stats" => text_stats::run(lab, out),
        "proximity" => proximity::run(lab, out),
        "dns_geo" => dns_geo::run(lab, out),
        "ablation" => ablation::run(lab, out),
        "kind_confusion" => kind_confusion::run(lab, out),
        "fault_curve" => fault_curve::run(lab, out),
        "disruption_eval" => disruption_eval::run(lab, out),
        other => Err(cfs_types::Error::not_found("experiment", other)),
    }
}

/// All experiment ids in paper order, plus the extension studies.
pub const ALL_IDS: [&str; 14] = [
    "table1",
    "fig2",
    "fig3",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "text_stats",
    "proximity",
    "dns_geo",
    "ablation",
    "kind_confusion",
    "fault_curve",
    "disruption_eval",
];

/// Width of the metrics windows experiment binaries record into.
const EXPERIMENT_WINDOW_NS: u64 = 1_000_000_000;

/// Closed windows kept in the experiment binaries' metrics ring.
const EXPERIMENT_WINDOWS_KEPT: usize = 120;

/// Standard binary entry point shared by all experiment binaries.
///
/// Every run carries a `cfs_obs::WindowedRecorder` (1 s windows) over a
/// `TraceRecorder` on one shared monotonic clock: the windowed
/// `cfs-metrics/1` document — totals *and* the per-window ring — lands
/// next to the experiment's results as `results/<id>.metrics.json`, and
/// the wall-clock duration sidecar as `results/<id>.profile.json` (the
/// `cfs-profile/2` document `cfs profile` renders). The windows forward
/// every span entry and exit to the inner recorder, so the sidecar's
/// call paths are the nesting the experiment actually ran.
pub fn main_for(id: &str) {
    let (scale, seed) = crate::parse_args();
    let mut lab = Lab::provision(scale, seed).expect("lab provisioning failed");
    let clock = std::sync::Arc::new(cfs_obs::Monotonic::new());
    let inner = std::sync::Arc::new(cfs_obs::TraceRecorder::new(clock.clone()));
    let windows = std::sync::Arc::new(cfs_obs::WindowedRecorder::new(
        inner.clone(),
        clock,
        EXPERIMENT_WINDOW_NS,
        EXPERIMENT_WINDOWS_KEPT,
    ));
    lab.recorder = windows.clone();
    let mut out = Output::new(id, scale.label());
    let json = run_by_id(id, &lab, &mut out).expect("experiment failed");
    let path = out.finish(json).expect("writing results failed");
    let snap = inner.snapshot();
    let metrics_path = crate::results_dir().join(format!("{id}.metrics.json"));
    std::fs::write(&metrics_path, windows.render_metrics_json()).expect("writing metrics failed");
    let profile_path = crate::results_dir().join(format!("{id}.profile.json"));
    std::fs::write(&profile_path, cfs_obs::render_profile_json(&snap))
        .expect("writing profile failed");
    eprintln!("\nwrote {}", path.display());
    eprintln!("wrote {}", metrics_path.display());
    eprintln!("wrote {}", profile_path.display());
    // Tiny scale is for smoke tests only; remind the user.
    if scale == Scale::Tiny {
        eprintln!("note: --scale tiny is a smoke test; use --scale paper for the reproduction");
    }
}
