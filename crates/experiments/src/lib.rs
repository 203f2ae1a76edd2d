//! # cfs-experiments
//!
//! The evaluation harness: one module (and one binary) per table and
//! figure of the paper's evaluation, plus the in-text statistics of §5.
//!
//! | id | artifact | binary |
//! |----|----------|--------|
//! | `table1` | Table 1 — measurement platforms | `cargo run -p cfs-experiments --bin table1` |
//! | `fig2` | Figure 2 — NOC-page facilities vs PeeringDB coverage | `--bin fig2` |
//! | `fig3` | Figure 3 — metros with ≥ 10 facilities | `--bin fig3` |
//! | `fig7` | Figure 7 — CFS convergence, per platform | `--bin fig7` |
//! | `fig8` | Figure 8 — robustness to removed facilities | `--bin fig8` |
//! | `fig9` | Figure 9 — validated accuracy by source × type | `--bin fig9` |
//! | `fig10` | Figure 10 — interfaces by peering type and region | `--bin fig10` |
//! | `text_stats` | §5 in-text statistics | `--bin text_stats` |
//! | `proximity` | §4.4 switch-proximity evaluation | `--bin proximity` |
//! | `dns_geo` | §5/§7 DNS, IP-database & CBG geolocation baselines | `--bin dns_geo` |
//! | `ablation` | extension — disable one §4 mechanism at a time | `--bin ablation` |
//! | `kind_confusion` | extension — peering-type confusion matrix | `--bin kind_confusion` |
//! | `fault_curve` | extension — accuracy vs probe/KB fault rate | `--bin fault_curve` |
//! | `disruption_eval` | extension — streaming disruption detection vs withheld schedule | `--bin disruption_eval` |
//!
//! Every binary accepts `--scale tiny|default|paper` (default: `default`)
//! and `--seed N`, writes `results/<id>.md` and `results/<id>.json`, and
//! prints the table to stdout. `--bin all` runs everything.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
mod lab;
mod output;

pub use lab::{Lab, Scale, Substrate};
pub use output::{results_dir, Output};

/// Parses the common CLI arguments (`--scale`, `--seed`).
pub fn parse_args() -> (Scale, Option<u64>) {
    let mut scale = Scale::Default;
    let mut seed = None;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                if let Some(v) = args.get(i + 1) {
                    scale = match v.as_str() {
                        "tiny" => Scale::Tiny,
                        "paper" => Scale::Paper,
                        _ => Scale::Default,
                    };
                    i += 1;
                }
            }
            "--seed" => {
                if let Some(v) = args.get(i + 1) {
                    seed = v.parse().ok();
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    (scale, seed)
}
