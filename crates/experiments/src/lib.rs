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
#![deny(clippy::unwrap_used)]
#![forbid(unsafe_code)]

pub mod experiments;
mod lab;
mod output;

pub use lab::{Lab, Scale, Substrate};
pub use output::{results_dir, Output};

/// Parses the common CLI arguments (`--scale`, `--seed`); a missing or
/// malformed value exits 2 after naming the flag.
pub fn parse_args() -> (Scale, Option<u64>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    scale_and_seed(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// `--scale` and `--seed` from `args` (the last occurrence of each wins).
fn scale_and_seed(args: &[String]) -> Result<(Scale, Option<u64>), String> {
    let value = |flag: &str| -> Result<Option<&String>, String> {
        match args.iter().rposition(|a| a == flag) {
            None => Ok(None),
            Some(at) => args
                .get(at + 1)
                .map(Some)
                .ok_or_else(|| format!("{flag} wants a value")),
        }
    };
    let scale = match value("--scale")? {
        None => Scale::Default,
        Some(v) => Scale::parse(v)
            .ok_or_else(|| format!("--scale wants tiny, default or paper, got {v:?}"))?,
    };
    let seed = value("--seed")?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--seed wants a number, got {v:?}"))
        })
        .transpose()?;
    Ok((scale, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Scale, Option<u64>), String> {
        scale_and_seed(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn scale_and_seed_refuse_bad_values_naming_the_flag() {
        assert_eq!(parse(&[]), Ok((Scale::Default, None)));
        assert_eq!(
            parse(&["--scale", "tiny", "--seed", "7"]),
            Ok((Scale::Tiny, Some(7)))
        );
        for (args, flag) in [
            (&["--scale", "huge"][..], "--scale"),
            (&["--scale"][..], "--scale"),
            (&["--seed", "x"][..], "--seed"),
            (&["--scale", "paper", "--seed"][..], "--seed"),
        ] {
            let err = parse(args).expect_err("bad value accepted");
            assert!(err.starts_with(flag), "{args:?}: {err}");
        }
    }
}
