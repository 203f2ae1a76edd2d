//! # cfs-alias
//!
//! Alias resolution in the style of MIDAR (§4.1 of the paper): group the
//! IP interfaces observed in traceroutes into routers by probing their
//! IP-ID counters and applying the monotonic bounds test, then correct
//! IP-to-ASN mappings by majority vote inside each alias set.
//!
//! The paper resolved 25,756 peering interfaces into 2,895 alias sets, of
//! which 240 contained interfaces with conflicting IP-to-ASN mappings —
//! exactly the contamination our topology generator plants (point-to-point
//! subnets allocated from one peer's space, sibling address sharing).
//! Routers that answer with random, constant, or no IP-IDs (the Google
//! case) stay unresolved, producing the same false negatives the paper
//! reports.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]
#![forbid(unsafe_code)]

mod correct;
mod midar;
mod prober;

pub use correct::{correct_ip_to_asn, CorrectionStats};
pub use midar::{resolve_aliases, AliasResolution};
pub use prober::IpIdProber;
