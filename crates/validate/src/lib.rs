//! # cfs-validate
//!
//! The paper's validation machinery (§6): four independent ground-truth
//! channels with the same coverage quirks the authors faced, and the
//! scoring that produces Figure 9.
//!
//! * **Direct feedback** — two CDN operators confirm facilities, but
//!   "only for their own interfaces, not the facilities of their peers".
//! * **BGP communities** — four transit providers tag route ingress
//!   points; only values present in the compiled dictionary (109 in the
//!   paper) can validate anything.
//! * **DNS records** — per-operator naming conventions for a handful of
//!   operators, confirmed current; a few records are stale anyway, which
//!   is noise on the *validator* side.
//! * **IXP websites** — the detailed (AMS-IX-like) exchanges publish
//!   interface-to-facility mappings and remote/local annotations.
//!
//! Each oracle answers for a *subset* of interfaces; the scorer buckets
//! comparisons by validation source and inferred link type.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]
#![forbid(unsafe_code)]

mod oracle;
mod score;

pub use oracle::{OracleAnswer, ValidationOracles, ValidationSource};
pub use score::{score_report, Bucket, ValidationReport};
