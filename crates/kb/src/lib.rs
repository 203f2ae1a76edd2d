//! # cfs-kb
//!
//! The *public* knowledge about the peering ecosystem — everything the
//! paper's authors could look up without measuring: a PeeringDB-like
//! volunteer database, operators' NOC web pages, IXP websites, and
//! PCH/consortium exchange lists (§3.1).
//!
//! Each source is **derived from the ground truth with realistic damage**:
//! volunteer records miss AS-to-facility links, some IXP records omit
//! their partner facilities (the paper's JPNAP example), city names come
//! in inconsistent spellings, and defunct exchanges linger in the lists.
//! The assembly pipeline then rebuilds a usable picture exactly the way
//! §3.1 describes: normalize city/country names, merge metros, require
//! multi-source confirmation for IXP prefixes (≥3 sources) and members
//! (≥2 sources), and filter inactive exchanges.
//!
//! The resulting [`KnowledgeBase`] is the only facility information the
//! CFS algorithm ever sees; ground truth stays behind the measurement
//! interfaces.
//!
//! Assembly is **conflict-aware**: before merging, every claim the
//! sources make is reconciled as a cross-source vote with trust priors
//! (see [`reconcile`]), and each merged record carries a [`Provenance`]
//! verdict. Contested claims stay in the merge for coverage, but the
//! search refuses to pin a facility on them.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]
#![forbid(unsafe_code)]

mod assemble;
mod degrade;
mod reconcile;
mod snapshot;
mod sources;

pub use assemble::{EpochMoves, KnowledgeBase};
pub use degrade::degrade_sources;
pub use reconcile::{
    pairwise_diff, reconcile, ConflictClass, DiffRow, KbQuality, Provenance, Reconciliation,
    SourceId, SourceQuality, CONTESTED_BELOW_PM,
};
pub use sources::{
    IxpSiteRecord, KbConfig, NocPage, PdbFacilityRecord, PdbIxpRecord, PdbNetworkRecord,
    PublicSources, SiteMemberRecord, DETAILED_IXP_SITES,
};
