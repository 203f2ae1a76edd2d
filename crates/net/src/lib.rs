//! # cfs-net
//!
//! IPv4 address-plan machinery for the `cfs` workspace:
//!
//! * [`Ipv4Prefix`] — a CIDR prefix with parsing, containment and
//!   subnetting;
//! * [`PrefixTrie`] — a binary radix trie supporting longest-prefix-match
//!   lookups, the core of IP-to-ASN mapping and IXP-prefix detection;
//! * [`SubnetAllocator`] / [`HostAllocator`] — deterministic address
//!   allocation for the topology generator;
//! * [`IpAsnDb`] — the Team-Cymru-substitute IP→ASN service of §4.1,
//!   built from (synthetic) BGP announcements.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]
#![forbid(unsafe_code)]

mod alloc;
mod ipasn;
mod prefix;
mod trie;

pub use alloc::{HostAllocator, SubnetAllocator};
pub use ipasn::{Announcement, IpAsnDb};
pub use prefix::Ipv4Prefix;
pub use trie::PrefixTrie;
