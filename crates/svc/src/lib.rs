//! # cfs-svc
//!
//! The service layer of `cfsd`: the transport and wire protocol for
//! querying a resident CFS session.
//!
//! The crate deliberately knows nothing about the engine. It owns three
//! things:
//!
//! 1. **`cfs-api/1`** ([`proto`]): a versioned, line-delimited JSON
//!    request/response schema with typed errors, following the
//!    `cfs-trace/1` schema-stability discipline — every message carries
//!    `"schema":"cfs-api/1"`, unknown schemas are rejected the way
//!    `cfs check` rejects them, and error responses carry a
//!    stable machine-readable code.
//! 2. **The daemon loop** ([`server`]): a single-threaded accept loop
//!    over a TCP or Unix socket. One request line in, one response line
//!    out; malformed lines are answered with a typed error without
//!    involving the embedder's dispatch function.
//! 3. **The client** ([`client`]): a blocking line-oriented roundtrip
//!    used by `cfs query`, the CI smoke job, and the CLI tests — so raw
//!    socket use stays single-homed in this crate (`clippy.toml` bans
//!    the `std::net` and `std::os::unix::net` socket types everywhere
//!    else).
//!
//! Requests are read with the vendored `serde_json` (nesting capped,
//! raw control characters refused, so hostile lines are typed errors)
//! and reply strings are escaped with `cfs_obs::export::escape`.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]
#![forbid(unsafe_code)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, Endpoint};
pub use proto::{parse_request, ApiError, Reply, Request, CODES, KINDS, OPS, SCHEMA};
pub use server::{Outcome, Server, MAX_REQUEST_LINE};
