//! `fpm-serve`: a partition-serving daemon for the functional performance
//! model.
//!
//! The paper's partitioning algorithms are fast (milliseconds) but the
//! models they consume are expensive to build and worth sharing: a cluster
//! is measured once (§3.1) and then partitioned many times, for many
//! problem sizes, by many applications. This crate turns the partitioners
//! into a long-lived network service:
//!
//! * [`registry`] — named clusters of speed and cost models, addressable
//!   by name or content fingerprint, shared across threads as raw models
//!   behind `Arc` (the solve path holds no evaluation memo: a piece-wise
//!   evaluation is cheaper than the lookup that would replay it), refined
//!   online by the `report` verb with a per-cluster epoch bumped on every
//!   accepted refinement;
//! * [`cache`] — a sharded LRU plan cache keyed by `(fingerprint, epoch,
//!   n, algorithm)` with single-flight deduplication of concurrent misses;
//! * [`engine`] — bounded admission over the process-wide
//!   [`fpm_exec::pool::WorkerPool`], with per-request deadlines and load
//!   shedding;
//! * [`metrics`] — lock-free counters and latency histograms, served by
//!   the `stats` verb and dumped on graceful shutdown;
//! * [`server`] / [`client`] — the line-delimited JSON TCP protocol
//!   ([`protocol`]) and a small blocking client;
//! * [`loadgen`] — a deterministic closed-loop load generator;
//! * [`json`] — the minimal, std-only JSON support everything above uses
//!   (the build environment is offline; no serde).
//!
//! Everything is `std`-only and deterministic: a cached plan is
//! bit-identical to recomputation by construction of the cache key, and
//! the integration tests check server responses against local solves on
//! seeded testkit clusters.

pub mod cache;
pub mod client;
pub mod engine;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod poll;
pub mod protocol;
pub mod registry;
pub mod server;

pub use client::{Client, PartitionReply, RegisterReply, ReportReply};
pub use engine::{solve, solve_warm, Engine, EngineConfig, Plan};
pub use loadgen::{LoadMode, LoadgenConfig, LoadgenReport};
pub use fpm_core::planner::AlgorithmId;
pub use protocol::ProtoError;
pub use registry::{Registry, ReportOutcome};
pub use server::{spawn, ServerConfig, ServerHandle};
