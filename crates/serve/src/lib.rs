//! `simdsim-serve` — the serving layer of the workspace.
//!
//! Every consumer used to shell into the `sweep` CLI on the local
//! machine; this crate exposes the same engine as a long-lived HTTP
//! service speaking the **typed, versioned `/v1` contract** defined in
//! `simdsim-api` (consumed by `simdsim-client`):
//!
//! * a dependency-free **HTTP/1.1** layer over [`std::net`] (the build
//!   environment has no registry access, so the request parser is
//!   hand-rolled like the workspace's serde shims — see [`http`]);
//! * a bounded **job queue** ([`jobs`]) between the request path and the
//!   sweep engine, with live per-cell progress via
//!   [`simdsim_sweep::run_with_executor`], **cursor streaming** of cell
//!   results while a job runs (`GET /v1/sweeps/{id}/cells?since=N`
//!   long-poll), **cooperative cancellation** (`DELETE /v1/sweeps/{id}`),
//!   **coalescing** of identical queued/running submissions onto one
//!   engine run, and a **configurable retention policy** (count cap +
//!   TTL) on finished jobs;
//! * **metrics** ([`metrics`]) in the Prometheus text format: requests,
//!   queue depth, cache hit ratio, coalesce/cancel tallies, simulated
//!   MIPS, fleet liveness;
//! * a **worker fleet coordinator** ([`fleet`]): worker processes
//!   register over `/v1/workers/*`, lease cells, execute them with the
//!   very same deterministic engine, and report per-cell results; jobs
//!   are sharded across live workers through the engine's
//!   [`simdsim_sweep::CellExecutor`] seam ([`exec`]), running in-process
//!   while no worker is live, with lease
//!   timeouts re-queueing cells from dead workers, so a sharded sweep is
//!   bit-identical to a single-process one even across mid-job worker
//!   crashes.
//!
//! Results flow through the content-addressed store, so resubmitting an
//! identical sweep is served from cache without re-simulating a single
//! cell — and a submission identical to one still queued or running does
//! not even enqueue: it is coalesced onto the in-flight job, and both ids
//! observe the same deterministic, bit-identical statistics.
//!
//! The pre-v1 unversioned routes remain as deprecated aliases onto the
//! v1 handlers; see [`server`] for the endpoint table.
//!
//! # Example
//!
//! ```
//! use simdsim_client::SimdsimClient;
//! use simdsim_serve::{Server, ServerConfig};
//! use std::time::Duration;
//!
//! let server = Server::start(ServerConfig {
//!     addr: "127.0.0.1:0".to_owned(), // ephemeral port
//!     cache_dir: None,                // no cross-run state in doctests
//!     ..ServerConfig::default()
//! })
//! .expect("bind");
//! let mut client =
//!     SimdsimClient::connect(server.addr(), Duration::from_secs(5)).expect("connect");
//! let health = client.health().expect("healthz");
//! assert_eq!(health.status, "ok");
//! assert_eq!(health.version, simdsim_api::API_VERSION);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod fleet;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod server;

pub use exec::{run_job, spawn_workers, ExecContext};
pub use fleet::{Fleet, FleetConfig, FleetExecutor};
pub use http::{Request, Response};
pub use jobs::{CancelOutcome, Job, JobQueue, RetentionPolicy, Submission};
pub use metrics::{Gauges, Metrics};
pub use server::{Server, ServerConfig};

// The wire types the server speaks, re-exported for embedders.
pub use simdsim_api::{ApiError, ErrorCode, JobState, SweepStatus};
