//! `simdsim-obs` — structured observability.
//!
//! The serving stack can explain *what* it did (`/metrics` counters) but
//! not *where the time went*.  This crate supplies the three missing
//! primitives, shared by the coordinator, the workers, and the CLI:
//!
//! * [`trace`] — 128-bit trace ids rendered as 32 hex chars, carried in
//!   the `X-Simdsim-Trace-Id` header so one id links a client's submit to
//!   the job's execution and every worker unit it sharded into;
//! * [`Event`] + [`FlightRecorder`] — a structured span/event model and a
//!   bounded, lock-cheap ring of the most recent events (overflow drops
//!   the oldest), exportable as JSONL and served on `/v1/debug/events`;
//! * [`Histogram`] — a log-bucketed latency histogram over relaxed
//!   atomics, rendered in Prometheus histogram exposition format
//!   (`_bucket{le=...}` / `_sum` / `_count`).
//!
//! [`Event`] derives `Serialize`/`Deserialize` from the in-tree serde shim
//! (`crates/shims/serde`, rendered by `crates/shims/serde_json`), so every
//! wire form of an event comes from one derive and the crate still builds
//! offline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod hist;
pub mod ring;
pub mod trace;

pub use event::{now_ms, Event};
pub use hist::{quantile_from_buckets, Histogram, BOUNDS_MS};
pub use ring::{EventFilter, FlightRecorder};
pub use trace::TraceId;

/// The HTTP header that carries a trace id end to end (canonical form;
/// header names match case-insensitively on the wire).
pub const TRACE_HEADER: &str = "X-Simdsim-Trace-Id";
