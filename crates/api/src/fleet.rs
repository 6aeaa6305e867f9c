//! The fleet surface of the v1 contract: worker registration, heartbeats,
//! work-assignment leases, per-cell result reports, fleet introspection
//! and store snapshots.
//!
//! A worker process speaks four verbs against the coordinator —
//! `POST /v1/workers/register`, `POST /v1/workers/{id}/heartbeat`,
//! `POST /v1/workers/{id}/lease` and `POST /v1/workers/{id}/report` —
//! all carrying the DTOs below.  Cells ride the wire as the engine's own
//! serializable [`Cell`] type, so a leased cell simulates on the worker
//! with exactly the semantics of the in-process engine, and results come
//! back as the same [`CellStats`] the store caches.

use crate::debug::DebugEvent;
use crate::dto::{SubmitResponse, SweepRequest};
use crate::error::ApiError;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use simdsim_sweep::{Cell, CellPhases, CellStats};

/// A worker announcing itself (`POST /v1/workers/register`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RegisterRequest {
    /// Human-readable worker name (shown in `fleet status`).
    pub name: String,
    /// Concurrent simulation slots the worker offers; also the cell count
    /// it wants per lease.
    pub slots: u64,
    /// Content-address keys already present in the worker's local result
    /// store.  The coordinator uses them for lease affinity: a queued
    /// cell whose key a worker advertises is preferentially leased to
    /// that worker, where it resolves as a cache probe instead of a
    /// simulation.  Optional — an empty list opts out.
    pub cache_keys: Vec<String>,
}

impl Default for RegisterRequest {
    fn default() -> Self {
        Self {
            name: "worker".to_owned(),
            slots: 1,
            cache_keys: Vec::new(),
        }
    }
}

// Hand-written: registration is curl-able, so absent keys take the
// defaults above, and `slots` must be at least 1 — a range check the
// derive cannot express.
impl Deserialize for RegisterRequest {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let Value::Object(_) = v else {
            return Err(SerdeError::invalid("object", "RegisterRequest"));
        };
        let mut out = Self::default();
        match v.get("name") {
            None | Some(Value::Null) => {}
            Some(Value::Str(s)) => out.name = s.clone(),
            Some(_) => return Err(SerdeError::new("`name` must be a string")),
        }
        match v.get("slots") {
            None | Some(Value::Null) => {}
            Some(n) => match u64::from_value(n) {
                Ok(s) if s >= 1 => out.slots = s,
                _ => return Err(SerdeError::new("`slots` must be a number >= 1")),
            },
        }
        match v.get("cache_keys") {
            None | Some(Value::Null) => {}
            Some(list) => {
                out.cache_keys = Vec::from_value(list)
                    .map_err(|_| SerdeError::new("`cache_keys` must be a list of strings"))?;
            }
        }
        Ok(out)
    }
}

/// The coordinator's answer to a registration: the worker's id plus the
/// cadence contract it must honour.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisterResponse {
    /// The id all other fleet routes are addressed with.
    pub worker_id: u64,
    /// How often the worker must heartbeat; missing ~3 intervals evicts
    /// it and re-queues its leased cells.
    pub heartbeat_interval_ms: u64,
    /// How long a lease stays valid without a report before its cells are
    /// re-queued.
    pub lease_ttl_ms: u64,
}

/// The answer to a heartbeat (`POST /v1/workers/{id}/heartbeat`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeartbeatResponse {
    /// The worker's id, echoed.
    pub worker_id: u64,
    /// Workers the coordinator currently considers live.
    pub live_workers: u64,
}

/// A worker asking for cells (`POST /v1/workers/{id}/lease`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LeaseRequest {
    /// Upper bound on cells in the granted lease.
    pub max_cells: u64,
    /// Long-poll budget: how long the coordinator may hold the request
    /// open waiting for work before answering "no lease".
    pub wait_ms: u64,
}

impl Default for LeaseRequest {
    fn default() -> Self {
        Self {
            max_cells: 1,
            wait_ms: 0,
        }
    }
}

// Hand-written for the same reason as `RegisterRequest`: a non-zero
// default (`max_cells: 1`) and the `max_cells >= 1` range check.
impl Deserialize for LeaseRequest {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let Value::Object(_) = v else {
            return Err(SerdeError::invalid("object", "LeaseRequest"));
        };
        let mut out = Self::default();
        match v.get("max_cells") {
            None | Some(Value::Null) => {}
            Some(n) => match u64::from_value(n) {
                Ok(c) if c >= 1 => out.max_cells = c,
                _ => return Err(SerdeError::new("`max_cells` must be a number >= 1")),
            },
        }
        match v.get("wait_ms") {
            None | Some(Value::Null) => {}
            Some(n) => match u64::from_value(n) {
                Ok(w) => out.wait_ms = w,
                Err(_) => return Err(SerdeError::new("`wait_ms` must be a non-negative number")),
            },
        }
        Ok(out)
    }
}

/// One cell of a lease: the coordinator-global work-unit id the report
/// must echo, plus the cell document the worker simulates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeasedCell {
    /// Coordinator-global work-unit id (unique across jobs and leases).
    pub unit: u64,
    /// The cell to simulate.
    pub cell: Cell,
    /// The job the unit belongs to, so worker-side spans can name it.
    pub job: Option<u64>,
    /// The trace id of the originating submission; the worker tags its
    /// per-unit spans with it, which is what stitches a distributed sweep
    /// into one trace.
    pub trace: Option<String>,
}

/// A granted work assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lease {
    /// The lease id the report must carry.
    pub lease_id: u64,
    /// Milliseconds until the lease expires and its cells re-queue.
    pub ttl_ms: u64,
    /// The leased cells.
    pub cells: Vec<LeasedCell>,
}

/// The answer to a lease request: a lease, or `null` when no work was
/// available within the long-poll budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaseResponse {
    /// The granted lease (`null` when the queue is empty).
    pub lease: Option<Lease>,
}

/// One simulated (or failed, or locally cached) cell coming back from a
/// worker.  Reports are a *request*, so the optional fields default to
/// `None` when absent: a worker built before `phases` existed keeps
/// reporting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitResult {
    /// The work-unit id from the lease.
    pub unit: u64,
    /// `true` when the worker served the cell from its local store.
    pub cached: bool,
    /// Wall-clock milliseconds the worker spent simulating.
    pub wall_ms: f64,
    /// The timing statistics (`null` when the cell failed).
    #[serde(default)]
    pub stats: Option<CellStats>,
    /// The failure message (`null` when the cell succeeded).
    #[serde(default)]
    pub error: Option<String>,
    /// The worker-measured breakdown of `wall_ms` (probe / decode /
    /// simulate / store against the worker's local cache).
    #[serde(default)]
    pub phases: Option<CellPhases>,
}

/// A worker reporting lease results (`POST /v1/workers/{id}/report`).
/// Workers report per cell as soon as it resolves; every report refreshes
/// the lease, so only a single cell outrunning the TTL risks a re-queue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportRequest {
    /// The lease these results belong to.
    pub lease_id: u64,
    /// The resolved cells.
    pub results: Vec<UnitResult>,
    /// Worker-side spans for the resolved units (kind `worker.unit`),
    /// tagged with each unit's originating trace.  The coordinator
    /// ingests them into its flight recorder, so
    /// `GET /v1/debug/events?trace=` shows coordinator and worker spans
    /// side by side.  Absent reads as empty: a pre-observability worker
    /// or a minimal curl reproduction still reports.
    #[serde(default)]
    pub spans: Vec<DebugEvent>,
}

/// The coordinator's answer to a report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReportResponse {
    /// Results accepted into the job.
    pub accepted: u64,
    /// Results for units already resolved elsewhere (a duplicate report,
    /// or a cell that was re-queued and finished on another worker) —
    /// dropped as no-ops.
    pub stale: u64,
}

/// One row of the fleet listing (`GET /v1/workers`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerInfo {
    /// The worker's id.
    pub id: u64,
    /// The worker's registered name.
    pub name: String,
    /// Registered simulation slots.
    pub slots: u64,
    /// `true` while the worker heartbeats within its interval contract.
    pub live: bool,
    /// Cells currently leased to the worker.
    pub leased: u64,
    /// Results the coordinator has accepted from the worker.
    pub completed: u64,
    /// Milliseconds since the worker's last heartbeat (any fleet request
    /// counts).
    pub last_seen_ms: u64,
}

/// The fleet status document (`GET /v1/workers`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetStatus {
    /// Every registered worker, oldest first.
    pub workers: Vec<WorkerInfo>,
    /// Cells queued for dispatch but not currently leased.
    pub pending_cells: u64,
}

/// One entry of a store snapshot: a content address and the stored cell's
/// label and statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreSnapshotEntry {
    /// The content-address key (32 hex digits).
    pub key: String,
    /// The cell's display label at save time.
    pub label: String,
    /// The cached statistics.
    pub stats: CellStats,
}

/// A portable dump of a content-addressed result store
/// (`GET/PUT /v1/store/snapshot`, `sweepctl store export/import`) — how a
/// cold worker warm-starts from the coordinator's shared cache tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreSnapshot {
    /// The cache schema version the entries were written under.
    pub schema: u32,
    /// The entries, sorted by key.
    pub entries: Vec<StoreSnapshotEntry>,
}

/// The answer to a snapshot import (`PUT /v1/store/snapshot`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotImported {
    /// Entries newly written into the store.
    pub imported: u64,
    /// Entries skipped (malformed key, or already present).
    pub skipped: u64,
}

/// A batch submission (`POST /v1/sweeps:batch`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchSubmitRequest {
    /// The submissions, answered item-by-item in order.
    pub sweeps: Vec<SweepRequest>,
}

/// One item of a batch answer: exactly one of `submit` (accepted) or
/// `error` (rejected) is set — partial failure is typed, not all-or-
/// nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchSubmitItem {
    /// The accepted submission (`null` when this item was rejected).
    pub submit: Option<SubmitResponse>,
    /// The rejection (`null` when this item was accepted).
    pub error: Option<ApiError>,
}

/// The answer to a batch submission: one item per request, same order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchSubmitResponse {
    /// Per-item outcomes.
    pub items: Vec<BatchSubmitItem>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dto::JobState;
    use crate::error::ErrorCode;
    use simdsim_isa::Ext;
    use simdsim_sweep::{OverrideSet, WorkloadRef};

    fn cell() -> Cell {
        Cell {
            scenario: "fig4".to_owned(),
            workload: WorkloadRef::Kernel("idct".to_owned()),
            ext: Ext::Vmmx128,
            way: 2,
            overrides: OverrideSet::default(),
            instr_limit: 1000,
        }
    }

    #[test]
    fn register_and_lease_requests_accept_sparse_bodies() {
        let r: RegisterRequest = serde_json::from_str("{}").expect("parses");
        assert_eq!(r, RegisterRequest::default());
        let r: RegisterRequest =
            serde_json::from_str(r#"{"name":"w1","slots":4}"#).expect("parses");
        assert_eq!(r.name, "w1");
        assert_eq!(r.slots, 4);
        assert!(r.cache_keys.is_empty());
        let r: RegisterRequest =
            serde_json::from_str(r#"{"name":"w2","cache_keys":["ab12","cd34"]}"#).expect("parses");
        assert_eq!(r.cache_keys, vec!["ab12".to_owned(), "cd34".to_owned()]);
        assert!(serde_json::from_str::<RegisterRequest>(r#"{"slots":0}"#).is_err());
        assert!(serde_json::from_str::<RegisterRequest>(r#"{"name":7}"#).is_err());
        assert!(serde_json::from_str::<RegisterRequest>(r#"{"cache_keys":[3]}"#).is_err());

        let l: LeaseRequest = serde_json::from_str("{}").expect("parses");
        assert_eq!(l, LeaseRequest::default());
        let l: LeaseRequest =
            serde_json::from_str(r#"{"max_cells":8,"wait_ms":250}"#).expect("parses");
        assert_eq!((l.max_cells, l.wait_ms), (8, 250));
        assert!(serde_json::from_str::<LeaseRequest>(r#"{"max_cells":"no"}"#).is_err());
    }

    #[test]
    fn leases_and_reports_round_trip_with_engine_cells() {
        let resp = LeaseResponse {
            lease: Some(Lease {
                lease_id: 3,
                ttl_ms: 30_000,
                cells: vec![LeasedCell {
                    unit: 17,
                    cell: cell(),
                    job: Some(9),
                    trace: Some("ab".repeat(16)),
                }],
            }),
        };
        let text = serde_json::to_string(&resp).expect("serializes");
        let back: LeaseResponse = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, resp);
        assert_eq!(
            back.lease.expect("lease").cells[0].cell.label(),
            "fig4/idct/vmmx128/2way"
        );

        let empty: LeaseResponse = serde_json::from_str(r#"{"lease":null}"#).expect("parses");
        assert_eq!(empty.lease, None);

        let report = ReportRequest {
            lease_id: 3,
            results: vec![UnitResult {
                unit: 17,
                cached: false,
                wall_ms: 1.5,
                stats: None,
                error: Some("boom".to_owned()),
                phases: Some(CellPhases {
                    probe_ms: 0.1,
                    decode_ms: 0.2,
                    simulate_ms: 1.0,
                    store_ms: 0.0,
                }),
            }],
            spans: vec![DebugEvent {
                seq: 0,
                ts_ms: 1,
                kind: "worker.unit".to_owned(),
                trace: Some("ab".repeat(16)),
                job: Some(9),
                worker: None,
                unit: Some(17),
                dur_ms: Some(1.5),
                detail: String::new(),
            }],
        };
        let text = serde_json::to_string(&report).expect("serializes");
        let back: ReportRequest = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, report);

        // A pre-observability report — no `spans`, results without
        // `phases` — must still parse (requests grow compatibly).
        let sparse: ReportRequest = serde_json::from_str(
            r#"{"lease_id":3,"results":[{"unit":17,"cached":true,"wall_ms":0.0}]}"#,
        )
        .expect("sparse report parses");
        assert!(sparse.spans.is_empty());
        assert_eq!(sparse.results[0].phases, None);
        assert_eq!(sparse.results[0].stats, None);
    }

    #[test]
    fn fleet_status_and_snapshot_round_trip() {
        let status = FleetStatus {
            workers: vec![WorkerInfo {
                id: 1,
                name: "w1".to_owned(),
                slots: 2,
                live: true,
                leased: 3,
                completed: 40,
                last_seen_ms: 120,
            }],
            pending_cells: 7,
        };
        let text = serde_json::to_string(&status).expect("serializes");
        let back: FleetStatus = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, status);

        let snap: StoreSnapshot =
            serde_json::from_str(r#"{"schema":2,"entries":[]}"#).expect("parses");
        assert_eq!(snap.schema, 2);
        assert!(snap.entries.is_empty());
    }

    #[test]
    fn batch_items_carry_typed_partial_failure() {
        let resp = BatchSubmitResponse {
            items: vec![
                BatchSubmitItem {
                    submit: Some(SubmitResponse {
                        id: 1,
                        url: "/v1/sweeps/1".to_owned(),
                        state: JobState::Queued,
                        deduped: false,
                        trace: None,
                    }),
                    error: None,
                },
                BatchSubmitItem {
                    submit: None,
                    error: Some(ApiError::new(
                        ErrorCode::UnknownScenario,
                        "no scenario `fig9`",
                    )),
                },
            ],
        };
        let text = serde_json::to_string(&resp).expect("serializes");
        let back: BatchSubmitResponse = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, resp);
    }
}
