//! The v1 data-transfer objects.
//!
//! Everything the service says or accepts on the wire is one of these
//! types; the server serializes them and [`simdsim-client`] deserializes
//! them, so there is exactly one definition of every field name.  The
//! shapes are supersets of the pre-v1 hand-rolled JSON (same field names,
//! a few additions such as [`CellResult::index`] and
//! [`SubmitResponse::deduped`]), which is what lets the unversioned legacy
//! routes alias the v1 handlers byte-compatibly.

use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use simdsim_sweep::{
    CellOutcome, CellPhases, CellStats, CpiStack, ProgressEvent, Scenario, StallCause, SweepReport,
    NUM_REGIONS, REGION_LABELS,
};

/// The API version segment every v1 route is mounted under.
pub const API_BASE: &str = "/v1";

/// Lifecycle of one submitted sweep job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting on the queue.
    Queued,
    /// Picked up by a worker, cells resolving.
    Running,
    /// Every cell resolved successfully (from cache or simulation).
    Done,
    /// At least one cell failed.
    Failed,
    /// Cancelled before or during the run; cells resolved before the
    /// cancel keep their statistics.
    Cancelled,
}

impl JobState {
    /// Lower-case wire name of the state.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses a wire name back into a state.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }

    /// `true` once the job can no longer change state.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// Hand-written so the wire names stay lower-case (the derive shim would
// emit the capitalized variant names).
impl Serialize for JobState {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_owned())
    }
}

impl Deserialize for JobState {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match v {
            Value::Str(s) => {
                JobState::parse(s).ok_or_else(|| SerdeError::unknown_variant(s, "JobState"))
            }
            _ => Err(SerdeError::invalid("string", "JobState")),
        }
    }
}

/// A sweep submission: exactly one of `scenario` (a catalog/user scenario
/// by name) or `inline` (a full scenario document), optionally filtered.
/// Human-authored bodies (curl one-liners) omit the keys they don't use,
/// so every field defaults to `None`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SweepRequest {
    /// Name of a catalog or user scenario.
    #[serde(default)]
    pub scenario: Option<String>,
    /// A full inline scenario document.
    #[serde(default)]
    pub inline: Option<Scenario>,
    /// Substring filter on cell labels.
    #[serde(default)]
    pub filter: Option<String>,
}

impl SweepRequest {
    /// A request for the named catalog/user scenario.
    #[must_use]
    pub fn by_name(name: impl Into<String>) -> Self {
        Self {
            scenario: Some(name.into()),
            ..Self::default()
        }
    }

    /// A request carrying a full inline scenario document.
    #[must_use]
    pub fn inline(scenario: Scenario) -> Self {
        Self {
            inline: Some(scenario),
            ..Self::default()
        }
    }

    /// Adds a cell-label substring filter.
    #[must_use]
    pub fn filter(mut self, filter: impl Into<String>) -> Self {
        self.filter = Some(filter.into());
        self
    }

    /// Checks the exactly-one-of invariant.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated rule.
    pub fn validate(&self) -> Result<(), String> {
        match (&self.scenario, &self.inline) {
            (Some(_), None) | (None, Some(_)) => Ok(()),
            _ => Err(
                "body must have exactly one of `scenario` (name) or `inline` (document)".to_owned(),
            ),
        }
    }
}

/// Live cell counters of a job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Progress {
    /// Cells in the (filtered) sweep.
    pub total: u64,
    /// Cells resolved so far.
    pub completed: u64,
    /// Of those, cells served from the store.
    pub cached: u64,
}

/// One resolved cell: the unit the service streams while a job runs and
/// lists in the final result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// The cell's position in the scenario's deterministic expansion
    /// order (stream order is completion order; sort by `index` to
    /// recover expansion order).
    pub index: u64,
    /// The cell's display label.
    pub label: String,
    /// `true` when the result came from the content-addressed store.
    pub cached: bool,
    /// Simulation throughput in MIPS (`null` for cached/failed cells).
    pub mips: Option<f64>,
    /// The timing statistics (`null` when the cell failed).
    pub stats: Option<CellStats>,
    /// The failure message (`null` when the cell succeeded).
    pub error: Option<String>,
    /// Wall-clock breakdown of the cell's resolution (probe / decode /
    /// simulate / store, milliseconds).  Cells streamed while the job
    /// runs report the phases known so far; `store_ms` lands in the final
    /// result, once the write-back has happened.
    pub phases: Option<CellPhases>,
    /// The cell's rendered CPI stack (`null` when the cell failed or its
    /// run had profiling off).  Absent in bodies from pre-profiler
    /// servers, which reads as `null`.
    #[serde(default)]
    pub profile: Option<CpiProfile>,
}

impl CellResult {
    /// Builds the DTO for one engine progress event.
    #[must_use]
    pub fn from_progress(ev: &ProgressEvent) -> Self {
        let secs = ev.wall.as_secs_f64();
        let mips = match &ev.stats {
            Some(s) if !ev.cached && secs > 0.0 => Some(s.instrs as f64 / secs / 1.0e6),
            _ => None,
        };
        Self {
            index: ev.index as u64,
            label: ev.label.clone(),
            cached: ev.cached,
            mips,
            stats: ev.stats.clone(),
            error: ev.error.clone(),
            phases: Some(ev.phases),
            profile: ev
                .stats
                .as_ref()
                .and_then(|s| s.profile.as_ref())
                .map(CpiProfile::from_stack),
        }
    }

    /// Builds the DTO for one final report outcome.
    #[must_use]
    pub fn from_outcome(index: usize, o: &CellOutcome) -> Self {
        Self {
            index: index as u64,
            label: o.cell.label(),
            cached: o.cached,
            mips: o.mips(),
            stats: o.stats.as_ref().ok().cloned(),
            error: o.stats.as_ref().err().map(|e| e.message.clone()),
            phases: Some(o.phases),
            profile: o
                .stats
                .as_ref()
                .ok()
                .and_then(|s| s.profile.as_ref())
                .map(CpiProfile::from_stack),
        }
    }
}

/// One row of a rendered CPI stack: commit slots charged to one stall
/// cause in one code region.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallEntry {
    /// Stall cause (`data_dep`, `fu_contention`, `issue_width`,
    /// `branch_recovery`, `l1`, `l2`, `memory`, `rename_queue`).
    pub cause: String,
    /// Code region the slots belong to (`scalar` or `vector`).
    pub region: String,
    /// Commit slots lost to this cause in this region.
    pub slots: u64,
}

/// Retired commit slots of one Figure-7 instruction class.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassSlots {
    /// Class label (`smem`, `sarith`, `sctrl`, `vmem`, `varith`).
    pub class: String,
    /// Commit slots that retired an instruction of this class.
    pub slots: u64,
}

/// A rendered CPI stack: where every commit slot of a run (or of a whole
/// job, when aggregated) went.  Invariant: `issue + Σ stalls == slots`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpiProfile {
    /// Execution cycles (summed across cells in an aggregate).
    pub cycles: u64,
    /// Commit width the slots were counted at; `0` when the aggregate
    /// mixes widths.
    pub way: u64,
    /// Total commit slots accounted (`cycles × way` per cell).
    pub slots: u64,
    /// Slots that retired an instruction (== committed instructions).
    pub issue: u64,
    /// Cycles per committed instruction.
    pub cpi: f64,
    /// Retired slots by Figure-7 class, in the figure's stacking order.
    pub classes: Vec<ClassSlots>,
    /// Stalled slots by cause and region, largest first (zero rows are
    /// omitted).
    pub stalls: Vec<StallEntry>,
}

impl CpiProfile {
    /// Renders a model-layer [`CpiStack`] into the wire shape: labelled
    /// rows, sorted largest-stall-first.
    #[must_use]
    pub fn from_stack(stack: &CpiStack) -> Self {
        let classes = simdsim_isa::Class::ALL
            .iter()
            .map(|c| ClassSlots {
                class: c.label().to_owned(),
                slots: stack.class_slots[*c as usize],
            })
            .collect();
        let mut stalls: Vec<StallEntry> = StallCause::ALL
            .iter()
            .flat_map(|cause| {
                (0..NUM_REGIONS).map(|region| StallEntry {
                    cause: cause.label().to_owned(),
                    region: REGION_LABELS[region].to_owned(),
                    slots: stack.stall(*cause, region),
                })
            })
            .filter(|e| e.slots > 0)
            .collect();
        stalls.sort_by(|a, b| {
            b.slots
                .cmp(&a.slots)
                .then_with(|| a.cause.cmp(&b.cause))
                .then_with(|| a.region.cmp(&b.region))
        });
        Self {
            cycles: stack.cycles,
            way: stack.way,
            slots: stack.slots,
            issue: stack.issue_total(),
            cpi: stack.cpi(),
            classes,
            stalls,
        }
    }

    /// Slots lost to stalls, all rows.
    #[must_use]
    pub fn stall_total(&self) -> u64 {
        self.stalls.iter().map(|e| e.slots).sum()
    }
}

/// The aggregated CPI stack of one job
/// (`GET /v1/sweeps/{id}/profile`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileResponse {
    /// The id the profile was requested under.
    pub id: u64,
    /// The job's state when the aggregate was cut (a running job yields
    /// the partial aggregate over cells resolved so far).
    pub state: JobState,
    /// Cells whose stacks contributed to the aggregate.
    pub cells: u64,
    /// Cells that resolved successfully but carried no stack (profiling
    /// off, or results cached by a pre-profiler build).
    pub missing: u64,
    /// The aggregate stack (`null` when no cell contributed).
    pub profile: Option<CpiProfile>,
}

/// The final result of a finished job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Per-cell outcomes in deterministic expansion order.
    pub cells: Vec<CellResult>,
    /// Cells served from the store.
    pub cached: u64,
    /// Cells simulated in this job.
    pub executed: u64,
    /// Cells that failed.
    pub failed: u64,
    /// Wall-clock milliseconds spent simulating.
    pub simulated_wall_ms: f64,
    /// Aggregate simulation throughput in MIPS (`null` if all cached).
    pub simulated_mips: Option<f64>,
}

impl SweepResult {
    /// Builds the DTO for a finished engine report.
    #[must_use]
    pub fn from_report(report: &SweepReport) -> Self {
        Self {
            cells: report
                .outcomes
                .iter()
                .enumerate()
                .map(|(i, o)| CellResult::from_outcome(i, o))
                .collect(),
            cached: report.cached() as u64,
            executed: report.executed() as u64,
            failed: report.failed() as u64,
            simulated_wall_ms: report.simulated_wall().as_secs_f64() * 1.0e3,
            simulated_mips: report.simulated_mips(),
        }
    }
}

/// The status document of one job (`GET /v1/sweeps/{id}`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepStatus {
    /// The id this status was requested under (a deduplicated submission
    /// observes the shared run under its own id).
    pub id: u64,
    /// The scenario's name.
    pub scenario: String,
    /// The submission's cell-label filter.
    pub filter: Option<String>,
    /// Current lifecycle state.
    pub state: JobState,
    /// Live cell counters.
    pub progress: Progress,
    /// The final result (`null` until the job reaches a terminal state;
    /// stays `null` for jobs cancelled while queued).
    pub result: Option<SweepResult>,
}

/// The answer to a submission (`POST /v1/sweeps`, status 202).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitResponse {
    /// The job id to poll.
    pub id: u64,
    /// The job's v1 status URL.
    pub url: String,
    /// The job's state at submission time.
    pub state: JobState,
    /// `true` when this submission was coalesced onto an identical
    /// already-queued/running job (one engine run, observed by both ids).
    pub deduped: bool,
    /// The trace id the job is tagged with: the request's
    /// `X-Simdsim-Trace-Id` header when one was sent, otherwise a
    /// server-generated id.  Follow it on `GET /v1/debug/events?trace=`.
    pub trace: Option<String>,
}

/// One entry of the scenario listing (`GET /v1/scenarios`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioInfo {
    /// Scenario name (what [`SweepRequest::by_name`] takes).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Number of cells the scenario expands to (unfiltered).
    pub cells: u64,
    /// `"catalog"` for built-ins, `"user"` for `--scenario-file` entries.
    pub source: String,
}

/// One page of the per-cell result stream
/// (`GET /v1/sweeps/{id}/cells?since=N`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellsPage {
    /// The id the page was requested under.
    pub id: u64,
    /// The job's state when the page was cut.
    pub state: JobState,
    /// The cursor this page starts at (echoed from `?since=`).
    pub since: u64,
    /// The cursor to pass as `?since=` for the next page.
    pub next: u64,
    /// Total cells in the (filtered) sweep.
    pub total: u64,
    /// `true` when the job is terminal and every streamed cell has been
    /// delivered at or before `next` — the stream is complete.
    pub done: bool,
    /// The cells resolved since the cursor, in completion order.
    pub cells: Vec<CellResult>,
}

/// One row of the job listing (`GET /v1/sweeps`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSummary {
    /// The job id.
    pub id: u64,
    /// The scenario's name.
    pub scenario: String,
    /// The submission's cell-label filter.
    pub filter: Option<String>,
    /// Current lifecycle state.
    pub state: JobState,
    /// Live cell counters.
    pub progress: Progress,
}

/// The job listing (`GET /v1/sweeps`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobList {
    /// Every known job (queued, running, and retained finished jobs),
    /// newest first.
    pub jobs: Vec<JobSummary>,
}

/// The liveness document (`GET /v1/healthz`) — also the version
/// negotiation handshake: the server advertises every API version it
/// speaks in `api_versions`, and the client refuses to proceed when its
/// own version is not on the list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Health {
    /// `"ok"` when the service is up.
    pub status: String,
    /// The preferred (newest) API version the server speaks (`"v1"`).
    pub version: String,
    /// Every API version the server answers, newest first.
    pub api_versions: Vec<String>,
    /// Queued (not yet running) jobs.
    pub queue_depth: u64,
}

impl Health {
    /// A healthy document for the current API version.
    #[must_use]
    pub fn ok(queue_depth: u64) -> Self {
        Self {
            status: "ok".to_owned(),
            version: crate::API_VERSION.to_owned(),
            api_versions: vec![crate::API_VERSION.to_owned()],
            queue_depth,
        }
    }

    /// `true` when the server speaks API version `v`.
    #[must_use]
    pub fn speaks(&self, v: &str) -> bool {
        self.api_versions.iter().any(|s| s == v)
    }
}

// Hand-written: a pre-negotiation server answers without `api_versions`,
// which must read as "speaks exactly `version`" — a default that depends
// on another field, which `#[serde(default)]` cannot express.
impl Deserialize for Health {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let Value::Object(_) = v else {
            return Err(SerdeError::invalid("object", "Health"));
        };
        let status = match v.get("status") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err(SerdeError::invalid("string `status` field", "Health")),
        };
        let version = match v.get("version") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err(SerdeError::invalid("string `version` field", "Health")),
        };
        let api_versions = match v.get("api_versions") {
            None | Some(Value::Null) => vec![version.clone()],
            Some(list) => Vec::<String>::from_value(list)
                .map_err(|e| SerdeError::new(format!("field `api_versions` of Health: {e}")))?,
        };
        let queue_depth = match v.get("queue_depth") {
            Some(n) => u64::from_value(n)
                .map_err(|e| SerdeError::new(format!("field `queue_depth` of Health: {e}")))?,
            None => return Err(SerdeError::new("missing field `queue_depth` of Health")),
        };
        Ok(Self {
            status,
            version,
            api_versions,
            queue_depth,
        })
    }
}

/// Convenience: parses a typed DTO out of a JSON body, mapping failures
/// onto a plain message (what server handlers wrap into an error DTO).
///
/// # Errors
///
/// Returns the parse failure as a message.
pub fn parse_json<T: Deserialize>(text: &str) -> Result<T, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdsim_isa::Ext;

    #[test]
    fn job_states_round_trip_lower_case() {
        for st in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            let text = serde_json::to_string(&st).expect("serializes");
            assert_eq!(text, format!("\"{}\"", st.as_str()));
            let back: JobState = serde_json::from_str(&text).expect("parses");
            assert_eq!(back, st);
        }
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(serde_json::from_str::<JobState>("\"paused\"").is_err());
    }

    #[test]
    fn sweep_request_accepts_sparse_bodies_and_validates() {
        // A curl-style body with only the keys the user typed.
        let r: SweepRequest = serde_json::from_str(r#"{"scenario":"fig4"}"#).expect("parses");
        assert_eq!(r.scenario.as_deref(), Some("fig4"));
        assert_eq!(r.inline, None);
        assert_eq!(r.filter, None);
        r.validate().expect("valid");

        let r: SweepRequest =
            serde_json::from_str(r#"{"scenario":"fig4","filter":"/idct/"}"#).expect("parses");
        assert_eq!(r.filter.as_deref(), Some("/idct/"));

        // Neither or both of scenario/inline is invalid.
        let r: SweepRequest = serde_json::from_str("{}").expect("parses");
        assert!(r.validate().is_err());

        // Wrong field types are parse errors, not silent Nones.
        assert!(serde_json::from_str::<SweepRequest>(r#"{"filter":7}"#).is_err());
        assert!(serde_json::from_str::<SweepRequest>(r#"{"scenario":[1]}"#).is_err());
        assert!(serde_json::from_str::<SweepRequest>("[]").is_err());
    }

    #[test]
    fn sweep_request_round_trips_an_inline_scenario() {
        let scenario = Scenario::new("inline-demo", "one cell")
            .kernels(["idct"])
            .exts([Ext::Vmmx128])
            .ways([2]);
        let req = SweepRequest::inline(scenario).filter("/idct/");
        let text = serde_json::to_string(&req).expect("serializes");
        let back: SweepRequest = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, req);
        back.validate().expect("valid");
    }

    #[test]
    fn status_documents_round_trip() {
        let status = SweepStatus {
            id: 7,
            scenario: "fig4".to_owned(),
            filter: Some("/idct/".to_owned()),
            state: JobState::Running,
            progress: Progress {
                total: 4,
                completed: 2,
                cached: 1,
            },
            result: None,
        };
        let text = serde_json::to_string(&status).expect("serializes");
        let back: SweepStatus = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, status);

        let page = CellsPage {
            id: 7,
            state: JobState::Done,
            since: 2,
            next: 4,
            total: 4,
            done: true,
            cells: Vec::new(),
        };
        let text = serde_json::to_string(&page).expect("serializes");
        let back: CellsPage = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, page);

        let health = Health::ok(3);
        assert_eq!(health.version, "v1");
        assert!(health.speaks("v1"));
        assert!(!health.speaks("v2"));
        let text = serde_json::to_string(&health).expect("serializes");
        let back: Health = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, health);

        // A pre-negotiation health body (no `api_versions`) still parses
        // and implies the server speaks exactly its `version`.
        let legacy: Health =
            serde_json::from_str(r#"{"status":"ok","version":"v1","queue_depth":0}"#)
                .expect("legacy parses");
        assert_eq!(legacy.api_versions, vec!["v1".to_owned()]);
    }
}
