//! The span/event model.
//!
//! An [`Event`] is one record in the flight recorder: something that
//! happened (`kind`), when (`ts_ms`), optionally how long it took
//! (`dur_ms` — which is what makes it a *span*), and which trace / job /
//! worker / unit it belongs to.  The optional identity fields are exactly
//! the axes `/v1/debug/events` filters on.

use serde::{Deserialize, Serialize};

/// Milliseconds since the Unix epoch, for event timestamps.
#[must_use]
pub fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// One flight-recorder record: an instantaneous event, or a span when
/// `dur_ms` is set.  This one type is every wire form of an event: the
/// `--log-json` line, the JSONL export, the elements of
/// `/v1/debug/events` and the spans a worker ships in its reports.  Absent
/// optional fields serialize as `null`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Recorder-assigned monotonically increasing sequence number.
    pub seq: u64,
    /// Milliseconds since the Unix epoch (stamped at record time when 0).
    pub ts_ms: u64,
    /// Dotted event kind, e.g. `http.request`, `job.finish`, `lease.report`.
    pub kind: String,
    /// The trace this event belongs to (32 hex chars), if any.
    pub trace: Option<String>,
    /// The job id this event belongs to, if any.
    pub job: Option<u64>,
    /// The fleet worker id this event belongs to, if any.
    pub worker: Option<u64>,
    /// The leased unit id this event belongs to, if any.
    pub unit: Option<u64>,
    /// Span duration in milliseconds; `None` for instantaneous events.
    pub dur_ms: Option<f64>,
    /// Free-form human detail, e.g. `GET /v1/sweeps -> 202`.
    pub detail: String,
}

impl Event {
    /// A new event of the given kind; identity fields attach via the
    /// `with_*` builders.
    #[must_use]
    pub fn new(kind: impl Into<String>) -> Self {
        Event {
            seq: 0,
            ts_ms: 0,
            kind: kind.into(),
            trace: None,
            job: None,
            worker: None,
            unit: None,
            dur_ms: None,
            detail: String::new(),
        }
    }

    /// Attaches a trace id (no-op on `None`, so header plumbing stays terse).
    #[must_use]
    pub fn with_trace(mut self, trace: Option<impl Into<String>>) -> Self {
        self.trace = trace.map(Into::into);
        self
    }

    /// Attaches a job id.
    #[must_use]
    pub fn with_job(mut self, job: u64) -> Self {
        self.job = Some(job);
        self
    }

    /// Attaches a fleet worker id.
    #[must_use]
    pub fn with_worker(mut self, worker: u64) -> Self {
        self.worker = Some(worker);
        self
    }

    /// Attaches a leased unit id.
    #[must_use]
    pub fn with_unit(mut self, unit: u64) -> Self {
        self.unit = Some(unit);
        self
    }

    /// Turns the event into a span of the given duration.
    #[must_use]
    pub fn with_dur_ms(mut self, dur_ms: f64) -> Self {
        self.dur_ms = Some(dur_ms);
        self
    }

    /// Attaches free-form detail text.
    #[must_use]
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = detail.into();
        self
    }
}
