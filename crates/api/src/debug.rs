//! The debug/observability surface of the v1 contract.
//!
//! `GET /v1/debug/events` exposes the coordinator's flight recorder — the
//! bounded ring of recent structured events — filterable by trace id, job
//! id and worker id.  The same [`DebugEvent`] shape rides **into** the
//! coordinator inside a worker's
//! [`ReportRequest`](crate::fleet::ReportRequest): the worker's per-unit
//! spans, tagged with the originating trace, so one trace id links a
//! client's submit to every remote simulation it fanned out into.

use serde::{Deserialize, Serialize};

/// One flight-recorder event on the wire: the recorder's own
/// [`simdsim_obs::Event`], so the `/v1/debug/events` elements, report
/// spans, the JSONL export and `--log-json` lines share one serializer.
pub use simdsim_obs::Event as DebugEvent;

/// The answer to `GET /v1/debug/events`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DebugEvents {
    /// The matching events, oldest first (recording order).
    pub events: Vec<DebugEvent>,
    /// Events the ring has dropped to overflow since the server started —
    /// a non-zero value means older history is gone.
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdsim_obs::{EventFilter, FlightRecorder};

    #[test]
    fn debug_events_round_trip_and_map_onto_recorder_events() {
        let ev = DebugEvent::new("worker.unit")
            .with_trace(Some("ab".repeat(16)))
            .with_job(3)
            .with_worker(1)
            .with_unit(42)
            .with_dur_ms(7.25)
            .with_detail("fig4/idct/sc simulated");
        let text = serde_json::to_string(&DebugEvents {
            events: vec![ev.clone()],
            dropped: 5,
        })
        .expect("serializes");
        let back: DebugEvents = serde_json::from_str(&text).expect("parses");
        assert_eq!(back.dropped, 5);
        assert_eq!(back.events, vec![ev]);
    }

    #[test]
    fn jsonl_lines_are_debug_events() {
        let ring = FlightRecorder::new(8);
        ring.record(
            DebugEvent::new("http.request")
                .with_trace(Some("ab".repeat(16)))
                .with_job(7)
                .with_dur_ms(1.5)
                .with_detail("GET \"/v1/sweeps\\x\"\n-> 202"),
        );
        ring.record(DebugEvent::new("job.start"));
        let (events, _) = ring.snapshot(&EventFilter::default());
        let jsonl = ring.export_jsonl(&EventFilter::default());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2, "embedded newlines must be escaped");
        for (line, ev) in lines.iter().zip(&events) {
            assert_eq!(*line, serde_json::to_string(ev).expect("serializes"));
            let back: DebugEvent = serde_json::from_str(line).expect("parses");
            assert_eq!(&back, ev);
        }
        assert!(lines[0].contains("\"job\":7"));
        assert!(lines[0].contains("\"dur_ms\":1.5"));
        assert!(
            lines[0].contains("\"worker\":null"),
            "absent fields are null"
        );
        assert!(lines[0].contains("\\\"/v1/sweeps\\\\x\\\"\\n-> 202"));
        assert!(lines[1].contains("\"kind\":\"job.start\",\"trace\":null"));
    }
}
