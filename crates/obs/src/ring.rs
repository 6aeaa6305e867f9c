//! The flight recorder: a bounded ring of recent [`Event`]s.
//!
//! The recorder is deliberately boring — one short mutex around a
//! `VecDeque` — because every record is a push plus at most one pop, and
//! snapshots clone only what a debug request asked for.  When the ring is
//! full the **oldest** event is dropped: a flight recorder's job is to
//! hold the most recent history at the moment someone asks "what just
//! happened?".

use crate::event::{now_ms, Event};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Filter for [`FlightRecorder::snapshot`]: every `Some` field must match
/// the event exactly; `limit` keeps the newest N matches.
#[derive(Debug, Clone, Default)]
pub struct EventFilter {
    /// Keep only events of this trace (32 hex chars).
    pub trace: Option<String>,
    /// Keep only events of this job id.
    pub job: Option<u64>,
    /// Keep only events of this fleet worker id.
    pub worker: Option<u64>,
    /// Keep only events whose kind starts with this prefix.
    pub kind_prefix: Option<String>,
    /// Most matches to return, newest kept (0 = no limit).
    pub limit: usize,
}

impl EventFilter {
    fn matches(&self, ev: &Event) -> bool {
        self.trace
            .as_ref()
            .is_none_or(|t| ev.trace.as_ref() == Some(t))
            && self.job.is_none_or(|j| ev.job == Some(j))
            && self.worker.is_none_or(|w| ev.worker == Some(w))
            && self
                .kind_prefix
                .as_ref()
                .is_none_or(|p| ev.kind.starts_with(p.as_str()))
    }
}

#[derive(Debug)]
struct Inner {
    buf: std::collections::VecDeque<Event>,
    seq: u64,
    dropped: u64,
}

/// A bounded ring of the most recent events.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            inner: Mutex::new(Inner {
                buf: std::collections::VecDeque::with_capacity(capacity),
                seq: 0,
                dropped: 0,
            }),
        }
    }

    /// The ring, even after a panic while it was held: every guarded
    /// update (a sequence bump, one pop and one push, a dropped count)
    /// leaves it valid, so a panicking recorder must not disable the
    /// recorder for every later request.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records an event, assigning its sequence number (and timestamp, if
    /// the event carries none).  Returns the assigned sequence number.
    pub fn record(&self, mut ev: Event) -> u64 {
        if ev.ts_ms == 0 {
            ev.ts_ms = now_ms();
        }
        let mut inner = self.lock();
        let seq = inner.seq;
        inner.seq += 1;
        ev.seq = seq;
        if inner.buf.len() == self.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(ev);
        seq
    }

    /// The matching events in recording order, plus how many events the
    /// ring has dropped to overflow since startup.
    #[must_use]
    pub fn snapshot(&self, filter: &EventFilter) -> (Vec<Event>, u64) {
        let inner = self.lock();
        let mut events: Vec<Event> = inner
            .buf
            .iter()
            .filter(|ev| filter.matches(ev))
            .cloned()
            .collect();
        if filter.limit > 0 && events.len() > filter.limit {
            events.drain(..events.len() - filter.limit);
        }
        (events, inner.dropped)
    }

    /// Renders the matching events as JSONL (one event per line).
    #[must_use]
    pub fn export_jsonl(&self, filter: &EventFilter) -> String {
        let (events, _) = self.snapshot(filter);
        let mut out = String::new();
        for ev in &events {
            out.push_str(&serde_json::to_string(ev).expect("events serialize"));
            out.push('\n');
        }
        out
    }

    /// How many events the ring has dropped to overflow since startup,
    /// without cloning the buffer (what a metrics scrape wants —
    /// [`FlightRecorder::snapshot`] copies every matching event).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// The ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_keeps_the_newest_events() {
        let ring = FlightRecorder::new(4);
        for i in 0..10 {
            ring.record(Event::new("tick").with_job(i));
        }
        let (events, dropped) = ring.snapshot(&EventFilter::default());
        assert_eq!(dropped, 6);
        assert_eq!(ring.dropped(), 6, "cheap accessor agrees with snapshot");
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "the ring must shed the oldest events, never the newest"
        );
        assert_eq!(
            events.iter().map(|e| e.job).collect::<Vec<_>>(),
            vec![Some(6), Some(7), Some(8), Some(9)]
        );
    }

    #[test]
    fn filters_are_conjunctive_and_limit_keeps_newest() {
        let ring = FlightRecorder::new(64);
        let trace = "f".repeat(32);
        for i in 0..8 {
            ring.record(
                Event::new(if i % 2 == 0 {
                    "job.start"
                } else {
                    "lease.grant"
                })
                .with_trace((i % 2 == 0).then(|| trace.clone()))
                .with_job(i)
                .with_worker(i % 3),
            );
        }
        let (by_trace, _) = ring.snapshot(&EventFilter {
            trace: Some(trace.clone()),
            ..EventFilter::default()
        });
        assert_eq!(by_trace.len(), 4);
        assert!(by_trace.iter().all(|e| e.kind == "job.start"));

        let (both, _) = ring.snapshot(&EventFilter {
            trace: Some(trace),
            worker: Some(0),
            ..EventFilter::default()
        });
        assert_eq!(
            both.iter().map(|e| e.job).collect::<Vec<_>>(),
            vec![Some(0), Some(6)]
        );

        let (limited, _) = ring.snapshot(&EventFilter {
            kind_prefix: Some("lease.".to_owned()),
            limit: 2,
            ..EventFilter::default()
        });
        assert_eq!(
            limited.iter().map(|e| e.job).collect::<Vec<_>>(),
            vec![Some(5), Some(7)]
        );
    }

    #[test]
    fn a_poisoned_ring_keeps_recording() {
        let ring = FlightRecorder::new(2);
        ring.record(Event::new("before"));
        std::thread::scope(|s| {
            let panicked = s
                .spawn(|| {
                    let _held = ring.lock();
                    panic!("panic while holding the ring");
                })
                .join();
            assert!(panicked.is_err());
        });
        assert!(ring.inner.is_poisoned());
        assert_eq!(ring.record(Event::new("after")), 1);
        assert_eq!(ring.record(Event::new("last")), 2);
        let (events, dropped) = ring.snapshot(&EventFilter::default());
        assert_eq!(
            events.iter().map(|e| e.kind.as_str()).collect::<Vec<_>>(),
            ["after", "last"]
        );
        assert_eq!(dropped, 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn jsonl_export_is_one_line_per_event() {
        let ring = FlightRecorder::new(8);
        ring.record(Event::new("a"));
        ring.record(Event::new("b").with_detail("x\ny"));
        let jsonl = ring.export_jsonl(&EventFilter::default());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2, "embedded newlines must be escaped");
        assert!(lines[1].contains("x\\ny"));
    }
}
