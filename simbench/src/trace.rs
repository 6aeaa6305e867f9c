//! In-memory spans around the benchmark's calls into each layer, written
//! out once the run ends.
//!
//! A span has a name (`layer.operation`), an identifier shared by every
//! span of one unit of work (a cell's label, a request's trace id), an
//! optional parent, and start/end offsets from the tracer's epoch.  Spans
//! are recorded only when tracing is on; [`Tracer::time`] measures the
//! call either way, so untraced and traced runs time the same code.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `emu.run_decoded`.
    pub name: &'static str,
    /// The unit of work the span belongs to.
    pub id: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds after the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds after the tracer's epoch (`start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A handle to an open span; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Open {
    /// A handle that records nothing (an untraced call in a traced run).
    pub fn none() -> Self {
        Open(None)
    }

    /// The span's index, usable as a child's parent.
    pub fn index(self) -> Option<usize> {
        self.0
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, id: &str, parent: Option<usize>) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.now_ns();
        let mut spans = self.spans.lock().expect("span list lock");
        spans.push(Span {
            name,
            id: id.to_owned(),
            parent,
            start_ns: now,
            end_ns: now,
        });
        Open(Some(spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, open: Open) {
        if let Some(i) = open.0 {
            let now = self.now_ns();
            self.spans.lock().expect("span list lock")[i].end_ns = now;
        }
    }

    /// Re-identifies an open span and its children recorded so far (an
    /// identifier learnt mid-span, such as a trace id the service echoes).
    pub fn retag(&self, open: Open, id: &str) {
        if let Some(i) = open.0 {
            let mut spans = self.spans.lock().expect("span list lock");
            for (j, s) in spans.iter_mut().enumerate().skip(i) {
                if j == i || s.parent == Some(i) {
                    s.id = id.to_owned();
                }
            }
        }
    }

    /// Runs `f` inside a span and returns its result with the call's
    /// duration, which is measured whether or not tracing is on.
    pub fn time<T>(
        &self,
        name: &'static str,
        id: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let span = self.open(name, id, parent);
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.close(span);
        (out, dur)
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its direct children.  Overlapping children (concurrent work
/// under one parent) cover their union once, never twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per-name totals over a span list: `(name, count, total_ns, self_ns)`,
/// sorted by name.
pub fn summarize(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.dur_ns();
                r.3 += own;
            }
            None => rows.push((s.name, 1, s.dur_ns(), own)),
        }
    }
    rows.sort_by_key(|r| r.0);
    rows
}

/// Writes one JSON object per span (`name`, `id`, `parent`, `start_us`,
/// `dur_us`, `self_us`) to `path`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_us\":{},\"dur_us\":{},\"self_us\":{}}}",
            s.name,
            serde_json::to_string(&s.id).expect("a string serializes"),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            own as f64 / 1e3,
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: "x".to_owned(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 50),
            // Overlaps `a` by 20 ns: the union of the two is [10, 70).
            span("b", Some(0), 30, 70),
            // Nested inside `a`: counts against `a`, not the root.
            span("c", Some(1), 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 40, 10]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("root", None, 10, 20), span("late", Some(0), 15, 40)];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn untraced_tracer_still_times_but_records_nothing() {
        let t = Tracer::new(false);
        let (v, dur) = t.time("x.y", "id", None, || 7);
        assert_eq!(v, 7);
        assert!(dur >= Duration::ZERO);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let root = t.open("x.root", "id", None);
        let _ = t.time("x.child", "id", root.index(), || ());
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let rows = summarize(&spans);
        assert_eq!(
            rows.iter().map(|r| r.0).collect::<Vec<_>>(),
            ["x.child", "x.root"]
        );
    }
}
