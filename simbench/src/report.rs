//! What a run reports: the declared metric lists, a workload's outcome,
//! the provenance record, the result file and the final JSON line.

use crate::stats::Tail;
use serde::Value;
use std::path::Path;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("sim_mips", "Minstr/s"),
    ("sim_mcycles_per_s", "Mcycle/s"),
    ("sweeps_per_s", "1/s"),
    ("complete_p50_ms", "ms"),
    ("complete_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units.  A
/// layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("isa.decode_ms", "ms"),
    ("kernels.build_ms", "ms"),
    ("apps.build_ms", "ms"),
    ("emu.reset_us", "us"),
    ("emu.self_s", "s"),
    ("emu.mips", "Minstr/s"),
    ("pipe.new_us", "us"),
    ("pipe.reset_us", "us"),
    ("pipe.self_s", "s"),
    ("pipe.ns_per_cycle", "ns"),
    ("pipe.profile_overhead", "ratio"),
    ("mem.ns_per_access", "ns"),
    ("mem.accesses", "count"),
    ("mem.l1_miss_ratio", "ratio"),
    ("mem.l2_miss_ratio", "ratio"),
    ("sweep.overhead_ms", "ms"),
    ("sweep.probe_ms", "ms"),
    ("sweep.store_ms", "ms"),
    ("sweep.hit_ratio", "ratio"),
    ("serve.submit_p50_ms", "ms"),
    ("serve.submit_p99_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.poll_ms", "ms"),
    ("serve.coalesced_ratio", "ratio"),
    ("fleet.report_ms", "ms"),
    ("fleet.requeued", "count"),
    ("client.worker_simulate_ms", "ms"),
    ("mix.novel_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// One measured number and the evidence behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples (passes, requests, calls or cells) behind the value.
    pub samples: usize,
    /// For a tail: the percentile actually reported and the samples
    /// beyond it.
    pub tail: Option<(f64, usize)>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
            tail: None,
        }
    }

    fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("value".to_owned(), Value::Float(self.value)),
            ("unit".to_owned(), Value::Str(self.unit.to_owned())),
            ("samples".to_owned(), Value::UInt(self.samples as u64)),
        ];
        if let Some((p, beyond)) = self.tail {
            pairs.push(("percentile".to_owned(), Value::Float(p)));
            pairs.push(("beyond".to_owned(), Value::UInt(beyond as u64)));
        }
        Value::Object(pairs)
    }
}

/// What a workload's timed window produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, probes or requests).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics measured in the window.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Untraced over traced throughput, minus one (traced runs only).
    pub trace_overhead: Option<f64>,
    /// Untraced passes (command-line workloads) behind the numbers.
    pub passes: usize,
    /// Probe passes (traced runs only).
    pub probe_passes: usize,
    /// Workload-specific facts for the result file.
    pub details: Vec<(String, Value)>,
    /// End-to-end metrics as measured, before [`Outcome::at_nominal`].
    pub unscaled: Vec<(String, Value)>,
}

impl Outcome {
    /// Counts one failure, keeping its message if few are kept yet.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }

    pub fn tail_metric(&mut self, name: &'static str, t: Tail, unit: &'static str) {
        self.metrics.push(Metric {
            tail: Some((t.percentile, t.beyond)),
            ..Metric::new(name, t.value, unit, t.samples)
        });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.layers.push(Metric::new(name, value, unit, samples));
    }

    pub fn layer_tail(&mut self, name: &'static str, t: Tail, unit: &'static str) {
        self.layers.push(Metric {
            tail: Some((t.percentile, t.beyond)),
            ..Metric::new(name, t.value, unit, t.samples)
        });
    }

    pub fn detail(&mut self, key: &str, value: Value) {
        self.details.push((key.to_owned(), value));
    }

    /// Puts metric `name` at nominal host speed, given how much slower the
    /// host ran (see `host`), and keeps the value as measured.
    pub fn at_nominal(&mut self, name: &str, scale: f64) {
        for m in self.metrics.iter_mut().filter(|m| m.name == name) {
            self.unscaled.push((name.to_owned(), Value::Float(m.value)));
            m.value = crate::host::at_nominal(m.value, m.unit, scale);
        }
    }

    /// [`Outcome::at_nominal`] for every metric measured so far.
    pub fn all_at_nominal(&mut self, scale: f64) {
        let names: Vec<&'static str> = self.metrics.iter().map(|m| m.name).collect();
        for name in names {
            self.at_nominal(name, scale);
        }
    }
}

/// Orders `measured` as `declared`, filling a metric the run did not
/// measure with 0 and no samples.
pub fn complete(declared: &[(&'static str, &'static str)], measured: &[Metric]) -> Vec<Metric> {
    declared
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit, 0))
        })
        .collect()
}

/// Where and under which settings a number was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub git_rev: Option<String>,
    pub git_dirty: Option<bool>,
    pub cpu_model: String,
    pub nproc: usize,
    pub engine_threads: usize,
    pub clients: usize,
    pub profile: bool,
    pub seed: u64,
}

impl Provenance {
    /// Reads the host and the source tree under `root`.
    pub fn collect(root: &Path, engine_threads: usize, clients: usize, seed: u64) -> Self {
        let (git_rev, git_dirty) = git_state(root);
        Self {
            git_rev,
            git_dirty,
            cpu_model: cpu_model(),
            nproc: crate::nproc(),
            engine_threads,
            clients,
            profile: true,
            seed,
        }
    }

    fn to_value(&self) -> Value {
        let opt_str = |s: &Option<String>| s.clone().map_or(Value::Null, Value::Str);
        Value::Object(vec![
            ("git_rev".to_owned(), opt_str(&self.git_rev)),
            (
                "git_dirty".to_owned(),
                self.git_dirty.map_or(Value::Null, Value::Bool),
            ),
            ("cpu_model".to_owned(), Value::Str(self.cpu_model.clone())),
            ("nproc".to_owned(), Value::UInt(self.nproc as u64)),
            (
                "engine_threads".to_owned(),
                Value::UInt(self.engine_threads as u64),
            ),
            ("clients".to_owned(), Value::UInt(self.clients as u64)),
            ("profile".to_owned(), Value::Bool(self.profile)),
            ("seed".to_owned(), Value::UInt(self.seed)),
        ])
    }
}

/// `git rev-parse HEAD` and whether the tree is dirty, when `root` is a
/// git checkout with git available; `None` otherwise.
fn git_state(root: &Path) -> (Option<String>, Option<bool>) {
    if !root.join(".git").exists() {
        return (None, None);
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
    (rev, dirty)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The process's resident-memory high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the `VmHWM` high-water mark at the current resident size, so
/// that [`peak_rss_mb`] covers only what runs after; returns the mark it
/// had.  `None` when the kernel refuses the reset.
pub fn restart_peak_rss() -> Option<f64> {
    let before = peak_rss_mb();
    std::fs::write("/proc/self/clear_refs", "5")
        .ok()
        .map(|()| before)
}

/// The run's whole record, written next to the benchmark.
pub struct Record<'a> {
    pub workload: &'a str,
    pub seconds: f64,
    pub trace: bool,
    pub provenance: &'a Provenance,
    pub outcome: &'a Outcome,
    pub printed: &'a [Metric],
    pub end_to_end: &'a [Metric],
    pub setup_runs: &'a [f64],
}

impl Record<'_> {
    pub fn to_json(&self) -> String {
        let o = self.outcome;
        let metrics = |ms: &[Metric]| {
            Value::Object(
                ms.iter()
                    .map(|m| (m.name.to_owned(), m.to_value()))
                    .collect(),
            )
        };
        let failed_ratio = o.failed as f64 / o.attempted.max(1) as f64;
        let mut pairs = vec![
            ("bench".to_owned(), Value::Str("simbench".to_owned())),
            ("workload".to_owned(), Value::Str(self.workload.to_owned())),
            ("seconds".to_owned(), Value::Float(self.seconds)),
            ("trace".to_owned(), Value::Bool(self.trace)),
            ("provenance".to_owned(), self.provenance.to_value()),
            ("correct".to_owned(), Value::Bool(o.failed == 0)),
            ("attempted".to_owned(), Value::UInt(o.attempted)),
            ("failed".to_owned(), Value::UInt(o.failed)),
            ("failed_ratio".to_owned(), Value::Float(failed_ratio)),
            (
                "failures".to_owned(),
                Value::Array(o.failures.iter().cloned().map(Value::Str).collect()),
            ),
            ("passes".to_owned(), Value::UInt(o.passes as u64)),
            (
                "probe_passes".to_owned(),
                Value::UInt(o.probe_passes as u64),
            ),
            (
                "setup_runs_s".to_owned(),
                Value::Array(self.setup_runs.iter().map(|&s| Value::Float(s)).collect()),
            ),
            ("metrics".to_owned(), metrics(self.printed)),
        ];
        if self.trace {
            // The window's own end-to-end numbers, beside the layers.
            pairs.push(("end_to_end".to_owned(), metrics(self.end_to_end)));
        }
        let mut details = o.details.clone();
        details.push(("unscaled".to_owned(), Value::Object(o.unscaled.clone())));
        pairs.push(("details".to_owned(), Value::Object(details)));
        serde_json::to_string_pretty(&Value::Object(pairs)).expect("a value serializes")
    }
}

/// The final stdout line: exactly `correct`, `attempted`, `failed` and
/// `metrics` (name → value and unit).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad name {name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "names are used once");
    }

    #[test]
    fn declared_lists_match_benchmark_json() {
        let doc: Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|m| match (m.get("name"), m.get("unit")) {
                        (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                        _ => panic!("{key} entry lacks name/unit"),
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json lacks {key}"),
            }
        };
        let owned = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        if let Some(Value::Array(ws)) = doc.get("workloads") {
            for w in ws {
                let Some(Value::Str(name)) = w.get("name") else {
                    panic!("workload without a name")
                };
                assert!(valid_name(name), "bad workload name {name}");
                assert!(
                    crate::Workload::parse(name).is_some(),
                    "{name} is not runnable"
                );
            }
        }
    }

    #[test]
    fn result_line_has_exactly_its_four_keys() {
        let line = result_line(true, 3, 0, &[Metric::new("setup_s", 0.25, "s", 5)]);
        let v: Value = serde_json::from_str(&line).expect("the line is JSON");
        let Value::Object(pairs) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("unit")),
            Some(&Value::Str("s".to_owned()))
        );
    }

    #[test]
    fn undeclared_layers_read_zero() {
        let got = complete(&PER_LAYER, &[Metric::new("emu.mips", 40.0, "Minstr/s", 3)]);
        assert_eq!(got.len(), PER_LAYER.len());
        assert_eq!(
            got.iter().find(|m| m.name == "emu.mips").map(|m| m.value),
            Some(40.0)
        );
        assert!(got
            .iter()
            .filter(|m| m.name != "emu.mips")
            .all(|m| m.value == 0.0));
    }
}
