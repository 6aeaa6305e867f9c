//! Service counters, latency histograms, and their Prometheus text
//! rendering.
//!
//! All counters are relaxed atomics — they are monotonic tallies scraped
//! for observability, not synchronisation points — so the request and
//! worker paths pay one uncontended atomic add per event.  Latencies use
//! the log-bucketed [`Histogram`] from `simdsim-obs` (three relaxed adds
//! per observation), rendered in the Prometheus histogram exposition
//! format with one `endpoint` label per request family.

use serde::Serialize;
use simdsim_obs::Histogram;
use simdsim_sweep::{CpiStack, StallCause, NUM_REGIONS, NUM_STALL_CAUSES, REGION_LABELS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// `cause × region` stall-counter slots (the flattened layout of
/// [`CpiStack::stall_slots`](simdsim_sweep::CpiStack)).
const STALL_SLOTS: usize = NUM_STALL_CAUSES * NUM_REGIONS;

/// The endpoint families latency histograms are kept for, in label order.
/// [`endpoint_index`] maps a request onto this table.
pub const HTTP_ENDPOINTS: [&str; 10] = [
    "healthz",
    "scenarios",
    "sweep_submit",
    "sweep_status",
    "sweep_list",
    "sweep_cells",
    "sweep_cancel",
    "metrics",
    "fleet",
    "debug",
];

/// The [`HTTP_ENDPOINTS`] index a request belongs to, from its method and
/// (version-stripped or full) path.  Unknown routes count under the
/// family their prefix suggests, so 404s still land somewhere sensible.
#[must_use]
pub fn endpoint_index(method: &str, path: &str) -> usize {
    let path = path.strip_prefix("/v1").unwrap_or(path);
    let path = if path.is_empty() { "/" } else { path };
    match (method, path) {
        (_, "/healthz") => 0,
        (_, "/scenarios") => 1,
        ("POST", "/sweeps" | "/sweeps:batch") => 2,
        ("GET", p) if p.starts_with("/sweeps/") && p.ends_with("/cells") => 5,
        ("GET", p) if p.starts_with("/sweeps/") => 3,
        ("GET", "/sweeps") => 4,
        ("DELETE", p) if p.starts_with("/sweeps/") => 6,
        (_, "/metrics") => 7,
        (_, p) if p.starts_with("/workers") || p.starts_with("/store/") => 8,
        (_, p) if p.starts_with("/debug/") => 9,
        // Everything else (404s, method probes) is closest to a status
        // poll in cost; attribute it to the catch-all fleet family.
        _ => 8,
    }
}

/// The gauge values a [`MetricsSnapshot`] cannot derive from the counter
/// block — the caller samples them at snapshot time.  A typed struct so
/// forgetting one is a compile error, not a silent zero on `/metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Fleet workers currently within their liveness contract.
    pub fleet_workers_live: u64,
    /// Cells queued for fleet dispatch and not currently leased.
    pub fleet_pending_cells: u64,
    /// Events the flight recorder has dropped to ring overflow since
    /// startup.  Monotonic, but it lives in the recorder rather than the
    /// counter block, so the caller samples it here like the gauges.
    pub flight_recorder_dropped: u64,
}

/// Shared counter block, updated by connection handlers and job workers.
#[derive(Debug, Default)]
pub struct Metrics {
    /// HTTP requests answered, by endpoint family.
    pub requests_healthz: AtomicU64,
    /// `GET /scenarios` requests.
    pub requests_scenarios: AtomicU64,
    /// `POST /sweeps` requests.
    pub requests_submit: AtomicU64,
    /// `GET /sweeps/{id}` requests.
    pub requests_status: AtomicU64,
    /// `GET /sweeps` (listing) requests.
    pub requests_list: AtomicU64,
    /// `GET /sweeps/{id}/cells` (cursor stream) requests.
    pub requests_cells: AtomicU64,
    /// `DELETE /sweeps/{id}` (cancel) requests.
    pub requests_cancel: AtomicU64,
    /// `GET /metrics` requests.
    pub requests_metrics: AtomicU64,
    /// Fleet-surface requests (`/workers/*`, `/store/snapshot`).
    pub requests_fleet: AtomicU64,
    /// `GET /debug/events` (flight-recorder) requests.
    pub requests_debug: AtomicU64,
    /// Requests answered with 4xx/5xx.
    pub requests_errors: AtomicU64,
    /// Jobs accepted onto the queue.
    pub jobs_submitted: AtomicU64,
    /// Of those, submissions coalesced onto an identical in-flight job.
    pub jobs_coalesced: AtomicU64,
    /// Jobs rejected because the queue was full.
    pub jobs_rejected: AtomicU64,
    /// Jobs finished with every cell Ok.
    pub jobs_completed: AtomicU64,
    /// Jobs finished with at least one failed cell.
    pub jobs_failed: AtomicU64,
    /// Jobs cancelled (queued drops and cooperative stops alike).
    pub jobs_cancelled: AtomicU64,
    /// Sweep cells served from the content-addressed store.
    pub cells_cached: AtomicU64,
    /// Sweep cells simulated.
    pub cells_simulated: AtomicU64,
    /// Committed instructions across all simulated cells.
    pub sim_instrs: AtomicU64,
    /// Wall-clock microseconds spent simulating (summed across workers).
    pub sim_wall_micros: AtomicU64,
    /// Fleet workers that registered.
    pub fleet_workers_registered: AtomicU64,
    /// Fleet workers evicted for missing heartbeats.
    pub fleet_workers_evicted: AtomicU64,
    /// Leases granted to fleet workers.
    pub fleet_leases_granted: AtomicU64,
    /// Leases that expired without a full report.
    pub fleet_leases_expired: AtomicU64,
    /// Cells leased with cache affinity: the receiving worker had
    /// advertised (or earned, by reporting) the cell's content address.
    pub fleet_leases_affinity: AtomicU64,
    /// Cell results accepted from fleet workers.
    pub fleet_cells_reported: AtomicU64,
    /// Reported results dropped as stale (duplicate or re-queued-and-
    /// finished-elsewhere units).
    pub fleet_reports_stale: AtomicU64,
    /// Cells put back on the queue after a lease expiry or eviction.
    pub fleet_cells_requeued: AtomicU64,
    /// Commit slots lost to each stall cause, split by code region —
    /// the fleet-wide CPI stack, accumulated from every freshly simulated
    /// cell's profile by [`Metrics::record_stalls`].  Flattened
    /// `cause × NUM_REGIONS + region`, matching `CpiStack::stall_slots`.
    pub stall_cycles: [AtomicU64; STALL_SLOTS],
    /// Request latency per endpoint family, indexed by [`HTTP_ENDPOINTS`].
    pub http_ms: [Histogram; HTTP_ENDPOINTS.len()],
    /// Lease-grant→report latency per accepted fleet unit.
    pub fleet_report_ms: Histogram,
}

/// A point-in-time copy of every counter, plus the queue depth sampled at
/// snapshot time.  This is what `/metrics` renders and what
/// `report::render_server_stats` tabulates.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct MetricsSnapshot {
    /// `GET /healthz` requests.
    pub requests_healthz: u64,
    /// `GET /scenarios` requests.
    pub requests_scenarios: u64,
    /// `POST /sweeps` requests.
    pub requests_submit: u64,
    /// `GET /sweeps/{id}` requests.
    pub requests_status: u64,
    /// `GET /sweeps` (listing) requests.
    pub requests_list: u64,
    /// `GET /sweeps/{id}/cells` (cursor stream) requests.
    pub requests_cells: u64,
    /// `DELETE /sweeps/{id}` (cancel) requests.
    pub requests_cancel: u64,
    /// `GET /metrics` requests.
    pub requests_metrics: u64,
    /// Fleet-surface requests (`/workers/*`, `/store/snapshot`).
    pub requests_fleet: u64,
    /// `GET /debug/events` (flight-recorder) requests.
    pub requests_debug: u64,
    /// Requests answered with 4xx/5xx.
    pub requests_errors: u64,
    /// Jobs accepted onto the queue.
    pub jobs_submitted: u64,
    /// Of those, submissions coalesced onto an identical in-flight job.
    pub jobs_coalesced: u64,
    /// Jobs rejected because the queue was full.
    pub jobs_rejected: u64,
    /// Jobs finished with every cell Ok.
    pub jobs_completed: u64,
    /// Jobs finished with at least one failed cell.
    pub jobs_failed: u64,
    /// Jobs cancelled.
    pub jobs_cancelled: u64,
    /// Queued (not yet running) jobs at snapshot time.
    pub queue_depth: u64,
    /// Cells served from the content-addressed store.
    pub cells_cached: u64,
    /// Cells simulated.
    pub cells_simulated: u64,
    /// Committed instructions across all simulated cells.
    pub sim_instrs: u64,
    /// Seconds of simulation wall time (summed across workers).
    pub sim_wall_seconds: f64,
    /// Fleet workers that registered.
    pub fleet_workers_registered: u64,
    /// Fleet workers evicted for missing heartbeats.
    pub fleet_workers_evicted: u64,
    /// Leases granted to fleet workers.
    pub fleet_leases_granted: u64,
    /// Leases that expired without a full report.
    pub fleet_leases_expired: u64,
    /// Cells leased with cache affinity.
    pub fleet_leases_affinity: u64,
    /// Cell results accepted from fleet workers.
    pub fleet_cells_reported: u64,
    /// Reported results dropped as stale.
    pub fleet_reports_stale: u64,
    /// Cells re-queued after a lease expiry or eviction.
    pub fleet_cells_requeued: u64,
    /// Stalled commit slots by `cause × NUM_REGIONS + region`, the
    /// flattened layout of `CpiStack::stall_slots`.
    pub stall_cycles: [u64; STALL_SLOTS],
    /// Live fleet workers at snapshot time (gauge, from [`Gauges`]).
    pub fleet_workers_live: u64,
    /// Cells awaiting dispatch at snapshot time (gauge, from [`Gauges`]).
    pub fleet_pending_cells: u64,
    /// Flight-recorder events dropped to overflow (sampled, [`Gauges`]).
    pub flight_recorder_dropped: u64,
}

impl MetricsSnapshot {
    /// Fraction of resolved cells served from the store, in `[0, 1]`
    /// (0 before any cell resolved).
    #[must_use]
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cells_cached + self.cells_simulated;
        if total == 0 {
            0.0
        } else {
            self.cells_cached as f64 / total as f64
        }
    }

    /// Aggregate simulation throughput in millions of committed
    /// instructions per second (0 before any simulation).
    #[must_use]
    pub fn simulated_mips(&self) -> f64 {
        if self.sim_wall_seconds <= 0.0 {
            0.0
        } else {
            self.sim_instrs as f64 / self.sim_wall_seconds / 1.0e6
        }
    }

    /// Total HTTP requests across all endpoints.
    #[must_use]
    pub fn requests_total(&self) -> u64 {
        self.requests_healthz
            + self.requests_scenarios
            + self.requests_submit
            + self.requests_status
            + self.requests_list
            + self.requests_cells
            + self.requests_cancel
            + self.requests_metrics
            + self.requests_fleet
            + self.requests_debug
    }
}

impl Metrics {
    /// Records simulation work done by one finished job.
    pub fn record_job(&self, cached: usize, simulated: usize, instrs: u64, wall: Duration) {
        self.cells_cached
            .fetch_add(cached as u64, Ordering::Relaxed);
        self.cells_simulated
            .fetch_add(simulated as u64, Ordering::Relaxed);
        self.sim_instrs.fetch_add(instrs, Ordering::Relaxed);
        self.sim_wall_micros
            .fetch_add(wall.as_micros() as u64, Ordering::Relaxed);
    }

    /// Folds one cell's cycle-accounting stack into the fleet-wide stall
    /// counters (`simdsim_stall_cycles_total` on `/metrics`).
    pub fn record_stalls(&self, stack: &CpiStack) {
        for (slot, &v) in self.stall_cycles.iter().zip(&stack.stall_slots) {
            if v > 0 {
                slot.fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    /// Records one request's latency under its endpoint family (an index
    /// from [`endpoint_index`]).
    pub fn observe_http(&self, endpoint: usize, ms: f64) {
        self.http_ms[endpoint.min(HTTP_ENDPOINTS.len() - 1)].observe(ms);
    }

    /// Copies every counter.  `queue_depth` and the fleet gauges cannot
    /// be derived from the counter block, so the caller samples them —
    /// the typed [`Gauges`] argument exists because an earlier snapshot
    /// API silently defaulted them to zero and `/metrics` lied.
    #[must_use]
    pub fn snapshot(&self, queue_depth: usize, gauges: Gauges) -> MetricsSnapshot {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        MetricsSnapshot {
            requests_healthz: get(&self.requests_healthz),
            requests_scenarios: get(&self.requests_scenarios),
            requests_submit: get(&self.requests_submit),
            requests_status: get(&self.requests_status),
            requests_list: get(&self.requests_list),
            requests_cells: get(&self.requests_cells),
            requests_cancel: get(&self.requests_cancel),
            requests_metrics: get(&self.requests_metrics),
            requests_fleet: get(&self.requests_fleet),
            requests_debug: get(&self.requests_debug),
            requests_errors: get(&self.requests_errors),
            jobs_submitted: get(&self.jobs_submitted),
            jobs_coalesced: get(&self.jobs_coalesced),
            jobs_rejected: get(&self.jobs_rejected),
            jobs_completed: get(&self.jobs_completed),
            jobs_failed: get(&self.jobs_failed),
            jobs_cancelled: get(&self.jobs_cancelled),
            queue_depth: queue_depth as u64,
            cells_cached: get(&self.cells_cached),
            cells_simulated: get(&self.cells_simulated),
            sim_instrs: get(&self.sim_instrs),
            sim_wall_seconds: get(&self.sim_wall_micros) as f64 / 1.0e6,
            fleet_workers_registered: get(&self.fleet_workers_registered),
            fleet_workers_evicted: get(&self.fleet_workers_evicted),
            fleet_leases_granted: get(&self.fleet_leases_granted),
            fleet_leases_expired: get(&self.fleet_leases_expired),
            fleet_leases_affinity: get(&self.fleet_leases_affinity),
            fleet_cells_reported: get(&self.fleet_cells_reported),
            fleet_reports_stale: get(&self.fleet_reports_stale),
            fleet_cells_requeued: get(&self.fleet_cells_requeued),
            stall_cycles: std::array::from_fn(|i| get(&self.stall_cycles[i])),
            fleet_workers_live: gauges.fleet_workers_live,
            fleet_pending_cells: gauges.fleet_pending_cells,
            flight_recorder_dropped: gauges.flight_recorder_dropped,
        }
    }

    /// Appends every latency-histogram family to a Prometheus exposition
    /// body (the counters render separately via [`render_prometheus`],
    /// which works from a copyable snapshot; histograms render straight
    /// off the atomics).
    pub fn render_histograms(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "# HELP simdsim_http_request_duration_ms Request latency by endpoint family."
        );
        let _ = writeln!(out, "# TYPE simdsim_http_request_duration_ms histogram");
        for (name, hist) in HTTP_ENDPOINTS.iter().zip(&self.http_ms) {
            hist.render_prometheus(
                out,
                "simdsim_http_request_duration_ms",
                &format!("endpoint=\"{name}\""),
            );
        }
        let _ = writeln!(
            out,
            "# HELP simdsim_fleet_report_latency_ms Lease-grant to report latency per accepted unit."
        );
        let _ = writeln!(out, "# TYPE simdsim_fleet_report_latency_ms histogram");
        self.fleet_report_ms
            .render_prometheus(out, "simdsim_fleet_report_latency_ms", "");
    }
}

/// Renders a snapshot in the Prometheus text exposition format.
#[must_use]
pub fn render_prometheus(s: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut counter = |name: &str, help: &str, pairs: &[(&str, u64)]| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        for (label, v) in pairs {
            if label.is_empty() {
                let _ = writeln!(out, "{name} {v}");
            } else {
                let _ = writeln!(out, "{name}{{{label}}} {v}");
            }
        }
    };
    counter(
        "simdsim_http_requests_total",
        "HTTP requests answered, by endpoint.",
        &[
            ("endpoint=\"healthz\"", s.requests_healthz),
            ("endpoint=\"scenarios\"", s.requests_scenarios),
            ("endpoint=\"sweep_submit\"", s.requests_submit),
            ("endpoint=\"sweep_status\"", s.requests_status),
            ("endpoint=\"sweep_list\"", s.requests_list),
            ("endpoint=\"sweep_cells\"", s.requests_cells),
            ("endpoint=\"sweep_cancel\"", s.requests_cancel),
            ("endpoint=\"metrics\"", s.requests_metrics),
            ("endpoint=\"fleet\"", s.requests_fleet),
            ("endpoint=\"debug\"", s.requests_debug),
        ],
    );
    counter(
        "simdsim_http_request_errors_total",
        "Requests answered with a 4xx/5xx status.",
        &[("", s.requests_errors)],
    );
    counter(
        "simdsim_jobs_total",
        "Sweep jobs, by disposition.",
        &[
            ("state=\"submitted\"", s.jobs_submitted),
            ("state=\"coalesced\"", s.jobs_coalesced),
            ("state=\"rejected\"", s.jobs_rejected),
            ("state=\"completed\"", s.jobs_completed),
            ("state=\"failed\"", s.jobs_failed),
            ("state=\"cancelled\"", s.jobs_cancelled),
        ],
    );
    counter(
        "simdsim_cells_total",
        "Sweep cells resolved, by source.",
        &[
            ("source=\"cache\"", s.cells_cached),
            ("source=\"simulated\"", s.cells_simulated),
        ],
    );
    counter(
        "simdsim_simulated_instructions_total",
        "Committed instructions across all simulated cells.",
        &[("", s.sim_instrs)],
    );
    counter(
        "simdsim_fleet_workers_total",
        "Fleet workers, by disposition.",
        &[
            ("event=\"registered\"", s.fleet_workers_registered),
            ("event=\"evicted\"", s.fleet_workers_evicted),
        ],
    );
    counter(
        "simdsim_fleet_leases_total",
        "Work leases, by disposition.",
        &[
            ("event=\"granted\"", s.fleet_leases_granted),
            ("event=\"expired\"", s.fleet_leases_expired),
        ],
    );
    counter(
        "simdsim_leases_affinity_total",
        "Cells leased to the worker whose cache already held their key.",
        &[("", s.fleet_leases_affinity)],
    );
    counter(
        "simdsim_fleet_cells_total",
        "Fleet-dispatched cells, by disposition.",
        &[
            ("event=\"reported\"", s.fleet_cells_reported),
            ("event=\"stale\"", s.fleet_reports_stale),
            ("event=\"requeued\"", s.fleet_cells_requeued),
        ],
    );
    counter(
        "simdsim_flight_recorder_dropped_total",
        "Flight-recorder events dropped to ring overflow.",
        &[("", s.flight_recorder_dropped)],
    );
    {
        let name = "simdsim_stall_cycles_total";
        let _ = writeln!(
            out,
            "# HELP {name} Commit slots lost to each stall cause, by code region."
        );
        let _ = writeln!(out, "# TYPE {name} counter");
        for cause in &StallCause::ALL {
            for (region, label) in REGION_LABELS.iter().enumerate() {
                let v = s.stall_cycles[*cause as usize * NUM_REGIONS + region];
                let _ = writeln!(
                    out,
                    "{name}{{cause=\"{}\",region=\"{label}\"}} {v}",
                    cause.label()
                );
            }
        }
    }

    let mut gauge = |name: &str, help: &str, v: String| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {v}");
    };
    gauge(
        "simdsim_queue_depth",
        "Jobs queued and not yet running.",
        s.queue_depth.to_string(),
    );
    gauge(
        "simdsim_cache_hit_ratio",
        "Fraction of resolved cells served from the content-addressed store.",
        format!("{:.6}", s.cache_hit_ratio()),
    );
    gauge(
        "simdsim_simulated_wall_seconds",
        "Wall-clock seconds spent simulating, summed across workers.",
        format!("{:.6}", s.sim_wall_seconds),
    );
    gauge(
        "simdsim_simulated_mips",
        "Aggregate simulation throughput in million instructions per second.",
        format!("{:.3}", s.simulated_mips()),
    );
    gauge(
        "simdsim_fleet_workers_live",
        "Fleet workers currently within their liveness contract.",
        s.fleet_workers_live.to_string(),
    );
    gauge(
        "simdsim_fleet_pending_cells",
        "Cells queued for fleet dispatch and not currently leased.",
        s.fleet_pending_cells.to_string(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_render_cover_every_family() {
        let m = Metrics::default();
        m.requests_healthz.fetch_add(2, Ordering::Relaxed);
        m.jobs_submitted.fetch_add(3, Ordering::Relaxed);
        m.fleet_workers_registered.fetch_add(1, Ordering::Relaxed);
        m.fleet_leases_affinity.fetch_add(6, Ordering::Relaxed);
        m.record_job(5, 7, 1_000_000, Duration::from_millis(250));
        let mut stack = CpiStack::default();
        stack.stall_slots[StallCause::DataDep as usize * NUM_REGIONS] = 11; // scalar
        stack.stall_slots[StallCause::Memory as usize * NUM_REGIONS + 1] = 23; // vector
        m.record_stalls(&stack);
        m.record_stalls(&stack);
        let s = m.snapshot(
            4,
            Gauges {
                fleet_workers_live: 1,
                fleet_pending_cells: 3,
                flight_recorder_dropped: 9,
            },
        );
        assert_eq!(s.queue_depth, 4);
        assert_eq!(s.cells_cached, 5);
        assert!((s.cache_hit_ratio() - 5.0 / 12.0).abs() < 1e-12);
        assert!(s.simulated_mips() > 0.0);

        let text = render_prometheus(&s);
        for needle in [
            "simdsim_http_requests_total{endpoint=\"healthz\"} 2",
            "simdsim_jobs_total{state=\"submitted\"} 3",
            "simdsim_cells_total{source=\"cache\"} 5",
            "simdsim_cells_total{source=\"simulated\"} 7",
            "simdsim_queue_depth 4",
            "# TYPE simdsim_cache_hit_ratio gauge",
            "simdsim_simulated_instructions_total 1000000",
            "simdsim_fleet_workers_total{event=\"registered\"} 1",
            "simdsim_leases_affinity_total 6",
            "simdsim_fleet_cells_total{event=\"requeued\"} 0",
            "simdsim_fleet_workers_live 1",
            "simdsim_fleet_pending_cells 3",
            "simdsim_flight_recorder_dropped_total 9",
            "simdsim_stall_cycles_total{cause=\"data_dep\",region=\"scalar\"} 22",
            "simdsim_stall_cycles_total{cause=\"memory\",region=\"vector\"} 46",
            "simdsim_stall_cycles_total{cause=\"issue_width\",region=\"scalar\"} 0",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn ratios_are_zero_before_any_work() {
        let s = Metrics::default().snapshot(0, Gauges::default());
        assert_eq!(s.cache_hit_ratio(), 0.0);
        assert_eq!(s.simulated_mips(), 0.0);
        assert_eq!(s.requests_total(), 0);
    }

    #[test]
    fn endpoint_classification_matches_the_router() {
        for (method, path, want) in [
            ("GET", "/v1/healthz", "healthz"),
            ("GET", "/healthz", "healthz"),
            ("POST", "/v1/sweeps", "sweep_submit"),
            ("POST", "/v1/sweeps:batch", "sweep_submit"),
            ("GET", "/v1/sweeps", "sweep_list"),
            ("GET", "/v1/sweeps/7", "sweep_status"),
            ("GET", "/v1/sweeps/7/cells", "sweep_cells"),
            ("GET", "/v1/sweeps/7/profile", "sweep_status"),
            ("DELETE", "/v1/sweeps/7", "sweep_cancel"),
            ("GET", "/metrics", "metrics"),
            ("POST", "/v1/workers/3/lease", "fleet"),
            ("PUT", "/v1/store/snapshot", "fleet"),
            ("GET", "/v1/debug/events", "debug"),
            ("GET", "/no/such/route", "fleet"),
        ] {
            assert_eq!(
                HTTP_ENDPOINTS[endpoint_index(method, path)],
                want,
                "{method} {path}"
            );
        }
    }

    #[test]
    fn latency_histograms_render_as_prometheus_histogram_families() {
        let m = Metrics::default();
        m.observe_http(endpoint_index("POST", "/v1/sweeps"), 3.0);
        m.observe_http(endpoint_index("GET", "/v1/healthz"), 0.1);
        m.fleet_report_ms.observe(42.0);
        let mut text = String::new();
        m.render_histograms(&mut text);
        for needle in [
            "# TYPE simdsim_http_request_duration_ms histogram",
            "simdsim_http_request_duration_ms_bucket{endpoint=\"sweep_submit\",le=\"4\"} 1",
            "simdsim_http_request_duration_ms_bucket{endpoint=\"sweep_submit\",le=\"+Inf\"} 1",
            "simdsim_http_request_duration_ms_count{endpoint=\"healthz\"} 1",
            "# TYPE simdsim_fleet_report_latency_ms histogram",
            "simdsim_fleet_report_latency_ms_bucket{le=\"64\"} 1",
            "simdsim_fleet_report_latency_ms_count 1",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }
}
