//! Service counters, latency histograms, and their Prometheus text
//! rendering.
//!
//! Each signal is declared once, as a [`Metrics`] field, and read once,
//! by its row in [`Metrics::render`] — `/metrics` renders straight from
//! the atomics, with no intermediate copy.  Counters are relaxed atomics
//! — monotonic tallies scraped for observability, not synchronisation
//! points — so the request and worker paths pay one uncontended atomic
//! add per event.  Latencies use the log-bucketed [`Histogram`] from
//! `simdsim-obs` (three relaxed adds per observation), rendered in the
//! Prometheus histogram exposition format with one `endpoint` label per
//! request family.  Requests are counted by that histogram alone:
//! `simdsim_http_requests_total{endpoint}` is its observation count, so
//! it counts every answered request (404s and 405s included) and always
//! equals `simdsim_http_request_duration_ms_count{endpoint}`.  Values the
//! counters cannot hold (queue depth, live workers, pending cells,
//! recorder drops) are sampled by the caller into [`Gauges`].

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

/// The values [`Metrics::render`] cannot derive from the counter block —
/// the caller samples them at scrape time.  A typed struct so forgetting
/// one is a compile error, not a silent zero on `/metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Queued (not yet running) jobs.
    pub queue_depth: u64,
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
    /// Requests answered with 4xx/5xx, plus protocol errors (malformed
    /// requests), which never reach a latency histogram.
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
    /// Request latency per endpoint family, indexed by [`HTTP_ENDPOINTS`];
    /// its counts are also the per-endpoint request totals.
    pub http_ms: [Histogram; HTTP_ENDPOINTS.len()],
    /// Lease-grant→report latency per accepted fleet unit.
    pub fleet_report_ms: Histogram,
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

    /// Seconds of simulation wall time, summed across workers.
    #[must_use]
    pub fn sim_wall_seconds(&self) -> f64 {
        self.sim_wall_micros.load(Ordering::Relaxed) as f64 / 1.0e6
    }

    /// Fraction of resolved cells served from the store, in `[0, 1]`
    /// (0 before any cell resolved).
    #[must_use]
    pub fn cache_hit_ratio(&self) -> f64 {
        let cached = self.cells_cached.load(Ordering::Relaxed);
        let total = cached + self.cells_simulated.load(Ordering::Relaxed);
        if total == 0 {
            0.0
        } else {
            cached as f64 / total as f64
        }
    }

    /// Aggregate simulation throughput in millions of committed
    /// instructions per second (0 before any simulation).
    #[must_use]
    pub fn simulated_mips(&self) -> f64 {
        let secs = self.sim_wall_seconds();
        if secs <= 0.0 {
            0.0
        } else {
            self.sim_instrs.load(Ordering::Relaxed) as f64 / secs / 1.0e6
        }
    }

    /// Renders every counter, gauge and histogram in the Prometheus text
    /// exposition format.
    #[must_use]
    pub fn render(&self, g: Gauges) -> String {
        use std::fmt::Write as _;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut out = String::new();
        // One family per call; `key` is the family's label name (empty for
        // an unlabelled counter) and each row gives its value.
        let mut counter = |name: &str, help: &str, key: &str, rows: &[(&str, u64)]| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for (label, v) in rows {
                if key.is_empty() {
                    let _ = writeln!(out, "{name} {v}");
                } else {
                    let _ = writeln!(out, "{name}{{{key}=\"{label}\"}} {v}");
                }
            }
        };
        let requests: Vec<(&str, u64)> = HTTP_ENDPOINTS
            .iter()
            .zip(&self.http_ms)
            .map(|(name, hist)| (*name, hist.count()))
            .collect();
        counter(
            "simdsim_http_requests_total",
            "HTTP requests answered, by endpoint.",
            "endpoint",
            &requests,
        );
        counter(
            "simdsim_http_request_errors_total",
            "Requests answered with a 4xx/5xx status.",
            "",
            &[("", get(&self.requests_errors))],
        );
        counter(
            "simdsim_jobs_total",
            "Sweep jobs, by disposition.",
            "state",
            &[
                ("submitted", get(&self.jobs_submitted)),
                ("coalesced", get(&self.jobs_coalesced)),
                ("rejected", get(&self.jobs_rejected)),
                ("completed", get(&self.jobs_completed)),
                ("failed", get(&self.jobs_failed)),
                ("cancelled", get(&self.jobs_cancelled)),
            ],
        );
        counter(
            "simdsim_cells_total",
            "Sweep cells resolved, by source.",
            "source",
            &[
                ("cache", get(&self.cells_cached)),
                ("simulated", get(&self.cells_simulated)),
            ],
        );
        counter(
            "simdsim_simulated_instructions_total",
            "Committed instructions across all simulated cells.",
            "",
            &[("", get(&self.sim_instrs))],
        );
        counter(
            "simdsim_fleet_workers_total",
            "Fleet workers, by disposition.",
            "event",
            &[
                ("registered", get(&self.fleet_workers_registered)),
                ("evicted", get(&self.fleet_workers_evicted)),
            ],
        );
        counter(
            "simdsim_fleet_leases_total",
            "Work leases, by disposition.",
            "event",
            &[
                ("granted", get(&self.fleet_leases_granted)),
                ("expired", get(&self.fleet_leases_expired)),
            ],
        );
        counter(
            "simdsim_leases_affinity_total",
            "Cells leased to the worker whose cache already held their key.",
            "",
            &[("", get(&self.fleet_leases_affinity))],
        );
        counter(
            "simdsim_fleet_cells_total",
            "Fleet-dispatched cells, by disposition.",
            "event",
            &[
                ("reported", get(&self.fleet_cells_reported)),
                ("stale", get(&self.fleet_reports_stale)),
                ("requeued", get(&self.fleet_cells_requeued)),
            ],
        );
        counter(
            "simdsim_flight_recorder_dropped_total",
            "Flight-recorder events dropped to ring overflow.",
            "",
            &[("", g.flight_recorder_dropped)],
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
                    let v = get(&self.stall_cycles[*cause as usize * NUM_REGIONS + region]);
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
            g.queue_depth.to_string(),
        );
        gauge(
            "simdsim_cache_hit_ratio",
            "Fraction of resolved cells served from the content-addressed store.",
            format!("{:.6}", self.cache_hit_ratio()),
        );
        gauge(
            "simdsim_simulated_wall_seconds",
            "Wall-clock seconds spent simulating, summed across workers.",
            format!("{:.6}", self.sim_wall_seconds()),
        );
        gauge(
            "simdsim_simulated_mips",
            "Aggregate simulation throughput in million instructions per second.",
            format!("{:.3}", self.simulated_mips()),
        );
        gauge(
            "simdsim_fleet_workers_live",
            "Fleet workers currently within their liveness contract.",
            g.fleet_workers_live.to_string(),
        );
        gauge(
            "simdsim_fleet_pending_cells",
            "Cells queued for fleet dispatch and not currently leased.",
            g.fleet_pending_cells.to_string(),
        );

        let _ = writeln!(
            out,
            "# HELP simdsim_http_request_duration_ms Request latency by endpoint family."
        );
        let _ = writeln!(out, "# TYPE simdsim_http_request_duration_ms histogram");
        for (name, hist) in HTTP_ENDPOINTS.iter().zip(&self.http_ms) {
            hist.render_prometheus(
                &mut out,
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
            .render_prometheus(&mut out, "simdsim_fleet_report_latency_ms", "");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_covers_every_family() {
        let m = Metrics::default();
        m.observe_http(endpoint_index("GET", "/v1/healthz"), 0.1);
        m.observe_http(endpoint_index("GET", "/healthz"), 0.2);
        m.jobs_submitted.fetch_add(3, Ordering::Relaxed);
        m.fleet_workers_registered.fetch_add(1, Ordering::Relaxed);
        m.fleet_leases_affinity.fetch_add(6, Ordering::Relaxed);
        m.record_job(5, 7, 1_000_000, Duration::from_millis(250));
        let mut stack = CpiStack::default();
        stack.stall_slots[StallCause::DataDep as usize * NUM_REGIONS] = 11; // scalar
        stack.stall_slots[StallCause::Memory as usize * NUM_REGIONS + 1] = 23; // vector
        m.record_stalls(&stack);
        m.record_stalls(&stack);
        assert_eq!(m.cells_cached.load(Ordering::Relaxed), 5);
        assert!((m.cache_hit_ratio() - 5.0 / 12.0).abs() < 1e-12);
        assert!(m.simulated_mips() > 0.0);

        let text = m.render(Gauges {
            queue_depth: 4,
            fleet_workers_live: 1,
            fleet_pending_cells: 3,
            flight_recorder_dropped: 9,
        });
        for needle in [
            "simdsim_http_requests_total{endpoint=\"healthz\"} 2",
            "simdsim_http_requests_total{endpoint=\"scenarios\"} 0",
            "simdsim_http_request_duration_ms_count{endpoint=\"healthz\"} 2",
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
        let m = Metrics::default();
        assert_eq!(m.cache_hit_ratio(), 0.0);
        assert_eq!(m.simulated_mips(), 0.0);
        assert!(m
            .render(Gauges::default())
            .contains("simdsim_http_requests_total{endpoint=\"healthz\"} 0"));
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
        let text = m.render(Gauges::default());
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
