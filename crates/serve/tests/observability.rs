//! Observability acceptance tests: one trace id must link a submission to
//! every span it fans out into — coordinator job/lease events AND the
//! worker-shipped unit spans — through `GET /v1/debug/events`, and the
//! Prometheus surface must expose populated latency histograms after a
//! sweep has run, with request totals that agree with those histograms.

use simdsim_api::SweepRequest;
use simdsim_client::{spawn_worker, SimdsimClient, WorkerConfig};
use simdsim_serve::metrics::HTTP_ENDPOINTS;
use simdsim_serve::{FleetConfig, Server, ServerConfig};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(120);
const POLL: Duration = Duration::from_millis(25);

fn start_server() -> Server {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: None,
        job_workers: 1,
        engine_jobs: Some(2),
        fleet: FleetConfig::default(),
        ..ServerConfig::default()
    };
    Server::start(cfg).expect("server binds an ephemeral port")
}

fn connect(server: &Server) -> SimdsimClient {
    SimdsimClient::connect(server.addr(), TIMEOUT).expect("client connects")
}

fn worker_config(server: &Server, name: &str) -> WorkerConfig {
    WorkerConfig {
        addr: server.addr().to_string(),
        name: name.to_owned(),
        slots: 2,
        timeout: TIMEOUT,
        ..WorkerConfig::default()
    }
}

fn wait_live_workers(c: &mut SimdsimClient, n: usize) {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let fleet = c.fleet_status().expect("fleet status");
        if fleet.workers.iter().filter(|w| w.live).count() >= n {
            return;
        }
        assert!(Instant::now() < deadline, "fleet never reached {n} workers");
        std::thread::sleep(POLL);
    }
}

/// The acceptance path: a fleet-sharded job's entire lifecycle — submit,
/// start, lease grants, reports, worker unit spans, finish — shares the
/// one trace id the submission minted.
#[test]
fn one_trace_links_submit_lease_report_and_worker_spans() {
    let server = start_server();
    let mut c = connect(&server);
    let w1 = spawn_worker(worker_config(&server, "w1"));
    let w2 = spawn_worker(worker_config(&server, "w2"));
    wait_live_workers(&mut c, 2);

    let sub = c
        .submit(&SweepRequest::by_name("fig4").filter("/idct/"))
        .expect("submit");
    let trace = sub.trace.clone().expect("submission minted a trace id");
    assert_eq!(trace.len(), 32, "trace ids are 32 hex chars");
    let status = c.wait_timeout(sub.id, POLL, TIMEOUT).expect("job finishes");
    assert_eq!(status.state, simdsim_api::JobState::Done);

    let doc = c
        .debug_events(Some(&trace), None, None, None)
        .expect("debug events");
    assert!(
        doc.events
            .iter()
            .all(|e| e.trace.as_deref() == Some(&*trace)),
        "a trace filter must return only that trace's events"
    );
    let kinds: Vec<&str> = doc.events.iter().map(|e| e.kind.as_str()).collect();
    for needed in [
        "job.submit",
        "job.start",
        "lease.grant",
        "lease.report",
        "worker.unit",
        "job.finish",
    ] {
        assert!(
            kinds.contains(&needed),
            "trace {trace} is missing `{needed}` (got {kinds:?})"
        );
    }

    // The worker-shipped unit spans: one per cell, each attributed to a
    // registered worker and to this job.
    let units: Vec<_> = doc
        .events
        .iter()
        .filter(|e| e.kind == "worker.unit")
        .collect();
    assert_eq!(units.len(), 4, "fig4 /idct/ yields 4 unit spans");
    for u in &units {
        assert!(u.worker.is_some(), "unit spans carry the worker id");
        assert_eq!(u.job, Some(sub.id));
        assert!(u.dur_ms.is_some(), "unit spans carry their wall time");
    }

    // Kind-prefix filtering narrows to the worker spans alone.
    let worker_only = c
        .debug_events(Some(&trace), None, None, Some("worker."))
        .expect("filtered debug events");
    assert!(!worker_only.events.is_empty());
    assert!(worker_only
        .events
        .iter()
        .all(|e| e.kind.starts_with("worker.")));

    drop(w1.stop());
    drop(w2.stop());
    server.shutdown();
}

/// `GET /metrics` must expose a Prometheus histogram family with
/// populated buckets once requests have been served, and the fleet report
/// latency family once workers have reported.
#[test]
fn metrics_expose_populated_latency_histograms() {
    let server = start_server();
    let mut c = connect(&server);
    let w = spawn_worker(worker_config(&server, "w"));
    wait_live_workers(&mut c, 1);

    let sub = c
        .submit(&SweepRequest::by_name("fig4").filter("/idct/"))
        .expect("submit");
    c.wait_timeout(sub.id, POLL, TIMEOUT).expect("job finishes");

    let resp = c.http().get("/metrics").expect("metrics scrape");
    assert_eq!(resp.status, 200);
    let body = resp.body_str();
    assert!(
        body.contains("# TYPE simdsim_http_request_duration_ms histogram"),
        "metrics must declare the request-latency histogram family"
    );
    assert!(
        body.contains("# TYPE simdsim_fleet_report_latency_ms histogram"),
        "metrics must declare the report-latency histogram family"
    );

    // The +Inf bucket is cumulative, so a populated family shows a
    // non-zero count there.
    let populated = |family: &str| {
        body.lines()
            .filter(|l| l.starts_with(family) && l.contains("le=\"+Inf\""))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
            .sum::<u64>()
    };
    assert!(
        populated("simdsim_http_request_duration_ms_bucket") > 0,
        "request-latency buckets must be populated after serving requests"
    );
    assert!(
        populated("simdsim_fleet_report_latency_ms_bucket") > 0,
        "report-latency buckets must be populated after a fleet report"
    );

    drop(w.stop());
    server.shutdown();
}

/// Every answered request is counted once, in its endpoint family's
/// latency histogram, so `simdsim_http_requests_total{endpoint}` equals
/// `simdsim_http_request_duration_ms_count{endpoint}` — 404s, 405s and
/// malformed or unknown job ids included.
#[test]
fn request_totals_match_latency_histogram_counts() {
    let server = start_server();
    let mut c = connect(&server);
    let sub = c
        .submit(&SweepRequest::by_name("fig4").filter("/idct/"))
        .expect("submit");
    c.wait_timeout(sub.id, POLL, TIMEOUT).expect("job finishes");
    for (method, path, status) in [
        ("GET", "/v1/healthz", 200),
        ("GET", "/v1/sweeps/abc", 400),
        ("GET", "/v1/sweeps/999999", 404),
        ("GET", "/v1/sweeps/999999/cells", 404),
        ("GET", "/no/such/route", 404),
        ("POST", "/v1/healthz", 404),
        ("DELETE", "/v1/sweeps/abc", 400),
        ("PATCH", "/v1/sweeps", 405),
        ("GET", "/metrics", 200),
    ] {
        let resp = c.http().request(method, path).expect("request completes");
        assert_eq!(resp.status, status, "{method} {path}");
    }

    let body = c.http().get("/metrics").expect("metrics scrape").body_str();
    let value = |series: String| -> u64 {
        body.lines()
            .find_map(|l| l.strip_prefix(&series)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no `{series}` in:\n{body}"))
    };
    let mut total = 0;
    for e in HTTP_ENDPOINTS {
        let requests = value(format!("simdsim_http_requests_total{{endpoint=\"{e}\"}}"));
        let observed = value(format!(
            "simdsim_http_request_duration_ms_count{{endpoint=\"{e}\"}}"
        ));
        assert_eq!(requests, observed, "endpoint {e}");
        total += requests;
    }
    // The submit, at least one status poll, and the nine requests above.
    assert!(total >= 11, "only {total} requests counted");
    server.shutdown();
}

/// Malformed `GET /v1/debug/events` numeric filters are a typed 400, and
/// `limit` keeps the newest events.
#[test]
fn debug_events_validates_filters_and_honours_limit() {
    let server = start_server();
    let mut c = connect(&server);

    let sub = c
        .submit(&SweepRequest::by_name("fig4").filter("/idct/"))
        .expect("submit");
    c.wait_timeout(sub.id, POLL, TIMEOUT).expect("job finishes");

    let bad = c
        .http()
        .get("/v1/debug/events?job=notanumber")
        .expect("request completes");
    assert_eq!(bad.status, 400, "a malformed job id is a bad request");

    let limited = c
        .http()
        .get("/v1/debug/events?limit=1")
        .expect("request completes");
    assert_eq!(limited.status, 200);
    let doc: simdsim_api::DebugEvents =
        serde_json::from_str(&limited.body_str()).expect("debug events parse");
    assert_eq!(doc.events.len(), 1, "limit=1 returns exactly one event");

    server.shutdown();
}
