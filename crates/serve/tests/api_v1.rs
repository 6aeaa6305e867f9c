//! v1-contract acceptance tests: cursor streaming, coalescing,
//! cancellation, the job listing, and retention — all driven through
//! `SimdsimClient` against a real ephemeral-port daemon.

use serde::{Serialize, Value};
use simdsim_api::{
    BatchSubmitResponse, CellResult, ErrorCode, JobState, SweepRequest, TRACE_HEADER,
};
use simdsim_client::{ClientError, SimdsimClient};
use simdsim_serve::{Server, ServerConfig};
use simdsim_sweep::Scenario;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(120);
const POLL: Duration = Duration::from_millis(25);

fn start_server(cfg_mut: impl FnOnce(&mut ServerConfig)) -> Server {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: None,
        job_workers: 1,
        engine_jobs: Some(2),
        ..ServerConfig::default()
    };
    cfg_mut(&mut cfg);
    Server::start(cfg).expect("server binds an ephemeral port")
}

fn connect(server: &Server) -> SimdsimClient {
    SimdsimClient::connect(server.addr(), TIMEOUT).expect("client connects")
}

/// The acceptance path: submit → stream cells through the `?since=`
/// cursor while the job runs → final stats — with the streamed per-cell
/// statistics bit-identical to the committed golden fixture, a duplicate
/// concurrent submission observed as one engine run, and the flow closed
/// out by a cancel (409: the shared job already finished).
#[test]
fn submit_stream_dedup_and_golden_identical_cells() {
    let server = start_server(|_| {});
    let mut c = connect(&server);
    let request = SweepRequest::by_name("fig4").filter("/idct/");

    let first = c.submit(&request).expect("submit");
    assert!(!first.deduped);
    assert_eq!(first.url, format!("/v1/sweeps/{}", first.id));

    // An identical submission while the first is queued/running does not
    // queue a second engine run: it aliases the same job.
    let dup = c.submit(&request).expect("duplicate submit");
    assert!(dup.deduped, "identical in-flight submission coalesces");
    assert!(dup.id > first.id);

    // Stream the first job's cells through the long-poll cursor.
    let mut streamed: Vec<CellResult> = Vec::new();
    let status = c
        .stream_cells(first.id, |cell| streamed.push(cell.clone()))
        .expect("stream");
    assert_eq!(status.state, JobState::Done);
    assert_eq!(status.id, first.id);
    assert_eq!(streamed.len(), 4, "fig4 /idct/ yields 4 cells");
    assert!(
        streamed.iter().all(|cell| !cell.cached),
        "no cache configured — every cell was simulated"
    );

    // The streamed statistics match the committed golden fixture bit for
    // bit (match by label: stream order is completion order).
    let fixture_text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/pipestats.json"),
    )
    .expect("golden fixture present");
    let fixture: Value = serde_json::from_str(&fixture_text).expect("fixture parses");
    for cell in &streamed {
        let golden = fixture
            .get(&cell.label)
            .unwrap_or_else(|| panic!("fixture has no cell `{}`", cell.label));
        let stats = cell.stats.as_ref().expect("streamed cell has stats");
        let doc = stats.to_value();
        for (served_field, golden_field) in [
            ("cycles", "cycles"),
            ("instrs", "instrs"),
            ("counts", "counts"),
            ("branches", "branches"),
            ("mispredicts", "mispredicts"),
            ("vector_cycles", "vector_region_cycles"),
            ("scalar_cycles", "scalar_region_cycles"),
            ("l1", "l1"),
            ("l2", "l2"),
            ("memsys", "memsys"),
        ] {
            assert_eq!(
                doc.get(served_field),
                golden.get(golden_field),
                "{}: streamed `{served_field}` != golden `{golden_field}`",
                cell.label
            );
        }
    }

    // The duplicate id observes the same finished run: identical cells,
    // nothing executed twice.
    let dup_status = c.wait_timeout(dup.id, POLL, TIMEOUT).expect("dup status");
    assert_eq!(dup_status.state, JobState::Done);
    assert_eq!(dup_status.id, dup.id, "alias id reported under itself");
    let dup_result = dup_status.result.expect("result");
    assert_eq!(dup_result.cells.len(), 4);
    let mut by_index = streamed.clone();
    by_index.sort_by_key(|cell| cell.index);
    for (a, b) in by_index.iter().zip(&dup_result.cells) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.stats, b.stats, "stats diverged for {}", a.label);
    }

    // Exactly one engine run happened: 4 simulated cells total, one
    // coalesce recorded, zero served from cache.
    let snap = server.metrics();
    assert_eq!(
        snap.cells_simulated.load(Relaxed),
        4,
        "one engine run for two ids"
    );
    assert_eq!(snap.cells_cached.load(Relaxed), 0);
    assert_eq!(snap.jobs_coalesced.load(Relaxed), 1);
    assert_eq!(snap.jobs_completed.load(Relaxed), 1);

    // Closing the flow: cancelling the already-finished job is a typed
    // conflict, not a silent no-op.
    match c.cancel(first.id) {
        Err(ClientError::Api { status, error }) => {
            assert_eq!(status, 409);
            assert_eq!(error.code, ErrorCode::Conflict);
        }
        other => panic!("expected 409 conflict, got {other:?}"),
    }

    server.shutdown();
}

#[test]
fn cancelling_a_queued_job_drops_it_before_it_runs() {
    let server = start_server(|_| {});
    let mut c = connect(&server);

    // Occupy the single worker, then queue a second job.
    let blocker = c
        .submit(&SweepRequest::by_name("fig4").filter("/idct/"))
        .expect("blocker")
        .id;
    let queued = c
        .submit(&SweepRequest::by_name("fig4").filter("/rgb/"))
        .expect("queued")
        .id;

    let cancelled = c.cancel(queued).expect("cancel");
    assert_eq!(cancelled.state, JobState::Cancelled);
    assert_eq!(cancelled.id, queued);

    let status = c.status(queued).expect("status");
    assert_eq!(status.state, JobState::Cancelled);
    assert!(status.result.is_none(), "never ran — no result");

    // The cancelled job's cell stream terminates immediately and empty.
    let page = c
        .cells(queued, 0, Duration::from_millis(10))
        .expect("cells");
    assert!(page.done);
    assert!(page.cells.is_empty());

    // Cancelling again is a conflict; the blocker still completes.
    match c.cancel(queued) {
        Err(ClientError::Api { error, .. }) => assert_eq!(error.code, ErrorCode::Conflict),
        other => panic!("expected conflict, got {other:?}"),
    }
    let done = c
        .wait_timeout(blocker, POLL, TIMEOUT)
        .expect("blocker finishes");
    assert_eq!(done.state, JobState::Done);

    let snap = server.metrics();
    assert_eq!(snap.jobs_cancelled.load(Relaxed), 1);
    server.shutdown();
}

#[test]
fn cancelling_a_running_job_stops_between_cells() {
    let server = start_server(|cfg| cfg.engine_jobs = Some(1));
    let mut c = connect(&server);

    // A wide sweep: every kernel × every extension at 2-way, simulated
    // one cell at a time.
    let wide = Scenario::new("wide", "cancellation fodder")
        .kernels(simdsim_kernels_names())
        .exts(simdsim_isa::Ext::ALL)
        .ways([2]);
    let id = c.submit(&SweepRequest::inline(wide)).expect("submit").id;

    // Wait for the first cell to resolve, then cancel mid-run.
    let page = c.cells(id, 0, Duration::from_secs(60)).expect("first page");
    assert!(!page.cells.is_empty(), "at least one cell resolved");
    let resolved_before_cancel = page.next;

    let cancelling = c.cancel(id).expect("cancel accepted");
    assert!(
        matches!(cancelling.state, JobState::Running | JobState::Cancelled),
        "cancel of a live job reports running (202) or already cancelled"
    );

    let status = c.wait_timeout(id, POLL, TIMEOUT).expect("terminal");
    assert_eq!(status.state, JobState::Cancelled);
    let result = status.result.expect("a cancelled run still reports cells");
    assert!(
        result.cells.iter().any(|cell| cell
            .error
            .as_deref()
            .is_some_and(|e| e.contains("cancelled"))),
        "unstarted cells resolve as cancelled errors"
    );
    // Cells resolved before the cancel keep their real statistics.
    for cell in result.cells.iter().take(resolved_before_cancel as usize) {
        assert!(cell.stats.is_some() || cell.error.is_some());
    }
    assert!(
        result.executed < result.cells.len() as u64,
        "the run stopped early: {} executed of {}",
        result.executed,
        result.cells.len()
    );

    let snap = server.metrics();
    assert_eq!(snap.jobs_cancelled.load(Relaxed), 1);
    assert_eq!(snap.jobs_completed.load(Relaxed), 0);
    server.shutdown();
}

/// Kernel names for the wide cancellation scenario, via the sweep
/// catalog (fig4 is exactly kernels × exts at 2-way).
fn simdsim_kernels_names() -> Vec<String> {
    simdsim_sweep::catalog::all()
        .into_iter()
        .find(|s| s.name == "fig4")
        .expect("fig4 in catalog")
        .workloads
        .iter()
        .map(|w| w.name().to_owned())
        .collect()
}

#[test]
fn job_listing_and_cursor_beyond_end() {
    let server = start_server(|_| {});
    let mut c = connect(&server);

    let a = c
        .submit(&SweepRequest::by_name("fig4").filter("/no-such-cell/"))
        .expect("submit a")
        .id;
    let b = c
        .submit(&SweepRequest::by_name("fig4").filter("/idct/"))
        .expect("submit b")
        .id;
    let _ = c.wait_timeout(a, POLL, TIMEOUT).expect("a done");
    let _ = c.wait_timeout(b, POLL, TIMEOUT).expect("b done");

    let list = c.list().expect("list");
    assert!(list.jobs.len() >= 2);
    assert!(
        list.jobs.windows(2).all(|w| w[0].id > w[1].id),
        "listing is newest-first"
    );
    let row_a = list.jobs.iter().find(|j| j.id == a).expect("a listed");
    assert_eq!(row_a.state, JobState::Done);
    assert_eq!(row_a.scenario, "fig4");
    assert_eq!(row_a.filter.as_deref(), Some("/no-such-cell/"));
    assert_eq!(row_a.progress.total, 0);

    // A cursor past the end of a finished stream is an empty page with
    // `done`, not an error.
    let page = c.cells(b, 999, Duration::ZERO).expect("beyond-end page");
    assert!(page.cells.is_empty());
    assert_eq!(page.since, 999);
    assert_eq!(page.next, 999);
    assert!(page.done);

    server.shutdown();
}

#[test]
fn finished_jobs_are_evicted_by_the_configured_retention() {
    let server = start_server(|cfg| cfg.job_retention = 2);
    let mut c = connect(&server);

    let mut ids = Vec::new();
    for i in 0..4 {
        let id = c
            .submit(&SweepRequest::by_name("fig4").filter(format!("/evict-{i}/")))
            .expect("submit")
            .id;
        let _ = c.wait_timeout(id, POLL, TIMEOUT).expect("done");
        ids.push(id);
    }
    // One more submission triggers eviction of the oldest finished jobs.
    let live = c
        .submit(&SweepRequest::by_name("fig4").filter("/evict-live/"))
        .expect("submit")
        .id;
    let _ = c.wait_timeout(live, POLL, TIMEOUT).expect("done");

    match c.status(ids[0]) {
        Err(ClientError::Api { status, error }) => {
            assert_eq!(status, 404);
            assert_eq!(error.code, ErrorCode::UnknownJob);
        }
        other => panic!("evicted job still addressable: {other:?}"),
    }
    assert!(c.status(ids[3]).is_ok(), "newest finished jobs retained");

    server.shutdown();
}

/// `POST /v1/sweeps:batch` submits many sweeps in one request with
/// **typed partial failure**: good items queue, bad items carry their own
/// `ApiError`, and positions are preserved.
#[test]
fn batch_submit_has_typed_partial_failure() {
    let server = start_server(|_| {});
    let mut c = connect(&server);

    let batch = c
        .submit_batch(&[
            SweepRequest::by_name("fig4").filter("/idct/"),
            SweepRequest::by_name("no-such-scenario"),
            SweepRequest::default(), // invalid: no scenario at all
            SweepRequest::by_name("fig4").filter("/fir/"),
        ])
        .expect("batch submit");
    assert_eq!(batch.items.len(), 4);

    let ok0 = batch.items[0].submit.as_ref().expect("item 0 queued");
    assert_eq!(ok0.url, format!("/v1/sweeps/{}", ok0.id));
    assert_eq!(
        batch.items[1].error.as_ref().map(|e| e.code),
        Some(ErrorCode::UnknownScenario)
    );
    assert!(batch.items[1].submit.is_none());
    assert_eq!(
        batch.items[2].error.as_ref().map(|e| e.code),
        Some(ErrorCode::BadRequest)
    );
    let ok3 = batch.items[3].submit.as_ref().expect("item 3 queued");
    assert!(ok3.id > ok0.id);

    // The accepted items are real jobs that run to completion.
    for id in [ok0.id, ok3.id] {
        let status = c.wait_timeout(id, POLL, TIMEOUT).expect("job finishes");
        assert_eq!(status.state, JobState::Done);
    }

    // An empty batch is rejected as a whole, not answered with zero items.
    match c.submit_batch(&[]) {
        Err(ClientError::Api { status, error }) => {
            assert_eq!(status, 400);
            assert_eq!(error.code, ErrorCode::BadRequest);
        }
        other => panic!("empty batch accepted: {other:?}"),
    }

    server.shutdown();
}

/// An inline scenario whose override the model cannot run (`int_fus=256`
/// once hung a worker forever) is a typed 400 at submit: nothing is queued.
#[test]
fn out_of_range_inline_override_is_a_400_before_queueing() {
    let server = start_server(|_| {});
    let mut c = connect(&server);
    let bad = Scenario::new("bad-fus", "issue limit out of range")
        .kernels(["idct"])
        .exts([simdsim_isa::Ext::Mmx64])
        .ways([2])
        .override_axis("int_fus", [256]);
    let start = std::time::Instant::now();
    match c.submit(&SweepRequest::inline(bad)) {
        Err(ClientError::Api { status, error }) => {
            assert_eq!(status, 400);
            assert_eq!(error.code, ErrorCode::BadRequest);
            assert!(error.error.contains("int_fus"), "{}", error.error);
        }
        other => panic!("out-of-range override accepted: {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "rejected quickly"
    );
    let jobs = c.list().expect("job listing");
    assert!(jobs.jobs.is_empty(), "nothing was queued: {jobs:?}");
    server.shutdown();
}

/// Trace propagation through `POST /v1/sweeps:batch`: without a caller
/// header every accepted item gets its own server-generated trace; with
/// an `X-Simdsim-Trace-Id` header the whole batch — one client action —
/// shares the caller's id.  Either way each item's `SubmitResponse`
/// echoes the trace its job actually runs under.
#[test]
fn batch_submit_propagates_trace_ids_per_item() {
    let server = start_server(|_| {});
    let mut c = connect(&server);

    // Headerless batch: distinct, well-formed traces per item.
    let anon = c
        .submit_batch(&[
            SweepRequest::by_name("fig4").filter("/trace-a/"),
            SweepRequest::by_name("fig4").filter("/trace-b/"),
        ])
        .expect("headerless batch");
    let traces: Vec<String> = anon
        .items
        .iter()
        .map(|item| {
            item.submit
                .as_ref()
                .expect("item queued")
                .trace
                .clone()
                .expect("every job is traceable")
        })
        .collect();
    assert_eq!(traces.len(), 2);
    assert_ne!(traces[0], traces[1], "separate jobs, separate traces");
    for t in &traces {
        assert_eq!(t.len(), 32, "trace ids are 32 hex chars: {t}");
        assert!(t.chars().all(|ch| ch.is_ascii_hexdigit()), "non-hex: {t}");
    }

    // Caller-supplied header: every accepted item shares it, and a
    // per-item failure neither gets a trace nor disturbs its neighbours.
    let trace = "00112233445566778899aabbccddeeff";
    let body = serde_json::to_string(&simdsim_api::BatchSubmitRequest {
        sweeps: vec![
            SweepRequest::by_name("fig4").filter("/trace-c/"),
            SweepRequest::by_name("no-such-scenario"),
            SweepRequest::by_name("fig4").filter("/trace-d/"),
        ],
    })
    .expect("serialize");
    let resp = c
        .http()
        .send_json_with_headers("POST", "/v1/sweeps:batch", &body, &[(TRACE_HEADER, trace)])
        .expect("traced batch");
    assert_eq!(resp.status, 200);
    let shared: BatchSubmitResponse =
        serde_json::from_str(&resp.body_str()).expect("batch response parses");
    assert_eq!(shared.items.len(), 3);
    for idx in [0usize, 2] {
        let sub = shared.items[idx].submit.as_ref().expect("item queued");
        assert_eq!(
            sub.trace.as_deref(),
            Some(trace),
            "item {idx} does not run under the caller's trace"
        );
    }
    assert!(shared.items[1].submit.is_none(), "bad item stays failed");
    assert_eq!(
        shared.items[1].error.as_ref().map(|e| e.code),
        Some(ErrorCode::UnknownScenario)
    );

    server.shutdown();
}

/// Version negotiation: `/v1/healthz` advertises `api_versions`, the
/// typed client connects only when its version is listed.
#[test]
fn health_advertises_api_versions_and_connect_negotiates() {
    let server = start_server(|_| {});
    // `connect` itself performs the handshake — reaching here proves the
    // negotiation passed; assert the advertised surface explicitly too.
    let mut c = connect(&server);
    let h = c.health().expect("health");
    assert_eq!(h.version, simdsim_api::API_VERSION);
    assert_eq!(h.api_versions, vec!["v1".to_owned()]);
    assert!(h.speaks("v1"));
    assert!(!h.speaks("v2"));
    server.shutdown();
}

/// Legacy unversioned aliases answer with `Deprecation`/`Sunset` headers;
/// the `/v1` surface (and `/metrics`, unversioned by convention) do not.
#[test]
fn legacy_aliases_carry_deprecation_headers() {
    let server = start_server(|_| {});
    let mut c = connect(&server);
    let raw = c.http();

    let legacy = raw.get("/healthz").expect("legacy healthz");
    assert_eq!(legacy.status, 200);
    assert_eq!(legacy.header("Deprecation"), Some("true"));
    assert_eq!(
        legacy.header("Sunset"),
        Some("Fri, 01 Jan 2027 00:00:00 GMT")
    );

    let v1 = raw.get("/v1/healthz").expect("v1 healthz");
    assert_eq!(v1.status, 200);
    assert_eq!(v1.header("Deprecation"), None, "v1 is not deprecated");
    assert_eq!(v1.header("Sunset"), None);

    let metrics = raw.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("Deprecation"),
        None,
        "/metrics is unversioned by convention, not deprecated"
    );

    server.shutdown();
}

/// `PUT /v1/store/snapshot` against a cache-less server is a typed 501;
/// a schema mismatch is a typed 400; export still answers (empty).
#[test]
fn snapshot_routes_answer_typed_errors_without_a_store() {
    let server = start_server(|_| {}); // cache_dir: None
    let mut c = connect(&server);

    let snapshot = c.store_export().expect("export without a store");
    assert!(snapshot.entries.is_empty());

    match c.store_import(&snapshot) {
        Err(ClientError::Api { status, error }) => {
            assert_eq!(status, 501);
            assert_eq!(error.code, ErrorCode::NotImplemented);
        }
        other => panic!("cache-less import accepted: {other:?}"),
    }
    server.shutdown();
}
