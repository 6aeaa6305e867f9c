//! Fleet acceptance tests: a coordinator sharding sweeps across worker
//! processes over the `/v1/workers/*` wire surface, including the failure
//! modes the lease protocol exists for — a worker dying mid-lease, a
//! worker missing heartbeats, and duplicate reports.
//!
//! The invariant under test everywhere: a sharded sweep's statistics are
//! **bit-identical** to the single-process golden fixture, whatever the
//! fleet does.

use serde::{Serialize, Value};
use simdsim_api::{
    CellResult, ErrorCode, LeaseRequest, RegisterRequest, ReportRequest, SweepRequest, UnitResult,
};
use simdsim_client::{spawn_worker, SimdsimClient, WorkerConfig};
use simdsim_serve::{FleetConfig, Server, ServerConfig};
use simdsim_sweep::execute_cell;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(120);
const POLL: Duration = Duration::from_millis(25);

fn start_server(fleet: FleetConfig) -> Server {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: None,
        job_workers: 1,
        engine_jobs: Some(2),
        fleet,
        ..ServerConfig::default()
    };
    Server::start(cfg).expect("server binds an ephemeral port")
}

fn fast_fleet(heartbeat_ms: u64, lease_ttl_ms: u64) -> FleetConfig {
    FleetConfig {
        heartbeat_interval: Duration::from_millis(heartbeat_ms),
        lease_ttl: Duration::from_millis(lease_ttl_ms),
        ..FleetConfig::default()
    }
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

/// Waits until the coordinator reports `n` live workers.
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

/// Asserts `cells` match the committed single-process golden fixture bit
/// for bit — the determinism contract sharding must preserve.
fn assert_golden_identical(cells: &[CellResult]) {
    let fixture_text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/pipestats.json"),
    )
    .expect("golden fixture present");
    let fixture: Value = serde_json::from_str(&fixture_text).expect("fixture parses");
    assert!(!cells.is_empty());
    for cell in cells {
        let golden = fixture
            .get(&cell.label)
            .unwrap_or_else(|| panic!("fixture has no cell `{}`", cell.label));
        let stats = cell.stats.as_ref().expect("cell has stats");
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
                "{}: sharded `{served_field}` != golden `{golden_field}`",
                cell.label
            );
        }
    }
}

/// The headline path: two workers join, a sweep is sharded across them,
/// and the result is bit-identical to the single-process golden fixture.
#[test]
fn sweep_sharded_across_two_workers_is_golden_identical() {
    let server = start_server(FleetConfig::default());
    let mut c = connect(&server);

    let w1 = spawn_worker(worker_config(&server, "w1"));
    let w2 = spawn_worker(worker_config(&server, "w2"));
    wait_live_workers(&mut c, 2);

    let sub = c
        .submit(&SweepRequest::by_name("fig4").filter("/idct/"))
        .expect("submit");
    let status = c.wait_timeout(sub.id, POLL, TIMEOUT).expect("job finishes");
    assert_eq!(status.state, simdsim_api::JobState::Done);
    let result = status.result.expect("result");
    assert_eq!(result.cells.len(), 4, "fig4 /idct/ yields 4 cells");
    assert_eq!(result.failed, 0);
    assert_golden_identical(&result.cells);

    // The cells actually went over the wire, not through the local pool.
    let snapshot = server.metrics();
    assert_eq!(snapshot.fleet_cells_reported.load(Relaxed), 4);
    assert!(snapshot.fleet_leases_granted.load(Relaxed) >= 1);
    let stats = [w1.stop().expect("w1"), w2.stop().expect("w2")];
    assert_eq!(
        stats.iter().map(|s| s.simulated + s.cached).sum::<u64>(),
        4,
        "the fleet simulated every cell exactly once"
    );
}

/// A worker dies mid-lease (leases every cell, reports nothing, stops
/// heartbeating): its cells are re-queued and completed by a healthy
/// worker, and the stats stay golden-bit-identical.
#[test]
fn worker_death_mid_lease_requeues_cells_and_stays_golden() {
    let server = start_server(fast_fleet(100, 60_000));
    let mut c = connect(&server);

    // The doomed "worker" is this test speaking the wire protocol: it
    // registers, leases everything, and then goes silent.
    let doomed = c
        .register_worker(&RegisterRequest {
            name: "doomed".to_owned(),
            slots: 8,
            ..RegisterRequest::default()
        })
        .expect("register");

    let sub = c
        .submit(&SweepRequest::by_name("fig4").filter("/idct/"))
        .expect("submit");
    let lease = {
        let deadline = Instant::now() + TIMEOUT;
        loop {
            let resp = c
                .lease(
                    doomed.worker_id,
                    &LeaseRequest {
                        max_cells: 8,
                        wait_ms: 1000,
                    },
                )
                .expect("lease");
            if let Some(lease) = resp.lease {
                break lease;
            }
            assert!(Instant::now() < deadline, "no work offered");
        }
    };
    assert_eq!(lease.cells.len(), 4, "the doomed worker holds every cell");

    // Now the worker "crashes": no report, no heartbeat.  A healthy
    // worker joins; once the doomed one misses ~3 heartbeats it is
    // evicted and its cells re-offered.
    let healthy = spawn_worker(worker_config(&server, "healthy"));
    let status = c.wait_timeout(sub.id, POLL, TIMEOUT).expect("job finishes");
    assert_eq!(status.state, simdsim_api::JobState::Done);
    let result = status.result.expect("result");
    assert_eq!(result.cells.len(), 4);
    assert_eq!(result.failed, 0, "a dead worker must not fail cells");
    assert_golden_identical(&result.cells);

    let snapshot = server.metrics();
    assert_eq!(snapshot.fleet_workers_evicted.load(Relaxed), 1);
    assert_eq!(snapshot.fleet_cells_requeued.load(Relaxed), 4);
    assert_eq!(snapshot.fleet_cells_reported.load(Relaxed), 4);
    healthy.stop().expect("healthy worker");
}

/// A leased cell that runs for several heartbeat intervals keeps its
/// worker alive: the worker heartbeats while it waits on its slots, so
/// the coordinator neither evicts it nor re-queues the cell.
#[test]
fn long_lease_heartbeats_keep_the_worker_alive() {
    // Over three intervals of silence evict a worker.  In a debug build
    // the leased fig5 cell simulates for about ten; the longest fig4
    // cell now takes under three.
    const HEARTBEAT_MS: u64 = 30;
    let server = start_server(fast_fleet(HEARTBEAT_MS, 60_000));
    let mut c = connect(&server);
    let worker = spawn_worker(WorkerConfig {
        slots: 1,
        ..worker_config(&server, "slow")
    });
    wait_live_workers(&mut c, 1);

    let sub = c
        .submit(&SweepRequest::by_name("fig5").filter("/mpeg2dec/mmx128/2way"))
        .expect("submit");
    let status = c.wait_timeout(sub.id, POLL, TIMEOUT).expect("job finishes");
    assert_eq!(status.state, simdsim_api::JobState::Done);
    let result = status.result.expect("result");
    assert_eq!(result.cells.len(), 1, "fig5 /mpeg2dec/mmx128/2way: 1 cell");
    assert_eq!(result.failed, 0);
    assert_golden_identical(&result.cells);
    if cfg!(debug_assertions) {
        let simulate_ms = result.cells[0].phases.expect("phases").simulate_ms;
        assert!(
            simulate_ms > 3.0 * HEARTBEAT_MS as f64,
            "the cell ({simulate_ms} ms) must outlast the liveness window"
        );
    }

    let snapshot = server.metrics();
    assert_eq!(snapshot.fleet_workers_registered.load(Relaxed), 1);
    assert_eq!(snapshot.fleet_workers_evicted.load(Relaxed), 0);
    let body = c.http().get("/metrics").expect("metrics scrape").body_str();
    assert!(body.contains("simdsim_fleet_cells_total{event=\"requeued\"} 0"));
    let stats = worker.stop().expect("worker");
    assert_eq!((stats.leases, stats.simulated), (1, 1));
}

/// Missing heartbeats evicts a worker: its id answers `unknown_worker`
/// (404) everywhere, it disappears from the fleet listing, and
/// re-registering yields a fresh id.
#[test]
fn heartbeat_expiry_evicts_the_worker() {
    let server = start_server(fast_fleet(50, 60_000));
    let mut c = connect(&server);
    let reg = c
        .register_worker(&RegisterRequest::default())
        .expect("register");
    assert_eq!(reg.heartbeat_interval_ms, 50);
    c.heartbeat(reg.worker_id).expect("live worker heartbeats");

    // Miss well over 3 intervals.
    std::thread::sleep(Duration::from_millis(250));
    let err = c.heartbeat(reg.worker_id).expect_err("evicted");
    assert_eq!(
        err.api_error().map(|e| e.code),
        Some(ErrorCode::UnknownWorker)
    );
    let fleet = c.fleet_status().expect("fleet status");
    assert!(fleet.workers.is_empty(), "evicted worker left the listing");

    let again = c
        .register_worker(&RegisterRequest::default())
        .expect("re-register");
    assert_ne!(again.worker_id, reg.worker_id, "ids are never reused");
    assert_eq!(server.metrics().fleet_workers_evicted.load(Relaxed), 1);
}

/// Reporting the same lease twice is a no-op: the duplicate counts as
/// `stale`, nothing double-resolves, and the job's stats are unchanged.
#[test]
fn duplicate_report_is_a_stale_no_op() {
    let server = start_server(FleetConfig::default());
    let mut c = connect(&server);
    let reg = c
        .register_worker(&RegisterRequest {
            name: "dup".to_owned(),
            slots: 8,
            ..RegisterRequest::default()
        })
        .expect("register");

    let sub = c
        .submit(&SweepRequest::by_name("fig4").filter("/idct/"))
        .expect("submit");
    let lease = {
        let deadline = Instant::now() + TIMEOUT;
        loop {
            let resp = c
                .lease(
                    reg.worker_id,
                    &LeaseRequest {
                        max_cells: 8,
                        wait_ms: 1000,
                    },
                )
                .expect("lease");
            if let Some(lease) = resp.lease {
                break lease;
            }
            assert!(Instant::now() < deadline, "no work offered");
        }
    };
    assert_eq!(lease.cells.len(), 4);

    let results: Vec<UnitResult> = lease
        .cells
        .iter()
        .map(|leased| {
            let run = execute_cell(&leased.cell);
            UnitResult {
                unit: leased.unit,
                cached: false,
                wall_ms: run.wall.as_secs_f64() * 1000.0,
                stats: Some(run.stats.expect("cell simulates")),
                error: None,
                phases: Some(run.phases),
            }
        })
        .collect();
    let report = ReportRequest {
        lease_id: lease.lease_id,
        results,
        spans: Vec::new(),
    };
    let first = c.report(reg.worker_id, &report).expect("report");
    assert_eq!((first.accepted, first.stale), (4, 0));

    // The retry (a worker resending after a lost response) changes
    // nothing: deterministic simulation makes the payload bit-identical,
    // and the coordinator had already resolved the units.
    let second = c.report(reg.worker_id, &report).expect("duplicate report");
    assert_eq!((second.accepted, second.stale), (0, 4));

    let status = c.wait_timeout(sub.id, POLL, TIMEOUT).expect("job finishes");
    assert_eq!(status.state, simdsim_api::JobState::Done);
    let result = status.result.expect("result");
    assert_eq!(result.cells.len(), 4, "no cell resolved twice");
    assert_golden_identical(&result.cells);
    let snapshot = server.metrics();
    assert_eq!(snapshot.fleet_cells_reported.load(Relaxed), 4);
    assert_eq!(snapshot.fleet_reports_stale.load(Relaxed), 4);
}

/// A store snapshot round-trips between two servers: export from one,
/// import into the other, and the second serves the sweep from cache
/// without a single simulation.
#[test]
fn store_snapshot_round_trips_between_servers() {
    let dir = std::env::temp_dir().join(format!("simdsim-fleet-test-{}", std::process::id()));
    let src_dir = dir.join("src");
    let dst_dir = dir.join("dst");
    let _ = std::fs::remove_dir_all(&dir);

    let src = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: Some(src_dir),
        job_workers: 1,
        engine_jobs: Some(2),
        ..ServerConfig::default()
    })
    .expect("source server");
    let mut c = connect(&src);
    let sub = c
        .submit(&SweepRequest::by_name("fig4").filter("/idct/"))
        .expect("submit");
    c.wait_timeout(sub.id, POLL, TIMEOUT).expect("job finishes");
    let snapshot = c.store_export().expect("export");
    assert_eq!(snapshot.entries.len(), 4);
    src.shutdown();

    let dst = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: Some(dst_dir),
        job_workers: 1,
        engine_jobs: Some(2),
        ..ServerConfig::default()
    })
    .expect("destination server");
    let mut c = connect(&dst);
    let imported = c.store_import(&snapshot).expect("import");
    assert_eq!((imported.imported, imported.skipped), (4, 0));
    // Importing the same snapshot again skips every existing key.
    let again = c.store_import(&snapshot).expect("re-import");
    assert_eq!((again.imported, again.skipped), (0, 4));

    let sub = c
        .submit(&SweepRequest::by_name("fig4").filter("/idct/"))
        .expect("submit");
    let status = c.wait_timeout(sub.id, POLL, TIMEOUT).expect("job finishes");
    let result = status.result.expect("result");
    assert_eq!(
        (result.cached, result.executed),
        (4, 0),
        "the imported snapshot served the whole sweep"
    );
    assert_golden_identical(&result.cells);
    dst.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
