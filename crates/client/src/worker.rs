//! The fleet worker: a process that registers with a coordinator
//! (`simdsim-serve`), leases cells, simulates them with the very same
//! in-process engine, and reports per-cell results.
//!
//! The loop is deliberately simple — the coordinator owns all the hard
//! state (leases, timeouts, re-queueing):
//!
//! 1. `POST /v1/workers/register`, learning the heartbeat cadence and
//!    lease TTL.
//! 2. Optionally warm-start the local result store from the
//!    coordinator's snapshot (`GET /v1/store/snapshot`).
//! 3. Long-poll `POST /v1/workers/{id}/lease`; every fleet call doubles
//!    as a liveness signal, and while cells execute a background
//!    heartbeat keeps the registration alive.
//! 4. Simulate each leased cell ([`simdsim_sweep::execute_cell`]),
//!    consulting the local store first, and report the batch.
//!
//! Getting `unknown_worker` (404) anywhere means the coordinator evicted
//! us (a pause longer than the liveness contract, or a coordinator
//! restart): the worker silently re-registers and carries on.  A crashed
//! worker needs no cleanup at all — its leases expire and the cells are
//! re-offered to the rest of the fleet.

use crate::{ClientError, SimdsimClient};
use simdsim_api::{
    CellPhases, ErrorCode, Lease, LeaseRequest, LeasedCell, RegisterRequest, ReportRequest,
    UnitResult,
};
use simdsim_obs::{now_ms, Event};
use simdsim_sweep::{cell_key, execute_cell, ResultStore, StoredCell};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything a worker process needs to join a fleet.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The coordinator's `host:port`.
    pub addr: String,
    /// Name shown in `sweepctl fleet status`.
    pub name: String,
    /// Concurrent simulation slots; also the cell count per lease.
    pub slots: u64,
    /// Local content-addressed store (results are checked before
    /// simulating and saved after).  `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Import the coordinator's store snapshot into the local store on
    /// startup, so a fresh worker skips everything the fleet already
    /// simulated.
    pub warm_start: bool,
    /// Socket timeout for every request.
    pub timeout: Duration,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8844".to_owned(),
            name: "worker".to_owned(),
            slots: 1,
            cache_dir: None,
            warm_start: false,
            timeout: Duration::from_secs(60),
        }
    }
}

/// What a worker did over its lifetime, returned when it stops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Leases granted to this worker.
    pub leases: u64,
    /// Cells simulated.
    pub simulated: u64,
    /// Cells answered from the local store.
    pub cached: u64,
}

/// Runs the worker loop until `stop` is set, returning the tallies.
///
/// # Errors
///
/// Transport, protocol, or typed API errors other than the
/// `unknown_worker` eviction (which re-registers instead of failing).
pub fn run_worker(cfg: &WorkerConfig, stop: &AtomicBool) -> Result<WorkerStats, ClientError> {
    let mut client = SimdsimClient::connect(&cfg.addr, cfg.timeout)?;
    let store = cfg.cache_dir.clone().map(ResultStore::new);
    // Advertise the local cache contents so the coordinator can lease
    // with affinity.  Recomputed at every (re-)registration: the store
    // grows as the worker runs, and an evicted worker that comes back
    // should advertise everything it has accumulated since.
    let register = |store: Option<&ResultStore>| RegisterRequest {
        name: cfg.name.clone(),
        slots: cfg.slots.max(1),
        cache_keys: store
            .map(|s| s.keys().iter().map(|k| k.as_str().to_owned()).collect())
            .unwrap_or_default(),
    };
    let mut reg = client.register_worker(&register(store.as_ref()))?;
    if cfg.warm_start {
        if let Some(store) = &store {
            let snapshot = client.store_export()?;
            store.import(snapshot.entries.iter().map(|e| {
                (
                    e.key.as_str(),
                    StoredCell {
                        label: e.label.clone(),
                        stats: e.stats.clone(),
                    },
                )
            }));
        }
    }
    let heartbeat = Duration::from_millis(reg.heartbeat_interval_ms.max(1));
    // The lease long-poll is the idle-time heartbeat: short enough that
    // the coordinator sees us well inside the liveness window, and also
    // how often the stop flag is observed.
    let wait = (heartbeat / 2).max(Duration::from_millis(10));

    let mut stats = WorkerStats::default();
    while !stop.load(Ordering::Relaxed) {
        let request = LeaseRequest {
            max_cells: cfg.slots.max(1),
            wait_ms: wait.as_millis() as u64,
        };
        let lease = match client.lease(reg.worker_id, &request) {
            Ok(resp) => match resp.lease {
                Some(lease) => lease,
                None => continue, // no work arrived within the poll
            },
            Err(e) if is_eviction(&e) => {
                reg = client.register_worker(&register(store.as_ref()))?;
                continue;
            }
            Err(e) => return Err(e),
        };
        stats.leases += 1;
        let results = execute_lease(
            &mut client,
            reg.worker_id,
            &lease,
            store.as_ref(),
            heartbeat,
        );
        for r in &results {
            if r.cached {
                stats.cached += 1;
            } else {
                stats.simulated += 1;
            }
        }
        let spans = unit_spans(&lease, &results, reg.worker_id);
        let report = ReportRequest {
            lease_id: lease.lease_id,
            results,
            spans,
        };
        match client.report(reg.worker_id, &report) {
            // Evicted mid-lease: the cells were re-queued (or our late
            // report raced a re-execution — either way the coordinator
            // resolved them).  Rejoin and keep going.
            Err(e) if is_eviction(&e) => {
                reg = client.register_worker(&register(store.as_ref()))?;
            }
            Err(e) => return Err(e),
            Ok(_) => {}
        }
    }
    Ok(stats)
}

fn is_eviction(e: &ClientError) -> bool {
    e.api_error()
        .is_some_and(|err| err.code == ErrorCode::UnknownWorker)
}

/// One `worker.unit` span per resolved cell, tagged with the lease's
/// trace/job ids — shipped inside the report so the coordinator's flight
/// recorder shows the worker's side of the fan-out.
fn unit_spans(lease: &Lease, results: &[UnitResult], worker: u64) -> Vec<Event> {
    results
        .iter()
        .map(|r| {
            let mut span = Event::new("worker.unit")
                .with_worker(worker)
                .with_unit(r.unit)
                .with_dur_ms(r.wall_ms);
            span.ts_ms = now_ms();
            if let Some(c) = lease.cells.iter().find(|c| c.unit == r.unit) {
                let mut d = format!(
                    "{} {}",
                    c.cell.label(),
                    if r.cached { "cached" } else { "simulated" }
                );
                // Freshly simulated cells report their dominant stall;
                // cached cells replay stored stats.
                if let Some(top) = r
                    .stats
                    .as_ref()
                    .filter(|_| !r.cached)
                    .and_then(|s| s.profile.as_ref())
                    .and_then(top_stall)
                {
                    d.push_str(&format!(" top_stall={top}"));
                }
                span = span.with_trace(c.trace.clone()).with_detail(d);
                span.job = c.job;
            }
            span
        })
        .collect()
}

/// The dominant stall cause of one cell's CPI stack as `cause:slots`
/// (slots summed across regions); `None` for a stall-free cell.
fn top_stall(stack: &simdsim_sweep::CpiStack) -> Option<String> {
    use simdsim_sweep::{StallCause, NUM_REGIONS};
    StallCause::ALL
        .iter()
        .map(|c| {
            let slots: u64 = (0..NUM_REGIONS).map(|r| stack.stall(*c, r)).sum();
            (c.label(), slots)
        })
        .max_by_key(|&(_, slots)| slots)
        .filter(|&(_, slots)| slots > 0)
        .map(|(label, slots)| format!("{label}:{slots}"))
}

/// Simulates every cell of one lease, up to `slots` at a time, while the
/// calling thread heartbeats so a long lease cannot get the worker
/// evicted mid-execution.
fn execute_lease(
    client: &mut SimdsimClient,
    worker: u64,
    lease: &Lease,
    store: Option<&ResultStore>,
    heartbeat: Duration,
) -> Vec<UnitResult> {
    let queue: Mutex<VecDeque<&LeasedCell>> = Mutex::new(lease.cells.iter().collect());
    let results: Mutex<Vec<UnitResult>> = Mutex::new(Vec::with_capacity(lease.cells.len()));
    let threads = lease.cells.len().max(1);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let next = queue.lock().expect("queue lock").pop_front();
                let Some(leased) = next else { break };
                let result = execute_one(leased, store);
                results.lock().expect("results lock").push(result);
            });
        }
        let mut last_beat = Instant::now();
        while results.lock().expect("results lock").len() < lease.cells.len() {
            std::thread::sleep(Duration::from_millis(5));
            if last_beat.elapsed() >= heartbeat {
                // Liveness only; an eviction here surfaces on the next
                // lease/report call, which re-registers.
                let _ = client.heartbeat(worker);
                last_beat = Instant::now();
            }
        }
    });
    let mut results = results.into_inner().expect("results lock");
    // Deterministic report order regardless of which slot finished first.
    results.sort_by_key(|r| r.unit);
    results
}

/// Simulates (or loads) one leased cell, timing each phase: the store
/// probe, the engine's decode/simulate split, and the store write-back.
fn execute_one(leased: &LeasedCell, store: Option<&ResultStore>) -> UnitResult {
    let probe = Instant::now();
    let key = leased
        .cell
        .config()
        .ok()
        .map(|cfg| cell_key(&leased.cell, &cfg));
    if let (Some(store), Some(key)) = (store, &key) {
        if let Some(hit) = store.load(key) {
            return UnitResult {
                unit: leased.unit,
                cached: true,
                wall_ms: 0.0,
                stats: Some(hit.stats),
                error: None,
                phases: Some(CellPhases {
                    probe_ms: probe.elapsed().as_secs_f64() * 1e3,
                    ..CellPhases::default()
                }),
            };
        }
    }
    let probe_ms = probe.elapsed().as_secs_f64() * 1e3;
    let run = execute_cell(&leased.cell);
    let mut phases = run.phases;
    phases.probe_ms = probe_ms;
    match run.stats {
        Ok(stats) => {
            if let (Some(store), Some(key)) = (store, &key) {
                let write = Instant::now();
                store.save(
                    key,
                    &StoredCell {
                        label: leased.cell.label(),
                        stats: stats.clone(),
                    },
                );
                phases.store_ms = write.elapsed().as_secs_f64() * 1e3;
            }
            UnitResult {
                unit: leased.unit,
                cached: false,
                wall_ms: run.wall.as_secs_f64() * 1000.0,
                stats: Some(stats),
                error: None,
                phases: Some(phases),
            }
        }
        Err(e) => UnitResult {
            unit: leased.unit,
            cached: false,
            wall_ms: run.wall.as_secs_f64() * 1000.0,
            stats: None,
            error: Some(e.message),
            phases: Some(phases),
        },
    }
}

/// An in-process worker (tests, `loadgen`): [`run_worker`] on its own
/// thread with a stop flag.
#[derive(Debug)]
pub struct WorkerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<Result<WorkerStats, ClientError>>>,
}

impl WorkerHandle {
    /// Signals the loop to stop and joins it, returning its tallies.
    ///
    /// # Errors
    ///
    /// Whatever error stopped the loop first, if any.
    pub fn stop(mut self) -> Result<WorkerStats, ClientError> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .take()
            .expect("worker thread present until stop")
            .join()
            .unwrap_or_else(|_| Err(ClientError::Protocol("worker thread panicked".to_owned())))
    }

    /// The shared stop flag (lets embedders stop many workers at once).
    #[must_use]
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }
}

/// Spawns [`run_worker`] on a background thread.
#[must_use]
pub fn spawn_worker(cfg: WorkerConfig) -> WorkerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name(format!("fleet-worker-{}", cfg.name))
        .spawn(move || run_worker(&cfg, &flag))
        .expect("spawn fleet worker");
    WorkerHandle {
        stop,
        thread: Some(thread),
    }
}
