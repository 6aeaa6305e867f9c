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
//!    as a liveness signal, and while cells execute the worker
//!    heartbeats once per interval.
//! 4. Hand the leased cells to the worker's `slots` simulation threads.
//!    They are started once and live as long as the worker, so the
//!    engine's per-thread pooled pipelines and decode memo stay warm
//!    from one lease to the next.  Each slot resolves its cell through
//!    the engine's own path ([`simdsim_sweep::resolve_cells`] on a
//!    one-cell list): the local store probe, the simulation on the slot's
//!    thread, and the store write-back.  The batch report leaves the
//!    moment the last cell lands.
//!
//! Getting `unknown_worker` (404) anywhere means the coordinator evicted
//! us (a pause longer than the liveness contract, or a coordinator
//! restart): the worker silently re-registers and carries on.  A crashed
//! worker needs no cleanup at all — its leases expire and the cells are
//! re-offered to the rest of the fleet.

use crate::{ClientError, SimdsimClient};
use simdsim_api::{
    ErrorCode, Lease, LeaseRequest, LeasedCell, RegisterRequest, ReportRequest, UnitResult,
};
use simdsim_obs::{now_ms, Event};
use simdsim_sweep::{resolve_cells, run_jobs, LocalExecutor, ResultStore, StoredCell};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
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

    let slots = usize::try_from(cfg.slots.max(1)).expect("slot count fits in usize");
    with_slots(
        slots,
        |leased| resolve_leased(leased, store.as_ref()),
        |pool| {
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
                let worker = reg.worker_id;
                let results = execute_lease(pool, &lease, heartbeat, || {
                    // Liveness only; an eviction here surfaces on the next
                    // lease/report call, which re-registers.
                    let _ = client.heartbeat(worker);
                });
                for r in &results {
                    if r.cached {
                        stats.cached += 1;
                    } else {
                        stats.simulated += 1;
                    }
                }
                let spans = unit_spans(&lease, &results, worker);
                let report = ReportRequest {
                    lease_id: lease.lease_id,
                    results,
                    spans,
                };
                match client.report(worker, &report) {
                    // Evicted mid-lease: the cells were re-queued (or our
                    // late report raced a re-execution — either way the
                    // coordinator resolved them).  Rejoin and keep going.
                    Err(e) if is_eviction(&e) => {
                        reg = client.register_worker(&register(store.as_ref()))?;
                    }
                    Err(e) => return Err(e),
                    Ok(_) => {}
                }
            }
            Ok(stats)
        },
    )
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

/// One leased cell, and where its slot sends the result.
type SlotTask = (LeasedCell, Sender<UnitResult>);

/// Starts the worker's `n` slot threads, which answer each cell queued
/// on the sender `body` gets with `run_cell`, and joins them once `body`
/// returns (dropping the sender ends every slot).
fn with_slots<R>(
    n: usize,
    run_cell: impl Fn(&LeasedCell) -> UnitResult + Sync,
    body: impl FnOnce(&Sender<SlotTask>) -> R,
) -> R {
    let (slots, queue) = mpsc::channel::<SlotTask>();
    let queue = Mutex::new(queue);
    std::thread::scope(|scope| {
        for _ in 0..n {
            scope.spawn(|| slot(&queue, &run_cell));
        }
        // Moved in, so the sender drops when `body` returns, before the
        // scope joins the slots.
        let slots = slots;
        body(&slots)
    })
}

/// One slot thread: takes cells off the shared queue until it closes.
fn slot(queue: &Mutex<Receiver<SlotTask>>, run_cell: &(impl Fn(&LeasedCell) -> UnitResult + Sync)) {
    loop {
        // The guard drops at the end of this statement, so only the idle
        // slot blocked in `recv` holds the lock, never a running one.
        let task = queue.lock().expect("slot queue lock").recv();
        let Ok((leased, reply)) = task else { break };
        // `run_jobs` on one item runs it on this thread under the
        // scheduler's panic isolation: a panicking cell becomes that
        // unit's error and the slot keeps serving.  Reusing this thread's
        // pooled pipelines afterwards is safe: `simulate_in` resets each
        // one it uses before every run.
        let result = run_jobs(std::slice::from_ref(&leased), 1, run_cell)
            .pop()
            .expect("one result per job")
            .unwrap_or_else(|panic| UnitResult {
                unit: leased.unit,
                cached: false,
                wall_ms: 0.0,
                stats: None,
                error: Some(format!("cell panicked: {}", panic.message)),
                phases: None,
            });
        // The lease waits for every one of its units, so it is listening.
        let _ = reply.send(result);
    }
}

/// Hands every cell of one lease to the slots and returns the moment the
/// last result lands, calling `beat` once per heartbeat interval until
/// then, so a long lease cannot get the worker evicted mid-execution.
fn execute_lease(
    slots: &Sender<SlotTask>,
    lease: &Lease,
    heartbeat: Duration,
    mut beat: impl FnMut(),
) -> Vec<UnitResult> {
    let (reply, replies) = mpsc::channel();
    for leased in &lease.cells {
        slots
            .send((leased.clone(), reply.clone()))
            .expect("slot queue open while the worker runs");
    }
    drop(reply);
    let mut results = Vec::with_capacity(lease.cells.len());
    let mut next_beat = Instant::now() + heartbeat;
    while results.len() < lease.cells.len() {
        match replies.recv_timeout(next_beat.saturating_duration_since(Instant::now())) {
            Ok(result) => results.push(result),
            Err(RecvTimeoutError::Timeout) => {
                beat();
                next_beat = Instant::now() + heartbeat;
            }
            // Every slot answers each cell it takes, panics included.
            Err(RecvTimeoutError::Disconnected) => unreachable!("a slot dropped a leased cell"),
        }
    }
    // Deterministic report order regardless of which slot finished first.
    results.sort_by_key(|r| r.unit);
    results
}

/// Answers one leased cell through the engine's resolution path: the
/// local store probe, the simulation on this slot's thread (one job runs
/// on the calling thread, so the slot's pooled pipelines and decode memo
/// stay warm), and the store write-back.  Workers always profile: the
/// coordinator's aggregate CPI stack must not depend on which worker a
/// cell landed on.
fn resolve_leased(leased: &LeasedCell, store: Option<&ResultStore>) -> UnitResult {
    let out = resolve_cells(
        vec![leased.cell.clone()],
        store,
        true,
        None,
        &|_| {},
        &LocalExecutor::new(Some(1)),
    )
    .pop()
    .expect("one outcome per cell");
    let (stats, error) = match out.stats {
        Ok(stats) => (Some(stats), None),
        Err(e) => (None, Some(e.message)),
    };
    UnitResult {
        unit: leased.unit,
        cached: out.cached,
        wall_ms: out.wall.as_secs_f64() * 1e3,
        stats,
        error,
        phases: Some(out.phases),
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const BEAT: Duration = Duration::from_millis(10);

    /// A heartbeat that fails the test instead of letting a lease whose
    /// slot died wait forever.
    fn stall_guard() -> impl FnMut() {
        let start = Instant::now();
        move || assert!(start.elapsed() < Duration::from_secs(60), "lease stalled")
    }

    fn lease(units: std::ops::Range<u64>) -> Lease {
        let cell = simdsim_sweep::catalog::fig4().expand().remove(0);
        Lease {
            lease_id: units.start,
            ttl_ms: 60_000,
            cells: units
                .map(|unit| LeasedCell {
                    unit,
                    cell: cell.clone(),
                    job: None,
                    trace: None,
                })
                .collect(),
        }
    }

    fn ok(leased: &LeasedCell) -> UnitResult {
        UnitResult {
            unit: leased.unit,
            cached: false,
            wall_ms: 0.0,
            stats: None,
            error: None,
            phases: None,
        }
    }

    #[test]
    fn a_panicking_cell_fails_its_unit_and_the_slot_keeps_serving() {
        let threads = Mutex::new(HashSet::new());
        let run_cell = |leased: &LeasedCell| {
            assert_ne!(leased.unit, 2, "injected failure");
            threads
                .lock()
                .expect("threads lock")
                .insert(std::thread::current().id());
            ok(leased)
        };
        with_slots(1, run_cell, |slots| {
            let first = execute_lease(slots, &lease(0..4), BEAT, stall_guard());
            assert_eq!(
                first.iter().map(|r| r.unit).collect::<Vec<_>>(),
                [0, 1, 2, 3]
            );
            for r in &first {
                if r.unit == 2 {
                    let err = r.error.as_deref().expect("the panic is the unit's error");
                    assert!(err.starts_with("cell panicked: "), "{err}");
                    assert!(err.contains("injected failure"), "{err}");
                } else {
                    assert_eq!(r.error, None, "unit {}", r.unit);
                }
            }
            let second = execute_lease(slots, &lease(4..7), BEAT, stall_guard());
            assert_eq!(second.iter().map(|r| r.unit).collect::<Vec<_>>(), [4, 5, 6]);
            assert!(second.iter().all(|r| r.error.is_none()));
        });
        assert_eq!(
            threads.into_inner().expect("threads lock").len(),
            1,
            "one slot served both leases on one thread"
        );
    }

    /// The engine's outcome for `cell`, from a store-less `sweep::run` of
    /// `scenario` narrowed to that cell.
    fn engine_outcome(
        scenario: &simdsim_sweep::Scenario,
        cell: &simdsim_sweep::Cell,
    ) -> simdsim_sweep::CellOutcome {
        let opts = simdsim_sweep::EngineOptions::default()
            .jobs(1)
            .filter(cell.label());
        simdsim_sweep::run(scenario, &opts)
            .outcomes
            .into_iter()
            .find(|o| o.cell == *cell)
            .expect("the engine ran the cell")
    }

    #[test]
    fn a_leased_cell_is_simulated_once_then_served_from_the_local_store() {
        let dir = std::env::temp_dir().join(format!("simdsim-worker-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::new(&dir);
        let leased = lease(0..1).cells.remove(0);
        let expected = engine_outcome(&simdsim_sweep::catalog::fig4(), &leased.cell)
            .stats
            .expect("the fig4 cell simulates");

        let first = resolve_leased(&leased, Some(&store));
        assert!(!first.cached);
        assert_eq!(first.error, None);
        assert_eq!(first.stats.as_ref(), Some(&expected));
        assert!(first.wall_ms > 0.0);
        let phases = first.phases.expect("phases");
        assert!(phases.simulate_ms > 0.0, "{phases:?}");
        assert!(phases.store_ms > 0.0, "{phases:?}");

        let second = resolve_leased(&leased, Some(&store));
        assert!(second.cached);
        assert_eq!(second.error, None);
        assert_eq!(second.stats.as_ref(), Some(&expected));
        assert_eq!(second.wall_ms, 0.0);
        let phases = second.phases.expect("phases");
        assert!(phases.probe_ms > 0.0, "{phases:?}");
        assert_eq!(
            (phases.decode_ms, phases.simulate_ms, phases.store_ms),
            (0.0, 0.0, 0.0)
        );

        // A config the pipeline rejects fails before simulating, with the
        // engine's own message.
        let scenario = simdsim_sweep::catalog::fig4().override_axis("int_fus", [256]);
        let bad = LeasedCell {
            unit: 1,
            cell: scenario.expand().remove(0),
            job: None,
            trace: None,
        };
        let engine = engine_outcome(&scenario, &bad.cell)
            .stats
            .expect_err("the engine rejects the override");
        let result = resolve_leased(&bad, Some(&store));
        assert!(!result.cached);
        assert_eq!(result.stats, None);
        assert_eq!(result.error, Some(engine.message));
        assert_eq!(result.wall_ms, 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_lease_heartbeats_while_its_cells_run() {
        // The cell cannot finish before the third heartbeat releases it.
        let (release, released) = mpsc::channel::<()>();
        let released = Mutex::new(released);
        let run_cell = |leased: &LeasedCell| {
            released
                .lock()
                .expect("release lock")
                .recv_timeout(Duration::from_secs(60))
                .expect("the third heartbeat releases the cell");
            ok(leased)
        };
        let mut beats = 0;
        let results = with_slots(1, run_cell, |slots| {
            execute_lease(slots, &lease(0..1), BEAT, || {
                beats += 1;
                if beats == 3 {
                    release.send(()).expect("cell waiting");
                }
            })
        });
        assert_eq!(results.len(), 1);
        assert!(beats >= 3, "{beats} heartbeats");
    }
}
