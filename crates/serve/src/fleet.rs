//! The coordinator side of the worker fleet: a registry of worker
//! processes, a lease board sharding queued cells across them, and the
//! [`FleetExecutor`] that plugs the whole thing into the engine's
//! [`CellExecutor`] seam.
//!
//! The protocol is pull-based.  Workers register, then long-poll
//! `POST /v1/workers/{id}/lease` for cells; the coordinator answers with a
//! **lease** — a batch of work units with a TTL — and expects one report
//! per cell as it resolves.  Every fleet request from a worker doubles as
//! a liveness proof, and each accepted report refreshes the lease, so only
//! a single cell outrunning the TTL risks a re-queue.  A worker that stops
//! heartbeating for ~3 intervals is evicted and its leased cells go back
//! on the queue, where another worker (or the coordinator itself, once no
//! live worker remains) picks them up — the engine above never notices.
//!
//! Reports are keyed by **work-unit id**, not by lease: the first report
//! for a unit wins and any later one is a stale no-op.  The simulator is
//! deterministic, so a duplicate (a re-queued cell finishing on two
//! workers) carries bit-identical statistics and dropping it is safe.

use crate::metrics::Metrics;
use simdsim_api::{
    ApiError, ErrorCode, FleetStatus, HeartbeatResponse, Lease, LeaseRequest, LeaseResponse,
    LeasedCell, RegisterRequest, RegisterResponse, ReportRequest, ReportResponse, UnitResult,
    WorkerInfo,
};
use simdsim_obs::{Event, FlightRecorder};
use simdsim_sweep::{
    CellExecutor, CellTask, LocalExecutor, SweepError, TaskOutcome, CANCELLED_CELL_MESSAGE,
};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Heartbeat intervals a worker may miss before it is evicted and its
/// leased cells are re-queued.
pub const LIVENESS_INTERVALS: u32 = 3;

/// Upper bound on the lease long-poll, mirroring the cell-stream cap.
pub const MAX_LEASE_WAIT: Duration = Duration::from_secs(20);

/// How often a waiting executor re-checks lease expiry and worker health.
const EXECUTOR_TICK: Duration = Duration::from_millis(100);

/// The fleet's timing contract, advertised to workers at registration.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// How often workers must heartbeat (any fleet request counts).
    pub heartbeat_interval: Duration,
    /// How long a lease stays valid without a report before its cells are
    /// re-queued.
    pub lease_ttl: Duration,
    /// Hard cap on cells per lease, whatever the worker asks for.
    pub max_lease_cells: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            heartbeat_interval: Duration::from_millis(1000),
            lease_ttl: Duration::from_secs(30),
            max_lease_cells: 8,
        }
    }
}

#[derive(Debug)]
struct WorkerState {
    name: String,
    slots: u64,
    last_seen: Instant,
    leased: u64,
    completed: u64,
    /// Content-address keys known to sit in the worker's local result
    /// store: seeded from `cache_keys` at registration and grown with
    /// every result the worker reports.  Used for lease affinity.
    keys: HashSet<String>,
}

/// One unresolved cell: which batch wants it, which lease (if any) holds
/// it, the task itself, and its content-address key for lease affinity.
#[derive(Debug)]
struct OpenUnit {
    batch: u64,
    lease: Option<u64>,
    key: String,
    task: CellTask,
}

#[derive(Debug)]
struct LeaseState {
    worker: u64,
    units: Vec<u64>,
    expires: Instant,
    /// When the lease was granted — the grant→report latency observed
    /// into `simdsim_fleet_report_latency_ms` on the first report.
    granted: Instant,
}

/// One `FleetExecutor::execute` call in flight: resolved-but-undrained
/// outcomes plus the count of units still open.
#[derive(Debug, Default)]
struct BatchState {
    outcomes: Vec<TaskOutcome>,
    open: usize,
    cancelled: bool,
    /// The job this batch executes, threaded into leases and events.
    job: Option<u64>,
    /// The job's trace id, threaded into leases and events.
    trace: Option<String>,
}

#[derive(Debug, Default)]
struct FleetState {
    next_worker: u64,
    next_lease: u64,
    next_unit: u64,
    next_batch: u64,
    workers: BTreeMap<u64, WorkerState>,
    /// Unleased unit ids, dispatch order.  Re-queued units go to the
    /// front so a recovered cell is not penalised a second full queue
    /// wait.  Ids whose unit has since resolved are skipped lazily.
    pending: VecDeque<u64>,
    units: HashMap<u64, OpenUnit>,
    leases: BTreeMap<u64, LeaseState>,
    batches: HashMap<u64, BatchState>,
}

/// What [`Fleet::poll_batch`] observed for one batch.
#[derive(Debug)]
pub(crate) struct BatchPoll {
    /// Outcomes resolved since the last poll.
    pub outcomes: Vec<TaskOutcome>,
    /// Units still unresolved (including any in `local`).
    pub open: usize,
    /// Unleased tasks handed back for in-process execution because no
    /// live worker remains to lease them.
    pub local: Vec<CellTask>,
}

/// The worker registry plus the lease board, shared between the HTTP
/// handlers (register/heartbeat/lease/report) and the job executors.
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    metrics: Arc<Metrics>,
    recorder: Arc<FlightRecorder>,
    state: Mutex<FleetState>,
    /// Notified when work lands on the queue — what lease long-polls wait
    /// on.
    work_cv: Condvar,
    /// Notified when a report resolves units — what executors wait on.
    done_cv: Condvar,
}

impl Fleet {
    /// An empty fleet with the given timing contract, feeding lease and
    /// worker lifecycle events into `recorder`.
    #[must_use]
    pub fn new(cfg: FleetConfig, metrics: Arc<Metrics>, recorder: Arc<FlightRecorder>) -> Self {
        Self {
            cfg,
            metrics,
            recorder,
            state: Mutex::new(FleetState::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }
    }

    /// The fleet's timing contract.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    fn worker_ttl(&self) -> Duration {
        self.cfg.heartbeat_interval * LIVENESS_INTERVALS
    }

    /// The fleet's state, even after a panic while it was held.  The only
    /// `expect`s under this lock check facts the same critical section
    /// established just before (a unit or lease it has just looked up),
    /// so no update stops half-way on a panic of its own, and one
    /// panicking handler must not fail every later fleet request.
    /// Condvar waits on this lock recover the same way.
    fn lock(&self) -> MutexGuard<'_, FleetState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a worker and returns its id plus the cadence contract.
    pub fn register(&self, req: &RegisterRequest) -> RegisterResponse {
        let mut st = self.lock();
        self.sweep_locked(&mut st);
        st.next_worker += 1;
        let id = st.next_worker;
        st.workers.insert(
            id,
            WorkerState {
                name: req.name.clone(),
                slots: req.slots,
                last_seen: Instant::now(),
                leased: 0,
                completed: 0,
                keys: req.cache_keys.iter().cloned().collect(),
            },
        );
        drop(st);
        self.metrics
            .fleet_workers_registered
            .fetch_add(1, Ordering::Relaxed);
        self.recorder.record(
            Event::new("worker.register")
                .with_worker(id)
                .with_detail(format!("{} ({} slots)", req.name, req.slots)),
        );
        RegisterResponse {
            worker_id: id,
            heartbeat_interval_ms: self.cfg.heartbeat_interval.as_millis() as u64,
            lease_ttl_ms: self.cfg.lease_ttl.as_millis() as u64,
        }
    }

    fn unknown_worker(id: u64) -> ApiError {
        ApiError::new(
            ErrorCode::UnknownWorker,
            format!("no worker `{id}` (evicted or never registered); re-register"),
        )
    }

    /// Refreshes a worker's liveness.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownWorker`] when the id is unregistered or the
    /// worker was already evicted for missing heartbeats.
    pub fn heartbeat(&self, worker: u64) -> Result<HeartbeatResponse, ApiError> {
        let mut st = self.lock();
        self.sweep_locked(&mut st);
        let w = st
            .workers
            .get_mut(&worker)
            .ok_or_else(|| Self::unknown_worker(worker))?;
        w.last_seen = Instant::now();
        Ok(HeartbeatResponse {
            worker_id: worker,
            live_workers: st.workers.len() as u64,
        })
    }

    /// Grants a lease of up to `req.max_cells` queued cells, long-polling
    /// up to `req.wait_ms` (capped at [`MAX_LEASE_WAIT`]) when the queue
    /// is empty.  Answers `lease: null` when the budget expires dry.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownWorker`] as for [`Fleet::heartbeat`] — also
    /// mid-poll, should the worker be evicted while waiting.
    pub fn lease(&self, worker: u64, req: &LeaseRequest) -> Result<LeaseResponse, ApiError> {
        let wait = Duration::from_millis(req.wait_ms).min(MAX_LEASE_WAIT);
        let deadline = Instant::now() + wait;
        // Re-wake at least every half heartbeat interval: the open poll
        // itself is the worker's liveness proof and must keep refreshing
        // `last_seen` while it waits.
        let tick = (self.cfg.heartbeat_interval / 2).max(Duration::from_millis(10));
        let mut st = self.lock();
        loop {
            self.sweep_locked(&mut st);
            let w = st
                .workers
                .get_mut(&worker)
                .ok_or_else(|| Self::unknown_worker(worker))?;
            w.last_seen = Instant::now();
            if let Some(lease) = self.try_grant_locked(&mut st, worker, req.max_cells) {
                return Ok(LeaseResponse { lease: Some(lease) });
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(LeaseResponse { lease: None });
            }
            let (guard, _) = self
                .work_cv
                .wait_timeout(st, tick.min(deadline - now))
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    fn try_grant_locked(&self, st: &mut FleetState, worker: u64, max_cells: u64) -> Option<Lease> {
        let cap = max_cells.clamp(1, self.cfg.max_lease_cells) as usize;
        // Affinity pass: offer this worker the queued cells whose content
        // address it already caches — those resolve as cache probes, not
        // simulations.  Ids resolved or re-routed since queueing are
        // dropped lazily here, same as the dispatch-order pass below.
        let mut picked = Vec::new();
        let mut affinity = 0u64;
        if let Some(w) = st.workers.get(&worker) {
            if !w.keys.is_empty() {
                let keys = &w.keys;
                let units = &st.units;
                st.pending.retain(|&unit| {
                    let Some(open) = units.get(&unit) else {
                        return false;
                    };
                    if picked.len() < cap && keys.contains(&open.key) {
                        picked.push(unit);
                        return false;
                    }
                    true
                });
                affinity = picked.len() as u64;
            }
        }
        // Dispatch-order pass fills the remainder.
        while picked.len() < cap {
            let Some(unit) = st.pending.pop_front() else {
                break;
            };
            if st.units.contains_key(&unit) {
                picked.push(unit);
            }
        }
        let cells: Vec<LeasedCell> = picked
            .iter()
            .map(|&unit| {
                let open = st.units.get(&unit).expect("picked unit");
                let batch = st.batches.get(&open.batch);
                LeasedCell {
                    unit,
                    cell: open.task.cell.clone(),
                    job: batch.and_then(|b| b.job),
                    trace: batch.and_then(|b| b.trace.clone()),
                }
            })
            .collect();
        if cells.is_empty() {
            return None;
        }
        self.metrics
            .fleet_leases_affinity
            .fetch_add(affinity, Ordering::Relaxed);
        st.next_lease += 1;
        let lease_id = st.next_lease;
        for c in &cells {
            st.units.get_mut(&c.unit).expect("leased unit").lease = Some(lease_id);
        }
        let now = Instant::now();
        st.leases.insert(
            lease_id,
            LeaseState {
                worker,
                units: cells.iter().map(|c| c.unit).collect(),
                expires: now + self.cfg.lease_ttl,
                granted: now,
            },
        );
        let granted = cells.len() as u64;
        if let Some(w) = st.workers.get_mut(&worker) {
            w.leased += granted;
        }
        self.metrics
            .fleet_leases_granted
            .fetch_add(1, Ordering::Relaxed);
        let mut grant = Event::new("lease.grant")
            .with_trace(cells[0].trace.clone())
            .with_worker(worker)
            .with_detail(format!(
                "lease {lease_id}: {granted} cells ({affinity} affine)"
            ));
        grant.job = cells[0].job;
        self.recorder.record(grant);
        Some(Lease {
            lease_id,
            ttl_ms: self.cfg.lease_ttl.as_millis() as u64,
            cells,
        })
    }

    /// Accepts a worker's per-cell results.  Units already resolved (a
    /// duplicate report, or a re-queued cell that finished elsewhere
    /// first) count as `stale` and change nothing.  Every accepted report
    /// refreshes the lease it names.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownWorker`] as for [`Fleet::heartbeat`].
    pub fn report(&self, worker: u64, req: &ReportRequest) -> Result<ReportResponse, ApiError> {
        let mut st = self.lock();
        self.sweep_locked(&mut st);
        if !st.workers.contains_key(&worker) {
            return Err(Self::unknown_worker(worker));
        }
        // Measure grant→report latency up front: resolving the lease's
        // final unit removes the lease, so a post-resolve lookup would
        // miss exactly the reports that complete a lease.
        let grant_latency = st.leases.get(&req.lease_id).map(|l| l.granted.elapsed());
        let (mut accepted, mut stale) = (0u64, 0u64);
        let mut trace = None;
        let mut keys = Vec::new();
        for r in &req.results {
            match self.resolve_unit_locked(&mut st, r) {
                Some((t, key)) => {
                    accepted += 1;
                    trace = trace.or(t);
                    keys.push(key);
                }
                None => stale += 1,
            }
        }
        if let Some(l) = st.leases.get_mut(&req.lease_id) {
            l.expires = Instant::now() + self.cfg.lease_ttl;
        }
        if let Some(w) = st.workers.get_mut(&worker) {
            w.last_seen = Instant::now();
            w.completed += accepted;
            // Whatever a worker resolves it now caches locally, so future
            // duplicates of these cells lease back to it with affinity.
            w.keys.extend(keys);
        }
        drop(st);
        self.metrics
            .fleet_cells_reported
            .fetch_add(accepted, Ordering::Relaxed);
        self.metrics
            .fleet_reports_stale
            .fetch_add(stale, Ordering::Relaxed);
        if let Some(d) = grant_latency {
            self.metrics.fleet_report_ms.observe(d.as_secs_f64() * 1e3);
        }
        // The worker's own per-unit spans (tagged with the originating
        // trace) land in the coordinator's recorder, so one trace id
        // shows both sides of the fan-out.
        for span in &req.spans {
            let mut ev = span.clone();
            ev.worker.get_or_insert(worker);
            self.recorder.record(ev);
        }
        let mut ev = Event::new("lease.report")
            .with_trace(trace)
            .with_worker(worker)
            .with_detail(format!(
                "lease {}: {accepted} accepted, {stale} stale",
                req.lease_id
            ));
        if let Some(d) = grant_latency {
            ev = ev.with_dur_ms(d.as_secs_f64() * 1e3);
        }
        self.recorder.record(ev);
        if accepted > 0 {
            self.done_cv.notify_all();
        }
        Ok(ReportResponse { accepted, stale })
    }

    /// Resolves one reported unit into its batch.  `None` means the unit
    /// was no longer open (stale); the accepted case carries the unit's
    /// batch trace (for the caller's `lease.report` event) and its
    /// content-address key (for worker affinity tracking).
    fn resolve_unit_locked(
        &self,
        st: &mut FleetState,
        r: &UnitResult,
    ) -> Option<(Option<String>, String)> {
        let open = st.units.remove(&r.unit)?;
        if let Some(lid) = open.lease {
            if let Some(l) = st.leases.get_mut(&lid) {
                l.units.retain(|&u| u != r.unit);
                let lease_worker = l.worker;
                let empty = l.units.is_empty();
                if empty {
                    st.leases.remove(&lid);
                }
                if let Some(w) = st.workers.get_mut(&lease_worker) {
                    w.leased = w.leased.saturating_sub(1);
                }
            }
        }
        let stats = match (&r.stats, &r.error) {
            (Some(s), _) => Ok(s.clone()),
            (None, Some(e)) => Err(SweepError::new(&open.task.cell, e.clone())),
            (None, None) => Err(SweepError::new(
                &open.task.cell,
                "worker reported neither stats nor error",
            )),
        };
        let wall = if r.wall_ms.is_finite() && r.wall_ms > 0.0 {
            Duration::from_secs_f64(r.wall_ms / 1000.0)
        } else {
            Duration::ZERO
        };
        let outcome = TaskOutcome {
            index: open.task.index,
            cached: r.cached,
            stats,
            wall,
            phases: r.phases.unwrap_or_default(),
        };
        let mut trace = None;
        if let Some(b) = st.batches.get_mut(&open.batch) {
            b.outcomes.push(outcome);
            b.open = b.open.saturating_sub(1);
            trace = b.trace.clone();
        }
        Some((trace, open.key))
    }

    /// The fleet listing: every registered worker plus the queue depth.
    #[must_use]
    pub fn status(&self) -> FleetStatus {
        let mut st = self.lock();
        self.sweep_locked(&mut st);
        let now = Instant::now();
        let ttl = self.worker_ttl();
        let workers = st
            .workers
            .iter()
            .map(|(&id, w)| WorkerInfo {
                id,
                name: w.name.clone(),
                slots: w.slots,
                live: now.duration_since(w.last_seen) < ttl,
                leased: w.leased,
                completed: w.completed,
                last_seen_ms: now.duration_since(w.last_seen).as_millis() as u64,
            })
            .collect();
        FleetStatus {
            workers,
            pending_cells: Self::pending_locked(&st),
        }
    }

    fn pending_locked(st: &FleetState) -> u64 {
        st.pending
            .iter()
            .filter(|u| st.units.contains_key(u))
            .count() as u64
    }

    /// Workers currently within their liveness contract.
    #[must_use]
    pub fn live_workers(&self) -> usize {
        let mut st = self.lock();
        self.sweep_locked(&mut st);
        st.workers.len()
    }

    /// Cells queued for dispatch but not currently leased.
    #[must_use]
    pub fn pending_cells(&self) -> u64 {
        let mut st = self.lock();
        self.sweep_locked(&mut st);
        Self::pending_locked(&st)
    }

    /// Evicts workers past the liveness contract (re-queueing their
    /// leased cells) and expires overdue leases.
    fn sweep_locked(&self, st: &mut FleetState) {
        let now = Instant::now();
        let ttl = self.worker_ttl();
        let dead: Vec<u64> = st
            .workers
            .iter()
            .filter(|(_, w)| now.duration_since(w.last_seen) >= ttl)
            .map(|(&id, _)| id)
            .collect();
        for id in dead {
            st.workers.remove(&id);
            let orphaned: Vec<u64> = st
                .leases
                .iter()
                .filter(|(_, l)| l.worker == id)
                .map(|(&lid, _)| lid)
                .collect();
            let mut requeued = 0;
            for lid in orphaned {
                let lease = st.leases.remove(&lid).expect("orphaned lease");
                requeued += lease.units.len();
                self.requeue_locked(st, &lease.units);
            }
            self.metrics
                .fleet_workers_evicted
                .fetch_add(1, Ordering::Relaxed);
            self.recorder.record(
                Event::new("worker.evict")
                    .with_worker(id)
                    .with_detail(format!(
                        "missed {LIVENESS_INTERVALS} heartbeats; {requeued} leased cells requeued"
                    )),
            );
        }
        let expired: Vec<u64> = st
            .leases
            .iter()
            .filter(|(_, l)| now >= l.expires)
            .map(|(&lid, _)| lid)
            .collect();
        for lid in expired {
            let lease = st.leases.remove(&lid).expect("expired lease");
            if let Some(w) = st.workers.get_mut(&lease.worker) {
                w.leased = w.leased.saturating_sub(lease.units.len() as u64);
            }
            self.requeue_locked(st, &lease.units);
            self.metrics
                .fleet_leases_expired
                .fetch_add(1, Ordering::Relaxed);
            self.recorder.record(
                Event::new("lease.expire")
                    .with_worker(lease.worker)
                    .with_detail(format!("lease {lid}: {} cells past TTL", lease.units.len())),
            );
        }
    }

    /// Puts orphaned units back on the queue — or, for cancelled batches,
    /// resolves them as cancelled on the spot (nobody should re-run them).
    fn requeue_locked(&self, st: &mut FleetState, units: &[u64]) {
        let mut resolved = false;
        let mut requeued = false;
        for &u in units {
            let Some(open) = st.units.get(&u) else {
                continue; // already resolved by a late report
            };
            let batch = open.batch;
            if st.batches.get(&batch).is_none_or(|b| b.cancelled) {
                let open = st.units.remove(&u).expect("open unit");
                if let Some(b) = st.batches.get_mut(&batch) {
                    b.outcomes.push(cancelled_outcome(&open.task));
                    b.open = b.open.saturating_sub(1);
                    resolved = true;
                }
            } else {
                st.units.get_mut(&u).expect("open unit").lease = None;
                st.pending.push_front(u);
                requeued = true;
                self.metrics
                    .fleet_cells_requeued
                    .fetch_add(1, Ordering::Relaxed);
                let b = st.batches.get(&batch);
                let mut ev = Event::new("cell.requeue")
                    .with_trace(b.and_then(|b| b.trace.clone()))
                    .with_unit(u);
                ev.job = b.and_then(|b| b.job);
                self.recorder.record(ev);
            }
        }
        if resolved {
            self.done_cv.notify_all();
        }
        if requeued {
            self.work_cv.notify_all();
        }
    }

    /// Opens a batch: queues every task and returns the batch id the
    /// executor polls.  `job` and `trace` identify the submitting job and
    /// ride on every lease and event the batch produces.
    pub(crate) fn open_batch(
        &self,
        tasks: Vec<CellTask>,
        job: Option<u64>,
        trace: Option<String>,
    ) -> u64 {
        let mut st = self.lock();
        st.next_batch += 1;
        let batch = st.next_batch;
        let open = tasks.len();
        for task in tasks {
            st.next_unit += 1;
            let unit = st.next_unit;
            let key = simdsim_sweep::cell_key(&task.cell, &task.cfg)
                .as_str()
                .to_owned();
            st.units.insert(
                unit,
                OpenUnit {
                    batch,
                    lease: None,
                    key,
                    task,
                },
            );
            st.pending.push_back(unit);
        }
        st.batches.insert(
            batch,
            BatchState {
                outcomes: Vec::new(),
                open,
                cancelled: false,
                job,
                trace,
            },
        );
        drop(st);
        self.work_cv.notify_all();
        batch
    }

    /// Resolves every still-unleased unit of a cancelled batch as a
    /// cancelled error.  Leased units stay out: their workers run them to
    /// completion (or their leases expire), mirroring the local engine's
    /// "stop between cells, never mid-simulation" contract.
    fn cancel_batch_locked(&self, st: &mut FleetState, batch: u64) {
        let Some(b) = st.batches.get_mut(&batch) else {
            return;
        };
        if b.cancelled {
            return;
        }
        b.cancelled = true;
        let FleetState {
            pending,
            units,
            batches,
            ..
        } = st;
        let b = batches.get_mut(&batch).expect("batch");
        pending.retain(|u| {
            let mine = units.get(u).is_some_and(|o| o.batch == batch);
            if mine {
                let open = units.remove(u).expect("open unit");
                b.outcomes.push(cancelled_outcome(&open.task));
                b.open = b.open.saturating_sub(1);
            }
            !mine
        });
    }

    /// One executor poll: sweeps expiries, applies cancellation, drains
    /// resolved outcomes, and — when no live worker remains — hands back
    /// the batch's unleased tasks for in-process execution.
    pub(crate) fn poll_batch(&self, batch: u64, cancelled: bool) -> BatchPoll {
        let mut st = self.lock();
        self.sweep_locked(&mut st);
        if cancelled {
            self.cancel_batch_locked(&mut st, batch);
        }
        let mut local = Vec::new();
        if st.workers.is_empty() {
            let FleetState { pending, units, .. } = &mut *st;
            pending.retain(|u| {
                let mine = units.get(u).is_some_and(|o| o.batch == batch);
                if mine {
                    local.push(units.remove(u).expect("open unit").task);
                }
                !mine
            });
        }
        let Some(b) = st.batches.get_mut(&batch) else {
            return BatchPoll {
                outcomes: Vec::new(),
                open: 0,
                local,
            };
        };
        BatchPoll {
            outcomes: std::mem::take(&mut b.outcomes),
            open: b.open,
            local,
        }
    }

    /// Marks one locally-executed unit of `batch` resolved.
    pub(crate) fn resolve_local(&self, batch: u64) {
        let mut st = self.lock();
        if let Some(b) = st.batches.get_mut(&batch) {
            b.open = b.open.saturating_sub(1);
        }
    }

    /// Blocks until `batch` has undrained outcomes (or is done), up to
    /// `timeout`.
    pub(crate) fn wait_batch(&self, batch: u64, timeout: Duration) {
        let st = self.lock();
        let ready = st
            .batches
            .get(&batch)
            .is_none_or(|b| !b.outcomes.is_empty() || b.open == 0);
        if ready {
            return;
        }
        let _ = self
            .done_cv
            .wait_timeout(st, timeout)
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// Closes a finished batch.
    pub(crate) fn close_batch(&self, batch: u64) {
        self.lock().batches.remove(&batch);
    }
}

fn cancelled_outcome(task: &CellTask) -> TaskOutcome {
    TaskOutcome {
        index: task.index,
        cached: false,
        stats: Err(SweepError::new(&task.cell, CANCELLED_CELL_MESSAGE)),
        wall: Duration::ZERO,
        phases: Default::default(),
    }
}

/// The remote executor: cells go to the fleet's lease board and resolve
/// through worker reports.  Should the last live worker die mid-batch,
/// the orphaned cells re-queue and quietly execute in-process via
/// [`LocalExecutor`] — a job never strands on an empty fleet.
#[derive(Debug)]
pub struct FleetExecutor {
    fleet: Arc<Fleet>,
    /// Pool size for the local fallback path.
    local_jobs: Option<usize>,
    /// The submitting job's id, stamped on leases and fleet events.
    job: Option<u64>,
    /// The submitting job's trace id, stamped on leases and fleet events.
    trace: Option<String>,
}

impl FleetExecutor {
    /// An executor dispatching onto `fleet`.
    #[must_use]
    pub fn new(fleet: Arc<Fleet>, local_jobs: Option<usize>) -> Self {
        Self {
            fleet,
            local_jobs,
            job: None,
            trace: None,
        }
    }

    /// Tags everything this executor dispatches with the submitting job's
    /// id and trace, so fleet events and worker spans link back to it.
    #[must_use]
    pub fn for_job(mut self, job: u64, trace: Option<String>) -> Self {
        self.job = Some(job);
        self.trace = trace;
        self
    }
}

impl CellExecutor for FleetExecutor {
    fn execute(
        &self,
        tasks: Vec<CellTask>,
        cancel: Option<&AtomicBool>,
        done: &(dyn Fn(TaskOutcome) + Sync),
    ) {
        if tasks.is_empty() {
            return;
        }
        let batch = self.fleet.open_batch(tasks, self.job, self.trace.clone());
        loop {
            let cancelled = cancel.is_some_and(|c| c.load(Ordering::Relaxed));
            let poll = self.fleet.poll_batch(batch, cancelled);
            for out in poll.outcomes {
                done(out);
            }
            if !poll.local.is_empty() {
                LocalExecutor::new(self.local_jobs).execute(poll.local, cancel, &|out| {
                    self.fleet.resolve_local(batch);
                    done(out);
                });
                continue; // re-poll: the batch may be done now
            }
            if poll.open == 0 {
                break;
            }
            self.fleet.wait_batch(batch, EXECUTOR_TICK);
        }
        self.fleet.close_batch(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdsim_api::CellStats;
    use simdsim_isa::Ext;
    use simdsim_sweep::{resolve_cells, Cell, LocalExecutor, OverrideSet, WorkloadRef};
    use std::sync::atomic::AtomicUsize;

    fn task(index: usize) -> CellTask {
        task_way(index, 2)
    }

    fn task_way(index: usize, way: usize) -> CellTask {
        let cell = Cell {
            scenario: "t".to_owned(),
            workload: WorkloadRef::Kernel("idct".to_owned()),
            ext: Ext::Mmx64,
            way,
            overrides: OverrideSet::default(),
            instr_limit: 200_000,
        };
        let cfg = cell.config().expect("paper config");
        CellTask {
            index,
            cell,
            cfg,
            profile: true,
        }
    }

    fn fake_stats() -> CellStats {
        CellStats {
            cycles: 100,
            instrs: 200,
            ipc: 2.0,
            vector_cycles: 10,
            scalar_cycles: 90,
            branches: 5,
            mispredicts: 1,
            counts: Default::default(),
            l1: Default::default(),
            l2: Default::default(),
            memsys: Default::default(),
            profile: None,
        }
    }

    fn fast_fleet(heartbeat_ms: u64, lease_ttl_ms: u64) -> Fleet {
        Fleet::new(
            FleetConfig {
                heartbeat_interval: Duration::from_millis(heartbeat_ms),
                lease_ttl: Duration::from_millis(lease_ttl_ms),
                max_lease_cells: 8,
            },
            Arc::new(Metrics::default()),
            Arc::new(FlightRecorder::new(256)),
        )
    }

    #[test]
    fn a_poisoned_fleet_lock_keeps_serving_workers() {
        let fleet = fast_fleet(10_000, 60_000);
        std::thread::scope(|s| {
            let held = s.spawn(|| {
                let _guard = fleet.state.lock();
                panic!("a handler panics while holding the fleet lock");
            });
            assert!(held.join().is_err());
        });
        assert!(fleet.state.is_poisoned());
        let reg = fleet.register(&RegisterRequest::default());
        fleet.open_batch(vec![task(0)], None, None);
        let lease = fleet
            .lease(
                reg.worker_id,
                &LeaseRequest {
                    max_cells: 8,
                    wait_ms: 0,
                },
            )
            .expect("known worker")
            .lease
            .expect("work available");
        assert_eq!(lease.cells.len(), 1);
    }

    #[test]
    fn register_lease_report_round_trip() {
        let fleet = fast_fleet(10_000, 60_000);
        let reg = fleet.register(&RegisterRequest::default());
        assert_eq!(reg.worker_id, 1);
        assert_eq!(fleet.live_workers(), 1);

        let batch = fleet.open_batch(vec![task(0), task(1)], None, None);
        assert_eq!(fleet.pending_cells(), 2);
        let lease = fleet
            .lease(
                reg.worker_id,
                &LeaseRequest {
                    max_cells: 8,
                    wait_ms: 0,
                },
            )
            .expect("known worker")
            .lease
            .expect("work available");
        assert_eq!(lease.cells.len(), 2);
        assert_eq!(fleet.pending_cells(), 0);
        assert_eq!(fleet.status().workers[0].leased, 2);

        let results: Vec<UnitResult> = lease
            .cells
            .iter()
            .map(|c| UnitResult {
                unit: c.unit,
                cached: false,
                wall_ms: 1.0,
                stats: Some(fake_stats()),
                error: None,
                phases: None,
            })
            .collect();
        let resp = fleet
            .report(
                reg.worker_id,
                &ReportRequest {
                    lease_id: lease.lease_id,
                    results: results.clone(),
                    spans: Vec::new(),
                },
            )
            .expect("known worker");
        assert_eq!((resp.accepted, resp.stale), (2, 0));

        // A duplicate report is a stale no-op.
        let resp = fleet
            .report(
                reg.worker_id,
                &ReportRequest {
                    lease_id: lease.lease_id,
                    results,
                    spans: Vec::new(),
                },
            )
            .expect("known worker");
        assert_eq!((resp.accepted, resp.stale), (0, 2));

        let poll = fleet.poll_batch(batch, false);
        assert_eq!(poll.outcomes.len(), 2);
        assert_eq!(poll.open, 0);
        assert!(poll.local.is_empty(), "a live worker blocks local fallback");
        let info = fleet.status();
        assert_eq!(info.workers[0].leased, 0);
        assert_eq!(info.workers[0].completed, 2);
    }

    #[test]
    fn leases_prefer_workers_that_cache_the_cell() {
        let fleet = fast_fleet(10_000, 60_000);
        // The hot worker registered advertising the way-4 cell's key;
        // nothing else in the batch is in anyone's cache.
        let hot_task = task_way(3, 4);
        let key = simdsim_sweep::cell_key(&hot_task.cell, &hot_task.cfg)
            .as_str()
            .to_owned();
        let hot = fleet.register(&RegisterRequest {
            name: "hot".to_owned(),
            slots: 1,
            cache_keys: vec![key],
        });
        fleet.open_batch(
            vec![task_way(0, 2), task_way(1, 2), task_way(2, 2), hot_task],
            None,
            None,
        );
        // With one slot, dispatch order would hand the hot worker the
        // first way-2 cell; affinity steers its cached cell to it
        // instead, even though it was queued last.
        let lease = fleet
            .lease(
                hot.worker_id,
                &LeaseRequest {
                    max_cells: 1,
                    wait_ms: 0,
                },
            )
            .expect("known worker")
            .lease
            .expect("work available");
        assert_eq!(lease.cells.len(), 1);
        assert_eq!(lease.cells[0].cell.way, 4);
        let affine = |fleet: &Fleet| fleet.metrics.fleet_leases_affinity.load(Ordering::Relaxed);
        assert_eq!(affine(&fleet), 1);

        // A keyless worker falls through to plain dispatch order.
        let cold = fleet.register(&RegisterRequest::default());
        let lease = fleet
            .lease(
                cold.worker_id,
                &LeaseRequest {
                    max_cells: 8,
                    wait_ms: 0,
                },
            )
            .expect("known worker")
            .lease
            .expect("work available");
        assert_eq!(lease.cells.len(), 3);
        assert!(lease.cells.iter().all(|c| c.cell.way == 2));
        assert_eq!(affine(&fleet), 1, "no affinity credit without keys");

        // Accepted reports teach the coordinator what the cold worker
        // now caches, so a re-queued duplicate routes back to it.
        let results: Vec<UnitResult> = lease
            .cells
            .iter()
            .map(|c| UnitResult {
                unit: c.unit,
                cached: false,
                wall_ms: 1.0,
                stats: Some(fake_stats()),
                error: None,
                phases: None,
            })
            .collect();
        fleet
            .report(
                cold.worker_id,
                &ReportRequest {
                    lease_id: lease.lease_id,
                    results,
                    spans: Vec::new(),
                },
            )
            .expect("known worker");
        fleet.open_batch(vec![task_way(0, 2)], None, None);
        let lease = fleet
            .lease(
                cold.worker_id,
                &LeaseRequest {
                    max_cells: 8,
                    wait_ms: 0,
                },
            )
            .expect("known worker")
            .lease
            .expect("work available");
        assert_eq!(lease.cells.len(), 1);
        assert_eq!(affine(&fleet), 2, "learned keys earn affinity credit");
    }

    #[test]
    fn expired_leases_requeue_and_late_reports_go_stale() {
        let fleet = fast_fleet(10_000, 30);
        let reg = fleet.register(&RegisterRequest::default());
        let _batch = fleet.open_batch(vec![task(0)], None, None);
        let lease = fleet
            .lease(reg.worker_id, &LeaseRequest::default())
            .expect("known worker")
            .lease
            .expect("work");
        assert_eq!(fleet.pending_cells(), 0);
        std::thread::sleep(Duration::from_millis(60));
        // Any fleet call sweeps; the expired lease's cell is back.
        assert_eq!(fleet.pending_cells(), 1);

        // The slow worker reports after expiry: the unit is still open
        // (nobody re-leased it), so the result is accepted — work is
        // never thrown away, only re-offered.
        let resp = fleet
            .report(
                reg.worker_id,
                &ReportRequest {
                    lease_id: lease.lease_id,
                    results: vec![UnitResult {
                        unit: lease.cells[0].unit,
                        cached: false,
                        wall_ms: 1.0,
                        stats: Some(fake_stats()),
                        error: None,
                        phases: None,
                    }],
                    spans: Vec::new(),
                },
            )
            .expect("worker still live");
        assert_eq!((resp.accepted, resp.stale), (1, 0));
        assert_eq!(fleet.pending_cells(), 0, "accepted unit left the queue");
    }

    #[test]
    fn dead_workers_are_evicted_and_their_cells_requeued() {
        let fleet = fast_fleet(10, 60_000);
        let reg = fleet.register(&RegisterRequest::default());
        let _batch = fleet.open_batch(vec![task(0), task(1)], None, None);
        let lease = fleet
            .lease(
                reg.worker_id,
                &LeaseRequest {
                    max_cells: 2,
                    wait_ms: 0,
                },
            )
            .expect("known worker")
            .lease
            .expect("work");
        assert_eq!(lease.cells.len(), 2);

        // Miss 3 heartbeat intervals.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(fleet.live_workers(), 0, "silent worker evicted");
        assert_eq!(fleet.pending_cells(), 2, "its lease re-queued");
        let err = fleet.heartbeat(reg.worker_id).expect_err("evicted");
        assert_eq!(err.code, ErrorCode::UnknownWorker);
        let err = fleet
            .lease(reg.worker_id, &LeaseRequest::default())
            .expect_err("evicted");
        assert_eq!(err.code, ErrorCode::UnknownWorker);
    }

    #[test]
    fn executor_falls_back_to_local_when_no_worker_is_live() {
        let fleet = Arc::new(fast_fleet(10_000, 60_000));
        let exec = FleetExecutor::new(Arc::clone(&fleet), Some(2));
        let calls = AtomicUsize::new(0);
        exec.execute(vec![task(0), task(1)], None, &|out| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert!(out.stats.is_ok());
        });
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(fleet.pending_cells(), 0);
    }

    #[test]
    fn executor_resolves_batches_through_a_worker_thread() {
        let fleet = Arc::new(fast_fleet(10_000, 60_000));
        let reg = fleet.register(&RegisterRequest {
            name: "sim".to_owned(),
            slots: 2,
            cache_keys: Vec::new(),
        });
        // A worker loop speaking the fleet API directly: lease, simulate
        // for real, report per cell — the HTTP worker does exactly this.
        let worker_fleet = Arc::clone(&fleet);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let worker = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                let resp = worker_fleet
                    .lease(
                        reg.worker_id,
                        &LeaseRequest {
                            max_cells: 2,
                            wait_ms: 50,
                        },
                    )
                    .expect("registered");
                let Some(lease) = resp.lease else { continue };
                for c in &lease.cells {
                    let run = resolve_cells(
                        vec![c.cell.clone()],
                        None,
                        true,
                        None,
                        &|_| {},
                        &LocalExecutor::new(Some(1)),
                    )
                    .remove(0);
                    let _ = worker_fleet.report(
                        reg.worker_id,
                        &ReportRequest {
                            lease_id: lease.lease_id,
                            results: vec![UnitResult {
                                unit: c.unit,
                                cached: run.cached,
                                wall_ms: run.wall.as_secs_f64() * 1e3,
                                stats: run.stats.as_ref().ok().cloned(),
                                error: run.stats.as_ref().err().map(|e| e.message.clone()),
                                phases: Some(run.phases),
                            }],
                            spans: Vec::new(),
                        },
                    );
                }
            }
        });

        let exec = FleetExecutor::new(Arc::clone(&fleet), Some(1));
        let calls = AtomicUsize::new(0);
        exec.execute(vec![task(0), task(1), task(2)], None, &|out| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert!(out.stats.is_ok(), "{:?}", out.stats);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        stop.store(true, Ordering::Relaxed);
        worker.join().expect("worker thread");
        assert_eq!(fleet.status().workers[0].completed, 3);
    }
}
