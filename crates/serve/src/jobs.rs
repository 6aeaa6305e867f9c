//! The bounded asynchronous job queue between the HTTP layer and the
//! sweep engine: the **bookkeeping half** of job handling.
//!
//! A `POST /v1/sweeps` allocates a [`Job`], pushes it onto a bounded FIFO
//! and returns immediately with the job id; the **execution half** lives
//! in [`crate::exec`], whose worker threads drain the queue and drive each
//! job through the engine (in-process, or sharded across the worker fleet
//! of [`crate::fleet`]) so status polls see live per-cell progress and the
//! `?since=` cursor can stream cells while the job runs.
//!
//! Beyond the FIFO, the registry implements the v1 contract's job
//! semantics:
//!
//! * **coalescing** — an identical submission (same scenario document,
//!   same filter) arriving while a matching job is queued or running is
//!   not run again: it gets its own id aliased onto the shared job, so
//!   both ids observe one engine run;
//! * **cancellation** — queued jobs drop immediately; running jobs stop
//!   cooperatively between cells via the cancel flag threaded through the
//!   engine;
//! * **retention** — finished jobs stay addressable until evicted by the
//!   configurable count cap or TTL of [`RetentionPolicy`].

use simdsim_api::{
    CellResult, CellsPage, JobState, JobSummary, Progress, SweepResult, SweepStatus,
};
use simdsim_sweep::{fnv1a128, CpiStack, ProgressEvent, Scenario};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a job's or the queue's state, even after a panic while it was
/// held.  Every update under these locks (a field assignment, a push, a
/// map insert or removal, an id bump) leaves the state valid at each point
/// a panic could interrupt it, so one panicking handler must not fail
/// every later request that touches the same job or the queue.  Condvar
/// waits on these locks recover the same way.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long finished jobs stay addressable in the registry.
#[derive(Debug, Clone, Copy)]
pub struct RetentionPolicy {
    /// Maximum retained finished jobs; the oldest are evicted first once
    /// the registry grows past this.
    pub max_finished: usize,
    /// Optional age limit: finished jobs older than this are evicted on
    /// the next submission regardless of the count cap.
    pub ttl: Option<Duration>,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        Self {
            max_finished: 4096,
            ttl: None,
        }
    }
}

#[derive(Debug)]
struct JobInner {
    state: JobState,
    progress: Progress,
    /// Cells in completion order, appended as the engine resolves them —
    /// the backing array of the `?since=` cursor stream.
    cells: Vec<CellResult>,
    result: Option<SweepResult>,
    finished_at: Option<Instant>,
    /// Merged cycle-accounting stack over every profiled ok cell
    /// published so far — the aggregate behind
    /// `GET /v1/sweeps/{id}/profile`, maintained incrementally so a
    /// running job serves a partial aggregate without replaying cells.
    profile: CpiStack,
    /// Cells whose stacks contributed to `profile`.
    profile_cells: u64,
    /// Cells that resolved ok but carried no stack (profiling off, or
    /// results cached by a pre-profiler build).
    profile_missing: u64,
}

/// One submitted sweep, shared between the HTTP layer (status polls,
/// cell streams) and the worker running it.
#[derive(Debug)]
pub struct Job {
    /// The job's primary id, assigned at submission.  Deduplicated
    /// submissions get their own ids aliased onto the same `Job`.
    pub id: u64,
    /// The scenario to run.
    pub scenario: Scenario,
    /// Optional label filter.
    pub filter: Option<String>,
    /// The trace id this job's lifecycle events are recorded under
    /// (client-provided via `X-Simdsim-Trace-Id` or server-generated at
    /// submission).  Coalesced submissions observe the original job's
    /// trace.
    pub trace: Option<String>,
    /// Cooperative cancellation flag, shared with the engine run.
    pub cancel: Arc<AtomicBool>,
    /// Fingerprint of (scenario, filter) used for coalescing.
    coalesce_key: u128,
    inner: Mutex<JobInner>,
    /// Notified whenever a cell resolves or the job reaches a terminal
    /// state — what the `?since=` long-poll waits on.
    cells_cv: Condvar,
}

impl Job {
    /// The job's current state.
    #[must_use]
    pub fn state(&self) -> JobState {
        lock(&self.inner).state
    }

    /// The job's live progress counters.
    #[must_use]
    pub fn progress(&self) -> Progress {
        lock(&self.inner).progress
    }

    /// The finished job's result (`None` until terminal; stays `None`
    /// for jobs cancelled while queued).
    #[must_use]
    pub fn result(&self) -> Option<SweepResult> {
        lock(&self.inner).result.clone()
    }

    /// The full status document, reported under `requested_id` (an alias
    /// id observes the shared run under its own id).
    #[must_use]
    pub fn status(&self, requested_id: u64) -> SweepStatus {
        let inner = lock(&self.inner);
        SweepStatus {
            id: requested_id,
            scenario: self.scenario.name.clone(),
            filter: self.filter.clone(),
            state: inner.state,
            progress: inner.progress,
            result: inner.result.clone(),
        }
    }

    /// The listing row, reported under `requested_id`.
    #[must_use]
    pub fn summary(&self, requested_id: u64) -> JobSummary {
        let inner = lock(&self.inner);
        JobSummary {
            id: requested_id,
            scenario: self.scenario.name.clone(),
            filter: self.filter.clone(),
            state: inner.state,
            progress: inner.progress,
        }
    }

    /// One page of the per-cell stream: the cells resolved after cursor
    /// `since`, in completion order.  When no such cell exists yet and
    /// the job is still live, blocks up to `wait` for one (long-poll).
    /// A cursor beyond the end of the stream yields an empty page.
    #[must_use]
    pub fn cells_page(&self, requested_id: u64, since: u64, wait: Duration) -> CellsPage {
        let mut inner = lock(&self.inner);
        let deadline = Instant::now() + wait;
        while (inner.cells.len() as u64) <= since && !inner.state.is_terminal() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = self
                .cells_cv
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
        let len = inner.cells.len();
        let start = usize::try_from(since).map_or(len, |s| s.min(len));
        let cells: Vec<CellResult> = inner.cells[start..].to_vec();
        let next = since.max(len as u64);
        CellsPage {
            id: requested_id,
            state: inner.state,
            since,
            next,
            total: inner.progress.total,
            done: inner.state.is_terminal() && next >= len as u64,
            cells,
        }
    }

    /// The job's aggregated CPI stack so far as
    /// `(stack, contributing_cells, missing_cells)`.  The stack is `None`
    /// until at least one profiled cell resolves, so a poll on a fresh
    /// job reads "no data yet" rather than an all-zero aggregate.
    #[must_use]
    pub fn profile_aggregate(&self) -> (Option<CpiStack>, u64, u64) {
        let inner = lock(&self.inner);
        let stack = (inner.profile_cells > 0).then_some(inner.profile);
        (stack, inner.profile_cells, inner.profile_missing)
    }

    pub(crate) fn finished(&self) -> bool {
        self.state().is_terminal()
    }

    /// Age of the job's terminal state, `None` while live.
    fn finished_age(&self) -> Option<Duration> {
        lock(&self.inner).finished_at.map(|t| t.elapsed())
    }

    /// Attempts the queued→running transition for the executor.
    pub(crate) fn start(&self) -> StartOutcome {
        let mut inner = lock(&self.inner);
        if inner.state == JobState::Cancelled {
            return StartOutcome::AlreadyTerminal;
        }
        if self.cancel.load(Ordering::Relaxed) {
            // Cancelled after being popped but before starting: finish
            // the transition the canceller could not (see `cancel`).
            inner.state = JobState::Cancelled;
            inner.finished_at = Some(Instant::now());
            drop(inner);
            self.cells_cv.notify_all();
            return StartOutcome::CancelledNow;
        }
        inner.state = JobState::Running;
        StartOutcome::Started
    }

    /// Publishes one engine progress event: updates the counters and
    /// appends to the `?since=` cell stream.
    pub(crate) fn publish_cell(&self, ev: &ProgressEvent) {
        let cell = CellResult::from_progress(ev);
        let mut inner = lock(&self.inner);
        match ev.stats.as_ref().map(|s| s.profile.as_ref()) {
            Some(Some(stack)) => {
                inner.profile.merge(stack);
                inner.profile_cells += 1;
            }
            Some(None) => inner.profile_missing += 1,
            None => {} // failed cell: neither contributes nor is "missing"
        }
        inner.progress.total = ev.total as u64;
        // Events from concurrent engine workers can arrive out of counter
        // order; keep the published count monotonic for pollers.
        inner.progress.completed = inner.progress.completed.max(ev.completed as u64);
        if ev.cached {
            inner.progress.cached += 1;
        }
        inner.cells.push(cell);
        drop(inner);
        self.cells_cv.notify_all();
    }

    /// Moves the job to its terminal state with its result, waking every
    /// streamer.  `total` is the authoritative cell count (a zero-cell
    /// sweep never fires a progress event, so progress mirrors it here).
    pub(crate) fn finish(&self, state: JobState, total: u64, result: SweepResult) {
        let mut inner = lock(&self.inner);
        inner.state = state;
        inner.progress.total = total;
        inner.progress.completed = total;
        inner.result = Some(result);
        inner.finished_at = Some(Instant::now());
        drop(inner);
        self.cells_cv.notify_all();
    }
}

/// What [`Job::start`] achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StartOutcome {
    /// The job is now running.
    Started,
    /// The job was cancelled between pop and start; this call performed
    /// the terminal transition (the caller owns the metrics tally).
    CancelledNow,
    /// The job was already terminal; nothing to do.
    AlreadyTerminal,
}

/// Fingerprints a submission for coalescing: the full scenario document
/// plus the filter, hashed with the same stable FNV the result store uses.
fn coalesce_key(scenario: &Scenario, filter: Option<&str>) -> u128 {
    let doc =
        serde_json::to_string(&(scenario, filter.map(str::to_owned))).expect("scenario serializes");
    fnv1a128(doc.as_bytes())
}

/// One registered submission id.  Alias ids of coalesced submissions
/// hold the same `Arc<Job>`; cancellation is tracked **per id**, so one
/// submitter bowing out never kills the run other ids still observe.
#[derive(Debug)]
struct Registered {
    job: Arc<Job>,
    /// This id was individually cancelled (detached).  The shared engine
    /// run stops only when its *last* live id cancels.
    cancelled: bool,
}

#[derive(Debug, Default)]
struct QueueState {
    next_id: u64,
    queue: VecDeque<Arc<Job>>,
    /// Every live id; alias ids of coalesced submissions map to the same
    /// `Arc<Job>`.  `BTreeMap` so eviction scans oldest-first.
    jobs: BTreeMap<u64, Registered>,
}

/// The submission was rejected because the queue is at capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueFull {
    /// The configured queue capacity.
    pub capacity: usize,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job queue full ({} queued)", self.capacity)
    }
}

impl std::error::Error for QueueFull {}

/// An accepted submission: the id to report, the job backing it, and
/// whether the submission was coalesced onto an existing run.
#[derive(Debug, Clone)]
pub struct Submission {
    /// The id this submission observes the job under.
    pub id: u64,
    /// The backing job (shared when `deduped`).
    pub job: Arc<Job>,
    /// `true` when no new engine run was queued.
    pub deduped: bool,
}

/// What a cancellation request achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued and is now terminally cancelled.
    Cancelled,
    /// The job is running; the flag is set and the run will stop
    /// cooperatively between cells.
    Cancelling,
    /// The job already reached the contained terminal state.
    AlreadyFinished(JobState),
}

/// The bounded job queue plus the registry of live jobs.
#[derive(Debug)]
pub struct JobQueue {
    capacity: usize,
    retention: RetentionPolicy,
    state: Mutex<QueueState>,
    available: Condvar,
    shutdown: AtomicBool,
}

impl JobQueue {
    /// An empty queue admitting at most `capacity` queued jobs, with the
    /// default retention policy.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_retention(capacity, RetentionPolicy::default())
    }

    /// An empty queue with an explicit retention policy.
    #[must_use]
    pub fn with_retention(capacity: usize, retention: RetentionPolicy) -> Self {
        Self {
            capacity: capacity.max(1),
            retention: RetentionPolicy {
                max_finished: retention.max_finished.max(1),
                ttl: retention.ttl,
            },
            state: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queued (not yet running) jobs.
    #[must_use]
    pub fn depth(&self) -> usize {
        lock(&self.state).queue.len()
    }

    /// Enqueues a sweep and returns its submission, coalescing onto an
    /// identical queued/running job when one exists (the engine is
    /// deterministic and results are content-addressed, so the shared
    /// run's outcome is exactly what a second run would produce).
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when `capacity` jobs are already queued.
    pub fn submit(
        &self,
        scenario: Scenario,
        filter: Option<String>,
        trace: Option<String>,
    ) -> Result<Submission, QueueFull> {
        let key = coalesce_key(&scenario, filter.as_deref());
        let mut st = lock(&self.state);

        // Coalesce: an identical submission rides an in-flight job.  The
        // key compare comes first so the per-job state lock is only taken
        // for actual fingerprint matches.
        let shared = st.jobs.values().find(|r| {
            r.job.coalesce_key == key
                && !r.job.cancel.load(Ordering::Relaxed)
                && matches!(r.job.state(), JobState::Queued | JobState::Running)
        });
        if let Some(job) = shared.map(|r| Arc::clone(&r.job)) {
            st.next_id += 1;
            let id = st.next_id;
            st.jobs.insert(
                id,
                Registered {
                    job: Arc::clone(&job),
                    cancelled: false,
                },
            );
            return Ok(Submission {
                id,
                job,
                deduped: true,
            });
        }

        if st.queue.len() >= self.capacity {
            return Err(QueueFull {
                capacity: self.capacity,
            });
        }
        st.next_id += 1;
        let job = Arc::new(Job {
            id: st.next_id,
            scenario,
            filter,
            trace,
            cancel: Arc::new(AtomicBool::new(false)),
            coalesce_key: key,
            inner: Mutex::new(JobInner {
                state: JobState::Queued,
                progress: Progress::default(),
                cells: Vec::new(),
                result: None,
                finished_at: None,
                profile: CpiStack::default(),
                profile_cells: 0,
                profile_missing: 0,
            }),
            cells_cv: Condvar::new(),
        });
        st.queue.push_back(Arc::clone(&job));
        st.jobs.insert(
            job.id,
            Registered {
                job: Arc::clone(&job),
                cancelled: false,
            },
        );
        self.evict_locked(&mut st);
        drop(st);
        self.available.notify_one();
        Ok(Submission {
            id: job.id,
            deduped: false,
            job,
        })
    }

    /// Applies the retention policy in one pass per rule: TTL first, then
    /// the count cap (oldest evictable ids first).  An id is evictable
    /// once its submission is over — the job reached a terminal state or
    /// the id was individually cancelled — so a live submission can
    /// always be polled.
    fn evict_locked(&self, st: &mut QueueState) {
        if let Some(ttl) = self.retention.ttl {
            st.jobs
                .retain(|_, r| r.job.finished_age().is_none_or(|age| age <= ttl));
        }
        let evictable: Vec<u64> = st
            .jobs
            .iter()
            .filter(|(_, r)| r.cancelled || r.job.finished())
            .map(|(&id, _)| id)
            .collect();
        if evictable.len() > self.retention.max_finished {
            for id in &evictable[..evictable.len() - self.retention.max_finished] {
                st.jobs.remove(id);
            }
        }
    }

    /// Looks a job up by id (queued, running or finished-and-retained),
    /// including alias ids of coalesced submissions.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.lookup(id).map(|(job, _)| job)
    }

    /// Like [`JobQueue::get`], also reporting whether this particular id
    /// was individually cancelled (a detached coalesced submission).
    #[must_use]
    pub fn lookup(&self, id: u64) -> Option<(Arc<Job>, bool)> {
        lock(&self.state)
            .jobs
            .get(&id)
            .map(|r| (Arc::clone(&r.job), r.cancelled))
    }

    /// The status document for `id`, with the per-id cancellation
    /// override applied: a detached submission reports `cancelled` with
    /// no result, whatever the shared run went on to do.
    #[must_use]
    pub fn status_for(&self, id: u64) -> Option<SweepStatus> {
        let (job, cancelled) = self.lookup(id)?;
        let mut status = job.status(id);
        if cancelled {
            status.state = JobState::Cancelled;
            status.result = None;
        }
        Some(status)
    }

    /// Every known `(id, job, id_cancelled)` triple, newest id first.
    #[must_use]
    pub fn list(&self) -> Vec<(u64, Arc<Job>, bool)> {
        lock(&self.state)
            .jobs
            .iter()
            .rev()
            .map(|(&id, r)| (id, Arc::clone(&r.job), r.cancelled))
            .collect()
    }

    /// Cancels submission `id`.  Cancellation is per id: a coalesced
    /// submission detaches without disturbing the ids still observing the
    /// shared run, and the run itself stops only when its **last** live
    /// id cancels — queued jobs then leave the queue immediately, running
    /// jobs stop cooperatively between cells.
    ///
    /// Returns `None` for unknown ids.
    #[must_use]
    pub fn cancel(&self, id: u64) -> Option<(Arc<Job>, CancelOutcome)> {
        let mut st = lock(&self.state);
        let entry = st.jobs.get(&id)?;
        if entry.cancelled {
            let job = Arc::clone(&entry.job);
            return Some((job, CancelOutcome::AlreadyFinished(JobState::Cancelled)));
        }
        let job = Arc::clone(&entry.job);
        let state = job.state();
        if state.is_terminal() {
            return Some((job, CancelOutcome::AlreadyFinished(state)));
        }
        let others_live = st
            .jobs
            .iter()
            .any(|(&other, r)| other != id && !r.cancelled && Arc::ptr_eq(&r.job, &job));
        if others_live {
            // Other submissions still observe the run: detach this id
            // only.  (Its status now reads `cancelled` via `status_for`.)
            st.jobs.get_mut(&id).expect("entry present").cancelled = true;
            drop(st);
            return Some((job, CancelOutcome::Cancelled));
        }

        // Last live observer: stop the run itself.  The job's own state
        // carries the cancellation from here, so the id entry stays
        // undetached and keeps reporting the run's (partial) result.
        let mut inner = lock(&job.inner);
        let outcome = match inner.state {
            JobState::Queued => {
                job.cancel.store(true, Ordering::Relaxed);
                // The worker may have popped the job already without
                // having marked it running; the flag covers that race
                // (run_job checks it before starting the engine).
                st.queue.retain(|j| j.id != job.id);
                inner.state = JobState::Cancelled;
                inner.finished_at = Some(Instant::now());
                CancelOutcome::Cancelled
            }
            JobState::Running => {
                job.cancel.store(true, Ordering::Relaxed);
                CancelOutcome::Cancelling
            }
            state => CancelOutcome::AlreadyFinished(state),
        };
        drop(inner);
        job.cells_cv.notify_all();
        drop(st);
        Some((job, outcome))
    }

    /// Blocks until a job is available or the queue shuts down (`None`).
    #[must_use]
    pub fn pop_blocking(&self) -> Option<Arc<Job>> {
        let mut st = lock(&self.state);
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            if let Some(job) = st.queue.pop_front() {
                // A job cancelled between enqueue and pop is already
                // terminal; skip it rather than waking the engine.
                if job.state() == JobState::Cancelled {
                    continue;
                }
                return Some(job);
            }
            st = self
                .available
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wakes every blocked worker and makes further pops return `None`.
    pub fn shut_down(&self) {
        // Flag and notify under the state lock: a worker between its
        // shutdown check and its `wait` would otherwise miss this
        // notification and sleep forever (the classic lost wake-up).
        let _guard = lock(&self.state);
        self.shutdown.store(true, Ordering::Release);
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_job, spawn_workers, ExecContext};
    use simdsim_sweep::Scenario;

    fn tiny_scenario() -> Scenario {
        // No exts/ways axes → zero cells, so queue tests never simulate.
        Scenario::new("t", "queue test").kernels(["idct"])
    }

    /// Distinctly-named zero-cell scenarios (dodges coalescing).
    fn distinct_scenario(tag: &str) -> Scenario {
        Scenario::new(tag, "queue test").kernels(["idct"])
    }

    #[test]
    fn capacity_is_enforced_and_ids_are_monotonic() {
        let q = JobQueue::new(2);
        let a = q.submit(distinct_scenario("a"), None, None).expect("fits");
        let b = q.submit(distinct_scenario("b"), None, None).expect("fits");
        assert!(b.id > a.id);
        let err = q
            .submit(distinct_scenario("c"), None, None)
            .expect_err("full");
        assert_eq!(err.capacity, 2);
        assert_eq!(q.depth(), 2);
        // Draining makes room again.
        assert_eq!(q.pop_blocking().expect("job").id, a.id);
        q.submit(distinct_scenario("d"), None, None)
            .expect("fits after pop");
    }

    #[test]
    fn identical_queued_submissions_coalesce_onto_one_job() {
        let q = JobQueue::new(8);
        let first = q.submit(tiny_scenario(), None, None).expect("fits");
        assert!(!first.deduped);
        let dup = q.submit(tiny_scenario(), None, None).expect("fits");
        assert!(dup.deduped);
        assert!(dup.id > first.id);
        assert!(Arc::ptr_eq(&dup.job, &first.job));
        // One engine run queued, both ids resolvable.
        assert_eq!(q.depth(), 1);
        assert!(q.get(first.id).is_some());
        assert!(q.get(dup.id).is_some());

        // A different filter is a different submission.
        let other = q
            .submit(tiny_scenario(), Some("/idct/".to_owned()), None)
            .expect("fits");
        assert!(!other.deduped);

        // Once the job finishes, identical submissions queue a fresh run.
        run_job(&q.pop_blocking().expect("job"), &ExecContext::default());
        let fresh = q.submit(tiny_scenario(), None, None).expect("fits");
        assert!(!fresh.deduped);
    }

    #[test]
    fn jobs_stay_addressable_after_finishing() {
        let q = JobQueue::new(8);
        let sub = q.submit(tiny_scenario(), None, None).expect("fits");
        let popped = q.pop_blocking().expect("job");
        run_job(&popped, &ExecContext::default());
        let fetched = q.get(sub.id).expect("retained");
        assert_eq!(fetched.state(), JobState::Done);
        let result = fetched.result().expect("has result");
        assert_eq!(result.cells.len(), 0); // no exts/ways axes → no cells
        assert!(q.get(sub.id + 1000).is_none());
    }

    #[test]
    fn retention_cap_evicts_oldest_finished_jobs() {
        let q = JobQueue::with_retention(
            8,
            RetentionPolicy {
                max_finished: 2,
                ttl: None,
            },
        );
        let ctx = ExecContext::default();
        let mut ids = Vec::new();
        for tag in ["a", "b", "c", "d"] {
            let sub = q.submit(distinct_scenario(tag), None, None).expect("fits");
            ids.push(sub.id);
            run_job(&q.pop_blocking().expect("job"), &ctx);
        }
        // The eviction runs on submit; push one more to trigger it.
        let live = q.submit(distinct_scenario("e"), None, None).expect("fits");
        assert!(q.get(ids[0]).is_none(), "oldest finished job evicted");
        assert!(q.get(ids[1]).is_none(), "second-oldest evicted");
        assert!(q.get(ids[2]).is_some());
        assert!(q.get(ids[3]).is_some());
        assert!(q.get(live.id).is_some(), "live jobs are never evicted");
    }

    #[test]
    fn retention_ttl_evicts_expired_jobs() {
        let q = JobQueue::with_retention(
            8,
            RetentionPolicy {
                max_finished: 100,
                ttl: Some(Duration::ZERO),
            },
        );
        let sub = q
            .submit(distinct_scenario("old"), None, None)
            .expect("fits");
        run_job(&q.pop_blocking().expect("job"), &ExecContext::default());
        std::thread::sleep(Duration::from_millis(5));
        let _ = q
            .submit(distinct_scenario("new"), None, None)
            .expect("fits");
        assert!(q.get(sub.id).is_none(), "expired job evicted");
    }

    #[test]
    fn cancelling_a_queued_job_drops_it_before_it_runs() {
        let q = JobQueue::new(8);
        let sub = q.submit(distinct_scenario("x"), None, None).expect("fits");
        let (job, outcome) = q.cancel(sub.id).expect("known id");
        assert_eq!(outcome, CancelOutcome::Cancelled);
        assert_eq!(job.state(), JobState::Cancelled);
        assert_eq!(q.depth(), 0, "cancelled job left the queue");
        assert!(job.result().is_none(), "never ran, no result");

        // Cancelling again is a conflict.
        let (_, outcome) = q.cancel(sub.id).expect("still addressable");
        assert_eq!(outcome, CancelOutcome::AlreadyFinished(JobState::Cancelled));
        assert!(q.cancel(sub.id + 99).is_none(), "unknown id");
    }

    #[test]
    fn cancelling_an_alias_detaches_without_stopping_the_shared_run() {
        let q = JobQueue::new(8);
        let first = q.submit(tiny_scenario(), None, None).expect("fits");
        let dup = q.submit(tiny_scenario(), None, None).expect("fits");
        assert!(dup.deduped);

        // The duplicate bows out: its id reads cancelled, the shared run
        // is untouched and still queued for the first submitter.
        let (_, outcome) = q.cancel(dup.id).expect("known id");
        assert_eq!(outcome, CancelOutcome::Cancelled);
        assert_eq!(
            q.status_for(dup.id).expect("alias status").state,
            JobState::Cancelled
        );
        assert!(!first.job.cancel.load(Ordering::Relaxed));
        assert_eq!(first.job.state(), JobState::Queued);
        assert_eq!(q.depth(), 1);

        // Cancelling the detached id again is a conflict.
        let (_, outcome) = q.cancel(dup.id).expect("still addressable");
        assert_eq!(outcome, CancelOutcome::AlreadyFinished(JobState::Cancelled));

        // The run still completes for the first submitter...
        run_job(&q.pop_blocking().expect("job"), &ExecContext::default());
        assert_eq!(
            q.status_for(first.id).expect("status").state,
            JobState::Done
        );
        // ...and the detached id stays terminally cancelled, result-free.
        let alias = q.status_for(dup.id).expect("alias status");
        assert_eq!(alias.state, JobState::Cancelled);
        assert!(alias.result.is_none());

        // Cancelling the last live id stops the run itself.
        let solo = q
            .submit(distinct_scenario("solo"), None, None)
            .expect("fits");
        let also = q
            .submit(distinct_scenario("solo"), None, None)
            .expect("fits");
        assert!(also.deduped);
        let (_, outcome) = q.cancel(solo.id).expect("detach first");
        assert_eq!(outcome, CancelOutcome::Cancelled);
        assert_eq!(solo.job.state(), JobState::Queued, "one observer left");
        let (_, outcome) = q.cancel(also.id).expect("last observer");
        assert_eq!(outcome, CancelOutcome::Cancelled);
        assert_eq!(solo.job.state(), JobState::Cancelled, "run stopped");
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn shutdown_unblocks_workers() {
        let q = Arc::new(JobQueue::new(4));
        let handles = spawn_workers(2, &q, &ExecContext::default());
        q.shut_down();
        for h in handles {
            h.join().expect("worker exits");
        }
    }

    #[test]
    fn run_job_reports_per_cell_failures() {
        let scenario = Scenario::new("bad", "unknown kernel")
            .kernels(["no-such-kernel"])
            .exts([simdsim_isa::Ext::Mmx64])
            .ways([2]);
        let q = JobQueue::new(1);
        let sub = q.submit(scenario, None, None).expect("fits");
        let ctx = ExecContext::default();
        run_job(&q.pop_blocking().expect("job"), &ctx);
        assert_eq!(sub.job.state(), JobState::Failed);
        let result = sub.job.result().expect("result");
        assert_eq!(result.failed, 1);
        assert!(result.cells[0]
            .error
            .as_deref()
            .expect("error")
            .contains("no-such-kernel"));
        assert_eq!(ctx.metrics.jobs_failed.load(Ordering::Relaxed), 1);
        // The failed cell also streamed through the cursor.
        let page = sub.job.cells_page(sub.id, 0, Duration::ZERO);
        assert_eq!(page.cells.len(), 1);
        assert!(page.done);
        assert_eq!(page.next, 1);
    }

    /// Panics on a thread of its own while holding `m`, poisoning it.
    fn poison<T: Send>(m: &Mutex<T>) {
        std::thread::scope(|s| {
            let held = s.spawn(|| {
                let _guard = m.lock();
                panic!("a handler panics while holding the lock");
            });
            assert!(held.join().is_err());
        });
        assert!(m.is_poisoned());
    }

    #[test]
    fn a_poisoned_queue_lock_still_runs_the_next_sweep() {
        let q = Arc::new(JobQueue::new(4));
        poison(&q.state);
        let workers = spawn_workers(1, &q, &ExecContext::default());
        let scenario = Scenario::new("after-poison", "one cell")
            .kernels(["idct"])
            .exts([simdsim_isa::Ext::Mmx64])
            .ways([2]);
        let sub = q.submit(scenario, None, None).expect("fits");
        let deadline = Instant::now() + Duration::from_secs(120);
        while !sub.job.finished() && Instant::now() < deadline {
            let _ = sub.job.cells_page(sub.id, 1, Duration::from_millis(100));
        }
        assert_eq!(sub.job.state(), JobState::Done);
        assert_eq!(sub.job.result().expect("result").cells.len(), 1);

        // A poisoned job lock still serves the finished job's status.
        poison(&sub.job.inner);
        let status = q.status_for(sub.id).expect("retained");
        assert_eq!(status.state, JobState::Done);
        q.shut_down();
        for w in workers {
            w.join().expect("worker exits");
        }
    }

    #[test]
    fn cells_page_beyond_the_end_is_empty_not_an_error() {
        let q = JobQueue::new(1);
        let sub = q.submit(tiny_scenario(), None, None).expect("fits");
        run_job(&q.pop_blocking().expect("job"), &ExecContext::default());
        let page = sub.job.cells_page(sub.id, 999, Duration::ZERO);
        assert!(page.cells.is_empty());
        assert_eq!(page.since, 999);
        assert_eq!(page.next, 999);
        assert!(page.done);
    }
}
