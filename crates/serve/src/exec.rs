//! The execution half of job handling: worker threads that drain the
//! [`JobQueue`](crate::jobs::JobQueue) and drive each job through the
//! sweep engine.
//!
//! Where a job's cells actually run is decided **per job** at pop time
//! through the engine's [`CellExecutor`](simdsim_sweep::CellExecutor)
//! seam: with at least one live fleet worker registered, cells are
//! sharded across the fleet via [`FleetExecutor`]; otherwise the job runs
//! in-process exactly as it always has.  Either way the job observes the
//! same progress stream, the same store, and — the engine being
//! deterministic — bit-identical statistics.

use crate::fleet::{Fleet, FleetExecutor};
use crate::jobs::{Job, JobQueue, StartOutcome};
use crate::metrics::Metrics;
use simdsim_api::SweepResult;
use simdsim_obs::{Event, FlightRecorder};
use simdsim_sweep::{run_with_executor, run_with_progress, EngineOptions};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a job-worker thread needs to execute jobs: the engine
/// options applied to every run, the service counters, and (optionally)
/// the fleet to shard across.
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// Base engine options (store, pool size); per-job filter and cancel
    /// flag are layered on top.
    pub opts: EngineOptions,
    /// Service counters.
    pub metrics: Arc<Metrics>,
    /// The worker fleet; `None` (or an empty fleet) means every job runs
    /// in-process.
    pub fleet: Option<Arc<Fleet>>,
    /// The flight recorder job lifecycle spans land in.
    pub recorder: Arc<FlightRecorder>,
}

impl Default for ExecContext {
    fn default() -> Self {
        Self {
            opts: EngineOptions::default(),
            metrics: Arc::new(Metrics::default()),
            fleet: None,
            recorder: Arc::new(FlightRecorder::new(1024)),
        }
    }
}

/// Runs one job to completion, publishing progress and streamed cells as
/// they resolve.
pub fn run_job(job: &Job, ctx: &ExecContext) {
    match job.start() {
        StartOutcome::AlreadyTerminal => return,
        StartOutcome::CancelledNow => {
            ctx.metrics.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            return;
        }
        StartOutcome::Started => {}
    }
    let started = Instant::now();
    ctx.recorder.record(
        Event::new("job.start")
            .with_trace(job.trace.clone())
            .with_job(job.id)
            .with_detail(job.scenario.name.clone()),
    );
    let mut opts = ctx.opts.clone().cancel_flag(Arc::clone(&job.cancel));
    if let Some(f) = &job.filter {
        opts = opts.filter(f.clone());
    }
    let progress = |ev| job.publish_cell(&ev);
    // Fleet dispatch is chosen per job: a worker registering mid-run
    // serves the *next* job, and a fleet going dark mid-job falls back to
    // in-process execution inside `FleetExecutor` itself.
    let report = match ctx.fleet.as_ref().filter(|f| f.live_workers() > 0) {
        Some(fleet) => {
            let executor = FleetExecutor::new(Arc::clone(fleet), ctx.opts.jobs)
                .for_job(job.id, job.trace.clone());
            run_with_executor(&job.scenario, &opts, &progress, &executor)
        }
        None => run_with_progress(&job.scenario, &opts, &progress),
    };

    let result = SweepResult::from_report(&report);
    ctx.metrics.record_job(
        result.cached as usize,
        result.executed as usize,
        report
            .outcomes
            .iter()
            .filter(|o| !o.cached)
            .filter_map(|o| o.stats.as_ref().ok().map(|s| s.instrs))
            .sum(),
        report.simulated_wall(),
    );
    // Fold every freshly simulated cell's CPI stack into the fleet-wide
    // stall counters (`simdsim_stall_cycles_total`).  Both execution
    // paths land here, so in-process and fleet-sharded jobs are counted
    // identically.
    for stack in report
        .outcomes
        .iter()
        .filter(|o| !o.cached)
        .filter_map(|o| o.stats.as_ref().ok().and_then(|s| s.profile.as_ref()))
    {
        ctx.metrics.record_stalls(stack);
    }
    let cancelled = job.cancel.load(Ordering::Relaxed);
    let state = if cancelled {
        ctx.metrics.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
        simdsim_api::JobState::Cancelled
    } else if result.failed > 0 {
        ctx.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
        simdsim_api::JobState::Failed
    } else {
        ctx.metrics.jobs_completed.fetch_add(1, Ordering::Relaxed);
        simdsim_api::JobState::Done
    };
    ctx.recorder.record(
        Event::new("job.finish")
            .with_trace(job.trace.clone())
            .with_job(job.id)
            .with_dur_ms(started.elapsed().as_secs_f64() * 1e3)
            .with_detail(format!(
                "{state:?} ({} cells, {} cached)",
                report.outcomes.len(),
                result.cached
            )),
    );
    job.finish(state, report.outcomes.len() as u64, result);
}

/// Spawns `n` worker threads draining `queue` until shutdown.
#[must_use]
pub fn spawn_workers(
    n: usize,
    queue: &Arc<JobQueue>,
    ctx: &ExecContext,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..n.max(1))
        .map(|i| {
            let queue = Arc::clone(queue);
            let ctx = ctx.clone();
            std::thread::Builder::new()
                .name(format!("sweep-worker-{i}"))
                .spawn(move || {
                    while let Some(job) = queue.pop_blocking() {
                        run_job(&job, &ctx);
                    }
                })
                .expect("spawn sweep worker")
        })
        .collect()
}

/// Polls `job` until it reaches a terminal state, sleeping `interval`
/// between checks (test/CLI helper).
pub fn wait_finished(job: &Job, interval: Duration) {
    while !job.finished() {
        std::thread::sleep(interval);
    }
}
