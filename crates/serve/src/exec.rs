//! The execution half of job handling: worker threads that drain the
//! [`JobQueue`](crate::jobs::JobQueue) and drive each job through the
//! sweep engine.
//!
//! Every job runs through the engine's
//! [`CellExecutor`](simdsim_sweep::CellExecutor) seam as a
//! [`FleetExecutor`]: its cells go onto the fleet's lease board, and
//! whenever no worker is live the executor hands the unleased ones to the
//! in-process pool.  That one decision, made in `Fleet::poll_batch`,
//! covers both an empty fleet and one that goes dark mid-job.  Either way the job observes the same progress stream,
//! the same store, and — the engine being deterministic — bit-identical
//! statistics.

use crate::fleet::{Fleet, FleetConfig, FleetExecutor};
use crate::jobs::{Job, JobQueue, StartOutcome};
use crate::metrics::Metrics;
use simdsim_api::SweepResult;
use simdsim_obs::{Event, FlightRecorder};
use simdsim_sweep::{run_with_executor, EngineOptions};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Everything a job-worker thread needs to execute jobs: the engine
/// options applied to every run, the service counters, and the fleet to
/// shard across.
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// Base engine options (store, pool size); per-job filter and cancel
    /// flag are layered on top.
    pub opts: EngineOptions,
    /// Service counters.
    pub metrics: Arc<Metrics>,
    /// The worker fleet; while it has no live worker, jobs run in-process.
    pub fleet: Arc<Fleet>,
    /// The flight recorder job lifecycle spans land in.
    pub recorder: Arc<FlightRecorder>,
}

impl Default for ExecContext {
    /// In-process execution: an empty fleet, fresh counters and recorder.
    fn default() -> Self {
        let metrics = Arc::new(Metrics::default());
        let recorder = Arc::new(FlightRecorder::new(1024));
        Self {
            opts: EngineOptions::default(),
            fleet: Arc::new(Fleet::new(
                FleetConfig::default(),
                Arc::clone(&metrics),
                Arc::clone(&recorder),
            )),
            metrics,
            recorder,
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
    let executor = FleetExecutor::new(Arc::clone(&ctx.fleet), ctx.opts.jobs)
        .for_job(job.id, job.trace.clone());
    let report = run_with_executor(&job.scenario, &opts, &progress, &executor);

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
    // stall counters (`simdsim_stall_cycles_total`), whether the cell ran
    // in-process or on a worker.
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
