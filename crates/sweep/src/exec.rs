//! The executor seam: *what* to simulate (a batch of [`CellTask`]s) is
//! separated from *where* it runs.
//!
//! [`resolve_cells`](crate::engine::resolve_cells) hands the cells the
//! store cannot serve to a [`CellExecutor`] and consumes
//! [`TaskOutcome`]s as they resolve.  [`LocalExecutor`] is the in-process
//! implementation on the work-stealing pool; it times cells that share a
//! trace on one emulation, and every cell's statistics are byte-for-byte
//! those of a run of its own.  The serving layer provides a remote
//! implementation that leases the same tasks to registered worker
//! processes, which is how one job is satisfied transparently by local
//! threads or by a fleet.

use crate::engine::{exec_run, CellPhases, CellStats, SweepError, CANCELLED_CELL_MESSAGE};
use crate::scenario::Cell;
use crate::scheduler;
use simdsim_pipe::PipeConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// One cell the engine wants simulated: its position in the filtered
/// expansion order, the cell itself and its fully resolved configuration.
#[derive(Debug, Clone)]
pub struct CellTask {
    /// Position in the (filtered) expansion order.
    pub index: usize,
    /// The cell to simulate.
    pub cell: Cell,
    /// The cell's resolved processor configuration.
    pub cfg: PipeConfig,
    /// Whether the simulation should carry cycle accounting
    /// ([`CellStats::profile`]).
    pub profile: bool,
}

/// The resolution of one [`CellTask`], delivered through the `done`
/// callback of [`CellExecutor::execute`].
#[derive(Debug, Clone)]
pub struct TaskOutcome {
    /// The task's `index`.
    pub index: usize,
    /// `true` when the result came from a cache tier rather than a fresh
    /// simulation (e.g. a remote worker's local store).
    pub cached: bool,
    /// The statistics, or the per-cell failure.
    pub stats: Result<CellStats, SweepError>,
    /// Wall-clock simulation time: zero for cached cells and for cells
    /// that never ran (cancelled, or their job panicked); a cell whose
    /// build or emulation failed keeps its share of the run's time.
    pub wall: Duration,
    /// Breakdown of where the executor spent that time (a remote
    /// executor reports the worker-measured phases here).
    pub phases: CellPhases,
}

/// Where a batch of cells executes.
///
/// Contract: `execute` calls `done` **exactly once per task** (in any
/// order, possibly concurrently) and returns only after every task has
/// resolved.  When `cancel` is set, tasks that have not started may
/// resolve as [`CANCELLED_CELL_MESSAGE`] errors instead of simulating.
pub trait CellExecutor: Sync {
    /// Executes `tasks`, delivering each resolution through `done`.
    fn execute(
        &self,
        tasks: Vec<CellTask>,
        cancel: Option<&AtomicBool>,
        done: &(dyn Fn(TaskOutcome) + Sync),
    );
}

/// The in-process executor: cells run on the crate's work-stealing pool
/// with per-job panic isolation.  Cells that share a trace (the same
/// workload, extension, instruction budget and profiling flag) are
/// grouped in expansion order and each run of at most `FAN_WIDTH` of
/// them is one job: the workload is built, decoded and emulated once and
/// timed on every cell's configuration.  Runs are narrowed when there
/// would be fewer of them than pool workers.
#[derive(Debug, Clone, Default)]
pub struct LocalExecutor {
    /// Worker-pool size; `None` uses the available parallelism.
    pub jobs: Option<usize>,
}

impl LocalExecutor {
    /// An executor with a fixed (or default, when `None`) pool size.
    #[must_use]
    pub fn new(jobs: Option<usize>) -> Self {
        Self { jobs }
    }
}

/// Most cells one emulation is timed on.  Three is Fig. 5's width axis,
/// so the paper grid groups whole; each live pipeline holds about 0.4 MB
/// (its resource ring, cache tag arrays and touched store-line pages), so
/// wider runs cost memory for little more speed.
const FAN_WIDTH: usize = 3;

/// `true` when `a` and `b` produce the same dynamic trace.
fn shares_trace(a: &CellTask, b: &CellTask) -> bool {
    a.cell.workload == b.cell.workload
        && a.cell.ext == b.cell.ext
        && a.cell.instr_limit == b.cell.instr_limit
        && a.profile == b.profile
}

/// Groups `tasks` by trace in order of first appearance, keeping
/// expansion order within a group, and splits each group into runs of at
/// most [`FAN_WIDTH`] cells.  Runs are narrowed (down to one cell) while
/// they would number fewer than the `workers` that could take them, so
/// grouping never leaves a worker idle that running each cell alone
/// would have kept busy.
fn runs(tasks: Vec<CellTask>, workers: usize) -> Vec<Vec<CellTask>> {
    let busy = workers.min(tasks.len());
    let mut groups: Vec<Vec<CellTask>> = Vec::new();
    for task in tasks {
        match groups.iter_mut().find(|g| shares_trace(&g[0], &task)) {
            Some(group) => group.push(task),
            None => groups.push(vec![task]),
        }
    }
    let count = |width: usize| {
        groups
            .iter()
            .map(|g| g.len().div_ceil(width))
            .sum::<usize>()
    };
    let width = (1..=FAN_WIDTH)
        .rev()
        .find(|&width| count(width) >= busy)
        .unwrap_or(1);
    groups
        .iter()
        .flat_map(|group| group.chunks(width).map(<[CellTask]>::to_vec))
        .collect()
}

impl CellExecutor for LocalExecutor {
    fn execute(
        &self,
        tasks: Vec<CellTask>,
        cancel: Option<&AtomicBool>,
        done: &(dyn Fn(TaskOutcome) + Sync),
    ) {
        let workers = self.jobs.unwrap_or_else(scheduler::default_workers);
        let runs = runs(tasks, workers);
        let failed = |task: &CellTask, message: &str| TaskOutcome {
            index: task.index,
            cached: false,
            stats: Err(SweepError::new(&task.cell, message)),
            wall: Duration::ZERO,
            phases: CellPhases::default(),
        };
        let results = scheduler::run_jobs(&runs, workers, |run| {
            // Cooperative cancellation: runs that have not started when
            // the flag goes up resolve as errors instead of simulating.
            if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                for task in run {
                    done(failed(task, CANCELLED_CELL_MESSAGE));
                }
                return;
            }
            for out in exec_run(run) {
                done(out);
            }
        });
        // A panicked job never reached its `done` calls; resolve its cells
        // here so the executor honours the once-per-task contract.
        for (run, result) in runs.iter().zip(results) {
            if let Err(panic) = result {
                for task in run {
                    done(failed(task, &panic.to_string()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{OverrideSet, WorkloadRef};
    use simdsim_isa::Ext;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    fn cell(kernel: &str, way: usize, instr_limit: u64) -> Cell {
        Cell {
            scenario: "x".to_owned(),
            workload: WorkloadRef::Kernel(kernel.to_owned()),
            ext: Ext::Mmx64,
            way,
            overrides: OverrideSet::default(),
            instr_limit,
        }
    }

    fn task(index: usize) -> CellTask {
        task_of(index, cell("idct", 2, 200_000))
    }

    fn task_of(index: usize, cell: Cell) -> CellTask {
        let cfg = cell.config().expect("paper config");
        CellTask {
            index,
            cell,
            cfg,
            profile: true,
        }
    }

    /// Four cells sharing one trace (two runs: `FAN_WIDTH` plus one).
    fn one_trace(kernel: &str, instr_limit: u64) -> Vec<CellTask> {
        [2, 4, 8, 2]
            .into_iter()
            .enumerate()
            .map(|(i, way)| task_of(i, cell(kernel, way, instr_limit)))
            .collect()
    }

    /// Every outcome of `tasks`, sorted by index, after checking that each
    /// task resolved exactly once.
    fn resolve(tasks: Vec<CellTask>, cancel: Option<&AtomicBool>) -> Vec<TaskOutcome> {
        let n = tasks.len();
        let seen = Mutex::new(Vec::new());
        LocalExecutor::new(Some(2)).execute(tasks, cancel, &|out| {
            seen.lock().expect("lock").push(out);
        });
        let mut seen = seen.into_inner().expect("lock");
        seen.sort_by_key(|o| o.index);
        let indices: Vec<usize> = seen.iter().map(|o| o.index).collect();
        assert_eq!(indices, (0..n).collect::<Vec<_>>(), "each task once");
        seen
    }

    #[test]
    fn local_executor_resolves_every_task_exactly_once() {
        let calls = AtomicUsize::new(0);
        let seen = Mutex::new(Vec::new());
        LocalExecutor::new(Some(2)).execute(vec![task(0), task(3), task(5)], None, &|out| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert!(out.stats.is_ok());
            assert!(!out.cached);
            seen.lock().expect("lock").push(out.index);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        let mut seen = seen.into_inner().expect("lock");
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 3, 5]);
    }

    /// The task indices of each run `tasks` splits into on `workers`.
    fn shape(tasks: Vec<CellTask>, workers: usize) -> Vec<Vec<usize>> {
        runs(tasks, workers)
            .iter()
            .map(|r| r.iter().map(|t| t.index).collect())
            .collect()
    }

    #[test]
    fn cells_sharing_a_trace_split_into_runs_of_fan_width() {
        let mut tasks = one_trace("idct", 200_000);
        tasks.push(task_of(4, cell("rgb", 2, 200_000)));
        for workers in 1..=3 {
            assert_eq!(
                shape(tasks.clone(), workers),
                vec![vec![0, 1, 2], vec![3], vec![4]]
            );
        }
    }

    #[test]
    fn runs_narrow_rather_than_leave_workers_idle() {
        let tasks = one_trace("idct", 200_000);
        assert_eq!(shape(tasks.clone(), 2), vec![vec![0, 1, 2], vec![3]]);
        assert_eq!(shape(tasks[..3].to_vec(), 2), vec![vec![0, 1], vec![2]]);
        let alone = vec![vec![0], vec![1], vec![2], vec![3]];
        assert_eq!(shape(tasks.clone(), 3), alone);
        assert_eq!(shape(tasks, 8), alone);
    }

    #[test]
    fn cancelled_tasks_resolve_as_cancelled_errors() {
        let cancel = AtomicBool::new(true);
        for out in resolve(one_trace("idct", 200_000), Some(&cancel)) {
            let err = out.stats.expect_err("cancelled");
            assert_eq!(err.message, CANCELLED_CELL_MESSAGE);
        }
    }

    /// Every cell of a failing trace fails with the message the cell gets
    /// when it runs alone.
    fn assert_run_fails_as_alone(tasks: Vec<CellTask>) {
        let alone = exec_run(&tasks[..1])
            .remove(0)
            .stats
            .expect_err("the cell fails alone");
        let cells: Vec<String> = tasks.iter().map(|t| t.cell.label()).collect();
        for (out, label) in resolve(tasks, None).into_iter().zip(cells) {
            let err = out.stats.expect_err("every cell of the run fails");
            assert_eq!(err.message, alone.message);
            assert_eq!(err.cell, label);
        }
    }

    #[test]
    fn an_instruction_limit_fails_every_cell_of_the_run() {
        assert_run_fails_as_alone(one_trace("idct", 100));
    }

    #[test]
    fn an_unknown_kernel_fails_every_cell_of_the_run() {
        assert_run_fails_as_alone(one_trace("no-such-kernel", 200_000));
    }
}
