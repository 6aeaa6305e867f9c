//! The sweep engine: expands a [`Scenario`], serves cells from the
//! content-addressed [`ResultStore`], schedules the rest on the
//! work-stealing pool, and reports per-cell outcomes in deterministic
//! order.

use crate::exec::{CellExecutor, CellTask, LocalExecutor, TaskOutcome};
use crate::scenario::{Cell, Scenario, WorkloadRef};
use crate::store::{cell_key, CacheKey, ResultStore, StoredCell};
use serde::{Deserialize, Serialize};
use simdsim_isa::{ClassCounts, Decoded};
use simdsim_mem::{CacheStats, MemTimingStats};
use simdsim_pipe::{simulate_in, CpiStack, PipeConfig, PipeStats};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The per-cell failure message of a cell skipped by a cancelled run.
pub const CANCELLED_CELL_MESSAGE: &str = "cancelled before simulation";

/// A failure in one sweep cell, carrying the cell's label so a single bad
/// job names itself instead of aborting the whole sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Label of the failing cell (`scenario/workload/ext/Nway[...]`).
    pub cell: String,
    /// What went wrong.
    pub message: String,
}

impl SweepError {
    /// An error for `cell` with `message`.
    #[must_use]
    pub fn new(cell: &Cell, message: impl Into<String>) -> Self {
        Self {
            cell: cell.label(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell {}: {}", self.cell, self.message)
    }
}

impl std::error::Error for SweepError {}

/// Timing statistics of one simulated cell — the engine's unit of result,
/// cached by content address and assembled into figures by the drivers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellStats {
    /// Execution cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub instrs: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Cycles attributed to vectorised kernel regions.
    pub vector_cycles: u64,
    /// Cycles attributed to scalar application code.
    pub scalar_cycles: u64,
    /// Conditional branches committed.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Committed instructions per Figure-7 class.
    pub counts: ClassCounts,
    /// L1 cache counters.
    pub l1: CacheStats,
    /// L2 cache counters.
    pub l2: CacheStats,
    /// Memory-system timing counters.
    pub memsys: MemTimingStats,
    /// The cell's CPI stack (`None` when the run had profiling disabled,
    /// or for results cached by a pre-profiler build).
    #[serde(default)]
    pub profile: Option<CpiStack>,
}

/// How the engine runs a scenario.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker-pool size; `None` uses the available parallelism.
    pub jobs: Option<usize>,
    /// Result-store directory; `None` disables caching (every cell is
    /// simulated in-process — the right default for library callers and
    /// tests, which must not observe stale on-disk state).
    pub cache_dir: Option<PathBuf>,
    /// Substring filter on cell labels; non-matching cells are skipped.
    pub filter: Option<String>,
    /// Cooperative cancellation flag.  Once set, cells that have not
    /// started simulating resolve as [`CANCELLED_CELL_MESSAGE`] errors;
    /// in-flight cells run to completion (the engine stops *between*
    /// cells, never mid-simulation).
    pub cancel: Option<Arc<AtomicBool>>,
    /// Cycle accounting: when `true` (the default) every simulated cell
    /// carries a [`CpiStack`] in its [`CellStats::profile`].  Hot-path
    /// benchmarks turn this off to measure the bare model.
    pub profile: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            jobs: None,
            cache_dir: None,
            filter: None,
            cancel: None,
            profile: true,
        }
    }
}

impl EngineOptions {
    /// Enables the content-addressed store at `dir`.
    #[must_use]
    pub fn cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Fixes the worker-pool size.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// Keeps only cells whose label contains `filter`.
    #[must_use]
    pub fn filter(mut self, filter: impl Into<String>) -> Self {
        self.filter = Some(filter.into());
        self
    }

    /// Wires a cooperative cancellation flag into the run.
    #[must_use]
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Enables or disables cycle accounting for simulated cells.
    #[must_use]
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }
}

/// Wall-clock breakdown of one cell's resolution, in milliseconds.
///
/// The phases do not have to sum to the cell's `wall` time: `probe_ms`
/// and `store_ms` happen outside the simulation proper, and a cell that
/// fails early simply leaves later phases at zero.  Events streamed while
/// a job runs carry the phases known at that point; `store_ms` lands once
/// the result is written back during report assembly.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CellPhases {
    /// Content-addressed store probe (hit or miss).
    pub probe_ms: f64,
    /// Workload build + instruction predecode, split evenly across the
    /// cells timed on one shared trace.  The predecode is memoised per
    /// thread, but the build (program, inputs and expected output) runs
    /// again for every trace, so a short kernel cell spends a visible
    /// share of its wall time here.
    pub decode_ms: f64,
    /// The pipeline simulation itself.
    pub simulate_ms: f64,
    /// Store write-back of a fresh result.
    pub store_ms: f64,
}

impl CellPhases {
    /// Merges two breakdowns by summing each phase — used when a cell's
    /// execution (worker-side phases) and its write-back (coordinator-side
    /// `store_ms`) are measured in different places.
    #[must_use]
    pub fn merged(mut self, other: CellPhases) -> CellPhases {
        self.probe_ms += other.probe_ms;
        self.decode_ms += other.decode_ms;
        self.simulate_ms += other.simulate_ms;
        self.store_ms += other.store_ms;
        self
    }
}

/// The outcome of one cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell that ran (or failed, or was served from cache).
    pub cell: Cell,
    /// `true` when the result came from the store.
    pub cached: bool,
    /// The statistics, or the per-cell failure.
    pub stats: Result<CellStats, SweepError>,
    /// Wall-clock time spent simulating this cell in this run (zero for
    /// cached cells and for cells whose job panicked).  Cells timed on one
    /// shared trace split that run's wall time equally.
    pub wall: Duration,
    /// Where this cell's wall time went (probe/decode/simulate/store).
    pub phases: CellPhases,
}

impl CellOutcome {
    /// Simulation throughput in millions of committed instructions per
    /// wall-clock second; `None` for cached or failed cells, which were
    /// not simulated in this run.
    #[must_use]
    pub fn mips(&self) -> Option<f64> {
        let secs = self.wall.as_secs_f64();
        match &self.stats {
            Ok(s) if !self.cached && secs > 0.0 => Some(s.instrs as f64 / secs / 1.0e6),
            _ => None,
        }
    }
}

/// Every cell outcome of one scenario run, in expansion order.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The scenario's name.
    pub scenario: String,
    /// One outcome per (filtered) cell, in [`Scenario::expand`] order.
    pub outcomes: Vec<CellOutcome>,
}

impl SweepReport {
    /// Number of cells served from the store.
    #[must_use]
    pub fn cached(&self) -> usize {
        self.outcomes.iter().filter(|o| o.cached).count()
    }

    /// Number of cells simulated in this run.
    #[must_use]
    pub fn executed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !o.cached && o.stats.is_ok())
            .count()
    }

    /// Number of failed cells.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.stats.is_err()).count()
    }

    /// All `(cell, stats)` pairs, or the first per-cell error.
    ///
    /// # Errors
    ///
    /// Returns the first failing cell's [`SweepError`].
    pub fn cells(&self) -> Result<Vec<(&Cell, &CellStats)>, SweepError> {
        self.outcomes
            .iter()
            .map(|o| match &o.stats {
                Ok(s) => Ok((&o.cell, s)),
                Err(e) => Err(e.clone()),
            })
            .collect()
    }

    /// Total wall-clock time spent simulating (summed across cells; cached
    /// cells contribute nothing).
    #[must_use]
    pub fn simulated_wall(&self) -> Duration {
        self.outcomes.iter().map(|o| o.wall).sum()
    }

    /// Aggregate simulation throughput of this run in millions of
    /// committed instructions per second, or `None` when every cell was
    /// cached or failed.  Failed cells contribute neither instructions
    /// nor wall time, so one bad cell cannot deflate the aggregate.
    #[must_use]
    pub fn simulated_mips(&self) -> Option<f64> {
        let (instrs, wall) = self
            .outcomes
            .iter()
            .filter(|o| !o.cached)
            .filter_map(|o| o.stats.as_ref().ok().map(|s| (s.instrs, o.wall)))
            .fold((0u64, Duration::ZERO), |(i, w), (ci, cw)| (i + ci, w + cw));
        let secs = wall.as_secs_f64();
        if secs <= 0.0 {
            return None;
        }
        Some(instrs as f64 / secs / 1.0e6)
    }
}

/// What the preparation pass decided about each cell.
enum Prep {
    Failed(SweepError),
    Cached {
        stats: CellStats,
        probe_ms: f64,
    },
    Pending {
        cfg: PipeConfig,
        key: Option<CacheKey>,
        probe_ms: f64,
    },
}

/// One per-cell progress notification from [`run_with_progress`],
/// delivered as soon as the cell resolves (from the store, from a
/// simulation, or as a failure).  Cached and failed cells are reported
/// before any simulation starts; simulated cells are reported from the
/// worker threads as they finish.
#[derive(Debug, Clone)]
pub struct ProgressEvent {
    /// Total cells in the (filtered) sweep.
    pub total: usize,
    /// Cells resolved so far, this one included.
    pub completed: usize,
    /// This cell's position in the (filtered) expansion order.
    pub index: usize,
    /// `true` when this cell came from the store.
    pub cached: bool,
    /// The cell's display label.
    pub label: String,
    /// The cell's statistics (`None` when it failed) — carrying the full
    /// result in the event is what lets a service stream per-cell stats
    /// while the sweep is still running.
    pub stats: Option<CellStats>,
    /// The failure message (`None` when the cell succeeded).
    pub error: Option<String>,
    /// Wall-clock time spent simulating this cell (zero for cached and
    /// failed cells).
    pub wall: Duration,
    /// Where the cell's time went, as far as is known when the event
    /// fires (`store_ms` is measured later, at report assembly).
    pub phases: CellPhases,
}

/// Runs `scenario` and returns one outcome per cell, in expansion order
/// regardless of worker count, cache state or steal pattern.
#[must_use]
pub fn run(scenario: &Scenario, opts: &EngineOptions) -> SweepReport {
    run_with_progress(scenario, opts, &|_| {})
}

/// [`run`] with a per-cell progress callback, invoked concurrently from
/// the worker threads — this is what lets a long-lived service (the
/// `simdsim-serve` daemon) report live job progress without polling the
/// engine.
#[must_use]
pub fn run_with_progress(
    scenario: &Scenario,
    opts: &EngineOptions,
    progress: &(dyn Fn(ProgressEvent) + Sync),
) -> SweepReport {
    let local = LocalExecutor::new(opts.jobs);
    run_with_executor(scenario, opts, progress, &local)
}

/// [`run_with_progress`] with an explicit [`CellExecutor`]: expansion and
/// filtering, then [`resolve_cells`].  This is the seam the serving layer
/// uses to satisfy a job from a remote worker fleet instead of the local
/// thread pool.
#[must_use]
pub fn run_with_executor(
    scenario: &Scenario,
    opts: &EngineOptions,
    progress: &(dyn Fn(ProgressEvent) + Sync),
    executor: &dyn CellExecutor,
) -> SweepReport {
    let mut cells = scenario.expand();
    if let Some(f) = &opts.filter {
        cells.retain(|c| c.label().contains(f.as_str()));
    }
    let store = opts.cache_dir.as_ref().map(ResultStore::new);
    SweepReport {
        scenario: scenario.name.clone(),
        outcomes: resolve_cells(
            cells,
            store.as_ref(),
            opts.profile,
            opts.cancel.as_deref(),
            progress,
            executor,
        ),
    }
}

/// Resolves `cells` and returns one outcome per cell, in order: the one
/// path from a cell to its statistics, shared by a local sweep and a fleet
/// worker answering its lease.  Each cell's configuration is resolved and
/// probed in `store`; the cells the store cannot serve go to `executor`,
/// and their results are written back to `store`.  `progress` hears of
/// every cell as it resolves.
#[must_use]
pub fn resolve_cells(
    cells: Vec<Cell>,
    store: Option<&ResultStore>,
    profile: bool,
    cancel: Option<&AtomicBool>,
    progress: &(dyn Fn(ProgressEvent) + Sync),
    executor: &dyn CellExecutor,
) -> Vec<CellOutcome> {
    // Resolve configurations and probe the store up front, sequentially —
    // both are cheap next to a simulation.
    let preps: Vec<Prep> = cells
        .iter()
        .map(|cell| match cell.config() {
            Err(msg) => Prep::Failed(SweepError::new(cell, msg)),
            Ok(cfg) => {
                let probe = Instant::now();
                let key = store.map(|_| cell_key(cell, &cfg));
                if let (Some(st), Some(k)) = (store, &key) {
                    if let Some(hit) = st.load(k) {
                        return Prep::Cached {
                            stats: hit.stats,
                            probe_ms: probe.elapsed().as_secs_f64() * 1.0e3,
                        };
                    }
                }
                Prep::Pending {
                    cfg,
                    key,
                    probe_ms: probe.elapsed().as_secs_f64() * 1.0e3,
                }
            }
        })
        .collect();

    let total = cells.len();
    let completed = AtomicUsize::new(0);
    for (index, (cell, prep)) in cells.iter().zip(&preps).enumerate() {
        match prep {
            Prep::Cached { stats, probe_ms } => progress(ProgressEvent {
                total,
                completed: completed.fetch_add(1, Ordering::Relaxed) + 1,
                index,
                cached: true,
                label: cell.label(),
                stats: Some(stats.clone()),
                error: None,
                wall: Duration::ZERO,
                phases: CellPhases {
                    probe_ms: *probe_ms,
                    ..CellPhases::default()
                },
            }),
            Prep::Failed(e) => progress(ProgressEvent {
                total,
                completed: completed.fetch_add(1, Ordering::Relaxed) + 1,
                index,
                cached: false,
                label: cell.label(),
                stats: None,
                error: Some(e.message.clone()),
                wall: Duration::ZERO,
                phases: CellPhases::default(),
            }),
            Prep::Pending { .. } => {}
        }
    }

    // Hand only the cells the store could not serve to the executor; each
    // resolution is reported as it lands and parked in its slot for the
    // in-order assembly below.
    let tasks: Vec<CellTask> = preps
        .iter()
        .enumerate()
        .filter_map(|(i, p)| match p {
            Prep::Pending { cfg, .. } => Some(CellTask {
                index: i,
                cell: cells[i].clone(),
                cfg: *cfg,
                profile,
            }),
            _ => None,
        })
        .collect();
    // (cached, outcome, wall, phases) for one resolved cell, parked until
    // assembly.
    type Slot = Option<(bool, Result<CellStats, SweepError>, Duration, CellPhases)>;
    let slots: Vec<Mutex<Slot>> = cells.iter().map(|_| Mutex::new(None)).collect();
    executor.execute(tasks, cancel, &|out| {
        let probe_ms = match &preps[out.index] {
            Prep::Pending { probe_ms, .. } => *probe_ms,
            _ => 0.0,
        };
        let phases = out.phases.merged(CellPhases {
            probe_ms,
            ..CellPhases::default()
        });
        progress(ProgressEvent {
            total,
            completed: completed.fetch_add(1, Ordering::Relaxed) + 1,
            index: out.index,
            cached: out.cached,
            label: cells[out.index].label(),
            stats: out.stats.as_ref().ok().cloned(),
            error: out.stats.as_ref().err().map(|e| e.message.clone()),
            wall: out.wall,
            phases,
        });
        *slots[out.index]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) =
            Some((out.cached, out.stats, out.wall, phases));
    });

    let mut outcomes = Vec::with_capacity(cells.len());
    for (i, (cell, prep)) in cells.into_iter().zip(preps).enumerate() {
        let (cached, stats, wall, phases) = match prep {
            Prep::Failed(e) => (false, Err(e), Duration::ZERO, CellPhases::default()),
            Prep::Cached { stats, probe_ms } => (
                true,
                Ok(stats),
                Duration::ZERO,
                CellPhases {
                    probe_ms,
                    ..CellPhases::default()
                },
            ),
            Prep::Pending { key, .. } => {
                let (cached, result, wall, mut phases) = slots[i]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .unwrap_or_else(|| {
                        // The executor contract says this cannot happen;
                        // degrade to a per-cell error rather than panic.
                        (
                            false,
                            Err(SweepError::new(&cell, "executor dropped the cell")),
                            Duration::ZERO,
                            CellPhases::default(),
                        )
                    });
                // Fresh *and* remotely cached results both land in this
                // run's store: when the executor is a fleet, the
                // coordinator's store is the shared cache tier and must
                // absorb results workers served from their own caches.
                if let (Some(st), Some(k), Ok(s)) = (store, &key, &result) {
                    let write = Instant::now();
                    st.save(
                        k,
                        &StoredCell {
                            label: cell.label(),
                            stats: s.clone(),
                        },
                    );
                    phases.store_ms += write.elapsed().as_secs_f64() * 1.0e3;
                }
                (cached, result, wall, phases)
            }
        };
        outcomes.push(CellOutcome {
            cell,
            cached,
            stats,
            wall,
            phases,
        });
    }
    outcomes
}

/// Upper bound on per-worker memoised decode tables; generous next to the
/// catalog's `workloads × exts` (well under 100), but a hard stop against
/// unbounded growth in a long-lived server fed pathological user
/// scenarios.
const DECODE_MEMO_CAP: usize = 512;

thread_local! {
    /// Per-worker `(workload, ext) → Decoded` memo.  Workload builds are
    /// deterministic, so every cell sharing a workload/extension pair
    /// shares one predecoded table instead of rebuilding it per
    /// `simulate` call.
    static DECODE_MEMO: RefCell<HashMap<String, Rc<Decoded>>> = RefCell::new(HashMap::new());
}

/// The memoised decode table for `cell`'s workload, computing (and
/// caching) it from `program` on first sight of the workload/extension
/// pair on this thread.
fn memo_decode(cell: &Cell, program: &simdsim_isa::Program) -> Rc<Decoded> {
    let key = match &cell.workload {
        WorkloadRef::Kernel(n) => format!("kernel/{n}/{}", cell.ext),
        WorkloadRef::App(n) => format!("app/{n}/{}", cell.ext),
    };
    DECODE_MEMO.with(|m| {
        let mut memo = m.borrow_mut();
        if memo.len() >= DECODE_MEMO_CAP {
            memo.clear();
        }
        Rc::clone(memo.entry(key).or_insert_with(|| Rc::new(program.decode())))
    })
}

/// Simulates a run of cells that share one trace — the same workload,
/// extension, instruction budget and profiling flag, each on its own
/// resolved configuration — and returns one outcome per task, in order.
///
/// The workload is built, decoded and emulated once, on the machine just
/// built for it ([`simulate_in`], through the per-thread pooled
/// pipelines, with no copy of the memory image), and the trace is timed
/// on every task's configuration.  Each cell's wall time (workload build
/// included — it is part of the cost a cache hit saves) and phases are an
/// equal share of the run's, so the run's cell walls sum to its wall.  A
/// build or emulation error fails every cell with the same message, as
/// running them one by one would.
pub(crate) fn exec_run(tasks: &[CellTask]) -> Vec<TaskOutcome> {
    let first = &tasks[0].cell;
    let cfgs: Vec<PipeConfig> = tasks.iter().map(|t| t.cfg).collect();
    let start = Instant::now();
    let mut decode_ms = 0.0;
    let mut simulate_ms = 0.0;
    let result = (|| {
        let decode = Instant::now();
        let mut built = first.workload.build(first.ext)?;
        let dec = memo_decode(first, &built.program);
        decode_ms = decode.elapsed().as_secs_f64() * 1.0e3;
        let simulate = Instant::now();
        let (_, runs) = simulate_in(
            &mut built.machine,
            &dec,
            &cfgs,
            first.instr_limit,
            tasks[0].profile,
        )
        .map_err(|e| e.to_string())?;
        simulate_ms = simulate.elapsed().as_secs_f64() * 1.0e3;
        Ok::<_, String>(runs)
    })();
    let wall = start.elapsed();

    let n = tasks.len() as u32;
    // The first cell takes the nanoseconds an even split leaves over.
    let rest = wall - wall / n * n;
    let stats: Vec<Result<CellStats, String>> = match result {
        Ok(runs) => runs
            .into_iter()
            .map(|(stats, cpi)| Ok(cell_stats(&stats, cpi)))
            .collect(),
        Err(msg) => vec![Err(msg); tasks.len()],
    };
    tasks
        .iter()
        .zip(stats)
        .enumerate()
        .map(|(i, (task, stats))| TaskOutcome {
            index: task.index,
            cached: false,
            stats: stats.map_err(|msg| SweepError::new(&task.cell, msg)),
            wall: wall / n + if i == 0 { rest } else { Duration::ZERO },
            phases: CellPhases {
                decode_ms: decode_ms / f64::from(n),
                simulate_ms: simulate_ms / f64::from(n),
                ..CellPhases::default()
            },
        })
        .collect()
}

/// The engine's per-cell result from one configuration's timing run.
fn cell_stats(t: &PipeStats, profile: Option<CpiStack>) -> CellStats {
    CellStats {
        cycles: t.cycles,
        instrs: t.instrs,
        ipc: t.ipc(),
        vector_cycles: t.vector_region_cycles,
        scalar_cycles: t.scalar_region_cycles,
        branches: t.branches,
        mispredicts: t.mispredicts,
        counts: t.counts,
        l1: t.l1,
        l2: t.l2,
        memsys: t.memsys,
        profile,
    }
}
