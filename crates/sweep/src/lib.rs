//! `simdsim-sweep` — the experiment engine of the workspace.
//!
//! Experiments are **declarative**: a [`Scenario`] names axes (workloads,
//! extensions, widths, configuration overrides) and the engine does the
//! rest — expansion into cells, cache lookup in a content-addressed
//! [`ResultStore`], execution on a bounded work-stealing scheduler with
//! per-job panic isolation, and a per-cell [`Result`] report in
//! deterministic order.  The paper's figures and the ablation studies are
//! entries in [`catalog`]; new machines and sweeps are new `Scenario`
//! values (or JSON files fed to the `sweep` binary), not new driver code.
//!
//! # Example
//!
//! Define and run a two-cell scenario — `idct` on the paper's 2-way MMX64
//! and VMMX128 machines — without touching any driver:
//!
//! ```
//! use simdsim_isa::Ext;
//! use simdsim_sweep::{run, EngineOptions, Scenario};
//!
//! let scenario = Scenario::new("demo", "idct on the 2-way cores")
//!     .kernels(["idct"])
//!     .exts([Ext::Mmx64, Ext::Vmmx128])
//!     .ways([2]);
//!
//! let report = run(&scenario, &EngineOptions::default());
//! assert_eq!(report.outcomes.len(), 2);
//! let mmx = report.outcomes[0].stats.as_ref().expect("cell simulates");
//! let vmmx = report.outcomes[1].stats.as_ref().expect("cell simulates");
//! // The matrix extension beats 1-D SIMD on the 2-way core (Figure 4).
//! assert!(vmmx.cycles < mmx.cycles);
//! ```
//!
//! Caching is opt-in per run: pass
//! [`EngineOptions::cache`] with a directory and identical cells are
//! served from disk on the next run — across binaries, and invalidated
//! automatically whenever the resolved configuration, the workload
//! revision or the cache schema changes (the key hashes all of them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod engine;
pub mod exec;
pub mod scenario;
pub mod scheduler;
pub mod store;

pub use engine::{
    resolve_cells, run, run_with_executor, run_with_progress, CellOutcome, CellPhases, CellStats,
    EngineOptions, ProgressEvent, SweepError, SweepReport, CANCELLED_CELL_MESSAGE,
};
pub use exec::{CellExecutor, CellTask, LocalExecutor, TaskOutcome};
pub use scenario::{Cell, OverrideSet, Param, Scenario, WorkloadRef, DEFAULT_INSTR_LIMIT};
pub use scheduler::{default_workers, run_jobs, JobPanic};
pub use simdsim_pipe::{CpiStack, StallCause, NUM_REGIONS, NUM_STALL_CAUSES, REGION_LABELS};
pub use store::{cell_key, fnv1a128, CacheKey, ResultStore, StoredCell, CACHE_SCHEMA_VERSION};
