//! `perf` — the simulation-throughput regenerator.
//!
//! Replays the paper's sweeps with the cache disabled, measures wall time
//! and simulated MIPS per cell, prints a throughput table and writes the
//! machine-readable trajectory to `BENCH_simdsim.json` so successive PRs
//! can compare hot-path performance.
//!
//! ```console
//! $ perf                 # fig4 + fig5 (the full paper replay)
//! $ perf --quick         # fig4 only (CI smoke; sub-second in release)
//! $ perf --out other.json --jobs 2
//! ```

use serde::{Serialize, Value};
use simdsim::sweep::{catalog, run, EngineOptions, SweepReport};

const USAGE: &str = "\
usage: perf [--quick] [--profile] [--jobs N] [--out PATH]

Measure end-to-end simulation throughput (wall time and simulated MIPS
per sweep cell) and write the BENCH_simdsim.json trajectory artifact.

options:
  --quick      run only the fig4 kernel sweep (CI smoke)
  --profile    keep cycle-accounting (CPI stacks) on while measuring;
               off by default so the artifact tracks the bare core and
               stays comparable with pre-profiler baselines
  --jobs N     worker-pool size (default: available parallelism)
  --out PATH   artifact path (default: BENCH_simdsim.json)
  --help       print this help";

/// One row of the throughput artifact.
///
/// `mips` divides by the cell's full wall time (workload build, decode
/// and store probe included); `core_mips` divides by `simulate_ms` only,
/// so it isolates the simulator core: the emulate→time step loop.
#[derive(Debug, Serialize)]
struct BenchCell {
    label: String,
    instrs: u64,
    cycles: u64,
    wall_ms: f64,
    mips: f64,
    simulate_ms: f64,
    core_mips: f64,
}

/// Aggregate of one scenario's simulated cells.  `core_mips` is the
/// instruction-weighted aggregate `sum(instrs) / sum(simulate_ms)` — the
/// throughput of the core as if the whole replay were one simulation, so
/// cells contribute in proportion to the work they carry.
#[derive(Debug, Serialize)]
struct BenchTotal {
    instrs: u64,
    wall_ms: f64,
    mips: f64,
    simulate_ms: f64,
    core_mips: f64,
}

/// The `BENCH_simdsim.json` schema.  `jobs` records the worker-pool size
/// the cells ran under: per-cell wall times include contention between
/// concurrent workers, so trajectories are only comparable at equal
/// `jobs`.
///
/// Schema version 2 added the setup-excluded `simulate_ms`/`core_mips`
/// pair per cell and in the total; readers must tolerate version-1
/// artifacts that lack them.
#[derive(Debug, Serialize)]
struct BenchArtifact {
    bench: String,
    schema_version: u32,
    mode: String,
    /// Whether cycle accounting (CPI stacks) was left on during the
    /// measurement; readers of older artifacts may assume `false`.
    profile: bool,
    jobs: usize,
    cells: Vec<BenchCell>,
    total: BenchTotal,
}

fn collect(report: &SweepReport, cells: &mut Vec<BenchCell>) -> Result<(), String> {
    for o in &report.outcomes {
        let stats = o
            .stats
            .as_ref()
            .map_err(|e| format!("cell {} failed: {}", e.cell, e.message))?;
        let simulate_ms = o.phases.simulate_ms;
        cells.push(BenchCell {
            label: o.cell.label(),
            instrs: stats.instrs,
            cycles: stats.cycles,
            wall_ms: o.wall.as_secs_f64() * 1.0e3,
            mips: o.mips().unwrap_or(0.0),
            simulate_ms,
            core_mips: if simulate_ms > 0.0 {
                stats.instrs as f64 / (simulate_ms / 1.0e3) / 1.0e6
            } else {
                0.0
            },
        });
    }
    Ok(())
}

/// Writes the artifact, preserving any foreign top-level sections an
/// existing file carries (the `loadgen`/`loadgen_fleet` summaries merged
/// in by the loadgen driver) so a throughput refresh never erases them.
fn write_artifact(path: &str, artifact: &BenchArtifact) -> Result<(), String> {
    let Value::Object(mut pairs) = serde::Serialize::to_value(artifact) else {
        return Err("artifact did not serialize as an object".to_owned());
    };
    if let Some(Value::Object(old)) = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| serde_json::from_str::<Value>(&t).ok())
    {
        for (k, v) in old {
            if !pairs.iter().any(|(fresh, _)| *fresh == k) {
                pairs.push((k, v));
            }
        }
    }
    std::fs::write(path, simdsim::report::to_json(&Value::Object(pairs)))
        .map_err(|e| format!("writing {path}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = main_impl(&args).map_or_else(
        |msg| {
            eprintln!("perf: {msg}");
            2
        },
        |()| 0,
    );
    std::process::exit(code);
}

fn main_impl(args: &[String]) -> Result<(), String> {
    let mut quick = false;
    let mut profile = false;
    let mut jobs: Option<usize> = None;
    let mut out = String::from("BENCH_simdsim.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--profile" => profile = true,
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = Some(
                    v.parse()
                        .map_err(|_| format!("--jobs expects a number, got `{v}`"))?,
                );
            }
            "--out" => out = it.next().ok_or("--out needs a value")?.clone(),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            flag => return Err(format!("unknown option `{flag}`")),
        }
    }

    // No cache: the point is to *measure* the simulation, every run.
    // Cycle accounting is opt-in here (the sweep service defaults it on):
    // the trajectory tracks the bare core unless `--profile` asks for the
    // overhead to be part of the measurement.
    let jobs = jobs.unwrap_or_else(simdsim::sweep::default_workers);
    let opts = EngineOptions::default().jobs(jobs).profile(profile);
    let scenarios = if quick {
        vec![catalog::fig4()]
    } else {
        vec![catalog::fig4(), catalog::fig5()]
    };

    let mut cells = Vec::new();
    for scenario in &scenarios {
        let report = run(scenario, &opts);
        print!("{}", simdsim::report::render_throughput(&report));
        collect(&report, &mut cells)?;
    }

    let total_instrs: u64 = cells.iter().map(|c| c.instrs).sum();
    let total_wall_ms: f64 = cells.iter().map(|c| c.wall_ms).sum();
    let total_simulate_ms: f64 = cells.iter().map(|c| c.simulate_ms).sum();
    let per_ms = |instrs: u64, ms: f64| {
        if ms > 0.0 {
            instrs as f64 / (ms / 1.0e3) / 1.0e6
        } else {
            0.0
        }
    };
    let artifact = BenchArtifact {
        bench: "simdsim-throughput".to_owned(),
        schema_version: 2,
        mode: if quick { "quick" } else { "full" }.to_owned(),
        profile,
        jobs,
        cells,
        total: BenchTotal {
            instrs: total_instrs,
            wall_ms: total_wall_ms,
            mips: per_ms(total_instrs, total_wall_ms),
            simulate_ms: total_simulate_ms,
            core_mips: per_ms(total_instrs, total_simulate_ms),
        },
    };
    write_artifact(&out, &artifact)?;
    println!(
        "wrote {out} ({} cells, {:.1} MIPS aggregate, {:.1} core MIPS)",
        artifact.cells.len(),
        artifact.total.mips,
        artifact.total.core_mips
    );
    Ok(())
}
