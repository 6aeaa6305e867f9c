//! The two command-line workloads: whole scenarios replayed through
//! `sweep::run` with the result store off and one engine worker thread.
//!
//! * `fig5_apps` — the Fig. 5 grid (6 apps × 4 extensions × 3 widths),
//!   one `sweep::run` per pass.
//! * `kernel_cells` — the Fig. 4 grid plus the four ablation scenarios,
//!   five `sweep::run` calls per pass.
//!
//! Both grids are fixed and replayed in catalog order, so the seed changes
//! no input here (it only names the run).  Every fig4/fig5 cell of every
//! pass is compared with the golden fixture; every other cell must repeat
//! its first pass's statistics exactly.

use crate::golden::Golden;
use crate::host::HostSpeed;
use crate::layers::{self, CellProbe};
use crate::report::{Metric, Outcome};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use serde::Value;
use simdsim_isa::Ext;
use simdsim_sweep::{catalog, run, CellStats, EngineOptions, Scenario};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Engine worker threads of every sweep.
pub const ENGINE_THREADS: usize = 1;

/// Window seconds allotted to one `fig5_apps` pass: an untraced run makes
/// at least `ceil(seconds / APP_PASS_S)` passes (see [`app_passes`]).
const APP_PASS_S: f64 = 6.0;

/// The untraced `fig5_apps` passes each cell's fastest time is taken over.
/// It depends on `--seconds` only, so a parent and a change take the same
/// number of draws per cell however fast each is.
pub fn app_passes(seconds: f64) -> usize {
    ((seconds / APP_PASS_S).ceil() as usize).max(1)
}

/// Which command-line workload to replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// The Fig. 5 application grid.
    Apps,
    /// The Fig. 4 kernel grid and the ablations.
    Kernels,
}

/// The scenarios of one pass, in catalog order.
pub fn scenarios(grid: Grid) -> Vec<Scenario> {
    match grid {
        Grid::Apps => vec![catalog::fig5()],
        Grid::Kernels => vec![
            catalog::fig4(),
            catalog::ablate_lanes(),
            catalog::ablate_l2_port(),
            catalog::ablate_matrix_regs(),
            catalog::ablate_redirect(),
        ],
    }
}

/// Everything a run needs before its timed window opens.
pub struct Setup {
    grid: Grid,
    scenarios: Vec<Scenario>,
    golden: Golden,
}

/// Expands the scenarios, loads the fixture, and builds and predecodes
/// each distinct workload once in catalog order, so a broken registry
/// fails before the clock starts.
pub fn setup(grid: Grid, golden_path: &std::path::Path) -> Result<Setup, String> {
    let golden = Golden::load(golden_path)?;
    let mut seen: Vec<(String, Ext)> = Vec::new();
    let scenarios = scenarios(grid);
    for s in &scenarios {
        for w in &s.workloads {
            for ext in &s.exts {
                let key = (w.name().to_owned(), *ext);
                if !seen.contains(&key) {
                    let built = w.build(*ext)?;
                    std::hint::black_box(built.program.decode());
                    seen.push(key);
                }
            }
        }
    }
    Ok(Setup {
        grid,
        scenarios,
        golden,
    })
}

/// Warms up with one Fig. 4 sweep checked against the fixture.  It runs
/// once, after the timed set-ups: a sweep's time swings between two modes
/// from one set-up to the next (0.1 or 0.18 s) that the reference loop
/// does not follow, and within a set-up it would outweigh the program's
/// own preparation ten times over.
pub fn warm_up(setup: &Setup) -> Result<(), String> {
    let warm = run(
        &catalog::fig4(),
        &EngineOptions::default().jobs(ENGINE_THREADS),
    );
    for o in &warm.outcomes {
        let ok = o
            .stats
            .as_ref()
            .is_ok_and(|s| setup.golden.matches(&o.cell.label(), s) == Some(true));
        if !ok {
            return Err(format!(
                "warm-up cell {} failed its golden check",
                o.cell.label()
            ));
        }
    }
    Ok(())
}

/// One pass over the scenarios.
#[derive(Debug, Clone, Default)]
struct Pass {
    wall: Duration,
    instrs: u64,
    cycles: u64,
    /// Each cell's wall time, in catalog order.
    cells: Vec<Duration>,
}

impl Pass {
    /// The pass's wall time outside its cells: sweep set-up and joins.
    fn overhead(&self) -> Duration {
        self.wall.saturating_sub(self.cells.iter().sum())
    }
}

/// The time of a pass made of each cell's fastest run over `passes`, plus
/// their median overhead.
///
/// The host's speed switches between a fast and a ~1.7× slower mode for
/// seconds at a time, while one `fig5_apps` pass takes several seconds; a
/// whole pass therefore mixes the modes, and the mix changes from run to
/// run.  A single cell (tens of ms) usually runs wholly in one mode, so its
/// fastest of a few passes is its fast-mode time.
fn fastest_cells_pass(passes: &[Pass]) -> Duration {
    let cells = passes.first().map_or(0, |p| p.cells.len());
    let fastest: Duration = (0..cells)
        .map(|i| passes.iter().map(|p| p.cells[i]).min().unwrap_or_default())
        .sum();
    let overheads: Vec<f64> = passes.iter().map(|p| p.overhead().as_secs_f64()).collect();
    fastest + Duration::from_secs_f64(median(&overheads))
}

/// Runs the timed window and returns the outcome.  With tracing on, the
/// window alternates an untraced pass, a traced pass (a span around every
/// `sweep::run`) and a probe pass (every cell taken apart layer by layer).
/// The reference loop runs after every untraced pass, for about 1% of a
/// `fig5_apps` pass and 2% of a `kernel_cells` one, into `host`; the
/// end-to-end metrics are put at nominal host speed with it.
pub fn run_window(setup: &Setup, seconds: f64, tracer: &Tracer, host: &mut HostSpeed) -> Outcome {
    let host_calls = match setup.grid {
        Grid::Apps => 10,
        Grid::Kernels => 1,
    };
    let opts = EngineOptions::default().jobs(ENGINE_THREADS);
    let mut out = Outcome::default();
    let mut first_seen: HashMap<String, CellStats> = HashMap::new();
    let mut passes: Vec<Pass> = Vec::new();
    // Wall time of each untraced `sweep::run` call, in ms.
    let mut sweep_ms: Vec<f64> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    let mut overhead_ms: Vec<f64> = Vec::new();
    let mut probe_ms: Vec<f64> = Vec::new();
    let mut probes: Vec<CellProbe> = Vec::new();
    let mut probe_passes = 0usize;
    let mut scratch = layers::Scratch::default();

    // A traced run needs at least one pass of each kind; an untraced
    // `fig5_apps` run the passes its per-cell figures are taken over.
    let min_rounds = if tracer.on() { 3 } else { 1 };
    let app_passes = app_passes(seconds);
    let min_passes = match setup.grid {
        Grid::Apps if !tracer.on() => app_passes,
        _ => 0,
    };
    let window = Instant::now();
    let mut round = 0usize;
    while round < min_rounds
        || passes.len() < min_passes
        || window.elapsed().as_secs_f64() < seconds
    {
        let traced = tracer.on() && round % 3 == 1;
        let probing = tracer.on() && round % 3 == 2;
        round += 1;
        if probing {
            for s in &setup.scenarios {
                for cell in s.expand() {
                    out.attempted += 1;
                    match layers::probe(&cell, tracer, &setup.golden, &mut scratch) {
                        Ok(p) => probes.push(p),
                        Err(e) => out.fail(e),
                    }
                }
            }
            probe_passes += 1;
            continue;
        }
        let mut pass = Pass::default();
        for s in &setup.scenarios {
            let span = if traced {
                tracer.open("sweep.run", &s.name, None)
            } else {
                crate::trace::Open::none()
            };
            let start = Instant::now();
            let report = run(s, &opts);
            let wall = start.elapsed();
            tracer.close(span);
            pass.wall += wall;
            if !traced {
                sweep_ms.push(wall.as_secs_f64() * 1e3);
            }
            let cell_wall: Duration = report.outcomes.iter().map(|o| o.wall).sum();
            overhead_ms.push(wall.saturating_sub(cell_wall).as_secs_f64() * 1e3);
            for o in &report.outcomes {
                out.attempted += 1;
                pass.cells.push(o.wall);
                probe_ms.push(o.phases.probe_ms);
                let label = o.cell.label();
                let stats = match &o.stats {
                    Ok(s) => s,
                    Err(e) => {
                        out.fail(e.to_string());
                        continue;
                    }
                };
                pass.instrs += stats.instrs;
                pass.cycles += stats.cycles;
                let ok = match setup.golden.matches(&label, stats) {
                    Some(ok) => ok,
                    None => {
                        first_seen
                            .entry(label.clone())
                            .or_insert_with(|| stats.clone())
                            == stats
                    }
                };
                if !ok {
                    out.fail(format!("{label}: statistics differ from the expected ones"));
                }
            }
        }
        if traced {
            traced_passes.push(pass);
        } else {
            passes.push(pass);
            host.sample(host_calls);
        }
    }

    // A command-line request is one `sweep::run`.
    let rate = |p: &Pass, n: f64| n / p.wall.as_secs_f64();
    let per_pass = setup.scenarios.len() as f64;
    let mips: Vec<f64> = passes
        .iter()
        .map(|p| rate(p, p.instrs as f64 / 1e6))
        .collect();
    let n = passes.len();
    out.passes = n;
    out.detail(
        "pass_mips",
        Value::Array(mips.iter().map(|&m| Value::Float(m)).collect()),
    );
    match setup.grid {
        Grid::Kernels => {
            // The fast end of about a hundred short passes: their fastest
            // decile (see `tail`), never the single fastest pass.
            let mcycles: Vec<f64> = passes
                .iter()
                .map(|p| rate(p, p.cycles as f64 / 1e6))
                .collect();
            let sweeps: Vec<f64> = passes.iter().map(|p| rate(p, per_pass)).collect();
            out.tail_metric("sim_mips", tail(&mips, 90.0), "Minstr/s");
            out.tail_metric("sim_mcycles_per_s", tail(&mcycles, 90.0), "Mcycle/s");
            out.tail_metric("sweeps_per_s", tail(&sweeps, 90.0), "1/s");
            out.metric("complete_p50_ms", median(&sweep_ms), "ms", sweep_ms.len());
            out.tail_metric("complete_p99_ms", tail(&sweep_ms, 99.0), "ms");
            for name in ["sim_mips", "sim_mcycles_per_s", "sweeps_per_s"] {
                out.at_nominal(name, host.fast_scale());
            }
            for name in ["complete_p50_ms", "complete_p99_ms"] {
                out.at_nominal(name, host.typical_scale());
            }
        }
        Grid::Apps => {
            // Every figure comes from one pass made of each cell's fastest
            // run over the first `app_passes` passes.  Its one sweep is
            // both the median and the tail.
            let taken = &passes[..n.min(app_passes)];
            let wall = fastest_cells_pass(taken).as_secs_f64();
            let first = taken.first().cloned().unwrap_or_default();
            let k = taken.len();
            out.detail("cell_fastest_of", Value::UInt(k as u64));
            out.metric("sim_mips", first.instrs as f64 / 1e6 / wall, "Minstr/s", k);
            let mcycles = first.cycles as f64 / 1e6 / wall;
            out.metric("sim_mcycles_per_s", mcycles, "Mcycle/s", k);
            out.metric("sweeps_per_s", per_pass / wall, "1/s", k);
            out.metric("complete_p50_ms", wall * 1e3 / per_pass, "ms", k);
            out.metric("complete_p99_ms", wall * 1e3 / per_pass, "ms", k);
            out.all_at_nominal(host.fast_scale());
        }
    }

    if tracer.on() {
        let traced_mips: Vec<f64> = traced_passes
            .iter()
            .map(|p| rate(p, p.instrs as f64 / 1e6))
            .collect();
        out.trace_overhead = Some(median(&mips) / median(&traced_mips) - 1.0);
        out.probe_passes = probe_passes;
        out.layers = layer_metrics(&probes, probe_passes);
        out.layer(
            "sweep.overhead_ms",
            median(&overhead_ms),
            "ms",
            overhead_ms.len(),
        );
        out.layer("sweep.probe_ms", median(&probe_ms), "ms", probe_ms.len());
    }
    out
}

/// Per-layer metrics from the probes of `passes` probe passes.
pub fn layer_metrics(probes: &[CellProbe], passes: usize) -> Vec<Metric> {
    let passes = passes.max(1) as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let mean_of = |xs: Vec<f64>| (crate::stats::mean(&xs), xs.len());
    let sum = |f: &dyn Fn(&CellProbe) -> Duration| -> f64 {
        probes.iter().map(|p| f(p).as_secs_f64()).sum()
    };
    let count = |f: &dyn Fn(&CellProbe) -> u64| -> u64 { probes.iter().map(f).sum() };

    let kernel_build = mean_of(
        probes
            .iter()
            .filter(|p| !p.app)
            .map(|p| ms(p.build))
            .collect(),
    );
    let app_build = mean_of(
        probes
            .iter()
            .filter(|p| p.app)
            .map(|p| ms(p.build))
            .collect(),
    );
    let decode = mean_of(probes.iter().map(|p| ms(p.decode)).collect());
    let emu_reset = mean_of(probes.iter().map(|p| us(p.emu_reset)).collect());
    let pipe_new = mean_of(probes.iter().map(|p| us(p.pipe_new)).collect());
    let pipe_reset = mean_of(probes.iter().map(|p| us(p.pipe_reset)).collect());

    let instrs = count(&|p| p.instrs) as f64;
    let cycles = count(&|p| p.cycles) as f64;
    let accesses = count(&|p| p.accesses) as f64;
    let emu_s = sum(&|p| p.emu_run);
    let pipe_s = sum(&|p| p.pipe_self());
    let sim_s = sum(&|p| p.simulate);
    let prof_s = sum(&|p| p.simulate_profiled);
    let replay_s = sum(&|p| p.mem_replay);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (l1_miss, l1_all) = (count(&|p| p.l1.0), count(&|p| p.l1.1));
    let (l2_miss, l2_all) = (count(&|p| p.l2.0), count(&|p| p.l2.1));
    let n = probes.len();

    vec![
        Metric::new("isa.decode_ms", decode.0, "ms", decode.1),
        Metric::new("kernels.build_ms", kernel_build.0, "ms", kernel_build.1),
        Metric::new("apps.build_ms", app_build.0, "ms", app_build.1),
        Metric::new("emu.reset_us", emu_reset.0, "us", emu_reset.1),
        Metric::new("emu.self_s", emu_s / passes, "s", n),
        Metric::new("emu.mips", ratio(instrs, emu_s) / 1e6, "Minstr/s", n),
        Metric::new("pipe.new_us", pipe_new.0, "us", pipe_new.1),
        Metric::new("pipe.reset_us", pipe_reset.0, "us", pipe_reset.1),
        Metric::new("pipe.self_s", pipe_s / passes, "s", n),
        Metric::new("pipe.ns_per_cycle", ratio(pipe_s, cycles) * 1e9, "ns", n),
        Metric::new("pipe.profile_overhead", ratio(prof_s, sim_s), "ratio", n),
        Metric::new(
            "mem.ns_per_access",
            ratio(replay_s, accesses) * 1e9,
            "ns",
            n,
        ),
        Metric::new("mem.accesses", accesses / passes, "count", n),
        Metric::new(
            "mem.l1_miss_ratio",
            ratio(l1_miss as f64, l1_all as f64),
            "ratio",
            n,
        ),
        Metric::new(
            "mem.l2_miss_ratio",
            ratio(l2_miss as f64, l2_all as f64),
            "ratio",
            n,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(cells_ms: &[u64], overhead_ms: u64) -> Pass {
        let cells: Vec<Duration> = cells_ms
            .iter()
            .map(|&ms| Duration::from_millis(ms))
            .collect();
        Pass {
            wall: cells.iter().sum::<Duration>() + Duration::from_millis(overhead_ms),
            cells,
            ..Pass::default()
        }
    }

    #[test]
    fn fastest_cells_pass_takes_each_cells_fastest_run() {
        // Cell 0 is fast in the second pass, cell 1 in the first.
        let passes = [
            pass(&[170, 100], 1),
            pass(&[100, 170], 3),
            pass(&[160, 160], 2),
        ];
        assert_eq!(fastest_cells_pass(&passes), Duration::from_millis(202));
    }

    #[test]
    fn app_passes_follow_the_window_only() {
        assert_eq!(app_passes(25.0), 5);
        assert_eq!(app_passes(30.0), 5);
        assert_eq!(app_passes(0.5), 1);
    }
}
