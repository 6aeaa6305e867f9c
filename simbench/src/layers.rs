//! Per-layer probes: one cell taken apart through each layer's public
//! functions, every call inside a span.
//!
//! For a cell the probe times the workload build (`kernels`/`apps`), the
//! predecode (`isa`), a machine reset and an emulation-only run into a
//! `NullSink` (`emu`), a fresh and a reused pipeline (`pipe`), the full
//! simulation with and without cycle accounting (`pipe`), and a replay of
//! the cell's captured memory-access stream through a fresh `MemSystem`
//! (`mem`).  The replay's cache counters must equal the simulation's, and
//! the simulation must equal the golden fixture where the fixture has the
//! cell, so a probe is also an output check.

use crate::golden::Golden;
use crate::trace::Tracer;
use simdsim_emu::{DynInstr, Machine, MemAccess, NullSink, TraceSink};
use simdsim_isa::DecodedInstr;
use simdsim_mem::MemSystem;
use simdsim_pipe::{simulate_decoded, simulate_decoded_profiled, PipeConfig, Pipeline};
use simdsim_sweep::{Cell, WorkloadRef};
use std::time::Duration;

/// A sink keeping only the memory accesses of the stream, in commit order.
#[derive(Debug, Default)]
struct MemCapture {
    accesses: Vec<MemAccess>,
}

impl TraceSink for MemCapture {
    fn push(&mut self, di: &DynInstr, _dec: &DecodedInstr) {
        if let Some(acc) = di.mem {
            self.accesses.push(acc);
        }
    }
}

/// What one probe measured.
#[derive(Debug, Clone, Default)]
pub struct CellProbe {
    /// `true` for an application cell, `false` for a kernel cell.
    pub app: bool,
    pub build: Duration,
    pub decode: Duration,
    pub emu_reset: Duration,
    pub emu_run: Duration,
    pub pipe_new: Duration,
    pub pipe_reset: Duration,
    pub simulate: Duration,
    pub simulate_profiled: Duration,
    pub mem_replay: Duration,
    pub instrs: u64,
    pub cycles: u64,
    /// Memory accesses replayed.
    pub accesses: u64,
    /// L1 and L2 (misses, lookups) of the simulation.
    pub l1: (u64, u64),
    pub l2: (u64, u64),
}

impl CellProbe {
    /// Timing-model time of the cell: the full simulation minus what the
    /// emulator and the two resets inside it account for.
    pub fn pipe_self(&self) -> Duration {
        self.simulate
            .saturating_sub(self.emu_run + self.emu_reset + self.pipe_reset)
    }
}

/// State reused across probes, as a sweep worker reuses it across cells.
#[derive(Debug, Default)]
pub struct Scratch {
    machine: Option<Machine>,
    pipe: Option<Pipeline>,
}

/// Probes one cell.  Errors name the cell and the check that failed.
pub fn probe(
    cell: &Cell,
    tracer: &Tracer,
    golden: &Golden,
    scratch: &mut Scratch,
) -> Result<CellProbe, String> {
    let label = cell.label();
    let fail = |what: String| format!("{label}: {what}");
    let cfg: PipeConfig = cell.config().map_err(&fail)?;
    let root = tracer.open("cell", &label, None);
    let parent = root.index();
    let app = matches!(cell.workload, WorkloadRef::App(_));
    let mut p = CellProbe {
        app,
        ..CellProbe::default()
    };

    let build_name = if app { "apps.build" } else { "kernels.build" };
    let (built, dur) = tracer.time(build_name, &label, parent, || cell.workload.build(cell.ext));
    let built = built.map_err(&fail)?;
    p.build = dur;
    let (dec, dur) = tracer.time("isa.decode", &label, parent, || built.program.decode());
    p.decode = dur;

    let machine = scratch.machine.get_or_insert_with(|| built.machine.clone());
    let ((), dur) = tracer.time("emu.reset_from", &label, parent, || {
        machine.reset_from(&built.machine);
    });
    p.emu_reset = dur;
    let (run, dur) = tracer.time("emu.run_decoded", &label, parent, || {
        machine.run_decoded(&dec, &mut NullSink, cell.instr_limit)
    });
    let run = run.map_err(|e| fail(e.to_string()))?;
    p.emu_run = dur;

    let (fresh, dur) = tracer.time("pipe.new", &label, parent, || Pipeline::new(cfg));
    p.pipe_new = dur;
    let pipe = scratch.pipe.get_or_insert(fresh);
    let ((), dur) = tracer.time("pipe.reset", &label, parent, || pipe.reset(cfg));
    p.pipe_reset = dur;

    let (sim, dur) = tracer.time("pipe.simulate_decoded", &label, parent, || {
        simulate_decoded(&dec, &built.machine, &cfg, cell.instr_limit)
    });
    let (_, stats) = sim.map_err(|e| fail(e.to_string()))?;
    p.simulate = dur;
    let (prof, dur) = tracer.time("pipe.simulate_decoded_profiled", &label, parent, || {
        simulate_decoded_profiled(&dec, &built.machine, &cfg, cell.instr_limit)
    });
    let (_, prof_stats, _) = prof.map_err(|e| fail(e.to_string()))?;
    p.simulate_profiled = dur;
    if prof_stats != stats {
        return Err(fail(
            "profiled simulation changed the statistics".to_owned(),
        ));
    }
    if stats.instrs != run.dyn_instrs {
        return Err(fail(format!(
            "timing model committed {} instructions, emulator {}",
            stats.instrs, run.dyn_instrs
        )));
    }
    let golden_label = format!(
        "{}/{}/{}/{}way",
        cell.scenario, cell.workload, cell.ext, cell.way
    );
    if cell.overrides.is_empty() && golden.matches_pipe(&golden_label, &stats) == Some(false) {
        return Err(fail("statistics differ from the golden fixture".to_owned()));
    }

    // Capture the access stream (untimed), then time its replay alone.
    machine.reset_from(&built.machine);
    let mut capture = MemCapture::default();
    machine
        .run_decoded(&dec, &mut capture, cell.instr_limit)
        .map_err(|e| fail(e.to_string()))?;
    let (mem, dur) = tracer.time("mem.replay", &label, parent, || {
        let mut mem = MemSystem::new(cfg.mem);
        let mut now = 0u64;
        for acc in &capture.accesses {
            now += 1;
            if acc.vector_path {
                mem.vector_access(now, acc);
            } else {
                mem.scalar_access(now, acc.addr, u64::from(acc.row_bytes), acc.store);
            }
        }
        mem
    });
    p.mem_replay = dur;
    if mem.l1_stats() != stats.l1 || mem.l2_stats() != stats.l2 {
        return Err(fail(format!(
            "memory replay counted L1 {:?} / L2 {:?}, the simulation L1 {:?} / L2 {:?}",
            mem.l1_stats(),
            mem.l2_stats(),
            stats.l1,
            stats.l2
        )));
    }
    tracer.close(root);

    p.instrs = stats.instrs;
    p.cycles = stats.cycles;
    p.accesses = capture.accesses.len() as u64;
    p.l1 = (stats.l1.misses, stats.l1.hits + stats.l1.misses);
    p.l2 = (stats.l2.misses, stats.l2.hits + stats.l2.misses);
    Ok(p)
}
