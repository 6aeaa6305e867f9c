//! Timing-model properties on random programs and random valid
//! configurations.  Each case is one seed: `conform`'s fuzz generator
//! builds the program from it and [`case`] draws a configuration that
//! passes `PipeConfig::validate` from the same seed, so every failure
//! names the seed that replays it.  The properties:
//!
//! * a pooled pipeline, reset between cases taken in shuffled order,
//!   equals a fresh pipeline per case;
//! * `simulate_in` over k configurations equals k single runs;
//! * profiling does not change `PipeStats`;
//! * the CPI stack accounts for every commit slot:
//!   `issue_total + stall_total == cycles × way`;
//! * the scalar and vector region cycles sum to the total;
//! * no run beats its width: `cycles × way ≥ instrs`.

use simdsim_asm::Asm;
use simdsim_conform::{random_program, Rng};
use simdsim_emu::{EmuError, Machine, NullSink, RunStats};
use simdsim_isa::{Ext, Program};
use simdsim_pipe::{simulate_in, CpiStack, PipeConfig, PipeStats, Pipeline};

/// Cases per property.
const CASES: u64 = 64;
/// First case seed.
const SEED0: u64 = 0x7131_0000;
/// Memory image of a fuzz program (its traffic stays inside 4 KiB).
const MEM: usize = 4096;
/// Instruction budget of one run (fuzz programs take a few hundred).
const MAX_INSTRS: u64 = 200_000;

/// A configuration around a paper machine with every knob the timing
/// model reads drawn at random, redrawn until it passes `validate`.
fn random_config(r: &mut Rng, ext: Ext) -> PipeConfig {
    loop {
        let mut cfg = PipeConfig::paper(*r.pick(&[2, 4, 8]), ext);
        let mut pick = |lo: u64, hi: u64| lo + r.below(hi - lo + 1);
        cfg.way = pick(1, 8) as usize;
        cfg.rob = pick(1, 96) as usize;
        // Half the draws are issue-queue sizes worth pinning: the
        // smallest, the paper's three and a wide one.
        cfg.iq = match pick(0, 9) {
            k @ 0..=4 => [1, 16, 24, 36, 255][k as usize],
            _ => pick(1, 64) as usize,
        };
        cfg.phys_int = pick(1, 128) as usize;
        cfg.phys_fp = pick(1, 128) as usize;
        cfg.phys_simd = pick(1, 96) as usize;
        cfg.int_fus = pick(1, 8) as usize;
        cfg.fp_fus = pick(1, 4) as usize;
        cfg.simd_issue = pick(1, 8) as usize;
        cfg.simd_fus = pick(1, 8) as usize;
        cfg.lanes = pick(1, 8) as usize;
        cfg.mem_fus = pick(1, 4) as usize;
        cfg.frontend_depth = pick(0, 8);
        cfg.redirect_penalty = pick(0, 20);
        cfg.bpred_entries = 1 << pick(0, 12);
        cfg.mem.l1.latency = pick(0, 4);
        cfg.mem.l2.latency = pick(0, 20);
        cfg.mem.mem_latency = pick(0, 600);
        cfg.mem.l1.ports = pick(1, 4) as usize;
        if cfg.validate().is_ok() {
            return cfg;
        }
    }
}

/// The program and configuration of case `seed`.
fn case(seed: u64) -> (Program, PipeConfig) {
    let (ext, program) = random_program(seed);
    let cfg = random_config(&mut Rng::new(seed ^ 0xc0f1_9000), ext);
    (program, cfg)
}

/// Everything one run observes: the emulator's outcome, the timing
/// statistics and the CPI stack when profiling.
type Outcome = (Result<RunStats, EmuError>, PipeStats, Option<CpiStack>);

/// One configuration's result from `simulate_in`.
type Timed = (PipeStats, Option<CpiStack>);

/// Runs `program` from a fresh machine on `pipe`, which is already in
/// its reset state.  A run that faults still times the instructions that
/// committed before the fault.
fn run_on(pipe: &mut Pipeline, program: &Program, ext: Ext, profile: bool) -> Outcome {
    pipe.set_profiling(profile);
    let rs = Machine::new(ext, MEM).run_decoded(&program.decode(), pipe, MAX_INSTRS);
    (rs, pipe.stats(), pipe.cpi_stack())
}

fn fresh(seed: u64, profile: bool) -> Outcome {
    let (program, cfg) = case(seed);
    run_on(&mut Pipeline::new(cfg), &program, cfg.ext, profile)
}

#[test]
fn pooled_pipeline_equals_fresh_in_shuffled_order() {
    let mut seeds: Vec<u64> = (SEED0..SEED0 + CASES).collect();
    let want: Vec<Outcome> = seeds.iter().map(|&s| fresh(s, true)).collect();
    let mut r = Rng::new(0x5eed);
    for i in (1..seeds.len()).rev() {
        seeds.swap(i, r.below(i as u64 + 1) as usize);
    }
    let mut pooled = Pipeline::new(PipeConfig::paper(8, Ext::Vmmx128));
    for &seed in &seeds {
        let (program, cfg) = case(seed);
        pooled.reset(cfg);
        let got = run_on(&mut pooled, &program, cfg.ext, true);
        assert_eq!(
            got,
            want[(seed - SEED0) as usize],
            "case seed {seed:#x}: pooled run differs from a fresh pipeline"
        );
    }
}

#[test]
fn profiling_does_not_change_stats() {
    for seed in SEED0..SEED0 + CASES {
        let (plain_rs, plain, none) = fresh(seed, false);
        let (rs, profiled, stack) = fresh(seed, true);
        assert!(none.is_none(), "case seed {seed:#x}: unprofiled CPI stack");
        assert!(stack.is_some(), "case seed {seed:#x}: no CPI stack");
        assert_eq!(plain_rs, rs, "case seed {seed:#x}: emulation differs");
        assert_eq!(
            plain, profiled,
            "case seed {seed:#x}: profiling moved timing"
        );
    }
}

#[test]
fn cycle_accounting_adds_up_and_width_bounds_throughput() {
    for seed in SEED0..SEED0 + CASES {
        let (_, stats, stack) = fresh(seed, true);
        let stack = stack.expect("profiling enabled");
        let way = case(seed).1.way as u64;
        assert_eq!(stack.cycles, stats.cycles, "case seed {seed:#x}");
        assert_eq!(stack.way, way, "case seed {seed:#x}");
        assert_eq!(
            stack.issue_total() + stack.stall_total(),
            stats.cycles * way,
            "case seed {seed:#x}: CPI stack does not cover cycles × way"
        );
        assert_eq!(stack.issue_total(), stats.instrs, "case seed {seed:#x}");
        assert_eq!(
            stats.scalar_region_cycles + stats.vector_region_cycles,
            stats.cycles,
            "case seed {seed:#x}: region cycles do not sum to the total"
        );
        assert!(
            stats.cycles * way >= stats.instrs,
            "case seed {seed:#x}: {} instructions in {} cycles at {way}-way",
            stats.instrs,
            stats.cycles
        );
    }
}

/// About 15K dynamic instructions of loads, stores, ALU and branch work:
/// long enough that a fan-out run replays several buffered chunks.
fn long_program() -> Program {
    let mut a = Asm::new();
    let (x, i, t, p) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
    a.li(x, 0x1234_5678);
    a.li(i, 0);
    a.for_loop(i, 2_000, |a| {
        a.and(p, i, 0x3f);
        a.slli(p, p, 5);
        a.ld(t, p, 64);
        a.muli(x, x, 1_103_515_245);
        a.add(x, x, t);
        a.sd(x, p, 72);
    });
    a.halt();
    a.finish()
}

/// `simulate_in` of `cfgs` on a fresh machine.
fn group(program: &Program, ext: Ext, cfgs: &[PipeConfig], name: &str) -> Vec<Timed> {
    let mut machine = Machine::new(ext, MEM);
    match simulate_in(&mut machine, &program.decode(), cfgs, MAX_INSTRS, true) {
        Ok((_, runs)) => runs,
        Err(e) => panic!("{name}: {e}"),
    }
}

#[test]
fn simulate_in_over_k_configs_equals_k_single_runs() {
    // (name, seed of the configurations, extension, program)
    let mut programs: Vec<(String, u64, Ext, Program)> = Vec::new();
    for seed in SEED0..SEED0 + CASES {
        let (program, cfg) = case(seed);
        // A fault fails the whole group; the pooled test covers those.
        if Machine::new(cfg.ext, MEM)
            .run_decoded(&program.decode(), &mut NullSink, MAX_INSTRS)
            .is_ok()
        {
            programs.push((format!("case seed {seed:#x}"), seed, cfg.ext, program));
        }
    }
    assert!(programs.len() > CASES as usize / 2, "most fuzz cases run");
    let long = (
        "the long program (seed 0)".to_string(),
        0,
        Ext::Mmx64,
        long_program(),
    );
    programs.push(long);
    for (name, seed, ext, program) in &programs {
        let mut r = Rng::new(seed ^ 0xfa40_0000);
        let k = 2 + r.below(3) as usize;
        let cfgs: Vec<PipeConfig> = (0..k).map(|_| random_config(&mut r, *ext)).collect();
        let fanned = group(program, *ext, &cfgs, name);
        assert_eq!(fanned.len(), k, "{name}");
        for (j, cfg) in cfgs.iter().enumerate() {
            let single = group(program, *ext, std::slice::from_ref(cfg), name);
            assert_eq!(
                fanned[j], single[0],
                "{name}: configuration {j} of {k} differs from its single run"
            );
        }
    }
}
