//! Pooled-vs-fresh equivalence of the timing model.  A sweep worker
//! replays every cell through one pooled `Pipeline`, reset between cells;
//! the reset must carry no configuration or state from one cell into the
//! next.  The golden fixture covers only paper-configuration cells, so
//! these tests are the check for the ablation configurations.

use simdsim_isa::Ext;
use simdsim_pipe::{CpiStack, PipeConfig, PipeStats, Pipeline};
use simdsim_sweep::{catalog, Cell, Scenario};

/// Runs `cell` on `pipe` (already reset to the cell's configuration) with
/// cycle accounting on.
fn run_cell(pipe: &mut Pipeline, cell: &Cell) -> (PipeStats, CpiStack) {
    let built = cell.workload.build(cell.ext).expect("workload builds");
    let mut machine = built.machine;
    pipe.set_profiling(true);
    machine
        .run_decoded(&built.program.decode(), pipe, cell.instr_limit)
        .unwrap_or_else(|e| panic!("{}: {e}", cell.label()));
    (pipe.stats(), pipe.cpi_stack().expect("profiling enabled"))
}

fn fresh(cell: &Cell) -> (PipeStats, CpiStack) {
    let cfg = cell.config().expect("catalog config");
    run_cell(&mut Pipeline::new(cfg), cell)
}

/// The fig4 kernels on the paper machines, the fig4 kernels under every
/// ablation's override set (on that ablation's extension and width), and
/// one application cell long enough to cross several 64K-instruction
/// store-line cleanups.
fn cells() -> Vec<Cell> {
    let fig4 = catalog::fig4();
    let mut cells = fig4.expand();
    for ablation in [
        catalog::ablate_lanes(),
        catalog::ablate_l2_port(),
        catalog::ablate_matrix_regs(),
        catalog::ablate_redirect(),
    ] {
        let all_kernels = Scenario {
            workloads: fig4.workloads.clone(),
            ..ablation
        };
        cells.extend(all_kernels.expand());
    }
    // About 259K instructions: four cleanups.
    cells.extend(
        Scenario::new("pooled", "a long app cell")
            .apps(["gsmenc"])
            .exts([Ext::Vmmx64])
            .ways([2])
            .expand(),
    );
    cells
}

/// Fisher–Yates with a fixed splitmix64 stream, so the order is shuffled
/// but the same on every run.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

#[test]
fn pooled_pipeline_equals_fresh_in_shuffled_cell_order() {
    let mut cells = cells();
    shuffle(&mut cells, 0x5eed);
    let mut pooled = Pipeline::new(PipeConfig::paper(8, Ext::Mmx128));
    for cell in &cells {
        pooled.reset(cell.config().expect("catalog config"));
        assert_eq!(
            run_cell(&mut pooled, cell),
            fresh(cell),
            "{}: pooled run differs from a fresh pipeline",
            cell.label()
        );
    }
}

#[test]
fn pooled_pipeline_survives_a_store_epoch_wrap() {
    let cell = catalog::fig4()
        .expand()
        .into_iter()
        .find(|c| c.label() == "fig4/idct/mmx64/2way")
        .expect("fig4 has idct");
    let cfg = cell.config().expect("paper config");
    let expected = fresh(&cell);
    let mut pooled = Pipeline::new(cfg);
    assert_eq!(run_cell(&mut pooled, &cell), expected);

    // 65535 resets: a 16-bit store-line epoch that wrapped without a
    // clear would come back to the one the first run wrote under.  The
    // intermediate resets use tiny caches and predictor to stay cheap.
    let mut tiny = cfg;
    tiny.mem.l1.size = 256;
    tiny.mem.l2.size = 1024;
    tiny.bpred_entries = 16;
    for _ in 1..u16::MAX {
        pooled.reset(tiny);
    }
    pooled.reset(cfg);
    assert_eq!(run_cell(&mut pooled, &cell), expected);
}
