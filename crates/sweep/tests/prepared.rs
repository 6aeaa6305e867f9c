//! Memo-equivalence of the engine's prepared workloads.  A worker thread
//! builds each (workload, extension) pair once and restores a working
//! machine from the pristine build for every later run; nothing a run
//! leaves on that machine, successful or not, may reach the next cell.

use simdsim_isa::Ext;
use simdsim_sweep::{
    catalog, resolve_cells, Cell, CellStats, LocalExecutor, Scenario, WorkloadRef,
};

/// Resolves `cells` on the calling thread, without a store.  Cells that
/// share a trace run as one group, so a second resolution of a cell needs
/// a call of its own.
fn resolve(cells: &[Cell]) -> Vec<Result<CellStats, String>> {
    resolve_cells(
        cells.to_vec(),
        None,
        true,
        None,
        &|_| {},
        &LocalExecutor::new(Some(1)),
    )
    .into_iter()
    .map(|o| o.stats.map_err(|e| e.message))
    .collect()
}

/// Resolves `cell` alone on a thread of its own, whose memo is empty.
fn on_fresh_thread(cell: &Cell) -> Result<CellStats, String> {
    let cell = cell.clone();
    std::thread::spawn(move || resolve(&[cell]).remove(0))
        .join()
        .expect("fresh thread")
}

/// The fig4 cells, then every ablation's cells.
fn kernel_cells() -> Vec<Cell> {
    let mut cells = catalog::fig4().expand();
    for ablation in [
        catalog::ablate_lanes(),
        catalog::ablate_l2_port(),
        catalog::ablate_matrix_regs(),
        catalog::ablate_redirect(),
    ] {
        cells.extend(ablation.expand());
    }
    cells
}

#[test]
fn a_memo_hit_equals_the_first_resolution_and_a_fresh_thread() {
    std::thread::spawn(|| {
        let cells = kernel_cells();
        // One cell at a time, so every ablation cell after the first of
        // its (kernel, ext) pair restores a machine fig4 left behind.
        let first: Vec<_> = cells
            .iter()
            .map(|c| resolve(std::slice::from_ref(c)).remove(0))
            .collect();
        let second = resolve(&cells);
        for ((cell, first), second) in cells.iter().zip(&first).zip(&second) {
            let label = cell.label();
            assert!(first.is_ok(), "{label}: {first:?}");
            assert_eq!(first, second, "{label}: the memo hit differs");
            assert_eq!(
                first,
                &on_fresh_thread(cell),
                "{label}: a fresh thread differs"
            );
        }
    })
    .join()
    .expect("memo thread");
}

#[test]
fn an_app_too_large_to_keep_is_rebuilt_with_equal_results() {
    let cell = Scenario::new("prepared", "an app whose image is not kept")
        .apps(["mpeg2dec"])
        .exts([Ext::Vmmx128])
        .ways([2])
        .expand()
        .remove(0);
    let twice = std::thread::spawn({
        let cell = cell.clone();
        move || [resolve(std::slice::from_ref(&cell)), resolve(&[cell])].concat()
    })
    .join()
    .expect("memo thread");
    assert!(twice[0].is_ok(), "{:?}", twice[0]);
    assert_eq!(twice[0], twice[1]);
    assert_eq!(twice[0], on_fresh_thread(&cell));
}

#[test]
fn a_failed_run_leaves_nothing_for_the_next_cell() {
    let cell = catalog::fig4()
        .expand()
        .into_iter()
        .find(|c| c.label() == "fig4/idct/mmx64/2way")
        .expect("fig4 has idct");
    let cut = Cell {
        instr_limit: 100,
        ..cell.clone()
    };
    let after = std::thread::spawn({
        let cell = cell.clone();
        move || [resolve(&[cut]), resolve(&[cell])].concat()
    })
    .join()
    .expect("memo thread");
    assert!(after[0].is_err(), "a 100-instruction budget fails idct");
    assert!(after[1].is_ok(), "{:?}", after[1]);
    assert_eq!(after[1], on_fresh_thread(&cell));
}

#[test]
fn an_unknown_kernel_fails_every_time_with_one_message() {
    let cell = Cell {
        workload: WorkloadRef::Kernel("no-such-kernel".to_owned()),
        ..catalog::fig4().expand().remove(0)
    };
    let twice = [resolve(std::slice::from_ref(&cell)), resolve(&[cell])].concat();
    assert_eq!(twice[0], Err("unknown kernel `no-such-kernel`".to_owned()));
    assert_eq!(twice[0], twice[1]);
}
