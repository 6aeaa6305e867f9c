//! Golden parity fixtures for the timing model.
//!
//! Every fig4 + fig5 catalog cell is simulated end-to-end and its full
//! [`PipeStats`] (cycles, per-class counts, branch counters, L1/L2 cache
//! counters, memory-system counters) is compared bit-for-bit against the
//! committed fixture `tests/golden/pipestats.json`.  The fixture was
//! generated from the model *before* the predecoded-hot-path rework, so
//! this suite proves that a pure performance refactor moved no paper
//! number.
//!
//! To re-baseline after an **intentional** timing-model change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --release --test golden_parity
//! ```
//!
//! and commit the updated fixture together with the model change.

use simdsim::conform::{diff_effects, ArchState, EffectsRecorder, RefMachine};
use simdsim::emu::NullSink;
use simdsim::pipe::simulate;
use simdsim::sweep::{catalog, scheduler, Cell};

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/pipestats.json")
}

/// Simulates one cell and renders its `PipeStats` as canonical JSON.
fn cell_stats_json(cell: &Cell) -> (String, String) {
    let cfg = cell
        .config()
        .unwrap_or_else(|e| panic!("{}: {e}", cell.label()));
    let built = cell
        .workload
        .build(cell.ext)
        .unwrap_or_else(|e| panic!("{}: {e}", cell.label()));
    let (_, stats) = simulate(&built.program, &built.machine, &cfg, cell.instr_limit)
        .unwrap_or_else(|e| panic!("{}: {e}", cell.label()));
    let json = serde_json::to_string(&stats).expect("PipeStats serializes");
    (cell.label(), json)
}

fn all_cells() -> Vec<Cell> {
    let mut cells = catalog::fig4().expand();
    cells.extend(catalog::fig5().expand());
    cells
}

#[test]
fn fig4_fig5_pipestats_match_golden_fixture() {
    let cells = all_cells();
    let results = scheduler::run_jobs(&cells, scheduler::default_workers(), cell_stats_json);
    let rows: Vec<(String, String)> = results
        .into_iter()
        .map(|r| r.expect("cell simulation must not panic"))
        .collect();

    let path = fixture_path();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let mut out = String::from("{\n");
        for (i, (label, json)) in rows.iter().enumerate() {
            let sep = if i + 1 == rows.len() { "" } else { "," };
            out.push_str(&format!("  \"{label}\": {json}{sep}\n"));
        }
        out.push_str("}\n");
        std::fs::create_dir_all(path.parent().expect("fixture has a parent dir"))
            .expect("create fixture dir");
        std::fs::write(&path, out).expect("write fixture");
        eprintln!("regenerated {} ({} cells)", path.display(), rows.len());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with GOLDEN_REGEN=1",
            path.display()
        )
    });
    let fixture: serde_json::Value = serde_json::from_str(&text).expect("fixture parses");

    let mut mismatches = Vec::new();
    for (label, json) in &rows {
        let expected = fixture
            .get(label)
            .unwrap_or_else(|| panic!("fixture has no cell `{label}`; regenerate"));
        let expected_json = serde_json::to_string(expected).expect("fixture value serializes");
        if *json != expected_json {
            mismatches.push(format!(
                "{label}:\n  expected {expected_json}\n  got      {json}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} cells diverged from the golden fixture:\n{}",
        mismatches.len(),
        rows.len(),
        mismatches.join("\n")
    );

    // The fixture must not contain cells the catalog no longer produces.
    if let serde_json::Value::Object(pairs) = &fixture {
        assert_eq!(
            pairs.len(),
            rows.len(),
            "fixture has {} cells but the catalog produced {}; regenerate",
            pairs.len(),
            rows.len()
        );
    }
}

/// The conformance crate's deliberately-simple reference interpreter
/// agrees with the emulator on *real paper workloads*,
/// not just the hand-written corpus: per-instruction architectural
/// effects, final machine state and dynamic instruction statistics all
/// match over a fig4 kernel subset on every extension.
#[test]
fn fig4_subset_matches_reference_interpreter() {
    const SUBSET: [&str; 3] = ["idct", "motion1", "rgb"];
    let cells: Vec<Cell> = catalog::fig4()
        .expand()
        .into_iter()
        .filter(|c| SUBSET.contains(&c.workload.name()))
        .collect();
    // One cell per (kernel, ext): fig4 sweeps only the paper's 2-way.
    assert_eq!(cells.len(), SUBSET.len() * simdsim::isa::Ext::ALL.len());

    for cell in &cells {
        let built = cell
            .workload
            .build(cell.ext)
            .unwrap_or_else(|e| panic!("{}: {e}", cell.label()));
        let mut rm = RefMachine::from_machine(&built.machine);
        let ref_run = rm.run(&built.program, cell.instr_limit);
        assert_eq!(
            ref_run.error,
            None,
            "{}: reference run faulted",
            cell.label()
        );
        let ref_state = ArchState::of_ref(&rm);

        let mut m = built.machine.clone();
        let mut rec = EffectsRecorder::default();
        let res = m.run_decoded_observed(
            &built.program.decode(),
            &mut NullSink,
            cell.instr_limit,
            &mut rec,
        );
        assert_eq!(
            res.as_ref().err(),
            None,
            "{}: emulator faulted",
            cell.label()
        );
        if let Some(d) = diff_effects(
            "reference",
            &ref_run.effects,
            "emu",
            &rec.effects,
            built.program.code(),
        ) {
            panic!("{}: {d}", cell.label());
        }
        let emu_state = ArchState::of_machine(&m);
        if let Some(d) = ref_state.diff("reference", &emu_state, "emu") {
            panic!("{}: final state divergence: {d}", cell.label());
        }
        let stats = res.expect("checked above");
        assert_eq!(
            (stats.dyn_instrs, stats.element_ops),
            (ref_run.dyn_instrs, ref_run.element_ops),
            "{}: stats divergence",
            cell.label()
        );
    }
}
