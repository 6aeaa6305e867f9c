//! Engine acceptance tests: cache round-trips across runs, deterministic
//! outcomes regardless of worker count, and per-cell failure isolation.

use simdsim_isa::Ext;
use simdsim_sweep::{execute_cell, run, EngineOptions, Scenario};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("simdsim-engine-{}-{tag}", std::process::id()))
}

fn small_scenario() -> Scenario {
    Scenario::new("engine-test", "one cheap kernel, two machines")
        .kernels(["motion1"])
        .exts([Ext::Mmx64, Ext::Vmmx128])
        .ways([2])
}

#[test]
fn second_run_is_served_from_the_cache() {
    let dir = scratch_dir("cache-hit");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = EngineOptions::default().cache(&dir).jobs(2);

    let first = run(&small_scenario(), &opts);
    assert_eq!(first.outcomes.len(), 2);
    assert_eq!(first.cached(), 0, "cold cache cannot hit");
    assert_eq!(first.executed(), 2);

    let second = run(&small_scenario(), &opts);
    assert_eq!(second.cached(), 2, "warm cache must serve every cell");
    assert_eq!(second.executed(), 0);
    for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
        assert_eq!(a.cell.label(), b.cell.label());
        assert_eq!(
            a.stats.as_ref().expect("first run simulates"),
            b.stats.as_ref().expect("second run loads"),
            "cached stats must equal simulated stats"
        );
    }

    // A config change misses the cache: same scenario, one overridden knob.
    let changed = small_scenario().override_axis("rob", [64]);
    let third = run(&changed, &opts);
    assert_eq!(third.cached(), 0, "changed config must not reuse entries");
    assert_eq!(third.executed(), 2);

    // --no-cache semantics: no cache dir means no hits even when the
    // store is warm on disk.
    let uncached = run(&small_scenario(), &EngineOptions::default().jobs(2));
    assert_eq!(uncached.cached(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn outcomes_are_identical_across_worker_counts() {
    let scenario = Scenario::new("det", "determinism probe")
        .kernels(["motion1", "addblock"])
        .exts([Ext::Mmx64, Ext::Vmmx128])
        .ways([2]);
    let reference = run(&scenario, &EngineOptions::default().jobs(1));
    for jobs in [2, 4, 8] {
        let report = run(&scenario, &EngineOptions::default().jobs(jobs));
        assert_eq!(report.outcomes.len(), reference.outcomes.len());
        for (a, b) in reference.outcomes.iter().zip(&report.outcomes) {
            assert_eq!(
                a.cell.label(),
                b.cell.label(),
                "order diverged at {jobs} jobs"
            );
            assert_eq!(
                a.stats.as_ref().expect("simulates"),
                b.stats.as_ref().expect("simulates"),
                "stats diverged at {jobs} jobs"
            );
        }
    }
}

#[test]
fn one_bad_cell_does_not_poison_the_sweep() {
    let scenario = Scenario::new("mixed", "good and bad cells")
        .kernels(["motion1", "no-such-kernel", "addblock"])
        .exts([Ext::Mmx64])
        .ways([2]);
    let report = run(&scenario, &EngineOptions::default().jobs(2));
    assert_eq!(report.outcomes.len(), 3);
    assert_eq!(report.failed(), 1);
    assert!(report.outcomes[0].stats.is_ok());
    let err = report.outcomes[1].stats.as_ref().unwrap_err();
    assert!(err.cell.contains("no-such-kernel"), "{err}");
    assert!(report.outcomes[2].stats.is_ok());
    // And the aggregate view names the failing cell.
    let aggregate = report.cells().unwrap_err();
    assert!(aggregate.cell.contains("no-such-kernel"));
}

/// `int_fus=256` once wrapped the ring's `u8` issue limit to 0 and spun
/// the pipeline forever; `int_fus=0` panicked on an empty FU pool.  Both
/// now fail their own cell, in the engine and on the worker path.
#[test]
fn out_of_range_override_fails_its_cell_instead_of_hanging() {
    let scenario = small_scenario().override_axis("int_fus", [256, 2, 0]);
    let report = run(&scenario, &EngineOptions::default().jobs(2));
    assert_eq!(report.outcomes.len(), 6);
    for o in &report.outcomes {
        let label = o.cell.label();
        if o.cell.overrides.params[0].value == 2 {
            assert!(o.stats.is_ok(), "{label}");
        } else {
            let err = o.stats.as_ref().expect_err(&label);
            assert!(err.message.contains("int_fus"), "{err}");
            assert_eq!(o.wall, std::time::Duration::ZERO, "{label} never ran");
        }
    }
    let worker = execute_cell(&scenario.expand()[0]);
    assert!(worker
        .stats
        .expect_err("rejected")
        .message
        .contains("int_fus"));
}

#[test]
fn filter_selects_cells_by_label_substring() {
    let report = run(
        &small_scenario(),
        &EngineOptions::default().filter("vmmx128"),
    );
    assert_eq!(report.outcomes.len(), 1);
    assert!(report.outcomes[0].cell.label().contains("vmmx128"));
}
