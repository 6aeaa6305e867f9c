//! Property tests of the content-addressed result store: round-trips are
//! lossless, and any change to a cell's resolved configuration changes
//! the cache key (so stale entries are never looked up again).

use proptest::prelude::*;
use simdsim_isa::{ClassCounts, Ext};
use simdsim_sweep::{
    cell_key, Cell, CellStats, OverrideSet, Param, ResultStore, StoredCell, WorkloadRef,
};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("simdsim-store-prop-{}-{tag}", std::process::id()))
}

fn cell(workload: WorkloadRef, ext: Ext, way: usize, instr_limit: u64) -> Cell {
    Cell {
        scenario: "prop".to_owned(),
        workload,
        ext,
        way,
        overrides: OverrideSet::default(),
        instr_limit,
    }
}

fn stats(seed: u64, ipc: f64) -> CellStats {
    CellStats {
        cycles: seed.wrapping_mul(3).max(1),
        instrs: seed.wrapping_add(17),
        ipc,
        vector_cycles: seed / 2,
        scalar_cycles: seed / 3,
        branches: seed % 1000,
        mispredicts: seed % 97,
        counts: ClassCounts {
            smem: seed % 11,
            sarith: seed % 13,
            sctrl: seed % 7,
            vmem: seed % 5,
            varith: seed % 3,
        },
        l1: simdsim_mem::CacheStats {
            hits: seed % 101,
            misses: seed % 31,
            writebacks: seed % 19,
            invalidations: seed % 23,
        },
        l2: simdsim_mem::CacheStats::default(),
        memsys: simdsim_mem::MemTimingStats {
            scalar_accesses: seed % 301,
            vector_accesses: seed % 201,
            l2_port_busy: seed % 401,
            unit_stride_accesses: seed % 151,
            coherency_writebacks: seed % 29,
        },
        // Bounded so `cycles * way` cannot overflow for any generated seed.
        profile: Some(simdsim_pipe::CpiStack {
            cycles: (seed % (1 << 40)).max(1),
            way: 4,
            slots: (seed % (1 << 40)).max(1) * 4,
            issue_slots: [seed % 59, seed % 61],
            class_slots: [seed % 11, seed % 13, seed % 7, seed % 5, seed % 3],
            stall_slots: std::array::from_fn(|i| seed % (i as u64 + 2)),
        }),
    }
}

/// Cache entries and fleet reports written while `CellStats` still
/// carried the `blocks_cached` / `block_hits` / `side_exits` counters
/// parse to the same value: the reader ignores keys it does not know,
/// which is why retiring them needed no schema bump.
#[test]
fn reader_ignores_retired_block_counters() {
    use serde::{Deserialize, Serialize, Value};
    let full = stats(9, 1.25);
    let Value::Object(mut pairs) = full.to_value() else {
        panic!("CellStats serializes as an object")
    };
    for (k, v) in [("blocks_cached", 7), ("block_hits", 211), ("side_exits", 3)] {
        pairs.push((k.to_string(), Value::UInt(v)));
    }
    let parsed = CellStats::from_value(&Value::Object(pairs)).expect("v4 payload parses");
    assert_eq!(parsed, full);
}

proptest! {
    /// Save → load returns exactly what was saved, for arbitrary stats.
    #[test]
    fn roundtrip_is_lossless(seed in 1u64..u64::MAX / 4, ipc_millis in 0u64..8000) {
        let dir = scratch_dir("rt");
        let store = ResultStore::new(&dir);
        let c = cell(WorkloadRef::Kernel("idct".to_owned()), Ext::Vmmx128, 2, seed);
        let key = cell_key(&c, &c.config().expect("paper config"));
        let saved = StoredCell { label: c.label(), stats: stats(seed, ipc_millis as f64 / 1000.0) };
        store.save(&key, &saved);
        let loaded = store.load(&key).expect("entry just saved");
        prop_assert_eq!(loaded, saved);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Any single-parameter change to the resolved configuration yields a
    /// different key, so the old cached entry can never be served.
    #[test]
    fn config_change_invalidates_the_key(
        param_idx in 0usize..29,
        delta in 1u64..64,
        way_idx in 0usize..3,
    ) {
        use simdsim_pipe::PipeConfig;
        let way = [2usize, 4, 8][way_idx];
        let base = cell(WorkloadRef::Kernel("idct".to_owned()), Ext::Vmmx128, way, 1000);
        let base_cfg = base.config().expect("paper config");
        let base_key = cell_key(&base, &base_cfg);

        let key_name = PipeConfig::PARAMS[param_idx % PipeConfig::PARAMS.len()];
        let mut changed = base.clone();
        changed.overrides = OverrideSet {
            params: vec![Param { key: key_name.to_owned(), value: 256 + delta }],
        };
        // Applied directly rather than through `Cell::config`: values above
        // 255 are outside the model's range for the FU counts, but the
        // key derivation must separate every configuration it is given.
        let resolve = || {
            let mut cfg = base_cfg;
            changed.overrides.apply(&mut cfg).map(|()| cfg)
        };
        let changed_cfg = resolve().expect("override applies");
        prop_assert_ne!(cell_key(&changed, &changed_cfg), base_key.clone(),
            "key unchanged after overriding {}", key_name);

        // The key hashes resolved *content*: the same override applied to
        // the same cell twice produces the same key.
        prop_assert_eq!(cell_key(&changed, &changed_cfg),
            cell_key(&changed, &resolve().expect("override applies again")));
    }

    /// Workload identity, kind, extension, width and instruction budget
    /// all contribute to the key.
    #[test]
    fn every_cell_axis_contributes_to_the_key(limit in 1u64..1_000_000) {
        let base = cell(WorkloadRef::Kernel("idct".to_owned()), Ext::Vmmx128, 2, limit);
        let base_key = cell_key(&base, &base.config().expect("config"));

        let other_kernel = cell(WorkloadRef::Kernel("rgb".to_owned()), Ext::Vmmx128, 2, limit);
        prop_assert_ne!(cell_key(&other_kernel, &other_kernel.config().expect("config")), base_key.clone());

        // Same name, different registry: a kernel is not an app.
        let as_app = cell(WorkloadRef::App("idct".to_owned()), Ext::Vmmx128, 2, limit);
        prop_assert_ne!(cell_key(&as_app, &as_app.config().expect("config")), base_key.clone());

        let other_ext = cell(WorkloadRef::Kernel("idct".to_owned()), Ext::Mmx64, 2, limit);
        prop_assert_ne!(cell_key(&other_ext, &other_ext.config().expect("config")), base_key.clone());

        let other_way = cell(WorkloadRef::Kernel("idct".to_owned()), Ext::Vmmx128, 4, limit);
        prop_assert_ne!(cell_key(&other_way, &other_way.config().expect("config")), base_key.clone());

        let other_limit = cell(WorkloadRef::Kernel("idct".to_owned()), Ext::Vmmx128, 2, limit + 1);
        prop_assert_ne!(cell_key(&other_limit, &other_limit.config().expect("config")), base_key);
    }
}
