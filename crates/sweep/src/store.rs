//! Content-addressed result store.
//!
//! Each simulated cell is cached under a key derived from everything that
//! determines its outcome: the cache schema version, the workload
//! revisions of the kernel/app crates, the model revisions of the
//! emulator/timing/memory crates, the workload reference, the fully
//! resolved [`PipeConfig`] and the instruction budget.  Any change to any
//! of those yields a different key, so stale entries are never *re-used* —
//! they are simply never looked up again.  This supersedes the seed's
//! ad-hoc `target/simdsim-results/*.json` convention, which keyed results
//! by figure name only and had no invalidation story.

use crate::engine::CellStats;
use crate::scenario::{Cell, WorkloadRef};
use serde::{Deserialize, Serialize};
use simdsim_pipe::PipeConfig;
use std::path::{Path, PathBuf};

/// Version of the stored-cell schema; bump when a stored number of
/// [`CellStats`] or the key material changes.  Version 2 added the
/// L1/L2/memory-system counters to [`CellStats`] so the serving layer can
/// return full timing statistics per cell.  Version 3 added three
/// emulator dispatch counters.  Version 4 added the cycle-accounting
/// `profile` stack, so caches populated by unprofiled builds never serve
/// profile-less results to a profiling service.  The dispatch counters
/// have since been retired without a bump: the reader looks fields up by
/// name and ignores unknown keys, so v4 entries that still carry them
/// load unchanged, and no stored number moved.
pub const CACHE_SCHEMA_VERSION: u32 = 4;

/// A content hash addressing one cell's result (32 hex digits).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey(String);

impl CacheKey {
    /// The key as a hex string.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Parses a key from its canonical form: exactly 32 lowercase hex
    /// digits.  Anything else — the wrong length, uppercase, path
    /// separators — is rejected, which is what makes snapshot import safe
    /// against hostile key strings becoming file paths.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        if s.len() == 32
            && s.bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
        {
            Some(Self(s.to_owned()))
        } else {
            None
        }
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Everything that determines a cell's simulation outcome: the workload
/// (with the revisions of the crates that generate it) and the machine
/// (with the revisions of the crates that model it).
#[derive(Serialize)]
struct KeyMaterial {
    schema: u32,
    kernels_rev: u32,
    apps_rev: u32,
    isa_rev: u32,
    asm_rev: u32,
    emu_rev: u32,
    pipe_rev: u32,
    mem_rev: u32,
    workload: WorkloadRef,
    config: PipeConfig,
    instr_limit: u64,
}

/// The content-addressed key for `cell` simulated on `config`.
///
/// The scenario name is deliberately **not** part of the key: two
/// scenarios sharing a cell share its cached result.
#[must_use]
pub fn cell_key(cell: &Cell, config: &PipeConfig) -> CacheKey {
    let material = KeyMaterial {
        schema: CACHE_SCHEMA_VERSION,
        kernels_rev: simdsim_kernels::REVISION,
        apps_rev: simdsim_apps::REVISION,
        isa_rev: simdsim_isa::REVISION,
        asm_rev: simdsim_asm::REVISION,
        emu_rev: simdsim_emu::REVISION,
        pipe_rev: simdsim_pipe::REVISION,
        mem_rev: simdsim_mem::REVISION,
        workload: cell.workload.clone(),
        config: *config,
        instr_limit: cell.instr_limit,
    };
    let text = serde_json::to_string(&material).expect("key material serializes");
    CacheKey(format!("{:032x}", fnv1a128(text.as_bytes())))
}

/// FNV-1a, 128-bit variant: stable across platforms and runs, which is
/// what a content address needs (`DefaultHasher` guarantees neither).
/// Public because the serving layer reuses it to fingerprint submissions
/// for queued-job coalescing.
#[must_use]
pub fn fnv1a128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// One cached result with its human-readable label (the label is
/// redundant with the key but makes the cache dir greppable).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredCell {
    /// The cell's display label at save time.
    pub label: String,
    /// The simulation statistics.
    pub stats: CellStats,
}

/// An on-disk store mapping [`CacheKey`]s to [`StoredCell`]s, one JSON
/// file per key.  Safe to share between concurrent processes: writes go
/// through a temp file + rename, and unreadable entries degrade to cache
/// misses.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// A store rooted at `dir` (created lazily on first save).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Loads the entry for `key`; any read or parse failure is a miss.
    #[must_use]
    pub fn load(&self, key: &CacheKey) -> Option<StoredCell> {
        let text = std::fs::read_to_string(self.path(key)).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Saves `cell` under `key`.  Best effort: an unwritable store means
    /// the sweep just runs uncached, so IO errors are swallowed.
    pub fn save(&self, key: &CacheKey, cell: &StoredCell) {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let Ok(text) = serde_json::to_string(cell) else {
            return;
        };
        let tmp = self
            .dir
            .join(format!("{key}.json.tmp.{}", std::process::id()));
        if std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, self.path(key)).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Every key currently present in the store, sorted.  This is what a
    /// worker advertises at registration so the coordinator can lease
    /// with cache affinity; it reads directory names only, never entry
    /// contents.
    #[must_use]
    pub fn keys(&self) -> Vec<CacheKey> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out: Vec<CacheKey> = entries
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                CacheKey::parse(name.strip_suffix(".json")?)
            })
            .collect();
        out.sort_by(|a, b| a.as_str().cmp(b.as_str()));
        out
    }

    /// Every `(key, entry)` pair in the store, sorted by key for a
    /// deterministic snapshot.  Unreadable or misnamed files are skipped —
    /// the same degrade-to-miss policy as [`ResultStore::load`].
    #[must_use]
    pub fn export(&self) -> Vec<(CacheKey, StoredCell)> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out: Vec<(CacheKey, StoredCell)> = entries
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let key = CacheKey::parse(name.strip_suffix(".json")?)?;
                let cell = self.load(&key)?;
                Some((key, cell))
            })
            .collect();
        out.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        out
    }

    /// Imports snapshot entries, skipping malformed keys and keys already
    /// present (an existing entry is authoritative — content addresses
    /// never change meaning).  Returns `(imported, skipped)` counts.
    pub fn import<'a>(
        &self,
        entries: impl IntoIterator<Item = (&'a str, StoredCell)>,
    ) -> (usize, usize) {
        let (mut imported, mut skipped) = (0, 0);
        for (key, cell) in entries {
            match CacheKey::parse(key) {
                Some(k) if self.load(&k).is_none() => {
                    self.save(&k, &cell);
                    imported += 1;
                }
                _ => skipped += 1,
            }
        }
        (imported, skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdsim_isa::Ext;

    fn cell() -> Cell {
        Cell {
            scenario: "s".to_owned(),
            workload: WorkloadRef::Kernel("idct".to_owned()),
            ext: Ext::Vmmx128,
            way: 2,
            overrides: crate::scenario::OverrideSet::default(),
            instr_limit: 1000,
        }
    }

    #[test]
    fn key_ignores_scenario_name_but_not_content() {
        let a = cell();
        let mut b = cell();
        b.scenario = "other".to_owned();
        let cfg = a.config().expect("paper config");
        assert_eq!(cell_key(&a, &cfg), cell_key(&b, &cfg));

        let mut c = cell();
        c.instr_limit = 999;
        assert_ne!(cell_key(&a, &cfg), cell_key(&c, &cfg));

        let mut cfg2 = cfg;
        cfg2.lanes += 1;
        assert_ne!(cell_key(&a, &cfg), cell_key(&a, &cfg2));
    }

    #[test]
    fn export_import_roundtrip_skips_bad_and_existing_keys() {
        let base = std::env::temp_dir().join(format!("simdsim-snap-{}", std::process::id()));
        let src = ResultStore::new(base.join("src"));
        let dst = ResultStore::new(base.join("dst"));
        let c = cell();
        let key = cell_key(&c, &c.config().expect("config"));
        let stored = StoredCell {
            label: c.label(),
            stats: CellStats {
                cycles: 10,
                instrs: 20,
                ipc: 2.0,
                vector_cycles: 1,
                scalar_cycles: 9,
                branches: 3,
                mispredicts: 1,
                counts: Default::default(),
                l1: Default::default(),
                l2: Default::default(),
                memsys: Default::default(),
                profile: None,
            },
        };
        src.save(&key, &stored);
        let snap = src.export();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, key);

        let entries: Vec<(&str, StoredCell)> = vec![
            (key.as_str(), stored.clone()),
            ("../../../../etc/passwd", stored.clone()),
            ("ABCDEF", stored.clone()),
        ];
        let (imported, skipped) = dst.import(entries.iter().map(|(k, c)| (*k, c.clone())));
        assert_eq!((imported, skipped), (1, 2));
        assert_eq!(dst.load(&key).expect("imported"), stored);
        // Re-import: the existing entry wins, nothing is rewritten.
        let (imported, skipped) = dst.import([(key.as_str(), stored.clone())]);
        assert_eq!((imported, skipped), (0, 1));
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn missing_and_corrupt_entries_are_misses() {
        let dir = std::env::temp_dir().join(format!("simdsim-store-{}", std::process::id()));
        let store = ResultStore::new(&dir);
        let key = cell_key(&cell(), &cell().config().expect("config"));
        assert!(store.load(&key).is_none());
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join(format!("{key}.json")), "{not json").expect("write");
        assert!(store.load(&key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
