//! The committed golden fixture `tests/golden/pipestats.json`: the full
//! timing statistics of every fig4 and fig5 cell, read only.  Cells are
//! compared bit for bit in the fixture's own canonical JSON form, exactly
//! as the repository's golden-parity test does.

use serde::Value;
use simdsim_pipe::PipeStats;
use simdsim_sweep::CellStats;
use std::collections::HashMap;
use std::path::Path;

/// The fixture, keyed by cell label (`fig4/idct/mmx64/2way`).
#[derive(Debug, Default)]
pub struct Golden {
    cells: HashMap<String, String>,
}

impl Golden {
    /// Reads and parses the fixture.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading golden fixture {}: {e}", path.display()))?;
        let Value::Object(pairs) = serde_json::from_str::<Value>(&text)
            .map_err(|e| format!("parsing golden fixture: {e}"))?
        else {
            return Err("golden fixture is not a JSON object".to_owned());
        };
        let cells = pairs
            .into_iter()
            .map(|(label, v)| {
                let json = serde_json::to_string(&v).expect("a parsed value serializes");
                (label, json)
            })
            .collect();
        Ok(Self { cells })
    }

    /// `None` when `label` is not in the fixture, else whether `stats`
    /// matches it bit for bit.
    pub fn matches(&self, label: &str, stats: &CellStats) -> Option<bool> {
        self.matches_pipe(label, &pipe_stats(stats))
    }

    /// [`Golden::matches`] for statistics straight from the timing model.
    pub fn matches_pipe(&self, label: &str, stats: &PipeStats) -> Option<bool> {
        let expected = self.cells.get(label)?;
        Some(serde_json::to_string(stats).expect("PipeStats serializes") == *expected)
    }
}

/// The timing-model statistics a [`CellStats`] carries, in the fixture's
/// field layout.
fn pipe_stats(s: &CellStats) -> PipeStats {
    PipeStats {
        cycles: s.cycles,
        instrs: s.instrs,
        counts: s.counts,
        scalar_region_cycles: s.scalar_cycles,
        vector_region_cycles: s.vector_cycles,
        branches: s.branches,
        mispredicts: s.mispredicts,
        l1: s.l1,
        l2: s.l2,
        memsys: s.memsys,
    }
}
