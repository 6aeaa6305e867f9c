//! The declarative experiment model: a [`Scenario`] names axes over
//! workloads, extensions, widths and configuration overrides; expanding it
//! yields the [`Cell`]s the engine simulates.
//!
//! Scenarios are plain serializable data, so user-defined machines and
//! sweeps live in JSON files next to the built-in catalog rather than in
//! hand-written driver code.

use serde::{Deserialize, Serialize};
use simdsim_isa::Ext;
use simdsim_kernels::{BuiltKernel, Variant};
use simdsim_pipe::PipeConfig;

/// Default dynamic-instruction budget for a simulated cell (matches the
/// facade crate's historical `INSTR_LIMIT`).
pub const DEFAULT_INSTR_LIMIT: u64 = 500_000_000;

/// A workload named by the scenario: a Table-II kernel or a full
/// application, resolved against the registries at execution time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadRef {
    /// A standalone kernel from [`simdsim_kernels::registry`].
    Kernel(String),
    /// A full application from [`simdsim_apps::registry`].
    App(String),
}

impl WorkloadRef {
    /// The workload's name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            WorkloadRef::Kernel(n) | WorkloadRef::App(n) => n,
        }
    }

    /// Builds the workload in the variant exercising `ext`.
    ///
    /// # Errors
    ///
    /// Returns a message when the name is not in the registry.
    pub fn build(&self, ext: Ext) -> Result<BuiltKernel, String> {
        let variant = Variant::for_ext(ext);
        match self {
            WorkloadRef::Kernel(n) => simdsim_kernels::by_name(n)
                .map(|k| k.build(variant))
                .ok_or_else(|| format!("unknown kernel `{n}`")),
            WorkloadRef::App(n) => simdsim_apps::by_name(n)
                .map(|a| a.build(variant))
                .ok_or_else(|| format!("unknown app `{n}`")),
        }
    }
}

impl std::fmt::Display for WorkloadRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One named configuration override, applied through
/// [`PipeConfig::set`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Param {
    /// Parameter key (e.g. `lanes`, `l2.port_width`).
    pub key: String,
    /// The value to set.
    pub value: u64,
}

/// A set of overrides applied together to one cell's configuration —
/// one point on a scenario's override axis.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverrideSet {
    /// The overrides, applied in order.
    pub params: Vec<Param>,
}

impl OverrideSet {
    /// An override set with a single parameter.
    #[must_use]
    pub fn single(key: &str, value: u64) -> Self {
        Self {
            params: vec![Param {
                key: key.to_owned(),
                value,
            }],
        }
    }

    /// `true` when no parameter is overridden.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Short display label, `"lanes=4"` style (empty when no overrides).
    #[must_use]
    pub fn label(&self) -> String {
        self.params
            .iter()
            .map(|p| format!("{}={}", p.key, p.value))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Applies every override to `cfg`.
    ///
    /// # Errors
    ///
    /// Returns the message of the first unknown or out-of-range parameter.
    pub fn apply(&self, cfg: &mut PipeConfig) -> Result<(), String> {
        for p in &self.params {
            cfg.set(&p.key, p.value)?;
        }
        Ok(())
    }
}

/// A declarative experiment: named axes whose cross product is the set of
/// simulation cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (used in cell labels and `--filter`).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Workload axis.
    pub workloads: Vec<WorkloadRef>,
    /// Extension axis.
    pub exts: Vec<Ext>,
    /// Processor-width axis.
    pub ways: Vec<usize>,
    /// Configuration-override axis; empty means "paper configuration
    /// as-is" (one implicit empty override set).
    pub overrides: Vec<OverrideSet>,
    /// Dynamic-instruction budget per cell.
    pub instr_limit: u64,
}

impl Scenario {
    /// An empty scenario with the default instruction budget.
    #[must_use]
    pub fn new(name: &str, description: &str) -> Self {
        Self {
            name: name.to_owned(),
            description: description.to_owned(),
            workloads: Vec::new(),
            exts: Vec::new(),
            ways: Vec::new(),
            overrides: Vec::new(),
            instr_limit: DEFAULT_INSTR_LIMIT,
        }
    }

    /// Adds kernels to the workload axis.
    #[must_use]
    pub fn kernels<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.workloads
            .extend(names.into_iter().map(|n| WorkloadRef::Kernel(n.into())));
        self
    }

    /// Adds applications to the workload axis.
    #[must_use]
    pub fn apps<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.workloads
            .extend(names.into_iter().map(|n| WorkloadRef::App(n.into())));
        self
    }

    /// Sets the extension axis.
    #[must_use]
    pub fn exts(mut self, exts: impl IntoIterator<Item = Ext>) -> Self {
        self.exts.extend(exts);
        self
    }

    /// Sets the width axis.
    #[must_use]
    pub fn ways(mut self, ways: impl IntoIterator<Item = usize>) -> Self {
        self.ways.extend(ways);
        self
    }

    /// Adds an override axis sweeping one parameter over `values` (each
    /// value becomes one override set).
    #[must_use]
    pub fn override_axis(mut self, key: &str, values: impl IntoIterator<Item = u64>) -> Self {
        self.overrides
            .extend(values.into_iter().map(|v| OverrideSet::single(key, v)));
        self
    }

    /// Sets the per-cell instruction budget.
    #[must_use]
    pub fn instr_limit(mut self, limit: u64) -> Self {
        self.instr_limit = limit;
        self
    }

    /// The override axis with the implicit empty set when none is given.
    fn override_sets(&self) -> Vec<OverrideSet> {
        if self.overrides.is_empty() {
            vec![OverrideSet::default()]
        } else {
            self.overrides.clone()
        }
    }

    /// Expands the axes into cells, workload-major (then override, width,
    /// extension) — a deterministic order every consumer can rely on.
    #[must_use]
    pub fn expand(&self) -> Vec<Cell> {
        let sets = self.override_sets();
        let mut cells = Vec::new();
        for w in &self.workloads {
            for o in &sets {
                for way in &self.ways {
                    for ext in &self.exts {
                        cells.push(Cell {
                            scenario: self.name.clone(),
                            workload: w.clone(),
                            ext: *ext,
                            way: *way,
                            overrides: o.clone(),
                            instr_limit: self.instr_limit,
                        });
                    }
                }
            }
        }
        cells
    }

    /// The distinct processor configurations this scenario simulates, in
    /// override-major (then width, extension) order.  Workloads do not
    /// affect the configuration, so the list has
    /// `overrides × ways × exts` entries.
    ///
    /// # Errors
    ///
    /// Returns the message of the first invalid width, override key or
    /// out-of-range override.
    pub fn configs(&self) -> Result<Vec<PipeConfig>, String> {
        let mut out = Vec::new();
        for o in &self.override_sets() {
            for way in &self.ways {
                for ext in &self.exts {
                    out.push(resolve_config(*way, *ext, o)?);
                }
            }
        }
        Ok(out)
    }
}

/// One point of a sweep: a workload on a fully determined configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// The scenario this cell came from.
    pub scenario: String,
    /// The workload to simulate.
    pub workload: WorkloadRef,
    /// The multimedia extension.
    pub ext: Ext,
    /// Processor width.
    pub way: usize,
    /// Configuration overrides on top of the paper machine.
    pub overrides: OverrideSet,
    /// Dynamic-instruction budget.
    pub instr_limit: u64,
}

impl Cell {
    /// Stable display label, `scenario/workload/ext/Nway[/k=v]`.
    #[must_use]
    pub fn label(&self) -> String {
        let mut s = format!(
            "{}/{}/{}/{}way",
            self.scenario,
            self.workload.name(),
            self.ext,
            self.way
        );
        if !self.overrides.is_empty() {
            s.push('/');
            s.push_str(&self.overrides.label());
        }
        s
    }

    /// The fully resolved processor configuration for this cell.
    ///
    /// # Errors
    ///
    /// Returns a message for an invalid width, an unknown override key or
    /// an override outside the model's range ([`PipeConfig::validate`]).
    pub fn config(&self) -> Result<PipeConfig, String> {
        resolve_config(self.way, self.ext, &self.overrides)
    }
}

fn resolve_config(way: usize, ext: Ext, overrides: &OverrideSet) -> Result<PipeConfig, String> {
    if ![2, 4, 8].contains(&way) {
        return Err(format!("way must be 2, 4 or 8, got {way}"));
    }
    let mut cfg = PipeConfig::paper(way, ext);
    overrides.apply(&mut cfg)?;
    cfg.validate()?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_workload_major_and_deterministic() {
        let s = Scenario::new("t", "test")
            .kernels(["idct", "rgb"])
            .exts([Ext::Mmx64, Ext::Vmmx128])
            .ways([2, 4]);
        let cells = s.expand();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].label(), "t/idct/mmx64/2way");
        assert_eq!(cells[1].label(), "t/idct/vmmx128/2way");
        assert_eq!(cells[2].label(), "t/idct/mmx64/4way");
        assert_eq!(cells[4].label(), "t/rgb/mmx64/2way");
        assert_eq!(cells, s.expand());
    }

    #[test]
    fn override_axis_multiplies_cells_and_labels() {
        let s = Scenario::new("a", "ablation")
            .kernels(["idct"])
            .exts([Ext::Vmmx128])
            .ways([2])
            .override_axis("lanes", [1, 2, 4]);
        let cells = s.expand();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[2].label(), "a/idct/vmmx128/2way/lanes=4");
        let cfg = cells[2].config().expect("valid override");
        assert_eq!(cfg.lanes, 4);
    }

    #[test]
    fn bad_way_and_bad_key_are_errors_not_panics() {
        let s = Scenario::new("b", "bad")
            .kernels(["idct"])
            .exts([Ext::Mmx64])
            .ways([3]);
        assert!(s.expand()[0].config().is_err());
        let s = Scenario::new("b", "bad key")
            .kernels(["idct"])
            .exts([Ext::Mmx64])
            .ways([2])
            .override_axis("no-such-knob", [1]);
        assert!(s.expand()[0].config().unwrap_err().contains("no-such-knob"));
        let s = Scenario::new("b", "bad value")
            .kernels(["idct"])
            .exts([Ext::Mmx64])
            .ways([2])
            .override_axis("int_fus", [256]);
        assert!(s.expand()[0].config().unwrap_err().contains("int_fus"));
        assert!(s.configs().unwrap_err().contains("int_fus"));
    }

    #[test]
    fn scenario_roundtrips_through_json() {
        let s = Scenario::new("rt", "round-trip")
            .kernels(["idct"])
            .apps(["jpegdec"])
            .exts([Ext::Mmx64, Ext::Vmmx64])
            .ways([2, 8])
            .override_axis("rob", [16, 64]);
        let text = serde_json::to_string(&s).expect("serializes");
        let back: Scenario = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    fn unknown_workload_reports_its_name() {
        let w = WorkloadRef::Kernel("nope".to_owned());
        assert!(w.build(Ext::Mmx64).unwrap_err().contains("nope"));
        let w = WorkloadRef::App("nope".to_owned());
        assert!(w.build(Ext::Mmx64).unwrap_err().contains("nope"));
    }
}
