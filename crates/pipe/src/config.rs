//! Processor configurations (the paper's Table III).

use serde::{Deserialize, Serialize};
use simdsim_isa::Ext;
use simdsim_mem::MemConfig;

/// Parameters of one modelled processor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipeConfig {
    /// Fetch/decode/graduate width (2, 4 or 8).
    pub way: usize,
    /// The multimedia extension implemented.
    pub ext: Ext,
    /// Re-order buffer entries.
    pub rob: usize,
    /// Unified issue-queue (scheduler window) entries; dispatch stalls
    /// when full.  This is what keeps wide cores from scaling linearly on
    /// scalar code.
    pub iq: usize,
    /// Physical integer registers.
    pub phys_int: usize,
    /// Physical floating-point registers.
    pub phys_fp: usize,
    /// Physical SIMD/matrix registers (Table III: 40/64/96 for MMX,
    /// 20/36/64 for VMMX).
    pub phys_simd: usize,
    /// Integer ALUs.
    pub int_fus: usize,
    /// Floating-point units.
    pub fp_fus: usize,
    /// SIMD instructions issued per cycle.
    pub simd_issue: usize,
    /// SIMD functional units.
    pub simd_fus: usize,
    /// Parallel vector lanes per SIMD unit (1 on MMX, 4 on VMMX).
    pub lanes: usize,
    /// Scalar memory ports (equals the L1 port count).
    pub mem_fus: usize,
    /// Front-end depth in cycles (decode + rename + dispatch).
    pub frontend_depth: u64,
    /// Cycles between branch resolution and fetch restart on a mispredict.
    pub redirect_penalty: u64,
    /// Branch predictor entries.
    pub bpred_entries: usize,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
}

impl PipeConfig {
    /// The paper's Table III configuration for `way` ∈ {2,4,8} and the
    /// given extension (plus the Table IV memory hierarchy).
    ///
    /// # Panics
    ///
    /// Panics when `way` is not 2, 4 or 8.
    #[must_use]
    pub fn paper(way: usize, ext: Ext) -> Self {
        let idx = match way {
            2 => 0,
            4 => 1,
            8 => 2,
            _ => panic!("way must be 2, 4 or 8"),
        };
        let matrix = ext.is_matrix();
        let phys_simd = if matrix {
            [20, 36, 64][idx]
        } else {
            [40, 64, 96][idx]
        };
        let simd_issue = if matrix {
            [1, 2, 3][idx]
        } else {
            [2, 4, 8][idx]
        };
        let mem_fus = if matrix {
            [1, 1, 2][idx]
        } else {
            [1, 2, 4][idx]
        };
        Self {
            way,
            ext,
            // R10000-like active list, scaling sub-linearly with width
            // (wide machines are window-limited, as the paper's weak
            // superscalar scaling shows).
            rob: [32, 48, 72][idx],
            iq: [16, 24, 36][idx],
            phys_int: [48, 64, 96][idx],
            phys_fp: [48, 64, 96][idx],
            phys_simd,
            int_fus: [2, 4, 8][idx],
            fp_fus: [1, 2, 4][idx],
            simd_issue,
            simd_fus: simd_issue,
            lanes: if matrix { 4 } else { 1 },
            mem_fus,
            frontend_depth: 4,
            redirect_penalty: 5,
            bpred_entries: 4096,
            mem: MemConfig::paper(way, matrix),
        }
    }

    /// Number of logical registers in the SIMD/matrix file (32 for MMX,
    /// 16 for VMMX).
    #[must_use]
    pub fn logical_simd(&self) -> usize {
        if self.ext.is_matrix() {
            simdsim_isa::NUM_MREGS
        } else {
            simdsim_isa::NUM_VREGS
        }
    }

    /// Maximum in-flight SIMD-register-writing instructions before rename
    /// stalls.
    #[must_use]
    pub fn simd_inflight(&self) -> usize {
        self.phys_simd.saturating_sub(self.logical_simd()).max(1)
    }

    /// Short label for reports, e.g. `"4way-vmmx128"`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}way-{}", self.way, self.ext)
    }

    /// Every parameter key accepted by [`PipeConfig::set`].  Width and
    /// extension are scenario axes, not overridable knobs, so they are
    /// deliberately absent.
    pub const PARAMS: &'static [&'static str] = &[
        "rob",
        "iq",
        "phys_int",
        "phys_fp",
        "phys_simd",
        "int_fus",
        "fp_fus",
        "simd_issue",
        "simd_fus",
        "lanes",
        "mem_fus",
        "frontend_depth",
        "redirect_penalty",
        "bpred_entries",
        "l1.size",
        "l1.assoc",
        "l1.line",
        "l1.latency",
        "l1.ports",
        "l1.port_width",
        "l1.banks",
        "l2.size",
        "l2.assoc",
        "l2.line",
        "l2.latency",
        "l2.ports",
        "l2.port_width",
        "l2.banks",
        "mem.latency",
        "mem.pipeline",
    ];

    /// Sets one parameter by name — the hook that lets declarative
    /// sweeps override arbitrary knobs without bespoke driver closures.
    /// See [`PipeConfig::PARAMS`] for the accepted keys.
    ///
    /// # Errors
    ///
    /// Returns a message naming the key when it is unknown or the value
    /// does not fit the field.
    pub fn set(&mut self, key: &str, value: u64) -> Result<(), String> {
        let as_usize = |v: u64| -> Result<usize, String> {
            usize::try_from(v).map_err(|_| format!("value {v} out of range for `{key}`"))
        };
        match key {
            "rob" => self.rob = as_usize(value)?,
            "iq" => self.iq = as_usize(value)?,
            "phys_int" => self.phys_int = as_usize(value)?,
            "phys_fp" => self.phys_fp = as_usize(value)?,
            "phys_simd" => self.phys_simd = as_usize(value)?,
            "int_fus" => self.int_fus = as_usize(value)?,
            "fp_fus" => self.fp_fus = as_usize(value)?,
            "simd_issue" => self.simd_issue = as_usize(value)?,
            "simd_fus" => self.simd_fus = as_usize(value)?,
            "lanes" => self.lanes = as_usize(value)?,
            "mem_fus" => self.mem_fus = as_usize(value)?,
            "frontend_depth" => self.frontend_depth = value,
            "redirect_penalty" => self.redirect_penalty = value,
            "bpred_entries" => self.bpred_entries = as_usize(value)?,
            "l1.size" => self.mem.l1.size = as_usize(value)?,
            "l1.assoc" => self.mem.l1.assoc = as_usize(value)?,
            "l1.line" => self.mem.l1.line = as_usize(value)?,
            "l1.latency" => self.mem.l1.latency = value,
            "l1.ports" => self.mem.l1.ports = as_usize(value)?,
            "l1.port_width" => self.mem.l1.port_width = as_usize(value)?,
            "l1.banks" => self.mem.l1.banks = as_usize(value)?,
            "l2.size" => self.mem.l2.size = as_usize(value)?,
            "l2.assoc" => self.mem.l2.assoc = as_usize(value)?,
            "l2.line" => self.mem.l2.line = as_usize(value)?,
            "l2.latency" => self.mem.l2.latency = value,
            "l2.ports" => self.mem.l2.ports = as_usize(value)?,
            "l2.port_width" => self.mem.l2.port_width = as_usize(value)?,
            "l2.banks" => self.mem.l2.banks = as_usize(value)?,
            "mem.latency" => self.mem.mem_latency = value,
            "mem.pipeline" => self.mem.mem_pipeline = value,
            _ => {
                return Err(format!(
                    "unknown config parameter `{key}` (see PipeConfig::PARAMS)"
                ))
            }
        }
        Ok(())
    }

    /// Largest window, physical register file or predictor table the
    /// model accepts.  These size per-pipeline buffers, so the cap bounds
    /// a cell's memory.
    pub const MAX_ENTRIES: usize = 1 << 20;
    /// Largest cache the model accepts, in bytes (bounds the tag arrays).
    pub const MAX_CACHE_BYTES: usize = 1 << 26;
    /// Largest latency or penalty the model accepts, in cycles.
    pub const MAX_LATENCY: u64 = 1 << 20;

    /// Checks that the model can run this configuration: without it an
    /// out-of-range knob hangs the pipeline (an issue count of 256 wraps
    /// the ring's `u8` limit to 0, so no slot is ever free) or panics it
    /// (an empty FU pool or ROB, a zero lane count, a non-power-of-two
    /// line, a cache with no set).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        fn within<T: PartialOrd + std::fmt::Display>(
            key: &str,
            v: T,
            lo: T,
            hi: T,
        ) -> Result<(), String> {
            if lo <= v && v <= hi {
                Ok(())
            } else {
                Err(format!("`{key}` = {v} is outside {lo}..={hi}"))
            }
        }
        // Issue counts become `u8` per-cycle limits in the resource ring
        // (256 would wrap to 0); widths and unit pools must be non-empty.
        for (key, v) in [
            ("way", self.way),
            ("int_fus", self.int_fus),
            ("fp_fus", self.fp_fus),
            ("simd_issue", self.simd_issue),
            ("simd_fus", self.simd_fus),
            ("mem_fus", self.mem_fus),
            ("lanes", self.lanes),
            ("l1.ports", self.mem.l1.ports),
        ] {
            within(key, v, 1, 255)?;
        }
        for (key, v) in [
            ("rob", self.rob),
            ("iq", self.iq),
            ("phys_int", self.phys_int),
            ("phys_fp", self.phys_fp),
            ("phys_simd", self.phys_simd),
            ("bpred_entries", self.bpred_entries),
        ] {
            within(key, v, 1, Self::MAX_ENTRIES)?;
        }
        for (key, v) in [
            ("frontend_depth", self.frontend_depth),
            ("redirect_penalty", self.redirect_penalty),
            ("l1.latency", self.mem.l1.latency),
            ("l2.latency", self.mem.l2.latency),
            ("mem.latency", self.mem.mem_latency),
            ("mem.pipeline", self.mem.mem_pipeline),
        ] {
            within(key, v, 0, Self::MAX_LATENCY)?;
        }
        let (l1, l2) = (&self.mem.l1, &self.mem.l2);
        for (key, v) in [
            ("l1.size", l1.size),
            ("l2.size", l2.size),
            ("l1.port_width", l1.port_width),
            ("l2.port_width", l2.port_width),
        ] {
            within(key, v, 1, Self::MAX_CACHE_BYTES)?;
        }
        for (level, c) in [("l1", l1), ("l2", l2)] {
            if !c.line.is_power_of_two() || c.line > c.size {
                return Err(format!(
                    "`{level}.line` = {} must be a power of two no larger than `{level}.size`",
                    c.line
                ));
            }
            // At least one set: `size / (line × assoc) ≥ 1`.
            let max_assoc = c.size / c.line;
            if c.assoc == 0 || c.assoc > max_assoc {
                return Err(format!(
                    "`{level}.assoc` = {} is outside 1..={max_assoc} (at least one set)",
                    c.assoc
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_values() {
        let c = PipeConfig::paper(4, Ext::Mmx128);
        assert_eq!(c.phys_simd, 64);
        assert_eq!(c.simd_issue, 4);
        assert_eq!(c.lanes, 1);
        assert_eq!(c.mem_fus, 2);

        let v = PipeConfig::paper(8, Ext::Vmmx128);
        assert_eq!(v.phys_simd, 64);
        assert_eq!(v.simd_issue, 3);
        assert_eq!(v.lanes, 4);
        assert_eq!(v.mem_fus, 2);
        assert_eq!(v.mem.l2.port_width, 64);
        assert_eq!(v.simd_inflight(), 64 - 16);
        assert_eq!(v.label(), "8way-vmmx128");
    }

    #[test]
    #[should_panic(expected = "way must be")]
    fn bad_way_panics() {
        let _ = PipeConfig::paper(3, Ext::Mmx64);
    }

    #[test]
    fn every_listed_param_is_settable() {
        let mut c = PipeConfig::paper(2, Ext::Vmmx128);
        for key in PipeConfig::PARAMS {
            c.set(key, 7).unwrap_or_else(|e| panic!("{key}: {e}"));
        }
        assert_eq!(c.rob, 7);
        assert_eq!(c.lanes, 7);
        assert_eq!(c.mem.l2.port_width, 7);
        assert_eq!(c.mem.mem_pipeline, 7);
    }

    #[test]
    fn paper_configs_validate() {
        for way in [2, 4, 8] {
            for ext in Ext::ALL {
                PipeConfig::paper(way, ext)
                    .validate()
                    .unwrap_or_else(|e| panic!("{way}-way {ext}: {e}"));
            }
        }
    }

    #[test]
    fn out_of_range_knobs_are_rejected_by_name() {
        for (key, value) in [
            ("int_fus", 256),
            ("int_fus", 0),
            ("simd_issue", 300),
            ("simd_fus", 0),
            ("lanes", 0),
            ("rob", 0),
            ("iq", 0),
            ("rob", 1 << 40),
            ("bpred_entries", 1 << 40),
            ("l1.line", 0),
            ("l1.line", 48),
            ("l1.assoc", 0),
            ("l1.assoc", 1 << 20),
            ("l2.size", 1 << 40),
            ("l2.port_width", 0),
            ("l1.ports", 0),
            ("mem.latency", u64::MAX),
        ] {
            let mut c = PipeConfig::paper(2, Ext::Vmmx128);
            c.set(key, value).expect("known key");
            let err = c.validate().expect_err(key);
            assert!(err.contains(key), "{key}={value}: {err}");
        }
        // The edges of the ranges are accepted.
        let mut c = PipeConfig::paper(2, Ext::Mmx64);
        c.set("int_fus", 255).expect("known key");
        c.set("l1.assoc", 1024).expect("known key"); // fully associative
        c.validate().expect("in range");
    }

    #[test]
    fn unknown_param_is_an_error_naming_the_key() {
        let mut c = PipeConfig::paper(2, Ext::Mmx64);
        let err = c.set("warp_drive", 1).unwrap_err();
        assert!(err.contains("warp_drive"), "{err}");
        // The config is untouched on error.
        assert_eq!(c, PipeConfig::paper(2, Ext::Mmx64));
    }
}
