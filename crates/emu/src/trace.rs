//! Dynamic instruction records streamed from the emulator to consumers
//! (the timing model, statistics collectors, debuggers).

use simdsim_isa::{DecodedInstr, Instr, Region};

/// One memory access performed by a dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// First byte address.
    pub addr: u64,
    /// Bytes per row (scalar/SIMD accesses have one row).
    pub row_bytes: u16,
    /// Number of rows (matrix accesses transfer `VL` rows).
    pub rows: u16,
    /// Byte distance between consecutive rows.
    pub stride: i64,
    /// `true` for stores.
    pub store: bool,
    /// `true` when the access uses the vector path (bypasses L1, goes to
    /// the L2 vector cache) — matrix accesses and matrix-row SIMD accesses.
    pub vector_path: bool,
}

impl MemAccess {
    /// `true` when rows are adjacent in memory (unit stride), the case the
    /// vector cache serves at full port bandwidth.
    #[must_use]
    pub fn unit_stride(&self) -> bool {
        self.rows <= 1 || self.stride == i64::from(self.row_bytes)
    }

    /// Total bytes transferred.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        u64::from(self.row_bytes) * u64::from(self.rows)
    }
}

/// One dynamic (committed-path) instruction, in program order.
#[derive(Debug, Clone, Copy)]
pub struct DynInstr {
    /// Static instruction index (program counter).
    pub pc: u32,
    /// The instruction itself.
    pub instr: Instr,
    /// Region tag for Figure-6 style cycle attribution.
    pub region: Region,
    /// `Some(target)` when a branch/jump was taken.
    pub taken: Option<u32>,
    /// Memory access performed, if any.
    pub mem: Option<MemAccess>,
    /// Effective vector length for full-VL matrix operations (1 otherwise).
    pub vl: u8,
}

/// Consumer of the dynamic instruction stream.
///
/// The emulator pushes instructions in commit order; implementations range
/// from simple counters to the full out-of-order timing model.  Each push
/// also hands the instruction's predecoded static metadata
/// ([`DecodedInstr`]), so consumers on the hot path never recompute
/// def/use sets, classes or latencies per dynamic instruction.
pub trait TraceSink {
    /// Called once per committed dynamic instruction.
    fn push(&mut self, di: &DynInstr, dec: &DecodedInstr);
}

/// A sink that discards the stream (functional-only runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn push(&mut self, _di: &DynInstr, _dec: &DecodedInstr) {}
}

/// A sink that stores the whole stream (tests and debugging only — full
/// application traces are large).
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// The collected trace.
    pub trace: Vec<DynInstr>,
}

impl TraceSink for VecSink {
    fn push(&mut self, di: &DynInstr, _dec: &DecodedInstr) {
        self.trace.push(*di);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_detection() {
        let a = MemAccess {
            addr: 0,
            row_bytes: 16,
            rows: 8,
            stride: 16,
            store: false,
            vector_path: true,
        };
        assert!(a.unit_stride());
        assert_eq!(a.total_bytes(), 128);
        let b = MemAccess { stride: 720, ..a };
        assert!(!b.unit_stride());
        let scalar = MemAccess {
            rows: 1,
            stride: 0,
            ..a
        };
        assert!(scalar.unit_stride());
    }
}
