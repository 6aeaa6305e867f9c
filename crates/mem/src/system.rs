//! The two-level memory system with stride-aware vector-cache timing.

use crate::cache::{Cache, CacheConfig, CacheStats};
use serde::{Deserialize, Serialize};
use simdsim_emu::MemAccess;

/// Configuration of the whole hierarchy (the paper's Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// L2 unified/vector cache.
    pub l2: CacheConfig,
    /// Main-memory latency in cycles.
    pub mem_latency: u64,
    /// Cycles between successive line transfers on a multi-line miss
    /// (pipelined RDRAM bursts).
    pub mem_pipeline: u64,
}

impl MemConfig {
    /// The paper's Table IV hierarchy for a given processor width
    /// (`way` ∈ {2,4,8}): L1 ports scale 1/2/4 on MMX configurations and
    /// 1/1/2 on VMMX ones; the L2 vector port is 16/32/64 bytes wide.
    #[must_use]
    pub fn paper(way: usize, matrix: bool) -> Self {
        let (l1_ports, l2_width) = match (way, matrix) {
            (2, false) => (1, 16),
            (4, false) => (2, 32),
            (8, false) => (4, 64),
            (2, true) => (1, 16),
            (4, true) => (1, 32),
            (8, true) => (2, 64),
            _ => panic!("way must be 2, 4 or 8"),
        };
        Self {
            l1: CacheConfig {
                size: 32 * 1024,
                assoc: 4,
                line: 32,
                latency: 3,
                ports: l1_ports,
                port_width: 8,
                banks: 8,
            },
            l2: CacheConfig {
                size: 512 * 1024,
                assoc: 2,
                line: 128,
                latency: 12,
                ports: 1,
                port_width: l2_width,
                banks: 2,
            },
            mem_latency: 500,
            mem_pipeline: 32,
        }
    }
}

/// Aggregate timing counters of the memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemTimingStats {
    /// Scalar/1D accesses served.
    pub scalar_accesses: u64,
    /// Vector (matrix-path) accesses served.
    pub vector_accesses: u64,
    /// Total cycles the L2 vector port was busy.
    pub l2_port_busy: u64,
    /// Vector accesses at unit stride (full port bandwidth).
    pub unit_stride_accesses: u64,
    /// Coherency writebacks forced by vector loads of dirty L1 lines.
    pub coherency_writebacks: u64,
}

/// The memory hierarchy timing model.
///
/// All methods take the current cycle (`now`) and return the cycle at
/// which the requested data is available; port conflicts push the start
/// time back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemSystem {
    cfg: MemConfig,
    l1: Cache,
    l2: Cache,
    l1_port_free: Vec<u64>,
    l2_port_free: u64,
    stats: MemTimingStats,
}

impl MemSystem {
    /// Creates a cold hierarchy.
    #[must_use]
    pub fn new(cfg: MemConfig) -> Self {
        Self {
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            l1_port_free: vec![0; cfg.l1.ports],
            l2_port_free: 0,
            cfg,
            stats: MemTimingStats::default(),
        }
    }

    /// Returns the hierarchy to its cold state under a (possibly new)
    /// configuration.  Equals [`MemSystem::new`]`(cfg)`, reusing the tag
    /// arrays and port table instead of reallocating them.
    pub fn reset(&mut self, cfg: MemConfig) {
        self.l1.reset(cfg.l1);
        self.l2.reset(cfg.l2);
        self.l1_port_free.clear();
        self.l1_port_free.resize(cfg.l1.ports, 0);
        self.l2_port_free = 0;
        self.cfg = cfg;
        self.stats = MemTimingStats::default();
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// L1 counters.
    #[must_use]
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats()
    }

    /// L2 counters.
    #[must_use]
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Timing counters.
    #[must_use]
    pub fn stats(&self) -> MemTimingStats {
        self.stats
    }

    fn alloc_l1_port(&mut self, now: u64) -> u64 {
        let port = self
            .l1_port_free
            .iter_mut()
            .min_by_key(|c| **c)
            .expect("at least one L1 port");
        let start = now.max(*port);
        *port = start + 1; // pipelined: one request per port per cycle
        start
    }

    /// A scalar or 1D-SIMD access through the L1.
    ///
    /// Returns the completion cycle.  Accesses wider than one L1 port
    /// (e.g. 128-bit SIMD loads on the 8-byte ports) occupy the port for
    /// multiple cycles.
    pub fn scalar_access(&mut self, now: u64, addr: u64, bytes: u64, store: bool) -> u64 {
        self.stats.scalar_accesses += 1;
        let start = self.alloc_l1_port(now);
        // Wide SIMD accesses take extra port beats.
        let beats = bytes.div_ceil(self.cfg.l1.port_width as u64).max(1);
        let mut done = start + self.cfg.l1.latency + (beats - 1);
        let mut worst_extra = 0u64;
        for line in self.l1.lines_covering(addr, bytes) {
            let l1_hit = self.l1.access(line, store);
            if !l1_hit {
                let l2_hit = self.l2.access(line, false);
                let extra = if l2_hit {
                    self.cfg.l2.latency
                } else {
                    self.cfg.l2.latency + self.cfg.mem_latency
                };
                worst_extra = worst_extra.max(extra);
            }
        }
        done += worst_extra;
        done
    }

    /// A vector (matrix-path) access, bypassing the L1 straight to the L2
    /// vector cache.
    ///
    /// Returns the completion cycle. Stride-one requests stream at the
    /// full port width per cycle; other strides transfer one 64-bit
    /// element per cycle (the paper's rule).
    pub fn vector_access(&mut self, now: u64, acc: &MemAccess) -> u64 {
        self.stats.vector_accesses += 1;
        let total_bytes = acc.total_bytes().max(1);
        let unit = acc.unit_stride();
        if unit {
            self.stats.unit_stride_accesses += 1;
        }
        let transfer = if unit {
            total_bytes.div_ceil(self.cfg.l2.port_width as u64)
        } else {
            // One vector element (row) per cycle at non-unit stride; rows
            // wider than the port take multiple beats.
            u64::from(acc.rows) * u64::from(acc.row_bytes).div_ceil(self.cfg.l2.port_width as u64)
        }
        .max(1);

        let start = now.max(self.l2_port_free);
        self.l2_port_free = start + transfer;
        self.stats.l2_port_busy += transfer;

        // Tag lookups + coherency over every touched line.
        let mut misses = 0u64;
        let mut coherency = 0u64;
        for r in 0..u64::from(acc.rows) {
            let row_addr = (acc.addr as i64 + acc.stride * r as i64) as u64;
            for line in self.l2.lines_covering(row_addr, u64::from(acc.row_bytes)) {
                if !self.l2.access(line, acc.store) {
                    misses += 1;
                }
                // Inclusion: keep L1 coherent with vector traffic.
                for l1_line in self
                    .l1
                    .lines_covering(line, self.cfg.l2.line.min(32) as u64)
                {
                    if acc.store {
                        if self.l1.invalidate(l1_line) {
                            coherency += 1;
                        }
                    } else if self.l1.probe(l1_line) && self.l1.invalidate(l1_line) {
                        coherency += 1;
                    }
                }
            }
        }
        self.stats.coherency_writebacks += coherency;

        let miss_penalty = if misses > 0 {
            self.cfg.mem_latency + (misses - 1) * self.cfg.mem_pipeline
        } else {
            0
        };
        let coherency_penalty = coherency * self.cfg.l1.latency;
        start + self.cfg.l2.latency + transfer + miss_penalty + coherency_penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(addr: u64, rows: u16, row_bytes: u16, stride: i64, store: bool) -> MemAccess {
        MemAccess {
            addr,
            row_bytes,
            rows,
            stride,
            store,
            vector_path: true,
        }
    }

    #[test]
    fn scalar_hit_faster_than_miss() {
        let mut m = MemSystem::new(MemConfig::paper(2, false));
        let t_miss = m.scalar_access(0, 0x1000, 8, false);
        let t_hit = m.scalar_access(t_miss, 0x1000, 8, false);
        assert!(t_miss > 500, "cold miss goes to memory: {t_miss}");
        assert_eq!(t_hit, t_miss + 3, "L1 hit latency");
    }

    #[test]
    fn unit_stride_streams_at_port_width() {
        let mut m = MemSystem::new(MemConfig::paper(8, true)); // 64-byte port
                                                               // warm the cache
        let a = acc(0, 16, 16, 16, false);
        let warm = m.vector_access(0, &a);
        let now = warm + 1;
        let t_unit = m.vector_access(now, &a);
        // 256 bytes at 64 B/cycle = 4 transfer cycles + 12 latency
        assert_eq!(t_unit, now + 12 + 4);

        let strided = acc(4096, 16, 16, 800, false);
        let warm2 = m.vector_access(t_unit, &strided);
        let now2 = warm2 + 1;
        let t_str = m.vector_access(now2, &strided);
        // One row per cycle at non-unit stride: 16 cycles + 12 latency.
        assert_eq!(t_str, now2 + 12 + 16);
    }

    #[test]
    fn l2_port_serialises_vector_accesses() {
        let mut m = MemSystem::new(MemConfig::paper(2, true));
        let a = acc(0, 16, 16, 16, false);
        let _ = m.vector_access(0, &a);
        let first_busy = m.stats().l2_port_busy;
        assert!(first_busy > 0);
        // Second access issued at cycle 0 must wait for the port.
        let t2 = m.vector_access(0, &a);
        assert!(t2 >= first_busy + 12);
    }

    #[test]
    fn vector_store_invalidates_l1() {
        let mut m = MemSystem::new(MemConfig::paper(2, true));
        let _ = m.scalar_access(0, 0x2000, 8, true); // dirty L1 line
        let st = acc(0x2000, 1, 16, 16, true);
        let _ = m.vector_access(600, &st);
        assert!(m.stats().coherency_writebacks >= 1);
        // Following scalar access misses L1 again.
        let t = m.scalar_access(1200, 0x2000, 8, false);
        assert!(t >= 1200 + 3 + 12, "must refetch from L2: {t}");
    }

    #[test]
    fn reset_equals_new_after_use_and_on_a_new_config() {
        let cfg = MemConfig::paper(2, true);
        let mut m = MemSystem::new(cfg);
        let _ = m.scalar_access(0, 0x2000, 8, true);
        let _ = m.vector_access(10, &acc(0x2000, 16, 16, 16, true));
        let _ = m.vector_access(20, &acc(0x8000, 8, 16, 800, false));
        m.reset(cfg);
        assert_eq!(m, MemSystem::new(cfg));

        // An L2 port width, L1 geometry and port count change.
        let mut other = MemConfig::paper(8, false);
        other.l2.port_width = 8;
        other.l1.size = 8 * 1024;
        other.l1.assoc = 2;
        other.l1.line = 64;
        let _ = m.scalar_access(0, 0x40, 8, false);
        m.reset(other);
        assert_eq!(m, MemSystem::new(other));
        // And back to the first, through the reused buffers.
        let _ = m.vector_access(0, &acc(0, 4, 16, 16, false));
        m.reset(cfg);
        assert_eq!(m, MemSystem::new(cfg));
    }

    #[test]
    fn paper_config_port_scaling() {
        assert_eq!(MemConfig::paper(2, false).l1.ports, 1);
        assert_eq!(MemConfig::paper(8, false).l1.ports, 4);
        assert_eq!(MemConfig::paper(8, true).l1.ports, 2);
        assert_eq!(MemConfig::paper(4, true).l2.port_width, 32);
    }
}
