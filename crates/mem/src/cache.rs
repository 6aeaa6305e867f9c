//! A set-associative cache tag model with LRU replacement.

use serde::{Deserialize, Serialize};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Access latency in cycles.
    pub latency: u64,
    /// Number of ports.
    pub ports: usize,
    /// Port width in bytes.
    pub port_width: usize,
    /// Number of banks (informational; bank conflicts are folded into the
    /// port model).
    pub banks: usize,
}

impl CacheConfig {
    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.size / (self.line * self.assoc)
    }
}

/// Hit/miss counters of one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Lines invalidated by the coherency protocol.
    pub invalidations: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]` (0 when no accesses were made).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// A set-associative cache tag array with LRU replacement.
///
/// The tag store is a single flat array indexed by `set * assoc` so a
/// lookup touches one contiguous cache-resident slice; set selection is a
/// shift-and-mask when the geometry is a power of two (it always is for
/// the paper's Table IV hierarchies), with a modulo fallback otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    assoc: usize,
    nsets: usize,
    line_shift: u32,
    /// `nsets - 1` when the set count is a power of two.
    set_mask: Option<u64>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty (cold) cache.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two or the geometry is
    /// inconsistent.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let mut c = Self {
            lines: Vec::new(),
            assoc: 0,
            nsets: 0,
            line_shift: 0,
            set_mask: None,
            cfg,
            tick: 0,
            stats: CacheStats::default(),
        };
        c.reset(cfg);
        c
    }

    /// Empties the cache in place under a (possibly new) geometry: the
    /// result equals [`Cache::new`]`(cfg)`, but the tag array's allocation
    /// is reused, so resetting to the same geometry allocates nothing.
    ///
    /// # Panics
    ///
    /// As [`Cache::new`].
    pub fn reset(&mut self, cfg: CacheConfig) {
        assert!(
            cfg.line.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.sets() > 0, "cache too small for its line size/assoc");
        let nsets = cfg.sets();
        self.lines.clear();
        self.lines.resize(nsets * cfg.assoc, Line::default());
        self.assoc = cfg.assoc;
        self.nsets = nsets;
        self.line_shift = cfg.line.trailing_zeros();
        self.set_mask = nsets.is_power_of_two().then(|| nsets as u64 - 1);
        self.cfg = cfg;
        self.tick = 0;
        self.stats = CacheStats::default();
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = match self.set_mask {
            Some(m) => (line & m) as usize,
            None => (line as usize) % self.nsets,
        };
        (set, line)
    }

    /// Looks up the line containing `addr`, installing it on a miss.
    /// Returns `true` on a hit.  `store` marks the line dirty.
    pub fn access(&mut self, addr: u64, store: bool) -> bool {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        let lines = &mut self.lines[set * self.assoc..(set + 1) * self.assoc];
        if let Some(l) = lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            l.lru = self.tick;
            l.dirty |= store;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // Evict LRU.
        let victim = lines
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("non-zero associativity");
        if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
        }
        *victim = Line {
            tag,
            valid: true,
            dirty: store,
            lru: self.tick,
        };
        false
    }

    /// Probes without installing. Returns `true` on a hit.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.lines[set * self.assoc..(set + 1) * self.assoc]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates the line containing `addr`; returns `true` when the
    /// line was present and dirty (a writeback is required).
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        for l in &mut self.lines[set * self.assoc..(set + 1) * self.assoc] {
            if l.valid && l.tag == tag {
                l.valid = false;
                self.stats.invalidations += 1;
                return l.dirty;
            }
        }
        false
    }

    /// Iterates over the line-aligned addresses covered by
    /// `[addr, addr+len)`.
    pub fn lines_covering(&self, addr: u64, len: u64) -> impl Iterator<Item = u64> + use<> {
        let shift = self.line_shift;
        let first = addr >> shift;
        let last = (addr + len.max(1) - 1) >> shift;
        (first..=last).map(move |l| l << shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size: 1024,
            assoc: 2,
            line: 32,
            latency: 3,
            ports: 1,
            port_width: 8,
            banks: 1,
        })
    }

    #[test]
    fn hit_after_install() {
        let mut c = small();
        assert!(!c.access(0x100, false));
        assert!(c.access(0x100, false));
        assert!(c.access(0x11f, false), "same line");
        assert!(!c.access(0x120, false), "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction() {
        let mut c = small();
        let sets = c.config().sets(); // 16
        let way_stride = (sets * 32) as u64;
        c.access(0, false);
        c.access(way_stride, false);
        c.access(0, false); // refresh line 0
        c.access(2 * way_stride, false); // evicts way_stride
        assert!(c.probe(0));
        assert!(!c.probe(way_stride));
    }

    #[test]
    fn invalidate_reports_dirty() {
        let mut c = small();
        c.access(0x40, true);
        assert!(c.invalidate(0x40));
        assert!(!c.probe(0x40));
        assert!(!c.invalidate(0x40), "already gone");
    }

    #[test]
    fn writeback_counted() {
        let mut c = small();
        let sets = c.config().sets();
        let way_stride = (sets * 32) as u64;
        c.access(0, true);
        c.access(way_stride, false);
        c.access(2 * way_stride, false); // evicts dirty line 0
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn reset_equals_new_after_use_and_on_a_new_geometry() {
        let mut c = small();
        for a in (0..4096).step_by(24) {
            c.access(a, a % 3 == 0);
        }
        c.invalidate(0x40);
        let cfg = *c.config();
        c.reset(cfg);
        assert_eq!(c, Cache::new(cfg));

        // Different geometry: more sets, fewer ways, longer lines.
        let other = CacheConfig {
            size: 4096,
            assoc: 1,
            line: 64,
            ..cfg
        };
        c.access(0x100, true);
        c.reset(other);
        assert_eq!(c, Cache::new(other));
        assert!(!c.access(0x100, false), "reset cache is cold");
    }

    #[test]
    fn lines_covering_range() {
        let c = small();
        let v: Vec<u64> = c.lines_covering(0x21, 0x40).collect();
        assert_eq!(v, vec![0x20, 0x40, 0x60]);
        let single: Vec<u64> = c.lines_covering(0x20, 1).collect();
        assert_eq!(single, vec![0x20]);
    }
}
