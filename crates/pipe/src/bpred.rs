//! Gshare branch predictor.

/// A gshare predictor: global history XOR-indexed into a table of 2-bit
/// saturating counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gshare {
    table: Vec<u8>,
    history: u64,
    mask: u64,
}

impl Gshare {
    /// Creates a predictor with `entries` counters (rounded up to a power
    /// of two).
    #[must_use]
    pub fn new(entries: usize) -> Self {
        let mut p = Self {
            table: Vec::new(),
            history: 0,
            mask: 0,
        };
        p.reset(entries);
        p
    }

    /// Returns the predictor to its initial state with `entries`
    /// counters.  Equals [`Gshare::new`]`(entries)`, reusing the counter
    /// table's allocation.
    pub fn reset(&mut self, entries: usize) {
        let n = entries.next_power_of_two().max(16);
        self.table.clear();
        self.table.resize(n, 1); // weakly not-taken
        self.history = 0;
        self.mask = (n - 1) as u64;
    }

    fn index(&self, pc: u32) -> usize {
        ((u64::from(pc) ^ self.history) & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc`.
    #[must_use]
    pub fn predict(&self, pc: u32) -> bool {
        self.table[self.index(pc)] >= 2
    }

    /// Updates the counter and global history with the actual outcome.
    pub fn update(&mut self, pc: u32, taken: bool) {
        let i = self.index(pc);
        let c = &mut self.table[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = ((self.history << 1) | u64::from(taken)) & self.mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_loop_branch() {
        let mut p = Gshare::new(1024);
        let pc = 0x40;
        // Train: always taken.
        for _ in 0..16 {
            p.update(pc, true);
        }
        assert!(p.predict(pc));
        // A few not-taken flips it back eventually.
        for _ in 0..16 {
            p.update(pc, false);
        }
        assert!(!p.predict(pc));
    }

    #[test]
    fn reset_equals_new_after_use_and_on_a_new_size() {
        let mut p = Gshare::new(1024);
        for i in 0..64 {
            p.update(i * 4, i % 3 != 0);
        }
        p.reset(1024);
        assert_eq!(p, Gshare::new(1024));
        p.update(0x40, true);
        p.reset(4096);
        assert_eq!(p, Gshare::new(4096));
        p.reset(3);
        assert_eq!(p, Gshare::new(3), "sizes still round up to at least 16");
    }

    #[test]
    fn distinguishes_pcs() {
        let mut p = Gshare::new(4096);
        for _ in 0..8 {
            p.update(0x10, true);
            p.update(0x20, false);
        }
        // With alternating history both still mostly learned.
        let _ = p.predict(0x10);
        let _ = p.predict(0x20);
    }
}
