//! Memory-image layout helper.
//!
//! Kernels and applications receive pointers to their inputs in argument
//! registers; [`Layout`] hands out non-overlapping, aligned regions of the
//! machine's flat memory image for the harness to fill, then builds the
//! machine with an image just large enough to hold them
//! ([`Layout::machine`]).

use crate::Machine;
use simdsim_isa::Ext;

/// Bump allocator over a workload's memory image.
#[derive(Debug, Clone)]
pub struct Layout {
    next: u64,
}

impl Default for Layout {
    fn default() -> Self {
        Self::new()
    }
}

impl Layout {
    /// Granularity of an image: [`Layout::image_bytes`] rounds up to it.
    pub const PAGE: u64 = 4096;
    /// Largest image a layout hands out (4 MiB).
    pub const MAX_IMAGE: u64 = 1 << 22;

    /// Creates an empty layout.  The first 64 bytes are reserved
    /// (null-pointer guard).
    #[must_use]
    pub fn new() -> Self {
        Self { next: 64 }
    }

    /// Reserves `bytes` bytes aligned to `align` and returns the address.
    ///
    /// # Panics
    ///
    /// Panics when the reservation would grow the image past
    /// [`Layout::MAX_IMAGE`] or `align` is not a power of two.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.next + align - 1) & !(align - 1);
        assert!(
            addr + bytes <= Self::MAX_IMAGE,
            "memory image exhausted: need {bytes} at {addr:#x}, image is at most {:#x}",
            Self::MAX_IMAGE
        );
        self.next = addr + bytes;
        addr
    }

    /// Reserves space for `n` elements of `elem_bytes` each, 64-byte
    /// aligned (cache-line aligned, matching how media frameworks allocate
    /// frame buffers).
    pub fn alloc_array(&mut self, n: u64, elem_bytes: u64) -> u64 {
        self.alloc(n * elem_bytes, 64)
    }

    /// Bytes consumed so far.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.next
    }

    /// Size of the image this layout needs: [`Layout::used`] rounded up
    /// to a whole [`Layout::PAGE`].
    #[must_use]
    pub fn image_bytes(&self) -> u64 {
        self.next.next_multiple_of(Self::PAGE)
    }

    /// A zeroed machine for extension `ext` whose image is
    /// [`Layout::image_bytes`] long.  Allocate every region first: an
    /// address reserved after this call lies outside the machine's image.
    #[must_use]
    pub fn machine(&self, ext: Ext) -> Machine {
        Machine::new(ext, self.image_bytes() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_respected() {
        let mut l = Layout::new();
        let a = l.alloc(3, 1);
        let b = l.alloc(16, 16);
        assert_eq!(b % 16, 0);
        assert!(b >= a + 3);
        let c = l.alloc_array(10, 2);
        assert_eq!(c % 64, 0);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut l = Layout::new();
        let _ = l.alloc(Layout::MAX_IMAGE, 1);
    }

    #[test]
    fn image_is_use_rounded_to_a_page() {
        let mut l = Layout::new();
        assert_eq!(l.image_bytes(), Layout::PAGE);
        l.alloc(Layout::PAGE - 64, 1);
        assert_eq!(l.used(), Layout::PAGE);
        assert_eq!(l.image_bytes(), Layout::PAGE);
        l.alloc(1, 1);
        assert_eq!(l.image_bytes(), 2 * Layout::PAGE);
        let m = l.machine(Ext::Vmmx64);
        assert_eq!(m.mem_size() as u64, 2 * Layout::PAGE);
        assert_eq!(m.ext(), Ext::Vmmx64);
    }
}
