//! Deterministic workload data generation.
//!
//! All kernel and application inputs come from a xorshift generator with a
//! fixed seed so every run (and every ISA variant of the same kernel) sees
//! identical data.

/// Deterministic xorshift64* generator.
#[derive(Debug, Clone)]
pub struct Rng64(u64);

impl Rng64 {
    /// Creates a generator; `seed` must be non-zero (0 is replaced).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform byte.
    pub fn next_u8(&mut self) -> u8 {
        (self.next_u64() >> 32) as u8
    }

    /// Uniform value in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform `i16` in `[lo, hi]`.
    pub fn i16_in(&mut self, lo: i16, hi: i16) -> i16 {
        let span = i64::from(hi) - i64::from(lo) + 1;
        (i64::from(lo) + (self.next_u64() % span as u64) as i64) as i16
    }

    /// Fills a byte buffer.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for b in buf {
            *b = self.next_u8();
        }
    }

    /// A vector of `n` uniform bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut v = vec![0u8; n];
        self.fill_bytes(&mut v);
        v
    }

    /// A vector of `n` uniform `i16`s in `[lo, hi]`.
    pub fn i16s_in(&mut self, n: usize, lo: i16, hi: i16) -> Vec<i16> {
        (0..n).map(|_| self.i16_in(lo, hi)).collect()
    }
}

/// A "natural image"-flavoured byte plane: smooth gradients plus noise,
/// so motion-estimation and DCT workloads see realistic spatial
/// correlation rather than white noise.
#[must_use]
pub fn smooth_plane(w: usize, h: usize, seed: u64) -> Vec<u8> {
    // The three gradient terms depend on x, y and x + y alone, so they are
    // tabulated once; the per-pixel sum keeps the original order of
    // operations, so the plane is bit-identical to evaluating them inline.
    let sx: Vec<f64> = (0..w).map(|x| 60.0 * ((x as f64) * 0.07).sin()).collect();
    let cy: Vec<f64> = (0..h).map(|y| 40.0 * ((y as f64) * 0.11).cos()).collect();
    let sd: Vec<f64> = (0..w + h)
        .map(|d| 20.0 * ((d as f64) * 0.023).sin())
        .collect();
    let mut rng = Rng64::new(seed);
    let mut out = vec![0u8; w * h];
    for y in 0..h {
        for x in 0..w {
            let base = 96.0 + sx[x] + cy[y] + sd[x + y];
            let noise = (rng.next_u64() % 17) as f64 - 8.0;
            out[y * w + x] = (base + noise).clamp(0.0, 255.0) as u8;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respected() {
        let mut r = Rng64::new(3);
        for _ in 0..1000 {
            let v = r.i16_in(-300, 255);
            assert!((-300..=255).contains(&v));
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn smooth_plane_has_structure() {
        let p = smooth_plane(64, 8, 1);
        assert_eq!(p.len(), 512);
        // Neighbouring pixels correlate: mean |dx| well below white noise (~85).
        let mut diff = 0u64;
        for i in 1..p.len() {
            diff += u64::from(p[i].abs_diff(p[i - 1]));
        }
        assert!(diff / (p.len() as u64 - 1) < 40);
    }

    /// FNV-1a over the plane bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn smooth_plane_digests_are_pinned() {
        // Every (w, h, seed) the kernels, apps and their tests draw, with
        // the digests of the per-pixel sin/cos formulation: the tabulated
        // terms must reproduce it bit for bit.
        let cases: &[(usize, usize, u64, u64)] = &[
            (800, 16, 11, 0x17dd3b767bebf593),
            (800, 16, 23, 0x83f501a6511d110a),
            (800, 4, 31, 0x48954800e0ce484d),
            (800, 4, 41, 0x3486582df3160384),
            (800, 8, 51, 0xea9f0d3070932e0d),
            (64, 16, 1, 0xdb4a3011cc99631f),
            (64, 8, 1, 0xbda1e572b32c77ac),
            (256, 16, 91, 0xd9f1f652f40426d1),
            (128, 128, 1, 0xeba8e870bad01ccf),
            (128, 128, 2, 0xf78a7e3e1124faea),
            (128, 128, 3, 0x8a9390fb86e0de46),
            (128, 128, 201, 0x74a07c3df4ca37dc),
            (128, 128, 203, 0x289811e109a485b3),
            (128, 128, 205, 0x348b17f47bcd45b9),
            (96, 64, 301, 0x6bdee4c22731c3a5),
            (48, 32, 305, 0xbaea9ba1bfb36c46),
            (48, 32, 307, 0x4100b61b275e7228),
            (48, 32, 309, 0x8dfb702163c124f7),
            (48, 32, 311, 0x87aad5f5ff0bceba),
        ];
        for &(w, h, seed, want) in cases {
            let got = fnv1a(&smooth_plane(w, h, seed));
            assert_eq!(got, want, "smooth_plane({w}, {h}, {seed})");
        }
    }
}
