//! Pure sub-word arithmetic on SIMD words.
//!
//! A SIMD word is represented as a `u128`; operations take the register
//! width in bytes (8 for the 64-bit extensions, 16 for the 128-bit ones)
//! and only the low `width` bytes participate.  All functions are pure and
//! extensively property-tested — they are the semantic ground truth the
//! kernels' correctness tests rest on.
//!
//! No operation extracts and re-inserts lanes one at a time.  Two
//! techniques cover the whole ISA:
//!
//! - **SWAR** (SIMD within a register): branch-free bit tricks on the whole
//!   `u128` for the element-wise add/sub/saturate/average/min/max/compare
//!   family, the shifts, `splat`, `psadbw`, unpack (a Morton-order spread)
//!   and the matrix transpose (recursive block swaps).
//! - **Lane arrays**: ops whose lanes need a multiply or a clamp (`Mullo`,
//!   `Mulhi`, `madd`, pack, the accumulator ops and `AccPack`) split the
//!   word into a fixed `[i8; 16]` / `[i16; 8]` / `[i32; 4]` array (via its
//!   two `u64` halves), map it with fixed-trip loops the compiler unrolls,
//!   and join it back.  64-bit lanes (rare: data movement and wide sums)
//!   are the two `u64` halves themselves.
//!
//! The per-lane definition of every op lives in `simdsim-conform`'s
//! reference interpreter; its `tests/prop.rs` checks every fast path
//! here against those oracle functions.

use simdsim_isa::{AccOp, Esz, Sat, VOp, VShiftOp, MAX_VL};

/// Extracts element `lane` of size `esz` as an unsigned value.
#[must_use]
pub fn get_lane_u(word: u128, esz: Esz, lane: usize) -> u64 {
    ((word >> (lane * esz.bits())) & esz.lane_mask()) as u64
}

/// Extracts element `lane` of size `esz` as a signed value.
#[must_use]
pub fn get_lane_i(word: u128, esz: Esz, lane: usize) -> i64 {
    let v = get_lane_u(word, esz, lane);
    match esz {
        Esz::B => v as u8 as i8 as i64,
        Esz::H => v as u16 as i16 as i64,
        Esz::W => v as u32 as i32 as i64,
        Esz::D => v as i64,
    }
}

/// Writes element `lane` of size `esz` (low bits of `val`).
#[must_use]
pub fn set_lane(word: u128, esz: Esz, lane: usize, val: u64) -> u128 {
    let shift = lane * esz.bits();
    let mask = esz.lane_mask() << shift;
    let v = ((val as u128) << shift) & mask;
    (word & !mask) | v
}

fn sat_s(v: i64, esz: Esz) -> u64 {
    let (lo, hi) = match esz {
        Esz::B => (i8::MIN as i64, i8::MAX as i64),
        Esz::H => (i16::MIN as i64, i16::MAX as i64),
        Esz::W => (i32::MIN as i64, i32::MAX as i64),
        Esz::D => (i64::MIN, i64::MAX),
    };
    (v.clamp(lo, hi) as u64) & (u64::MAX >> (64 - esz.bits()))
}

fn sat_u(v: i64, esz: Esz) -> u64 {
    let hi = match esz {
        Esz::B => u8::MAX as i64,
        Esz::H => u16::MAX as i64,
        Esz::W => u32::MAX as i64,
        Esz::D => i64::MAX, // unsigned-64 saturation clips at i64::MAX in this model
    };
    v.clamp(0, hi) as u64
}

// ---------------------------------------------------------------------------
// SWAR core
//
// Each element size has two replicated constants: `L` (a one in every lane's
// least-significant bit) and `H = L << (bits-1)` (every lane's sign bit).
// All per-lane arithmetic below is expressed so carries and borrows never
// cross a lane boundary; see each helper for the invariant that makes the
// plain `u128` add/sub safe.
// ---------------------------------------------------------------------------

/// One in the least-significant bit of every lane.
const fn lsb_ones(esz: Esz) -> u128 {
    match esz {
        Esz::B => 0x0101_0101_0101_0101_0101_0101_0101_0101,
        Esz::H => 0x0001_0001_0001_0001_0001_0001_0001_0001,
        Esz::W => 0x0000_0001_0000_0001_0000_0001_0000_0001,
        Esz::D => 0x0000_0000_0000_0001_0000_0000_0000_0001,
    }
}

/// One in the most-significant (sign) bit of every lane.
const fn msb_ones(esz: Esz) -> u128 {
    lsb_ones(esz) << (esz.bits() - 1)
}

/// The low `bits` bits of a word (all of it from 128 up).
#[inline]
const fn low_bits(bits: usize) -> u128 {
    if bits >= 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

/// The low `bits` bits of every `2 * bits`-bit group, i.e. the even lanes
/// of size `bits` (8, 16, 32 or 64).
const fn even_lanes(bits: usize) -> u128 {
    match bits {
        8 => lsb_ones(Esz::H) * 0xff,
        16 => lsb_ones(Esz::W) * 0xffff,
        32 => lsb_ones(Esz::D) * 0xffff_ffff,
        _ => u64::MAX as u128,
    }
}

/// Expands a word with ones only in lane LSB positions into full-lane
/// masks: `m * (2^bits - 1)` computed as a shift and subtract.
#[inline]
fn lane_fill(lsb: u128, bits: usize) -> u128 {
    (lsb << bits).wrapping_sub(lsb)
}

/// Full-lane mask from a word with bits only in lane sign positions.
#[inline]
fn fill_from_msb(msb: u128, bits: usize) -> u128 {
    lane_fill(msb >> (bits - 1), bits)
}

/// Lane-wise wrapping addition: add with sign bits masked off (so no carry
/// escapes a lane), then xor the sign bits back in.
#[inline]
fn swar_add(a: u128, b: u128, h: u128) -> u128 {
    ((a & !h) + (b & !h)) ^ ((a ^ b) & h)
}

/// Lane-wise wrapping subtraction: force the minuend's sign bit so the low
/// bits can never borrow across a lane, then patch the sign bit.
#[inline]
fn swar_sub(a: u128, b: u128, h: u128) -> u128 {
    ((a | h) - (b & !h)) ^ ((a ^ !b) & h)
}

/// Sign bit set in every lane where `a < b` unsigned.
///
/// `z`'s sign bit holds "low bits of `a` ≥ low bits of `b`"; combine with
/// the operands' own sign bits: `a < b` iff the sign bits say so outright,
/// or they tie and the low bits borrowed.
#[inline]
fn ltu_msb(a: u128, b: u128, h: u128) -> u128 {
    let z = ((a & !h) | h) - (b & !h);
    ((!a & b) | (!(a ^ b) & !z)) & h
}

/// Sign bit set in every lane where `a == b`.
#[inline]
fn eq_msb(a: u128, b: u128, h: u128) -> u128 {
    let v = a ^ b;
    // Adding 0x7f.. to the low bits carries into the sign position iff they
    // are non-zero; `| v` folds in the lane's own sign bit.
    ((((v & !h) + !h) | v) & h) ^ h
}

/// Selects `x` where `mask` lanes are all-ones, else `y`.
#[inline]
fn sel(mask: u128, x: u128, y: u128) -> u128 {
    y ^ ((x ^ y) & mask)
}

/// Lane-wise signed saturating add/sub: `s` is the wrapping result and
/// `ov` has sign bits set on overflowing lanes; overflowed lanes are
/// replaced by `0x7f..` plus the sign of `a` (giving `0x80..` when `a` is
/// negative).
#[inline]
fn swar_saturate_signed(a: u128, s: u128, ov: u128, h: u128, bits: usize) -> u128 {
    let ov_lsb = ov >> (bits - 1);
    let ovf = lane_fill(ov_lsb, bits);
    let sat = (ovf & !h) + ((a >> (bits - 1)) & ov_lsb);
    (s & !ovf) | sat
}

/// Lane-wise unsigned average `(a + b + 1) >> 1` without widening:
/// `(a | b) - ((a ^ b) >> 1)`.  The shifted word's lane sign positions are
/// contaminated by the neighbouring lane's LSB, and a per-lane logical
/// shift always leaves them zero, so mask them off.
#[inline]
fn swar_avg(a: u128, b: u128, h: u128) -> u128 {
    (a | b) - (((a ^ b) >> 1) & !h)
}

/// Per-byte `|a - b|` (max − min, which never borrows across lanes).
#[inline]
fn abs_diff_bytes(a: u128, b: u128) -> u128 {
    let m = fill_from_msb(ltu_msb(a, b, msb_ones(Esz::B)), 8);
    sel(m, b, a) - sel(m, a, b)
}

/// `psadbw`-style sum of absolute byte differences: one 64-bit sum per
/// 64-bit group of the register, folded from the byte differences in
/// three pairwise steps.
#[must_use]
pub fn sad(a: u128, b: u128, width: usize) -> u128 {
    let diff = abs_diff_bytes(a, b);
    let t = (diff & even_lanes(8)) + ((diff >> 8) & even_lanes(8));
    let t = (t & even_lanes(16)) + ((t >> 16) & even_lanes(16));
    let t = (t & even_lanes(32)) + ((t >> 32) & even_lanes(32));
    t & low_bits(width * 8)
}

// ---------------------------------------------------------------------------
// Lane arrays
//
// A word converts to `[T; N]` and back through its two `u64` halves (one
// shift per lane), which the compiler keeps in registers; the fixed-trip
// maps in between unroll completely.  On the default x86-64 target (SSE2)
// this ran `mullo.h` about 30 % faster than a `to_le_bytes` round trip or
// a whole-`u128` shift per lane.
// ---------------------------------------------------------------------------

macro_rules! lane_array {
    ($to:ident, $from:ident, $map:ident, $t:ty, $u:ty, $n:literal) => {
        #[inline]
        fn $to(w: u128) -> [$t; $n] {
            const BITS: usize = 128 / $n;
            const PER_HALF: usize = $n / 2;
            let h = [w as u64, (w >> 64) as u64];
            std::array::from_fn(|i| (h[i / PER_HALF] >> (BITS * (i % PER_HALF))) as $t)
        }

        #[inline]
        fn $from(lanes: [$t; $n]) -> u128 {
            const BITS: usize = 128 / $n;
            const PER_HALF: usize = $n / 2;
            let half = |l: &[$t]| {
                l.iter()
                    .rev()
                    .fold(0u64, |acc, &x| acc << BITS | u64::from(x as $u))
            };
            u128::from(half(&lanes[..PER_HALF])) | u128::from(half(&lanes[PER_HALF..])) << 64
        }

        /// Applies `f` lane by lane over every lane of the word.
        #[inline]
        fn $map(a: u128, b: u128, f: impl Fn($t, $t) -> $t) -> u128 {
            let (x, y) = ($to(a), $to(b));
            $from(std::array::from_fn(|i| f(x[i], y[i])))
        }
    };
}

lane_array!(i8_lanes, from_i8_lanes, map_i8, i8, u8, 16);
lane_array!(i16_lanes, from_i16_lanes, map_i16, i16, u16, 8);
lane_array!(i32_lanes, from_i32_lanes, map_i32, i32, u32, 4);

/// Applies `f` to the `width / 8` live 64-bit lanes (the upper lane of an
/// 8-byte word is never evaluated, so `f` sees only architectural values).
#[inline]
fn map_d(a: u128, b: u128, width: usize, f: impl Fn(u64, u64) -> u64) -> u128 {
    let lo = u128::from(f(a as u64, b as u64));
    if width == 16 {
        lo | u128::from(f((a >> 64) as u64, (b >> 64) as u64)) << 64
    } else {
        lo
    }
}

/// Low half of each signed lane product.
fn mullo(a: u128, b: u128, esz: Esz, width: usize) -> u128 {
    match esz {
        Esz::B => map_i8(a, b, i8::wrapping_mul),
        Esz::H => map_i16(a, b, i16::wrapping_mul),
        Esz::W => map_i32(a, b, i32::wrapping_mul),
        Esz::D => map_d(a, b, width, u64::wrapping_mul),
    }
}

/// High half of each signed lane product (the widened product never
/// overflows; 64-bit lanes take the exact 128-bit product).
fn mulhi(a: u128, b: u128, esz: Esz, width: usize) -> u128 {
    match esz {
        Esz::B => map_i8(a, b, |x, y| ((i16::from(x) * i16::from(y)) >> 8) as i8),
        Esz::H => map_i16(a, b, |x, y| ((i32::from(x) * i32::from(y)) >> 16) as i16),
        Esz::W => map_i32(a, b, |x, y| ((i64::from(x) * i64::from(y)) >> 32) as i32),
        Esz::D => map_d(a, b, width, |x, y| {
            ((i128::from(x as i64) * i128::from(y as i64)) >> 64) as u64
        }),
    }
}

/// `pmaddwd`: multiply signed 16-bit lanes, add adjacent 32-bit products.
#[must_use]
pub fn madd(a: u128, b: u128, width: usize) -> u128 {
    let (x, y) = (i16_lanes(a), i16_lanes(b));
    // A 16×16-bit signed product always fits an `i32`; only the pair sum
    // can wrap.
    let sums: [i32; 4] = std::array::from_fn(|l| {
        let p0 = i32::from(x[2 * l]) * i32::from(y[2 * l]);
        let p1 = i32::from(x[2 * l + 1]) * i32::from(y[2 * l + 1]);
        p0.wrapping_add(p1)
    });
    from_i32_lanes(sums) & low_bits(width * 8)
}

/// Saturates every `BITS`-bit lane of `h` to half its size (signed, or
/// `unsigned` clamping at zero) and packs the results into the low 32
/// bits.
#[inline]
fn narrow_half<const BITS: usize>(h: u64, unsigned: bool) -> u64 {
    let half = BITS / 2;
    let (lo, hi) = if unsigned {
        (0, (1i64 << half) - 1)
    } else {
        (-(1i64 << (half - 1)), (1i64 << (half - 1)) - 1)
    };
    (0..64 / BITS).fold(0, |acc, l| {
        let v = ((h << (64 - BITS * (l + 1))) as i64) >> (64 - BITS); // lane `l`, sign-extended
        acc | ((v.clamp(lo, hi) as u64) & ((1 << half) - 1)) << (half * l)
    })
}

/// Saturates every `esz` lane of `w` to half its size, packed into the
/// low 64 bits.
fn narrow(w: u128, esz: Esz, unsigned: bool) -> u128 {
    fn halves<const BITS: usize>(w: u128, unsigned: bool) -> u128 {
        let lo = narrow_half::<BITS>(w as u64, unsigned);
        let hi = narrow_half::<BITS>((w >> 64) as u64, unsigned);
        u128::from(lo | hi << 32)
    }
    match esz {
        Esz::H => halves::<16>(w, unsigned),
        Esz::W => halves::<32>(w, unsigned),
        Esz::D => halves::<64>(w, unsigned),
        Esz::B => panic!("cannot pack byte elements"),
    }
}

/// Pack elements of size `esz` from `a` (low half of the result) and `b`
/// (high half) into elements of half the size.
#[must_use]
pub fn pack(a: u128, b: u128, esz: Esz, width: usize, unsigned: bool) -> u128 {
    if width == 16 {
        narrow(a, esz, unsigned) | narrow(b, esz, unsigned) << 64
    } else {
        // Both live halves fit one word: narrow it once.
        narrow((a & low_bits(64)) | b << 64, esz, unsigned)
    }
}

/// Moves the `ebits`-bit elements in the low 64 bits of `x` to the even
/// element slots of the word, zeroing the odd slots: the halving
/// shift-or-mask steps of a Morton-order interleave.
#[inline]
fn spread(mut x: u128, ebits: usize) -> u128 {
    for s in [32, 16, 8] {
        if s >= ebits {
            x = (x | x << s) & even_lanes(s);
        }
    }
    x
}

/// Interleave elements from the low (`hi = false`) or high halves of `a`
/// and `b` (`punpckl*` / `punpckh*`).
#[must_use]
pub fn unpack(a: u128, b: u128, esz: Esz, width: usize, hi: bool) -> u128 {
    let ebits = esz.bits();
    // Half the lanes take part: `bits` bits from the bottom or the top.
    let bits = esz.lanes(width * 8) / 2 * ebits;
    let from = if hi { bits } else { 0 };
    let half = |w: u128| (w >> from) & low_bits(bits);
    spread(half(a), ebits) | spread(half(b), ebits) << ebits
}

/// Adds one register pair into the packed accumulator `acc` (`MAcc` per
/// row, `VAcc`): the byte ops fold two byte columns into each lane, the
/// halfword ops map lane to lane.  Only the `width / 2` live lanes change,
/// and they read only the live bytes.
pub fn accumulate(op: AccOp, acc: &mut [i64; 8], a: u128, b: u128, width: usize) {
    let n = width / 2;
    match op {
        AccOp::Sad => {
            let d = abs_diff_bytes(a, b);
            let pairs = i16_lanes((d & even_lanes(8)) + ((d >> 8) & even_lanes(8))); // ≤ 510
            add_lanes(acc, n, |l| i64::from(pairs[l]));
        }
        AccOp::Ssd => {
            let (x, y) = (i8_lanes(a), i8_lanes(b));
            let d = |j: usize| i64::from(x[j] as u8) - i64::from(y[j] as u8);
            add_lanes(acc, n, |l| {
                d(2 * l) * d(2 * l) + d(2 * l + 1) * d(2 * l + 1)
            });
        }
        AccOp::Mac => {
            let (x, y) = (i16_lanes(a), i16_lanes(b));
            add_lanes(acc, n, |l| i64::from(i32::from(x[l]) * i32::from(y[l])));
        }
        AccOp::AddH => {
            let x = i16_lanes(a);
            add_lanes(acc, n, |l| i64::from(x[l]));
        }
    }
}

/// `acc[l] += term(l)` on the first `n` accumulator lanes (wrapping, as
/// the reference interpreter defines it).
#[inline]
fn add_lanes(acc: &mut [i64; 8], n: usize, term: impl Fn(usize) -> i64) {
    for (l, s) in acc.iter_mut().enumerate().take(n) {
        *s = s.wrapping_add(term(l));
    }
}

/// Packs accumulator `acc` into a `width`-byte word (`AccPack`): each lane
/// is shifted right by `shift` and narrowed to `esz` per `sat`; the first
/// `min(width / 2, lanes of esz)` lanes are written, the rest are zero.
#[must_use]
pub fn acc_pack(acc: &[i64; 8], esz: Esz, sat: Sat, shift: u8, width: usize) -> u128 {
    let v = acc.map(|x| {
        let x = x >> shift;
        match sat {
            Sat::Wrap => (x as u64) & (u64::MAX >> (64 - esz.bits())),
            Sat::Signed => sat_s(x, esz),
            Sat::Unsigned => sat_u(x, esz),
        }
    });
    let lanes = (width / 2).min(esz.lanes(width * 8));
    v[..lanes]
        .iter()
        .rev()
        .fold(0, |acc, &x| acc << esz.bits() | u128::from(x))
}

/// Transposes the square matrix of `n = rows.len()` rows × `n` elements of
/// size `esz` (`MTranspose`; `n` is a power of two and `n * esz.bytes()` is
/// the register width).  Returns the `n` transposed rows, zero beyond.
///
/// Recursive block swap: for `k = n/2, …, 1`, every `2k × 2k` block swaps
/// its off-diagonal `k × k` blocks, one xor-swap per row pair.
#[must_use]
pub fn transpose(rows: &[u128], esz: Esz) -> [u128; MAX_VL] {
    let n = rows.len();
    let ebits = esz.bits();
    let mut m = [0u128; MAX_VL];
    for (d, s) in m.iter_mut().zip(rows) {
        *d = s & low_bits(n * ebits);
    }
    let mut k = n / 2;
    while k > 0 {
        let shift = k * ebits;
        let keep = even_lanes(shift);
        for i in (0..n).filter(|i| i & k == 0) {
            let t = ((m[i] >> shift) ^ m[i + k]) & keep;
            m[i + k] ^= t;
            m[i] ^= t << shift;
        }
        k /= 2;
    }
    m
}

/// Applies a binary [`VOp`] to two SIMD words of `width` bytes.
///
/// # Panics
///
/// Panics on `pack` with byte source elements (not representable).
#[must_use]
pub fn apply_vop(op: VOp, a: u128, b: u128, width: usize) -> u128 {
    let r = match op {
        // The SWAR formulas below are exact for 64-bit lanes too, except
        // where the per-lane model routes 64-bit lanes through a wrapping
        // `i64`/`u64` intermediate: those take the same formula on the two
        // `u64` halves, so they behave identically out of domain.
        VOp::AddS(Esz::D) => map_d(a, b, width, |x, y| sat_s(x as i64 + y as i64, Esz::D)),
        VOp::AddU(Esz::D) => map_d(a, b, width, |x, y| sat_u((x + y) as i64, Esz::D)),
        VOp::SubS(Esz::D) => map_d(a, b, width, |x, y| sat_s(x as i64 - y as i64, Esz::D)),
        VOp::SubU(Esz::D) => map_d(a, b, width, |x, y| sat_u(x as i64 - y as i64, Esz::D)),
        VOp::Avg(Esz::D) => map_d(a, b, width, |x, y| (x + y + 1) >> 1),
        VOp::Add(e) => swar_add(a, b, msb_ones(e)),
        VOp::Sub(e) => swar_sub(a, b, msb_ones(e)),
        VOp::AddS(e) => {
            let h = msb_ones(e);
            let s = swar_add(a, b, h);
            let ov = !(a ^ b) & (a ^ s) & h;
            swar_saturate_signed(a, s, ov, h, e.bits())
        }
        VOp::SubS(e) => {
            let h = msb_ones(e);
            let s = swar_sub(a, b, h);
            let ov = (a ^ b) & (a ^ s) & h;
            swar_saturate_signed(a, s, ov, h, e.bits())
        }
        VOp::AddU(e) => {
            let h = msb_ones(e);
            let s = swar_add(a, b, h);
            let carry = ((a & b) | ((a | b) & !s)) & h;
            s | fill_from_msb(carry, e.bits())
        }
        VOp::SubU(e) => {
            let h = msb_ones(e);
            let s = swar_sub(a, b, h);
            s & !fill_from_msb(ltu_msb(a, b, h), e.bits())
        }
        VOp::Avg(e) => swar_avg(a, b, msb_ones(e)),
        VOp::MinS(e) => {
            let h = msb_ones(e);
            sel(fill_from_msb(ltu_msb(a ^ h, b ^ h, h), e.bits()), a, b)
        }
        VOp::MaxS(e) => {
            let h = msb_ones(e);
            sel(fill_from_msb(ltu_msb(a ^ h, b ^ h, h), e.bits()), b, a)
        }
        VOp::MinU(e) => {
            let h = msb_ones(e);
            sel(fill_from_msb(ltu_msb(a, b, h), e.bits()), a, b)
        }
        VOp::MaxU(e) => {
            let h = msb_ones(e);
            sel(fill_from_msb(ltu_msb(a, b, h), e.bits()), b, a)
        }
        VOp::CmpEq(e) => {
            let h = msb_ones(e);
            fill_from_msb(eq_msb(a, b, h), e.bits())
        }
        VOp::CmpGt(e) => {
            let h = msb_ones(e);
            fill_from_msb(ltu_msb(b ^ h, a ^ h, h), e.bits())
        }
        VOp::Mullo(e) => mullo(a, b, e, width),
        VOp::Mulhi(e) => mulhi(a, b, e, width),
        VOp::Madd => madd(a, b, width),
        VOp::Sad => sad(a, b, width),
        VOp::And => a & b,
        VOp::Or => a | b,
        VOp::Xor => a ^ b,
        VOp::AndNot => a & !b,
        VOp::PackS(e) => pack(a, b, e, width, false),
        VOp::PackU(e) => pack(a, b, e, width, true),
        VOp::UnpackLo(e) => unpack(a, b, e, width, false),
        VOp::UnpackHi(e) => unpack(a, b, e, width, true),
    };
    r & low_bits(width * 8)
}

/// Applies an element-wise shift-by-immediate.
///
/// All lanes shift by the same amount, so the whole word is shifted once
/// and a replicated mask clears the bits that leaked in from neighbouring
/// lanes; arithmetic right shifts OR a replicated sign-extension mask into
/// lanes whose sign bit was set.
#[must_use]
pub fn apply_shift(op: VShiftOp, a: u128, amount: u8, width: usize) -> u128 {
    let (esz, kind) = match op {
        VShiftOp::Sll(e) => (e, 0),
        VShiftOp::Srl(e) => (e, 1),
        VShiftOp::Sra(e) => (e, 2),
    };
    let bits = esz.bits() as u32;
    let amt = (amount as u32).min(bits); // shifting by >= width clears (or fills with sign)
    let lane = esz.lane_mask();
    let l_ones = lsb_ones(esz);
    let out = match kind {
        0 => {
            let keep = ((lane << amt) & lane) * l_ones;
            (a << amt) & keep
        }
        1 => {
            let keep = (lane >> amt) * l_ones;
            (a >> amt) & keep
        }
        _ => {
            let sh = amt.min(bits - 1);
            let keep = lane >> sh;
            let ext = (keep ^ lane) * l_ones;
            let signs = lane_fill((a >> (bits - 1)) & l_ones, bits as usize);
            ((a >> sh) & (keep * l_ones)) | (ext & signs)
        }
    };
    out & low_bits(width * 8)
}

/// Broadcasts the low `esz` bits of `v` to every lane of a `width`-byte word.
#[must_use]
pub fn splat(v: u64, esz: Esz, width: usize) -> u128 {
    (((v as u128) & esz.lane_mask()) * lsb_ones(esz)) & low_bits(width * 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_accessors() {
        let w: u128 = 0x8899_aabb_ccdd_eeff;
        assert_eq!(get_lane_u(w, Esz::B, 0), 0xff);
        assert_eq!(get_lane_u(w, Esz::B, 7), 0x88);
        assert_eq!(get_lane_i(w, Esz::B, 0), -1);
        assert_eq!(get_lane_u(w, Esz::H, 1), 0xccdd);
        assert_eq!(get_lane_i(w, Esz::H, 3), 0x8899u16 as i16 as i64);
        let w2 = set_lane(w, Esz::H, 0, 0x1234);
        assert_eq!(get_lane_u(w2, Esz::H, 0), 0x1234);
        assert_eq!(get_lane_u(w2, Esz::H, 1), 0xccdd);
    }

    #[test]
    fn saturating_add_bytes() {
        let a = splat(0x7f, Esz::B, 8);
        let b = splat(0x01, Esz::B, 8);
        let r = apply_vop(VOp::AddS(Esz::B), a, b, 8);
        assert_eq!(r, splat(0x7f, Esz::B, 8));
        let r = apply_vop(VOp::AddU(Esz::B), splat(0xff, Esz::B, 8), b, 8);
        assert_eq!(r, splat(0xff, Esz::B, 8));
        let r = apply_vop(VOp::Add(Esz::B), splat(0xff, Esz::B, 8), b, 8);
        assert_eq!(r, 0);
    }

    #[test]
    fn sad_basic() {
        let a = u128::from_le_bytes([10, 0, 5, 200, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0]);
        let b = u128::from_le_bytes([0, 10, 15, 100, 0, 0, 0, 0, 2, 2, 2, 2, 0, 0, 0, 0]);
        let r = sad(a, b, 16);
        assert_eq!(r as u64, 10 + 10 + 10 + 100);
        assert_eq!((r >> 64) as u64, 4);
    }

    #[test]
    fn madd_pairs() {
        // lanes (i16): a = [2, 3, -1, 4, ...], b = [10, 100, 7, -2, ...]
        let mut a = 0u128;
        let mut b = 0u128;
        for (l, (x, y)) in [(2i64, 10i64), (3, 100), (-1, 7), (4, -2)]
            .iter()
            .enumerate()
        {
            a = set_lane(a, Esz::H, l, *x as u64);
            b = set_lane(b, Esz::H, l, *y as u64);
        }
        let r = madd(a, b, 8);
        assert_eq!(get_lane_i(r, Esz::W, 0), 2 * 10 + 3 * 100);
        assert_eq!(get_lane_i(r, Esz::W, 1), -7 - 8);
    }

    #[test]
    fn pack_and_unpack() {
        let mut a = 0u128;
        for l in 0..4 {
            a = set_lane(a, Esz::H, l, 300 + l as u64); // >255 saturates unsigned pack
        }
        let r = pack(a, 0, Esz::H, 8, true);
        for l in 0..4 {
            assert_eq!(get_lane_u(r, Esz::B, l), 255);
        }
        for l in 4..8 {
            assert_eq!(get_lane_u(r, Esz::B, l), 0);
        }

        let x = u128::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 0]);
        let y = u128::from_le_bytes([11, 12, 13, 14, 15, 16, 17, 18, 0, 0, 0, 0, 0, 0, 0, 0]);
        let lo = unpack(x, y, Esz::B, 8, false);
        assert_eq!(lo.to_le_bytes()[..8], [1, 11, 2, 12, 3, 13, 4, 14][..]);
        let hi = unpack(x, y, Esz::B, 8, true);
        assert_eq!(hi.to_le_bytes()[..8], [5, 15, 6, 16, 7, 17, 8, 18][..]);
    }

    #[test]
    fn shifts() {
        let a = splat(0x8000, Esz::H, 8);
        let r = apply_shift(VShiftOp::Sra(Esz::H), a, 15, 8);
        assert_eq!(r, splat(0xffff, Esz::H, 8));
        let r = apply_shift(VShiftOp::Srl(Esz::H), a, 15, 8);
        assert_eq!(r, splat(1, Esz::H, 8));
        let r = apply_shift(VShiftOp::Sll(Esz::H), splat(1, Esz::H, 8), 3, 8);
        assert_eq!(r, splat(8, Esz::H, 8));
    }

    #[test]
    fn width64_masks_upper() {
        let a = u128::MAX;
        let r = apply_vop(VOp::Add(Esz::B), a, 0, 8);
        assert_eq!(r >> 64, 0);
    }
}
