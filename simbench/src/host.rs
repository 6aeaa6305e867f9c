//! Host speed: a fixed reference loop timed between units of work, so
//! that timed figures can be put at one nominal host speed.
//!
//! The benchmark runs on a few cores of a host shared with other tenants.
//! The host's speed drifts by up to ~1.7× over seconds to minutes while
//! the process keeps its core (CPU time equals wall time), so the slowdown
//! is in the hardware, not in scheduling, and a whole run can fall into a
//! slow phase.  The reference loop below uses none of the crates under
//! test, so a change to the program cannot move it; what moves it is the
//! host.  A figure taken while the loop runs `scale` times slower than
//! [`NOMINAL_S`] is reported as the host at nominal speed would have
//! given it: rates times `scale`, times divided by it.  Every figure is
//! scaled by the same statistic of the loop's samples as it takes of its
//! own: a fast-end figure by the loop's fast end, a median by its median.
//! The values as measured stay in the record (`details.unscaled`).
//!
//! Every figure timed in the window and `setup_s` are scaled, on every
//! workload.

use crate::stats::{median, tail};
use serde::Value;
use std::time::Instant;

/// The reference loop's time at nominal speed: about its time in a fast
/// phase of the 2-vCPU Xeon (2.1 GHz) host the benchmark was defined on.
pub const NOMINAL_S: f64 = 0.006;

/// Slots of the reference loop's table (512 KB).
const SLOTS: usize = 1 << 16;

/// The reference: pseudo-random reads and writes over a zeroed 512 KB
/// table with a data-dependent branch, as a simulator's tables are used.
fn reference(table: &mut [u64]) -> u64 {
    table.fill(0);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for i in 0..1_500_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & (SLOTS - 1);
        if x & 3 == 0 {
            table[j] = table[j].wrapping_add(i);
        } else {
            acc = acc.wrapping_add(table[j] ^ i);
        }
    }
    acc
}

/// The reference loop's timings over the timed window.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
    /// The loop's table, allocated once and kept for the whole run: a
    /// large block freed again and again would move glibc's dynamic mmap
    /// threshold, and with it how the program's own buffers are placed
    /// and `peak_rss_mb`.
    table: Vec<u64>,
}

impl HostSpeed {
    fn time_reference(&mut self) -> f64 {
        if self.table.is_empty() {
            self.table = vec![0; SLOTS];
        }
        let start = Instant::now();
        std::hint::black_box(reference(&mut self.table));
        start.elapsed().as_secs_f64()
    }

    /// Times `calls` runs of the reference loop into the samples.
    pub fn sample(&mut self, calls: usize) {
        for _ in 0..calls {
            let t = self.time_reference();
            self.samples.push(t);
        }
    }

    /// Times `calls` runs apart from the samples and returns how much
    /// slower than nominal the host ran at their median.
    pub fn spot_scale(&mut self, calls: usize) -> f64 {
        let times: Vec<f64> = (0..calls).map(|_| self.time_reference()).collect();
        median(&times) / NOMINAL_S
    }

    /// How much slower than nominal the host ran at the fast end of the
    /// samples: the fastest decile of their speeds (see `tail`).
    pub fn fast_scale(&self) -> f64 {
        let speeds: Vec<f64> = self.samples.iter().map(|t| 1.0 / t).collect();
        1.0 / tail(&speeds, 90.0).value / NOMINAL_S
    }

    /// How much slower than nominal the host ran at the median sample.
    pub fn typical_scale(&self) -> f64 {
        median(&self.samples) / NOMINAL_S
    }

    /// The sample count and both scales; null without samples.
    pub fn to_value(&self) -> Value {
        if self.samples.is_empty() {
            return Value::Null;
        }
        Value::Object(vec![
            ("samples".to_owned(), Value::UInt(self.samples.len() as u64)),
            ("fast_scale".to_owned(), Value::Float(self.fast_scale())),
            (
                "typical_scale".to_owned(),
                Value::Float(self.typical_scale()),
            ),
        ])
    }
}

/// `value` in `unit` as measured on a host `scale` times slower than
/// nominal, put at nominal speed: a rate (`…/s`) is multiplied, a time
/// (`s`, `ms`) divided; anything else is returned unchanged.
pub fn at_nominal(value: f64, unit: &str, scale: f64) -> f64 {
    match unit {
        "s" | "ms" => value / scale,
        u if u.ends_with("/s") => value * scale,
        _ => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_grow_and_times_shrink_on_a_slow_host() {
        assert_eq!(at_nominal(10.0, "Minstr/s", 1.5), 15.0);
        assert_eq!(at_nominal(30.0, "ms", 1.5), 20.0);
        assert_eq!(at_nominal(0.5, "s", 2.0), 0.25);
        assert_eq!(at_nominal(40.0, "MB", 1.5), 40.0);
    }

    #[test]
    fn scales_read_the_samples() {
        let host = HostSpeed {
            samples: vec![2.0 * NOMINAL_S; 30],
            ..HostSpeed::default()
        };
        assert!((host.fast_scale() - 2.0).abs() < 1e-9);
        assert!((host.typical_scale() - 2.0).abs() < 1e-9);
    }
}
