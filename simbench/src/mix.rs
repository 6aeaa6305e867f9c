//! The seeded request generator of the `service_mix` workload.
//!
//! Every request is a one-cell inline sweep: a fig4 kernel on one
//! extension and width with exactly one configuration override.  The
//! override keys and values come only from the catalog's ablation axes;
//! `lanes` and `phys_simd` are offered only on the matrix (VMMX)
//! extensions, the only ones whose catalog ablations vary them.  The
//! sequence is a pure function of the seed; the service only ever sees
//! the requests it yields.
//!
//! The space holds 1914 distinct cells.  A run that uses them all starts
//! a new epoch: the space reshuffled under an instruction budget one lower
//! per epoch.  The result store keys cells by their budget, so an epoch's
//! cells are novel again, while no fig4 cell comes near the budget, so
//! their statistics are unchanged and still checked against the first
//! response for the same cell.

use simdsim_isa::Ext;
use simdsim_sweep::{catalog, Scenario, DEFAULT_INSTR_LIMIT};

/// Override keys that exist only on the matrix extensions.
const MATRIX_ONLY: [&str; 2] = ["lanes", "phys_simd"];

/// Share of requests that are novel cells; the rest resubmit earlier ones.
///
/// This and the recent-repeat shares below are assumptions: the
/// repository records no service traffic, so they are not measured.
pub const NOVEL_SHARE: f64 = 0.5;

/// Share of resubmissions drawn from the last [`RECENT`] requests, so
/// some arrive while the original is still queued or running and are
/// coalesced onto it rather than served from the store.
const RECENT_SHARE: f64 = 0.25;
const RECENT: usize = 4;

/// SplitMix64: a small, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// One generated request: a single cell of an inline scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixRequest {
    /// The fig4 kernel.
    pub kernel: String,
    /// The extension.
    pub ext: Ext,
    /// The processor width.
    pub way: usize,
    /// The override key.
    pub key: String,
    /// The override value.
    pub value: u64,
    /// How often the space had been used up before this request was
    /// drawn; lowers the instruction budget by as much.
    pub epoch: u64,
}

impl MixRequest {
    /// The cell's label (the same in every epoch).
    pub fn label(&self) -> String {
        format!(
            "mix/{}/{}/{}way/{}={}",
            self.kernel, self.ext, self.way, self.key, self.value
        )
    }

    /// The inline scenario the client submits.
    pub fn scenario(&self) -> Scenario {
        Scenario::new("mix", "service_mix request")
            .kernels([self.kernel.clone()])
            .exts([self.ext])
            .ways([self.way])
            .override_axis(&self.key, [self.value])
            .instr_limit(DEFAULT_INSTR_LIMIT - self.epoch)
    }
}

/// Every distinct request the generator may draw, in a fixed order.
pub fn request_space() -> Vec<MixRequest> {
    let axes: Vec<(String, u64)> = catalog::all()
        .iter()
        .flat_map(|s| s.overrides.iter())
        .flat_map(|o| o.params.iter())
        .map(|p| (p.key.clone(), p.value))
        .collect();
    let kernels: Vec<String> = catalog::fig4()
        .workloads
        .iter()
        .map(|w| w.name().to_owned())
        .collect();
    let mut space = Vec::new();
    for kernel in &kernels {
        for ext in Ext::ALL {
            for way in catalog::PAPER_WAYS {
                for (key, value) in &axes {
                    if MATRIX_ONLY.contains(&key.as_str()) && !ext.is_matrix() {
                        continue;
                    }
                    space.push(MixRequest {
                        kernel: kernel.clone(),
                        ext,
                        way,
                        key: key.clone(),
                        value: *value,
                        epoch: 0,
                    });
                }
            }
        }
    }
    space
}

/// A generated sequence: the requests in order, and for each whether the
/// generator meant it as novel (its first appearance).
#[derive(Debug, Clone)]
pub struct Sequence {
    /// The requests, in submission order.
    pub requests: Vec<MixRequest>,
    /// `true` where the request appears for the first time.
    pub novel: Vec<bool>,
}

/// Generates `n` requests from `seed`: each is novel with probability
/// [`NOVEL_SHARE`] (drawn without replacement from a seed-shuffled
/// [`request_space`], epoch after epoch) and otherwise repeats an earlier
/// request.
pub fn generate(seed: u64, n: usize) -> Sequence {
    let mut rng = Rng::new(seed);
    let space = request_space();
    let mut fresh: Vec<MixRequest> = Vec::new();
    let mut epoch = 0;
    let mut requests: Vec<MixRequest> = Vec::with_capacity(n);
    let mut novel = Vec::with_capacity(n);
    while requests.len() < n {
        if requests.is_empty() || rng.unit() < NOVEL_SHARE {
            if fresh.is_empty() {
                fresh = space
                    .iter()
                    .map(|r| MixRequest { epoch, ..r.clone() })
                    .collect();
                rng.shuffle(&mut fresh);
                epoch += 1;
            }
            requests.push(fresh.pop().expect("refilled above"));
            novel.push(true);
        } else {
            let len = requests.len();
            let i = if rng.unit() < RECENT_SHARE {
                len - 1 - rng.below(len.min(RECENT))
            } else {
                rng.below(len)
            };
            requests.push(requests[i].clone());
            novel.push(false);
        }
    }
    Sequence { requests, novel }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let a = generate(7, 500);
        let b = generate(7, 500);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.novel, b.novel);
        let c = generate(8, 500);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn space_uses_only_catalog_axes_and_matrix_only_keys_on_vmmx() {
        let space = request_space();
        let mut labels: Vec<String> = space.iter().map(MixRequest::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), space.len(), "requests are distinct");
        for r in &space {
            if MATRIX_ONLY.contains(&r.key.as_str()) {
                assert!(r.ext.is_matrix(), "{}", r.label());
            }
            let cell = &r.scenario().expand()[0];
            assert_eq!(cell.label(), r.label());
            cell.config().expect("every generated override resolves");
        }
        // 11 kernels x 3 widths x (2 MMX exts x 9 values + 2 VMMX exts x 20).
        assert_eq!(space.len(), 11 * 3 * (2 * 9 + 2 * 20));
    }

    #[test]
    fn a_used_up_space_starts_a_new_epoch_with_a_lower_budget() {
        let s = generate(3, 5000);
        let last = s.requests.last().expect("non-empty");
        assert!(last.epoch >= 1, "5000 requests outrun one epoch");
        let cell = &last.scenario().expand()[0];
        assert_eq!(cell.instr_limit, DEFAULT_INSTR_LIMIT - last.epoch);
        assert_eq!(cell.label(), last.label());
    }

    #[test]
    fn about_half_are_novel_and_repeats_name_earlier_requests() {
        let s = generate(42, 1000);
        let novel = s.novel.iter().filter(|&&n| n).count();
        assert!((440..560).contains(&novel), "{novel} novel of 1000");
        for (i, r) in s.requests.iter().enumerate() {
            let first = s.requests.iter().position(|x| x == r).expect("present");
            assert_eq!(s.novel[i], first == i, "request {i}");
        }
    }
}
