//! Every workload's machine image is sized by its layout, and every run
//! stays inside the part of the image its layout reserved.

use simdsim_apps::{BuiltKernel, Variant};
use simdsim_emu::{DynInstr, Layout, TraceSink};
use simdsim_isa::DecodedInstr;

/// Records the lowest and one-past-highest byte any access touches.
struct Extent {
    lo: u64,
    hi: u64,
}

impl TraceSink for Extent {
    fn push(&mut self, di: &DynInstr, _dec: &DecodedInstr) {
        if let Some(m) = di.mem {
            let last = m
                .addr
                .wrapping_add((i64::from(m.rows.max(1)) - 1).wrapping_mul(m.stride) as u64);
            self.lo = self.lo.min(m.addr.min(last));
            self.hi = self.hi.max(m.addr.max(last) + u64::from(m.row_bytes));
        }
    }
}

fn check(name: &str, v: Variant, built: &BuiltKernel) {
    let image = built.machine.mem_size() as u64;
    assert_eq!(
        image,
        built.layout_used.next_multiple_of(Layout::PAGE),
        "{name}/{v}: image is not its layout's use rounded up to a page"
    );
    let mut ext = Extent {
        lo: u64::MAX,
        hi: 0,
    };
    built
        .run_traced(&mut ext)
        .unwrap_or_else(|e| panic!("{name}/{v}: {e}"));
    assert!(ext.hi > 0, "{name}/{v}: no memory access");
    assert!(
        ext.lo >= 64 && ext.hi <= built.layout_used,
        "{name}/{v}: accesses [{:#x}, {:#x}) leave the layout [0x40, {:#x})",
        ext.lo,
        ext.hi,
        built.layout_used
    );
}

#[test]
fn every_kernel_image_fits_its_layout() {
    for k in simdsim_kernels::registry() {
        for v in Variant::ALL {
            check(k.spec().name, v, &k.build(v));
        }
    }
}

#[test]
fn every_app_image_fits_its_layout() {
    for a in simdsim_apps::registry() {
        for v in Variant::ALL {
            check(a.spec().name, v, &a.build(v));
        }
    }
}
