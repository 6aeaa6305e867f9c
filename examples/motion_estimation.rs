//! Writing a custom vectorised routine against the public API: a full
//! motion search over a reference frame using the VMMX128 matrix
//! extension (the paper's Figure 3(e) SAD code), run through both the
//! functional emulator and the timing model.
//!
//! ```sh
//! cargo run --release --example motion_estimation
//! ```

use simdsim::asm::Asm;
use simdsim::emu::Layout;
use simdsim::kernels::data::smooth_plane;
use simdsim::pipe::{simulate, PipeConfig};
use simdsim_isa::{AccOp, Cond, Ext};

const W: usize = 128;
const H: usize = 64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --------------------------------------------------------------
    // Build the program: a ±4-pel full search for one 16×16 block,
    // with the SAD inner loop written exactly like the paper's
    // VMMX128 example — two strided matrix loads and a packed
    // accumulator, no inner loops at all.
    // --------------------------------------------------------------
    let mut a = Asm::new();
    let (cur, refp, out) = (a.arg(0), a.arg(1), a.arg(2));
    let (best_sad, best_off) = (a.ireg(), a.ireg());
    let (p2, sad, stride) = (a.ireg(), a.ireg(), a.ireg());
    let (m1, m2) = (a.mreg(), a.mreg());
    let acc = a.areg();

    a.li(stride, W as i64);
    a.li(best_sad, i64::MAX);
    a.setvl(16);
    // The current block stays resident in a matrix register for the
    // whole search — "matrix registers as a cache".
    a.mload(m1, cur, stride, 16);
    for dy in -4i32..=4 {
        for dx in -4i32..=4 {
            let off = dy * W as i32 + dx;
            a.addi(p2, refp, off);
            a.vector_region(|a| {
                a.accclear(acc);
                a.mload(m2, p2, stride, 16);
                a.macc(AccOp::Sad, acc, m1, m2);
                a.accsum(sad, acc);
            });
            a.if_(Cond::Lt, sad, best_sad, |a| {
                a.mv(best_sad, sad);
                a.li(best_off, i64::from(off));
            });
        }
    }
    a.sd(best_sad, out, 0);
    a.sd(best_off, out, 8);
    a.halt();
    let program = a.finish();

    // --------------------------------------------------------------
    // Lay out memory: a frame and a reference shifted by (2, -3).
    // --------------------------------------------------------------
    let frame = smooth_plane(W, H, 7);
    let mut reference = vec![0u8; W * H];
    for y in 0..H {
        for x in 0..W {
            let sx = (x as i32 - 2).rem_euclid(W as i32) as usize;
            let sy = (y as i32 + 3).rem_euclid(H as i32) as usize;
            reference[y * W + x] = frame[sy * W + sx];
        }
    }

    let mut layout = Layout::new();
    let cur_addr = layout.alloc_array((W * H) as u64, 1);
    let ref_addr = layout.alloc_array((W * H) as u64, 1);
    let out_addr = layout.alloc_array(16, 8);

    let mut machine = layout.machine(Ext::Vmmx128);
    machine.write_bytes(cur_addr, &frame)?;
    machine.write_bytes(ref_addr, &reference)?;
    // Search around the block at (32, 24).
    let block_off = (24 * W + 32) as i64;
    machine.set_ireg(0, cur_addr as i64 + block_off);
    machine.set_ireg(1, ref_addr as i64 + block_off);
    machine.set_ireg(2, out_addr as i64);

    // --------------------------------------------------------------
    // Simulate on the 2-way VMMX128 processor.
    // --------------------------------------------------------------
    let cfg = PipeConfig::paper(2, Ext::Vmmx128);
    let (arch, timing) = simulate(&program, &machine, &cfg, u64::MAX)?;

    // Re-run functionally to read the result out of memory.
    let mut m = machine.clone();
    m.run(&program, &mut simdsim::emu::NullSink, u64::MAX)?;
    let res = m.read_i32s(out_addr, 4)?;
    let (sad, off) = (res[0], res[2]);
    let (dy, dx) = (off.div_euclid(W as i32), off.rem_euclid(W as i32));
    let (dy, dx) = if dx > 4 {
        (dy + 1, dx - W as i32)
    } else {
        (dy, dx)
    };

    println!("81-candidate full search over a {W}x{H} frame (VMMX128, 2-way):");
    println!("  best offset  : ({dx:+}, {dy:+})  (planted motion was (+2, -3))");
    println!("  best SAD     : {sad}");
    println!("  instructions : {}", arch.dyn_instrs);
    println!("  cycles       : {}", timing.cycles);
    println!("  IPC          : {:.2}", timing.ipc());
    println!(
        "  vector cycles: {} ({:.0}%)",
        timing.vector_region_cycles,
        100.0 * timing.vector_region_cycles as f64
            / (timing.vector_region_cycles + timing.scalar_region_cycles) as f64
    );
    Ok(())
}
