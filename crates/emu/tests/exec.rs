//! End-to-end emulator tests: small programs written with the assembler,
//! checked against plain-Rust reference results.

use simdsim_asm::Asm;
use simdsim_emu::{EmuError, Machine, NullSink, VecSink};
use simdsim_isa::{AccOp, Cond, Esz, Ext, MemSz, VOp};

#[test]
fn scalar_sum_of_bytes() {
    let data: Vec<u8> = (0..97u32).map(|i| (i * 7 % 251) as u8).collect();
    let expect: i64 = data.iter().map(|b| i64::from(*b)).sum();

    let mut a = Asm::new();
    let ptr = a.arg(0);
    let n = a.arg(1);
    let out = a.arg(2);
    let t = a.ireg();
    let i = a.ireg();
    a.li(out, 0);
    a.li(i, 0);
    a.for_loop(i, n, |a| {
        a.lbu(t, ptr, 0);
        a.add(out, out, t);
        a.addi(ptr, ptr, 1);
    });
    a.halt();
    let prog = a.finish();

    let mut m = Machine::new(Ext::Mmx64, 4096);
    m.write_bytes(256, &data).unwrap();
    m.set_ireg(0, 256);
    m.set_ireg(1, data.len() as i64);
    let stats = m.run(&prog, &mut NullSink, 100_000).unwrap();
    assert_eq!(m.ireg(2), expect);
    // li,li + 97 * (lbu,add,addi,branch... wait: body 3 + addi + branch) + halt
    assert_eq!(stats.dyn_instrs, 2 + 97 * 5 + 1);
}

#[test]
fn simd_sad_matches_scalar() {
    // 16 bytes SAD via two 64-bit psadbw on a 64-bit machine.
    let a_bytes: [u8; 16] = [1, 250, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];
    let b_bytes: [u8; 16] = [4, 2, 9, 4, 0, 6, 70, 8, 9, 1, 11, 2, 13, 4, 15, 6];
    let expect: i64 = a_bytes
        .iter()
        .zip(b_bytes.iter())
        .map(|(x, y)| i64::from(x.abs_diff(*y)))
        .sum();

    let mut asm = Asm::new();
    let pa = asm.arg(0);
    let pb = asm.arg(1);
    let out = asm.arg(2);
    let (v1, v2, v3, v4) = (asm.vreg(), asm.vreg(), asm.vreg(), asm.vreg());
    let (t1, t2) = (asm.ireg(), asm.ireg());
    asm.vload(v1, pa, 0, 8);
    asm.vload(v2, pb, 0, 8);
    asm.vload(v3, pa, 8, 8);
    asm.vload(v4, pb, 8, 8);
    asm.simd(VOp::Sad, v1, v1, v2);
    asm.simd(VOp::Sad, v3, v3, v4);
    asm.movsv(t1, v1, 0, Esz::W, false);
    asm.movsv(t2, v3, 0, Esz::W, false);
    asm.add(out, t1, t2);
    asm.halt();
    let prog = asm.finish();

    let mut m = Machine::new(Ext::Mmx64, 4096);
    m.write_bytes(128, &a_bytes).unwrap();
    m.write_bytes(192, &b_bytes).unwrap();
    m.set_ireg(0, 128);
    m.set_ireg(1, 192);
    m.run(&prog, &mut NullSink, 1000).unwrap();
    assert_eq!(m.ireg(2), expect);
}

#[test]
fn vmmx_strided_sad_matches_scalar() {
    // The paper's Fig. 3(e): SAD of a 16x16 block with row stride lx,
    // as a single pair of strided matrix loads plus one macc.sad.
    let lx = 40u64;
    let h = 16u64;
    let mut img1 = vec![0u8; (lx * h) as usize];
    let mut img2 = vec![0u8; (lx * h) as usize];
    for i in 0..img1.len() {
        img1[i] = (i * 13 % 256) as u8;
        img2[i] = (i * 29 % 256) as u8;
    }
    let mut expect = 0i64;
    for r in 0..h {
        for c in 0..16 {
            let x = img1[(r * lx + c) as usize];
            let y = img2[(r * lx + c) as usize];
            expect += i64::from(x.abs_diff(y));
        }
    }

    let mut asm = Asm::new();
    let p1 = asm.arg(0);
    let p2 = asm.arg(1);
    let out = asm.arg(2);
    let stride = asm.arg(3);
    let (m1, m2) = (asm.mreg(), asm.mreg());
    let acc = asm.areg();
    asm.setvl(16);
    asm.accclear(acc);
    asm.mload(m1, p1, stride, 16);
    asm.mload(m2, p2, stride, 16);
    asm.macc(AccOp::Sad, acc, m1, m2);
    asm.accsum(out, acc);
    asm.halt();
    let prog = asm.finish();

    let mut m = Machine::new(Ext::Vmmx128, 1 << 16);
    m.write_bytes(1024, &img1).unwrap();
    m.write_bytes(8192, &img2).unwrap();
    m.set_ireg(0, 1024);
    m.set_ireg(1, 8192);
    m.set_ireg(3, lx as i64);
    let mut sink = VecSink::default();
    let stats = m.run(&prog, &mut sink, 1000).unwrap();
    assert_eq!(m.ireg(2), expect);
    assert_eq!(stats.dyn_instrs, 7);
    // Matrix loads report 16 rows and the right stride.
    let loads: Vec<_> = sink
        .trace
        .iter()
        .filter_map(|d| d.mem)
        .filter(|a| !a.store)
        .collect();
    assert_eq!(loads.len(), 2);
    assert!(loads
        .iter()
        .all(|l| l.rows == 16 && l.stride == 40 && l.vector_path));
}

#[test]
fn transpose_roundtrip() {
    let mut asm = Asm::new();
    let base = asm.arg(0);
    let (m1, m2) = (asm.mreg(), asm.mreg());
    asm.setvl(8);
    asm.mload(m1, base, 16, 16);
    asm.mtrans(m2, m1, Esz::H);
    asm.mtrans(m1, m2, Esz::H);
    asm.mstore(m1, base, 16, 16);
    asm.halt();
    let prog = asm.finish();

    let vals: Vec<i16> = (0..64).map(|i| (i * 31 - 1000) as i16).collect();
    let mut m = Machine::new(Ext::Vmmx128, 4096);
    m.write_i16s(512, &vals).unwrap();
    m.set_ireg(0, 512);
    m.run(&prog, &mut NullSink, 1000).unwrap();
    assert_eq!(m.read_i16s(512, 64).unwrap(), vals);

    // And a single transpose actually transposes.
    let mut asm = Asm::new();
    let base = asm.arg(0);
    let out = asm.arg(1);
    let m1 = asm.mreg();
    asm.setvl(8);
    asm.mload(m1, base, 16, 16);
    asm.mtrans(m1, m1, Esz::H);
    asm.mstore(m1, out, 16, 16);
    asm.halt();
    let prog = asm.finish();
    let mut m = Machine::new(Ext::Vmmx128, 4096);
    m.write_i16s(512, &vals).unwrap();
    m.set_ireg(0, 512);
    m.set_ireg(1, 2048);
    m.run(&prog, &mut NullSink, 1000).unwrap();
    let t = m.read_i16s(2048, 64).unwrap();
    for r in 0..8 {
        for c in 0..8 {
            assert_eq!(t[r * 8 + c], vals[c * 8 + r]);
        }
    }
}

#[test]
fn matrix_ops_rejected_on_mmx_machine() {
    let mut asm = Asm::new();
    asm.setvl(8);
    asm.halt();
    let prog = asm.finish();
    let mut m = Machine::new(Ext::Mmx64, 1024);
    let err = m.run(&prog, &mut NullSink, 10).unwrap_err();
    assert!(matches!(err, EmuError::Validation(_)));
}

#[test]
fn out_of_bounds_reported() {
    let mut asm = Asm::new();
    let p = asm.arg(0);
    let t = asm.ireg();
    asm.li(t, 7);
    asm.addi(t, t, 1);
    asm.ld(t, p, 0);
    asm.halt();
    let prog = asm.finish();
    let mut m = Machine::new(Ext::Mmx64, 64);
    m.set_ireg(0, 1 << 30);
    let mut sink = VecSink::default();
    let err = m.run(&prog, &mut sink, 10).unwrap_err();
    assert!(matches!(err, EmuError::OutOfBounds { pc: 2, .. }));
    // The sink holds exactly the committed prefix: the two instructions
    // before the faulting load, and not the load itself.
    let pcs: Vec<u32> = sink.trace.iter().map(|d| d.pc).collect();
    assert_eq!(pcs, [0, 1]);
}

#[test]
fn instr_limit_guards_runaway() {
    let mut asm = Asm::new();
    let l = asm.label();
    asm.bind(l);
    asm.jump(l);
    let prog = asm.finish();
    let mut m = Machine::new(Ext::Mmx64, 64);
    let mut sink = VecSink::default();
    let err = m.run(&prog, &mut sink, 100).unwrap_err();
    assert!(matches!(err, EmuError::InstrLimit { limit: 100 }));
    // Every instruction that committed before the limit reached the sink.
    assert_eq!(sink.trace.len(), 100);
}

#[test]
fn control_flow_if_else() {
    for (x, expect) in [(5i64, 1i64), (-5, 2)] {
        let mut asm = Asm::new();
        let xr = asm.arg(0);
        let out = asm.arg(1);
        asm.if_else(Cond::Gt, xr, 0, |a| a.li(out, 1), |a| a.li(out, 2));
        asm.halt();
        let prog = asm.finish();
        let mut m = Machine::new(Ext::Mmx64, 64);
        m.set_ireg(0, x);
        m.run(&prog, &mut NullSink, 100).unwrap();
        assert_eq!(m.ireg(1), expect, "x={x}");
    }
}

#[test]
fn accumulator_mac_and_pack() {
    // acc = column-wise dot products over 4 rows of 16-bit values.
    let rows_a: [[i16; 8]; 4] = [
        [1, 2, 3, 4, 5, 6, 7, 8],
        [-1, -2, -3, -4, -5, -6, -7, -8],
        [100, 200, 300, 400, 500, 600, 700, 800],
        [7, 0, -7, 0, 7, 0, -7, 0],
    ];
    let rows_b: [[i16; 8]; 4] = [
        [2, 2, 2, 2, 2, 2, 2, 2],
        [3, 3, 3, 3, 3, 3, 3, 3],
        [1, 1, 1, 1, 1, 1, 1, 1],
        [10, 10, 10, 10, 10, 10, 10, 10],
    ];
    let mut expect = [0i64; 8];
    for r in 0..4 {
        for c in 0..8 {
            expect[c] += i64::from(rows_a[r][c]) * i64::from(rows_b[r][c]);
        }
    }

    let mut asm = Asm::new();
    let (pa, pb, out) = (asm.arg(0), asm.arg(1), asm.arg(2));
    let (m1, m2) = (asm.mreg(), asm.mreg());
    let acc = asm.areg();
    asm.setvl(4);
    asm.accclear(acc);
    asm.mload(m1, pa, 16, 16);
    asm.mload(m2, pb, 16, 16);
    asm.macc(AccOp::Mac, acc, m1, m2);
    asm.accsum(out, acc);
    asm.halt();
    let prog = asm.finish();

    let mut m = Machine::new(Ext::Vmmx128, 4096);
    for r in 0..4 {
        m.write_i16s(256 + 16 * r as u64, &rows_a[r]).unwrap();
        m.write_i16s(1024 + 16 * r as u64, &rows_b[r]).unwrap();
    }
    m.set_ireg(0, 256);
    m.set_ireg(1, 1024);
    m.run(&prog, &mut NullSink, 1000).unwrap();
    assert_eq!(m.ireg(2), expect.iter().sum::<i64>());
}

#[test]
fn store_writes_memory_scalar() {
    let mut asm = Asm::new();
    let p = asm.arg(0);
    let t = asm.ireg();
    asm.li(t, -2);
    asm.store(MemSz::H, t, p, 0);
    asm.halt();
    let prog = asm.finish();
    let mut m = Machine::new(Ext::Mmx64, 128);
    m.set_ireg(0, 64);
    m.run(&prog, &mut NullSink, 10).unwrap();
    assert_eq!(m.read_i16s(64, 1).unwrap()[0], -2);
}
