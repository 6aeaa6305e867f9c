//! Criterion benchmarks of the functional emulation path (`Machine::run`
//! and the predecoded `Machine::run_decoded` hot loop), isolated from the
//! timing model, and of the sub-word kernels (SWAR and lane-array fast
//! paths) against the reference interpreter's per-lane oracles
//! (`simdsim_conform::refint`).

use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use simdsim::emu::{Machine, NullSink};
use simdsim::kernels::{by_name, Variant};
use simdsim_conform::refint;
use simdsim_emu::subword;
use simdsim_isa::{AccOp, Esz, Ext, VOp, VShiftOp};

fn bench_machine_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("emulation");
    g.sample_size(10);
    let kernel = by_name("motion1").expect("motion1 exists");
    for ext in Ext::ALL {
        let built = kernel.build(Variant::for_ext(ext));
        let mut probe = built.machine.clone();
        let stats = probe
            .run(&built.program, &mut NullSink, u64::MAX)
            .expect("runs");
        g.throughput(Throughput::Elements(stats.dyn_instrs));

        // `run`: predecode + execute, fresh table per call.
        g.bench_with_input(
            BenchmarkId::new("machine-run", ext.name()),
            &built,
            |b, built| {
                let mut m: Machine = built.machine.clone();
                b.iter(|| {
                    m.reset_from(&built.machine);
                    m.run(&built.program, &mut NullSink, u64::MAX)
                        .expect("runs")
                });
            },
        );

        // `run_decoded`: the steady-state hot loop over a resident table.
        let dec = built.program.decode();
        g.bench_with_input(
            BenchmarkId::new("machine-run-decoded", ext.name()),
            &built,
            |b, built| {
                let mut m: Machine = built.machine.clone();
                b.iter(|| {
                    m.reset_from(&built.machine);
                    m.run_decoded(&dec, &mut NullSink, u64::MAX).expect("runs")
                });
            },
        );
    }
    g.finish();
}

/// Deterministic packed operands (xorshift — no external RNG crate).
fn operands(n: usize) -> Vec<(u128, u128)> {
    let mut x = 0x243f_6a88_85a3_08d3_u64;
    let mut word = || {
        let mut w = 0u128;
        for _ in 0..2 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            w = (w << 64) | u128::from(x);
        }
        w
    };
    (0..n).map(|_| (word(), word())).collect()
}

/// Benchmarks one operation over `inputs` twice: `fast` (the shipped
/// path) and `scalar` (its per-lane reference), each folding its results
/// so nothing is optimised away.
fn fast_vs_scalar(
    g: &mut BenchmarkGroup<'_>,
    name: &str,
    inputs: &[(u128, u128)],
    fast: impl Fn(u128, u128) -> u128,
    scalar: impl Fn(u128, u128) -> u128,
) {
    g.bench_with_input(BenchmarkId::new("fast", name), inputs, |b, inputs| {
        b.iter(|| inputs.iter().fold(0u128, |acc, &(x, y)| acc ^ fast(x, y)));
    });
    g.bench_with_input(BenchmarkId::new("scalar", name), inputs, |b, inputs| {
        b.iter(|| inputs.iter().fold(0u128, |acc, &(x, y)| acc ^ scalar(x, y)));
    });
}

fn bench_subword(c: &mut Criterion) {
    let mut g = c.benchmark_group("subword");
    let inputs = operands(1024);
    g.throughput(Throughput::Elements(inputs.len() as u64));
    for (name, op) in [
        ("adds.h", VOp::AddS(Esz::H)),
        ("avg.b", VOp::Avg(Esz::B)),
        ("maxs.h", VOp::MaxS(Esz::H)),
        ("unpacklo.b", VOp::UnpackLo(Esz::B)),
        ("unpackhi.b", VOp::UnpackHi(Esz::B)),
        ("unpacklo.h", VOp::UnpackLo(Esz::H)),
        ("unpackhi.h", VOp::UnpackHi(Esz::H)),
        ("packs.h", VOp::PackS(Esz::H)),
        ("packu.h", VOp::PackU(Esz::H)),
        ("packs.w", VOp::PackS(Esz::W)),
        ("packu.w", VOp::PackU(Esz::W)),
        ("madd", VOp::Madd),
        ("mulhi.h", VOp::Mulhi(Esz::H)),
        ("mullo.h", VOp::Mullo(Esz::H)),
    ] {
        fast_vs_scalar(
            &mut g,
            name,
            &inputs,
            |x, y| subword::apply_vop(op, x, y, 16),
            |x, y| refint::vop(op, x, y, 16),
        );
    }
    let sll = VShiftOp::Sll(Esz::H);
    fast_vs_scalar(
        &mut g,
        "sll.h",
        &inputs,
        |x, _| subword::apply_shift(sll, x, 3, 16),
        |x, _| refint::vshift(sll, x, 3, 16),
    );
    // Accumulators: every operand pair folds into one accumulator, as the
    // rows of an `MAcc` do.
    for (name, op) in [
        ("acc.sad", AccOp::Sad),
        ("acc.ssd", AccOp::Ssd),
        ("acc.mac", AccOp::Mac),
        ("acc.addh", AccOp::AddH),
    ] {
        g.bench_with_input(BenchmarkId::new("fast", name), &inputs, |b, inputs| {
            b.iter(|| {
                let mut acc = [0i64; 8];
                for &(x, y) in inputs {
                    subword::accumulate(op, &mut acc, x, y, 16);
                }
                acc
            });
        });
        g.bench_with_input(BenchmarkId::new("scalar", name), &inputs, |b, inputs| {
            b.iter(|| {
                let mut acc = [0i64; 8];
                for &(x, y) in inputs {
                    refint::accumulate(op, &mut acc, x, y, 16);
                }
                acc
            });
        });
    }
    // Transpose: the inputs as 8 × 8 halfword matrices.
    let rows: Vec<u128> = inputs.iter().map(|&(x, _)| x).collect();
    g.bench_with_input(BenchmarkId::new("fast", "transpose.h"), &rows, |b, rows| {
        b.iter(|| {
            rows.chunks_exact(8)
                .fold(0u128, |acc, m| acc ^ subword::transpose(m, Esz::H)[7])
        });
    });
    g.bench_with_input(
        BenchmarkId::new("scalar", "transpose.h"),
        &rows,
        |b, rows| {
            b.iter(|| {
                rows.chunks_exact(8)
                    .fold(0u128, |acc, m| acc ^ refint::transpose(m, Esz::H, 16)[7])
            });
        },
    );
    g.finish();
}

criterion_group!(benches, bench_machine_run, bench_subword);
criterion_main!(benches);
