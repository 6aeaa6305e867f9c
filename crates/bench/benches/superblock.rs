//! Criterion benchmarks of the superblock execution engine: the fused
//! emulate+time path (whole blocks scoreboarded from precomputed
//! dependence edges) against the per-instruction fallback.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use simdsim::emu::{DynInstr, Machine, TraceSink};
use simdsim::kernels::{by_name, Variant};
use simdsim::pipe::{PipeConfig, Pipeline};
use simdsim_isa::{DecodedBlock, DecodedInstr, Ext};

/// A sink that forwards only `push`, so the trait's default `push_block`
/// replays every block one instruction at a time — the pre-superblock
/// timing path, kept as the side-exit fallback.
struct PerInstr(Pipeline);

impl TraceSink for PerInstr {
    fn push(&mut self, di: &DynInstr, dec: &DecodedInstr) {
        self.0.push(di, dec);
    }
}

/// A sink that forwards `push_block` too, taking the fused path.
struct Fused(Pipeline);

impl TraceSink for Fused {
    fn push(&mut self, di: &DynInstr, dec: &DecodedInstr) {
        self.0.push(di, dec);
    }

    fn push_block(&mut self, dis: &[DynInstr], decs: &[DecodedInstr], block: &DecodedBlock) {
        self.0.push_block(dis, decs, block);
    }
}

fn bench_block_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("superblock-timing");
    g.sample_size(10);
    let kernel = by_name("motion1").expect("motion1 exists");
    for ext in [Ext::Mmx64, Ext::Vmmx128] {
        let built = kernel.build(Variant::for_ext(ext));
        let dec = built.program.decode();
        let cfg = PipeConfig::paper(2, ext);
        let mut probe = built.machine.clone();
        let stats = probe
            .run_decoded(&dec, &mut simdsim::emu::NullSink, u64::MAX)
            .expect("runs");
        g.throughput(Throughput::Elements(stats.dyn_instrs));

        g.bench_with_input(
            BenchmarkId::new("fused-blocks", ext.name()),
            &built,
            |b, built| {
                let mut m: Machine = built.machine.clone();
                b.iter(|| {
                    m.reset_from(&built.machine);
                    let mut sink = Fused(Pipeline::new(cfg));
                    m.run_decoded(&dec, &mut sink, u64::MAX).expect("runs");
                    sink.0.stats()
                });
            },
        );

        g.bench_with_input(
            BenchmarkId::new("per-instruction", ext.name()),
            &built,
            |b, built| {
                let mut m: Machine = built.machine.clone();
                b.iter(|| {
                    m.reset_from(&built.machine);
                    let mut sink = PerInstr(Pipeline::new(cfg));
                    m.run_decoded(&dec, &mut sink, u64::MAX).expect("runs");
                    sink.0.stats()
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_block_engine);
criterion_main!(benches);
