//! Criterion benchmarks of the timing model alone: one Fig. 5
//! application trace and one Fig. 4 kernel trace are captured once
//! (`VecSink`) and replayed through `Pipeline::push`, so no emulation or
//! workload build is timed.
//!
//! * `push` — one paper configuration replays the whole trace, at each of
//!   the paper's three widths (2-, 4- and 8-way: 16-, 24- and 36-entry
//!   issue queues).
//! * `fan-out` — the paper's three widths replay the one trace in chunks,
//!   the way `simulate_in` times a group of configurations: each chunk
//!   goes through every pipeline in turn.  `1` pushes each instruction
//!   straight into every pipeline (a broadcast, no buffer); `whole`
//!   replays the trace into each pipeline one after the other (three
//!   separate runs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use simdsim::emu::{DynInstr, TraceSink, VecSink};
use simdsim::kernels::{by_name, BuiltKernel, Variant};
use simdsim::pipe::{PipeConfig, Pipeline};
use simdsim_isa::{Decoded, Ext};

/// A captured dynamic trace and the decoded table its `pc`s index.
struct Trace {
    name: &'static str,
    ext: Ext,
    dec: Decoded,
    instrs: Vec<DynInstr>,
}

fn capture(name: &'static str, ext: Ext, built: &BuiltKernel) -> Trace {
    let dec = built.program.decode();
    let mut sink = VecSink::default();
    built
        .machine
        .clone()
        .run_decoded(&dec, &mut sink, u64::MAX)
        .expect("runs");
    Trace {
        name,
        ext,
        dec,
        instrs: sink.trace,
    }
}

fn traces() -> Vec<Trace> {
    let ext = Ext::Vmmx128;
    let variant = Variant::for_ext(ext);
    let app = simdsim_apps::by_name("mpeg2dec").expect("mpeg2dec exists");
    let kernel = by_name("idct").expect("idct exists");
    vec![
        capture("mpeg2dec", ext, &app.build(variant)),
        capture("idct", ext, &kernel.build(variant)),
    ]
}

/// Replays `trace` into every pipeline, `chunk` instructions at a time.
fn replay(pipes: &mut [Pipeline], trace: &Trace, chunk: usize) {
    for part in trace.instrs.chunks(chunk) {
        for pipe in pipes.iter_mut() {
            for di in part {
                pipe.push(di, &trace.dec[di.pc as usize]);
            }
        }
    }
}

fn bench_push(c: &mut Criterion) {
    let mut g = c.benchmark_group("push");
    g.sample_size(10);
    for trace in &traces() {
        g.throughput(Throughput::Elements(trace.instrs.len() as u64));
        for way in [2, 4, 8] {
            let cfg = PipeConfig::paper(way, trace.ext);
            let mut pipe = [Pipeline::new(cfg)];
            let id = BenchmarkId::new(trace.name, format!("{way}way"));
            g.bench_with_input(id, trace, |b, trace| {
                b.iter(|| {
                    pipe[0].reset(cfg);
                    replay(&mut pipe, trace, trace.instrs.len());
                    pipe[0].stats()
                });
            });
        }
    }
    g.finish();
}

fn bench_fan_out(c: &mut Criterion) {
    let mut g = c.benchmark_group("fan-out");
    g.sample_size(10);
    for trace in &traces() {
        let cfgs = [2, 4, 8].map(|way| PipeConfig::paper(way, trace.ext));
        let mut pipes = cfgs.map(Pipeline::new);
        // Three pipelines each time the whole trace.
        g.throughput(Throughput::Elements(3 * trace.instrs.len() as u64));
        for (label, chunk) in [
            ("1", 1),
            ("1K", 1 << 10),
            ("2K", 2 << 10),
            ("4K", 4 << 10),
            ("whole", trace.instrs.len()),
        ] {
            g.bench_with_input(BenchmarkId::new(trace.name, label), trace, |b, trace| {
                b.iter(|| {
                    for (pipe, cfg) in pipes.iter_mut().zip(cfgs) {
                        pipe.reset(cfg);
                    }
                    replay(&mut pipes, trace, chunk);
                    pipes[2].stats()
                });
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_push, bench_fan_out);
criterion_main!(benches);
