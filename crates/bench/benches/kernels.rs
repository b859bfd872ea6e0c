//! Kernel-level benchmarks of the autodiff substrate: the dense products,
//! gather/scatter, and MLP passes that dominate the compute term of the
//! weak-scaling model (calibration inputs for Fig. 7), plus the kernel
//! pool's fixed cost per parallel call.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use cgnn_tensor::init::uniform;
use cgnn_tensor::{Mlp, ParamSet, Tape, Tensor};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = StdRng::seed_from_u64(1);
    for &(m, k, n) in &[
        (4096usize, 24usize, 8usize),
        (4096, 96, 32),
        (16384, 96, 32),
    ] {
        let a = uniform(m, k, 1.0, &mut rng);
        let b = uniform(k, n, 1.0, &mut rng);
        group.throughput(Throughput::Elements((2 * m * k * n) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}x{k}x{n}")),
            &(),
            |bch, _| bch.iter(|| a.matmul(&b)),
        );
    }
    group.finish();
}

fn bench_gather_scatter(c: &mut Criterion) {
    let mut group = c.benchmark_group("gather_scatter");
    let mut rng = StdRng::seed_from_u64(2);
    let rows = 100_000;
    let cols = 32;
    let x = uniform(rows, cols, 1.0, &mut rng);
    let idx: Vec<usize> = (0..6 * rows).map(|i| (i * 2654435761) % rows).collect();
    group.throughput(Throughput::Elements((idx.len() * cols) as u64));
    group.bench_function("gather_600k_rows_x32", |b| b.iter(|| x.gather_rows(&idx)));
    let g = x.gather_rows(&idx);
    group.bench_function("scatter_add_600k_rows_x32", |b| {
        b.iter(|| g.scatter_add_rows(&idx, rows))
    });
    group.finish();
}

fn bench_mlp_forward_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("mlp");
    group.sample_size(20);
    for (label, hidden, n_hidden) in [("small", 8usize, 2usize), ("large", 32, 5)] {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(
            &mut params,
            "m",
            3 * hidden,
            hidden,
            hidden,
            n_hidden,
            true,
            &mut rng,
        );
        let x = uniform(50_000, 3 * hidden, 1.0, &mut rng);
        group.throughput(Throughput::Elements(50_000));
        group.bench_function(format!("forward_{label}_50k_rows"), |b| {
            b.iter(|| {
                let mut tape = Tape::new();
                let bound = params.bind(&mut tape);
                let xv = tape.leaf(x.clone());
                mlp.forward(&mut tape, &bound, xv)
            })
        });
        group.bench_function(format!("forward_backward_{label}_50k_rows"), |b| {
            b.iter(|| {
                let mut tape = Tape::new();
                let bound = params.bind(&mut tape);
                let xv = tape.leaf(x.clone());
                let y = mlp.forward(&mut tape, &bound, xv);
                let w = Arc::new(vec![1.0; 50_000]);
                let s = tape.weighted_sq_sum(y, w);
                tape.backward(s)
            })
        });
    }
    group.finish();
}

fn bench_layernorm_elu(c: &mut Criterion) {
    let mut group = c.benchmark_group("activations");
    let mut rng = StdRng::seed_from_u64(4);
    let x = uniform(100_000, 32, 2.0, &mut rng);
    let gamma = Tensor::full(1, 32, 1.0);
    let beta = Tensor::zeros(1, 32);
    group.throughput(Throughput::Elements(100_000 * 32));
    group.bench_function("layer_norm_100k_x32", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let g = tape.leaf(gamma.clone());
            let bt = tape.leaf(beta.clone());
            tape.layer_norm(xv, g, bt, 1e-5)
        })
    });
    group.bench_function("elu_100k_x32", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            tape.elu(xv)
        })
    });
    group.finish();
}

/// Fixed cost of one parallel kernel call: two near-empty chunks, so the
/// time is the pool's dispatch (1 worker: inline; 2 workers: wake a parked
/// helper, split the chunks, wait for it to leave).
fn bench_par_dispatch(c: &mut Criterion) {
    use rayon::ParallelSliceMut;
    let mut group = c.benchmark_group("par_dispatch");
    let mut data = [0u64; 2];
    for workers in [1usize, 2] {
        group.bench_function(format!("two_chunks_{workers}_workers"), |b| {
            rayon::with_num_threads(workers, || {
                b.iter(|| {
                    data.par_chunks_mut(1).enumerate().for_each(|(i, chunk)| {
                        chunk[0] = chunk[0].wrapping_add(i as u64);
                    })
                })
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_gather_scatter,
    bench_mlp_forward_backward,
    bench_layernorm_elu,
    bench_par_dispatch
);
criterion_main!(benches);
