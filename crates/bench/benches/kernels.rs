//! Criterion micro-benchmarks for the numeric substrate: GEMM, im2col and
//! the convolution layer (dense and depthwise) — the kernels that dominate
//! search time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fedrlnas_nn::{Conv2d, Layer, Mode};
use fedrlnas_tensor::{gemm, gemm_naive, im2col, Conv2dGeometry, Tensor};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Supernet-realistic GEMM shapes as the conv lowering produces them:
/// `m` = output channels, `n` = spatial positions, `k` = `cin * kh * kw`
/// (DARTS cells on 32x32 inputs with 16/32/64 channels).
const SUPERNET_GEMM_SHAPES: &[(usize, usize, usize)] = &[
    (16, 1024, 144), // 16ch 3x3 cell on 32x32
    (32, 256, 288),  // 32ch 3x3 cell on 16x16
    (64, 64, 576),   // 64ch 3x3 cell on 8x8
];

/// Before/after comparison at supernet shapes: the seed's scalar triple
/// loop vs the packed, SIMD-dispatched GEMM. Criterion groups them so the
/// report shows both lines per shape.
fn bench_gemm_supernet(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_supernet");
    group.sample_size(15);
    group.measurement_time(std::time::Duration::from_secs(3));
    let mut rng = StdRng::seed_from_u64(7);
    for &(m, n, k) in SUPERNET_GEMM_SHAPES {
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut out = vec![0.0f32; m * n];
        let shape = format!("{m}x{n}x{k}");
        group.bench_with_input(BenchmarkId::new("naive", &shape), &shape, |bench, _| {
            bench.iter(|| {
                out.fill(0.0);
                gemm_naive(m, n, k, &a, &b, &mut out);
                std::hint::black_box(&out);
            });
        });
        group.bench_with_input(BenchmarkId::new("packed", &shape), &shape, |bench, _| {
            bench.iter(|| {
                out.fill(0.0);
                gemm(m, n, k, &a, &b, &mut out);
                std::hint::black_box(&out);
            });
        });
    }
    group.finish();
}

/// Dense 3x3 convolutions at supernet shapes, forward and forward+backward,
/// through the layer (fused bias + reused workspace).
fn bench_conv_supernet(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d_supernet");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    let mut rng = StdRng::seed_from_u64(8);
    for &(ch, hw, batch) in &[(16usize, 32usize, 8usize), (32, 16, 8), (64, 8, 8)] {
        let mut conv = Conv2d::new(ch, ch, 3, 1, 1, 1, 1, &mut rng);
        let x = Tensor::randn(&[batch, ch, hw, hw], 1.0, &mut rng);
        let shape = format!("{ch}ch_{hw}x{hw}_b{batch}");
        group.bench_with_input(BenchmarkId::new("forward", &shape), &shape, |b, _| {
            b.iter(|| std::hint::black_box(conv.forward(&x, Mode::Eval)));
        });
        group.bench_with_input(
            BenchmarkId::new("forward_backward", &shape),
            &shape,
            |b, _| {
                b.iter(|| {
                    let y = conv.forward(&x, Mode::Train);
                    std::hint::black_box(conv.backward(&Tensor::ones(y.dims())));
                });
            },
        );
    }
    group.finish();
}

/// Depthwise stages of the separable and dilated candidate ops at the
/// search supernet's shapes (8/16/32 channels at 12/6/3 px, batch 16),
/// forward + backward through the layer's direct per-plane kernels.
fn bench_depthwise_supernet(c: &mut Criterion) {
    let mut group = c.benchmark_group("depthwise_forward_backward");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(1));
    let mut rng = StdRng::seed_from_u64(9);
    for &(ch, hw) in &[(8usize, 12usize), (16, 6), (32, 3)] {
        for (k, dilation) in [(3usize, 1usize), (3, 2), (5, 1), (5, 2)] {
            let padding = dilation * (k - 1) / 2;
            let mut conv = Conv2d::new(ch, ch, k, 1, padding, dilation, ch, &mut rng);
            let x = Tensor::randn(&[16, ch, hw, hw], 1.0, &mut rng);
            let shape = format!("k{k}_d{dilation}_{ch}ch_{hw}x{hw}_b16");
            group.bench_with_input(BenchmarkId::from_parameter(&shape), &shape, |b, _| {
                b.iter(|| {
                    let y = conv.forward(&x, Mode::Train);
                    std::hint::black_box(conv.backward(&Tensor::ones(y.dims())));
                });
            });
        }
    }
    group.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    let mut rng = StdRng::seed_from_u64(0);
    for &n in &[16usize, 64, 128] {
        let a: Vec<f32> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, &n| {
            let mut out = vec![0.0f32; n * n];
            bench.iter(|| {
                out.fill(0.0);
                gemm(n, n, n, &a, &b, &mut out);
                std::hint::black_box(&out);
            });
        });
    }
    group.finish();
}

fn bench_im2col(c: &mut Criterion) {
    let mut group = c.benchmark_group("im2col");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(3));
    let mut rng = StdRng::seed_from_u64(1);
    for &(hw, ch) in &[(8usize, 8usize), (16, 16), (32, 16)] {
        let geom = Conv2dGeometry::new(hw, hw, 3, 1, 1, 1);
        let img: Vec<f32> = (0..ch * hw * hw)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let mut cols = vec![0.0f32; geom.col_rows(ch) * geom.out_positions()];
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{hw}x{hw}x{ch}")),
            &hw,
            |bench, _| {
                bench.iter(|| {
                    im2col(&img, ch, &geom, &mut cols).expect("valid geometry");
                    std::hint::black_box(&cols);
                });
            },
        );
    }
    group.finish();
}

fn bench_conv_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d");
    group.sample_size(15);
    group.measurement_time(std::time::Duration::from_secs(3));
    let mut rng = StdRng::seed_from_u64(2);
    let mut conv = Conv2d::new(16, 16, 3, 1, 1, 1, 1, &mut rng);
    let mut dw = Conv2d::new(16, 16, 3, 1, 1, 1, 16, &mut rng);
    let x = Tensor::randn(&[8, 16, 12, 12], 1.0, &mut rng);
    group.bench_function("dense_forward", |b| {
        b.iter(|| std::hint::black_box(conv.forward(&x, Mode::Eval)))
    });
    group.bench_function("depthwise_forward", |b| {
        b.iter(|| std::hint::black_box(dw.forward(&x, Mode::Eval)))
    });
    group.bench_function("depthwise_forward_backward", |b| {
        b.iter(|| {
            let y = dw.forward(&x, Mode::Train);
            std::hint::black_box(dw.backward(&Tensor::ones(y.dims())));
        })
    });
    group.bench_function("dense_forward_backward", |b| {
        b.iter(|| {
            let y = conv.forward(&x, Mode::Train);
            std::hint::black_box(conv.backward(&Tensor::ones(y.dims())));
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_gemm_supernet,
    bench_im2col,
    bench_conv_layer,
    bench_depthwise_supernet,
    bench_conv_supernet
);
criterion_main!(benches);
