//! Before/after kernel benchmark emitting `BENCH_kernels.json`.
//!
//! Compares the seed's scalar kernels ("before": [`gemm_naive`] plus
//! per-call column-buffer allocation and a separate bias pass) against the
//! packed, SIMD-dispatched GEMM with fused bias and reusable workspaces
//! ("after": [`gemm`]/[`gemm_bias`] through [`Conv2d`]), at
//! supernet-realistic shapes (DARTS cells on 32x32 inputs with 16/32/64
//! channels). The `depthwise_forward_backward` section compares the
//! `im2col` + GEMM lowering of depthwise convolutions ("before", rebuilt
//! here from the public tensor functions with reused buffers) against the
//! direct per-plane kernels behind a depthwise [`Conv2d`] ("after"), at the
//! shapes of the separable and dilated candidate ops in the search
//! supernet. Reports the median of `REPS` timed runs per shape, in
//! nanoseconds, as JSON.
//!
//! Usage: `cargo run --release -p fedrlnas-bench --bin bench_kernels`
//! (writes `BENCH_kernels.json` in the current directory; pass `--out
//! <path>` to override).

use fedrlnas_bench::{flag_value, median_ns};
use fedrlnas_nn::{Conv2d, Layer, Mode};
use fedrlnas_tensor::{col2im, gemm, gemm_bias, gemm_naive, im2col, Conv2dGeometry, Tensor};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fmt::Write as _;

const REPS: usize = 15;

fn randv(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

struct Row {
    label: String,
    before_ns: u64,
    after_ns: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.before_ns as f64 / self.after_ns.max(1) as f64
    }
}

/// GEMM shapes as the conv lowering produces them: `m` = output channels per
/// group, `n` = spatial positions, `k` = `cin/groups * kh * kw`.
fn bench_gemm_shapes(rng: &mut StdRng) -> Vec<Row> {
    let shapes: &[(usize, usize, usize)] = &[
        (16, 1024, 144), // 16ch 3x3 cell on 32x32
        (32, 256, 288),  // 32ch 3x3 cell on 16x16
        (64, 64, 576),   // 64ch 3x3 cell on 8x8
        (64, 256, 64),   // 1x1 pointwise, 64ch on 16x16
        (128, 128, 128), // square reference point
    ];
    shapes
        .iter()
        .map(|&(m, n, k)| {
            let a = randv(m * k, rng);
            let b = randv(k * n, rng);
            let mut c = vec![0.0f32; m * n];
            let before_ns = median_ns(REPS, || {
                c.fill(0.0);
                gemm_naive(m, n, k, &a, &b, &mut c);
                std::hint::black_box(&c);
            });
            let after_ns = median_ns(REPS, || {
                c.fill(0.0);
                gemm(m, n, k, &a, &b, &mut c);
                std::hint::black_box(&c);
            });
            Row {
                label: format!("gemm_{m}x{n}x{k}"),
                before_ns,
                after_ns,
            }
        })
        .collect()
}

/// The seed's conv-forward code shape: allocate the column buffer per call,
/// broadcast the bias in a separate pass, then accumulate with the scalar
/// GEMM. Kept here (not in the library) purely as the "before" measurement.
#[allow(clippy::too_many_arguments)]
fn conv_forward_baseline(
    x: &Tensor,
    weight: &[f32],
    bias: &[f32],
    cout: usize,
    cin: usize,
    kernel: usize,
    geom: &Conv2dGeometry,
    out: &mut [f32],
) {
    let dims = x.dims();
    let (n, _c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let col_rows = cin * kernel * kernel;
    let positions = geom.out_positions();
    let mut cols = vec![0.0f32; col_rows * positions];
    let img_len = cin * h * w;
    for i in 0..n {
        let image = &x.as_slice()[i * img_len..(i + 1) * img_len];
        im2col(image, cin, geom, &mut cols).expect("valid geometry");
        let dst = &mut out[i * cout * positions..(i + 1) * cout * positions];
        for oc in 0..cout {
            dst[oc * positions..(oc + 1) * positions].fill(bias[oc]);
        }
        gemm_naive(cout, positions, col_rows, weight, &cols, dst);
    }
}

/// The seed's conv-backward code shape: per-call `cols`/`dcols`/`wt`
/// allocations, explicit dW loops, scalar GEMM for the column gradient.
#[allow(clippy::too_many_arguments)]
fn conv_backward_baseline(
    x: &Tensor,
    weight: &[f32],
    grad_out: &[f32],
    cout: usize,
    cin: usize,
    kernel: usize,
    geom: &Conv2dGeometry,
    dweight: &mut [f32],
    dbias: &mut [f32],
    dx: &mut [f32],
) {
    let dims = x.dims();
    let (n, _c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let col_rows = cin * kernel * kernel;
    let positions = geom.out_positions();
    let mut cols = vec![0.0f32; col_rows * positions];
    let mut dcols = vec![0.0f32; col_rows * positions];
    let mut wt = vec![0.0f32; col_rows * cout];
    for r in 0..cout {
        for q in 0..col_rows {
            wt[q * cout + r] = weight[r * col_rows + q];
        }
    }
    let img_len = cin * h * w;
    for i in 0..n {
        let image = &x.as_slice()[i * img_len..(i + 1) * img_len];
        im2col(image, cin, geom, &mut cols).expect("valid geometry");
        let go = &grad_out[i * cout * positions..(i + 1) * cout * positions];
        for oc in 0..cout {
            let go_row = &go[oc * positions..(oc + 1) * positions];
            let dw_row = &mut dweight[oc * col_rows..(oc + 1) * col_rows];
            for (q, dwv) in dw_row.iter_mut().enumerate() {
                let col_row = &cols[q * positions..(q + 1) * positions];
                let mut acc = 0.0f32;
                for p in 0..positions {
                    acc += go_row[p] * col_row[p];
                }
                *dwv += acc;
            }
            dbias[oc] += go_row.iter().sum::<f32>();
        }
        dcols.fill(0.0);
        gemm_naive(col_rows, positions, cout, &wt, go, &mut dcols);
        let dgin = &mut dx[i * img_len..(i + 1) * img_len];
        col2im(&dcols, cin, geom, dgin).expect("valid geometry");
    }
}

/// Dense (groups = 1) supernet convolutions: `(channels, spatial, batch)`.
fn bench_conv_shapes(rng: &mut StdRng) -> (Vec<Row>, Vec<Row>) {
    let shapes: &[(usize, usize, usize)] = &[(16, 32, 8), (32, 16, 8), (64, 8, 8)];
    let mut fwd = Vec::new();
    let mut fwd_bwd = Vec::new();
    for &(ch, hw, batch) in shapes {
        let label = format!("conv3x3_{ch}ch_{hw}x{hw}_b{batch}");
        let geom = Conv2dGeometry::new(hw, hw, 3, 1, 1, 1);
        let x = Tensor::randn(&[batch, ch, hw, hw], 1.0, rng);
        let weight = randv(ch * ch * 9, rng);
        let bias = randv(ch, rng);
        let mut out = vec![0.0f32; batch * ch * geom.out_positions()];
        let before_ns = median_ns(REPS, || {
            conv_forward_baseline(&x, &weight, &bias, ch, ch, 3, &geom, &mut out);
            std::hint::black_box(&out);
        });

        let mut conv = Conv2d::new(ch, ch, 3, 1, 1, 1, 1, rng);
        let after_ns = median_ns(REPS, || {
            std::hint::black_box(conv.forward(&x, Mode::Eval));
        });
        fwd.push(Row {
            label: label.clone(),
            before_ns,
            after_ns,
        });

        // Training step (forward + backward): seed code shape vs the layer.
        let grad = Tensor::ones(&[batch, ch, geom.out_h, geom.out_w]);
        let mut dweight = vec![0.0f32; weight.len()];
        let mut dbias = vec![0.0f32; bias.len()];
        let mut dx = vec![0.0f32; x.len()];
        let before_train_ns = median_ns(REPS, || {
            conv_forward_baseline(&x, &weight, &bias, ch, ch, 3, &geom, &mut out);
            conv_backward_baseline(
                &x,
                &weight,
                grad.as_slice(),
                ch,
                ch,
                3,
                &geom,
                &mut dweight,
                &mut dbias,
                &mut dx,
            );
            std::hint::black_box((&out, &dx));
        });
        let after_train_ns = median_ns(REPS, || {
            let y = conv.forward(&x, Mode::Train);
            std::hint::black_box(conv.backward(&grad));
            std::hint::black_box(y);
        });
        fwd_bwd.push(Row {
            label,
            before_ns: before_train_ns,
            after_ns: after_train_ns,
        });
    }
    (fwd, fwd_bwd)
}

/// Reused buffers of the depthwise `im2col` lowering (the layer's former
/// workspace slots): column matrix, its gradient, and the per-channel
/// weight-gradient accumulator.
struct LoweredDepthwise {
    cols: Vec<f32>,
    dcols: Vec<f32>,
    dwt: Vec<f32>,
}

impl LoweredDepthwise {
    /// One training step of a depthwise convolution as it used to run: per
    /// (sample, channel) an `im2col` and an `M = 1` GEMM forward; per channel
    /// a batch-wide `N = 1` GEMM for dW, a second GEMM for the column
    /// gradient and a `col2im` scatter backward.
    #[allow(clippy::too_many_arguments)]
    fn train_step(
        &mut self,
        x: &Tensor,
        weight: &[f32],
        bias: &[f32],
        grad_out: &[f32],
        geom: &Conv2dGeometry,
        out: &mut [f32],
        dweight: &mut [f32],
        dbias: &mut [f32],
        dx: &mut [f32],
    ) {
        let dims = x.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let (plane, positions, kk) = (h * w, geom.out_positions(), geom.kernel * geom.kernel);
        let (cols, dcols, dwt) = (&mut self.cols, &mut self.dcols, &mut self.dwt);
        cols.resize(kk * positions, 0.0);
        dcols.resize(kk * positions, 0.0);
        dwt.resize(kk, 0.0);
        for p in 0..n * c {
            let ch = p % c;
            im2col(&x.as_slice()[p * plane..(p + 1) * plane], 1, geom, cols).expect("geometry");
            let dst = &mut out[p * positions..(p + 1) * positions];
            gemm_bias(1, positions, kk, &weight[ch * kk..], cols, &bias[ch..], dst);
        }
        dx.fill(0.0);
        for ch in 0..c {
            dwt.fill(0.0);
            for i in 0..n {
                let p = i * c + ch;
                im2col(&x.as_slice()[p * plane..(p + 1) * plane], 1, geom, cols).expect("geometry");
                let go = &grad_out[p * positions..(p + 1) * positions];
                dbias[ch] += go.iter().sum::<f32>();
                gemm(kk, 1, positions, cols, go, dwt);
                dcols.fill(0.0);
                gemm(kk, positions, 1, &weight[ch * kk..], go, dcols);
                col2im(dcols, 1, geom, &mut dx[p * plane..(p + 1) * plane]).expect("geometry");
            }
            for (d, t) in dweight[ch * kk..(ch + 1) * kk].iter_mut().zip(dwt.iter()) {
                *d += t;
            }
        }
    }
}

/// Depthwise stages of the supernet's sep/dil conv candidates at the
/// search scale: `(channels, spatial)` per cell stage, `k` 3/5, dilation
/// 1/2 with "same" padding, batch 16.
fn bench_depthwise_shapes(rng: &mut StdRng) -> Vec<Row> {
    const BATCH: usize = 16;
    let mut rows = Vec::new();
    for &(ch, hw) in &[(8usize, 12usize), (16, 6), (32, 3)] {
        for k in [3usize, 5] {
            for dilation in [1usize, 2] {
                let padding = dilation * (k - 1) / 2;
                let geom = Conv2dGeometry::new(hw, hw, k, 1, padding, dilation);
                let x = Tensor::randn(&[BATCH, ch, hw, hw], 1.0, rng);
                let grad = Tensor::randn(&[BATCH, ch, geom.out_h, geom.out_w], 1.0, rng);
                let mut conv = Conv2d::new(ch, ch, k, 1, padding, dilation, ch, rng);
                let mut params = Vec::new();
                conv.visit_params(&mut |p| params.push(p.value.as_slice().to_vec()));
                let (weight, bias) = (&params[0], &params[1]);
                let mut lowered = LoweredDepthwise {
                    cols: Vec::new(),
                    dcols: Vec::new(),
                    dwt: Vec::new(),
                };
                let mut out = vec![0.0f32; grad.len()];
                let mut dweight = vec![0.0f32; weight.len()];
                let mut dbias = vec![0.0f32; bias.len()];
                let mut dx = vec![0.0f32; x.len()];
                let before_ns = median_ns(REPS, || {
                    lowered.train_step(
                        &x,
                        weight,
                        bias,
                        grad.as_slice(),
                        &geom,
                        &mut out,
                        &mut dweight,
                        &mut dbias,
                        &mut dx,
                    );
                    std::hint::black_box((&out, &dx));
                });
                let after_ns = median_ns(REPS, || {
                    let y = conv.forward(&x, Mode::Train);
                    std::hint::black_box(conv.backward(&grad));
                    std::hint::black_box(y);
                });
                rows.push(Row {
                    label: format!("dw{k}x{k}_d{dilation}_{ch}ch_{hw}x{hw}_b{BATCH}"),
                    before_ns,
                    after_ns,
                });
            }
        }
    }
    rows
}

fn section(out: &mut String, name: &str, rows: &[Row], last: bool) {
    writeln!(out, "  \"{name}\": [").unwrap();
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"shape\": \"{}\", \"before_ns\": {}, \"after_ns\": {}, \"speedup\": {:.2}}}{comma}",
            r.label, r.before_ns, r.after_ns, r.speedup()
        )
        .unwrap();
    }
    writeln!(out, "  ]{}", if last { "" } else { "," }).unwrap();
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let out_path = flag_value(&argv, "--out").unwrap_or_else(|| "BENCH_kernels.json".to_string());

    let mut rng = StdRng::seed_from_u64(42);
    eprintln!("timing gemm shapes (median of {REPS})...");
    let gemm_rows = bench_gemm_shapes(&mut rng);
    eprintln!("timing conv shapes (median of {REPS})...");
    let (fwd_rows, train_rows) = bench_conv_shapes(&mut rng);
    eprintln!("timing depthwise shapes (median of {REPS})...");
    let dw_rows = bench_depthwise_shapes(&mut rng);

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(
        json,
        "  \"description\": \"median ns per kernel; gemm/conv: before = seed scalar GEMM + per-call allocation, after = packed SIMD GEMM + fused bias + reused workspace; depthwise_forward_backward: before = im2col + GEMM lowering with reused buffers, after = direct per-plane depthwise kernels (bit-identical)\","
    )
    .unwrap();
    writeln!(json, "  \"reps\": {REPS},").unwrap();
    section(&mut json, "gemm", &gemm_rows, false);
    section(&mut json, "conv_forward", &fwd_rows, false);
    section(&mut json, "conv_forward_backward", &train_rows, false);
    section(&mut json, "depthwise_forward_backward", &dw_rows, true);
    writeln!(json, "}}").unwrap();

    std::fs::write(&out_path, &json).expect("write BENCH_kernels.json");
    print!("{json}");
    eprintln!("wrote {out_path}");

    for rows in [&gemm_rows, &fwd_rows, &train_rows, &dw_rows] {
        for r in rows {
            eprintln!(
                "{:38} {:>10} -> {:>10} ns  ({:.2}x)",
                r.label,
                r.before_ns,
                r.after_ns,
                r.speedup()
            );
        }
    }
}
