//! Kernel equivalence: the depthwise `Conv2d` path (direct per-plane
//! kernels) against the `im2col` + scalar GEMM + `col2im` lowering it
//! replaced, rebuilt here from the public tensor functions.
//!
//! Forward output, input gradient, weight gradient and bias gradient must
//! agree bit for bit (`to_bits`), signed zeros and infinities included, for
//! every shape on which the lowering ran the scalar GEMM
//! (`out_h * out_w * k * k <= 16384`).

use fedrlnas_nn::{Conv2d, Layer, Mode};
use fedrlnas_tensor::{col2im, gemm_naive, im2col, Conv2dGeometry, Tensor};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Largest `m * n * k` the GEMM dispatch sends to the scalar kernel.
const SCALAR_GEMM_LIMIT: usize = 16 * 1024;

/// One depthwise problem: NCHW input, `[c, k*k]` taps, `[c]` bias and an
/// output gradient.
struct Case {
    n: usize,
    c: usize,
    hw: usize,
    geom: Conv2dGeometry,
    x: Vec<f32>,
    weight: Vec<f32>,
    bias: Vec<f32>,
    grad: Vec<f32>,
}

/// Out, dx, dW, db.
type Results = (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>);

/// Half exact zeros, a tenth `-0.0`, the rest normal.
fn sparse_value(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0..10) {
        0..=4 => 0.0,
        5 => -0.0,
        _ => rng.gen_range(-2.0..2.0),
    }
}

/// A fifth zero, a tenth `-0.0`, the rest normal.
fn weight_value(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0..10) {
        0 | 1 => 0.0,
        2 => -0.0,
        _ => rng.gen_range(-1.0..1.0),
    }
}

#[allow(clippy::too_many_arguments)]
fn make_case(
    n: usize,
    c: usize,
    hw: usize,
    k: usize,
    stride: usize,
    dilation: usize,
    padding: usize,
    seed: u64,
) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let geom = Conv2dGeometry::new(hw, hw, k, stride, padding, dilation);
    let mut x: Vec<f32> = (0..n * c * hw * hw)
        .map(|_| sparse_value(&mut rng))
        .collect();
    let mut weight: Vec<f32> = (0..c * k * k).map(|_| weight_value(&mut rng)).collect();
    let bias = (0..c).map(|_| weight_value(&mut rng)).collect();
    let mut grad: Vec<f32> = (0..n * c * geom.out_positions())
        .map(|_| sparse_value(&mut rng))
        .collect();
    // Every fourth case carries one infinite input and one infinite output
    // gradient, so skipping zero taps and zero inputs (which keeps
    // `0 * inf = NaN` out of the sums) is observable too.
    if rng.gen_range(0..4) == 0 {
        let i = rng.gen_range(0..x.len());
        x[i] = f32::INFINITY.copysign(rng.gen_range(-1.0..1.0));
        let j = rng.gen_range(0..grad.len());
        grad[j] = f32::NEG_INFINITY;
    }
    // Every eighth case has one infinite tap, as a diverged model would.
    if rng.gen_range(0..8) == 0 {
        let t = rng.gen_range(0..weight.len());
        weight[t] = f32::INFINITY;
    }
    Case {
        n,
        c,
        hw,
        geom,
        x,
        weight,
        bias,
        grad,
    }
}

/// The lowering the depthwise path replaced: per (sample, channel) an
/// `im2col`, a bias fill and an `M = 1` scalar GEMM forward; per channel a
/// batch-wide dW accumulator, `dcols = W^T x go` and a `col2im` scatter
/// backward.
fn lowered(case: &Case) -> Results {
    let (n, c, g) = (case.n, case.c, &case.geom);
    let (plane, positions, kk) = (case.hw * case.hw, g.out_positions(), g.kernel * g.kernel);
    let mut cols = vec![0.0f32; kk * positions];
    let mut out = vec![0.0f32; n * c * positions];
    for i in 0..n {
        for ch in 0..c {
            let p = i * c + ch;
            im2col(&case.x[p * plane..(p + 1) * plane], 1, g, &mut cols).unwrap();
            let dst = &mut out[p * positions..(p + 1) * positions];
            dst.fill(case.bias[ch]);
            gemm_naive(1, positions, kk, &case.weight[ch * kk..], &cols, dst);
        }
    }
    let mut dx = vec![0.0f32; case.x.len()];
    let mut dw = vec![0.0f32; case.weight.len()];
    let mut db = vec![0.0f32; c];
    let mut dwt = vec![0.0f32; kk];
    let mut dcols = vec![0.0f32; kk * positions];
    for ch in 0..c {
        let taps = &case.weight[ch * kk..(ch + 1) * kk];
        dwt.fill(0.0);
        for i in 0..n {
            let p = i * c + ch;
            im2col(&case.x[p * plane..(p + 1) * plane], 1, g, &mut cols).unwrap();
            let go = &case.grad[p * positions..(p + 1) * positions];
            db[ch] += go.iter().sum::<f32>();
            gemm_naive(kk, 1, positions, &cols, go, &mut dwt);
            dcols.fill(0.0);
            gemm_naive(kk, positions, 1, taps, go, &mut dcols);
            col2im(&dcols, 1, g, &mut dx[p * plane..(p + 1) * plane]).unwrap();
        }
        for (d, t) in dw[ch * kk..(ch + 1) * kk].iter_mut().zip(&dwt) {
            *d += t;
        }
    }
    (out, dx, dw, db)
}

/// The same problem through a depthwise `Conv2d` layer.
fn direct(case: &Case) -> Results {
    let g = &case.geom;
    let (c, n, hw) = (case.c, case.n, case.hw);
    let mut rng = StdRng::seed_from_u64(0);
    let mut conv = Conv2d::new(c, c, g.kernel, g.stride, g.padding, g.dilation, c, &mut rng);
    let mut values = [&case.weight, &case.bias].into_iter();
    conv.visit_params(&mut |p| {
        let v = values.next().expect("weight and bias");
        p.value.as_mut_slice().copy_from_slice(v);
    });
    let x = Tensor::from_vec(case.x.clone(), &[n, c, hw, hw]).unwrap();
    let out = conv.forward(&x, Mode::Train);
    let grad = Tensor::from_vec(case.grad.clone(), out.dims()).unwrap();
    let dx = conv.backward(&grad);
    let mut grads = Vec::new();
    conv.visit_params(&mut |p| grads.push(p.grad.as_slice().to_vec()));
    let db = grads.pop().unwrap();
    let dw = grads.pop().unwrap();
    (out.as_slice().to_vec(), dx.as_slice().to_vec(), dw, db)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

fn assert_bit_identical(case: &Case) {
    let positions = case.geom.out_positions();
    let kk = case.geom.kernel * case.geom.kernel;
    assert!(
        positions * kk <= SCALAR_GEMM_LIMIT,
        "shape outside the scalar-GEMM regime"
    );
    let (out_a, dx_a, dw_a, db_a) = lowered(case);
    let (out_b, dx_b, dw_b, db_b) = direct(case);
    assert_eq!(bits(&out_a), bits(&out_b), "forward output");
    assert_eq!(bits(&dx_a), bits(&dx_b), "input gradient");
    assert_eq!(bits(&dw_a), bits(&dw_b), "weight gradient");
    assert_eq!(bits(&db_a), bits(&db_b), "bias gradient");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn direct_depthwise_matches_im2col_lowering_bit_for_bit(
        c in 1usize..6,
        n in 1usize..4,
        hw in 1usize..17,
        k_sel in 0usize..2,
        stride in 1usize..3,
        dilation in 1usize..3,
        pad_sel in 0usize..3,
        seed in 0u64..100_000,
    ) {
        let k = 3 + 2 * k_sel;
        let eff = dilation * (k - 1) + 1;
        let same = eff / 2;
        let mut padding = match pad_sel {
            0 => same,
            1 => same + 1,
            _ => same / 2,
        };
        while hw + 2 * padding < eff {
            padding += 1;
        }
        let case = make_case(n, c, hw, k, stride, dilation, padding, seed);
        assert_bit_identical(&case);
    }
}

#[test]
fn taps_entirely_in_padding_match() {
    // A 3x3 map under a dilated 5x5 (the DARTS `dil_conv_5x5` geometry):
    // the outer taps land wholly in padding for some outputs, the case the
    // kernels' empty-range guard exists for.
    for stride in [1, 2] {
        for seed in 0..8 {
            assert_bit_identical(&make_case(2, 3, 3, 5, stride, 2, 4, seed));
        }
    }
    // 1x1 map under a dilated 3x3 with "same" padding: only the centre tap
    // reads the image.
    assert_bit_identical(&make_case(3, 2, 1, 3, 1, 2, 2, 9));
}

#[test]
fn signed_zeros_through_padding_match() {
    // All-`-0.0` input and bias with positive taps: interior outputs stay
    // `-0.0`, while any output that also sums a padded position (`w * +0.0`)
    // turns `+0.0`, so every padded term of the lowering must be reproduced.
    let mut signs = Vec::new();
    for (k, stride, dilation, padding) in [(3, 1, 1, 1), (5, 2, 2, 4), (3, 1, 2, 3)] {
        let mut case = make_case(2, 2, 6, k, stride, dilation, padding, 11);
        case.x.fill(-0.0);
        case.bias.fill(-0.0);
        case.weight.iter_mut().for_each(|w| *w = w.abs() + 0.5);
        assert_bit_identical(&case);
        signs.extend(direct(&case).0.iter().map(|v| v.is_sign_negative()));
    }
    assert!(signs.contains(&true) && signs.contains(&false));
}
