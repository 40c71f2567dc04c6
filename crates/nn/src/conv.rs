//! 2-D convolution with stride, padding, dilation and groups.
//!
//! Depthwise-separable and dilated convolutions — two of the eight DARTS
//! candidate operations (paper Fig. 1) — are both built from this layer: a
//! depthwise stage uses `groups == in_channels == out_channels`, a pointwise
//! stage uses a `1x1` kernel, and dilated convolutions set `dilation > 1`.
//! Depthwise layers run direct per-plane kernels; every other grouping
//! lowers to GEMM through `im2col`.

use crate::init::he_std;
use crate::layer::{Layer, Mode, Param};
use fedrlnas_tensor::{
    col2im, depthwise_backward, depthwise_forward, gemm, gemm_bias, im2col, Conv2dGeometry, Tensor,
    Workspace,
};
use rand::Rng;

/// A grouped 2-D convolution over NCHW tensors with bias.
///
/// Weight layout is `[out_channels, in_channels / groups * k * k]`.
///
/// * **Depthwise** (one input and one output channel per group): each
///   channel plane goes through [`depthwise_forward`] /
///   [`depthwise_backward`], which work on the image directly: no column
///   buffer, and the layer's [`Workspace`] stays empty. Their results are bit-identical to the `im2col` + scalar GEMM
///   lowering wherever that lowering ran the scalar kernel (a plane with
///   `out_h * out_w * k * k <= 16384`). Above that it ran the packed GEMM,
///   whose sums differ from the direct kernels' at the ulp level.
/// * **Dense and general grouped**: each sample and group lowers to GEMM
///   via `im2col`. The column/transpose scratch lives in a per-layer
///   [`Workspace`] so repeated steps with the same geometry allocate
///   nothing; cloning the layer (e.g. for a federated participant thread)
///   starts with an empty workspace.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    dilation: usize,
    groups: usize,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
    workspace: Workspace,
}

impl Conv2d {
    /// Creates a convolution with He-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if `in_channels` or `out_channels` is not divisible by
    /// `groups`, or any extent is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        dilation: usize,
        groups: usize,
        rng: &mut R,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0 && groups > 0);
        assert_eq!(in_channels % groups, 0, "in_channels must divide by groups");
        assert_eq!(
            out_channels % groups,
            0,
            "out_channels must divide by groups"
        );
        let fan_in = in_channels / groups * kernel * kernel;
        let weight = Param::new(Tensor::randn(&[out_channels, fan_in], he_std(fan_in), rng));
        let bias = Param::new(Tensor::zeros(&[out_channels]));
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            dilation,
            groups,
            weight,
            bias,
            cached_input: None,
            workspace: Workspace::new(),
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// One input and one output channel per group: the direct-kernel path.
    fn is_depthwise(&self) -> bool {
        self.in_channels == self.groups && self.out_channels == self.groups
    }

    fn geometry(&self, in_h: usize, in_w: usize) -> Conv2dGeometry {
        Conv2dGeometry::new(
            in_h,
            in_w,
            self.kernel,
            self.stride,
            self.padding,
            self.dilation,
        )
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "conv2d expects NCHW input, got {dims:?}");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(c, self.in_channels, "conv2d channel mismatch");
        let geom = self.geometry(h, w);
        let cin_g = self.in_channels / self.groups;
        let cout_g = self.out_channels / self.groups;
        let kk = self.kernel * self.kernel;
        let col_rows = cin_g * kk;
        let positions = geom.out_positions();
        let mut out = Tensor::zeros(&[n, self.out_channels, geom.out_h, geom.out_w]);
        if mode == Mode::Train {
            self.cached_input = Some(x.clone());
        } else {
            self.cached_input = None;
        }
        if self.is_depthwise() {
            let planes = x.as_slice().chunks_exact(h * w);
            let outs = out.as_mut_slice().chunks_exact_mut(positions);
            for (p, (plane, dst)) in planes.zip(outs).enumerate() {
                let ch = p % c;
                let taps = &self.weight.value.as_slice()[ch * kk..(ch + 1) * kk];
                let bias = self.bias.value.as_slice()[ch];
                depthwise_forward(plane, taps, bias, &geom, dst)
                    .expect("depthwise geometry verified above");
            }
            return out;
        }
        // Reused scratch: `im2col` writes every element (padding included), so
        // stale contents from the previous step are harmless.
        let cols = self.workspace.buffer(col_rows * positions);
        let img_len = c * h * w;
        for i in 0..n {
            let image = &x.as_slice()[i * img_len..(i + 1) * img_len];
            for g in 0..self.groups {
                let gin = &image[g * cin_g * h * w..(g + 1) * cin_g * h * w];
                im2col(gin, cin_g, &geom, cols).expect("im2col geometry verified above");
                let w_g = &self.weight.value.as_slice()
                    [g * cout_g * col_rows..(g + 1) * cout_g * col_rows];
                let bias_g = &self.bias.value.as_slice()[g * cout_g..(g + 1) * cout_g];
                let out_base = i * self.out_channels * positions + g * cout_g * positions;
                let dst = &mut out.as_mut_slice()[out_base..out_base + cout_g * positions];
                // Bias is fused into the GEMM epilogue: one pass over dst.
                gemm_bias(cout_g, positions, col_rows, w_g, cols, bias_g, dst);
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("conv2d backward called before forward (Train mode)");
        let dims = x.dims().to_vec();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let geom = self.geometry(h, w);
        let cin_g = self.in_channels / self.groups;
        let cout_g = self.out_channels / self.groups;
        let kk = self.kernel * self.kernel;
        let col_rows = cin_g * kk;
        let positions = geom.out_positions();
        assert_eq!(
            grad_out.dims(),
            &[n, self.out_channels, geom.out_h, geom.out_w],
            "conv2d backward gradient shape mismatch"
        );
        let mut dx = Tensor::zeros(&dims);
        if self.is_depthwise() {
            // Channel-outer so each tap's weight gradient sums over the whole
            // batch before one add into `weight.grad`, as the GEMM lowering's
            // per-group accumulator did.
            let (plane, wg, bg) = (
                h * w,
                self.weight.grad.as_mut_slice(),
                self.bias.grad.as_mut_slice(),
            );
            let mut dw = vec![0.0f32; kk];
            for ch in 0..c {
                let taps = &self.weight.value.as_slice()[ch * kk..(ch + 1) * kk];
                dw.fill(0.0);
                for i in 0..n {
                    let p = i * c + ch;
                    let go = &grad_out.as_slice()[p * positions..(p + 1) * positions];
                    bg[ch] += go.iter().sum::<f32>();
                    depthwise_backward(
                        &x.as_slice()[p * plane..(p + 1) * plane],
                        taps,
                        go,
                        &geom,
                        &mut dw,
                        &mut dx.as_mut_slice()[p * plane..(p + 1) * plane],
                    )
                    .expect("geometry verified in forward");
                }
                for (g, d) in wg[ch * kk..(ch + 1) * kk].iter_mut().zip(&dw) {
                    *g += d;
                }
            }
            return dx;
        }
        // Reused scratch (stale contents fine): `cols` is fully written by
        // im2col, `wt` and `got` are fully written per group/sample below,
        // `dcols` is zeroed before each accumulate-GEMM and `dwt` at each
        // group start. Slot 0 is the same buffer `forward` uses for `cols` —
        // same length, so no growth between passes.
        let [cols, dcols, wt, got, dwt] = self.workspace.buffers([
            col_rows * positions,
            col_rows * positions,
            col_rows * cout_g,
            positions * cout_g,
            col_rows * cout_g,
        ]);
        let img_len = c * h * w;
        for g in 0..self.groups {
            let w_g =
                &self.weight.value.as_slice()[g * cout_g * col_rows..(g + 1) * cout_g * col_rows];
            for r in 0..cout_g {
                for q in 0..col_rows {
                    wt[q * cout_g + r] = w_g[r * col_rows + q];
                }
            }
            // dW_g += go [cout_g, P] x cols^T [P, col_rows], computed in its
            // transposed form dW_g^T += cols [col_rows, P] x go^T [P, cout_g]
            // so the packed GEMM does the reduction over positions; `dwt`
            // accumulates across the batch and is scattered into the gradient
            // once per group.
            dwt.fill(0.0);
            for i in 0..n {
                let image = &x.as_slice()[i * img_len..(i + 1) * img_len];
                let gin = &image[g * cin_g * h * w..(g + 1) * cin_g * h * w];
                im2col(gin, cin_g, &geom, cols).expect("geometry verified in forward");
                let go_base = i * self.out_channels * positions + g * cout_g * positions;
                let go = &grad_out.as_slice()[go_base..go_base + cout_g * positions];
                for oc in 0..cout_g {
                    let go_row = &go[oc * positions..(oc + 1) * positions];
                    for (p, &v) in go_row.iter().enumerate() {
                        got[p * cout_g + oc] = v;
                    }
                    // db += sum over positions
                    self.bias.grad.as_mut_slice()[g * cout_g + oc] += go_row.iter().sum::<f32>();
                }
                gemm(col_rows, cout_g, positions, cols, got, dwt);
                // dcols = W^T x go, then scatter with col2im
                dcols.fill(0.0);
                gemm(col_rows, positions, cout_g, wt, go, dcols);
                let dgin = &mut dx.as_mut_slice()
                    [i * img_len + g * cin_g * h * w..i * img_len + (g + 1) * cin_g * h * w];
                col2im(dcols, cin_g, &geom, dgin).expect("geometry verified in forward");
            }
            let dwg = &mut self.weight.grad.as_mut_slice()
                [g * cout_g * col_rows..(g + 1) * cout_g * col_rows];
            for oc in 0..cout_g {
                let dw_row = &mut dwg[oc * col_rows..(oc + 1) * col_rows];
                for (q, dwv) in dw_row.iter_mut().enumerate() {
                    *dwv += dwt[q * cout_g + oc];
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn flops(&self, input: &[usize]) -> u64 {
        let geom = self.geometry(input[1], input[2]);
        let cin_g = self.in_channels / self.groups;
        // MACs: out_positions * out_channels * (cin_g * k * k)
        (geom.out_positions() * self.out_channels * cin_g * self.kernel * self.kernel) as u64
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let geom = self.geometry(input[1], input[2]);
        vec![self.out_channels, geom.out_h, geom.out_w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check_input;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(3, 6, 3, 1, 1, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 3, 5, 5], 1.0, &mut rng);
        assert_eq!(conv.forward(&x, Mode::Eval).dims(), &[2, 6, 5, 5]);
        let mut strided = Conv2d::new(3, 6, 3, 2, 1, 1, 1, &mut rng);
        assert_eq!(strided.forward(&x, Mode::Eval).dims(), &[2, 6, 3, 3]);
    }

    #[test]
    fn known_value_1x1() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(2, 1, 1, 1, 0, 1, 1, &mut rng);
        // set weight to [1, 2], bias to 0.5
        conv.weight.value = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        conv.bias.value = Tensor::from_vec(vec![0.5], &[1]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 1, 2]).unwrap();
        let y = conv.forward(&x, Mode::Eval);
        // out = 1*x_c0 + 2*x_c1 + 0.5
        assert_eq!(
            y.as_slice(),
            &[1.0 + 2.0 * 3.0 + 0.5, 2.0 + 2.0 * 4.0 + 0.5]
        );
    }

    #[test]
    fn depthwise_groups_keep_channels_independent() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(2, 2, 1, 1, 0, 1, 2, &mut rng);
        conv.weight.value = Tensor::from_vec(vec![2.0, 3.0], &[2, 1]).unwrap();
        conv.bias.value.fill(0.0);
        let x = Tensor::from_vec(vec![1.0, 10.0], &[1, 2, 1, 1]).unwrap();
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[2.0, 30.0]);
    }

    #[test]
    fn depthwise_runs_without_workspace() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn(&[2, 4, 6, 6], 1.0, &mut rng);
        let mut depthwise = Conv2d::new(4, 4, 5, 1, 4, 2, 4, &mut rng);
        let y = depthwise.forward(&x, Mode::Train);
        depthwise.backward(&Tensor::ones(y.dims()));
        assert_eq!(depthwise.workspace.capacity(), 0);
        // A grouped conv with two channels per group still lowers to GEMM.
        let mut grouped = Conv2d::new(4, 4, 3, 1, 1, 1, 2, &mut rng);
        let y = grouped.forward(&x, Mode::Train);
        grouped.backward(&Tensor::ones(y.dims()));
        assert!(grouped.workspace.capacity() > 0);
    }

    #[test]
    fn grad_check_depthwise_strided_dilated() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut conv = Conv2d::new(3, 3, 3, 2, 2, 2, 3, &mut rng);
        let x = Tensor::randn(&[2, 3, 5, 5], 1.0, &mut rng);
        let err = grad_check_input(&mut conv, &x, 1e-2);
        assert!(err < 1e-2, "input grad error {err}");
    }

    #[test]
    fn grad_check_dense() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let err = grad_check_input(&mut conv, &x, 1e-2);
        assert!(err < 1e-2, "input grad error {err}");
    }

    #[test]
    fn grad_check_strided_dilated_grouped() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = Conv2d::new(4, 4, 3, 2, 2, 2, 2, &mut rng);
        let x = Tensor::randn(&[2, 4, 6, 6], 1.0, &mut rng);
        let err = grad_check_input(&mut conv, &x, 1e-2);
        assert!(err < 1e-2, "input grad error {err}");
    }

    #[test]
    fn weight_grad_check() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let out = conv.forward(&x, Mode::Train);
        conv.backward(&Tensor::ones(out.dims()));
        let analytic = conv.weight.grad.clone();
        let eps = 1e-2f32;
        for idx in [0usize, 5, 17, analytic.len() - 1] {
            let orig = conv.weight.value.as_slice()[idx];
            conv.weight.value.as_mut_slice()[idx] = orig + eps;
            let fp = conv.forward(&x, Mode::Eval).sum();
            conv.weight.value.as_mut_slice()[idx] = orig - eps;
            let fm = conv.forward(&x, Mode::Eval).sum();
            conv.weight.value.as_mut_slice()[idx] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - analytic.as_slice()[idx]).abs() < 1e-2,
                "weight grad mismatch at {idx}: {num} vs {}",
                analytic.as_slice()[idx]
            );
        }
    }

    #[test]
    fn flops_and_output_shape() {
        let mut rng = StdRng::seed_from_u64(7);
        let conv = Conv2d::new(3, 8, 3, 1, 1, 1, 1, &mut rng);
        assert_eq!(conv.output_shape(&[3, 8, 8]), vec![8, 8, 8]);
        assert_eq!(conv.flops(&[3, 8, 8]), (8 * 8 * 8 * 3 * 9) as u64);
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, 1, 1, &mut rng);
        assert_eq!(conv.param_count(), 8 * 3 * 9 + 8);
    }
}
