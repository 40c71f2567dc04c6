//! Convolution kernels: the `im2col` / `col2im` lowering for dense and
//! grouped convolutions, and direct per-plane kernels for depthwise ones,
//! all with stride, padding and dilation.
//!
//! The DARTS candidate operations include separable and dilated convolutions
//! (Fig. 1 of the paper); both are expressed through the general geometry in
//! [`Conv2dGeometry`]. Their depthwise stage (one input and one output
//! channel per group) runs [`depthwise_forward`]/[`depthwise_backward`]
//! directly on each channel plane: lowered to GEMM it would be an `M = 1`
//! product per plane plus a column buffer `k * k` times the plane. Other
//! groupings are handled by the `nn` crate slicing channels before calling
//! [`im2col`]/[`col2im`].

use crate::shape::ShapeError;

/// Static geometry of a 2-D convolution over NCHW tensors.
///
/// ```
/// use fedrlnas_tensor::Conv2dGeometry;
/// let g = Conv2dGeometry::new(8, 8, 3, 1, 1, 1);
/// assert_eq!(g.out_h, 8); // "same" padding at stride 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride in both directions.
    pub stride: usize,
    /// Zero padding in both directions.
    pub padding: usize,
    /// Dilation in both directions.
    pub dilation: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Conv2dGeometry {
    /// Computes output extents from input extents and kernel hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics if the effective kernel does not fit in the padded input (the
    /// output would be empty), which always indicates a configuration bug.
    pub fn new(
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        dilation: usize,
    ) -> Self {
        let eff = dilation * (kernel - 1) + 1;
        assert!(
            in_h + 2 * padding >= eff && in_w + 2 * padding >= eff,
            "conv geometry: effective kernel {eff} larger than padded input {}x{}",
            in_h + 2 * padding,
            in_w + 2 * padding
        );
        let out_h = (in_h + 2 * padding - eff) / stride + 1;
        let out_w = (in_w + 2 * padding - eff) / stride + 1;
        Conv2dGeometry {
            in_h,
            in_w,
            kernel,
            stride,
            padding,
            dilation,
            out_h,
            out_w,
        }
    }

    /// Number of output spatial positions.
    pub fn out_positions(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Number of rows of the `im2col` matrix for `channels` input channels
    /// (`channels * kernel * kernel`).
    pub fn col_rows(&self, channels: usize) -> usize {
        channels * self.kernel * self.kernel
    }
}

/// `Ok` when a slice argument of `op` has the length the geometry implies.
fn check_len(op: &str, what: &str, got: usize, want: usize) -> Result<(), ShapeError> {
    if got == want {
        Ok(())
    } else {
        Err(ShapeError::new(format!(
            "{op}: {what} has {got} elements, expected {want}"
        )))
    }
}

/// Lowers one image (CHW, `channels * in_h * in_w` elements) to a column
/// matrix of shape `[channels * k * k, out_h * out_w]`, row-major in `out`.
///
/// # Errors
///
/// Returns a [`ShapeError`] if `image` or `out` have the wrong length.
pub fn im2col(
    image: &[f32],
    channels: usize,
    geom: &Conv2dGeometry,
    out: &mut [f32],
) -> Result<(), ShapeError> {
    let in_len = channels * geom.in_h * geom.in_w;
    check_len("im2col", "image", image.len(), in_len)?;
    let cols_len = geom.col_rows(channels) * geom.out_positions();
    check_len("im2col", "out", out.len(), cols_len)?;
    let k = geom.kernel;
    let positions = geom.out_positions();
    let (out_h, out_w, in_w) = (geom.out_h, geom.out_w, geom.in_w);
    let mut row = 0usize;
    for c in 0..channels {
        let plane = &image[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for ky in 0..k {
            let (oy_lo, oy_hi, sy) = valid_out_range(ky, geom, geom.in_h, out_h);
            for kx in 0..k {
                let (ox_lo, ox_hi, sx) = valid_out_range(kx, geom, in_w, out_w);
                let dst = &mut out[row * positions..(row + 1) * positions];
                // Padding regions written as contiguous zero fills; the
                // in-bounds interior needs no per-element bounds checks.
                dst[..oy_lo * out_w].fill(0.0);
                dst[oy_hi * out_w..].fill(0.0);
                for oy in oy_lo..oy_hi {
                    let base = ((oy * geom.stride) as isize + sy) as usize * in_w;
                    let drow = &mut dst[oy * out_w..(oy + 1) * out_w];
                    drow[..ox_lo].fill(0.0);
                    drow[ox_hi..].fill(0.0);
                    if ox_hi == ox_lo {
                        // Tap entirely in horizontal padding; the index
                        // arithmetic below would underflow.
                    } else if geom.stride == 1 {
                        // Contiguous input run: a straight memcpy.
                        let s = base + ((ox_lo as isize + sx) as usize);
                        drow[ox_lo..ox_hi].copy_from_slice(&plane[s..s + (ox_hi - ox_lo)]);
                    } else {
                        for (ox, d) in drow[ox_lo..ox_hi].iter_mut().enumerate() {
                            let ix = (((ox_lo + ox) * geom.stride) as isize + sx) as usize;
                            *d = plane[base + ix];
                        }
                    }
                }
                row += 1;
            }
        }
    }
    Ok(())
}

/// Output-coordinate range `[lo, hi)` whose input coordinate
/// `o * stride + koff * dilation - padding` lands inside `[0, in_extent)`,
/// plus the constant shift term. Hoists the bounds logic out of the hot
/// im2col/col2im loops.
fn valid_out_range(
    koff: usize,
    geom: &Conv2dGeometry,
    in_extent: usize,
    out_extent: usize,
) -> (usize, usize, isize) {
    let shift = (koff * geom.dilation) as isize - geom.padding as isize;
    let lo = if shift >= 0 {
        0
    } else {
        ((-shift) as usize).div_ceil(geom.stride)
    };
    let hi = if (in_extent as isize) <= shift {
        0
    } else {
        (in_extent as isize - 1 - shift) as usize / geom.stride + 1
    };
    let lo = lo.min(out_extent);
    (lo, hi.clamp(lo, out_extent), shift)
}

/// Inverse of [`im2col`] used in the backward pass: scatters the column
/// matrix gradient back into an image gradient, **accumulating** overlapping
/// contributions.
///
/// # Errors
///
/// Returns a [`ShapeError`] if `cols` or `image_grad` have the wrong length.
pub fn col2im(
    cols: &[f32],
    channels: usize,
    geom: &Conv2dGeometry,
    image_grad: &mut [f32],
) -> Result<(), ShapeError> {
    let in_len = channels * geom.in_h * geom.in_w;
    check_len("col2im", "image_grad", image_grad.len(), in_len)?;
    let cols_len = geom.col_rows(channels) * geom.out_positions();
    check_len("col2im", "cols", cols.len(), cols_len)?;
    let k = geom.kernel;
    let positions = geom.out_positions();
    let (out_h, out_w, in_w) = (geom.out_h, geom.out_w, geom.in_w);
    let mut row = 0usize;
    for c in 0..channels {
        let plane = &mut image_grad[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for ky in 0..k {
            let (oy_lo, oy_hi, sy) = valid_out_range(ky, geom, geom.in_h, out_h);
            for kx in 0..k {
                let (ox_lo, ox_hi, sx) = valid_out_range(kx, geom, in_w, out_w);
                let src = &cols[row * positions..(row + 1) * positions];
                // Out-of-bounds taps hit padding: nothing to accumulate.
                for oy in oy_lo..oy_hi {
                    let base = ((oy * geom.stride) as isize + sy) as usize * in_w;
                    let srow = &src[oy * out_w..(oy + 1) * out_w];
                    if ox_hi == ox_lo {
                        // Tap entirely in horizontal padding; the index
                        // arithmetic below would underflow.
                    } else if geom.stride == 1 {
                        // Contiguous accumulate: auto-vectorizes.
                        let s = base + ((ox_lo as isize + sx) as usize);
                        let drow = &mut plane[s..s + (ox_hi - ox_lo)];
                        for (d, v) in drow.iter_mut().zip(&srow[ox_lo..ox_hi]) {
                            *d += v;
                        }
                    } else {
                        for (ox, v) in srow[ox_lo..ox_hi].iter().enumerate() {
                            let ix = (((ox_lo + ox) * geom.stride) as isize + sx) as usize;
                            plane[base + ix] += v;
                        }
                    }
                }
                row += 1;
            }
        }
    }
    Ok(())
}

/// Per-thread scratch of the depthwise kernels, grow-only like the GEMM
/// packing buffers; contents are unspecified between calls.
struct DepthwiseScratch {
    /// The padded input plane.
    input: Vec<f32>,
    /// Padded-pitch output (forward) or padded input gradient (backward).
    acc: Vec<f32>,
    /// Padded-pitch output gradient (backward).
    grad: Vec<f32>,
}

std::thread_local! {
    static DEPTHWISE_SCRATCH: std::cell::RefCell<DepthwiseScratch> =
        const {
            std::cell::RefCell::new(DepthwiseScratch {
                input: Vec::new(),
                acc: Vec::new(),
                grad: Vec::new(),
            })
        };
}

/// The zero-padded plane layout the depthwise kernels work in: the input
/// framed by `padding` zeros. With outputs laid out at the same row pitch
/// (`i = oy * width + ox`), output `i` reads tap `(ky, kx)` at padded index
/// `stride * i + (ky * width + kx) * dilation`: no bounds logic, and padded
/// taps read an explicit `+0.0` exactly like im2col's zero fill.
struct PaddedPlane {
    rows: usize,
    width: usize,
    /// Length of the output at padded pitch: `out_h` rows, the last one cut
    /// at `out_w`. Columns past `out_w` straddle a row edge; they are
    /// computed with the rest and discarded.
    out_len: usize,
}

impl PaddedPlane {
    fn new(geom: &Conv2dGeometry) -> Self {
        let width = geom.in_w + 2 * geom.padding;
        PaddedPlane {
            rows: geom.in_h + 2 * geom.padding,
            width,
            out_len: (geom.out_h - 1) * width + geom.out_w,
        }
    }

    /// Padded index of tap `(ky, kx)` for output 0.
    fn tap_offset(&self, geom: &Conv2dGeometry, ky: usize, kx: usize) -> usize {
        (ky * self.width + kx) * geom.dilation
    }

    /// Resizes `buf` to the padded plane and zero-fills it.
    fn zeroed(&self, buf: &mut Vec<f32>) {
        buf.clear();
        buf.resize(self.rows * self.width, 0.0);
    }

    /// Copies `plane` into a zero-filled padded plane.
    fn pad(&self, plane: &[f32], geom: &Conv2dGeometry, buf: &mut Vec<f32>) {
        let p = geom.padding;
        self.zeroed(buf);
        for (src, dst) in plane
            .chunks_exact(geom.in_w)
            .zip(buf[p * self.width..].chunks_exact_mut(self.width))
        {
            dst[p..p + geom.in_w].copy_from_slice(src);
        }
    }

    /// Copies the interior of a padded plane out to `plane`.
    fn unpad(&self, buf: &[f32], geom: &Conv2dGeometry, plane: &mut [f32]) {
        let p = geom.padding;
        for (dst, src) in plane
            .chunks_exact_mut(geom.in_w)
            .zip(buf[p * self.width..].chunks_exact(self.width))
        {
            dst.copy_from_slice(&src[p..p + geom.in_w]);
        }
    }
}

/// Direct depthwise convolution of one channel plane: `out = bias +
/// sum over taps of weight[tap] * x`, with `plane` of `in_h * in_w`
/// elements, `weight` of `k * k` taps in (ky, kx) order and `out` of
/// `out_h * out_w` elements (overwritten).
///
/// Taps are added in (ky, kx) order, each over every output position, and
/// zero taps are skipped: the accumulation order of the `im2col` + scalar
/// GEMM lowering, so results are bit-identical to it. That includes signed
/// zeros: the input is read from a zero-padded copy, so a padded position
/// adds `weight * 0.0` exactly like the zero-filled column did.
///
/// # Errors
///
/// Returns a [`ShapeError`] if a slice has the wrong length.
pub fn depthwise_forward(
    plane: &[f32],
    weight: &[f32],
    bias: f32,
    geom: &Conv2dGeometry,
    out: &mut [f32],
) -> Result<(), ShapeError> {
    let (k, in_len) = (geom.kernel, geom.in_h * geom.in_w);
    check_len("depthwise_forward", "plane", plane.len(), in_len)?;
    check_len("depthwise_forward", "weight", weight.len(), k * k)?;
    check_len("depthwise_forward", "out", out.len(), geom.out_positions())?;
    let stride = geom.stride;
    let pp = PaddedPlane::new(geom);
    DEPTHWISE_SCRATCH.with(|scratch| {
        let DepthwiseScratch { input, acc, .. } = &mut *scratch.borrow_mut();
        pp.pad(plane, geom, input);
        acc.clear();
        acc.resize(pp.out_len, bias);
        for (t, &wv) in weight.iter().enumerate() {
            if wv == 0.0 {
                continue;
            }
            let src = &input[pp.tap_offset(geom, t / k, t % k)..];
            if stride == 1 {
                // One contiguous run per tap: auto-vectorizes.
                for (o, &xv) in acc.iter_mut().zip(&src[..pp.out_len]) {
                    *o += wv * xv;
                }
            } else {
                for (o, &xv) in acc.iter_mut().zip(src.iter().step_by(stride)) {
                    *o += wv * xv;
                }
            }
        }
        for (dst, src) in out.chunks_exact_mut(geom.out_w).zip(acc.chunks(pp.width)) {
            dst.copy_from_slice(&src[..geom.out_w]);
        }
    });
    Ok(())
}

/// Backward of [`depthwise_forward`] for one channel plane.
///
/// Accumulates the weight gradient into `dweight` (`k * k` taps) and writes
/// the input gradient to `dplane` (`in_h * in_w`); `grad` is the output
/// gradient (`out_h * out_w`). The bias gradient is the caller's plain sum
/// of `grad`.
///
/// Bit-identical to the `im2col` + scalar GEMM + [`col2im`] lowering into a
/// zeroed input gradient, provided `dweight` starts from `+0.0` (or from
/// earlier calls) like that lowering's zeroed accumulator: each tap's
/// weight gradient sums `x * grad` over positions in ascending order,
/// skipping zero inputs (padding included); the input gradient is a
/// tap-major scatter of `weight * grad` that skips zero taps. Neither
/// accumulator can ever hold `-0.0`, so the lowering's `+ 0.0` terms are
/// no-ops and left out.
///
/// # Errors
///
/// Returns a [`ShapeError`] if a slice has the wrong length.
pub fn depthwise_backward(
    plane: &[f32],
    weight: &[f32],
    grad: &[f32],
    geom: &Conv2dGeometry,
    dweight: &mut [f32],
    dplane: &mut [f32],
) -> Result<(), ShapeError> {
    let k = geom.kernel;
    let in_len = geom.in_h * geom.in_w;
    check_len("depthwise_backward", "plane", plane.len(), in_len)?;
    check_len("depthwise_backward", "weight", weight.len(), k * k)?;
    let positions = geom.out_positions();
    check_len("depthwise_backward", "grad", grad.len(), positions)?;
    check_len("depthwise_backward", "dweight", dweight.len(), k * k)?;
    check_len("depthwise_backward", "dplane", dplane.len(), in_len)?;
    let (out_w, stride) = (geom.out_w, geom.stride);
    let pp = PaddedPlane::new(geom);
    DEPTHWISE_SCRATCH.with(|scratch| {
        let DepthwiseScratch {
            input,
            acc: dxp,
            grad: gp,
        } = &mut *scratch.borrow_mut();
        pp.pad(plane, geom, input);
        for (ky, taps) in dweight.chunks_exact_mut(k).enumerate() {
            let mut kx = 0;
            while kx < k {
                let (x0, w) = (&input[pp.tap_offset(geom, ky, kx)..], pp.width);
                let taps = &mut taps[kx..];
                kx += match k - kx {
                    1 => tap_sums::<1>(x0, grad, w, geom, taps),
                    2 => tap_sums::<2>(x0, grad, w, geom, taps),
                    3 => tap_sums::<3>(x0, grad, w, geom, taps),
                    4 => tap_sums::<4>(x0, grad, w, geom, taps),
                    _ => tap_sums::<5>(x0, grad, w, geom, taps),
                };
            }
        }
        // dx: tap-major scatter into a padded plane, the order col2im
        // accumulates in; the padding ring is discarded.
        pp.zeroed(dxp);
        let taps = weight
            .iter()
            .enumerate()
            .filter(|&(_, &wv)| wv != 0.0)
            .map(|(t, &wv)| (pp.tap_offset(geom, t / k, t % k), wv));
        if stride == 1 && weight.iter().all(|wv| wv.is_finite()) {
            // One contiguous run per tap over the gradient at padded pitch.
            // Its straddling columns are zero and add `wv * 0.0`, which
            // leaves any sum unchanged for finite `wv` (the sums are never
            // -0.0).
            gp.clear();
            gp.resize(pp.out_len, 0.0);
            for (dst, src) in gp.chunks_mut(pp.width).zip(grad.chunks_exact(out_w)) {
                dst[..out_w].copy_from_slice(src);
            }
            for (off, wv) in taps {
                for (d, &g) in dxp[off..off + pp.out_len].iter_mut().zip(gp.iter()) {
                    *d += wv * g;
                }
            }
        } else {
            for (off, wv) in taps {
                for (oy, grow) in grad.chunks_exact(out_w).enumerate() {
                    let dst = dxp[oy * stride * pp.width + off..].iter_mut();
                    for (d, &g) in dst.step_by(stride).zip(grow) {
                        *d += wv * g;
                    }
                }
            }
        }
        pp.unpad(dxp, geom, dplane);
    });
    Ok(())
}

/// Weight-gradient sums of `K` adjacent taps of one kernel row,
/// accumulated into `taps[..K]`; `input` is the padded plane (row pitch
/// `width`) starting at the first tap's offset. Returns `K`.
///
/// Each tap's running sum sees the output positions in ascending order, as
/// the scalar GEMM's did; interleaving `K` taps per position gives `K`
/// independent dependency chains held in registers. Zero inputs (padding
/// included) are skipped like the scalar GEMM's zero test. A select keeps
/// the loop branch-free: a sum is never `-0.0`, so adding `+0.0` leaves it
/// unchanged.
fn tap_sums<const K: usize>(
    input: &[f32],
    grad: &[f32],
    width: usize,
    geom: &Conv2dGeometry,
    taps: &mut [f32],
) -> usize {
    let (stride, dil) = (geom.stride, geom.dilation);
    let span = (K - 1) * dil + 1;
    let mut acc = [0.0f32; K];
    acc.copy_from_slice(&taps[..K]);
    for (oy, grow) in grad.chunks_exact(geom.out_w).enumerate() {
        let xrow = &input[oy * stride * width..];
        for (ox, &g) in grow.iter().enumerate() {
            let xs = xrow[ox * stride..ox * stride + span].iter().step_by(dil);
            for (sum, &xv) in acc.iter_mut().zip(xs) {
                *sum += if xv == 0.0 { 0.0 } else { xv * g };
            }
        }
    }
    taps[..K].copy_from_slice(&acc);
    K
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_same_padding() {
        let g = Conv2dGeometry::new(8, 8, 3, 1, 1, 1);
        assert_eq!((g.out_h, g.out_w), (8, 8));
        let g2 = Conv2dGeometry::new(8, 8, 3, 2, 1, 1);
        assert_eq!((g2.out_h, g2.out_w), (4, 4));
        // dilated 3x3 with dilation 2 needs padding 2 for "same"
        let g3 = Conv2dGeometry::new(8, 8, 3, 1, 2, 2);
        assert_eq!((g3.out_h, g3.out_w), (8, 8));
    }

    #[test]
    #[should_panic(expected = "conv geometry")]
    fn geometry_rejects_oversized_kernel() {
        let _ = Conv2dGeometry::new(2, 2, 5, 1, 0, 1);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: im2col is the identity layout.
        let g = Conv2dGeometry::new(2, 3, 1, 1, 0, 1);
        let img: Vec<f32> = (0..12).map(|v| v as f32).collect(); // 2 channels
        let mut out = vec![0.0; 12];
        im2col(&img, 2, &g, &mut out).unwrap();
        assert_eq!(out, img);
    }

    #[test]
    fn im2col_known_3x3() {
        // Single channel 3x3 image, 3x3 kernel, padding 1: center column of
        // the output at position (1,1) must equal the whole image.
        let g = Conv2dGeometry::new(3, 3, 3, 1, 1, 1);
        let img: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let mut out = vec![0.0; 9 * 9];
        im2col(&img, 1, &g, &mut out).unwrap();
        // Row 4 of the col matrix corresponds to kernel offset (1,1) (the
        // center tap); at stride 1 pad 1 it reproduces the image exactly.
        assert_eq!(&out[4 * 9..5 * 9], &img[..]);
        // Row 0 is the top-left tap: first row/col come from padding (zeros).
        assert_eq!(out[0], 0.0);
        assert_eq!(out[4 * 9 + 4], 5.0);
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the adjoint property that makes
        // the conv backward pass correct.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let g = Conv2dGeometry::new(5, 4, 3, 2, 1, 1);
        let c = 3usize;
        let x: Vec<f32> = (0..c * 20).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let cols_len = g.col_rows(c) * g.out_positions();
        let y: Vec<f32> = (0..cols_len).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut cols = vec![0.0; cols_len];
        im2col(&x, c, &g, &mut cols).unwrap();
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut xg = vec![0.0; x.len()];
        col2im(&y, c, &g, &mut xg).unwrap();
        let rhs: f32 = x.iter().zip(&xg).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn tap_entirely_in_padding_is_zero() {
        // 2x2 input, dilated 3x3 kernel, padding 2: the (.., 2) taps read
        // column index 2*2-2 = 2 >= in_w for every output, i.e. an entirely
        // out-of-bounds tap. Regression test: the fast path must emit zeros
        // (not panic) for such rows, and col2im must skip them.
        let g = Conv2dGeometry::new(2, 2, 3, 1, 2, 2);
        let img = [1.0, 2.0, 3.0, 4.0];
        let mut cols = vec![f32::NAN; g.col_rows(1) * g.out_positions()];
        im2col(&img, 1, &g, &mut cols).unwrap();
        let positions = g.out_positions();
        // kernel tap (ky=2, kx=2) is row 8: fully zero.
        assert!(cols[8 * positions..9 * positions].iter().all(|&v| v == 0.0));
        let mut back = vec![0.0; 4];
        col2im(&cols, 1, &g, &mut back).unwrap();
        // adjoint still holds on this geometry
        let mut y = vec![0.0; cols.len()];
        for (i, v) in y.iter_mut().enumerate() {
            *v = (i % 7) as f32 - 3.0;
        }
        let mut cols2 = vec![0.0; cols.len()];
        im2col(&img, 1, &g, &mut cols2).unwrap();
        let lhs: f32 = cols2.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut xg = vec![0.0; 4];
        col2im(&y, 1, &g, &mut xg).unwrap();
        let rhs: f32 = img.iter().zip(&xg).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn depthwise_centre_tap_is_identity_plus_bias() {
        let g = Conv2dGeometry::new(3, 4, 3, 1, 1, 1);
        let img: Vec<f32> = (1..=12).map(|v| v as f32).collect();
        let mut taps = [0.0; 9];
        taps[4] = 2.0;
        let mut out = vec![f32::NAN; 12];
        depthwise_forward(&img, &taps, 0.5, &g, &mut out).unwrap();
        let want: Vec<f32> = img.iter().map(|v| 2.0 * v + 0.5).collect();
        assert_eq!(out, want);
        // Backward of the same tap: dx = 2 * grad, dW[centre] = <x, grad>.
        let grad = vec![1.0; 12];
        let mut dw = [0.0; 9];
        let mut dx = vec![f32::NAN; 12];
        depthwise_backward(&img, &taps, &grad, &g, &mut dw, &mut dx).unwrap();
        assert_eq!(dx, vec![2.0; 12]);
        assert_eq!(dw[4], 78.0);
        // The corner tap misses one row and one column.
        assert_eq!(dw[0], (1..=7).filter(|v| v % 4 != 0).sum::<i32>() as f32);
    }

    #[test]
    fn depthwise_strided_matches_im2col() {
        // Stride 2 reads every other input through the padded layout.
        let g = Conv2dGeometry::new(5, 5, 3, 2, 1, 1);
        let img: Vec<f32> = (0..25).map(|v| (v as f32) * 0.5 - 3.0).collect();
        let taps: Vec<f32> = (0..9).map(|v| v as f32 - 4.0).collect();
        let mut cols = vec![0.0; g.col_rows(1) * g.out_positions()];
        im2col(&img, 1, &g, &mut cols).unwrap();
        let mut want = vec![0.0f32; g.out_positions()];
        for (t, &w) in taps.iter().enumerate() {
            for (o, c) in want.iter_mut().zip(&cols[t * 9..(t + 1) * 9]) {
                *o += w * c;
            }
        }
        let mut out = vec![0.0; g.out_positions()];
        depthwise_forward(&img, &taps, 0.0, &g, &mut out).unwrap();
        assert_eq!(out, want);
    }

    #[test]
    fn depthwise_length_validation() {
        let g = Conv2dGeometry::new(4, 4, 3, 1, 1, 1);
        let (img, taps) = (vec![0.0; 16], vec![0.0; 9]);
        let mut out = vec![0.0; 16];
        assert!(depthwise_forward(&img[1..], &taps, 0.0, &g, &mut out).is_err());
        assert!(depthwise_forward(&img, &taps[1..], 0.0, &g, &mut out).is_err());
        assert!(depthwise_forward(&img, &taps, 0.0, &g, &mut out[1..]).is_err());
        let (mut dw, mut dx) = (vec![0.0; 9], vec![0.0; 16]);
        assert!(depthwise_backward(&img, &taps, &out, &g, &mut dw[1..], &mut dx).is_err());
        assert!(depthwise_backward(&img, &taps, &out, &g, &mut dw, &mut dx[1..]).is_err());
    }

    #[test]
    fn length_validation() {
        let g = Conv2dGeometry::new(4, 4, 3, 1, 1, 1);
        let mut out = vec![0.0; g.col_rows(1) * g.out_positions()];
        assert!(im2col(&[0.0; 15], 1, &g, &mut out).is_err());
        let mut img = vec![0.0; 15];
        assert!(col2im(&out, 1, &g, &mut img).is_err());
    }
}
