//! Activation layers.

use crate::layer::{Layer, Mode};
use fedrlnas_tensor::Tensor;

/// Rectified linear unit, `max(0, x)`, applied element-wise.
///
/// Used in the ReLU-Conv-BN blocks of the DARTS candidate operations.
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    mask: Vec<bool>,
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for ReLU {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Train {
            self.mask = x.as_slice().iter().map(|v| *v > 0.0).collect();
        }
        // `f32::max(NaN, 0.0)` would return 0.0, silently swallowing NaN;
        // this form propagates NaN like PyTorch's relu
        x.map(|v| if v < 0.0 { 0.0 } else { v })
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(
            grad_out.len(),
            self.mask.len(),
            "relu backward called before forward or with wrong shape"
        );
        let mut dx = grad_out.clone();
        // A select rather than a branch: the mask is data-dependent (about
        // half the activations are negative), so a branch mispredicts and
        // blocks vectorization.
        for (v, &keep) in dx.as_mut_slice().iter_mut().zip(self.mask.iter()) {
            *v = if keep { *v } else { 0.0 };
        }
        dx
    }

    fn flops(&self, input: &[usize]) -> u64 {
        input.iter().product::<usize>() as u64
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        input.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        let y = relu.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], &[2]).unwrap();
        relu.forward(&x, Mode::Train);
        let dx = relu.backward(&Tensor::ones(&[2]));
        assert_eq!(dx.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn grad_check() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0);
        let mut relu = ReLU::new();
        // keep values away from the kink at 0 for finite differences
        let x =
            Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng)
                .map(|v| if v.abs() < 0.05 { 0.2 } else { v });
        let err = crate::grad_check_input(&mut relu, &x, 1e-3);
        assert!(err < 1e-2, "relu grad error {err}");
    }
}
