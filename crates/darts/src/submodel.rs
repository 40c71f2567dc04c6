//! Sub-models: the one-operation-per-edge networks shipped to participants.
//!
//! A sub-model is the supernet pruned by a binary mask (Eq. 5–6): exactly
//! one candidate operation remains on each edge, so its size is roughly
//! `1/N` of the supernet — the property that makes the paper's method
//! communication-efficient compared to FedNAS/DP-FNAS, which ship the whole
//! supernet.

use crate::cell::{dag_backward, dag_forward, CellKind, CellTopology, EdgeRun};
use crate::ops::{CandidateOp, OpKind, ReluConvBn, NUM_OPS};
use crate::supernet::SupernetConfig;
use fedrlnas_nn::{BatchNorm2d, Conv2d, GlobalAvgPool, Layer, Linear, Mode, Param};
use fedrlnas_tensor::Tensor;
use rand::Rng;

/// A sampled architecture: one operation index per edge, per cell kind.
///
/// This is the binary mask `g` of Eq. (5) in index form: `ops(kind)[e]`
/// is the index into [`OpKind::ALL`] of the operation selected on edge `e`
/// of cells of that kind.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArchMask {
    ops: [Vec<usize>; 2],
}

impl ArchMask {
    /// Creates a mask from per-kind op-index tables.
    ///
    /// # Panics
    ///
    /// Panics if any op index is out of range.
    pub fn new(normal: Vec<usize>, reduction: Vec<usize>) -> Self {
        assert!(
            normal.iter().chain(reduction.iter()).all(|&o| o < NUM_OPS),
            "op index out of range"
        );
        ArchMask {
            ops: [normal, reduction],
        }
    }

    /// Op indices for the given cell kind.
    pub fn ops(&self, kind: CellKind) -> &[usize] {
        &self.ops[kind.index()]
    }

    /// The selected [`OpKind`] on edge `e` of cells of `kind`.
    pub fn op_kind(&self, kind: CellKind, e: usize) -> OpKind {
        OpKind::ALL[self.ops[kind.index()][e]]
    }

    /// Samples every edge uniformly at random — the distribution of a fresh
    /// (untrained) controller.
    pub fn uniform_random<R: Rng + ?Sized>(config: &SupernetConfig, rng: &mut R) -> Self {
        let edges = config.topology().num_edges();
        let sample = |rng: &mut R| (0..edges).map(|_| rng.gen_range(0..NUM_OPS)).collect();
        let normal = sample(rng);
        let reduction = sample(rng);
        ArchMask {
            ops: [normal, reduction],
        }
    }

    /// A mask selecting the same operation on every edge (useful in tests
    /// and for degenerate baselines).
    pub fn all_op(config: &SupernetConfig, op: OpKind) -> Self {
        let edges = config.topology().num_edges();
        ArchMask {
            ops: [vec![op.index(); edges], vec![op.index(); edges]],
        }
    }

    /// Number of edges per cell kind.
    pub fn num_edges(&self) -> usize {
        self.ops[0].len()
    }
}

/// One pruned cell of a sub-model: a single operation per edge.
#[derive(Clone)]
pub(crate) struct SubCell {
    #[allow(dead_code)] // structural metadata kept for debugging/serialization
    pub(crate) kind: CellKind,
    pub(crate) topology: CellTopology,
    pub(crate) pre0: ReluConvBn,
    pub(crate) pre1: ReluConvBn,
    pub(crate) ops: Vec<CandidateOp>,
    pub(crate) channels: usize,
    pub(crate) pre_out_dims: (Vec<usize>, Vec<usize>),
}

impl SubCell {
    fn forward(&mut self, s0: &Tensor, s1: &Tensor, mode: Mode) -> Tensor {
        let topo = self.topology;
        let mut runs: Vec<EdgeRun<'_>> = Vec::with_capacity(topo.num_edges());
        for (e, op) in self.ops.iter_mut().enumerate() {
            let (src, dst) = topo.edge_endpoints(e);
            runs.push(EdgeRun { src, dst, op });
        }
        let batch = s0.dims()[0];
        let mut d0 = vec![batch];
        d0.extend(self.pre0.output_shape(&s0.dims()[1..]));
        let mut d1 = vec![batch];
        d1.extend(self.pre1.output_shape(&s1.dims()[1..]));
        self.pre_out_dims = (d0, d1);
        dag_forward(
            &mut self.pre0,
            &mut self.pre1,
            &mut runs,
            topo.nodes(),
            s0,
            s1,
            mode,
        )
    }

    fn backward(&mut self, grad_out: &Tensor) -> (Tensor, Tensor) {
        let topo = self.topology;
        let mut runs: Vec<EdgeRun<'_>> = Vec::with_capacity(topo.num_edges());
        for (e, op) in self.ops.iter_mut().enumerate() {
            let (src, dst) = topo.edge_endpoints(e);
            runs.push(EdgeRun { src, dst, op });
        }
        dag_backward(
            &mut self.pre0,
            &mut self.pre1,
            &mut runs,
            topo.nodes(),
            self.channels,
            (&self.pre_out_dims.0, &self.pre_out_dims.1),
            grad_out,
        )
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.pre0.visit_params(f);
        self.pre1.visit_params(f);
        for op in &mut self.ops {
            op.visit_params(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.pre0.visit_buffers(f);
        self.pre1.visit_buffers(f);
        for op in &mut self.ops {
            op.visit_buffers(f);
        }
    }
}

/// A pruned supernet with exactly one operation per edge — the network a
/// participant receives, trains for one round and returns.
#[derive(Clone)]
pub struct SubModel {
    mask: ArchMask,
    stem_conv: Conv2d,
    stem_bn: BatchNorm2d,
    cells: Vec<SubCell>,
    gap: GlobalAvgPool,
    classifier: Linear,
    config: SupernetConfig,
}

impl std::fmt::Debug for SubModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SubModel({} cells, mask {:?})",
            self.cells.len(),
            self.mask
        )
    }
}

impl SubModel {
    pub(crate) fn from_parts(
        mask: ArchMask,
        stem_conv: Conv2d,
        stem_bn: BatchNorm2d,
        cells: Vec<SubCell>,
        classifier: Linear,
        config: SupernetConfig,
    ) -> Self {
        SubModel {
            mask,
            stem_conv,
            stem_bn,
            cells,
            gap: GlobalAvgPool::new(),
            classifier,
            config,
        }
    }

    /// The mask this sub-model was pruned with.
    pub fn mask(&self) -> &ArchMask {
        &self.mask
    }

    /// The structural configuration of the parent supernet.
    pub fn config(&self) -> &SupernetConfig {
        &self.config
    }

    /// Forward pass producing classifier logits `[n, classes]`.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let stem = self.stem_bn.forward(&self.stem_conv.forward(x, mode), mode);
        let mut s0 = stem.clone();
        let mut s1 = stem;
        for cell in &mut self.cells {
            let out = cell.forward(&s0, &s1, mode);
            s0 = s1;
            s1 = out;
        }
        let pooled = self.gap.forward(&s1, mode);
        self.classifier.forward(&pooled, mode)
    }

    /// Backward pass accumulating parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if called before [`SubModel::forward`] in [`Mode::Train`].
    pub fn backward(&mut self, grad_logits: &Tensor) {
        let l = self.cells.len();
        let mut grads: Vec<Option<Tensor>> = vec![None; l + 2];
        let idx = |i: isize| -> usize {
            if i >= 0 {
                i as usize
            } else {
                (l as isize - 1 - i) as usize
            }
        };
        let g = self.classifier.backward(grad_logits);
        let g = self.gap.backward(&g);
        grads[idx(l as isize - 1)] = Some(g);
        for i in (0..l).rev() {
            let g = grads[i].take().expect("cell output consumed downstream");
            let (d0, d1) = self.cells[i].backward(&g);
            for (offset, d) in [(i as isize - 2, d0), (i as isize - 1, d1)] {
                let slot = &mut grads[idx(offset)];
                match slot {
                    Some(acc) => acc.add_assign(&d).expect("state shapes agree"),
                    None => *slot = Some(d),
                }
            }
        }
        let mut d_stem = grads[idx(-1)].take().expect("stem feeds cell 0");
        if let Some(d2) = grads[idx(-2)].take() {
            d_stem.add_assign(&d2).expect("stem grads share shape");
        }
        let g = self.stem_bn.backward(&d_stem);
        self.stem_conv.backward(&g);
    }

    /// Visits every parameter in the structural order the supernet's
    /// gradient-merge expects.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.stem_conv.visit_params(f);
        self.stem_bn.visit_params(f);
        for cell in &mut self.cells {
            cell.visit_params(f);
        }
        self.classifier.visit_params(f);
    }

    /// Visits every non-trainable buffer (BatchNorm running statistics) in
    /// the same structural order; these must travel with the weights when
    /// sub-models are shipped or averaged.
    pub fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.stem_conv.visit_buffers(f);
        self.stem_bn.visit_buffers(f);
        for cell in &mut self.cells {
            cell.visit_buffers(f);
        }
        self.classifier.visit_buffers(f);
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total scalar parameter count.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Serialized weight size in bytes.
    pub fn param_bytes(&mut self) -> usize {
        self.param_count() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supernet::Supernet;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn mask_constructors() {
        let config = SupernetConfig::tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let m = ArchMask::uniform_random(&config, &mut rng);
        assert_eq!(m.num_edges(), config.topology().num_edges());
        let z = ArchMask::all_op(&config, OpKind::Zero);
        assert!(z.ops(CellKind::Normal).iter().all(|&o| o == 0));
        assert_eq!(z.op_kind(CellKind::Reduction, 0), OpKind::Zero);
    }

    #[test]
    #[should_panic(expected = "op index out of range")]
    fn mask_rejects_bad_indices() {
        let _ = ArchMask::new(vec![0, 99], vec![0, 0]);
    }

    #[test]
    fn submodel_trains_standalone() {
        let mut rng = StdRng::seed_from_u64(1);
        let config = SupernetConfig::tiny();
        let net = Supernet::new(config.clone(), &mut rng);
        let mask = ArchMask::uniform_random(&config, &mut rng);
        let mut sub = net.extract_submodel(&mask);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let logits = sub.forward(&x, Mode::Train);
        assert_eq!(logits.dims(), &[2, 10]);
        sub.backward(&Tensor::ones(logits.dims()));
        let mut total = 0.0f32;
        sub.visit_params(&mut |p| total += p.grad.norm());
        assert!(total > 0.0);
        sub.zero_grad();
        let mut total2 = 0.0f32;
        sub.visit_params(&mut |p| total2 += p.grad.norm());
        assert_eq!(total2, 0.0);
    }

    #[test]
    fn submodel_param_count_matches_supernet_estimate() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = SupernetConfig::tiny();
        let net = Supernet::new(config.clone(), &mut rng);
        let mask = ArchMask::uniform_random(&config, &mut rng);
        let mut sub = net.extract_submodel(&mask);
        assert_eq!(sub.param_count(), net.submodel_param_count(&mask));
        assert_eq!(sub.param_bytes(), net.submodel_bytes(&mask));
    }

    #[test]
    fn average_submodel_is_fraction_of_supernet() {
        // The paper reports supernet 1.93 MB vs average sub-model 0.27 MB
        // (~1/7). At proxy scale the ratio is less extreme because the
        // always-shipped stem/preprocessors/classifier are a larger share,
        // but the sub-model must still be well under half the supernet.
        let mut rng = StdRng::seed_from_u64(3);
        let config = SupernetConfig::tiny();
        let mut net = Supernet::new(config.clone(), &mut rng);
        let full = net.param_bytes() as f64;
        let mut acc = 0.0f64;
        let samples = 20;
        for _ in 0..samples {
            let mask = ArchMask::uniform_random(&config, &mut rng);
            acc += net.submodel_bytes(&mask) as f64;
        }
        let avg = acc / samples as f64;
        assert!(avg < full * 0.5, "avg sub {avg} vs full {full}");
    }
}
