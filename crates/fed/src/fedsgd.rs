//! The gradient-averaging form of FedAvg (paper §III-A, second variant):
//! participants upload gradients `g_k = ∇L(θ)` and the server applies
//! `θ ← θ − η (1/n) Σ g_k`, optionally selecting only `n` of the `K`
//! participants per round ("according to a pre-defined proportion").

use crate::comm::CommStats;
use crate::participant::Participant;
use crate::trainable::{evaluate_model, TrainableModel};
use fedrlnas_data::{dirichlet_partition, iid_partition, AugmentConfig, SyntheticDataset};
use fedrlnas_netsim::Environment;
use fedrlnas_nn::{Param, Sgd, SgdConfig};
use rand::Rng;

/// Configuration of the gradient-averaging trainer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedSgdConfig {
    /// Mini-batch size per participant per round.
    pub batch_size: usize,
    /// Server optimizer applied to the averaged gradient.
    pub sgd: SgdConfig,
    /// Fraction of participants selected each round (`1.0` = all; the
    /// paper's server "selects n participants out of K").
    pub participation: f64,
    /// Dirichlet concentration (`None` = i.i.d. partition).
    pub dirichlet_beta: Option<f64>,
    /// Participant-side augmentation.
    pub augment: AugmentConfig,
}

impl Default for FedSgdConfig {
    fn default() -> Self {
        FedSgdConfig {
            batch_size: 16,
            sgd: SgdConfig::default(),
            participation: 1.0,
            dirichlet_beta: None,
            augment: AugmentConfig::none(),
        }
    }
}

/// Gradient-averaging FedAvg over a single global model.
pub struct FedSgdTrainer<M> {
    global: M,
    participants: Vec<Participant>,
    config: FedSgdConfig,
    server_sgd: Sgd,
    comm: CommStats,
    round: usize,
}

impl<M: TrainableModel> FedSgdTrainer<M> {
    /// Creates the trainer over `k` participants.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, the dataset is empty, or
    /// `participation` is not in `(0, 1]`.
    pub fn new<R: Rng + ?Sized>(
        global: M,
        dataset: &SyntheticDataset,
        k: usize,
        config: FedSgdConfig,
        rng: &mut R,
    ) -> Self {
        assert!(
            config.participation > 0.0 && config.participation <= 1.0,
            "participation must be in (0, 1]"
        );
        let parts = match config.dirichlet_beta {
            Some(beta) => dirichlet_partition(dataset.labels(), k, beta, rng),
            None => iid_partition(dataset.len(), k, rng),
        };
        let participants = parts
            .into_iter()
            .enumerate()
            .map(|(id, indices)| {
                Participant::new(
                    id,
                    indices,
                    config.batch_size,
                    config.augment,
                    Environment::ALL[id % Environment::ALL.len()],
                    1.0,
                    rng,
                )
            })
            .collect();
        let server_sgd = Sgd::new(config.sgd);
        FedSgdTrainer {
            global,
            participants,
            config,
            server_sgd,
            comm: CommStats::new(),
            round: 0,
        }
    }

    /// The global model.
    pub fn global_mut(&mut self) -> &mut M {
        &mut self.global
    }

    /// Communication tally.
    pub fn comm(&self) -> &CommStats {
        &self.comm
    }

    /// Number of participants selected per round.
    pub fn selected_per_round(&self) -> usize {
        ((self.participants.len() as f64 * self.config.participation).round() as usize)
            .clamp(1, self.participants.len())
    }

    /// One round: the server selects `n` participants, each computes one
    /// gradient on the current global weights, and the server applies the
    /// average. Returns the mean training accuracy of the selected
    /// participants.
    pub fn run_round<R: Rng + ?Sized>(&mut self, dataset: &SyntheticDataset, rng: &mut R) -> f32 {
        let n = self.selected_per_round();
        let k = self.participants.len();
        // sample n distinct participants (partial Fisher–Yates)
        let mut order: Vec<usize> = (0..k).collect();
        for i in 0..n {
            let j = rng.gen_range(i..k);
            order.swap(i, j);
        }
        let selected = &order[..n];
        let model_bytes = self.global.param_bytes();
        // accumulate averaged gradients directly in the global model's
        // grad buffers (each local pass runs on identical weights θ_t, so
        // sequential accumulation equals the server-side average)
        self.global.zero_grad();
        let mut acc_sum = 0.0f32;
        for &p in selected {
            let report =
                self.participants[p].local_update(&mut NoZero(&mut self.global), dataset, rng);
            acc_sum += report.accuracy;
            self.comm.record_down(model_bytes);
            self.comm.record_up(model_bytes);
        }
        let inv_n = 1.0 / n as f32;
        self.global
            .visit_params(&mut |p: &mut Param| p.grad.scale(inv_n));
        let global = &mut self.global;
        self.server_sgd.step_visitor(|f| global.visit_params(f));
        global.zero_grad();
        self.comm.end_round();
        self.round += 1;
        acc_sum * inv_n
    }

    /// Test-split accuracy of the global model.
    pub fn evaluate(&mut self, dataset: &SyntheticDataset) -> f32 {
        evaluate_model(&mut self.global, dataset, 64)
    }
}

/// Adapter suppressing `zero_grad` so sequential local updates accumulate
/// (participants each call `zero_grad` before their pass; here the server
/// wants the sum).
struct NoZero<'a, M: TrainableModel>(&'a mut M);

impl<M: TrainableModel> TrainableModel for NoZero<'_, M> {
    fn forward(
        &mut self,
        x: &fedrlnas_tensor::Tensor,
        mode: fedrlnas_nn::Mode,
    ) -> fedrlnas_tensor::Tensor {
        self.0.forward(x, mode)
    }

    fn backward(&mut self, grad_logits: &fedrlnas_tensor::Tensor) {
        self.0.backward(grad_logits)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.0.visit_params(f)
    }

    fn zero_grad(&mut self) {
        // deliberately empty: gradients must accumulate across participants
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrlnas_darts::{ArchMask, Supernet, SupernetConfig};
    use fedrlnas_data::DatasetSpec;
    use rand::{rngs::StdRng, SeedableRng};

    fn setup() -> (SyntheticDataset, fedrlnas_darts::SubModel, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let data =
            SyntheticDataset::generate(&DatasetSpec::svhn_like().with_sizes(12, 4), &mut rng);
        let config = SupernetConfig::tiny();
        let net = Supernet::new(config.clone(), &mut rng);
        let mask = ArchMask::uniform_random(&config, &mut rng);
        (data, net.extract_submodel(&mask), rng)
    }

    #[test]
    fn round_moves_weights_and_counts_comm() {
        let (data, model, mut rng) = setup();
        let mut trainer = FedSgdTrainer::new(model, &data, 4, FedSgdConfig::default(), &mut rng);
        let mut before = Vec::new();
        trainer
            .global_mut()
            .visit_params(&mut |p| before.push(p.value.clone()));
        let acc = trainer.run_round(&data, &mut rng);
        assert!((0.0..=1.0).contains(&acc));
        let mut moved = false;
        let mut i = 0;
        trainer.global_mut().visit_params(&mut |p| {
            if p.value != before[i] {
                moved = true;
            }
            i += 1;
        });
        assert!(moved, "server step must move the global weights");
        assert_eq!(trainer.comm().rounds, 1);
    }

    #[test]
    fn partial_participation_selects_fewer() {
        let (data, model, mut rng) = setup();
        let config = FedSgdConfig {
            participation: 0.5,
            ..FedSgdConfig::default()
        };
        let mut trainer = FedSgdTrainer::new(model, &data, 6, config, &mut rng);
        assert_eq!(trainer.selected_per_round(), 3);
        trainer.run_round(&data, &mut rng);
        // traffic reflects 3 participants, both directions
        let expected = 2 * 3 * {
            let mut b = 0;
            trainer.global_mut().visit_params(&mut |p| b += p.len() * 4);
            b as u64
        };
        assert_eq!(trainer.comm().total_bytes(), expected);
    }

    #[test]
    #[should_panic(expected = "participation must be in (0, 1]")]
    fn rejects_zero_participation() {
        let (data, model, mut rng) = setup();
        let config = FedSgdConfig {
            participation: 0.0,
            ..FedSgdConfig::default()
        };
        let _ = FedSgdTrainer::new(model, &data, 4, config, &mut rng);
    }

    #[test]
    fn training_progresses() {
        let (data, model, mut rng) = setup();
        let mut trainer = FedSgdTrainer::new(model, &data, 3, FedSgdConfig::default(), &mut rng);
        let before = trainer.evaluate(&data);
        let mut accs = Vec::new();
        for _ in 0..15 {
            accs.push(trainer.run_round(&data, &mut rng));
        }
        let after = trainer.evaluate(&data);
        assert!(
            after >= before || accs.last() > accs.first(),
            "gradient averaging should make progress ({before} -> {after}, {accs:?})"
        );
    }
}
