//! The search server: Algorithm 1 with adaptive transmission and
//! delay-compensated soft synchronization.

use crate::backend::{BackendReport, InProcessBackend, RoundBackend, RoundRequest};
use crate::config::{PopulationConfig, SearchConfig};
use crate::metrics::{CurveRecorder, StepMetric};
use fedrlnas_controller::{Alpha, ReinforceController};
use fedrlnas_darts::{ArchMask, Genotype, Supernet};
use fedrlnas_data::{dirichlet_partition, iid_partition, SyntheticDataset};
use fedrlnas_fed::{
    validate_update, ChurnTally, CommStats, Participant, RejectTally, ShardedAccumulator,
    SparseUpdate,
};
use fedrlnas_netsim::{assign, transmission_secs, CohortSampler, Environment, Population};
use fedrlnas_nn::Sgd;
use fedrlnas_sync::{
    compensate_alpha_gradient, compensate_gradient, MemoryPools, RoundSnapshot, StalenessDraw,
    StalenessStrategy,
};
use fedrlnas_tensor::Tensor;
use rand::Rng;

/// Per-round transmission latency summary (the Fig. 7 metrics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyStats {
    /// Maximum (straggler) download latency per round, seconds.
    pub max_per_round: Vec<f64>,
    /// Mean download latency per round, seconds.
    pub mean_per_round: Vec<f64>,
}

impl LatencyStats {
    /// Mean of the per-round maxima — the bar height Fig. 7 plots.
    pub fn mean_of_max(&self) -> f64 {
        if self.max_per_round.is_empty() {
            0.0
        } else {
            self.max_per_round.iter().sum::<f64>() / self.max_per_round.len() as f64
        }
    }
}

/// A participant update still in flight (its staleness draw said it arrives
/// `arrival − computed_at` rounds late). `pub(crate)` so checkpointing can
/// capture and restore the in-flight queue.
pub(crate) struct PendingUpdate {
    pub(crate) arrival: usize,
    pub(crate) computed_at: usize,
    pub(crate) participant: usize,
    pub(crate) mask: ArchMask,
    pub(crate) sub_grads: Vec<f32>,
    pub(crate) accuracy: f32,
}

/// Consecutive flapped rounds after which a cohort slot is evicted from
/// participation until its sampled client is reachable again. Matches the
/// spirit of the engine's `evict_after` but lives server-side so the
/// decision is checkpointed and kill-and-resume replays it exactly.
const CHURN_EVICT_AFTER: u64 = 2;

/// Salt separating the cohort sampler's RNG stream from the availability
/// hash streams derived from the same spec seed.
const COHORT_SAMPLER_SALT: u64 = 0x00C0_4082_5EED_CAFE;

/// Mutable population/churn state driving per-round cohort sampling.
///
/// Lives on the server (not the engine) so that every scheduled-churn
/// decision — which clients were sampled, which flapped, which slots are
/// evicted — is part of the checkpointed state: the engine's worker slots
/// are rebuilt fresh on resume, so any participation decision taken there
/// would diverge after a kill -9. `pub(crate)` so checkpointing can
/// capture and restore it.
pub(crate) struct ChurnState {
    /// The enrolled fleet (pure function of the spec; not checkpointed).
    pub(crate) population: Population,
    /// Cohort sampler; its RNG cursor travels through checkpoints because
    /// the draw count per round depends on how many clients were available.
    pub(crate) sampler: CohortSampler,
    /// Consecutive flapped rounds per cohort slot.
    pub(crate) miss_streak: Vec<u64>,
    /// Slots currently sitting out after too many flaps.
    pub(crate) evicted: Vec<bool>,
}

impl ChurnState {
    pub(crate) fn new(config: &PopulationConfig) -> ChurnState {
        ChurnState {
            population: Population::new(config.size, config.availability),
            sampler: CohortSampler::new(config.availability.seed ^ COHORT_SAMPLER_SALT),
            miss_streak: vec![0; config.cohort],
            evicted: vec![false; config.cohort],
        }
    }

    /// Samples this round's cohort and resolves scheduled participation:
    /// draws `k` available clients, binds them to worker slots in order,
    /// re-admits evicted slots whose client holds steady, marks flapping
    /// slots inactive and evicts slots that flapped too many rounds in a
    /// row. Returns the per-slot active mask and the round's churn tally.
    fn begin_round(&mut self, round: u64) -> (Vec<bool>, ChurnTally) {
        let k = self.miss_streak.len();
        let draw = self.sampler.sample(&self.population, round, k);
        let mut tally = ChurnTally {
            sampled: draw.cohort.len() as u64,
            unavailable: self.population.size() - draw.available,
            ..ChurnTally::default()
        };
        let mut active = vec![false; k];
        for (slot, active_slot) in active.iter_mut().enumerate() {
            // undersized cohort (mass outage): unbound slots sit the round
            // out without touching their streaks
            let Some(&client) = draw.cohort.get(slot) else {
                continue;
            };
            let flap = self.population.flaps_mid_round(client, round);
            if self.evicted[slot] && !flap {
                // the freshly bound client is reachable and holds steady:
                // the slot rejoins immediately
                self.evicted[slot] = false;
                self.miss_streak[slot] = 0;
                tally.readmitted += 1;
            }
            *active_slot = !self.evicted[slot] && !flap;
            if flap {
                tally.flaps += 1;
                self.miss_streak[slot] += 1;
                if self.miss_streak[slot] >= CHURN_EVICT_AFTER && !self.evicted[slot] {
                    self.evicted[slot] = true;
                    tally.evicted += 1;
                }
            } else if *active_slot {
                self.miss_streak[slot] = 0;
            }
        }
        (active, tally)
    }
}

/// Whether cohort slot `p` participates this round (`true` when no
/// population is configured — the historical fixed fleet).
fn slot_active(mask: &Option<Vec<bool>>, p: usize) -> bool {
    mask.as_ref()
        .is_none_or(|m| m.get(p).copied().unwrap_or(false))
}

/// One computed local update ready for aggregation.
struct Arrival {
    computed_at: usize,
    mask: ArchMask,
    sub_grads: Vec<f32>,
    accuracy: f32,
    /// Participant-computed `∇α log p(g)` when the update crossed a wire
    /// backend; empty otherwise. Cross-checked against the server's own
    /// computation, never trusted directly.
    delta_alpha: Vec<f32>,
}

/// The RL federated model-search server (Algorithm 1).
///
/// Fields are `pub(crate)` so the checkpoint module can capture and restore
/// the complete mutable state without widening the public API.
pub struct SearchServer {
    pub(crate) config: SearchConfig,
    pub(crate) supernet: Supernet,
    pub(crate) controller: ReinforceController,
    pub(crate) participants: Vec<Participant>,
    pub(crate) pools: MemoryPools,
    pub(crate) pending: Vec<PendingUpdate>,
    pub(crate) comm: CommStats,
    pub(crate) warmup_curve: CurveRecorder,
    pub(crate) search_curve: CurveRecorder,
    pub(crate) latency: LatencyStats,
    pub(crate) theta_sgd: Sgd,
    pub(crate) round: usize,
    pub(crate) sim_seconds: f64,
    pub(crate) churn: Option<ChurnState>,
    initial_theta: Vec<f32>,
    /// Executes every round; an [`InProcessBackend`] unless one was
    /// installed through [`SearchServer::set_backend`].
    backend: Box<dyn RoundBackend>,
    /// Whether `backend` was installed rather than the default.
    backend_installed: bool,
}

impl SearchServer {
    /// Builds the server: supernet, controller, participants over the
    /// configured partition of `dataset`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation or the dataset shape
    /// disagrees with the supernet input.
    pub fn new<R: Rng + ?Sized>(
        config: SearchConfig,
        dataset: &SyntheticDataset,
        rng: &mut R,
    ) -> Self {
        config.validate().expect("invalid search config");
        assert_eq!(
            dataset.spec().image_hw,
            config.net.image_hw,
            "dataset image extent must match the supernet input"
        );
        assert_eq!(
            dataset.spec().num_classes,
            config.net.num_classes,
            "dataset classes must match the classifier"
        );
        let mut supernet = Supernet::new(config.net.clone(), rng);
        let controller = ReinforceController::new(&config.net, config.controller);
        let parts = match config.dirichlet_beta {
            Some(beta) => dirichlet_partition(dataset.labels(), config.num_participants, beta, rng),
            None => iid_partition(dataset.len(), config.num_participants, rng),
        };
        // each search owns its trace profile: a pinned per-config rotation
        // when one is configured, the historical process-wide rotation
        // otherwise — so `auto` codec choice under a multi-tenant service
        // reads this job's traces, never another tenant's
        let environment_of = |id: usize| match &config.environments {
            Some(envs) => envs[id % envs.len()],
            None => Environment::ALL[id % Environment::ALL.len()],
        };
        let participants: Vec<Participant> = parts
            .into_iter()
            .enumerate()
            .map(|(id, indices)| {
                Participant::new(
                    id,
                    indices,
                    config.batch_size,
                    config.augment,
                    environment_of(id),
                    1.0,
                    rng,
                )
            })
            .collect();
        let mut initial_theta = Vec::new();
        supernet.visit_params(&mut |p| initial_theta.extend_from_slice(p.value.as_slice()));
        let theta_sgd = Sgd::new(config.theta_sgd);
        let churn = config.population.as_ref().map(ChurnState::new);
        let backend = Box::new(InProcessBackend::new(&config.net, config.codec));
        SearchServer {
            config,
            supernet,
            controller,
            participants,
            pools: MemoryPools::new(),
            pending: Vec::new(),
            comm: CommStats::new(),
            warmup_curve: CurveRecorder::new(),
            search_curve: CurveRecorder::new(),
            latency: LatencyStats::default(),
            theta_sgd,
            round: 0,
            sim_seconds: 0.0,
            churn,
            initial_theta,
            backend,
            backend_installed: false,
        }
    }

    /// Installs a round-execution backend (e.g. the `fedrlnas-rpc`
    /// runtime). Subsequent rounds serialize every sub-model over the
    /// backend's transport, and [`SearchServer::comm`] switches from
    /// estimated to *measured* wire bytes.
    pub fn set_backend(&mut self, backend: Box<dyn RoundBackend>) {
        self.backend = backend;
        self.backend_installed = true;
    }

    /// Removes the installed backend, returning to in-process execution.
    pub fn clear_backend(&mut self) -> Option<Box<dyn RoundBackend>> {
        if !std::mem::take(&mut self.backend_installed) {
            return None;
        }
        let in_process = Box::new(InProcessBackend::new(&self.config.net, self.config.codec));
        Some(std::mem::replace(&mut self.backend, in_process))
    }

    /// Pulls the authoritative error-feedback residuals back from the
    /// backend into the server's own participants, so a checkpoint
    /// captured next reflects what the workers actually hold. No-op when
    /// the backend trains the server's participants in place or does not
    /// compress uploads.
    pub(crate) fn sync_backend_residuals(&mut self) {
        if let Some(residuals) = self.backend.collect_residuals() {
            for (p, r) in self.participants.iter_mut().zip(residuals) {
                p.set_residual(r);
            }
        }
    }

    /// Transport description of the installed backend; `None` while
    /// rounds run in-process.
    pub fn backend_description(&self) -> Option<String> {
        self.backend_installed.then(|| self.backend.describe())
    }

    /// The federation's participants. Wire backends clone these at install
    /// time so their workers start from exactly the server's state.
    pub fn participants(&self) -> &[Participant] {
        &self.participants
    }

    /// The search configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// The warm-up (P1) training curve (Fig. 3).
    pub fn warmup_curve(&self) -> &CurveRecorder {
        &self.warmup_curve
    }

    /// The search (P2) training curve (Figs. 4–6, 8, 12).
    pub fn search_curve(&self) -> &CurveRecorder {
        &self.search_curve
    }

    /// Communication tally.
    pub fn comm(&self) -> &CommStats {
        &self.comm
    }

    /// Folds a storage fault-injection delta into the communication
    /// tally. Storage faults are environmental observability data
    /// (excluded from `CommStats` equality and checkpoints), so this
    /// never perturbs determinism comparisons.
    pub fn record_io_faults(&mut self, delta: &fedrlnas_fed::IoFaultTally) {
        self.comm.record_io_faults(delta);
    }

    /// Transmission latency statistics (Fig. 7).
    pub fn latency(&self) -> &LatencyStats {
        &self.latency
    }

    /// Simulated wall-clock time consumed so far, in hours (Table V).
    pub fn sim_hours(&self) -> f64 {
        self.sim_seconds / 3600.0
    }

    /// The controller (for inspecting α).
    pub fn controller(&self) -> &ReinforceController {
        &self.controller
    }

    /// Mutable supernet access (used by evaluation helpers and benches).
    pub fn supernet_mut(&mut self) -> &mut Supernet {
        &mut self.supernet
    }

    /// Number of rounds completed across warm-up and search.
    pub fn rounds_completed(&self) -> usize {
        self.round
    }

    /// Restores controller state from a checkpoint: flat α logits and the
    /// reward baseline.
    ///
    /// # Panics
    ///
    /// Panics if the logits length does not match this configuration.
    pub fn restore_controller_state(&mut self, alpha: &[f32], baseline: f32) {
        let logits = Tensor::from_vec(alpha.to_vec(), &[alpha.len()]).expect("flat logits");
        let edges = self.config.net.topology().num_edges();
        *self.controller.alpha_mut() = Alpha::from_logits(logits, edges);
        self.controller.set_baseline(baseline);
    }

    /// Runs `steps` warm-up rounds (P1): sub-models are sampled from the
    /// (frozen, still uniform) policy and only θ is trained.
    pub fn run_warmup<R: Rng + ?Sized>(
        &mut self,
        dataset: &SyntheticDataset,
        steps: usize,
        rng: &mut R,
    ) {
        for _ in 0..steps {
            self.run_round(dataset, false, rng);
        }
    }

    /// Runs `steps` search rounds (P2): θ and α update jointly.
    pub fn run_search<R: Rng + ?Sized>(
        &mut self,
        dataset: &SyntheticDataset,
        steps: usize,
        rng: &mut R,
    ) {
        for _ in 0..steps {
            self.run_round(dataset, true, rng);
        }
    }

    /// Derives the searched genotype from the current policy.
    pub fn derive_genotype(&self) -> Genotype {
        Genotype::from_probs(&self.controller.alpha().probs(), self.config.net.nodes)
    }

    /// The argmax architecture of the current policy.
    pub fn argmax_mask(&self) -> ArchMask {
        self.controller.alpha().argmax_mask()
    }

    /// The validation gate in front of Algorithm 1's aggregate step:
    /// refuses reports whose gradients are the wrong length for their
    /// architecture, contain NaN/Inf anywhere (gradients, accuracy or
    /// loss), or exceed the configured L2 norm bound — before they can
    /// touch the staleness draws, the reward baseline, the training curve
    /// or θ. Causes are tallied into [`CommStats::rejects`]. With honest
    /// reports nothing is filtered and the round is byte-identical to the
    /// ungated path.
    fn gate_reports(&mut self, reports: Vec<BackendReport>) -> Vec<BackendReport> {
        let bound = self.config.update_norm_bound;
        let mut tally = RejectTally::default();
        let mut kept = Vec::with_capacity(reports.len());
        for r in reports {
            let expected: usize = self
                .supernet
                .submodel_param_ranges(&r.mask)
                .iter()
                .map(|&(_, len)| len)
                .sum();
            let verdict = if r.accuracy.is_finite() && r.loss.is_finite() {
                validate_update(&r.grads, expected, bound)
            } else {
                Err(fedrlnas_fed::UpdateRejection::NonFinite)
            };
            match verdict {
                Ok(()) => kept.push(r),
                Err(fedrlnas_fed::UpdateRejection::ShapeMismatch { .. }) => {
                    tally.rejected_shape += 1;
                }
                Err(fedrlnas_fed::UpdateRejection::NonFinite) => {
                    tally.rejected_nonfinite += 1;
                }
                Err(fedrlnas_fed::UpdateRejection::NormExceeded { .. }) => {
                    tally.rejected_norm += 1;
                }
            }
        }
        if tally.any() {
            self.comm.record_rejects(&tally);
        }
        kept
    }

    /// One full server round of Algorithm 1. `update_alpha` distinguishes
    /// warm-up (false) from search (true).
    pub fn run_round<R: Rng + ?Sized>(
        &mut self,
        dataset: &SyntheticDataset,
        update_alpha: bool,
        rng: &mut R,
    ) {
        let t = self.round;
        let k = self.participants.len();
        // --- population churn: sample this round's cohort and resolve
        // scheduled participation. Runs before any draw on the main RNG
        // (the sampler owns its own stream), so fixed-fleet runs keep
        // their historical RNG shape bit for bit. ---
        let (active_mask, mut churn_tally) = match self.churn.as_mut() {
            Some(churn) => {
                let (active, tally) = churn.begin_round(t as u64);
                (Some(active), tally)
            }
            None => (None, ChurnTally::default()),
        };
        // Ablation: without weight sharing, every round starts from the
        // initial (untrained) supernet weights.
        if !self.config.weight_sharing {
            let init = self.initial_theta.clone();
            let mut cursor = 0usize;
            self.supernet.visit_params(&mut |p| {
                let n = p.value.len();
                p.value
                    .as_mut_slice()
                    .copy_from_slice(&init[cursor..cursor + n]);
                cursor += n;
            });
        }
        // --- sample masks and extract sub-models (Alg. 1 lines 5–9) ---
        let masks: Vec<ArchMask> = (0..k).map(|_| self.controller.sample(rng)).collect();
        let sizes: Vec<usize> = masks
            .iter()
            .map(|m| self.supernet.submodel_bytes(m))
            .collect();
        // --- adaptive transmission (lines 10–11) ---
        let bandwidths: Vec<f64> = self
            .participants
            .iter_mut()
            .map(|p| p.next_bandwidth_mbps(rng))
            .collect();
        let outcome = assign(self.config.assignment, &sizes, &bandwidths, rng);
        // Per-participant download latency this round: the assignment
        // estimates, replaced below by measured frame bytes over the same
        // sampled bandwidths when the backend measured any.
        let mut latencies = outcome.latencies.clone();
        // inactive slots ship nothing, so they contribute no latency (a
        // measuring backend reaches the same numbers via zero-byte frames)
        for (p, latency) in latencies.iter_mut().enumerate() {
            if !slot_active(&active_mask, p) {
                *latency = 0.0;
            }
        }
        // mask each participant actually trains
        let assigned_masks: Vec<ArchMask> = (0..k)
            .map(|p| masks[outcome.model_for_participant[p]].clone())
            .collect();
        // --- memory pools (lines 4, 6–7) ---
        if matches!(
            self.config.strategy,
            StalenessStrategy::DelayCompensated { .. } | StalenessStrategy::Use
        ) {
            let mut theta = Vec::with_capacity(self.initial_theta.len());
            self.supernet
                .visit_params(&mut |p| theta.extend_from_slice(p.value.as_slice()));
            self.pools.save(
                t,
                RoundSnapshot {
                    theta,
                    alpha: self.controller.alpha().logits().as_slice().to_vec(),
                    masks: assigned_masks.clone(),
                },
            );
        }
        // --- participants train in parallel (lines 12–14, 37–42) ---
        let submodels: Vec<_> = assigned_masks
            .iter()
            .map(|m| self.supernet.extract_submodel(m))
            .collect();
        let seed_base: u64 = rng.gen();
        let alpha_logits = self.controller.alpha().logits().as_slice().to_vec();
        let out = self.backend.run_round(RoundRequest {
            round: t,
            masks: &assigned_masks,
            submodels,
            alpha_logits: &alpha_logits,
            bandwidths_mbps: &bandwidths,
            seed_base,
            active: active_mask.as_deref(),
            participants: &mut self.participants,
            dataset,
        });
        self.comm.record_down(out.bytes_down as usize);
        self.comm.record_up(out.bytes_up as usize);
        self.comm.record_faults(&out.faults);
        self.comm.record_rejects(&out.rejects);
        self.comm.record_compression(&out.compression);
        churn_tally.merge(&out.churn);
        let mut round_timings = out.timings;
        for ((latency, &bytes), &mbps) in latencies
            .iter_mut()
            .zip(&out.download_frame_bytes)
            .zip(&bandwidths)
        {
            *latency = transmission_secs(bytes as usize, mbps);
        }
        // --- validation gate: nothing unverified reaches staleness,
        // rewards, the curve, or aggregation (the wire engine gates its
        // own replies too; this covers every backend and defends in depth
        // against a buggy one) ---
        let reports = self.gate_reports(out.reports);
        let late_reports = self.gate_reports(out.late);
        if churn_tally.any() {
            self.comm.record_churn(&churn_tally);
        }
        self.latency
            .max_per_round
            .push(latencies.iter().copied().fold(0.0, f64::max));
        self.latency
            .mean_per_round
            .push(latencies.iter().sum::<f64>() / latencies.len().max(1) as f64);
        // simulated time: slowest participant (compute + download) + server
        // overhead
        let mut round_secs = 0.0f64;
        for (p, mask) in assigned_masks.iter().enumerate().take(k) {
            if !slot_active(&active_mask, p) {
                continue; // sat the round out: no compute, no transmission
            }
            let macs = self.supernet.flops_masked(mask) * self.config.batch_size as u64;
            let compute =
                self.config.device.train_step_secs(macs) / self.participants[p].speed_factor();
            let total = compute + latencies[p];
            if total > round_secs {
                round_secs = total;
            }
        }
        self.sim_seconds += round_secs + self.config.device.round_overhead_secs;
        // --- staleness: decide when each update arrives (soft sync) ---
        let mut arrivals: Vec<Arrival> = Vec::with_capacity(k);
        for r in &reports {
            let draw = if matches!(self.config.strategy, StalenessStrategy::Hard) {
                StalenessDraw::Fresh
            } else {
                self.config.staleness.sample(rng)
            };
            match draw {
                StalenessDraw::Fresh => arrivals.push(Arrival {
                    computed_at: t,
                    mask: r.mask.clone(),
                    sub_grads: r.grads.clone(),
                    accuracy: r.accuracy,
                    delta_alpha: r.delta_alpha.clone(),
                }),
                StalenessDraw::Stale(tau) => self.pending.push(PendingUpdate {
                    arrival: t + tau,
                    computed_at: t,
                    participant: r.participant,
                    mask: r.mask.clone(),
                    sub_grads: r.grads.clone(),
                    accuracy: r.accuracy,
                }),
                StalenessDraw::Dropped => {}
            }
        }
        // real late arrivals — replies that missed their round's deadline on
        // the wire — enter the same soft-sync path as simulated staleness
        for r in late_reports {
            self.pending.push(PendingUpdate {
                arrival: t,
                computed_at: r.computed_at,
                participant: r.participant,
                mask: r.mask,
                sub_grads: r.grads,
                accuracy: r.accuracy,
            });
        }
        // late updates arriving this round (lines 16–31)
        let (due, still_pending): (Vec<PendingUpdate>, Vec<PendingUpdate>) =
            std::mem::take(&mut self.pending)
                .into_iter()
                .partition(|u| u.arrival <= t);
        self.pending = still_pending;
        for u in due {
            let tau = t - u.computed_at;
            if StalenessDraw::from_delay(tau, self.config.staleness_threshold)
                == StalenessDraw::Dropped
            {
                continue; // line 23: ignore update
            }
            match self.config.strategy {
                StalenessStrategy::Throw => {} // discard stale data
                StalenessStrategy::Use | StalenessStrategy::DelayCompensated { .. } => {
                    arrivals.push(Arrival {
                        computed_at: u.computed_at,
                        mask: u.mask,
                        sub_grads: u.sub_grads,
                        accuracy: u.accuracy,
                        delta_alpha: Vec::new(),
                    });
                }
                StalenessStrategy::Hard => unreachable!("hard sync never defers"),
            }
        }
        // --- aggregate (lines 17–33) ---
        let theta_len = self.initial_theta.len();
        // Streaming aggregation front-end: each arrival folds into the
        // accumulator as soon as its staleness handling completes (the
        // plain/clipped mean folds immediately; order-sensitive rules
        // buffer internally). Pushes happen in arrival order — the same
        // order the old batch call saw — so the result is bit-identical.
        // Under a sharded topology the arrivals are partitioned round-robin
        // across shard aggregators with a root merge (flat + mean rules
        // route through the identical flat fold — see `ShardedAccumulator`).
        let mut theta_acc =
            ShardedAccumulator::new(&self.config.aggregator, self.config.topology, theta_len);
        let mut aggregate_ns = 0u64;
        let mut alpha_grad = Tensor::zeros(self.controller.alpha().logits().dims());
        let mut m = 0usize;
        let accuracies: Vec<f32> = arrivals.iter().map(|a| a.accuracy).collect();
        let rewards = if update_alpha {
            self.controller.baselined_rewards(&accuracies)
        } else {
            vec![0.0; arrivals.len()]
        };
        let lambda = match self.config.strategy {
            StalenessStrategy::DelayCompensated { lambda } => lambda,
            _ => 0.0,
        };
        // current flat theta for compensation
        let mut current_theta = Vec::with_capacity(theta_len);
        self.supernet
            .visit_params(&mut |p| current_theta.extend_from_slice(p.value.as_slice()));
        let current_alpha = self.controller.alpha().logits().as_slice().to_vec();
        let edges = self.config.net.topology().num_edges();
        for (arrival, reward) in arrivals.into_iter().zip(rewards) {
            let ranges = self.supernet.submodel_param_ranges(&arrival.mask);
            let mut grads = arrival.sub_grads;
            let mut glog = if arrival.computed_at == t {
                let g = self.controller.alpha().grad_log_prob(&arrival.mask);
                // A wire backend ships the participant's own ∇α log p(g);
                // never trusted directly, but it must agree bit-for-bit with
                // the server's recomputation.
                debug_assert!(
                    arrival.delta_alpha.is_empty() || arrival.delta_alpha == g.as_slice(),
                    "participant delta_alpha diverged from server recomputation"
                );
                g
            } else {
                // stale: gradients relate to the old α and θ (lines 24–28)
                let stale_alpha_logits = self
                    .pools
                    .get(arrival.computed_at)
                    .map(|s| s.alpha.clone())
                    .unwrap_or_else(|| current_alpha.clone());
                let stale_alpha = Alpha::from_logits(
                    Tensor::from_vec(stale_alpha_logits.clone(), &[stale_alpha_logits.len()])
                        .expect("flat logits"),
                    edges,
                );
                let mut glog = stale_alpha.grad_log_prob(&arrival.mask);
                if lambda > 0.0 {
                    // Eq. (13) on θ
                    let fresh_w: Vec<f32> = ranges
                        .iter()
                        .flat_map(|&(off, len)| current_theta[off..off + len].iter().copied())
                        .collect();
                    if let Some(stale_w) = self.pools.pruned_theta(arrival.computed_at, &ranges) {
                        compensate_gradient(&mut grads, &fresh_w, &stale_w, lambda);
                    }
                    // Eq. (15) on α
                    compensate_alpha_gradient(
                        glog.as_mut_slice(),
                        &current_alpha,
                        &stale_alpha_logits,
                        lambda,
                    );
                }
                glog
            };
            // fold the θ gradient at the sub-model's slots into the
            // streaming accumulator (the default mean reproduces the
            // legacy running sum bit for bit, delay compensation above
            // already repaired stale values, so robust merging composes
            // with Eq. 13 for free)
            let fold_start = std::time::Instant::now();
            theta_acc.push(SparseUpdate {
                ranges,
                values: grads,
            });
            aggregate_ns = aggregate_ns.saturating_add(fold_start.elapsed().as_nanos() as u64);
            // accumulate α gradient: R_m ∇ log p(g_m)
            glog.scale(reward);
            alpha_grad.add_assign(&glog).expect("alpha shapes agree");
            m += 1;
        }
        let finish_start = std::time::Instant::now();
        let theta_grad = theta_acc.finish();
        aggregate_ns = aggregate_ns.saturating_add(finish_start.elapsed().as_nanos() as u64);
        round_timings.aggregate_ns = round_timings.aggregate_ns.saturating_add(aggregate_ns);
        self.comm.record_timing(&round_timings);
        debug_assert!(
            theta_grad.iter().all(|v| v.is_finite()),
            "aggregated θ gradient contains non-finite values; the \
             validation gate should have rejected the offending update"
        );
        if m > 0 {
            let inv_m = 1.0 / m as f32;
            // θ update (line 32–33)
            if !self.config.freeze_theta {
                let mut cursor = 0usize;
                self.supernet.visit_params(&mut |p| {
                    let n = p.grad.len();
                    for (g, v) in p
                        .grad
                        .as_mut_slice()
                        .iter_mut()
                        .zip(&theta_grad[cursor..cursor + n])
                    {
                        *g = v * inv_m;
                    }
                    cursor += n;
                });
                let supernet = &mut self.supernet;
                self.theta_sgd.step_visitor(|f| supernet.visit_params(f));
                supernet.zero_grad();
            }
            // α update (line 33)
            if update_alpha {
                alpha_grad.scale(inv_m);
                self.controller.ascend(&alpha_grad);
            }
        }
        // --- record the curve over this round's computed updates ---
        let n_reports = reports.len().max(1) as f32;
        let mean_acc = reports.iter().map(|r| r.accuracy).sum::<f32>() / n_reports;
        let mean_loss = reports.iter().map(|r| r.loss).sum::<f32>() / n_reports;
        let metric = StepMetric {
            step: t,
            mean_accuracy: mean_acc,
            mean_loss,
            contributors: m,
        };
        if update_alpha {
            self.search_curve.record(metric);
        } else {
            self.warmup_curve.record(metric);
        }
        // --- eviction (lines 34–35) ---
        self.pools.evict(t, self.config.staleness_threshold);
        self.comm.end_round();
        self.round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use fedrlnas_data::DatasetSpec;
    use fedrlnas_sync::StalenessModel;
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::{Arc, Mutex};

    fn dataset(rng: &mut StdRng) -> SyntheticDataset {
        SyntheticDataset::generate(&DatasetSpec::svhn_like().with_sizes(12, 4), rng)
    }

    #[test]
    fn rounds_advance_and_record() {
        let mut rng = StdRng::seed_from_u64(0);
        let data = dataset(&mut rng);
        let mut server = SearchServer::new(SearchConfig::tiny(), &data, &mut rng);
        server.run_warmup(&data, 3, &mut rng);
        server.run_search(&data, 4, &mut rng);
        assert_eq!(server.warmup_curve().len(), 3);
        assert_eq!(server.search_curve().len(), 4);
        assert_eq!(server.comm().rounds, 7);
        assert!(server.comm().total_bytes() > 0);
        assert!(server.sim_hours() > 0.0);
        assert_eq!(server.latency().max_per_round.len(), 7);
    }

    #[test]
    fn warmup_does_not_move_alpha() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = dataset(&mut rng);
        let mut server = SearchServer::new(SearchConfig::tiny(), &data, &mut rng);
        let before = server.controller().alpha().logits().clone();
        server.run_warmup(&data, 3, &mut rng);
        assert_eq!(server.controller().alpha().logits(), &before);
        server.run_search(&data, 3, &mut rng);
        assert_ne!(server.controller().alpha().logits(), &before);
    }

    #[test]
    fn freeze_theta_keeps_weights() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = dataset(&mut rng);
        let mut config = SearchConfig::tiny();
        config.freeze_theta = true;
        let mut server = SearchServer::new(config, &data, &mut rng);
        let mut before = Vec::new();
        server
            .supernet_mut()
            .visit_params(&mut |p| before.extend_from_slice(p.value.as_slice()));
        server.run_search(&data, 3, &mut rng);
        let mut after = Vec::new();
        server
            .supernet_mut()
            .visit_params(&mut |p| after.extend_from_slice(p.value.as_slice()));
        assert_eq!(before, after);
    }

    #[test]
    fn stale_updates_survive_with_dc_and_die_with_throw() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = dataset(&mut rng);
        // All updates stale by exactly 1 round.
        let all_stale = StalenessModel::new(vec![0.0, 1.0]);
        let mut dc_cfg = SearchConfig::tiny();
        dc_cfg.staleness = all_stale.clone();
        dc_cfg.strategy = StalenessStrategy::delay_compensated();
        let mut server = SearchServer::new(dc_cfg, &data, &mut rng);
        server.run_search(&data, 4, &mut rng);
        // first round has no arrivals; later rounds apply last round's
        let contributors: Vec<usize> = server
            .search_curve()
            .steps()
            .iter()
            .map(|s| s.contributors)
            .collect();
        assert_eq!(contributors[0], 0);
        assert!(contributors[1..].iter().any(|&c| c > 0), "{contributors:?}");

        let mut throw_cfg = SearchConfig::tiny();
        throw_cfg.staleness = all_stale;
        throw_cfg.strategy = StalenessStrategy::Throw;
        let mut server = SearchServer::new(throw_cfg, &data, &mut rng);
        server.run_search(&data, 3, &mut rng);
        assert!(server
            .search_curve()
            .steps()
            .iter()
            .all(|s| s.contributors == 0));
    }

    #[test]
    fn validation_gate_filters_bad_reports_by_cause() {
        let mut rng = StdRng::seed_from_u64(7);
        let data = dataset(&mut rng);
        let config = SearchConfig::tiny().with_update_norm_bound(1e3);
        let mut server = SearchServer::new(config, &data, &mut rng);
        let mask = server.controller().sample(&mut rng);
        let expected: usize = server
            .supernet
            .submodel_param_ranges(&mask)
            .iter()
            .map(|&(_, len)| len)
            .sum();
        let report = |grads: Vec<f32>, accuracy: f32| BackendReport {
            participant: 0,
            computed_at: 0,
            mask: mask.clone(),
            accuracy,
            loss: 1.0,
            grads,
            delta_alpha: Vec::new(),
        };
        let batch = vec![
            report(vec![0.01; expected], 0.5),      // honest
            report(vec![f32::NAN; expected], 0.5),  // poisoned gradients
            report(vec![0.01; expected - 1], 0.5),  // wrong shape
            report(vec![1e6; expected], 0.5),       // norm bomb
            report(vec![0.01; expected], f32::NAN), // poisoned reward
        ];
        let kept = server.gate_reports(batch);
        assert_eq!(kept.len(), 1, "only the honest report survives");
        assert!(kept[0].grads.iter().all(|g| g.is_finite()));
        let r = server.comm().rejects;
        assert_eq!(r.rejected_nonfinite, 2);
        assert_eq!(r.rejected_shape, 1);
        assert_eq!(r.rejected_norm, 1);
        assert_eq!(r.total_rejected(), 4);
    }

    #[test]
    fn honest_rounds_reject_nothing() {
        // regression for the byte-identity requirement: on honest data the
        // gate must be a pure pass-through (no rejections, full strength)
        let mut rng = StdRng::seed_from_u64(8);
        let data = dataset(&mut rng);
        let mut server = SearchServer::new(SearchConfig::tiny(), &data, &mut rng);
        server.run_warmup(&data, 2, &mut rng);
        server.run_search(&data, 2, &mut rng);
        assert!(!server.comm().rejects.any(), "{:?}", server.comm().rejects);
        assert!(server
            .search_curve()
            .steps()
            .iter()
            .all(|s| s.contributors == server.config().num_participants));
    }

    #[test]
    fn robust_aggregation_composes_with_delay_compensation() {
        // median merge over delay-compensated stale arrivals: compensation
        // (Eq. 13) repairs each update before the robust center sees it,
        // so the search must stay finite and keep recording contributors
        let mut rng = StdRng::seed_from_u64(9);
        let data = dataset(&mut rng);
        let mut config = SearchConfig::tiny()
            .with_staleness(
                StalenessModel::new(vec![0.5, 0.5]),
                StalenessStrategy::delay_compensated(),
            )
            .with_aggregator(fedrlnas_fed::AggregatorConfig::parse("median").unwrap());
        config.search_steps = 6;
        let mut server = SearchServer::new(config, &data, &mut rng);
        server.run_search(&data, 6, &mut rng);
        let mut theta = Vec::new();
        server
            .supernet_mut()
            .visit_params(&mut |p| theta.extend_from_slice(p.value.as_slice()));
        assert!(theta.iter().all(|v| v.is_finite()));
        assert!(server
            .search_curve()
            .steps()
            .iter()
            .skip(1)
            .any(|s| s.contributors > 0));
        assert!(!server.comm().rejects.any());
    }

    #[test]
    fn robust_runs_are_deterministic() {
        let run = |spec: &str| {
            let mut rng = StdRng::seed_from_u64(10);
            let data = dataset(&mut rng);
            let config = SearchConfig::tiny()
                .with_aggregator(fedrlnas_fed::AggregatorConfig::parse(spec).unwrap());
            let mut server = SearchServer::new(config, &data, &mut rng);
            server.run_search(&data, 4, &mut rng);
            (
                server.derive_genotype(),
                server.search_curve().steps().to_vec(),
            )
        };
        for spec in ["median", "krum:3", "trimmed:1", "clip:10"] {
            let a = run(spec);
            let b = run(spec);
            assert_eq!(a.0, b.0, "{spec}: genotypes diverged across reruns");
            assert_eq!(a.1, b.1, "{spec}: curves diverged across reruns");
        }
    }

    #[test]
    fn in_process_pool_width_never_changes_the_search() {
        let run = |codec: &str, threads: usize| {
            fedrlnas_tensor::set_num_threads(threads);
            let mut rng = StdRng::seed_from_u64(11);
            let data = dataset(&mut rng);
            let config =
                SearchConfig::tiny().with_codec(fedrlnas_codec::CodecConfig::parse(codec).unwrap());
            let mut server = SearchServer::new(config, &data, &mut rng);
            server.run_warmup(&data, 2, &mut rng);
            server.run_search(&data, 3, &mut rng);
            (
                server.search_curve().steps().to_vec(),
                server.derive_genotype(),
                *server.comm(),
            )
        };
        let before = fedrlnas_tensor::num_threads();
        for codec in ["fp32", "topk:0.1"] {
            // one pool thread, and more pool threads than the cohort of 4
            let serial = run(codec, 1);
            let wide = run(codec, 7);
            assert_eq!(serial.0, wide.0, "{codec}: curves diverged");
            assert_eq!(serial.1, wide.1, "{codec}: genotypes diverged");
            assert_eq!(serial.2, wide.2, "{codec}: CommStats diverged");
        }
        fedrlnas_tensor::set_num_threads(before);
    }

    /// Forwards to the in-process backend, first recording the round's
    /// straggler latency when every participant is charged the mean
    /// sub-model size, and when each is charged its own.
    struct Recording(InProcessBackend, Arc<Mutex<Vec<(f64, f64)>>>);

    impl RoundBackend for Recording {
        fn run_round(&mut self, mut request: RoundRequest<'_>) -> crate::backend::RoundOutcome {
            let sizes: Vec<usize> = request
                .submodels
                .iter_mut()
                .map(|s| s.param_bytes())
                .collect();
            let avg = (sizes.iter().sum::<usize>() as f64 / sizes.len() as f64).round() as usize;
            let bandwidths = request.bandwidths_mbps;
            let max_latency = |bytes: &dyn Fn(usize) -> usize| {
                (0..sizes.len())
                    .map(|p| transmission_secs(bytes(p), bandwidths[p]))
                    .fold(0.0, f64::max)
            };
            let seen = (max_latency(&|_| avg), max_latency(&|p| sizes[p]));
            self.1.lock().unwrap().push(seen);
            self.0.run_round(request)
        }
    }

    #[test]
    fn average_size_latency_charges_the_mean_submodel() {
        let mut rng = StdRng::seed_from_u64(12);
        let data = dataset(&mut rng);
        let mut config = SearchConfig::tiny();
        config.assignment = fedrlnas_netsim::AssignmentStrategy::AverageSize;
        let mut server = SearchServer::new(config.clone(), &data, &mut rng);
        let seen = Arc::default();
        let inner = InProcessBackend::new(&config.net, config.codec);
        server.set_backend(Box::new(Recording(inner, Arc::clone(&seen))));
        server.run_search(&data, 3, &mut rng);
        let seen = seen.lock().unwrap();
        for (t, &(by_average, _)) in seen.iter().enumerate() {
            assert_eq!(server.latency().max_per_round[t], by_average, "round {t}");
        }
        assert!(
            seen.iter()
                .any(|&(by_average, by_own)| by_average != by_own),
            "per-model sizes never differed from the mean"
        );
    }

    #[test]
    fn genotype_derivable_after_search() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = dataset(&mut rng);
        let mut server = SearchServer::new(SearchConfig::tiny(), &data, &mut rng);
        server.run_search(&data, 2, &mut rng);
        let g = server.derive_genotype();
        assert_eq!(g.nodes(), server.config().net.nodes);
        let mask = server.argmax_mask();
        assert_eq!(mask.num_edges(), server.config().net.topology().num_edges());
    }
}
