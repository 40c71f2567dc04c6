//! Pluggable round-execution backends.
//!
//! [`SearchServer`](crate::SearchServer) owns Algorithm 1 — sampling,
//! adaptive assignment, soft synchronization, aggregation — and hands the
//! part that moves sub-models to participants and gradients back to one
//! [`RoundBackend`]: one [`RoundBackend::run_round`] call per round, whose
//! [`RoundOutcome`] the server folds into its tallies the same way for
//! every backend.
//!
//! * [`InProcessBackend`] (the default) trains the lent participants in
//!   place on a bounded thread pool and reports the paper's *estimated*
//!   bytes, simulating lossy-codec error feedback like a wire worker;
//! * a wire backend (`fedrlnas-rpc`) ships every payload over a real
//!   transport to a long-lived worker and reports *measured* frame bytes.
//!
//! The trait lives here, one layer below the wire implementation, so the
//! server never depends on the transport crate; `fedrlnas-rpc` depends on
//! this crate and installs itself via [`SearchServer::set_backend`](crate::SearchServer::set_backend).

use std::sync::Mutex;

use fedrlnas_codec::{absorb_residual, compensate, Codec, CodecConfig};
use fedrlnas_darts::{ArchMask, SubModel, Supernet, SupernetConfig};
use fedrlnas_data::SyntheticDataset;
use fedrlnas_fed::{
    participant_rng, ChurnTally, CompressionTally, FaultTally, Participant, RejectTally,
    RoundTimings,
};
use fedrlnas_netsim::resolve_codec;
use rand::{rngs::StdRng, SeedableRng};

/// One participant's completed local update as delivered by a backend.
///
/// Every backend produces this shape ([`InProcessBackend`] with an empty
/// `delta_alpha`), so everything downstream of training — staleness,
/// compensation, aggregation — is identical across backends.
#[derive(Debug, Clone)]
pub struct BackendReport {
    /// Reporting participant id.
    pub participant: usize,
    /// Round the update was computed in (< the current round for replies
    /// that missed their deadline and arrived late).
    pub computed_at: usize,
    /// Architecture the participant trained.
    pub mask: ArchMask,
    /// Training accuracy — the REINFORCE reward `R(θ_k)`.
    pub accuracy: f32,
    /// Mean training loss over the local batch.
    pub loss: f32,
    /// Flat sub-model gradients in structural visit order.
    pub grads: Vec<f32>,
    /// Participant-computed `∇_α log p(g)` (empty in-process; the server
    /// recomputes it either way and uses this only as a cross-check).
    pub delta_alpha: Vec<f32>,
}

/// Everything a backend needs to run one federated round.
pub struct RoundRequest<'a> {
    /// Current round index `t`.
    pub round: usize,
    /// `masks[p]` is the architecture assigned to participant `p`.
    pub masks: &'a [ArchMask],
    /// `submodels[p]` is the extracted sub-model for participant `p`
    /// (weights and BatchNorm buffers to ship).
    pub submodels: Vec<SubModel>,
    /// Current flat controller logits, shipped alongside each sub-model.
    pub alpha_logits: &'a [f32],
    /// This round's sampled downlink bandwidth per participant in Mbps
    /// (drives transport shaping).
    pub bandwidths_mbps: &'a [f64],
    /// Base seed for participant-side RNGs; participant `p` trains with
    /// [`participant_rng`]`(seed_base, p)` under every backend, so all
    /// backends are bit-identical.
    pub seed_base: u64,
    /// Per-slot participation mask from the population/churn layer.
    /// `active[p] == false` means slot `p`'s sampled client is out for
    /// this round: the backend must not ship to it, wait on it, or count
    /// it toward quorum. `None` means every slot participates (the
    /// historical fixed-fleet behaviour).
    pub active: Option<&'a [bool]>,
    /// The server's participants, lent for the round and indexed by id.
    /// Contract: on return, every active slot's data loader has advanced
    /// exactly once, so the server's participants stay authoritative for
    /// checkpoints whichever backend trained them.
    pub participants: &'a mut [Participant],
    /// The federation's training data. Wire workers ignore it: they have
    /// held their own copy since the backend was installed.
    pub dataset: &'a SyntheticDataset,
}

/// What a backend hands back after driving one round.
#[derive(Debug, Clone, Default)]
pub struct RoundOutcome {
    /// On-time replies, sorted by participant id (aggregation order must
    /// match the in-process path for determinism).
    pub reports: Vec<BackendReport>,
    /// Replies from *earlier* rounds that surfaced during this round's
    /// collection window; the server routes them into the staleness path.
    pub late: Vec<BackendReport>,
    /// Total bytes that crossed the wire server→participants this round,
    /// including retransmissions.
    pub bytes_down: u64,
    /// Total bytes that crossed participants→server this round, including
    /// late replies.
    pub bytes_up: u64,
    /// Measured size of the download frame first sent to each participant;
    /// divided by the sampled bandwidth this yields the round's
    /// transmission latency. Empty when nothing was measured: the server
    /// then keeps the assignment's latency estimates.
    pub download_frame_bytes: Vec<u64>,
    /// Transport faults observed/injected this round plus the recovery
    /// actions (retransmits, evictions) they triggered; folded into
    /// [`fedrlnas_fed::CommStats`] by the server.
    pub faults: FaultTally,
    /// Updates the engine's validation gate refused this round, by cause,
    /// plus workers evicted while misbehaving (suspected Byzantine).
    /// Rejected replies never appear in `reports`/`late`.
    pub rejects: RejectTally,
    /// Raw vs. encoded upload bytes and per-codec frame counts for every
    /// update delivered this round (on-time or late); empty when the run
    /// is configured for plain `fp32`.
    pub compression: CompressionTally,
    /// Churn events the engine itself observed this round (currently
    /// heartbeat re-admissions of previously evicted workers); merged into
    /// the server's scheduled-churn tally. Empty for fault-free fixed
    /// fleets, so legacy runs keep their CommStats byte-identical.
    pub churn: ChurnTally,
    /// Wall-clock the engine spent shipping downloads, collecting replies,
    /// decoding coded runs and validating updates this round. Volatile
    /// observability data (never part of determinism comparisons); the
    /// server adds its own aggregate timing and folds the result into
    /// [`fedrlnas_fed::CommStats`].
    pub timings: RoundTimings,
}

/// A round-execution engine: ships sub-models out, collects updates back.
///
/// Implementations must be deadline-driven: wait for each participant up
/// to a bounded time, retry lost downloads a bounded number of times, and
/// report late or missing replies rather than blocking the round forever.
pub trait RoundBackend: Send {
    /// Runs one federated round and returns on-time replies, late replies
    /// from earlier rounds, and the round's byte counts.
    fn run_round(&mut self, request: RoundRequest<'_>) -> RoundOutcome;

    /// Human-readable transport description for logs (e.g. `"loopback-tcp"`).
    fn describe(&self) -> String {
        "custom".to_string()
    }

    /// The authoritative per-participant error-feedback residuals held by
    /// the backend's workers, indexed by participant id. `None` (the
    /// default) means the server's own participants stay authoritative:
    /// nothing is compressed, or they were trained in place. Called by the
    /// checkpointing layer right before a capture.
    fn collect_residuals(&mut self) -> Option<Vec<Vec<f32>>> {
        None
    }
}

/// The default backend: trains the lent participants in place, inside the
/// server's address space.
///
/// Active slots are pulled from one shared queue by a pool of
/// `fedrlnas_tensor::num_threads()` workers (clamped to the number of
/// active slots), and reports come back sorted by participant id, so the
/// outcome never depends on the pool width. Byte counts are estimates: a
/// sub-model's parameter bytes down, the same plus 4 bytes of reward up —
/// or, under a lossy codec, the encoded length, after the same
/// compensate → encode → decode → absorb error-feedback step a wire worker
/// performs, so the decoded gradients match a wire run bit for bit.
pub struct InProcessBackend {
    net: SupernetConfig,
    codec: CodecConfig,
    /// Supernet *structure* and flat-θ length for mapping sub-model
    /// gradients onto the full-width error-feedback residual. Built from
    /// a fixed seed on the first lossy-coded round (no weight is ever
    /// read), so fp32 runs never pay for it.
    structure: Option<(Supernet, usize)>,
}

impl InProcessBackend {
    /// A backend for supernets of shape `net` uploading with `codec`.
    pub fn new(net: &SupernetConfig, codec: CodecConfig) -> Self {
        InProcessBackend {
            net: net.clone(),
            codec,
            structure: None,
        }
    }
}

impl RoundBackend for InProcessBackend {
    fn run_round(&mut self, request: RoundRequest<'_>) -> RoundOutcome {
        let RoundRequest {
            round,
            masks,
            mut submodels,
            bandwidths_mbps,
            seed_base,
            active,
            participants,
            dataset,
            ..
        } = request;
        let slots: Vec<(&mut Participant, &mut SubModel)> = participants
            .iter_mut()
            .zip(submodels.iter_mut())
            .filter(|(p, _)| active.is_none_or(|a| a.get(p.id()).copied().unwrap_or(false)))
            .collect();
        let threads = fedrlnas_tensor::num_threads().clamp(1, slots.len().max(1));
        let mut reports: Vec<BackendReport> = {
            let queue = Mutex::new(slots.into_iter());
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut done = Vec::new();
                            loop {
                                let next = queue.lock().expect("slot queue lock").next();
                                let Some((p, sub)) = next else {
                                    return done;
                                };
                                done.push(train(p, sub, dataset, round, masks, seed_base));
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("participant pool thread panicked"))
                    .collect()
            })
        };
        reports.sort_by_key(|r| r.participant);
        let mut out = RoundOutcome::default();
        for r in &mut reports {
            let raw = (r.grads.len() * std::mem::size_of::<f32>()) as u64;
            out.bytes_down += raw;
            if self.codec.is_fp32() {
                out.bytes_up += raw + 4;
                continue;
            }
            let (supernet, theta_len) = self.structure.get_or_insert_with(|| {
                let mut supernet =
                    Supernet::new(self.net.clone(), &mut StdRng::seed_from_u64(0x5EED));
                let theta_len = supernet.param_count();
                (supernet, theta_len)
            });
            let spec = resolve_codec(self.codec, bandwidths_mbps[r.participant]);
            let ranges = supernet.submodel_param_ranges(&r.mask);
            let residual = participants[r.participant].residual_mut_sized(*theta_len);
            compensate(&mut r.grads, residual, &ranges);
            let encoded = spec.encode(&r.grads);
            let decoded = spec
                .decode(&encoded, r.grads.len())
                .expect("a codec must decode its own encoding");
            absorb_residual(residual, &r.grads, &decoded, &ranges);
            out.compression
                .record(spec.tag() as usize, raw, encoded.len() as u64);
            out.bytes_up += encoded.len() as u64 + 4;
            r.grads = decoded;
        }
        out.reports = reports;
        out
    }

    fn describe(&self) -> String {
        "in-process".to_string()
    }
}

/// Participant `p`'s local update on its lent sub-model, as a report.
fn train(
    p: &mut Participant,
    sub: &mut SubModel,
    dataset: &SyntheticDataset,
    round: usize,
    masks: &[ArchMask],
    seed_base: u64,
) -> BackendReport {
    let id = p.id();
    let report = p.local_update(sub, dataset, &mut participant_rng(seed_base, id));
    let mut grads = Vec::new();
    sub.visit_params(&mut |pp| grads.extend_from_slice(pp.grad.as_slice()));
    BackendReport {
        participant: id,
        computed_at: round,
        mask: masks[id].clone(),
        accuracy: report.accuracy,
        loss: report.loss,
        grads,
        delta_alpha: Vec::new(),
    }
}
