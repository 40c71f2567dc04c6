//! Concurrent, deadline-driven round engine.
//!
//! Each participant sits behind its own [`Transport`], served by a pooled
//! worker fleet (see `crate::reactor`). Per round the engine serializes each sub-model into
//! a [`Message::DownloadSubmodel`] frame, ships it, then collects
//! [`Message::UploadUpdate`] replies under a per-participant deadline with
//! bounded, backed-off retries. Replies that surface after their round's
//! deadline are attributed to the round they were computed in and handed
//! to the server as *late* reports, which flow into the soft-sync
//! staleness path.
//!
//! Graceful degradation: with [`RpcConfig::quorum_frac`] below `1.0` a
//! round commits as soon as the quorum of eligible workers has reported;
//! stragglers only get a short drain window and their replies surface
//! late. A worker that misses [`RpcConfig::evict_after`] consecutive
//! rounds is *evicted* — it no longer receives downloads, but every round
//! the engine drains its link, attributes any buffered late replies, and
//! sends a liveness probe; a heartbeat reply re-admits it.
//!
//! Population churn: when the server samples a per-round cohort from an
//! enrolled population, [`RoundRequest::active`] marks the slots whose
//! sampled client is out this round. Inactive slots are skipped entirely
//! — no download, no wait, no quorum membership — and the quorum target
//! is derived from the *active* eligible workers only. Scheduled churn is
//! decided (and checkpointed) server-side; the engine's own timeout →
//! staleness → eviction machinery keeps handling transport-level faults,
//! and heartbeat re-admission composes with the availability schedule
//! because an evicted worker's link is only serviced on rounds its slot
//! is active. Re-admission itself is a fresh start — see [`readmit`].
//!
//! Determinism: worker `p` derives its training RNG exactly like the
//! in-process backend ([`fedrlnas_fed::participant_rng`]), performs the
//! same `local_update` call on the same shipped weights, and reports are
//! sorted by participant id before aggregation — so a fault-free RPC
//! search is bit-identical to an in-process one. Injected faults come from the
//! seeded schedule of [`FaultPlan`], and every *recoverable* fault is
//! masked by the retry/idempotence machinery, so the search result is
//! unchanged under a recoverable fault plan too.
//!
//! Robustness: with [`RpcConfig::update_norm_bound`] set, every on-time
//! reply passes a validation gate (shape, finiteness, L2 norm) before it
//! counts; rejected replies are tallied by cause in
//! [`RoundOutcome::rejects`], never reach aggregation, and feed the
//! eviction machinery — a worker evicted while its replies were being
//! rejected is flagged as suspected Byzantine. Scripted
//! [`Attack`](crate::adversary::Attack)s on [`ScriptedFault::attack`]
//! corrupt the uploaded model update deterministically, providing the
//! adversarial side of that contract.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fedrlnas_codec::{absorb_residual, compensate, Codec, CodecConfig, CodecSpec, EncodeScratch};
use fedrlnas_controller::Alpha;
use fedrlnas_core::{BackendReport, RoundBackend, RoundOutcome, RoundRequest, SearchServer};
use fedrlnas_darts::{ArchMask, Supernet, SupernetConfig};
use fedrlnas_data::SyntheticDataset;
use fedrlnas_fed::{participant_rng, validate_update, Participant, RejectTally, UpdateRejection};
use fedrlnas_netsim::resolve_codec;
use fedrlnas_tensor::Tensor;

use crate::adversary::{apply_attack, Attack};
use crate::fault::{mix, FaultPlan, FaultyTransport};
use crate::transport::{ShapedTransport, Transport, TransportError};
use crate::wire::{
    decode, encode, encode_download_into, encode_into, encode_upload_coded_into, Message,
};

/// How many rounds of sent-mask / delivery history to keep for late-reply
/// attribution; anything older than this is unattributable and dropped
/// (the staleness threshold is far smaller in practice).
const HISTORY_ROUNDS: usize = 16;

/// Hard cap on any single backoff sleep.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Default for [`RpcConfig::quorum_drain`]: how long a straggler's link
/// is drained once the quorum is already met.
pub(crate) const QUORUM_DRAIN: Duration = Duration::from_millis(5);

/// How long an evicted worker's link is drained per round.
const EVICTED_DRAIN: Duration = Duration::from_millis(2);

/// Which transport the engine runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-memory duplex channels — no sockets, no syscalls.
    InMemory,
    /// Loopback TCP (`127.0.0.1`), one connection per participant.
    Tcp,
}

/// Which round-execution strategy drives phase 2.
///
/// Both modes produce bit-identical round outcomes for the same inputs
/// (same reports, same byte counts, same `CommStats`): the outcome
/// depends only on the *set* of on-time replies and the per-link content
/// order, never on the interleaving in which different links were
/// serviced. See DESIGN.md §4j.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// The reference barrier implementation: ship every download (each
    /// shaped send sleeping inline), then collect replies strictly in
    /// participant order, decoding and validating each one after its
    /// blocking wait returns.
    Serial,
    /// The event-driven implementation: a bounded pool of collector
    /// threads (see [`RpcConfig::reactor_threads`]) drives *all*
    /// participant links through nonblocking [`Transport::poll_recv`]
    /// readiness sweeps, with per-link deadline/retry/drain state
    /// machines replacing per-link blocking waits and shaped sends
    /// scheduled rather than slept, so link delays overlap and thread
    /// count stays flat as the cohort grows to 10k. Same quorum, drain
    /// and eviction semantics; effects still commit in participant order,
    /// so fault-free full-quorum rounds are bit-identical to serial (see
    /// `crate::reactor`).
    #[default]
    Reactor,
}

/// Round-engine tuning knobs.
#[derive(Debug, Clone)]
pub struct RpcConfig {
    /// Transport implementation to use.
    pub transport: TransportKind,
    /// Round-execution strategy (reactor by default; serial is the
    /// reference the determinism suites compare against).
    pub engine: EngineMode,
    /// How long to wait for each participant's reply per attempt.
    pub deadline: Duration,
    /// How many times a timed-out download is retransmitted before the
    /// participant is declared late for the round.
    pub max_retries: usize,
    /// Base sleep before the first retransmission; grows exponentially
    /// (saturating, capped, jittered — see [`backoff_delay`]).
    pub retry_backoff: Duration,
    /// Stretch factor mapping simulated transmission time onto real
    /// sleeps in the shaped transport. `0.0` (the default) keeps the
    /// byte-accurate accounting without sleeping.
    pub real_time_scale: f64,
    /// Fraction of eligible workers whose on-time reply commits the round
    /// (`1.0`, the default, waits for everyone — the legacy behaviour).
    pub quorum_frac: f64,
    /// How long a straggler's link is drained once the quorum is already
    /// met (defaults to the legacy 5ms constant, so existing byte-identity
    /// suites are unaffected).
    pub quorum_drain: Duration,
    /// Worker-fleet pool size in both modes, and collector pool size for
    /// [`EngineMode::Reactor`]. `0` (the default) resolves from
    /// `FEDRLNAS_NUM_THREADS`, falling back to the machine's available
    /// parallelism.
    pub reactor_threads: usize,
    /// Consecutive missed rounds after which a worker is evicted
    /// (`0` disables eviction).
    pub evict_after: usize,
    /// Seeded fault-injection plan applied to every server-side link
    /// endpoint; [`FaultPlan::none`] (the default) injects nothing.
    pub fault: FaultPlan,
    /// Reject any on-time reply whose model update exceeds this L2 norm
    /// (`None`, the default, disables the norm check; shape and
    /// finiteness are always enforced by the gate).
    pub update_norm_bound: Option<f32>,
    /// Update-compression codec for the upload path. Anything other than
    /// plain `fp32` makes every download a protocol-v2
    /// [`Message::DownloadSubmodelCoded`] carrying the per-participant
    /// codec choice (resolved from this config and the round's sampled
    /// bandwidth), and every reply a [`Message::UploadUpdateCoded`] whose
    /// gradient run the engine decodes *before* the validation gate.
    pub codec: CodecConfig,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            transport: TransportKind::InMemory,
            engine: EngineMode::default(),
            deadline: Duration::from_secs(5),
            max_retries: 2,
            retry_backoff: Duration::from_millis(10),
            real_time_scale: 0.0,
            quorum_frac: 1.0,
            quorum_drain: QUORUM_DRAIN,
            reactor_threads: 0,
            evict_after: 3,
            fault: FaultPlan::none(),
            update_norm_bound: None,
            codec: CodecConfig::default(),
        }
    }
}

/// Scripted failure for one worker — test harness for the timeout, retry,
/// staleness, eviction and re-admission paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScriptedFault {
    /// Worker exits silently upon receiving this round's download,
    /// simulating a permanent participant crash mid-round.
    pub die_at_round: Option<usize>,
    /// Worker holds the given round's download this long before computing
    /// its update, so the reply misses the deadline and arrives in a later
    /// round. Only that participant's link is parked; the rest of its
    /// fleet shard keeps running.
    pub delay: Option<(usize, Duration)>,
    /// `(crash_round, rounds_down)` — the worker crashes upon receiving
    /// `crash_round`'s download (losing its reply cache), stays silent for
    /// `rounds_down` rounds, then answers the next liveness probe and
    /// resumes.
    pub crash_restart: Option<(usize, usize)>,
    /// Byzantine behaviour applied to every uploaded model update; the
    /// architecture gradient and reward stay honest (see
    /// [`crate::adversary`]).
    pub attack: Option<Attack>,
}

/// Exponential backoff with saturation and bounded deterministic jitter.
///
/// `base × 2^attempt`, saturating instead of overflowing, capped at two
/// seconds, then scaled into `[75%, 125%)` by a splitmix64 hash of
/// `(salt, attempt)` — deterministic, so identical runs sleep identically,
/// but distinct workers/rounds desynchronize instead of retrying in
/// lockstep.
pub fn backoff_delay(base: Duration, attempt: usize, salt: u64) -> Duration {
    let factor = 1u64.checked_shl(attempt.min(63) as u32).unwrap_or(u64::MAX);
    let factor = u32::try_from(factor).unwrap_or(u32::MAX);
    let raw = base.saturating_mul(factor).min(MAX_BACKOFF);
    let h = mix(salt ^ mix(attempt as u64 + 1));
    let frac = (h >> 11) as f64 / (1u64 << 53) as f64; // uniform [0, 1)
    raw.mul_f64(0.75 + 0.5 * frac).min(MAX_BACKOFF)
}

/// `Box<dyn Transport>` is itself a transport, so the engine can hold
/// heterogeneous endpoints behind one shaped wrapper.
impl Transport for Box<dyn Transport> {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        (**self).send(frame)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        (**self).recv()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        (**self).recv_timeout(timeout)
    }

    fn poll_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        (**self).poll_recv()
    }
}

/// Server-side link to one worker: bandwidth shaping over fault injection
/// over the raw transport.
pub(crate) type Link = ShapedTransport<FaultyTransport<Box<dyn Transport>>>;

pub(crate) struct WorkerHandle {
    pub(crate) transport: Option<Link>,
    /// `false` once the link itself is dead (peer hung up / socket error);
    /// a dead worker never comes back.
    pub(crate) alive: bool,
    /// Evicted for missing too many consecutive rounds; still probed each
    /// round and re-admitted on a heartbeat.
    pub(crate) evicted: bool,
    /// Consecutive rounds without an on-time reply.
    pub(crate) miss_streak: usize,
    /// Consecutive rounds whose reply the validation gate refused; an
    /// eviction while this is non-zero marks the worker suspected
    /// Byzantine.
    pub(crate) reject_streak: usize,
}

/// The server-side round engine; implements [`RoundBackend`].
pub struct RpcBackend {
    workers: Vec<WorkerHandle>,
    /// Join handles for the pooled worker-fleet threads (one per pool
    /// thread, not per participant).
    pool_joins: Vec<JoinHandle<()>>,
    config: RpcConfig,
    /// Mask and expected flat-gradient length shipped to each
    /// (round, participant) — late replies carry only the round number, so
    /// both the mask and the trusted decode length are recovered here.
    sent_masks: HashMap<(usize, usize), (ArchMask, usize)>,
    /// (round, participant) pairs already handed to the server, so
    /// retransmission-induced duplicate replies are dropped.
    delivered: HashSet<(usize, usize)>,
    /// Per-worker error-feedback residuals, shared with the worker
    /// threads; the authoritative copy for checkpointing.
    residuals: Vec<Arc<Mutex<Vec<f32>>>>,
    /// Grow-only per-participant download frame buffers, reused across
    /// rounds so the steady-state encode path allocates nothing.
    download_frames: Vec<Vec<u8>>,
    /// Grow-only staging buffers for the flat weights/BN-buffers of the
    /// sub-model currently being encoded.
    weights_buf: Vec<f32>,
    buffers_buf: Vec<f32>,
    /// Per-participant expected flat-gradient lengths, reused across
    /// rounds so phase 1 allocates nothing at steady state even at 10k
    /// participants.
    expected_lens: Vec<usize>,
    /// Times any reusable hot-path buffer (server download frames and
    /// staging above, worker codec/frame scratch) grew its capacity;
    /// shared with every fleet thread. Debug observability for the
    /// zero-steady-state-allocation contract.
    growth: Arc<AtomicU64>,
}

impl RpcBackend {
    /// Spawns one worker per participant and wires the transports.
    ///
    /// Workers clone the participant state (data-loader cursor included)
    /// and rebuild the supernet *structure* locally; weights always arrive
    /// over the wire, so the worker-side initialization never leaks into
    /// training.
    pub fn new(
        participants: &[Participant],
        net: &SupernetConfig,
        dataset: &SyntheticDataset,
        config: RpcConfig,
    ) -> RpcBackend {
        Self::with_faults(participants, net, dataset, config, &[])
    }

    /// [`RpcBackend::new`] with per-worker scripted faults (index-aligned;
    /// missing entries mean no fault).
    pub fn with_faults(
        participants: &[Participant],
        net: &SupernetConfig,
        dataset: &SyntheticDataset,
        config: RpcConfig,
        faults: &[ScriptedFault],
    ) -> RpcBackend {
        let residuals: Vec<Arc<Mutex<Vec<f32>>>> = participants
            .iter()
            .map(|p| Arc::new(Mutex::new(p.residual().to_vec())))
            .collect();
        let growth = Arc::new(AtomicU64::new(0));
        let n = participants.len();
        // both engines drive all participants from one bounded pool
        let (workers, pool_joins) = crate::reactor::spawn_pooled_workers(
            participants,
            net,
            dataset,
            faults,
            &config.fault,
            &residuals,
            &growth,
            config.real_time_scale,
            config.transport,
            config.reactor_threads,
        );
        RpcBackend {
            workers,
            pool_joins,
            config,
            // pre-sized from the cohort: at n=10k a lazily grown map or
            // frame table would dominate round-1 allocation spikes
            sent_masks: HashMap::with_capacity(2 * n),
            delivered: HashSet::with_capacity(2 * n),
            residuals,
            download_frames: vec![Vec::new(); n],
            weights_buf: Vec::new(),
            buffers_buf: Vec::new(),
            expected_lens: Vec::with_capacity(n),
            growth,
        }
    }

    /// Number of live workers (evicted ones included — their links are
    /// still up).
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Number of currently evicted workers.
    pub fn evicted_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.alive && w.evicted).count()
    }

    /// How many times any reusable hot-path buffer — the server-side
    /// download frame/staging buffers and every worker's codec and reply
    /// frame scratch — had to grow its capacity since the backend was
    /// created. All those buffers are grow-only, so after the first few
    /// rounds (once each has seen its largest payload) this count must
    /// stop increasing: the encode/decode/frame hot path has reached
    /// zero steady-state allocations. Debug observability; asserted by
    /// the buffer-reuse test.
    pub fn buffer_growth_count(&self) -> u64 {
        self.growth.load(Ordering::Relaxed)
    }
}

/// Bumps the shared growth counter when a reused buffer's capacity grew
/// during the operation bounded by `before`/`after`.
fn note_growth(growth: &AtomicU64, before: usize, after: usize) {
    if after > before {
        growth.fetch_add(1, Ordering::Relaxed);
    }
}

pub(crate) fn wrap_link(
    inner: Box<dyn Transport>,
    participant: usize,
    plan: &FaultPlan,
    time_scale: f64,
) -> Link {
    ShapedTransport::new(
        FaultyTransport::new(inner, participant, plan),
        f64::MAX,
        time_scale,
    )
}

/// What [`WorkerState::handle_frame`] tells the worker's drive loop to do.
pub(crate) enum FrameOutcome {
    /// Keep servicing this participant's link.
    Continue,
    /// The scripted `die_at_round` fired: drop the link, no reply.
    Exit,
    /// The scripted `delay` fired: hold this frame (and everything queued
    /// behind it on the link) for the given time, then hand the same frame
    /// back to [`WorkerState::handle_frame`].
    Park(Duration),
}

/// The participant side of one link, so the pooled fleet can drive many
/// participants from one thread. All per-participant state lives here
/// (reply cache, codec scratch, crash script, attack memory); the
/// supernet *structure* is shared by every participant on a pool thread
/// because weights always arrive over the wire — nothing
/// training-relevant ever persists in it.
pub(crate) struct WorkerState {
    participant: Participant,
    fault: ScriptedFault,
    residual: Arc<Mutex<Vec<f32>>>,
    growth: Arc<AtomicU64>,
    reply_cache: HashMap<u64, Vec<u8>>,
    // grow-only hot-path scratch, reused every round: codec selection
    // keys, encoded byte run, self-decode output, and the reply frame.
    // Reuse never changes any output (see `EncodeScratch`), it only
    // removes steady-state allocations; `growth` counts capacity growth
    // so a test can assert the buffers actually stabilize.
    enc_scratch: EncodeScratch,
    coded_buf: Vec<u8>,
    decoded_buf: Vec<f32>,
    frame_buf: Vec<u8>,
    // the previous round's honest update, kept for Attack::StaleReplay
    last_honest: Vec<f32>,
    // first round the worker is back up after a scripted crash-restart
    down_until: Option<u64>,
    crashed: bool,
}

impl WorkerState {
    pub(crate) fn new(
        participant: Participant,
        fault: ScriptedFault,
        residual: Arc<Mutex<Vec<f32>>>,
        growth: Arc<AtomicU64>,
    ) -> Self {
        WorkerState {
            participant,
            fault,
            residual,
            growth,
            reply_cache: HashMap::new(),
            enc_scratch: EncodeScratch::default(),
            coded_buf: Vec::new(),
            decoded_buf: Vec::new(),
            frame_buf: Vec::new(),
            last_honest: Vec::new(),
            down_until: None,
            crashed: false,
        }
    }

    /// Services one inbound frame: heartbeats/probes are answered inline,
    /// downloads run one local training step and reply with the update.
    /// Replies are cached per round so a retransmitted download is
    /// answered from the cache instead of being recomputed (idempotence
    /// under retry). A scripted crash-restart makes the worker go silent
    /// for a window of rounds and resume when a liveness probe shows the
    /// window has passed. `theta_len` is the full flat-θ length — the
    /// error-feedback residual spans the whole supernet, exactly like the
    /// in-process path.
    pub(crate) fn handle_frame(
        &mut self,
        supernet: &mut Supernet,
        theta_len: usize,
        dataset: &SyntheticDataset,
        transport: &mut dyn Transport,
        frame: &[u8],
    ) -> FrameOutcome {
        let id = self.participant.id();
        let msg = match decode(frame) {
            Ok(m) => m,
            Err(_) => return FrameOutcome::Continue, // corrupt: await retransmission
        };
        // both download flavours share one training path; the coded one
        // additionally carries the codec the upload must be encoded with
        let (round, seed_base, mask, weights, buffers, alpha, codec) = match msg {
            Message::DownloadSubmodel {
                round,
                seed_base,
                mask,
                weights,
                buffers,
                alpha,
            } => (round, seed_base, mask, weights, buffers, alpha, None),
            Message::DownloadSubmodelCoded {
                round,
                seed_base,
                mask,
                weights,
                buffers,
                alpha,
                codec_tag,
                codec_param,
            } => {
                let spec = match CodecSpec::from_tag_param(codec_tag, codec_param) {
                    Some(s) => s,
                    None => return FrameOutcome::Continue, // nonsense codec: refuse
                };
                (round, seed_base, mask, weights, buffers, alpha, Some(spec))
            }
            Message::Heartbeat { .. } => {
                if self.down_until.is_none() {
                    let _ = transport.send(&encode(&Message::Heartbeat {
                        participant: id as u32,
                    }));
                }
                return FrameOutcome::Continue;
            }
            Message::Ack { round } => {
                // liveness probe: answer with a heartbeat unless still in
                // the scripted downtime window
                match self.down_until {
                    Some(until) if round < until => {}
                    _ => {
                        self.down_until = None;
                        let _ = transport.send(&encode(&Message::Heartbeat {
                            participant: id as u32,
                        }));
                    }
                }
                return FrameOutcome::Continue;
            }
            // uploads echo back only under fault injection; control-plane
            // frames are for the service listener, never a worker
            _ => return FrameOutcome::Continue,
        };
        if let Some(until) = self.down_until {
            if round < until {
                return FrameOutcome::Continue; // crashed: downloads fall on the floor
            }
            self.down_until = None;
        }
        if !self.crashed {
            if let Some((r, d)) = self.fault.crash_restart {
                if r == round as usize {
                    self.crashed = true;
                    self.reply_cache.clear(); // a crash loses in-memory state
                    self.down_until = Some(round + d as u64);
                    return FrameOutcome::Continue;
                }
            }
        }
        if let Some(cached) = self.reply_cache.get(&round) {
            let _ = transport.send(cached);
            return FrameOutcome::Continue;
        }
        if self.fault.die_at_round == Some(round as usize) {
            return FrameOutcome::Exit; // simulated crash: no reply
        }
        if let Some((r, d)) = self.fault.delay {
            if r == round as usize {
                // fires once: the parked frame comes back through here
                self.fault.delay = None;
                return FrameOutcome::Park(d);
            }
        }
        let mut sub = supernet.extract_submodel(&mask);
        let mut expected_w = 0;
        sub.visit_params(&mut |p| expected_w += p.value.len());
        let mut expected_b = 0;
        sub.visit_buffers(&mut |b| expected_b += b.len());
        if weights.len() != expected_w || buffers.len() != expected_b {
            return FrameOutcome::Continue; // shape mismatch: refuse rather than panic
        }
        let mut wc = 0;
        sub.visit_params(&mut |p| {
            let n = p.value.len();
            p.value.as_mut_slice().copy_from_slice(&weights[wc..wc + n]);
            wc += n;
        });
        let mut bc = 0;
        sub.visit_buffers(&mut |b| {
            let n = b.len();
            b.copy_from_slice(&buffers[bc..bc + n]);
            bc += n;
        });
        let report =
            self.participant
                .local_update(&mut sub, dataset, &mut participant_rng(seed_base, id));
        let mut grads = Vec::new();
        sub.visit_params(&mut |p| grads.extend_from_slice(p.grad.as_slice()));
        if let Some(attack) = self.fault.attack {
            let honest = std::mem::replace(&mut self.last_honest, grads.clone());
            apply_attack(attack, round, id as u64, &mut grads, &honest);
        }
        let edges = mask.num_edges();
        let alpha_len = alpha.len();
        let delta_alpha = Tensor::from_vec(alpha, &[alpha_len])
            .ok()
            .map(|t| {
                Alpha::from_logits(t, edges)
                    .grad_log_prob(&mask)
                    .as_slice()
                    .to_vec()
            })
            .unwrap_or_default();
        let frame_cap = self.frame_buf.capacity();
        match codec {
            None => encode_into(
                &Message::UploadUpdate {
                    round,
                    participant: id as u32,
                    delta_w: grads,
                    delta_alpha,
                    reward: report.accuracy,
                    loss: report.loss,
                },
                &mut self.frame_buf,
            ),
            Some(spec) => {
                // error feedback: fold the residual of every previous lossy
                // round into this update before encoding, then remember
                // what this round's encoding lost. Same math, same visit
                // order as the in-process simulation, so the two execution
                // modes stay bit-identical.
                let ranges = supernet.submodel_param_ranges(&mask);
                let mut res = self.residual.lock().expect("residual lock");
                if res.len() != theta_len {
                    res.resize(theta_len, 0.0);
                }
                compensate(&mut grads, &res, &ranges);
                let keys_cap = self.enc_scratch.capacity();
                let coded_cap = self.coded_buf.capacity();
                let dec_cap = self.decoded_buf.capacity();
                spec.encode_into(&grads, &mut self.enc_scratch, &mut self.coded_buf);
                spec.decode_into(&self.coded_buf, grads.len(), &mut self.decoded_buf)
                    .expect("a codec must decode its own encoding");
                absorb_residual(&mut res, &grads, &self.decoded_buf, &ranges);
                drop(res);
                note_growth(&self.growth, keys_cap, self.enc_scratch.capacity());
                note_growth(&self.growth, coded_cap, self.coded_buf.capacity());
                note_growth(&self.growth, dec_cap, self.decoded_buf.capacity());
                encode_upload_coded_into(
                    &mut self.frame_buf,
                    round,
                    id as u32,
                    spec.tag(),
                    spec.param(),
                    grads.len() as u32,
                    &self.coded_buf,
                    &delta_alpha,
                    report.accuracy,
                    report.loss,
                );
            }
        };
        note_growth(&self.growth, frame_cap, self.frame_buf.capacity());
        if self.reply_cache.len() >= HISTORY_ROUNDS {
            if let Some(oldest) = self.reply_cache.keys().min().copied() {
                self.reply_cache.remove(&oldest);
            }
        }
        // the cache clone is the one unavoidable per-round allocation on
        // this path: retransmitted downloads are answered from the cache
        // after `frame_buf` has been overwritten by a newer round
        self.reply_cache.insert(round, self.frame_buf.clone());
        let _ = transport.send(&self.frame_buf);
        FrameOutcome::Continue
    }
}

/// A classified upload reply.
enum Reply {
    /// A usable update: legacy fp32, or a codec run that decoded cleanly
    /// against the trusted length. `comp` carries the compression-tally
    /// entry `(codec index, raw bytes, encoded bytes)` for coded replies;
    /// it is recorded only if the report is actually delivered, so
    /// retransmission duplicates never double-count.
    Report {
        r: usize,
        report: BackendReport,
        comp: Option<(usize, u64, u64)>,
    },
    /// A coded reply whose byte run failed to decode against the length
    /// the engine itself shipped — malformed, treated like a
    /// shape-rejected update.
    Undecodable { r: usize, pid: usize },
    /// Heartbeats, acks, unattributable or non-upload traffic.
    Noise,
}

/// Turns a decoded message into a [`Reply`]. Coded gradient runs are
/// decoded here, against the flat-gradient length recorded when the
/// round's download was shipped — the sender's `orig_len` claim is never
/// consulted, so a hostile length can neither size an allocation nor
/// skew the gate.
fn classify_reply(msg: Message, sent: &HashMap<(usize, usize), (ArchMask, usize)>) -> Reply {
    match msg {
        Message::UploadUpdate {
            round,
            participant,
            delta_w,
            delta_alpha,
            reward,
            loss,
        } => Reply::Report {
            r: round as usize,
            report: BackendReport {
                participant: participant as usize,
                computed_at: round as usize,
                mask: ArchMask::new(vec![], vec![]), // placeholder
                accuracy: reward,
                loss,
                grads: delta_w,
                delta_alpha,
            },
            comp: None,
        },
        Message::UploadUpdateCoded {
            round,
            participant,
            codec_tag,
            codec_param,
            orig_len: _, // advisory; the engine trusts only its own books
            coded,
            delta_alpha,
            reward,
            loss,
        } => {
            let (r, pid) = (round as usize, participant as usize);
            let spec = match CodecSpec::from_tag_param(codec_tag, codec_param) {
                Some(s) => s,
                None => return Reply::Undecodable { r, pid },
            };
            let expected = match sent.get(&(r, pid)) {
                Some((_, len)) => *len,
                None => return Reply::Noise, // beyond the attribution horizon
            };
            match spec.decode(&coded, expected) {
                Ok(grads) => Reply::Report {
                    r,
                    report: BackendReport {
                        participant: pid,
                        computed_at: r,
                        mask: ArchMask::new(vec![], vec![]), // placeholder
                        accuracy: reward,
                        loss,
                        grads,
                        delta_alpha,
                    },
                    comp: Some((
                        spec.tag() as usize,
                        (expected * 4) as u64,
                        coded.len() as u64,
                    )),
                },
                Err(_) => Reply::Undecodable { r, pid },
            }
        }
        _ => Reply::Noise,
    }
}

/// Everything one worker's phase-2 interaction produced. Committed into
/// the round outcome strictly in participant order by
/// [`merge_worker_round`], so the reactor updates every data structure
/// the next round reads exactly as the serial reference would.
#[derive(Default)]
pub(crate) struct WorkerRound {
    pub(crate) reports: Vec<BackendReport>,
    pub(crate) late: Vec<BackendReport>,
    /// `(round, participant)` keys delivered on this link this round.
    /// A link only ever carries its own worker's replies, so these keys
    /// are disjoint across concurrent collectors.
    pub(crate) delivered: Vec<(usize, usize)>,
    /// Compression-tally entries for actually-delivered coded replies.
    pub(crate) comp: Vec<(usize, u64, u64)>,
    pub(crate) rejects: RejectTally,
    pub(crate) bytes_up: u64,
    pub(crate) bytes_down: u64,
    pub(crate) retransmits: u64,
    pub(crate) got: bool,
    pub(crate) rejected: bool,
    pub(crate) ship_ns: u64,
    pub(crate) collect_ns: u64,
    pub(crate) decode_ns: u64,
    pub(crate) validate_ns: u64,
}

/// Tracks the round's first download sends across the reactor's
/// collectors so the quorum target is derived from the same population
/// the serial engine sees: workers that were eligible at ship time *and*
/// whose download actually went out. Each collector records a link's send
/// outcome when that scheduled send happens; [`SendGate::target`] stays
/// `None` until every link has, then yields serial's post-ship target.
pub(crate) struct SendGate {
    links: usize,
    frac: f64,
    done: AtomicUsize,
    failed: AtomicUsize,
}

impl SendGate {
    pub(crate) fn new(links: usize, frac: f64) -> Self {
        SendGate {
            links,
            frac,
            done: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
        }
    }

    pub(crate) fn record(&self, ok: bool) {
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.done.fetch_add(1, Ordering::Release);
    }

    /// The quorum target, or `None` while some download has yet to go
    /// out — the quorum counts as unmet until then.
    pub(crate) fn target(&self) -> Option<usize> {
        if self.done.load(Ordering::Acquire) < self.links {
            return None;
        }
        let eligible = self.links - self.failed.load(Ordering::Relaxed);
        Some(quorum_target(self.frac, eligible))
    }
}

/// Workers whose on-time reply commits the round: `⌈frac · eligible⌉`,
/// at least one.
fn quorum_target(frac: f64, eligible: usize) -> usize {
    ((frac * eligible as f64).ceil() as usize).clamp(1, eligible.max(1))
}

/// What [`absorb_reply_frame`] tells the caller to do next.
#[derive(PartialEq, Eq)]
pub(crate) enum FrameStep {
    /// This link's round is settled (on-time report accepted or rejected);
    /// stop waiting on it.
    Done,
    /// The frame was noise, a duplicate or a late reply — keep waiting.
    KeepWaiting,
}

/// Absorbs one received reply frame into a [`WorkerRound`]: decode,
/// classify, deduplicate, late-attribute, and run the validation gate on
/// on-time reports. This is the single shared frame path for both engine
/// modes — the serial collector calls it from its wait loop, the reactor
/// from its readiness sweep — so classification and gate semantics cannot
/// drift between modes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn absorb_reply_frame(
    wr: &mut WorkerRound,
    frame_in: &[u8],
    t: usize,
    expected_len: usize,
    mask: &ArchMask,
    sent_masks: &HashMap<(usize, usize), (ArchMask, usize)>,
    delivered: &HashSet<(usize, usize)>,
    on_time: &AtomicUsize,
    update_norm_bound: Option<f32>,
) -> FrameStep {
    wr.bytes_up += frame_in.len() as u64;
    let decode_start = Instant::now();
    let classified = match decode(frame_in) {
        Ok(msg) => classify_reply(msg, sent_masks),
        Err(_) => Reply::Noise, // corruption: drop
    };
    wr.decode_ns = wr
        .decode_ns
        .saturating_add(decode_start.elapsed().as_nanos() as u64);
    let (r, report, comp) = match classified {
        Reply::Report { r, report, comp } => (r, report, comp),
        Reply::Undecodable { r, pid } => {
            // a coded run that does not decode against the length the
            // engine shipped is a malformed update — reject it before it
            // can reach validation or aggregation
            if r == t && !delivered.contains(&(r, pid)) && !wr.delivered.contains(&(r, pid)) {
                wr.delivered.push((r, pid));
                wr.rejected = true;
                wr.rejects.rejected_shape += 1;
                return FrameStep::Done;
            }
            return FrameStep::KeepWaiting;
        }
        Reply::Noise => return FrameStep::KeepWaiting, // heartbeat/ack noise
    };
    let pid = report.participant;
    if delivered.contains(&(r, pid)) || wr.delivered.contains(&(r, pid)) {
        return FrameStep::KeepWaiting; // duplicate from a retransmitted download
    }
    match r.cmp(&t) {
        std::cmp::Ordering::Equal => {
            wr.delivered.push((r, pid));
            if let Some(c) = comp {
                wr.comp.push(c);
            }
            // validation gate: a reply that is the wrong shape, non-finite
            // anywhere, or over the norm bound never reaches the server;
            // the worker is treated as having missed the round. Coded
            // replies were decoded above, so the gate sees exactly what
            // aggregation would consume.
            let gate_start = Instant::now();
            let verdict = if report.accuracy.is_finite() && report.loss.is_finite() {
                validate_update(&report.grads, expected_len, update_norm_bound)
            } else {
                Err(UpdateRejection::NonFinite)
            };
            wr.validate_ns = wr
                .validate_ns
                .saturating_add(gate_start.elapsed().as_nanos() as u64);
            match verdict {
                Ok(()) => {
                    wr.reports.push(BackendReport {
                        mask: mask.clone(),
                        ..report
                    });
                    wr.got = true;
                    on_time.fetch_add(1, Ordering::Relaxed);
                }
                Err(UpdateRejection::ShapeMismatch { .. }) => {
                    wr.rejected = true;
                    wr.rejects.rejected_shape += 1;
                }
                Err(UpdateRejection::NonFinite) => {
                    wr.rejected = true;
                    wr.rejects.rejected_nonfinite += 1;
                }
                Err(UpdateRejection::NormExceeded { .. }) => {
                    wr.rejected = true;
                    wr.rejects.rejected_norm += 1;
                }
            }
            FrameStep::Done
        }
        std::cmp::Ordering::Less => {
            // a reply that missed an earlier deadline; attribute it and
            // keep waiting for round t
            if let Some((late_mask, _)) = sent_masks.get(&(r, pid)) {
                wr.delivered.push((r, pid));
                if let Some(c) = comp {
                    wr.comp.push(c);
                }
                wr.late.push(BackendReport {
                    mask: late_mask.clone(),
                    ..report
                });
            }
            FrameStep::KeepWaiting
        }
        std::cmp::Ordering::Greater => FrameStep::KeepWaiting, // impossible; drop
    }
}

/// Serial phase 2 for a single worker: wait for its reply under the
/// deadline, quorum and bounded-retry rules, decoding and validating
/// whatever arrives. Mutates only this worker's handle; every
/// cross-worker effect is returned in the [`WorkerRound`] and committed
/// by [`merge_worker_round`]. `delivered` is the global set as of the
/// start of phase 2 — complete for this link's keys because only this
/// link delivers them (local additions are tracked in the result).
#[allow(clippy::too_many_arguments)]
fn collect_worker(
    p: usize,
    t: usize,
    w: &mut WorkerHandle,
    config: &RpcConfig,
    frame: &[u8],
    expected_len: usize,
    mask: &ArchMask,
    sent_masks: &HashMap<(usize, usize), (ArchMask, usize)>,
    delivered: &HashSet<(usize, usize)>,
    on_time: &AtomicUsize,
    quorum_target: usize,
) -> WorkerRound {
    let mut wr = WorkerRound::default();
    let transport = w.transport.as_mut().expect("live worker has transport");
    let mut attempts = 0usize;
    loop {
        // once the quorum has reported, a straggler only gets the short
        // drain window instead of the full per-attempt deadline
        let quorum_met = on_time.load(Ordering::Relaxed) >= quorum_target;
        let wait = if quorum_met {
            config.quorum_drain
        } else {
            config.deadline
        };
        let wait_start = Instant::now();
        let received = transport.recv_timeout(wait);
        wr.collect_ns = wr
            .collect_ns
            .saturating_add(wait_start.elapsed().as_nanos() as u64);
        match received {
            Ok(frame_in) => {
                match absorb_reply_frame(
                    &mut wr,
                    &frame_in,
                    t,
                    expected_len,
                    mask,
                    sent_masks,
                    delivered,
                    on_time,
                    config.update_norm_bound,
                ) {
                    FrameStep::Done => break,
                    FrameStep::KeepWaiting => {}
                }
            }
            Err(TransportError::Timeout) => {
                let quorum_met = on_time.load(Ordering::Relaxed) >= quorum_target;
                if !quorum_met && attempts < config.max_retries {
                    let salt = ((t as u64) << 32) | p as u64;
                    std::thread::sleep(backoff_delay(config.retry_backoff, attempts, salt));
                    attempts += 1;
                    wr.retransmits += 1;
                    match transport.send(frame) {
                        Ok(()) => wr.bytes_down += frame.len() as u64,
                        Err(_) => {
                            w.alive = false;
                            break;
                        }
                    }
                } else {
                    break; // late: the reply, if any, surfaces next round
                }
            }
            Err(_) => {
                w.alive = false;
                break;
            }
        }
    }
    wr
}

/// Re-admits an evicted worker after a heartbeat. Re-admission is a
/// fresh start: besides the miss streak, the *reject* streak is cleared
/// too, so Byzantine suspicion must be re-earned by fresh misbehaviour —
/// a flapping but honest client is never permanently poisoned by the
/// rejections that preceded an earlier eviction. `suspected_byzantine`
/// counts eviction *events* that happened while replies were being
/// refused; clearing the streak here never un-counts those events.
fn readmit(w: &mut WorkerHandle, out: &mut RoundOutcome) {
    w.evicted = false;
    w.miss_streak = 0;
    w.reject_streak = 0;
    out.churn.readmitted += 1;
}

/// Commits one worker's phase-2 results into the round outcome and
/// applies the miss/reject streak + eviction transition. Both engines
/// call it in participant order.
fn merge_worker_round(
    out: &mut RoundOutcome,
    delivered: &mut HashSet<(usize, usize)>,
    w: &mut WorkerHandle,
    wr: WorkerRound,
    config: &RpcConfig,
) {
    out.bytes_up += wr.bytes_up;
    out.bytes_down += wr.bytes_down;
    out.faults.retransmits = out.faults.retransmits.saturating_add(wr.retransmits);
    for key in wr.delivered {
        delivered.insert(key);
    }
    for (c, raw, enc) in wr.comp {
        out.compression.record(c, raw, enc);
    }
    out.reports.extend(wr.reports);
    out.late.extend(wr.late);
    out.rejects.merge(&wr.rejects);
    out.timings.ship_ns = out.timings.ship_ns.saturating_add(wr.ship_ns);
    out.timings.collect_ns = out.timings.collect_ns.saturating_add(wr.collect_ns);
    out.timings.decode_ns = out.timings.decode_ns.saturating_add(wr.decode_ns);
    out.timings.validate_ns = out.timings.validate_ns.saturating_add(wr.validate_ns);
    if wr.got {
        w.miss_streak = 0;
        w.reject_streak = 0;
    } else if w.alive {
        w.miss_streak += 1;
        if wr.rejected {
            w.reject_streak += 1;
        }
        if config.evict_after > 0 && w.miss_streak >= config.evict_after {
            w.evicted = true;
            out.faults.evictions = out.faults.evictions.saturating_add(1);
            if w.reject_streak > 0 {
                // evicted while its uploads were being refused:
                // misbehaving, not merely slow
                out.rejects.suspected_byzantine += 1;
            }
        }
    }
}

impl RoundBackend for RpcBackend {
    fn run_round(&mut self, request: RoundRequest<'_>) -> RoundOutcome {
        let t = request.round;
        let k = request.masks.len();
        let masks = request.masks;
        let bandwidths = request.bandwidths_mbps;
        let active_slots = request.active;
        let is_active = |p: usize| active_slots.is_none_or(|a| a.get(p).copied().unwrap_or(true));
        let mut out = RoundOutcome {
            download_frame_bytes: vec![0; k],
            ..Default::default()
        };
        let RpcBackend {
            workers,
            config,
            sent_masks,
            delivered,
            download_frames,
            weights_buf,
            buffers_buf,
            expected_lens,
            growth,
            ..
        } = self;
        let config: &RpcConfig = config;
        // prune attribution history beyond the late-reply horizon
        sent_masks.retain(|&(r, _), _| r + HISTORY_ROUNDS > t);
        delivered.retain(|&(r, _)| r + HISTORY_ROUNDS > t);
        // --- phase 0: service evicted workers ---
        // Drain whatever their links buffered (late replies are attributed,
        // a heartbeat re-admits), then probe the still-evicted for life.
        // Slots whose sampled client is out this round are skipped: an
        // unavailable client can neither be probed nor heartbeat back, so
        // re-admission composes with the availability schedule.
        for (p, w) in workers.iter_mut().enumerate() {
            if !w.alive || !w.evicted || !is_active(p) {
                continue;
            }
            loop {
                let transport = w.transport.as_mut().expect("live worker has transport");
                let Ok(frame) = transport.recv_timeout(EVICTED_DRAIN) else {
                    break;
                };
                out.bytes_up += frame.len() as u64;
                let msg = match decode(&frame) {
                    Ok(m) => m,
                    Err(_) => continue,
                };
                if let Message::Heartbeat { .. } = msg {
                    readmit(w, &mut out);
                    continue;
                }
                if let Reply::Report { r, report, comp } = classify_reply(msg, sent_masks) {
                    let pid = report.participant;
                    if r < t && !delivered.contains(&(r, pid)) {
                        if let Some((mask, _)) = sent_masks.get(&(r, pid)) {
                            delivered.insert((r, pid));
                            if let Some((c, raw, enc)) = comp {
                                out.compression.record(c, raw, enc);
                            }
                            out.late.push(BackendReport {
                                mask: mask.clone(),
                                ..report
                            });
                        }
                    }
                }
            }
            if w.evicted {
                let transport = w.transport.as_mut().expect("live worker has transport");
                let probe = encode(&Message::Ack { round: t as u64 });
                match transport.send(&probe) {
                    Ok(()) => out.bytes_down += probe.len() as u64,
                    Err(_) => w.alive = false,
                }
            }
        }
        // --- phase 1: encode downloads into reusable frame buffers ---
        // All frames are staged before anything ships, so the reactor's
        // collector threads share them as immutable `&[u8]` and the serial
        // mode replays the exact legacy send loop over them.
        let prep_start = Instant::now();
        if download_frames.len() < k {
            download_frames.resize_with(k, Vec::new);
        }
        let mut submodels = request.submodels;
        // a reply's gradient vector must match the shipped sub-model's
        // parameter count exactly; the gate checks against this
        expected_lens.clear();
        for (p, sub) in submodels.iter_mut().enumerate() {
            if !is_active(p) {
                // nothing ships to an inactive slot: no frame, no
                // sent-mask entry (there is no reply to attribute), zero
                // measured download bytes
                expected_lens.push(0);
                continue;
            }
            let w_cap = weights_buf.capacity();
            let b_cap = buffers_buf.capacity();
            let f_cap = download_frames[p].capacity();
            weights_buf.clear();
            sub.visit_params(&mut |pp| weights_buf.extend_from_slice(pp.value.as_slice()));
            expected_lens.push(weights_buf.len());
            buffers_buf.clear();
            sub.visit_buffers(&mut |b| buffers_buf.extend_from_slice(b));
            // fp32 stays byte-identical to the pre-codec protocol;
            // otherwise the codec is resolved per participant from this
            // round's sampled link speed
            let codec = if config.codec.is_fp32() {
                None
            } else {
                let spec = resolve_codec(config.codec, bandwidths[p]);
                Some((spec.tag(), spec.param()))
            };
            encode_download_into(
                &mut download_frames[p],
                t as u64,
                request.seed_base,
                &masks[p],
                weights_buf,
                buffers_buf,
                request.alpha_logits,
                codec,
            );
            note_growth(growth, w_cap, weights_buf.capacity());
            note_growth(growth, b_cap, buffers_buf.capacity());
            note_growth(growth, f_cap, download_frames[p].capacity());
            out.download_frame_bytes[p] = download_frames[p].len() as u64;
            sent_masks.insert((t, p), (masks[p].clone(), expected_lens[p]));
        }
        out.timings.ship_ns = out
            .timings
            .ship_ns
            .saturating_add(prep_start.elapsed().as_nanos() as u64);
        let frames: &[Vec<u8>] = download_frames;
        // --- phase 2: ship, then collect replies under deadline + quorum
        // + retry; once the quorum has reported, stragglers only get a
        // short drain window and no retransmissions ---
        let is_eligible = |p: usize, w: &WorkerHandle| w.alive && !w.evicted && is_active(p);
        let on_time = AtomicUsize::new(0);
        match config.engine {
            EngineMode::Serial => {
                // serial reference: ship every download up front (shaped
                // sends sleep inline) while the fleet trains, then collect
                // strictly in participant order
                let ship_start = Instant::now();
                for (p, w) in workers.iter_mut().enumerate().take(k) {
                    if is_eligible(p, w) {
                        let transport = w.transport.as_mut().expect("live worker has transport");
                        transport.set_mbps(bandwidths[p]);
                        match transport.send(&frames[p]) {
                            Ok(()) => out.bytes_down += frames[p].len() as u64,
                            Err(_) => w.alive = false,
                        }
                    }
                }
                out.timings.ship_ns = out
                    .timings
                    .ship_ns
                    .saturating_add(ship_start.elapsed().as_nanos() as u64);
                // the quorum counts only workers whose download went out
                let eligible = (0..k.min(workers.len()))
                    .filter(|&p| is_eligible(p, &workers[p]))
                    .count();
                let target = quorum_target(config.quorum_frac, eligible);
                for (p, w) in workers.iter_mut().enumerate().take(k) {
                    if !is_eligible(p, w) {
                        continue;
                    }
                    let wr = collect_worker(
                        p,
                        t,
                        w,
                        config,
                        &frames[p],
                        expected_lens[p],
                        &masks[p],
                        sent_masks,
                        delivered,
                        &on_time,
                        target,
                    );
                    merge_worker_round(&mut out, delivered, w, wr, config);
                }
            }
            EngineMode::Reactor => {
                // bounded collector pool: T scoped threads, each driving a
                // contiguous chunk of links through nonblocking readiness
                // sweeps with per-link scheduled-send/deadline/retry/drain
                // state machines. Collectors read the global
                // `sent_masks`/`delivered` snapshots immutably — link p
                // only ever carries participant p's replies, so local
                // additions are disjoint — and the send gate holds the
                // quorum back until every download has gone out. Chunks
                // are contiguous and each returns its results in
                // participant order, so the commit loop below is the same
                // in-order merge as serial.
                let kk = k.min(workers.len());
                let eligibility: Vec<bool> = workers
                    .iter()
                    .enumerate()
                    .take(kk)
                    .map(|(p, w)| is_eligible(p, w))
                    .collect();
                let eligible = eligibility.iter().filter(|&&e| e).count();
                let threads = crate::reactor::pool_size(config.reactor_threads, eligible.max(1));
                let chunk_len = kk.div_ceil(threads).max(1);
                let sent_ref: &HashMap<(usize, usize), (ArchMask, usize)> = sent_masks;
                let delivered_ref: &HashSet<(usize, usize)> = delivered;
                let on_time_ref = &on_time;
                // `eligible` is the pre-send population — the gate
                // subtracts failed sends so every collector derives the
                // same post-ship quorum target the serial engine computes
                let gate = SendGate::new(eligible, config.quorum_frac);
                let gate_ref = &gate;
                let lens: &[usize] = expected_lens;
                let elig_ref: &[bool] = &eligibility;
                // every chunk schedules its shaped sends from this instant
                let start = Instant::now();
                let rounds: Vec<(usize, WorkerRound)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = workers[..kk]
                        .chunks_mut(chunk_len)
                        .enumerate()
                        .map(|(ci, chunk)| {
                            let base = ci * chunk_len;
                            scope.spawn(move || {
                                crate::reactor::collect_chunk(
                                    chunk,
                                    base,
                                    t,
                                    start,
                                    config,
                                    frames,
                                    lens,
                                    masks,
                                    sent_ref,
                                    delivered_ref,
                                    on_time_ref,
                                    gate_ref,
                                    bandwidths,
                                    elig_ref,
                                )
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("reactor collector panicked"))
                        .collect()
                });
                for (p, wr) in rounds {
                    merge_worker_round(&mut out, delivered, &mut workers[p], wr, config);
                }
            }
        }
        // fold per-link injected-fault counters into the round outcome
        for w in workers.iter_mut() {
            if let Some(link) = w.transport.as_mut() {
                out.faults.merge(&link.inner_mut().take_tally());
            }
        }
        // The workers drew this round's batches on their own participant
        // copies, so mirror the loader-state transition on the lent ones
        // (shuffle draws precede augmentation draws in `next_batch`, so
        // replaying only the pick loop lands on the same state). This keeps
        // the server's participants authoritative for checkpoints.
        for p in request.participants.iter_mut() {
            if is_active(p.id()) {
                p.advance_data(&mut participant_rng(request.seed_base, p.id()));
            }
        }
        // aggregation order must match the in-process backend exactly
        out.reports.sort_by_key(|r| r.participant);
        out.late.sort_by_key(|r| (r.computed_at, r.participant));
        out
    }

    fn describe(&self) -> String {
        match self.config.transport {
            TransportKind::InMemory => "in-memory".to_string(),
            TransportKind::Tcp => "loopback-tcp".to_string(),
        }
    }

    fn collect_residuals(&mut self) -> Option<Vec<Vec<f32>>> {
        if self.config.codec.is_fp32() {
            return None; // no compression: server participants stay authoritative
        }
        Some(
            self.residuals
                .iter()
                .map(|r| r.lock().expect("residual lock").clone())
                .collect(),
        )
    }
}

impl Drop for RpcBackend {
    fn drop(&mut self) {
        // closing the transports makes every worker-side poll report
        // `Closed`; a fleet thread exits once all of its links have
        for w in &mut self.workers {
            w.transport = None;
        }
        for join in self.pool_joins.drain(..) {
            let _ = join.join();
        }
    }
}

/// Clones the server's participants and dataset into a worker fleet and
/// installs the RPC backend on the server. From this point every round's
/// payloads cross the configured transport and `CommStats` records
/// measured wire bytes.
pub fn install(server: &mut SearchServer, dataset: &SyntheticDataset, config: RpcConfig) {
    install_with_faults(server, dataset, config, &[]);
}

/// [`install`] with scripted per-worker faults (test harness).
pub fn install_with_faults(
    server: &mut SearchServer,
    dataset: &SyntheticDataset,
    mut config: RpcConfig,
    faults: &[ScriptedFault],
) {
    // the server's `SearchConfig` is the single source of truth for the
    // codec — the backend must agree with what checkpoints will record
    config.codec = server.config().codec;
    let backend = RpcBackend::with_faults(
        server.participants(),
        &server.config().net.clone(),
        dataset,
        config,
        faults,
    );
    server.set_backend(Box::new(backend));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_saturates_and_stays_bounded() {
        let base = Duration::from_millis(10);
        for attempt in 0..200 {
            let d = backoff_delay(base, attempt, 7);
            assert!(
                d <= MAX_BACKOFF,
                "attempt {attempt} exceeded the cap: {d:?}"
            );
            let raw = base
                .saturating_mul(
                    u32::try_from(1u64.checked_shl(attempt.min(63) as u32).unwrap_or(u64::MAX))
                        .unwrap_or(u32::MAX),
                )
                .min(MAX_BACKOFF);
            assert!(
                d >= raw.mul_f64(0.75),
                "attempt {attempt} under the jitter floor"
            );
        }
        // an absurd base must not panic or overflow either
        let huge = backoff_delay(Duration::from_secs(u64::MAX / 4), 63, 1);
        assert!(huge <= MAX_BACKOFF);
    }

    #[test]
    fn backoff_is_deterministic_and_desynchronized() {
        let base = Duration::from_millis(10);
        assert_eq!(backoff_delay(base, 3, 42), backoff_delay(base, 3, 42));
        // different salts (worker/round) should not all collide
        let delays: Vec<Duration> = (0..16).map(|s| backoff_delay(base, 3, s)).collect();
        let distinct: std::collections::HashSet<Duration> = delays.iter().copied().collect();
        assert!(distinct.len() > 1, "jitter must desynchronize workers");
    }

    #[test]
    fn backoff_grows_before_the_cap() {
        let base = Duration::from_millis(10);
        // jitter is at most ±25%, so a doubling always dominates it
        for attempt in 0..5 {
            assert!(backoff_delay(base, attempt + 1, 9) > backoff_delay(base, attempt, 9));
        }
    }

    /// Pins the `suspected_byzantine` semantics across re-admission:
    /// the counter tallies eviction *events* with a live reject streak,
    /// and a heartbeat re-admission clears that streak — suspicion must
    /// be re-earned, so a later silence-only eviction adds nothing.
    #[test]
    fn readmission_clears_byzantine_suspicion_streak() {
        let config = RpcConfig {
            evict_after: 2,
            ..RpcConfig::default()
        };
        let mut w = WorkerHandle {
            transport: None,
            alive: true,
            evicted: false,
            miss_streak: 0,
            reject_streak: 0,
        };
        let mut out = RoundOutcome::default();
        let mut delivered: HashSet<(usize, usize)> = HashSet::new();
        // two rounds of rejected replies: streaks build, the eviction is
        // flagged as suspected Byzantine
        for _ in 0..2 {
            let wr = WorkerRound {
                rejected: true,
                ..WorkerRound::default()
            };
            merge_worker_round(&mut out, &mut delivered, &mut w, wr, &config);
        }
        assert!(w.evicted);
        assert_eq!(out.rejects.suspected_byzantine, 1);
        // heartbeat re-admission: a fresh start on every streak
        readmit(&mut w, &mut out);
        assert!(!w.evicted);
        assert_eq!(w.miss_streak, 0);
        assert_eq!(w.reject_streak, 0);
        assert_eq!(out.churn.readmitted, 1);
        // evicted again for mere silence: no new Byzantine suspicion
        for _ in 0..2 {
            merge_worker_round(
                &mut out,
                &mut delivered,
                &mut w,
                WorkerRound::default(),
                &config,
            );
        }
        assert!(w.evicted);
        assert_eq!(
            out.rejects.suspected_byzantine, 1,
            "suspicion must be re-earned after re-admission"
        );
    }
}
