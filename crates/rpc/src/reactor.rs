//! Event-driven scale engine: bounded pools instead of a thread per
//! participant.
//!
//! Both sides of every link are driven from bounded pools sized by
//! [`RpcConfig::reactor_threads`] (default: the `FEDRLNAS_NUM_THREADS`
//! convention, falling back to the machine's parallelism):
//!
//! * **Worker fleet** (both engine modes) — participants are split into
//!   contiguous shards, one pool thread per shard. Each thread owns *one*
//!   supernet structure (weights always arrive over the wire, so nothing
//!   training-relevant lives in it) plus a [`WorkerState`] per
//!   participant, and sweeps its links with the nonblocking
//!   [`Transport::poll_recv`] readiness probe, sleeping briefly only when
//!   a full sweep finds nothing. A scripted `delay` *parks* its link: the
//!   frame is stashed and handled once the delay expires, while the other
//!   links of the shard keep running. A thread exits once every one of its
//!   links has closed.
//! * **Server collector** ([`EngineMode::Reactor`](crate::EngineMode)) —
//!   phase 2 partitions the eligible links into contiguous chunks, one
//!   scoped pool thread per chunk. Each link gets a small state machine
//!   (scheduled send time, attempt count, wait-window start, quorum-drain
//!   clock) that sends each download when its shaped transmission time
//!   since the round start falls due — retransmits reuse the same
//!   scheduled-send slot after their backoff — and otherwise waits out the
//!   per-attempt deadline, a fresh [`RpcConfig::quorum_drain`] window from
//!   the moment the quorum transition is observed, and bounded backed-off
//!   retransmits, without ever blocking on a single link or sleeping a
//!   link delay.
//!
//! Determinism: the round outcome depends only on the *set* of on-time
//! replies and the per-link content order (see `EngineMode`), both of
//! which are preserved — every reply frame flows through the same
//! `absorb_reply_frame` path as the serial reference, links are committed
//! in participant order, and the quorum target comes from the same
//! [`SendGate`] population. Fault-free full-quorum rounds are therefore
//! bit-identical to serial; under partial quorum or injected faults the
//! outcome depends on which replies beat their deadlines, as it does in
//! serial.

use std::collections::{HashMap, HashSet};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fedrlnas_darts::{ArchMask, Supernet, SupernetConfig};
use fedrlnas_data::SyntheticDataset;
use fedrlnas_fed::Participant;
use rand::{rngs::StdRng, SeedableRng};

use crate::engine::{
    absorb_reply_frame, backoff_delay, wrap_link, FrameOutcome, FrameStep, Link, RpcConfig,
    ScriptedFault, SendGate, WorkerHandle, WorkerRound, WorkerState,
};
use crate::fault::FaultPlan;
use crate::transport::{ChannelTransport, TcpTransport, Transport};
use crate::wire::{decode, encode, Message};
use crate::TransportKind;

/// How long an idle sweep sleeps before re-polling its links. Far below
/// both the quorum-drain window (5ms) and any realistic deadline, so the
/// added wait-detection latency is noise; high enough that an idle pool
/// thread costs ~no CPU.
const IDLE_SWEEP: Duration = Duration::from_micros(200);

/// Resolves the reactor pool size: an explicit [`RpcConfig::reactor_threads`]
/// wins; `0` defers to the process-wide `FEDRLNAS_NUM_THREADS` convention
/// (via [`fedrlnas_tensor::num_threads`]). Always in `[1, work_items]` —
/// there is never a reason to run more pool threads than links.
pub(crate) fn pool_size(configured: usize, work_items: usize) -> usize {
    let raw = if configured > 0 {
        configured
    } else {
        fedrlnas_tensor::num_threads()
    };
    raw.clamp(1, work_items.max(1))
}

/// One pool thread's share of the worker fleet: the worker-side transport
/// endpoint plus everything its [`WorkerState`] needs.
type FleetMember = (
    Box<dyn Transport>,
    Participant,
    ScriptedFault,
    Arc<Mutex<Vec<f32>>>,
);

/// A shard member before its TCP endpoint exists (the pool thread
/// connects its own sockets).
type PendingMember = (Participant, ScriptedFault, Arc<Mutex<Vec<f32>>>);

/// Spawns the pooled worker fleet: participants are partitioned into
/// contiguous shards, each driven by one pool thread. Returns the
/// server-side handles plus the pool threads' join handles.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_pooled_workers(
    participants: &[Participant],
    net: &SupernetConfig,
    dataset: &SyntheticDataset,
    faults: &[ScriptedFault],
    plan: &FaultPlan,
    residuals: &[Arc<Mutex<Vec<f32>>>],
    growth: &Arc<AtomicU64>,
    time_scale: f64,
    transport: TransportKind,
    configured_threads: usize,
) -> (Vec<WorkerHandle>, Vec<JoinHandle<()>>) {
    let n = participants.len();
    let threads = pool_size(configured_threads, n);
    let shard_len = n.div_ceil(threads).max(1);
    let mut joins: Vec<JoinHandle<()>> = Vec::new();
    match transport {
        TransportKind::InMemory => {
            let mut handles: Vec<WorkerHandle> = Vec::with_capacity(n);
            for lo in (0..n).step_by(shard_len) {
                let hi = (lo + shard_len).min(n);
                let mut fleet: Vec<FleetMember> = Vec::with_capacity(hi - lo);
                for (i, p) in participants.iter().enumerate().take(hi).skip(lo) {
                    let (server_end, worker_end) = ChannelTransport::pair();
                    handles.push(WorkerHandle {
                        transport: Some(wrap_link(Box::new(server_end), i, plan, time_scale)),
                        alive: true,
                        evicted: false,
                        miss_streak: 0,
                        reject_streak: 0,
                    });
                    fleet.push((
                        Box::new(worker_end),
                        p.clone(),
                        faults.get(i).copied().unwrap_or_default(),
                        residuals[i].clone(),
                    ));
                }
                let net = net.clone();
                let dataset = dataset.clone();
                let growth = growth.clone();
                joins.push(std::thread::spawn(move || {
                    fleet_loop(fleet, net, dataset, growth)
                }));
            }
            (handles, joins)
        }
        TransportKind::Tcp => {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
            let addr = listener.local_addr().expect("listener address");
            for lo in (0..n).step_by(shard_len) {
                let hi = (lo + shard_len).min(n);
                let shard: Vec<PendingMember> = (lo..hi)
                    .map(|i| {
                        (
                            participants[i].clone(),
                            faults.get(i).copied().unwrap_or_default(),
                            residuals[i].clone(),
                        )
                    })
                    .collect();
                let net = net.clone();
                let dataset = dataset.clone();
                let growth = growth.clone();
                joins.push(std::thread::spawn(move || {
                    // connect + handshake every link in the shard, then
                    // drive them all from this one thread
                    let fleet: Vec<FleetMember> = shard
                        .into_iter()
                        .map(|(p, fault, residual)| {
                            let stream =
                                std::net::TcpStream::connect(addr).expect("connect loopback");
                            let mut t: Box<dyn Transport> =
                                Box::new(TcpTransport::new(stream).expect("wrap stream"));
                            let _ = t.send(&encode(&Message::Heartbeat {
                                participant: p.id() as u32,
                            }));
                            (t, p, fault, residual)
                        })
                        .collect();
                    fleet_loop(fleet, net, dataset, growth)
                }));
            }
            // accept one connection per participant; the handshake
            // heartbeat says which worker is on the other end
            let mut slots: Vec<Option<Link>> = (0..n).map(|_| None).collect();
            for _ in 0..n {
                let (stream, _) = listener.accept().expect("accept worker connection");
                let mut t = TcpTransport::new(stream).expect("wrap accepted stream");
                let frame = t
                    .recv_timeout(Duration::from_secs(10))
                    .expect("handshake frame");
                let id = match decode(&frame) {
                    Ok(Message::Heartbeat { participant }) => participant as usize,
                    other => panic!("expected handshake heartbeat, got {other:?}"),
                };
                slots[id] = Some(wrap_link(
                    Box::new(t) as Box<dyn Transport>,
                    id,
                    plan,
                    time_scale,
                ));
            }
            let handles = slots
                .into_iter()
                .map(|transport| WorkerHandle {
                    transport: Some(transport.expect("every worker handshook")),
                    alive: true,
                    evicted: false,
                    miss_streak: 0,
                    reject_streak: 0,
                })
                .collect();
            (handles, joins)
        }
    }
}

/// Drives one shard of the worker fleet: readiness-sweeps every open link,
/// handling frames through each participant's [`WorkerState`], and exits
/// once all links have closed. A parked link (scripted delay) is not
/// polled until its stashed frame is due, so its queued frames keep their
/// order. One supernet *structure* serves the whole shard — every weight
/// is overwritten from the wire before use, so sharing it cannot leak
/// state across participants.
fn fleet_loop(
    fleet: Vec<FleetMember>,
    net: SupernetConfig,
    dataset: SyntheticDataset,
    growth: Arc<AtomicU64>,
) {
    if fleet.is_empty() {
        return;
    }
    let first_id = fleet[0].1.id();
    let mut structure_rng = StdRng::seed_from_u64(0x5EED ^ first_id as u64);
    let mut supernet = Supernet::new(net, &mut structure_rng);
    let theta_len = supernet.param_count();
    let mut links: Vec<Option<Box<dyn Transport>>> = Vec::with_capacity(fleet.len());
    let mut states: Vec<WorkerState> = Vec::with_capacity(fleet.len());
    for (transport, participant, fault, residual) in fleet {
        links.push(Some(transport));
        states.push(WorkerState::new(
            participant,
            fault,
            residual,
            growth.clone(),
        ));
    }
    let mut parked: Vec<Option<(Instant, Vec<u8>)>> = (0..links.len()).map(|_| None).collect();
    let mut open = links.len();
    while open > 0 {
        let mut progressed = false;
        for (i, slot) in links.iter_mut().enumerate() {
            let Some(transport) = slot.as_mut() else {
                continue;
            };
            let now = Instant::now();
            let mut next = parked[i].take_if(|(due, _)| *due <= now).map(|(_, f)| f);
            let mut close = false;
            // drain everything this link has ready before moving on —
            // per-link content order is what determinism rests on
            loop {
                let frame = match next.take() {
                    Some(frame) => frame,
                    None if parked[i].is_some() => break, // still parked
                    None => match transport.poll_recv() {
                        Ok(Some(frame)) => frame,
                        Ok(None) => break,
                        Err(_) => {
                            close = true;
                            break;
                        }
                    },
                };
                progressed = true;
                match states[i].handle_frame(
                    &mut supernet,
                    theta_len,
                    &dataset,
                    &mut **transport,
                    &frame,
                ) {
                    FrameOutcome::Continue => {}
                    FrameOutcome::Exit => {
                        close = true;
                        break;
                    }
                    FrameOutcome::Park(delay) => {
                        parked[i] = Some((Instant::now() + delay, frame));
                        break;
                    }
                }
            }
            if close {
                *slot = None;
                open -= 1;
            }
        }
        if open > 0 && !progressed {
            std::thread::sleep(IDLE_SWEEP);
        }
    }
}

/// Per-link collector state machine, the reactor's replacement for one
/// blocking serial wait.
struct LinkCtx {
    /// Index within the chunk (`p - base`).
    idx: usize,
    /// Absolute participant index.
    p: usize,
    wr: WorkerRound,
    /// Whether the round's first download has gone out.
    sent: bool,
    /// Retransmissions performed so far.
    attempts: usize,
    /// Start of the current wait window (first send or last resend) — the
    /// per-attempt deadline is measured from here.
    window_start: Instant,
    /// When this link first observed the quorum transition; from that
    /// moment it gets a fresh [`RpcConfig::quorum_drain`] budget.
    met_at: Option<Instant>,
    /// A scheduled send: the first download once its shaped transmission
    /// time has elapsed, or a retransmit once its backoff (plus the
    /// transmission time) has. While set, the link is not polled — the
    /// serial path is asleep in its send or backoff too.
    send_at: Option<Instant>,
    done: bool,
}

/// Phase 2 for one contiguous chunk of workers: send each eligible
/// download when `start` plus its shaped link delay falls due, and drive
/// every link's state machine through nonblocking readiness sweeps until
/// all are settled. Returns `(participant, WorkerRound)` pairs in
/// participant order; the caller commits them with `merge_worker_round`
/// exactly like serial.
#[allow(clippy::too_many_arguments)]
pub(crate) fn collect_chunk(
    chunk: &mut [WorkerHandle],
    base: usize,
    t: usize,
    start: Instant,
    config: &RpcConfig,
    frames: &[Vec<u8>],
    expected_lens: &[usize],
    masks: &[ArchMask],
    sent_masks: &HashMap<(usize, usize), (ArchMask, usize)>,
    delivered: &HashSet<(usize, usize)>,
    on_time: &AtomicUsize,
    gate: &SendGate,
    bandwidths: &[f64],
    eligible: &[bool],
) -> Vec<(usize, WorkerRound)> {
    let mut ctxs: Vec<LinkCtx> = Vec::with_capacity(chunk.len());
    for (i, w) in chunk.iter_mut().enumerate() {
        let p = base + i;
        if !eligible[p] {
            continue;
        }
        let transport = w.transport.as_mut().expect("live worker has transport");
        transport.set_mbps(bandwidths[p]);
        ctxs.push(LinkCtx {
            idx: i,
            p,
            wr: WorkerRound::default(),
            sent: false,
            attempts: 0,
            window_start: start,
            met_at: None,
            send_at: Some(start + transport.delay(frames[p].len())),
            done: false,
        });
    }
    // --- event loop: sweep all undone links until each settles ---
    let mut remaining = ctxs.len();
    while remaining > 0 {
        let mut progressed = false;
        for c in ctxs.iter_mut() {
            if c.done {
                continue;
            }
            let w = &mut chunk[c.idx];
            let transport = w.transport.as_mut().expect("live worker has transport");
            if let Some(at) = c.send_at {
                if Instant::now() < at {
                    continue; // not due: not listening, like the serial path
                }
                c.send_at = None;
                progressed = true;
                // the link delay has already elapsed on the schedule, so
                // the frame bypasses the shaping sleep
                let send_start = Instant::now();
                let sent = transport.inner_mut().send(&frames[c.p]);
                if c.sent {
                    c.attempts += 1;
                    c.wr.retransmits += 1;
                } else {
                    c.sent = true;
                    gate.record(sent.is_ok());
                    c.wr.ship_ns = send_start.elapsed().as_nanos() as u64;
                }
                if sent.is_err() {
                    w.alive = false;
                    c.done = true;
                    remaining -= 1;
                    continue;
                }
                c.wr.bytes_down += frames[c.p].len() as u64;
                // each send opens a fresh wait window
                c.window_start = Instant::now();
                c.met_at = None;
            }
            let poll_start = Instant::now();
            let polled = transport.poll_recv();
            c.wr.collect_ns =
                c.wr.collect_ns
                    .saturating_add(poll_start.elapsed().as_nanos() as u64);
            match polled {
                Ok(Some(frame_in)) => {
                    progressed = true;
                    if absorb_reply_frame(
                        &mut c.wr,
                        &frame_in,
                        t,
                        expected_lens[c.p],
                        &masks[c.p],
                        sent_masks,
                        delivered,
                        on_time,
                        config.update_norm_bound,
                    ) == FrameStep::Done
                    {
                        c.done = true;
                        remaining -= 1;
                    }
                }
                Ok(None) => {
                    let now = Instant::now();
                    // unmet until every download of the round has gone out
                    let quorum_met = gate
                        .target()
                        .is_some_and(|target| on_time.load(Ordering::Relaxed) >= target);
                    if c.met_at.is_none() && quorum_met {
                        c.met_at = Some(now);
                    }
                    let expired = match c.met_at {
                        Some(m) => now.duration_since(m) >= config.quorum_drain,
                        None => now.duration_since(c.window_start) >= config.deadline,
                    };
                    if !expired {
                        continue;
                    }
                    // the blocking path releases a reorder-held frame when
                    // its recv deadline expires; mirror that before
                    // declaring the attempt timed out
                    if let Some(held) = transport.inner_mut().release_held() {
                        progressed = true;
                        if absorb_reply_frame(
                            &mut c.wr,
                            &held,
                            t,
                            expected_lens[c.p],
                            &masks[c.p],
                            sent_masks,
                            delivered,
                            on_time,
                            config.update_norm_bound,
                        ) == FrameStep::Done
                        {
                            c.done = true;
                            remaining -= 1;
                        }
                        continue;
                    }
                    if !quorum_met && c.attempts < config.max_retries {
                        let salt = ((t as u64) << 32) | c.p as u64;
                        c.send_at = Some(
                            now + backoff_delay(config.retry_backoff, c.attempts, salt)
                                + transport.delay(frames[c.p].len()),
                        );
                    } else {
                        c.done = true; // late: the reply, if any, surfaces next round
                        remaining -= 1;
                    }
                }
                Err(_) => {
                    w.alive = false;
                    c.done = true;
                    remaining -= 1;
                }
            }
        }
        if remaining > 0 && !progressed {
            std::thread::sleep(IDLE_SWEEP);
        }
    }
    ctxs.into_iter().map(|c| (c.p, c.wr)).collect()
}
