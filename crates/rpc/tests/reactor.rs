//! Reactor-engine equivalence suite: the event-driven round engine — a
//! bounded pool of readiness-sweeping collectors over nonblocking
//! `poll_recv`, with a pooled worker fleet on the other side — must be
//! bit-identical to the serial reference for the same seed: same
//! genotype, same curves, same measured `CommStats`. Over both
//! transports, under codecs, recoverable fault plans, crashes and
//! adversaries, on shaped links, and with the pool deliberately smaller
//! than the cohort so every thread drives several links. Plus the
//! reactor's own timing contracts — shaped sends overlap and a parked
//! worker stalls nobody else — and the grow-only scratch-buffer contract:
//! after the first few rounds the hot path stops allocating.

use std::time::{Duration, Instant};

use fedrlnas_codec::{CodecConfig, CodecSpec};
use fedrlnas_controller::Alpha;
use fedrlnas_core::{
    FederatedModelSearch, RoundBackend, RoundOutcome, RoundRequest, SearchConfig, SearchOutcome,
};
use fedrlnas_darts::{ArchMask, Supernet};
use fedrlnas_data::SyntheticDataset;
use fedrlnas_fed::Participant;
use fedrlnas_rpc::{
    install, install_with_faults, Attack, EngineMode, FaultPlan, RpcBackend, RpcConfig,
    ScriptedFault, TransportKind,
};
use fedrlnas_sync::{StalenessModel, StalenessStrategy};
use rand::{rngs::StdRng, SeedableRng};

const SEED: u64 = 42;

fn run_search(config: SearchConfig, rpc: RpcConfig, faults: &[ScriptedFault]) -> SearchOutcome {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut search = FederatedModelSearch::new(config, &mut rng);
    let dataset = search.dataset().clone();
    if faults.is_empty() {
        install(search.server_mut(), &dataset, rpc);
    } else {
        install_with_faults(search.server_mut(), &dataset, rpc, faults);
    }
    search.run(&mut rng)
}

/// Runs the identical scenario under the serial reference and the reactor
/// and asserts the full outcome — trajectory *and* measured communication
/// accounting — is bit-identical.
fn assert_reactor_matches_serial(config: SearchConfig, rpc: RpcConfig, faults: &[ScriptedFault]) {
    let serial = run_search(
        config.clone(),
        RpcConfig {
            engine: EngineMode::Serial,
            ..rpc.clone()
        },
        faults,
    );
    let reactor = run_search(
        config,
        RpcConfig {
            engine: EngineMode::Reactor,
            ..rpc
        },
        faults,
    );
    assert_eq!(
        serial.genotype, reactor.genotype,
        "derived genotypes diverged"
    );
    assert_eq!(
        serial.warmup_curve, reactor.warmup_curve,
        "warm-up curves diverged"
    );
    assert_eq!(
        serial.search_curve, reactor.search_curve,
        "search curves diverged"
    );
    assert_eq!(
        serial.comm, reactor.comm,
        "communication accounting diverged"
    );
}

/// A two-thread pool over a multi-participant cohort: every pool thread
/// drives several links on both the worker and collector sides, the shape
/// the 10k-scale bench runs at.
fn bounded_pool(rpc: RpcConfig) -> RpcConfig {
    RpcConfig {
        reactor_threads: 2,
        ..rpc
    }
}

#[test]
fn reactor_is_the_default_engine() {
    assert_eq!(RpcConfig::default().engine, EngineMode::Reactor);
}

#[test]
fn quorum_drain_defaults_to_the_legacy_constant() {
    assert_eq!(RpcConfig::default().quorum_drain, Duration::from_millis(5));
}

#[test]
fn reactor_matches_serial_in_memory() {
    assert_reactor_matches_serial(
        SearchConfig::tiny(),
        bounded_pool(RpcConfig {
            transport: TransportKind::InMemory,
            ..RpcConfig::default()
        }),
        &[],
    );
}

#[test]
fn reactor_matches_serial_over_tcp() {
    assert_reactor_matches_serial(
        SearchConfig::tiny(),
        bounded_pool(RpcConfig {
            transport: TransportKind::Tcp,
            ..RpcConfig::default()
        }),
        &[],
    );
}

#[test]
fn reactor_matches_serial_with_auto_codec() {
    assert_reactor_matches_serial(
        SearchConfig::tiny().with_codec(CodecConfig::Auto),
        bounded_pool(RpcConfig {
            transport: TransportKind::InMemory,
            ..RpcConfig::default()
        }),
        &[],
    );
}

#[test]
fn reactor_matches_serial_under_recoverable_faults() {
    // the seeded fault schedule is a per-link pure function of the frames
    // crossing that link, and with full quorum the retry decisions are
    // per-worker — so even retransmission counts must agree exactly
    assert_reactor_matches_serial(
        SearchConfig::tiny(),
        bounded_pool(RpcConfig {
            transport: TransportKind::InMemory,
            deadline: Duration::from_millis(500),
            max_retries: 6,
            retry_backoff: Duration::from_millis(2),
            fault: FaultPlan::light(7),
            ..RpcConfig::default()
        }),
        &[],
    );
}

#[test]
fn reactor_matches_serial_with_crash_and_adversary() {
    // worker 0 crashes mid-run (its link closes under the readiness
    // sweep), worker 1 mounts a scaling attack the norm gate must reject
    // identically in both modes
    let config = SearchConfig::tiny()
        .with_staleness(StalenessModel::fresh(), StalenessStrategy::Use)
        .with_update_norm_bound(1e3);
    let k = config.num_participants;
    let mut faults = vec![ScriptedFault::default(); k];
    faults[0] = ScriptedFault {
        die_at_round: Some(3),
        ..ScriptedFault::default()
    };
    faults[1] = ScriptedFault {
        attack: Some(Attack::Scale(1e6)),
        ..ScriptedFault::default()
    };
    assert_reactor_matches_serial(
        config,
        bounded_pool(RpcConfig {
            transport: TransportKind::InMemory,
            deadline: Duration::from_millis(300),
            max_retries: 1,
            retry_backoff: Duration::from_millis(5),
            update_norm_bound: Some(1e3),
            ..RpcConfig::default()
        }),
        &faults,
    );
}

#[test]
fn repeated_reactor_runs_are_bit_identical() {
    // the reactor's sweeps interleave links nondeterministically at the
    // OS-scheduling level; the round outcome must not notice
    let rpc = bounded_pool(RpcConfig {
        transport: TransportKind::InMemory,
        ..RpcConfig::default()
    });
    let a = run_search(
        SearchConfig::tiny(),
        RpcConfig {
            engine: EngineMode::Reactor,
            ..rpc.clone()
        },
        &[],
    );
    let b = run_search(
        SearchConfig::tiny(),
        RpcConfig {
            engine: EngineMode::Reactor,
            ..rpc
        },
        &[],
    );
    assert_eq!(a.genotype, b.genotype, "genotypes diverged across runs");
    assert_eq!(
        a.search_curve, b.search_curve,
        "curves diverged across runs"
    );
    assert_eq!(a.comm, b.comm, "comm accounting diverged across runs");
}

/// Order-sensitive digest of everything determinism-relevant a round
/// produces: report order, training results, gradient bits, late-reply
/// attribution and measured byte counts.
fn round_digest(mut h: u64, out: &fedrlnas_core::RoundOutcome) -> u64 {
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3); // FNV-1a step
    };
    for report in out.reports.iter().chain(out.late.iter()) {
        mix(report.participant as u64);
        mix(report.computed_at as u64);
        mix(u64::from(report.accuracy.to_bits()));
        mix(u64::from(report.loss.to_bits()));
        for g in &report.grads {
            mix(u64::from(g.to_bits()));
        }
    }
    mix(out.bytes_down);
    mix(out.bytes_up);
    h
}

/// A standalone backend over a seeded cohort, driven round by round with
/// a fixed mask set — fixed payload sizes, chosen bandwidths.
struct Harness {
    backend: RpcBackend,
    participants: Vec<Participant>,
    dataset: SyntheticDataset,
    supernet: Supernet,
    masks: Vec<ArchMask>,
    alpha_logits: Vec<f32>,
}

impl Harness {
    fn new(config: SearchConfig, rpc: RpcConfig, faults: &[ScriptedFault]) -> Harness {
        let mut rng = StdRng::seed_from_u64(SEED);
        // only built to borrow seeded participants + dataset
        let search = FederatedModelSearch::new(config.clone(), &mut rng);
        let dataset = search.dataset().clone();
        let participants = search.server().participants().to_vec();
        let backend = RpcBackend::with_faults(&participants, &config.net, &dataset, rpc, faults);
        let supernet = Supernet::new(config.net.clone(), &mut rng);
        let alpha_logits = Alpha::new(&config.net).logits().as_slice().to_vec();
        let masks = (0..config.num_participants)
            .map(|_| ArchMask::uniform_random(&config.net, &mut rng))
            .collect();
        Harness {
            backend,
            participants,
            dataset,
            supernet,
            masks,
            alpha_logits,
        }
    }

    fn round(&mut self, t: usize, mbps: f64) -> RoundOutcome {
        let submodels = self
            .masks
            .iter()
            .map(|m| self.supernet.extract_submodel(m))
            .collect();
        let bandwidths = vec![mbps; self.masks.len()];
        self.backend.run_round(RoundRequest {
            round: t,
            masks: &self.masks,
            submodels,
            alpha_logits: &self.alpha_logits,
            bandwidths_mbps: &bandwidths,
            seed_base: SEED ^ t as u64,
            active: None,
            participants: &mut self.participants,
            dataset: &self.dataset,
        })
    }
}

/// Drives two fixed-mask rounds at a 64-participant cohort on a
/// standalone backend and digests the outcomes.
fn width64_digest(transport: TransportKind, engine: EngineMode) -> u64 {
    const N: usize = 64;
    let mut harness = Harness::new(
        SearchConfig::tiny().with_participants(N),
        RpcConfig {
            transport,
            engine,
            deadline: Duration::from_secs(30),
            ..RpcConfig::default()
        },
        &[],
    );
    let mut digest = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    for t in 0..2 {
        let out = harness.round(t, 50.0);
        assert_eq!(out.reports.len(), N, "round {t} must be full strength");
        digest = round_digest(digest, &out);
    }
    digest
}

/// The pool-vs-fleet shape the scale bench runs at, over both transports:
/// a 64-wide cohort where every reactor thread drives many links must
/// still match the serial reference bit for bit.
#[test]
#[ignore = "wide-cohort equivalence; slow in debug, exercised in release by CI"]
fn reactor_matches_serial_at_width_64_over_both_transports() {
    for transport in [TransportKind::InMemory, TransportKind::Tcp] {
        let serial = width64_digest(transport, EngineMode::Serial);
        let reactor = width64_digest(transport, EngineMode::Reactor);
        assert_eq!(
            serial, reactor,
            "serial and reactor diverged at n=64 over {transport:?}"
        );
    }
}

#[test]
fn single_thread_pool_still_completes_rounds() {
    // degenerate pool: one thread drives the whole cohort on each side
    assert_reactor_matches_serial(
        SearchConfig::tiny(),
        RpcConfig {
            transport: TransportKind::InMemory,
            reactor_threads: 1,
            ..RpcConfig::default()
        },
        &[],
    );
}

/// Participant 0 holds round 1's download past the deadline on shaped
/// links, with one pool thread on each side. Its reply must surface late
/// in round 2 under both engines while everyone else stays on time, so
/// the digests match: the parked link stalls nobody, and scheduled shaped
/// sends commit exactly what serial's inline sleeps do.
#[test]
fn reactor_matches_serial_on_shaped_links_with_a_parked_worker() {
    let digest = |engine| {
        let mut faults = vec![ScriptedFault::default(); 4];
        faults[0].delay = Some((1, Duration::from_millis(1500)));
        let mut harness = Harness::new(
            SearchConfig::tiny(),
            RpcConfig {
                engine,
                deadline: Duration::from_secs(1),
                max_retries: 0,
                // ~50 ms per download at 1 Mbps
                real_time_scale: 0.3,
                reactor_threads: 1,
                ..RpcConfig::default()
            },
            &faults,
        );
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for t in 0..3 {
            let out = harness.round(t, 1.0);
            let on_time: Vec<usize> = out.reports.iter().map(|r| r.participant).collect();
            let late: Vec<(usize, usize)> = out
                .late
                .iter()
                .map(|r| (r.computed_at, r.participant))
                .collect();
            match t {
                1 => assert_eq!(on_time, [1, 2, 3], "{engine:?} round 1"),
                _ => assert_eq!(on_time, [0, 1, 2, 3], "{engine:?} round {t}"),
            }
            let want_late: &[(usize, usize)] = if t == 2 { &[(1, 0)] } else { &[] };
            assert_eq!(late, want_late, "{engine:?} round {t} late replies");
            digest = round_digest(digest, &out);
        }
        digest
    };
    assert_eq!(digest(EngineMode::Serial), digest(EngineMode::Reactor));
}

/// One collector thread over eight shaped links: the downloads are sent
/// on a schedule, not slept one after another, so the round takes about
/// one link delay, far below their sum.
#[test]
fn shaped_sends_overlap_on_a_single_reactor_thread() {
    const MBPS: f64 = 1.0;
    const SCALE: f64 = 1.0;
    let mut harness = Harness::new(
        SearchConfig::tiny().with_participants(8),
        RpcConfig {
            engine: EngineMode::Reactor,
            real_time_scale: SCALE,
            reactor_threads: 1,
            ..RpcConfig::default()
        },
        &[],
    );
    let start = Instant::now();
    let out = harness.round(0, MBPS);
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(out.reports.len(), 8, "round must be full strength");
    let summed: f64 = out
        .download_frame_bytes
        .iter()
        .map(|&b| fedrlnas_netsim::transmission_secs(b as usize, MBPS) * SCALE)
        .sum();
    assert!(
        elapsed < summed / 2.0,
        "round took {elapsed:.3}s against {summed:.3}s of summed link delay"
    );
}

/// One pool thread serves the whole fleet: a scripted delay on
/// participant 0 parks only that link, so the others train and reply
/// within the deadline.
#[test]
fn a_parked_worker_leaves_its_shard_on_time() {
    let mut faults = vec![ScriptedFault::default(); 4];
    faults[0].delay = Some((0, Duration::from_millis(1500)));
    let mut harness = Harness::new(
        SearchConfig::tiny(),
        RpcConfig {
            engine: EngineMode::Reactor,
            deadline: Duration::from_millis(500),
            max_retries: 0,
            reactor_threads: 1,
            ..RpcConfig::default()
        },
        &faults,
    );
    let out = harness.round(0, 50.0);
    let on_time: Vec<usize> = out.reports.iter().map(|r| r.participant).collect();
    assert_eq!(on_time, [1, 2, 3], "only the parked participant misses");
}

/// The engine's hot-path buffers (download frames, staging vectors,
/// worker-side encode scratch and reply frames) are grow-only and reused
/// — after a warm-up the growth counter must stop moving, i.e. the
/// steady-state round path performs no buffer reallocation.
#[test]
fn scratch_buffers_stop_growing_after_warmup() {
    let codec = CodecConfig::Fixed(CodecSpec::TopK { k_frac: 0.25 });
    let config = SearchConfig::tiny().with_codec(codec);
    let k = config.num_participants;
    let mut harness = Harness::new(
        config,
        RpcConfig {
            codec,
            ..RpcConfig::default()
        },
        &[],
    );
    let mut growth_after_warmup = 0;
    for t in 0..12 {
        // the fixed mask set keeps payload sizes constant across rounds,
        // so any growth after the first rounds would be a reuse bug
        let out = harness.round(t, 50.0);
        assert_eq!(out.reports.len(), k, "round {t} must be full strength");
        if t == 3 {
            growth_after_warmup = harness.backend.buffer_growth_count();
            assert!(
                growth_after_warmup > 0,
                "initial rounds must populate the grow-only buffers"
            );
        }
    }
    assert_eq!(
        harness.backend.buffer_growth_count(),
        growth_after_warmup,
        "steady-state rounds must not grow any hot-path buffer"
    );
}
